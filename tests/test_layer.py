import gc
import os
import struct
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from littlebit import bitpack, layer, planner
from littlebit.errors import FormatError
from littlebit.layer import LittleBitLayer, QuantPath
from conftest import (random_layer, random_path, random_signs,
                      scalar_effective_weight)


def hand_layer():
    # d_in=2, r=1, d_out=2 worked example evaluated stage by stage
    return LittleBitLayer(
        d_out=2, d_in=2,
        primary=QuantPath(
            u_sign=bitpack.pack(np.array([[1.0], [1.0]])),
            v_sign=bitpack.pack(np.array([[1.0], [-1.0]])),
            h=np.array([1.0, 3.0]),
            g=np.array([1.0, 1.0]),
            ell=np.array([2.0])))


class TestEffectiveWeight:
    def test_rank1_constant(self):
        c = 0.37
        p = QuantPath(u_sign=bitpack.pack(np.ones((3, 1))),
                      v_sign=bitpack.pack(np.ones((4, 1))),
                      h=np.ones(3), g=np.ones(4), ell=np.array([c]))
        assert np.allclose(layer.path_effective_weight(p), c)

    def test_zero_h_annihilates(self, rng):
        p = random_path(rng, 5, 6, 2)
        p.h = np.zeros(5)
        assert np.all(layer.path_effective_weight(p) == 0)

    def test_matches_scalar_oracle(self, rng):
        p = random_path(rng, 6, 5, 3)
        assert np.max(np.abs(layer.path_effective_weight(p)
                             - scalar_effective_weight(p))) < 1e-12

    def test_layer_sums_paths(self, rng):
        lay = random_layer(rng, 7, 5, 3, residual=True, r_residual=2)
        expect = (layer.path_effective_weight(lay.primary)
                  + layer.path_effective_weight(lay.residual))
        assert np.array_equal(layer.effective_weight(lay), expect)


class TestForward:
    def test_hand_example(self):
        y = layer.forward(hand_layer(), np.array([[1.0, 2.0]]))
        assert np.array_equal(y, [[-2.0, -6.0]])

    def test_residual_identical_doubles(self, rng):
        p = random_path(rng, 6, 8, 3)
        single = LittleBitLayer(d_out=6, d_in=8, primary=p)
        double = LittleBitLayer(d_out=6, d_in=8, primary=p, residual=p)
        x = rng.standard_normal((4, 8))
        assert np.allclose(layer.forward(double, x), 2 * layer.forward(single, x),
                           rtol=1e-12)

    def test_matches_effective_weight_oracle(self, rng):
        lay = random_layer(rng, 33, 21, 5, residual=True)
        x = rng.standard_normal((4, 21))
        ref = x @ layer.effective_weight(lay).T
        rel = np.linalg.norm(layer.forward(lay, x) - ref) / np.linalg.norm(ref)
        assert rel < 1e-9

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40),
           st.integers(0, 40), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_matches_effective_weight_over_shapes(self, d_out, d_in, r, r_res,
                                                  n, seed):
        rng = np.random.default_rng(seed)
        lay = random_layer(rng, d_out, d_in, r, residual=r_res > 0,
                           r_residual=r_res or None)
        x = rng.standard_normal((n, d_in))
        ref = x @ layer.effective_weight(lay).T
        assert np.linalg.norm(layer.forward(lay, x) - ref) <= 1e-9 * np.linalg.norm(ref)

    @given(st.integers(1, 40), st.integers(1, 70), st.integers(1, 40),
           st.integers(0, 40), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_batch_rows_bit_identical_to_single_rows(self, d_out, d_in, r,
                                                     r_res, n, seed):
        rng = np.random.default_rng(seed)
        lay = random_layer(rng, d_out, d_in, r, residual=r_res > 0,
                           r_residual=r_res or None)
        x = rng.standard_normal((n, d_in))
        y = layer.forward(lay, x)
        for i in range(n):
            assert np.array_equal(y[i], layer.forward(lay, x[i:i + 1])[0])

    def test_empty_batch(self, rng):
        lay = random_layer(rng, 7, 5, 3, residual=True)
        assert layer.forward(lay, np.zeros((0, 5))).shape == (0, 7)

    def test_additivity_exact(self, rng):
        lay = random_layer(rng, 9, 11, 4, residual=True, r_residual=2)
        pri_only = LittleBitLayer(d_out=9, d_in=11, primary=lay.primary)
        res_only = LittleBitLayer(d_out=9, d_in=11, primary=lay.residual)
        x = rng.standard_normal((3, 11))
        lhs = layer.forward(lay, x)
        rhs = layer.forward(pri_only, x) + layer.forward(res_only, x)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_scale_equivariance(self, rng):
        lay = random_layer(rng, 8, 10, 3)
        x = rng.standard_normal((2, 10))
        y = layer.forward(lay, x)
        alpha = 2.7
        lay.primary.h = lay.primary.h * alpha
        y2 = layer.forward(lay, x)
        assert np.max(np.abs(y2 - alpha * y)) <= 1e-12 * np.max(np.abs(y2) + 1)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            layer.forward(hand_layer(), np.zeros((1, 3)))


def held_bytes(f):
    """Bytes of every array a factor holds, as the garbage collector sees
    its references, so a cached second layout would count too."""
    return sum(a.nbytes for a in gc.get_referents(f) if isinstance(a, np.ndarray))


class TestOneLayout:
    """A sign factor holds its bits once: the row layout until the first
    forward, then only the transpose the V-stage kernel reads."""

    def test_forward_holds_no_second_sign_copy(self, rng):
        # d_in a multiple of 64, as in model shapes, where the transposed
        # layout of V_sign is never larger than its row layout
        lay = random_layer(rng, 40, 128, 10, residual=True, r_residual=70)
        payloads = []
        for p in lay.paths():
            payloads.append((p.d_out + p.d_in) * bitpack.words_per_row(p.rank) * 8)
            assert held_bytes(p.u_sign) + held_bytes(p.v_sign) == payloads[-1]
        layer.forward(lay, rng.standard_normal((3, 128)))
        for p, payload in zip(lay.paths(), payloads):
            assert held_bytes(p.v_sign) == p.rank * bitpack.words_per_row(p.d_in) * 8
            assert held_bytes(p.u_sign) + held_bytes(p.v_sign) <= payload

    @given(st.integers(1, 70), st.integers(1, 140), st.integers(1, 70),
           st.integers(0, 70), st.integers(0, 2**32 - 1))
    def test_forward_changes_no_value(self, tmp_path_factory, d_out, d_in, r,
                                      r_res, seed):
        rng = np.random.default_rng(seed)
        lay = random_layer(rng, d_out, d_in, r, residual=r_res > 0,
                           r_residual=r_res or None)
        d = tmp_path_factory.mktemp("lbq")
        layer.save_lbq(lay, d / "before.lbq")
        signs = [bitpack.unpack(f) for p in lay.paths()
                 for f in (p.u_sign, p.v_sign)]
        w = layer.effective_weight(lay)
        layer.forward(lay, rng.standard_normal((1, d_in)))
        layer.save_lbq(lay, d / "after.lbq")
        assert (d / "before.lbq").read_bytes() == (d / "after.lbq").read_bytes()
        for s, f in zip(signs, (f for p in lay.paths()
                                for f in (p.u_sign, p.v_sign))):
            assert np.array_equal(bitpack.unpack(f), s)
        assert np.array_equal(layer.effective_weight(lay), w)


class TestMeasuredBpw:
    def test_paper_example_square(self, rng):
        lay = random_layer(rng, 4096, 4096, 546, residual=True)
        assert abs(layer.measured_bpw(lay, 16) - 0.5498) < 1e-4

    def test_paper_example_rect(self, rng):
        lay = random_layer(rng, 4096, 11008, 133, residual=True)
        assert abs(layer.measured_bpw(lay, 16) - 0.0999) < 1e-4

    def test_formula_exact(self, rng):
        for d_out, d_in, r in [(64, 48, 5), (130, 70, 9), (512, 384, 33)]:
            lay = random_layer(rng, d_out, d_in, r, residual=True)
            expect = (2 * r * (d_out + d_in) + 32 * (d_out + d_in) + 32 * r) \
                / (d_out * d_in)
            assert layer.measured_bpw(lay, 16) == pytest.approx(expect, abs=0)

    @given(st.integers(1, 4096), st.integers(1, 4096), st.integers(1, 300),
           st.integers(1, 300), st.sampled_from([16, 32]))
    def test_equals_path_bits_over_shapes(self, d_out, d_in, r_p, r_r, s):
        def path(r):
            def factor(rows):
                words = np.zeros((rows, bitpack.words_per_row(r)), np.uint64)
                return bitpack.BinaryFactor(rows, r, words)
            return QuantPath(u_sign=factor(d_out), v_sign=factor(d_in),
                             h=np.ones(d_out), g=np.ones(d_in), ell=np.ones(r))

        def lay(residual):
            return LittleBitLayer(d_out=d_out, d_in=d_in, primary=path(r_p),
                                  residual=residual)
        bits = (planner.path_bits(d_out, d_in, r_p, s)
                + planner.path_bits(d_out, d_in, r_r, s))
        assert layer.measured_bpw(lay(path(r_r)), s) == bits / (d_out * d_in)
        # equal ranks, and no residual: the planner's figure exactly
        assert layer.measured_bpw(lay(path(r_p))) == planner.bpw_for_rank(
            d_out, d_in, r_p, residual=True)
        assert layer.measured_bpw(lay(None)) == planner.bpw_for_rank(
            d_out, d_in, r_p, residual=False)

    def test_scales_only_floor(self, rng):
        # r=0 paths: only the scale vectors remain
        def path(r):
            return QuantPath(
                u_sign=bitpack.BinaryFactor(4096, 0, np.zeros((4096, 0), np.uint64)),
                v_sign=bitpack.BinaryFactor(4096, 0, np.zeros((4096, 0), np.uint64)),
                h=np.ones(4096), g=np.ones(4096), ell=np.zeros(0))
        lay = LittleBitLayer(d_out=4096, d_in=4096, primary=path(0), residual=path(0))
        assert layer.measured_bpw(lay, 16) == 32 * 8192 / 4096 ** 2
        assert layer.measured_bpw(lay, 32) == 64 * 8192 / 4096 ** 2

    def test_param_bytes_budget(self, rng):
        # logical payload of the 0.55-target layer stays within 1% of
        # achieved_bpw/8 * d_out*d_in (header and pad bits excluded)
        lay = random_layer(rng, 4096, 4096, 546, residual=True)
        expect = 0.5498 / 8 * 4096 ** 2
        assert abs(layer.param_bytes(lay, 16) - expect) / expect < 0.01


class TestLbqFormat:
    def test_roundtrip_forward_identical(self, rng, tmp_path):
        lay = random_layer(rng, 18, 9, 4, residual=True, r_residual=3)
        p1 = tmp_path / "a.lbq"
        p2 = tmp_path / "b.lbq"
        layer.save_lbq(lay, p1)
        loaded = layer.load_lbq(p1)
        layer.save_lbq(loaded, p2)
        again = layer.load_lbq(p2)
        x = rng.standard_normal((5, 9))
        assert np.array_equal(layer.forward(loaded, x), layer.forward(again, x))
        assert p1.read_bytes() == p2.read_bytes()
        # signs survive the first hop exactly
        assert np.array_equal(bitpack.unpack(loaded.primary.u_sign),
                              bitpack.unpack(lay.primary.u_sign))

    @given(st.integers(1, 70), st.integers(1, 70), st.integers(1, 70),
           st.integers(1, 70), st.booleans(), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_save_load_save_byte_identical(self, tmp_path_factory, d_out, d_in,
                                           r, r_res, residual, fp16, seed):
        rng = np.random.default_rng(seed)

        def path(rank):
            # scales of either sign, between 2^-10 and 2^10 in magnitude,
            # so that fp16 neither overflows nor rounds them to 0
            def scales(n):
                return rng.choice([-1.0, 1.0], n) * 2.0 ** rng.uniform(-10, 10, n)
            return QuantPath(
                u_sign=bitpack.pack(bitpack.sign(rng.standard_normal((d_out, rank)))),
                v_sign=bitpack.pack(bitpack.sign(rng.standard_normal((d_in, rank)))),
                h=scales(d_out), g=scales(d_in), ell=scales(rank))

        lay = LittleBitLayer(d_out=d_out, d_in=d_in, primary=path(r),
                             residual=path(r_res) if residual else None)
        d = tmp_path_factory.mktemp("lbq")
        layer.save_lbq(lay, d / "a.lbq", fp16_scales=fp16)
        loaded = layer.load_lbq(d / "a.lbq")
        layer.save_lbq(loaded, d / "b.lbq", fp16_scales=fp16)
        assert (d / "a.lbq").read_bytes() == (d / "b.lbq").read_bytes()
        assert (loaded.residual is not None) == residual
        assert loaded.primary.rank == r

    def test_fp16_mode_roundtrip(self, rng, tmp_path):
        lay = random_layer(rng, 10, 12, 3)
        p = tmp_path / "h.lbq"
        layer.save_lbq(lay, p, fp16_scales=True)
        loaded = layer.load_lbq(p)
        assert np.array_equal(loaded.primary.h,
                              lay.primary.h.astype(np.float16).astype(np.float64))

    def test_fp16_overflow_rejected_before_write(self, rng, tmp_path):
        lay = random_layer(rng, 10, 12, 3, residual=True)
        lay.residual.h[4] = 1e5
        p = tmp_path / "big.lbq"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="residual path scale h"):
                layer.save_lbq(lay, p, fp16_scales=True)
        assert not p.exists()
        layer.save_lbq(lay, p)
        assert layer.load_lbq(p).residual.h[4] == 1e5

    def test_fp16_underflow_rejected_before_write(self, rng, tmp_path):
        lay = random_layer(rng, 8, 8, 2, residual=True)
        lay.primary.g[3] = 1e-8
        p = tmp_path / "tiny.lbq"
        with pytest.raises(ValueError, match="primary path scale g"):
            layer.save_lbq(lay, p, fp16_scales=True)
        assert not p.exists()
        # exact zeros stay legal: a zeroed residual path stores ell = 0
        lay.primary.g[3] = 0.5
        lay.residual.ell[:] = 0.0
        layer.save_lbq(lay, p, fp16_scales=True)
        assert np.all(layer.load_lbq(p).residual.ell == 0.0)

    def test_bad_magic(self, rng, tmp_path):
        p = tmp_path / "bad.lbq"
        lay = random_layer(rng, 4, 4, 2)
        layer.save_lbq(lay, p)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"NOPE"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            layer.load_lbq(p)

    def test_bad_version(self, rng, tmp_path):
        p = tmp_path / "v.lbq"
        layer.save_lbq(random_layer(rng, 4, 4, 2), p)
        raw = bytearray(p.read_bytes())
        raw[4:6] = (999).to_bytes(2, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            layer.load_lbq(p)

    def test_truncated_residual_payload(self, rng, tmp_path):
        p = tmp_path / "t.lbq"
        layer.save_lbq(random_layer(rng, 6, 6, 2, residual=True), p)
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(FormatError, match="truncated"):
            layer.load_lbq(p)

    def test_trailing_garbage(self, rng, tmp_path):
        p = tmp_path / "g.lbq"
        layer.save_lbq(random_layer(rng, 6, 6, 2), p)
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            layer.load_lbq(p)

    def test_residual_flag_inconsistency(self, rng, tmp_path):
        p = tmp_path / "f.lbq"
        layer.save_lbq(random_layer(rng, 6, 6, 2), p)
        raw = bytearray(p.read_bytes())
        raw[6] |= 0x1  # claim residual without payload or rank
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            layer.load_lbq(p)

    def test_residual_rank_without_flag(self, rng, tmp_path):
        # a complete primary-only file that declares r_residual = 2
        p = tmp_path / "r.lbq"
        layer.save_lbq(random_layer(rng, 6, 6, 2), p)
        raw = bytearray(p.read_bytes())
        raw[20:24] = (2).to_bytes(4, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="residual flag"):
            layer.load_lbq(p)

    def test_residual_flag_without_rank(self, rng, tmp_path):
        # flag set, r_residual = 0, followed by the h and g a rank-0
        # residual path would hold, so every length adds up
        p = tmp_path / "f0.lbq"
        layer.save_lbq(random_layer(rng, 6, 5, 2), p)
        raw = bytearray(p.read_bytes())
        raw[6] |= 0x1
        p.write_bytes(bytes(raw) + np.ones(6 + 5, dtype="<f4").tobytes())
        with pytest.raises(FormatError, match="residual flag"):
            layer.load_lbq(p)

    def test_shape_validation(self, rng):
        p = random_path(rng, 5, 6, 2)
        with pytest.raises(ValueError):
            QuantPath(u_sign=p.u_sign, v_sign=p.v_sign,
                      h=np.ones(4), g=p.g, ell=p.ell)
        with pytest.raises(ValueError):
            LittleBitLayer(d_out=5, d_in=7, primary=p)


def sign_words(signs):
    """Rows of LSB-first 64-bit words, bit = 1 for +1, pad bits zero,
    spelled out with Python integers rather than taken from bitpack."""
    rows, cols = signs.shape
    return np.array([[sum(1 << j for j in range(64)
                          if 64 * w + j < cols and signs[i, 64 * w + j] > 0)
                      for w in range(-(-cols // 64))] for i in range(rows)],
                    dtype="<u8")


class TestLbqBytes:
    """LBQ1 bytes built here from the format description, so that a drift
    shared by the writer and the reader cannot pass."""

    @pytest.mark.parametrize("r", [1, 64, 65])
    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("fp16", [False, True])
    def test_writer_and_reader_match_spelled_out_bytes(self, tmp_path, r,
                                                       residual, fp16):
        rng = np.random.default_rng(r)
        d_out, d_in, r_res = 5, 7, 3 if residual else 0
        scale = "<f2" if fp16 else "<f4"
        signs, paths, body = [], [], b""
        for rank in [r, r_res] if residual else [r]:
            su, sv = random_signs(rng, d_out, rank), random_signs(rng, d_in, rank)
            h, g, ell = (rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
                         for n in (d_out, d_in, rank))
            signs.append((su, sv))
            paths.append(QuantPath(bitpack.pack(su), bitpack.pack(sv), h, g, ell))
            body += (sign_words(su).tobytes() + sign_words(sv).tobytes()
                     + b"".join(np.asarray(v, scale).tobytes() for v in (h, g, ell)))
        expected = struct.pack("<4sHHIIII", b"LBQ1", 1, residual | fp16 << 1,
                               d_out, d_in, r, r_res) + body

        written = tmp_path / "written.lbq"
        layer.save_lbq(LittleBitLayer(d_out, d_in, *paths), written,
                       fp16_scales=fp16)
        assert written.read_bytes() == expected

        spelled = tmp_path / "spelled.lbq"
        spelled.write_bytes(expected)
        loaded = layer.load_lbq(spelled)
        assert len(loaded.paths()) == len(paths)
        for got, want, (su, sv) in zip(loaded.paths(), paths, signs):
            assert np.array_equal(bitpack.unpack(got.u_sign), su)
            assert np.array_equal(bitpack.unpack(got.v_sign), sv)
            for a, b in ((got.h, want.h), (got.g, want.g), (got.ell, want.ell)):
                assert a.dtype == np.float64
                assert np.array_equal(a, b.astype(scale).astype(np.float64))


class TestLoadReads:
    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_near_file_size(self, tmp_path):
        # the sign words are 87% of this file; the rest, the float32
        # scales, is widened to float64 in memory
        p = tmp_path / "big.lbq"
        layer.save_lbq(random_layer(np.random.default_rng(3), 512, 700, 200,
                                    residual=True), p)
        assert self.traced_peak(layer.load_lbq, p) < 1.5 * p.stat().st_size

    def test_huge_header_truncated_without_allocating(self, tmp_path):
        p = tmp_path / "huge.lbq"
        p.write_bytes(struct.pack("<4sHHIIII", b"LBQ1", 1, 1, *[2**32 - 1] * 4))

        def load():
            with pytest.raises(FormatError, match="truncated"):
                layer.load_lbq(p)
        assert self.traced_peak(load) < 2**20

    def test_short_read_is_format_error(self, rng, tmp_path, monkeypatch):
        # a file that shrinks after its size was checked: the reads
        # themselves must notice, wherever the file ends
        p = tmp_path / "short.lbq"
        layer.save_lbq(random_layer(rng, 6, 70, 3, residual=True), p)
        full = p.read_bytes()
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=len(full)))
        # inside U, at the end of U, inside V, inside h, in the residual
        # path, one byte short
        for keep in (30, 72, 200, 640, 1000, len(full) - 1):
            p.write_bytes(full[:keep])
            with pytest.raises(FormatError, match="truncated"):
                layer.load_lbq(p)
