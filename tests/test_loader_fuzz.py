"""Loader fuzzing: any byte string given to ``load_lbq`` or ``load_matrix``
yields a value or ``FormatError``, nothing else. Inputs are random headers
(valid magic or not, small or any 32-bit dimensions) with random payloads,
and valid files with bytes overwritten, cut short or appended. Warnings
are errors here: a warning escapes the CLI's exit-2 handler under
``-W error``."""

import struct
import warnings

import numpy as np
from hypothesis import example, given, strategies as st

from littlebit import layer, tensor
from littlebit.errors import FormatError
from conftest import random_layer

# the on-disk headers, spelled out here rather than taken from the library
LBQ_HEADER = struct.Struct("<4sHHIIII")
LBM1_HEADER = struct.Struct("<4sII")

dims = st.integers(0, 9) | st.integers(0, 2**32 - 1)
payloads = st.binary(max_size=512)
# float32 signalling NaN (bits 0x7f800001), little-endian: casting it warns
SNAN_F32 = [0x01, 0x00, 0x80, 0x7F]
# byte values that make fp16/fp32 infinities and NaNs or clear and set flags
edit_bytes = st.sampled_from([0x00, 0x04, 0x7C, 0x7F, 0x80, 0xFF]) | st.integers(0, 255)
edits = st.lists(st.tuples(st.integers(0, 2**16), edit_bytes), max_size=4)
cuts = st.none() | st.integers(0, 2**16)
tails = st.binary(max_size=16)


def mutate(raw: bytes, edit_list, cut, tail) -> bytes:
    b = bytearray(raw)
    for pos, val in edit_list:
        b[pos % len(b)] = val
    if cut is not None:
        b = b[:cut % (len(b) + 1)]
    return bytes(b) + tail


def load(loader, tmp_path_factory, raw: bytes):
    """The loaded value, or None on FormatError; anything else escapes."""
    path = tmp_path_factory.mktemp("fuzz") / "f"
    path.write_bytes(raw)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return loader(path)
    except FormatError:
        return None


@st.composite
def lbq_headers(draw):
    magic = draw(st.just(layer.LBQ_MAGIC) | st.binary(min_size=4, max_size=4))
    version = draw(st.integers(0, 2) | st.integers(0, 2**16 - 1))
    flags = draw(st.integers(0, 7) | st.integers(0, 2**16 - 1))
    head = LBQ_HEADER.pack(magic, version, flags, *(draw(dims) for _ in range(4)))
    return head + draw(payloads)


@st.composite
def lbm1_headers(draw):
    magic = draw(st.just(tensor.LBM1_MAGIC) | st.binary(min_size=4, max_size=4))
    rows, cols = draw(dims), draw(dims)
    exact = 4 * rows * cols
    if exact <= 512 and draw(st.booleans()):
        payload = draw(st.binary(min_size=exact, max_size=exact))
    else:
        payload = draw(payloads)
    return LBM1_HEADER.pack(magic, rows, cols) + payload


def check_lbq(tmp_path_factory, raw):
    lay = load(layer.load_lbq, tmp_path_factory, raw)
    if lay is not None:
        assert min(lay.d_out, lay.d_in, lay.primary.rank) >= 1
        # an accepted file is canonical: saving it back gives the same bytes
        fp16 = bool(LBQ_HEADER.unpack_from(raw)[2] & 0x2)
        again = tmp_path_factory.mktemp("fuzz") / "again"
        layer.save_lbq(lay, again, fp16_scales=fp16)
        assert again.read_bytes() == raw


def check_matrix(tmp_path_factory, raw):
    m = load(tensor.load_matrix, tmp_path_factory, raw)
    if m is not None:
        assert m.ndim == 2 and min(m.shape) >= 1
        assert np.all(np.isfinite(m))


class TestLoadLbq:
    @given(st.binary(max_size=64) | lbq_headers())
    # d_out = 0 with a payload of the length such a header asks for
    @example(LBQ_HEADER.pack(b"LBQ1", 1, 0, 0, 1, 1, 0)
             + (1).to_bytes(8, "little") + struct.pack("<ff", 1.0, 1.0))
    def test_random_headers(self, tmp_path_factory, raw):
        check_lbq(tmp_path_factory, raw)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
           st.integers(0, 6), st.booleans(), st.integers(0, 2**32 - 1),
           edits, cuts, tails)
    # a 1x1 rank-1 fp32 file: flags at byte 6, the scale h at bytes 40-43
    @example(d_out=1, d_in=1, r=1, r_res=0, fp16=False, seed=0,
             edit_list=[(6, 0x04)], cut=None, tail=b"")
    @example(d_out=1, d_in=1, r=1, r_res=0, fp16=False, seed=0,
             edit_list=[(42, 0xFF), (43, 0x7F)], cut=None, tail=b"")
    @example(d_out=1, d_in=1, r=1, r_res=0, fp16=False, seed=0,
             edit_list=list(enumerate(SNAN_F32, 40)), cut=None, tail=b"")
    def test_mutated_valid_files(self, tmp_path_factory, d_out, d_in, r,
                                 r_res, fp16, seed, edit_list, cut, tail):
        lay = random_layer(np.random.default_rng(seed), d_out, d_in, r,
                           residual=r_res > 0, r_residual=r_res or None)
        path = tmp_path_factory.mktemp("valid") / "v.lbq"
        layer.save_lbq(lay, path, fp16_scales=fp16)
        check_lbq(tmp_path_factory, mutate(path.read_bytes(), edit_list, cut, tail))


class TestLoadMatrix:
    @given(st.binary(max_size=64) | lbm1_headers())
    @example(LBM1_HEADER.pack(b"LBM1", 0, 5))
    @example(LBM1_HEADER.pack(b"LBM1", 3, 0))
    def test_random_headers(self, tmp_path_factory, raw):
        check_matrix(tmp_path_factory, raw)

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1),
           edits, cuts, tails)
    # a 1x1 file whose one entry, at bytes 12-15, becomes a NaN
    @example(rows=1, cols=1, seed=0, edit_list=[(14, 0xFF), (15, 0x7F)],
             cut=None, tail=b"")
    @example(rows=1, cols=1, seed=0, edit_list=list(enumerate(SNAN_F32, 12)),
             cut=None, tail=b"")
    def test_mutated_valid_files(self, tmp_path_factory, rows, cols, seed,
                                 edit_list, cut, tail):
        path = tmp_path_factory.mktemp("valid") / "v.lbm"
        tensor.save_matrix(np.random.default_rng(seed).standard_normal((rows, cols)),
                           path)
        check_matrix(tmp_path_factory, mutate(path.read_bytes(), edit_list, cut, tail))
