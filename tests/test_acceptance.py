"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them live). Tolerances are fixed here, not calibrated elsewhere."""

import contextlib
import os

import numpy as np
import pytest

from littlebit import bitpack, dualsvid, experiments, layer, planner, qat, tensor
from littlebit.errors import FormatError
from conftest import (fd_gradient_gap, fixture_path, random_layer,
                      random_signs, scaled_sign_rank1)

MODEL_SPEC = os.path.join(os.path.dirname(__file__), "..", "model_specs",
                          "llama2_7b.txt")


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[acceptance {num:02d}] FAIL - {desc}")
        raise
    print(f"[acceptance {num:02d}] PASS - {desc}")


def test_01_planner_oracle_values():
    with criterion(1, "planner reproduces the worked rank/BPW examples"):
        assert planner.rank_for_bpw(4096, 4096, 0.55, residual=True) == 546
        assert abs(planner.bpw_for_rank(4096, 4096, 546, True) - 0.5498) <= 1e-4
        assert planner.rank_for_bpw(4096, 11008, 0.1, residual=True) == 133
        assert abs(planner.bpw_for_rank(4096, 11008, 133, True) - 0.0999) <= 1e-4


def test_02_forward_decomposition_equivalence():
    with criterion(2, "staged forward matches X @ W_hat.T on 100 random layers"):
        rng = np.random.default_rng(202)
        for i in range(100):
            d_out = int(rng.integers(8, 513))
            d_in = int(rng.integers(8, 513))
            r = int(rng.integers(1, min(64, d_out, d_in) + 1))
            lay = random_layer(rng, d_out, d_in, r, residual=bool(i % 2))
            x = rng.standard_normal((3, d_in))
            ref = x @ layer.effective_weight(lay).T
            rel = (np.linalg.norm(layer.forward(lay, x) - ref)
                   / np.linalg.norm(ref))
            assert rel < 1e-9, f"layer {i}: rel={rel}"


def test_03_packed_kernel_oracle():
    with criterion(3, "packed GEMVs match naive sign products on 200 cases"):
        rng = np.random.default_rng(303)
        odd_widths = 0
        for i in range(200):
            rows = int(rng.integers(1, 257))
            cols = int(rng.integers(1, 257)) if i % 4 else int(rng.integers(1, 5)) * 64
            odd_widths += cols % 64 != 0
            s = random_signs(rng, rows, cols)
            f = bitpack.pack(s)
            x = rng.standard_normal(rows)
            z = rng.standard_normal(cols)
            # elementwise-product-and-sum oracle, no packing, no BLAS
            right_ref = (x[:, None] * s).sum(axis=0)
            left_ref = (s * z).sum(axis=1)
            assert np.max(np.abs(bitpack.gemv_right(x, f) - right_ref)) < 1e-10
            assert np.max(np.abs(bitpack.gemv_left(z, f) - left_ref)) < 1e-10
        assert odd_widths >= 100


def test_04_dual_svid_recovery_and_residual_guard():
    with criterion(4, "scaled-sign rank-1 recovery and residual-guard invariant"):
        rng = np.random.default_rng(404)
        for _ in range(20):
            w = scaled_sign_rank1(rng, int(rng.integers(4, 40)),
                                  int(rng.integers(4, 40)))
            _, report = dualsvid.quantize(w, 1, residual=False)
            assert report.rel_err_primary < 1e-9
        for _ in range(100):
            d_out = int(rng.integers(6, 48))
            d_in = int(rng.integers(6, 48))
            r = int(rng.integers(1, min(d_out, d_in) // 2 + 1))
            w = rng.standard_normal((d_out, d_in))
            _, report = dualsvid.quantize(w, r, residual=True, r_residual=r)
            assert report.frob_err_total <= report.frob_err_primary + 1e-12


def test_05_gradient_check_30_configs():
    with criterion(5, "analytic gradients match finite differences (k=5)"):
        rng = np.random.default_rng(505)
        spec = qat.SurrogateSpec("smoothsign", k=5.0)
        for i in range(30):
            d_out = int(rng.integers(2, 9))
            d_in = int(rng.integers(2, 9))
            r = int(rng.integers(1, min(d_out, d_in) + 1))
            w = rng.standard_normal((d_out, d_in))
            lay, _ = dualsvid.quantize(w, r, residual=bool(i % 2),
                                       r_residual=r if i % 2 else None)
            tl = qat.make_trainable(lay, eps_init=0.07)
            x = rng.standard_normal((3, d_in))
            gap = fd_gradient_gap(tl, x, x @ w.T, spec)
            assert gap < 1e-4, f"config {i}: gap={gap}"


def test_06_training_fixture():
    with criterion(6, "0.3-BPW training fixture reaches 0.7x loss, byte-stable"):
        teacher = tensor.gaussian_matrix(tensor.seeded_rng(42), 256, 256)
        rank = planner.rank_for_bpw(256, 256, 0.3, residual=False)
        lay, _ = dualsvid.quantize(teacher, rank, residual=False)
        cfg = qat.TrainConfig(steps=500, lr=1e-3, seed=0)
        _, curve = qat.train(lay, teacher, cfg)
        assert curve[-1].loss <= 0.7 * curve[0].loss
        csv_text = qat.curve_to_csv(curve)
        _, curve2 = qat.train(lay, teacher, cfg)
        assert qat.curve_to_csv(curve2) == csv_text
        with open(fixture_path(
                "train_curve_256x256_bpw0.3_nores_teacher42_seed0.csv")) as f:
            assert csv_text == f.read()


def test_07_init_quality_vs_baselines():
    with criterion(7, "Dual-SVID init beats he/xavier scales in >=95/100 trials"):
        rng = np.random.default_rng(707)
        wins_he = wins_xa = 0
        for i in range(100):
            w = rng.standard_normal((64, 64))
            lay, _ = dualsvid.quantize(w, 8, residual=False)
            x = rng.standard_normal((16, 64))
            yt = x @ w.T

            def initial_loss(l):
                return float(np.mean((layer.forward(l, x) - yt) ** 2))

            base = initial_loss(lay)
            wins_he += base < initial_loss(
                qat.init_baseline_scales(lay, "he_like", seed=i))
            wins_xa += base < initial_loss(
                qat.init_baseline_scales(lay, "xavier_like", seed=i))
        assert wins_he >= 95, f"he_like wins {wins_he}/100"
        assert wins_xa >= 95, f"xavier_like wins {wins_xa}/100"


def test_08_two_stage_probe():
    with criterion(8, "8+8 two-stage mean error <= rank-16 single-stage"):
        res = experiments.two_stage_probe(shape=(64, 64), r1=8, r2=8,
                                           trials=100, seed=123)
        err_single = np.mean([r[1] for r in res.rows])
        err_two = np.mean([r[2] for r in res.rows])
        assert err_two <= err_single


def test_09_memory_estimator():
    with criterion(9, "Llama2-7B footprints at 0.1/0.3 BPW and FP16 baseline"):
        spec = planner.load_model_spec(MODEL_SPEC)
        gb_01 = planner.memory_footprint(
            spec, planner.plan_model(spec, 0.1, gqa_kv_multiplier=1.0)) / 1e9
        gb_03 = planner.memory_footprint(
            spec, planner.plan_model(spec, 0.3, gqa_kv_multiplier=1.0)) / 1e9
        assert abs(gb_01 - 0.63) / 0.63 <= 0.10, gb_01
        assert abs(gb_03 - 0.79) / 0.79 <= 0.10, gb_03
        fp16 = planner.fp16_footprint(spec) / 1e9
        assert abs(fp16 - 13.49) / 13.49 <= 0.02, fp16


def test_10_kv_reduction():
    with criterion(10, "KV-cache reduction factors at ranks 192 and 600"):
        assert abs(planner.kv_reduction(4096, 192) - 21.33) <= 0.1
        assert abs(planner.kv_reduction(4096, 600) - 6.83) <= 0.1


def test_11_latency_trend():
    with criterion(11, "packed forward: latency decreasing in rank, "
                       ">=1.5x vs dense float32 at rank 320"):
        ranks = (3072, 1664, 896, 320)
        res = experiments.gemv_bench(4096, 11008, ranks, repeats=30)
        backend = "packed-" + bitpack.kernel_backend()
        medians = {row[3]: row[4] for row in res.rows if row[2] == backend}
        times = [medians[r] for r in ranks]
        assert all(a > b for a, b in zip(times, times[1:])), times
        speedup = [row[6] for row in res.rows
                   if row[2] == backend and row[3] == 320][0]
        assert speedup >= 1.5, f"speedup {speedup:.2f}x"


def test_12_serialization():
    with criterion(12, "LBQ round-trip bit-identical; corrupt files rejected"):
        rng = np.random.default_rng(1212)
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            lay = random_layer(rng, 37, 29, 5, residual=True, r_residual=3)
            p1 = os.path.join(d, "a.lbq")
            p2 = os.path.join(d, "b.lbq")
            layer.save_lbq(lay, p1)
            loaded = layer.load_lbq(p1)
            layer.save_lbq(loaded, p2)
            again = layer.load_lbq(p2)
            x = rng.standard_normal((6, 29))
            assert np.array_equal(layer.forward(loaded, x),
                                  layer.forward(again, x))
            for path_pair in zip(loaded.paths(), lay.paths()):
                assert np.array_equal(path_pair[0].u_sign.words,
                                      path_pair[1].u_sign.words)

            raw = open(p1, "rb").read()
            bad_magic = os.path.join(d, "bad.lbq")
            with open(bad_magic, "wb") as f:
                f.write(b"WHAT" + raw[4:])
            with pytest.raises(FormatError):
                layer.load_lbq(bad_magic)

            truncated = os.path.join(d, "trunc.lbq")
            with open(truncated, "wb") as f:
                f.write(raw[:len(raw) // 2])
            with pytest.raises(FormatError):
                layer.load_lbq(truncated)
