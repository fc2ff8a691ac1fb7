import numpy as np
import pytest

from littlebit import bitpack, experiments, qat
from littlebit.errors import InfeasibleError
from conftest import fixture_path, random_signs


class TestLemma1:
    def test_exactly_representable_rank1(self, rng):
        u = rng.uniform(0.5, 2.0, (8, 1)) * random_signs(rng, 8, 1)
        v = rng.uniform(0.5, 2.0, (6, 1)) * random_signs(rng, 6, 1)
        w = u @ v.T
        err = np.linalg.norm(w - experiments.crude_quantize(u, v))
        assert err < 1e-10

    def test_deterministic(self):
        a = experiments.error_vs_rank_sweep(trials=3, ranks=(1, 2), seed=4)
        b = experiments.error_vs_rank_sweep(trials=3, ranks=(1, 2), seed=4)
        assert a.to_csv() == b.to_csv()

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            experiments.error_vs_rank_sweep(shape=(8, 8), ranks=(16,))

    def test_committed_fixture(self):
        res = experiments.error_vs_rank_sweep()
        with open(fixture_path("lemma1_64x64_trials20_seed7.csv")) as f:
            assert res.to_csv() == f.read()


class TestTheorem1:
    def test_r2_zero_tie(self):
        res = experiments.two_stage_probe(shape=(16, 16), r1=3, r2=0,
                                           trials=4, seed=2)
        for row in res.rows:
            assert row[1] == row[2]

    def test_exactly_rank_r1(self, rng):
        # both arms recover a scaled-sign rank-1 matrix near exactly
        from littlebit.dualsvid import quantize
        from conftest import scaled_sign_rank1
        w = scaled_sign_rank1(rng, 12, 10)
        _, rep_single = quantize(w, 2, residual=False)
        _, rep_two = quantize(w, 1, residual=True, r_residual=1)
        assert rep_single.rel_err_total < 1e-9
        assert rep_two.rel_err_total < 1e-9

    def test_paired_and_deterministic(self):
        a = experiments.two_stage_probe(shape=(24, 24), r1=3, r2=3, trials=5, seed=11)
        b = experiments.two_stage_probe(shape=(24, 24), r1=3, r2=3, trials=5, seed=11)
        assert a.to_csv() == b.to_csv()
        assert a.columns[:3] == ("trial", "err_single", "err_two_stage")

    def test_committed_fixture(self):
        res = experiments.two_stage_probe()
        with open(fixture_path("theorem1_64x64_r8r8_trials100_seed123.csv")) as f:
            assert res.to_csv() == f.read()

    def test_two_stage_mean_not_worse(self):
        res = experiments.two_stage_probe(trials=30, seed=9)
        err_single = np.mean([r[1] for r in res.rows])
        err_two = np.mean([r[2] for r in res.rows])
        assert err_two <= err_single

    def test_paired_run_128_matched_rank(self):
        # 16+16 two-stage against rank-32 single-stage on 128x128 teachers
        res = experiments.two_stage_probe(shape=(128, 128), r1=16, r2=16,
                                          trials=10, seed=3)
        errs = np.array([(r[1], r[2]) for r in res.rows])
        assert np.all(np.isfinite(errs))
        assert errs[:, 1].mean() <= errs[:, 0].mean()


class TestResidualAblation:
    def test_matched_bpw_and_fixture(self):
        res = experiments.residual_ablation()
        by_bpw = {}
        for bpw, arm, rank, measured, init_loss, final_loss in res.rows:
            by_bpw.setdefault(bpw, {})[arm] = measured
            assert final_loss <= init_loss
        for bpw, arms in by_bpw.items():
            assert abs(arms["residual"] - arms["no_residual"]) / bpw < 0.02
        with open(fixture_path("residual_ablation_256x256_seed5.csv")) as f:
            assert res.to_csv() == f.read()

    def test_infeasible_budget_rejected(self):
        with pytest.raises(InfeasibleError):
            experiments.residual_ablation(shape=(64, 64), bpws=(0.1,),
                                          cfg=qat.TrainConfig(steps=2))

    def test_low_budget_fixture_schema(self):
        # recorded at a shape where 0.1 bits/weight is feasible
        with open(fixture_path("residual_ablation_768x768_seed5.csv")) as f:
            lines = f.read().splitlines()
        assert lines[0] == "bpw,arm,rank,measured_bpw,init_loss,final_loss"
        assert len(lines) == 3

    def test_low_budget_fixture_values(self):
        # the losses depend on the BLAS build in their last digits, so they
        # are compared at rel 1e-12; the arm labels and ranks exactly
        res = experiments.residual_ablation(shape=(768, 768), bpws=(0.1,))
        with open(fixture_path("residual_ablation_768x768_seed5.csv")) as f:
            recorded = [line.split(",") for line in f.read().splitlines()[1:]]
        assert len(res.rows) == len(recorded)
        for row, rec in zip(res.rows, recorded):
            bpw, arm, rank, *floats = row
            assert (repr(bpw), arm, str(rank)) == tuple(rec[:3])
            assert floats == pytest.approx([float(v) for v in rec[3:]],
                                           rel=1e-12, abs=0)


class TestGemvBench:
    def test_small_bench_structure(self):
        res = experiments.gemv_bench(96, 160, ranks=(8, 32), repeats=5, warmup=2)
        assert res.columns[2] == "backend"
        backends = {row[2] for row in res.rows}
        assert "dense-f32" in backends
        assert "packed-" + bitpack.kernel_backend() in backends
        dense_rows = [r for r in res.rows if r[2] == "dense-f32"]
        assert len(dense_rows) == 1 and dense_rows[0][6] == 1.0
        for row in res.rows:
            assert row[4] > 0 and row[5] == 5

    def test_csv_has_header_and_newline(self):
        res = experiments.gemv_bench(32, 32, ranks=(2,), repeats=3, warmup=1)
        text = res.to_csv()
        assert text.startswith("d_out,d_in,backend,rank,median_ns,")
        assert text.endswith("\n")
