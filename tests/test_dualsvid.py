import numpy as np
import pytest
from hypothesis import given, strategies as st

from littlebit import bitpack, dualsvid, tensor
from littlebit.layer import effective_weight, path_effective_weight
from littlebit.tensor import SvdResult
from conftest import scaled_sign_rank1


class TestSplitFactors:
    def test_symmetric_split(self):
        e1 = np.zeros((3, 1))
        e1[0, 0] = 1.0
        svd = SvdResult(u=e1, sigma=np.array([4.0]), v=e1.copy())
        up, vp = dualsvid.split_factors(svd)
        assert np.allclose(up, 2 * e1) and np.allclose(vp, 2 * e1)

    def test_product_identity(self, rng):
        a = rng.standard_normal((12, 10))
        svd = tensor.truncated_svd(a, 4)
        up, vp = dualsvid.split_factors(svd)
        ref = (svd.u * svd.sigma) @ svd.v.T
        assert np.linalg.norm(up @ vp.T - ref) < 1e-10

    def test_column_norms_sqrt_sigma(self, rng):
        a = rng.standard_normal((12, 10))
        svd = tensor.truncated_svd(a, 3)
        up, vp = dualsvid.split_factors(svd)
        assert np.allclose(np.linalg.norm(up, axis=0), np.sqrt(svd.sigma),
                           atol=1e-10)
        assert np.allclose(np.linalg.norm(vp, axis=0), np.sqrt(svd.sigma),
                           atol=1e-10)


class TestInitPath:
    def test_exact_recovery_scaled_sign_rank1(self, rng):
        w = scaled_sign_rank1(rng, 8, 6)
        _, report, _ = dualsvid.init_path(w, 1)
        assert report.rel_err_primary < 1e-10

    def test_plain_sign_outer_product(self, rng):
        u = np.where(rng.standard_normal(8) >= 0, 1.0, -1.0)
        v = np.where(rng.standard_normal(6) >= 0, 1.0, -1.0)
        w = 3.0 * np.outer(u, v)
        _, report, _ = dualsvid.init_path(w, 1)
        assert report.rel_err_primary < 1e-10

    def test_identity2_best_rank1(self):
        _, report, _ = dualsvid.init_path(np.eye(2), 1)
        assert abs(report.rel_err_primary - 1 / np.sqrt(2)) < 1e-9

    def test_sign_fidelity(self, rng):
        w = rng.standard_normal((14, 11))
        path, _, _ = dualsvid.init_path(w, 4)
        up, vp = dualsvid.split_factors(tensor.truncated_svd(w, 4))
        assert np.array_equal(bitpack.unpack(path.u_sign),
                              np.where(up >= 0, 1.0, -1.0))
        assert np.array_equal(bitpack.unpack(path.v_sign),
                              np.where(vp >= 0, 1.0, -1.0))

    def test_magnitude_fit_optimality(self, rng):
        w = rng.standard_normal((16, 12))
        path, _, _ = dualsvid.init_path(w, 3)
        up, _ = dualsvid.split_factors(tensor.truncated_svd(w, 3))
        mag = np.abs(up)
        fit = tensor.rank1_nonneg(mag)
        err = np.linalg.norm(mag - np.outer(fit.left, fit.right))
        s = np.linalg.svd(mag, compute_uv=False)
        best = np.sqrt(max(np.sum(s[1:] ** 2), 0.0))
        assert err <= best + 1e-8

    def test_returns_the_residual_it_measures(self, rng):
        w = rng.standard_normal((14, 11))
        path, report, w_res = dualsvid.init_path(w, 3)
        assert np.array_equal(w_res, w - path_effective_weight(path))
        assert report.frob_err_primary == float(np.linalg.norm(w_res))

    def test_rank_sweep_runs(self, rng):
        w = rng.standard_normal((64, 64))
        errs = [dualsvid.init_path(w, r)[1].rel_err_primary
                for r in (4, 8, 16, 32)]
        assert all(np.isfinite(e) for e in errs)

    def test_errors(self, rng):
        with pytest.raises(ValueError):
            dualsvid.init_path(np.zeros((4, 4)), 1)
        with pytest.raises(ValueError):
            dualsvid.init_path(rng.standard_normal((4, 4)), 5)


class TestQuantize:
    def test_no_residual_degenerate(self, rng):
        w = rng.standard_normal((12, 9))
        _, report = dualsvid.quantize(w, 3, residual=False)
        assert report.frob_err_total == report.frob_err_primary

    def test_zero_residual_guard(self, rng):
        w = scaled_sign_rank1(rng, 9, 7)
        lay, report = dualsvid.quantize(w, 1, residual=True, r_residual=1)
        assert np.all(lay.residual.ell == 0)
        assert report.frob_err_total == report.frob_err_primary
        assert report.rel_err_total < 1e-9

    def test_residual_reduces_error(self, rng):
        w = rng.standard_normal((24, 20))
        lay, report = dualsvid.quantize(w, 4, residual=True, r_residual=4)
        assert report.frob_err_total <= report.frob_err_primary + 1e-12
        recon = (path_effective_weight(lay.primary)
                 + path_effective_weight(lay.residual))
        assert abs(np.linalg.norm(w - recon) - report.frob_err_total) < 1e-9

    def test_residual_never_hurts_100(self, rng):
        for _ in range(100):
            d_out = int(rng.integers(6, 40))
            d_in = int(rng.integers(6, 40))
            r = int(rng.integers(1, min(d_out, d_in) // 2 + 1))
            w = rng.standard_normal((d_out, d_in))
            _, report = dualsvid.quantize(w, r, residual=True, r_residual=r)
            assert report.frob_err_total <= report.frob_err_primary + 1e-12

    def test_guard_zeroes_a_residual_that_adds_error(self):
        # a seed where the residual's scaled-binary fit is 4.6% worse than
        # leaving the residual out
        rng = np.random.default_rng(2762)
        w = rng.standard_normal((5, 4)) * np.exp(2 * rng.standard_normal((5, 4)))
        lay, report = dualsvid.quantize(w, 2, residual=True, r_residual=2)
        _, fit, _ = dualsvid.init_path(w - path_effective_weight(lay.primary), 2)
        assert fit.frob_err_primary > 1.04 * report.frob_err_primary
        assert np.all(lay.residual.ell == 0)
        assert report.frob_err_total == report.frob_err_primary
        assert report.frob_err_total == pytest.approx(
            np.linalg.norm(w - effective_weight(lay)), rel=1e-12)

    def test_ranks_may_differ(self, rng):
        w = rng.standard_normal((16, 16))
        lay, _ = dualsvid.quantize(w, 5, residual=True, r_residual=2)
        assert lay.primary.rank == 5 and lay.residual.rank == 2

    def test_bad_residual_rank(self, rng):
        with pytest.raises(ValueError):
            dualsvid.quantize(rng.standard_normal((8, 8)), 2,
                              residual=True, r_residual=0)

    def test_report_normalization(self, rng):
        w = rng.standard_normal((10, 10))
        _, report = dualsvid.quantize(w, 2, residual=True, r_residual=2)
        norm = np.linalg.norm(w)
        assert report.rel_err_primary == pytest.approx(report.frob_err_primary / norm)
        assert report.rank_used == 2


@st.composite
def guard_cases(draw):
    """Shapes and ranks small enough to be quick. Sides above
    RSVD_OVERSAMPLE + 1 let small ranks take the randomized branch;
    heavy-tailed entries (log-normal scales) make residuals whose
    scaled-binary fit can be worse than zero, so the guard can fire."""
    d_out = draw(st.integers(2, 48))
    d_in = draw(st.integers(2, 48))
    r = draw(st.integers(1, min(d_out, d_in)))
    r_res = draw(st.integers(1, min(d_out, d_in)))
    decay = draw(st.sampled_from([0.0, 1.0]))
    spread = draw(st.sampled_from([0.0, 2.0]))
    return d_out, d_in, r, r_res, decay, spread, draw(st.integers(0, 2**32 - 1))


class TestResidualGuardProperty:
    @given(guard_cases(), st.sampled_from(tensor.SVD_METHODS))
    def test_never_adds_error_and_reports_the_layer(self, case, svd):
        d_out, d_in, r, r_res, decay, spread, seed = case
        rng = np.random.default_rng(seed)
        w = (rng.standard_normal((d_out, d_in))
             * np.exp(spread * rng.standard_normal((d_out, d_in)))
             * (1.0 + np.arange(d_in)) ** -decay)
        lay, report = dualsvid.quantize(w, r, residual=True, r_residual=r_res,
                                        svd=svd)
        assert report.rel_err_total <= report.rel_err_primary
        actual = np.linalg.norm(w - effective_weight(lay)) / np.linalg.norm(w)
        assert report.rel_err_total == pytest.approx(actual, rel=1e-9, abs=1e-15)


class TestRandomizedInit:
    def test_error_within_one_percent_of_exact(self):
        # decaying spectrum plus a flat bulk, as in a trained weight; the
        # rank leaves the randomized branch in use for both paths
        rng = np.random.default_rng(2024)
        d_out, d_in, k = 384, 256, 64
        u = rng.standard_normal((d_out, k)) / np.sqrt(d_out)
        v = rng.standard_normal((d_in, k)) / np.sqrt(d_in)
        w = ((u * 8.0 * (1.0 + np.arange(k)) ** -0.6) @ v.T
             + rng.standard_normal((d_out, d_in)) * 0.3 / np.sqrt(d_in))
        r = 40
        assert r + tensor.RSVD_OVERSAMPLE < min(w.shape)
        _, exact = dualsvid.quantize(w, r, svd="exact")
        _, approx = dualsvid.quantize(w, r, svd="randomized")
        gap = approx.rel_err_total / exact.rel_err_total - 1.0
        assert abs(gap) <= 0.01

    def test_default_is_exact(self, rng):
        w = rng.standard_normal((60, 50))
        lay, report = dualsvid.quantize(w, 4)
        lay_e, report_e = dualsvid.quantize(w, 4, svd="exact")
        assert report == report_e
        assert np.array_equal(effective_weight(lay), effective_weight(lay_e))
