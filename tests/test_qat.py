import numpy as np
import pytest
from hypothesis import given, strategies as st

from littlebit import bitpack, dualsvid, layer, qat
from littlebit.errors import DivergenceError
from conftest import fd_gradient_gap, random_layer


class TestSurrogate:
    def test_smoothsign_at_zero(self):
        assert qat.surrogate_backward(0.0, qat.SurrogateSpec("smoothsign", 100.0)) == 100.0

    def test_ste_identity(self):
        assert qat.surrogate_backward(7.3, qat.SurrogateSpec("ste")) == 1.0

    def test_smoothsign_decay(self):
        v = qat.surrogate_backward(0.05, qat.SurrogateSpec("smoothsign", 100.0))
        assert v == pytest.approx(100 / np.cosh(5.0) ** 2, rel=1e-12)
        assert abs(v - 0.01815) < 2e-4

    def test_vectorized(self):
        out = qat.surrogate_backward(np.array([0.0, 1.0]), qat.SurrogateSpec("ste"))
        assert np.array_equal(out, [1.0, 1.0])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            qat.SurrogateSpec("bogus")
        with pytest.raises(ValueError):
            qat.SurrogateSpec("smoothsign", k=0.0)


class TestConfig:
    def test_schedule_names(self):
        with pytest.raises(ValueError):
            qat.TrainConfig(schedule="linear")

    def test_lr_schedule_shape(self):
        cfg = qat.TrainConfig(steps=100, lr=1.0)
        lrs = [cfg.lr_at(t) for t in range(1, 101)]
        assert lrs[0] == 0.5 and lrs[1] == 1.0      # 2-step warmup
        assert lrs[2] < 1.0 + 1e-12
        assert lrs[-1] < 1e-3                        # cosine decays to ~0
        cfg_c = qat.TrainConfig(steps=100, lr=1.0, schedule="constant")
        assert cfg_c.lr_at(100) == 1.0

    def test_lr_at_is_a_python_float(self):
        # a NumPy scalar would print as np.float64(...) in the curve CSV
        cfg = qat.TrainConfig(steps=100, lr=1e-3)
        assert all(type(cfg.lr_at(t)) is float for t in range(1, 101))

    def test_lr_must_be_finite_and_nonnegative(self):
        for lr in (-1.0, -1e-12, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="lr"):
                qat.TrainConfig(lr=lr)
        assert qat.TrainConfig(lr=0.0).lr == 0.0


class TestGradients:
    def test_fd_small_configs(self, rng):
        spec = qat.SurrogateSpec("smoothsign", k=5.0)
        for _ in range(6):
            d_out = int(rng.integers(2, 9))
            d_in = int(rng.integers(2, 9))
            r = int(rng.integers(1, min(d_out, d_in) + 1))
            residual = bool(rng.integers(0, 2))
            w = rng.standard_normal((d_out, d_in))
            lay, _ = dualsvid.quantize(w, r, residual=residual,
                                       r_residual=r if residual else None)
            tl = qat.make_trainable(lay, eps_init=0.07)
            x = rng.standard_normal((3, d_in))
            assert fd_gradient_gap(tl, x, x @ w.T, spec) < 1e-4

    def test_single_element_closed_form(self):
        # scalar chain: y = x*g*sv*ell*su*h, loss = (y - yt)^2
        lay = random_layer(np.random.default_rng(5), 1, 1, 1)
        tl = qat.make_trainable(lay, eps_init=0.02)
        p = tl.paths[0]
        x_val, yt_val = 1.3, -0.4
        spec = qat.SurrogateSpec("smoothsign", k=100.0)
        loss, (g,) = qat.loss_and_grads(
            tl, np.array([[x_val]]), np.array([[yt_val]]), spec)
        su = 1.0 if p.u_latent[0, 0] >= 0 else -1.0
        sv = 1.0 if p.v_latent[0, 0] >= 0 else -1.0
        h, gg, ell = p.h[0], p.g[0], p.ell[0]
        y = x_val * gg * sv * ell * su * h
        d = 2 * (y - yt_val)
        assert loss == pytest.approx((y - yt_val) ** 2, rel=1e-12)
        assert g.h[0] == pytest.approx(d * x_val * gg * sv * ell * su, rel=1e-12)
        assert g.g[0] == pytest.approx(d * x_val * sv * ell * su * h, rel=1e-12)
        assert g.ell[0] == pytest.approx(d * x_val * gg * sv * su * h, rel=1e-12)
        dsu = d * x_val * gg * sv * ell * h
        assert g.u_latent[0, 0] == pytest.approx(
            dsu * qat.surrogate_backward(p.u_latent[0, 0], spec), rel=1e-12)

    def test_zero_loss_zero_grads(self, rng):
        w = rng.standard_normal((6, 5))
        lay, _ = dualsvid.quantize(w, 2, residual=False)
        tl = qat.make_trainable(lay)
        x = rng.standard_normal((4, 5))
        yt = x @ layer.effective_weight(lay).T
        loss, grads = qat.loss_and_grads(tl, x, yt, qat.SurrogateSpec())
        assert loss == 0.0
        for pg in grads:
            for arr in pg.params():
                assert np.all(arr == 0.0)

    def test_shape_errors(self, rng):
        lay = random_layer(rng, 4, 3, 2)
        tl = qat.make_trainable(lay)
        with pytest.raises(ValueError):
            qat.loss_and_grads(tl, np.zeros((2, 5)), np.zeros((2, 4)),
                               qat.SurrogateSpec())
        with pytest.raises(ValueError):
            qat.loss_and_grads(tl, np.zeros((2, 3)), np.zeros((3, 4)),
                               qat.SurrogateSpec())


def dense_loss_and_grads(tl, x, yt, spec, smooth):
    """Reference: every gradient taken through the dense dL/dW_hat, one
    d_out x d_in product per term, as the trainer did before its
    gradients were factored."""
    factors = []
    w_total = np.zeros((tl.d_out, tl.d_in))
    for p in tl.paths:
        pair = []
        for lat in (p.u_latent, p.v_latent):
            if smooth:
                t = np.tanh(spec.k * lat)
                pair.append((t, spec.k * (1.0 - t * t)))
            else:
                pair.append((bitpack.sign(lat), qat.surrogate_backward(lat, spec)))
        (su, dsu), (sv, dsv) = pair
        factors.append((su, dsu, sv, dsv))
        w_total = w_total + layer.scaled_product(p.h, su, p.ell, sv, p.g)
    diff = x @ w_total.T - yt
    loss = float(np.mean(diff * diff))
    dw = (2.0 / diff.size) * (diff.T @ x)
    grads = []
    for p, (su, dsu, sv, dsv) in zip(tl.paths, factors):
        m = (su * p.ell) @ sv.T
        a = (p.h[:, None] * dw) * p.g[None, :]
        grads.append(qat.TrainablePath(
            u_latent=(a @ sv) * p.ell * dsu, v_latent=(a.T @ su) * p.ell * dsv,
            h=np.sum(dw * (m * p.g[None, :]), axis=1),
            g=np.sum(dw * (p.h[:, None] * m), axis=0),
            ell=np.sum((su.T @ a) * sv.T, axis=1)))
    return loss, grads


class TestFactoredGradients:
    @given(st.integers(1, 24), st.integers(1, 24), st.integers(1, 8),
           st.integers(1, 24), st.integers(0, 24), st.booleans(),
           st.sampled_from(qat.SURROGATE_KINDS), st.integers(0, 2**32 - 1))
    def test_match_dense_reference(self, d_out, d_in, batch, r, r_res, smooth,
                                   kind, seed):
        rng = np.random.default_rng(seed)
        ranks = [min(r, d_out, d_in)] + ([min(r_res, d_out, d_in)] if r_res else [])
        # latents at the magnitude make_trainable gives them, so the
        # SmoothSign derivative is alive; scales of both signs
        tl = qat.TrainableLayer(d_out=d_out, d_in=d_in, paths=[
            qat.TrainablePath(u_latent=0.02 * rng.standard_normal((d_out, k)),
                              v_latent=0.02 * rng.standard_normal((d_in, k)),
                              h=rng.standard_normal(d_out),
                              g=rng.standard_normal(d_in),
                              ell=rng.standard_normal(k))
            for k in ranks])
        x = rng.standard_normal((batch, d_in))
        yt = rng.standard_normal((batch, d_out))
        spec = qat.SurrogateSpec(kind, 100.0)
        loss, grads = qat.loss_and_grads(tl, x, yt, spec, smooth=smooth)
        ref_loss, ref_grads = dense_loss_and_grads(tl, x, yt, spec, smooth)
        assert loss == ref_loss
        for pg, ref in zip(grads, ref_grads, strict=True):
            for got, want in zip(pg.params(), ref.params(), strict=True):
                assert got.shape == want.shape
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestTrain:
    def test_lr_zero_noop(self, rng):
        w = rng.standard_normal((10, 8))
        lay, _ = dualsvid.quantize(w, 2)
        out, _ = qat.train(lay, w, qat.TrainConfig(steps=25, lr=0.0, seed=3))
        x = rng.standard_normal((4, 8))
        assert np.array_equal(layer.forward(out, x), layer.forward(lay, x))

    def test_fixed_point_teacher(self, rng):
        w = rng.standard_normal((9, 7))
        lay, _ = dualsvid.quantize(w, 2, residual=True, r_residual=2)
        teacher = layer.effective_weight(lay)
        _, curve = qat.train(lay, teacher, qat.TrainConfig(steps=60, lr=1e-3, seed=0))
        assert curve[0].loss == 0.0
        assert max(pt.loss for pt in curve) <= curve[0].loss + 1e-9

    def test_training_reduces_loss(self, rng):
        w = rng.standard_normal((48, 40))
        lay, _ = dualsvid.quantize(w, 4)
        _, curve = qat.train(lay, w, qat.TrainConfig(steps=150, lr=1e-3, seed=1))
        assert curve[-1].loss < curve[0].loss

    def test_determinism(self, rng):
        w = rng.standard_normal((20, 16))
        lay, _ = dualsvid.quantize(w, 3)
        cfg = qat.TrainConfig(steps=40, lr=1e-3, seed=9)
        out1, c1 = qat.train(lay, w, cfg)
        out2, c2 = qat.train(lay, w, cfg)
        assert [p.loss for p in c1] == [p.loss for p in c2]
        x = rng.standard_normal((3, 16))
        assert np.array_equal(layer.forward(out1, x), layer.forward(out2, x))

    def test_divergence_raises(self, rng):
        # teacher magnitudes large enough that the squared error overflows
        lay = random_layer(rng, 8, 8, 2)
        teacher = np.full((8, 8), 1e200)
        with pytest.raises(DivergenceError, match="step"):
            qat.train(lay, teacher, qat.TrainConfig(steps=10, lr=1e-3, seed=0))

    def test_teacher_shape_mismatch(self, rng):
        lay = random_layer(rng, 6, 5, 2)
        with pytest.raises(ValueError):
            qat.train(lay, rng.standard_normal((6, 6)), qat.TrainConfig(steps=1))

    def test_curve_csv(self, rng):
        w = rng.standard_normal((8, 8))
        lay, _ = dualsvid.quantize(w, 2)
        _, curve = qat.train(lay, w, qat.TrainConfig(steps=3, lr=1e-3))
        text = qat.curve_to_csv(curve)
        lines = text.splitlines()
        assert lines[0] == "step,loss,lr"
        assert len(lines) == 4 and text.endswith("\n")

    def test_ste_vs_smoothsign_both_run(self, rng):
        w = rng.standard_normal((24, 24))
        lay, _ = dualsvid.quantize(w, 3)
        cfg = qat.TrainConfig(steps=60, lr=1e-3, seed=2)
        _, c_smooth = qat.train(lay, w, cfg, qat.SurrogateSpec("smoothsign", 100.0))
        _, c_ste = qat.train(lay, w, cfg, qat.SurrogateSpec("ste"))
        assert c_smooth[-1].loss < c_smooth[0].loss
        assert c_ste[-1].loss < c_ste[0].loss


class TestSnapshot:
    def test_snapshot_preserves_signs_at_init(self, rng):
        lay = random_layer(rng, 9, 7, 3)
        tl = qat.make_trainable(lay)
        snap = tl.snapshot()
        x = rng.standard_normal((2, 7))
        assert np.array_equal(layer.forward(snap, x), layer.forward(lay, x))

    def test_sign_zero_maps_positive(self):
        tp = qat.TrainablePath(u_latent=np.zeros((2, 1)), v_latent=np.zeros((2, 1)),
                               h=np.ones(2), g=np.ones(2), ell=np.ones(1))
        snap = tp.snapshot()
        assert np.all(bitpack.unpack(snap.u_sign) == 1.0)


class TestBaselineScales:
    def test_deterministic(self, rng):
        lay = random_layer(rng, 32, 24, 4)
        a = qat.init_baseline_scales(lay, "he_like", seed=5)
        b = qat.init_baseline_scales(lay, "he_like", seed=5)
        assert np.array_equal(a.primary.h, b.primary.h)
        c = qat.init_baseline_scales(lay, "he_like", seed=6)
        assert not np.array_equal(a.primary.h, c.primary.h)

    def test_he_like_scale_target(self, rng):
        # RMS of |N(0, 2/fan_in)| draws estimates sqrt(2/fan_in)
        lay = random_layer(rng, 40, 512, 4)
        draws = []
        for seed in range(300):
            b = qat.init_baseline_scales(lay, "he_like", seed=seed)
            draws.append(b.primary.g)
        draws = np.concatenate(draws)
        assert draws.size >= 10_000
        rms = np.sqrt(np.mean(draws ** 2))
        target = np.sqrt(2 / 512)
        assert abs(rms - target) / target < 0.10

    def test_signs_kept(self, rng):
        lay = random_layer(rng, 10, 8, 2)
        b = qat.init_baseline_scales(lay, "xavier_like", seed=0)
        assert b.primary.u_sign is lay.primary.u_sign

    def test_dual_svid_beats_baselines_sample(self, rng):
        wins_he = wins_xa = trials = 12
        for i in range(trials):
            w = rng.standard_normal((48, 48))
            lay, _ = dualsvid.quantize(w, 6, residual=False)
            x = rng.standard_normal((16, 48))
            yt = x @ w.T

            def initial_loss(l):
                return float(np.mean((layer.forward(l, x) - yt) ** 2))

            base = initial_loss(lay)
            if not base < initial_loss(qat.init_baseline_scales(lay, "he_like", seed=i)):
                wins_he -= 1
            if not base < initial_loss(qat.init_baseline_scales(lay, "xavier_like", seed=i)):
                wins_xa -= 1
        assert wins_he >= trials - 1 and wins_xa >= trials - 1

    def test_unknown_mode(self, rng):
        with pytest.raises(ValueError):
            qat.init_baseline_scales(random_layer(rng, 4, 4, 1), "glorot")
