"""Desk-scale refinement of a quantized layer against a dense teacher.

Real-valued latent factors carry the binary factors: the forward pass
binarizes them with sign() and the backward pass substitutes a surrogate
derivative (SmoothSign: d/dx tanh(kx) with k=100 by default, or the
straight-through identity). Row/column/latent scales receive exact
chain-rule gradients. Optimization is Adam with linear warmup into a
cosine (or constant) schedule.

The training objective is the per-layer distillation term: mean squared
error between student and teacher outputs on a small seeded calibration
set that is cycled epoch-style, as in quantization-aware training with a
finite training set.

The trainer forms the dense effective weight of the current parameters
only to evaluate the student's output error ``diff`` and the loss. This
makes a layer whose teacher equals its own effective weight an exact
fixed point (zero loss, zero gradients, no optimizer drift). Gradients
are never taken through the dense weight: each one is a product of
``diff`` with batch x rank factors, at O(batch (d_out + d_in) r) per path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bitpack
from .errors import DivergenceError
from .layer import LittleBitLayer, QuantPath, scaled_product
from .tensor import as_matrix, seeded_rng

SURROGATE_KINDS = ("smoothsign", "ste")
SCHEDULES = ("constant", "cosine")

# Adam constants: the published defaults of Kingma & Ba 2015
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# share of the steps spent in the linear learning-rate warmup
WARMUP_FRAC = 0.02


@dataclass(frozen=True)
class SurrogateSpec:
    """Backward rule used through the sign() nonlinearity."""

    kind: str = "smoothsign"
    k: float = 100.0

    def __post_init__(self):
        if self.kind not in SURROGATE_KINDS:
            raise ValueError(f"unknown surrogate kind {self.kind!r}")
        if not self.k > 0:
            raise ValueError("k must be positive")


def surrogate_backward(x, spec: SurrogateSpec):
    """Surrogate derivative of sign() at *x* (scalar or array).

    smoothsign: k * (1 - tanh(kx)^2), the derivative of tanh(kx).
    ste: 1 everywhere (plain identity pass-through).
    """
    x = np.asarray(x, dtype=np.float64)
    if spec.kind == "smoothsign":
        t = np.tanh(spec.k * x)
        out = spec.k * (1.0 - t * t)
    else:
        out = np.ones_like(x)
    return out if out.ndim else float(out)


@dataclass
class TrainConfig:
    steps: int = 500
    lr: float = 1e-3
    batch: int = 32
    seed: int = 0
    schedule: str = "cosine"
    # Distinct calibration batches drawn up front and cycled, so the loop
    # trains in epochs over a fixed calibration set.
    calib_batches: int = 2

    def __post_init__(self):
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.steps < 1 or self.batch < 1 or self.calib_batches < 1:
            raise ValueError("steps, batch and calib_batches must be >= 1")
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")

    def lr_at(self, step: int) -> float:
        """Learning rate at a 1-based step: linear warmup, then the
        configured decay."""
        warm = round(WARMUP_FRAC * self.steps)
        if warm > 0 and step <= warm:
            return self.lr * step / warm
        if self.schedule == "constant" or self.steps == warm:
            return self.lr
        t = (step - warm) / (self.steps - warm)
        return float(self.lr * 0.5 * (1.0 + np.cos(np.pi * t)))


DEFAULT_EPS_INIT = 0.02


@dataclass
class TrainablePath:
    """Latent real factors plus scales; sign(latent) feeds the forward.
    :func:`loss_and_grads` returns gradients in the same record."""

    u_latent: np.ndarray
    v_latent: np.ndarray
    h: np.ndarray
    g: np.ndarray
    ell: np.ndarray

    def params(self) -> list[np.ndarray]:
        return [self.u_latent, self.v_latent, self.h, self.g, self.ell]

    def snapshot(self) -> QuantPath:
        """Lossy one-way conversion back to a packed path (sign(0) -> +1)."""
        return QuantPath(
            u_sign=bitpack.pack(bitpack.sign(self.u_latent)),
            v_sign=bitpack.pack(bitpack.sign(self.v_latent)),
            h=self.h.copy(), g=self.g.copy(), ell=self.ell.copy())


@dataclass
class TrainableLayer:
    d_out: int
    d_in: int
    paths: list[TrainablePath]

    def snapshot(self) -> LittleBitLayer:
        residual = self.paths[1].snapshot() if len(self.paths) > 1 else None
        return LittleBitLayer(d_out=self.d_out, d_in=self.d_in,
                              primary=self.paths[0].snapshot(),
                              residual=residual)


def make_trainable(layer: LittleBitLayer,
                   eps_init: float = DEFAULT_EPS_INIT) -> TrainableLayer:
    """Trainable state for *layer*: latents are the layer's signs at
    magnitude *eps_init* (kept small so the SmoothSign derivative stays
    alive), scales are copies."""
    return TrainableLayer(d_out=layer.d_out, d_in=layer.d_in, paths=[
        TrainablePath(u_latent=bitpack.unpack(p.u_sign) * eps_init,
                      v_latent=bitpack.unpack(p.v_sign) * eps_init,
                      h=p.h.copy(), g=p.g.copy(), ell=p.ell.copy())
        for p in layer.paths()])


# ---------------------------------------------------------------------------
# Loss and gradients
# ---------------------------------------------------------------------------

def _binarize(latent: np.ndarray, spec: SurrogateSpec, smooth: bool):
    """The factor a latent matrix feeds the forward pass.

    Training mode: sign(latent) with sign(0) -> +1. Smooth mode replaces
    sign by tanh(k*latent) itself, yielding the fully differentiable
    network used to validate the chain rule against finite differences.
    """
    return np.tanh(spec.k * latent) if smooth else bitpack.sign(latent)


def _local_derivative(latent: np.ndarray, factor: np.ndarray,
                      spec: SurrogateSpec, smooth: bool):
    """d factor / d latent for the *factor* that :func:`_binarize` made of
    *latent*: the surrogate per *spec* in training mode, the exact
    derivative k * (1 - tanh(k*latent)^2) of the factor in smooth mode."""
    if smooth:
        return spec.k * (1.0 - factor * factor)
    return surrogate_backward(latent, spec)


def loss_and_grads(tl: TrainableLayer, x, y_teacher, spec: SurrogateSpec,
                   smooth: bool = False) -> tuple[float, list[TrainablePath]]:
    """Layerwise MSE loss and gradients for every trainable field, one
    :class:`TrainablePath` of gradients per path.

    Scales get exact chain-rule gradients; latent factors get the chain
    rule with sign() differentiated per *spec* (or exactly, in smooth
    mode).
    """
    x = as_matrix(x, "x")
    y_teacher = as_matrix(y_teacher, "y_teacher")
    if x.shape[1] != tl.d_in:
        raise ValueError(f"x has {x.shape[1]} columns, layer d_in={tl.d_in}")
    if y_teacher.shape != (x.shape[0], tl.d_out):
        raise ValueError("y_teacher shape does not match (seq, d_out)")

    # Only the factors live through the dense phase; each surrogate
    # derivative is made in the gradient loop, once, where it is used.
    factors = []
    w_total = None
    for p in tl.paths:
        su = _binarize(p.u_latent, spec, smooth)
        sv = _binarize(p.v_latent, spec, smooth)
        factors.append((su, sv))
        w_path = scaled_product(p.h, su, p.ell, sv, p.g)
        if w_total is None:
            w_total = w_path
        else:
            w_total += w_path
        del w_path

    # overflow here means divergence; the caller's finite check handles it
    with np.errstate(over="ignore"):
        diff = x @ w_total.T - y_teacher
        del w_total
        loss = float(np.mean(diff * diff))
        dz = (2.0 / diff.size) * diff                # dL/dy, (batch, d_out)

    # Factored chain rule: every product below is batch x (d_out + d_in) x r.
    grads = []
    with np.errstate(over="ignore", invalid="ignore"):
        for p, (su, sv) in zip(tl.paths, factors):
            xg = x * p.g
            dzh = dz * p.h
            t = xg @ sv                              # (batch, r)
            q = dzh @ su                             # (batch, r)
            dh = np.sum(dz * ((t * p.ell) @ su.T), axis=0)
            dg = np.sum(x * ((q * p.ell) @ sv.T), axis=0)
            d_su = (dzh.T @ t) * p.ell
            d_su *= _local_derivative(p.u_latent, su, spec, smooth)
            d_sv = (xg.T @ q) * p.ell
            d_sv *= _local_derivative(p.v_latent, sv, spec, smooth)
            dell = np.sum(q * t, axis=0)
            grads.append(TrainablePath(u_latent=d_su, v_latent=d_sv,
                                       h=dh, g=dg, ell=dell))
    return loss, grads


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class CurvePoint:
    step: int
    loss: float
    lr: float


def train(layer0: LittleBitLayer, teacher_w, cfg: TrainConfig,
          spec: SurrogateSpec = SurrogateSpec(),
          ) -> tuple[LittleBitLayer, list[CurvePoint]]:
    """Refine *layer0* toward the dense teacher; returns the snapshot
    layer and the per-step loss curve. Deterministic for a given seed:
    the calibration set is cfg.calib_batches batches of standard Gaussian
    rows drawn from cfg.seed, cycled during training.

    Raises DivergenceError as soon as the loss goes non-finite.
    """
    teacher_w = as_matrix(teacher_w, "teacher_w")
    if teacher_w.shape != (layer0.d_out, layer0.d_in):
        raise ValueError(
            f"teacher shape {teacher_w.shape} does not match layer "
            f"({layer0.d_out}, {layer0.d_in})")
    tl = make_trainable(layer0)
    rng = seeded_rng(cfg.seed)
    batches = [rng.standard_normal((cfg.batch, layer0.d_in))
               for _ in range(cfg.calib_batches)]
    targets = [x @ teacher_w.T for x in batches]
    # the targets are all that training needs of the teacher; when the
    # caller passed its only reference, this frees the dense matrix
    del teacher_w

    params = [p for path in tl.paths for p in path.params()]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    curve: list[CurvePoint] = []
    for t in range(1, cfg.steps + 1):
        lr_t = cfg.lr_at(t)
        i = (t - 1) % len(batches)
        loss, grads = loss_and_grads(tl, batches[i], targets[i], spec)
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss at step {t}")
        curve.append(CurvePoint(step=t, loss=loss, lr=lr_t))
        flat = [g for pg in grads for g in pg.params()]
        for j, (p, gr) in enumerate(zip(params, flat)):
            m[j] = ADAM_BETA1 * m[j] + (1 - ADAM_BETA1) * gr
            v[j] = ADAM_BETA2 * v[j] + (1 - ADAM_BETA2) * gr * gr
            mhat = m[j] / (1 - ADAM_BETA1 ** t)
            vhat = v[j] / (1 - ADAM_BETA2 ** t)
            p -= lr_t * mhat / (np.sqrt(vhat) + ADAM_EPS)
        # not alive through the next step's dense phase
        del grads, flat
    return tl.snapshot(), curve


def curve_to_csv(curve: Sequence[CurvePoint]) -> str:
    lines = ["step,loss,lr"]
    for pt in curve:
        lines.append(f"{pt.step},{pt.loss!r},{pt.lr!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Baseline scale initializations (for the init-quality comparison)
# ---------------------------------------------------------------------------

BASELINE_MODES = ("he_like", "xavier_like")


def init_baseline_scales(layer: LittleBitLayer, mode: str,
                         seed: int = 0) -> LittleBitLayer:
    """Replace h, g, ell with random positive draws, keeping the signs.

    he_like draws |N(0, 2/d_in)|, xavier_like |N(0, 2/(d_in + d_out))|;
    the RMS of the draws matches the target scale. Used only for the
    initialization-quality comparison experiments.
    """
    if mode not in BASELINE_MODES:
        raise ValueError(f"unknown baseline mode {mode!r}")
    if mode == "he_like":
        std = np.sqrt(2.0 / layer.d_in)
    else:
        std = np.sqrt(2.0 / (layer.d_in + layer.d_out))
    rng = seeded_rng(seed)

    def redraw(p: QuantPath) -> QuantPath:
        return QuantPath(
            u_sign=p.u_sign, v_sign=p.v_sign,
            h=np.abs(rng.normal(0.0, std, layer.d_out)),
            g=np.abs(rng.normal(0.0, std, layer.d_in)),
            ell=np.abs(rng.normal(0.0, std, p.rank)))

    residual = redraw(layer.residual) if layer.residual is not None else None
    return LittleBitLayer(d_out=layer.d_out, d_in=layer.d_in,
                          primary=redraw(layer.primary), residual=residual)
