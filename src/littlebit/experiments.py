"""Empirical probes and the kernel microbenchmark.

Sweeps are deterministic under a fixed seed and emit CSV with a header
row, so fixtures diff cleanly. Benchmarks report the median of >= 30
timed iterations after warmup and run single-threaded where the platform
allows; absolute nanoseconds are informational, relative numbers are the
point.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import bitpack, qat
from .dualsvid import quantize
from .layer import (LittleBitLayer, QuantPath, forward, measured_bpw,
                    path_effective_weight)
from .planner import rank_for_bpw
from .tensor import rank1_nonneg, seeded_rng, truncated_svd


@dataclass(frozen=True)
class SweepResult:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    seed: int
    shape: tuple[int, int]

    def to_csv(self) -> str:
        return _csv(self.columns, self.rows)


@dataclass(frozen=True)
class BenchResult:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def to_csv(self) -> str:
        return _csv(self.columns, self.rows)


def _csv(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Error-vs-rank sweep with the crude fixed-scale quantizer
# ---------------------------------------------------------------------------

def crude_quantize(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sign matrices with one fixed per-row magnitude scale from a rank-1
    fit of each factor's magnitudes; deliberately has no per-rank scale,
    so its fit degrades as the factors get richer."""
    s_u = rank1_nonneg(np.abs(u)).left
    s_v = rank1_nonneg(np.abs(v)).left
    return (bitpack.sign(u) * s_u[:, None]) @ (bitpack.sign(v) * s_v[:, None]).T


def error_vs_rank_sweep(shape: tuple[int, int] = (64, 64),
                 ranks: Sequence[int] = (1, 2, 4, 8, 16),
                 trials: int = 20, seed: int = 7) -> SweepResult:
    """Reconstruction error of the crude quantizer on random rank-r
    matrices W = U V^T, per rank and trial. No monotonicity is asserted;
    the sweep is for inspection."""
    m, n = shape
    if max(ranks) > min(shape):
        raise ValueError("ranks must fit within the shape")
    rng = seeded_rng(seed)
    rows = []
    for r in ranks:
        for trial in range(trials):
            u = rng.standard_normal((m, r))
            v = rng.standard_normal((n, r))
            w = u @ v.T
            err = float(np.linalg.norm(w - crude_quantize(u, v)))
            rows.append((r, trial, err))
    return SweepResult(columns=("rank", "trial", "frob_err"),
                       rows=tuple(rows), seed=seed, shape=shape)


# ---------------------------------------------------------------------------
# Two-stage vs single-stage quantization probe
# ---------------------------------------------------------------------------

def _svd_truncation(w: np.ndarray, k: int) -> np.ndarray:
    res = truncated_svd(w, k)
    return (res.u * res.sigma) @ res.v.T


def two_stage_probe(shape: tuple[int, int] = (64, 64), r1: int = 8,
                   r2: int = 8, trials: int = 100,
                   seed: int = 123) -> SweepResult:
    """Paired comparison on random Gaussian matrices: quantizing at rank
    r1 plus a rank-r2 residual path versus one rank-(r1+r2) path.

    Also records the error-interaction condition quantities: the norm of
    the summed per-stage quantization errors against the norm of the
    single-stage quantization error, both measured relative to the
    corresponding SVD truncations.
    """
    if r1 + r2 > min(shape):
        raise ValueError("r1 + r2 must fit within the shape")
    rng = seeded_rng(seed)
    rows = []
    for trial in range(trials):
        w = rng.standard_normal(shape)
        single, _ = quantize(w, r1 + r2, residual=False)
        w_single = path_effective_weight(single.primary)
        err_single = float(np.linalg.norm(w - w_single))

        if r2 > 0:
            two, _ = quantize(w, r1, residual=True, r_residual=r2)
            w_pri = path_effective_weight(two.primary)
            w_res = path_effective_weight(two.residual)
        else:
            two, _ = quantize(w, r1, residual=False)
            w_pri = path_effective_weight(two.primary)
            w_res = np.zeros_like(w)
        err_two = float(np.linalg.norm(w - (w_pri + w_res)))

        trunc_r1 = _svd_truncation(w, r1)
        trunc_r = _svd_truncation(w, r1 + r2)
        delta1 = w_pri - trunc_r1
        delta2 = w_res - (trunc_r - trunc_r1)
        delta_sum = w_single - trunc_r
        rows.append((trial, err_single, err_two,
                     float(np.linalg.norm(delta1 + delta2)),
                     float(np.linalg.norm(delta_sum)),
                     int(err_two < err_single)))
    return SweepResult(
        columns=("trial", "err_single", "err_two_stage",
                 "norm_sum_stage_errors", "norm_single_error", "two_stage_wins"),
        rows=tuple(rows), seed=seed, shape=shape)


# ---------------------------------------------------------------------------
# Residual on/off ablation at matched storage budget
# ---------------------------------------------------------------------------

def residual_ablation(shape: tuple[int, int] = (256, 256),
                      bpws: Sequence[float] = (1.0, 0.3),
                      cfg: qat.TrainConfig | None = None,
                      seed: int = 5) -> SweepResult:
    """Train residual and non-residual layers at matched bits per weight
    (the non-residual arm gets the larger rank) and record the loss pair
    per budget point.

    Every requested budget must clear the scales-only floor for *shape*
    on both arms; low budgets need larger shapes (e.g. 0.1 bits/weight
    needs sides above 640 on square layers).
    """
    if cfg is None:
        cfg = qat.TrainConfig(steps=200, lr=1e-3, seed=seed)
    rng = seeded_rng(seed)
    rows = []
    for bpw in bpws:
        w = rng.standard_normal(shape)
        for arm, residual in (("residual", True), ("no_residual", False)):
            r = rank_for_bpw(shape[0], shape[1], bpw, residual=residual)
            lay, _ = quantize(w, r, residual=residual, r_residual=r if residual else None)
            _, curve = qat.train(lay, w, cfg)
            rows.append((bpw, arm, r, measured_bpw(lay),
                         curve[0].loss, curve[-1].loss))
    return SweepResult(
        columns=("bpw", "arm", "rank", "measured_bpw", "init_loss", "final_loss"),
        rows=tuple(rows), seed=seed, shape=shape)


# ---------------------------------------------------------------------------
# GEMV latency microbenchmark
# ---------------------------------------------------------------------------

BENCH_PRESETS = {
    "llama70b-attn": (8192, 8192, (4096, 2272, 1216, 384)),
    "llama70b-mlp": (8192, 28672, (6400, 3456, 1920, 640)),
    "llama7b-mlp": (4096, 11008, (3072, 1664, 896, 320)),
}


def _single_thread_limit():
    try:
        from threadpoolctl import threadpool_limits
        return threadpool_limits(limits=1)
    except ImportError:
        return nullcontext()


def _round_robin_medians(fns, repeats: int, warmup: int) -> list[int]:
    """Median wall time in ns of each of *fns*. Every round calls each of
    them once, in turn, so that a slowdown of the host hits all alike."""
    for _ in range(warmup):
        for fn in fns:
            fn()
    samples = [[] for _ in fns]
    for _ in range(repeats):
        for fn, times in zip(fns, samples):
            t0 = time.perf_counter_ns()
            fn()
            times.append(time.perf_counter_ns() - t0)
    return [sorted(times)[len(times) // 2] for times in samples]


def _random_factor(rng, rows: int, cols: int) -> bitpack.BinaryFactor:
    signs = rng.integers(0, 2, size=(rows, cols)).astype(np.float64) * 2.0 - 1.0
    return bitpack.pack(signs)


def gemv_bench(d_out: int, d_in: int, ranks: Sequence[int],
               repeats: int = 30, warmup: int = 5, seed: int = 0) -> BenchResult:
    """Time the primary-path packed forward against a dense float32 GEMV
    reference at each latent rank, sampling the reference and the ranks
    round-robin."""
    rng = seeded_rng(seed)
    x = rng.standard_normal((1, d_in))
    g = np.abs(rng.standard_normal(d_in)) + 0.1
    h = np.abs(rng.standard_normal(d_out)) + 0.1

    with _single_thread_limit():
        w32 = rng.standard_normal((d_out, d_in)).astype(np.float32)
        x32 = x[0].astype(np.float32)
        layers = []
        for r in ranks:
            vf = _random_factor(rng, d_in, r)
            uf = _random_factor(rng, d_out, r)
            ell = np.abs(rng.standard_normal(r)) + 0.1
            layers.append(LittleBitLayer(d_out=d_out, d_in=d_in, primary=QuantPath(
                u_sign=uf, v_sign=vf, h=h, g=g, ell=ell)))
        fns = [lambda: w32 @ x32] + [partial(forward, lay, x) for lay in layers]
        dense_ns, *packed_ns = _round_robin_medians(fns, repeats, warmup)

    backend = "packed-" + bitpack.kernel_backend()
    rows = [(d_out, d_in, "dense-f32", 0, dense_ns, repeats, 1.0)]
    rows += [(d_out, d_in, backend, r, ns, repeats, dense_ns / ns)
             for r, ns in zip(ranks, packed_ns)]
    return BenchResult(
        columns=("d_out", "d_in", "backend", "rank", "median_ns",
                 "iterations", "speedup_vs_dense"),
        rows=tuple(rows))
