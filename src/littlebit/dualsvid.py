"""Scaled-binary initialization from a dense matrix, plus the full
quantize pipeline with optional residual compensation.

The initialization extracts signs from the truncated-SVD factors and
scales from nonnegative rank-1 fits of the factors' magnitudes:

    W ~ U' V'.T            (U' = u * sqrt(sigma), V' = v * sqrt(sigma))
    U_sign = sign(U'),  V_sign = sign(V')        (sign(0) -> +1)
    |U'| ~ h (l_u).T,   |V'| ~ g (l_v).T         (rank-1, nonnegative)
    ell = l_u * l_v

The residual path, when requested, applies the same construction to the
leftover error W - W_hat_primary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bitpack
from .layer import LittleBitLayer, QuantPath, path_effective_weight
from .tensor import SvdResult, as_matrix, rank1_nonneg, require_finite, truncated_svd

# Residual matrices smaller than this fraction of ||W||_F are treated as
# zero and get an all-zero-ell residual path instead of a failed SVD fit.
ZERO_RESIDUAL_RTOL = 1e-12


@dataclass(frozen=True)
class InitReport:
    """Initialization error summary for one quantized matrix."""

    frob_err_primary: float
    frob_err_total: float
    rel_err_primary: float
    rel_err_total: float
    rank_used: int


def split_factors(svd: SvdResult) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric split of the singular values: U' = u sqrt(sigma),
    V' = v sqrt(sigma), so that U' V'.T = u diag(sigma) v.T."""
    root = np.sqrt(svd.sigma)
    return svd.u * root, svd.v * root


def init_path(w, r: int, svd: str = "exact",
              ) -> tuple[QuantPath, InitReport, np.ndarray]:
    """Initialize one scaled-binary path of rank *r* from a dense matrix.

    *svd* is the ``tensor.truncated_svd`` method for the top-r triplets.
    Returns the path, its error report and the residual W - W_hat_path
    the report measures, which a residual path is fit to.
    """
    w = as_matrix(w, "w")
    require_finite(w, "w")
    w_norm = float(np.linalg.norm(w))
    if w_norm == 0.0:
        raise ValueError("cannot initialize a path from an all-zero matrix")
    if not 1 <= r <= min(w.shape):
        raise ValueError(f"rank {r} out of range for shape {w.shape}")

    uprime, vprime = split_factors(truncated_svd(w, r, method=svd))
    u_fit = rank1_nonneg(np.abs(uprime))
    v_fit = rank1_nonneg(np.abs(vprime))
    path = QuantPath(
        u_sign=bitpack.pack(bitpack.sign(uprime)),
        v_sign=bitpack.pack(bitpack.sign(vprime)),
        h=u_fit.left,
        g=v_fit.left,
        ell=u_fit.right * v_fit.right,
    )
    w_res = path_effective_weight(path)
    np.subtract(w, w_res, out=w_res)
    err = float(np.linalg.norm(w_res))
    report = InitReport(
        frob_err_primary=err,
        frob_err_total=err,
        rel_err_primary=err / w_norm,
        rel_err_total=err / w_norm,
        rank_used=r,
    )
    return path, report, w_res


def _zero_residual_path(d_out: int, d_in: int, r: int) -> QuantPath:
    ones = np.ones
    return QuantPath(
        u_sign=bitpack.pack(ones((d_out, r))),
        v_sign=bitpack.pack(ones((d_in, r))),
        h=ones(d_out),
        g=ones(d_in),
        ell=np.zeros(r),
    )


def quantize(w, r_primary: int, residual: bool = True,
             r_residual: int | None = None,
             svd: str = "exact") -> tuple[LittleBitLayer, InitReport]:
    """Quantize a dense matrix into a ready layer.

    *svd* selects the ``tensor.truncated_svd`` method of both paths. The
    default ``"exact"`` uses the best rank-r triplets, which the recorded
    fixtures hold; ``"randomized"`` is several times faster at ranks well
    below min(d_out, d_in) and slightly less accurate.

    The residual path is fit to W - W_hat_primary and kept only if it
    reduces the total error; otherwise its latent scales are zeroed so
    that adding the path can never hurt the initialization (training may
    still revive it).
    """
    w = as_matrix(w, "w")
    d_out, d_in = w.shape
    primary, prim_report, w_res = init_path(w, r_primary, svd=svd)
    if not residual:
        layer = LittleBitLayer(d_out=d_out, d_in=d_in, primary=primary)
        return layer, prim_report

    if r_residual is None:
        r_residual = r_primary
    if r_residual < 1:
        raise ValueError("r_residual must be >= 1 when residual is requested")

    w_norm = float(np.linalg.norm(w))
    err_primary = prim_report.frob_err_primary
    if err_primary < ZERO_RESIDUAL_RTOL * w_norm:
        res_path = _zero_residual_path(d_out, d_in, r_residual)
        err_total = err_primary
    else:
        res_path, res_report, _ = init_path(w_res, r_residual, svd=svd)
        err_total = res_report.frob_err_primary
        if err_total > err_primary:
            res_path.ell = np.zeros(r_residual)
            err_total = err_primary

    layer = LittleBitLayer(d_out=d_out, d_in=d_in,
                           primary=primary, residual=res_path)
    report = InitReport(
        frob_err_primary=err_primary,
        frob_err_total=err_total,
        rel_err_primary=err_primary / w_norm,
        rel_err_total=err_total / w_norm,
        rank_used=r_primary,
    )
    return layer, report
