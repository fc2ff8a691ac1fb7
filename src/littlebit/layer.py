"""Factorized linear layer: scaled-binary paths, the decomposed forward
pass, effective-weight reconstruction, bits-per-weight accounting, and the
LBQ serialization format.

A :class:`QuantPath` holds one factorization {u_sign, v_sign, h, g, ell}
whose implied dense weight is

    diag(h) @ U_sign @ diag(ell) @ V_sign.T @ diag(g)

A :class:`LittleBitLayer` combines a primary path with an optional
residual path of the same shape; their effective weights add.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bitpack
from .bitpack import BinaryFactor
from .errors import FormatError
from .planner import path_bits
from .tensor import as_matrix, atomic_write, read_arrays, read_header

LBQ_MAGIC = b"LBQ1"
LBQ_VERSION = 1
_FLAG_RESIDUAL = 0x1
_FLAG_FP16_SCALES = 0x2
_LBQ_HEADER = struct.Struct("<4sHHIIII")


@dataclass
class QuantPath:
    """One scaled-binary factorization of a (d_out x d_in) weight."""

    u_sign: BinaryFactor      # d_out x r
    v_sign: BinaryFactor      # d_in x r
    h: np.ndarray             # (d_out,) row scales
    g: np.ndarray             # (d_in,)  column scales
    ell: np.ndarray           # (r,)     latent scales

    def __post_init__(self):
        self.h = np.ascontiguousarray(self.h, dtype=np.float64)
        self.g = np.ascontiguousarray(self.g, dtype=np.float64)
        self.ell = np.ascontiguousarray(self.ell, dtype=np.float64)
        r = self.u_sign.cols
        if self.v_sign.cols != r:
            raise ValueError("u_sign and v_sign must share the latent rank")
        if self.h.shape != (self.u_sign.rows,):
            raise ValueError("h length must equal d_out")
        if self.g.shape != (self.v_sign.rows,):
            raise ValueError("g length must equal d_in")
        if self.ell.shape != (r,):
            raise ValueError("ell length must equal the latent rank")
        for name, v in (("h", self.h), ("g", self.g), ("ell", self.ell)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def d_out(self) -> int:
        return self.u_sign.rows

    @property
    def d_in(self) -> int:
        return self.v_sign.rows

    @property
    def rank(self) -> int:
        return self.u_sign.cols


@dataclass
class LittleBitLayer:
    """Primary path plus optional residual path; the compressed stand-in
    for a dense (d_out x d_in) weight matrix."""

    d_out: int
    d_in: int
    primary: QuantPath
    residual: Optional[QuantPath] = None

    def __post_init__(self):
        for p in self.paths():
            if (p.d_out, p.d_in) != (self.d_out, self.d_in):
                raise ValueError("all paths must share (d_out, d_in)")

    def paths(self) -> list[QuantPath]:
        return [self.primary] if self.residual is None else [self.primary, self.residual]


def scaled_product(h: np.ndarray, su: np.ndarray, ell: np.ndarray,
                   sv: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Dense diag(h) su diag(ell) sv.T diag(g) from unpacked factors.

    The one place the product is spelled out: the evaluation order here
    fixes the last bits of every reconstruction and training step."""
    return ((h[:, None] * su) * ell) @ (sv * g[:, None]).T


def path_effective_weight(p: QuantPath) -> np.ndarray:
    """Dense diag(h) U_sign diag(ell) V_sign.T diag(g), shape d_out x d_in."""
    return scaled_product(p.h, bitpack.unpack(p.u_sign), p.ell,
                          bitpack.unpack(p.v_sign), p.g)


def effective_weight(layer: LittleBitLayer) -> np.ndarray:
    """Sum of the per-path effective weights. Reconstructed for analysis
    only; the forward pass never materializes it."""
    w = path_effective_weight(layer.primary)
    if layer.residual is not None:
        w = w + path_effective_weight(layer.residual)
    return w


def _forward_path(p: QuantPath, x: np.ndarray) -> np.ndarray:
    t = bitpack.gemv_right(x * p.g, p.v_sign)
    return bitpack.gemv_left(t * p.ell, p.u_sign) * p.h


def forward(layer: LittleBitLayer, x) -> np.ndarray:
    """Batched forward pass y = x @ W_hat.T via the four-stage chain
    ((x * g) V_sign * ell) U_sign.T * h per path over the whole batch,
    paths summed. Each output row depends only on its input row, bit for
    bit, whatever the batch size."""
    x = as_matrix(x, "x")
    if x.shape[1] != layer.d_in:
        raise ValueError(f"x has {x.shape[1]} columns, layer d_in={layer.d_in}")
    y = _forward_path(layer.primary, x)
    if layer.residual is not None:
        y += _forward_path(layer.residual, x)
    return y


# ---------------------------------------------------------------------------
# Bits-per-weight accounting
# ---------------------------------------------------------------------------

def measured_bpw(layer: LittleBitLayer, scale_bits: int = 16) -> float:
    """Average stored bits per original weight entry: :func:`path_bits`
    summed over every present path, divided by d_out * d_in."""
    bits = sum(path_bits(layer.d_out, layer.d_in, p.rank, scale_bits)
               for p in layer.paths())
    return bits / (layer.d_out * layer.d_in)


def param_bytes(layer: LittleBitLayer, scale_bits: int = 16) -> float:
    """Logical parameter payload in bytes (sign bits + scale storage),
    excluding the file header and word-alignment pad bits."""
    return measured_bpw(layer, scale_bits) * layer.d_out * layer.d_in / 8.0


# ---------------------------------------------------------------------------
# LBQ file format
# ---------------------------------------------------------------------------
# Little-endian. Header: magic "LBQ1", u16 version=1, u16 flags
# (bit0 residual present, bit1 scales stored fp16 else float32), u32 d_out,
# u32 d_in, u32 r_primary, u32 r_residual (0 if absent). Then the primary
# payload: U_sign words, V_sign words (row-major, ceil(r/64) u64 words per
# row), h, g, ell in the declared scale precision; then the residual
# payload in the same order when present.

def _check_fp16_range(layer: LittleBitLayer) -> None:
    fp16_max = float(np.finfo(np.float16).max)
    for name, p in zip(("primary", "residual"), layer.paths()):
        for vec, v in (("h", p.h), ("g", p.g), ("ell", p.ell)):
            largest = float(np.max(np.abs(v), initial=0.0))
            if largest > fp16_max:
                raise ValueError(
                    f"{name} path scale {vec} has |value| {largest:g} above "
                    f"the fp16 maximum {fp16_max:g}; save with float32 scales")
            # exact zeros are legal: a zeroed residual path stores ell = 0
            lost = (v != 0) & (v.astype(np.float16) == 0)
            if np.any(lost):
                smallest = float(np.min(np.abs(v[lost])))
                raise ValueError(
                    f"{name} path scale {vec} has nonzero |value| {smallest:g} "
                    f"that rounds to 0 in fp16; save with float32 scales")


def save_lbq(layer: LittleBitLayer, path, fp16_scales: bool = False) -> None:
    """Serialize a layer to an LBQ file (atomic write).

    With *fp16_scales*, raises ValueError before writing anything if a
    scale is too large to store as a finite fp16 value or is nonzero but
    would round to 0.
    """
    if fp16_scales:
        _check_fp16_range(layer)
    flags = 0
    if layer.residual is not None:
        flags |= _FLAG_RESIDUAL
    if fp16_scales:
        flags |= _FLAG_FP16_SCALES
    scale_dtype = "<f2" if fp16_scales else "<f4"
    r_res = layer.residual.rank if layer.residual is not None else 0
    header = _LBQ_HEADER.pack(LBQ_MAGIC, LBQ_VERSION, flags,
                              layer.d_out, layer.d_in,
                              layer.primary.rank, r_res)
    atomic_write(path, header, *(a for p in layer.paths()
                                 for a in _path_arrays(p, scale_dtype)))


def _path_arrays(p: QuantPath, scale_dtype) -> list:
    """U_sign words, V_sign words, h, g and ell as stored."""
    return [p.u_sign.words.astype("<u8", copy=False),
            p.v_sign.words.astype("<u8", copy=False),
            p.h.astype(scale_dtype), p.g.astype(scale_dtype),
            p.ell.astype(scale_dtype)]


def _path_layout(d_out: int, d_in: int, r: int, scale_dtype) -> list:
    """(shape, dtype) of U_sign words, V_sign words, h, g and ell."""
    wpr = bitpack.words_per_row(r)
    return [((d_out, wpr), "<u8"), ((d_in, wpr), "<u8"),
            ((d_out,), scale_dtype), ((d_in,), scale_dtype), ((r,), scale_dtype)]


def load_lbq(path) -> LittleBitLayer:
    """Load an LBQ file; scales are widened to float64 in memory."""
    with open(path, "rb") as f:
        version, flags, d_out, d_in, r_pri, r_res = \
            read_header(f, _LBQ_HEADER, LBQ_MAGIC, path)
        if version != LBQ_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if flags & ~(_FLAG_RESIDUAL | _FLAG_FP16_SCALES):
            raise FormatError(f"{path}: unknown flag bits 0x{flags:x}")
        if bool(flags & _FLAG_RESIDUAL) != (r_res > 0):
            raise FormatError(f"{path}: residual flag inconsistent with "
                              f"r_residual={r_res}")
        if min(d_out, d_in, r_pri) < 1:
            raise FormatError(f"{path}: bad dimensions "
                              f"({d_out}, {d_in}, r={r_pri})")
        scale_dtype = "<f2" if flags & _FLAG_FP16_SCALES else "<f4"
        ranks = [r for r in (r_pri, r_res) if r]
        arrays = read_arrays(f, [a for r in ranks for a in
                                 _path_layout(d_out, d_in, r, scale_dtype)], path)
    paths = []
    try:
        for i, r in enumerate(ranks):
            u, v, h, g, ell = arrays[5 * i:5 * i + 5]
            paths.append(QuantPath(BinaryFactor(d_out, r, u),
                                   BinaryFactor(d_in, r, v), h, g, ell))
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from e
    return LittleBitLayer(d_out, d_in, *paths)
