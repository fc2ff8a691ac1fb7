"""Bit-packed {-1,+1} factor storage and sign-select GEMV kernels.

A :class:`BinaryFactor` packs each row of a sign matrix into 64-bit words,
LSB-first, bit=1 encoding +1 and bit=0 encoding -1; pad bits beyond the
logical column count are zero.

The GEMVs are NumPy BLAS products against a dense +/-1 float64 copy of the
factor, unpacked on first use and cached on the factor. The cache costs
64x the packed words (8 bytes per sign instead of 1 bit) and lives as
long as the factor does.
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64


def kernel_backend() -> str:
    """Name of the GEMV backend. There is one, the NumPy sign-cache path,
    reported as 'fallback'."""
    return "fallback"


def words_per_row(cols: int) -> int:
    return (cols + WORD_BITS - 1) // WORD_BITS


class BinaryFactor:
    """Immutable packed sign matrix of shape (rows, cols)."""

    __slots__ = ("rows", "cols", "words", "_dense")

    def __init__(self, rows: int, cols: int, words: np.ndarray):
        wpr = words_per_row(cols)
        if words.dtype != np.uint64 or words.shape != (rows, wpr):
            raise ValueError(
                f"words must be uint64 of shape ({rows}, {wpr}), "
                f"got {words.dtype} {words.shape}")
        if cols % WORD_BITS and rows:
            pad_mask = ~np.uint64((1 << (cols % WORD_BITS)) - 1)
            if np.any(words[:, -1] & pad_mask):
                raise ValueError("pad bits beyond cols must be zero")
        self.rows = rows
        self.cols = cols
        self.words = np.ascontiguousarray(words)
        self.words.setflags(write=False)
        self._dense = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def dense(self) -> np.ndarray:
        """Unpacked +/-1 float64 view, cached on the factor; the GEMVs
        multiply against it. It takes 64x the memory of the packed words."""
        if self._dense is None:
            self._dense = unpack(self)
            self._dense.setflags(write=False)
        return self._dense


def sign(a: np.ndarray) -> np.ndarray:
    """Elementwise +/-1 float64 sign with sign(0) -> +1 (-0.0 included), so
    every real matrix maps to one that :func:`pack` accepts."""
    return np.where(a >= 0, 1.0, -1.0)


def pack(signs) -> BinaryFactor:
    """Pack a matrix whose entries are exactly +1 or -1."""
    signs = np.ascontiguousarray(signs, dtype=np.float64)
    if signs.ndim != 2:
        raise ValueError("sign matrix must be 2-D")
    if not np.all(np.abs(signs) == 1.0):
        raise ValueError("entries must be exactly +1 or -1")
    rows, cols = signs.shape
    wpr = words_per_row(cols)
    bits = np.zeros((rows, wpr * WORD_BITS), dtype=np.uint8)
    bits[:, :cols] = signs > 0
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = packed.view("<u8").astype(np.uint64).reshape(rows, wpr)
    return BinaryFactor(rows, cols, words)


def unpack(f: BinaryFactor) -> np.ndarray:
    """Inverse of :func:`pack`: dense +/-1 float64 matrix."""
    raw = f.words.astype("<u8").reshape(f.rows, -1).view(np.uint8)
    bits = np.unpackbits(raw, axis=1, bitorder="little")[:, :f.cols]
    return 2.0 * bits.astype(np.float64) - 1.0


def _check_vec(v, length: int, name: str) -> np.ndarray:
    v = np.ascontiguousarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != length:
        raise ValueError(f"{name} must be a vector of length {length}, "
                         f"got shape {v.shape}")
    return v


def gemv_right(x, f: BinaryFactor) -> np.ndarray:
    """y_j = sum_i x_i * sign_ij; x has length f.rows, y has length f.cols."""
    return _check_vec(x, f.rows, "x") @ f.dense()


def gemv_left(z, f: BinaryFactor) -> np.ndarray:
    """y_i = sum_j z_j * sign_ij; z has length f.cols, y has length f.rows."""
    return f.dense() @ _check_vec(z, f.cols, "z")
