"""Bit-packed {-1,+1} factor storage and the byte-table GEMV kernel.

A :class:`BinaryFactor` packs each row of a sign matrix into 64-bit words,
LSB-first, bit=1 encoding +1 and bit=0 encoding -1; pad bits beyond the
logical column count are zero.

Both GEMVs run one C kernel, ``lutgemv.c``, on the packed bits (the
byte-table method of LUT-GEMM and T-MAC): for each group of 8 inputs it
builds the 256 signed sums of the group, then sums table entries indexed
by the sign bytes of each output row. The kernel contracts along the bits
of a row, which is how :func:`gemv_left` reads a factor. :func:`gemv_right`
reads the bits of the factor's transpose, built on first use and kept on
the factor; it takes as many bytes as the packed words.

The kernel is compiled with the system C compiler (:data:`CC`,
:data:`CFLAGS`) on first use and cached in :data:`CACHE_DIR`
(``$XDG_CACHE_HOME/littlebit``, by default ``~/.cache/littlebit``) under
a name derived from a hash of its source and flags, so later processes
load it without compiling. A missing compiler, a failed compile, or a
cache directory that cannot be made, belongs to another user or is
writable by others raises :class:`~littlebit.errors.KernelBuildError`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .errors import KernelBuildError

WORD_BITS = 64

CC = ("cc",)
CFLAGS = ("-O3", "-shared", "-fPIC")
KERNEL_SOURCE = Path(__file__).with_name("lutgemv.c")


def _default_cache_dir() -> Path:
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    base = xdg if os.path.isabs(xdg) else os.path.expanduser("~/.cache")
    return Path(base) / "littlebit"


CACHE_DIR = _default_cache_dir()
# Rows of a factor unpacked at a time while its transpose is built.
_TRANSPOSE_ROWS = 2048

_gemv = None


def kernel_backend() -> str:
    """Name of the GEMV backend. There is one, the compiled byte-table
    kernel, reported as 'compiled'."""
    return "compiled"


def words_per_row(cols: int) -> int:
    return (cols + WORD_BITS - 1) // WORD_BITS


class BinaryFactor:
    """Immutable packed sign matrix of shape (rows, cols)."""

    __slots__ = ("rows", "cols", "words", "_transposed")

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
        self._transposed = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def transposed(self) -> "BinaryFactor":
        """The packed (cols, rows) transpose, built on first use from
        blocks of rows and kept on the factor."""
        if self._transposed is None:
            raw = self.words.astype("<u8", copy=False).view(np.uint8)
            t = np.zeros((self.cols, words_per_row(self.rows) * 8), dtype=np.uint8)
            for r0 in range(0, self.rows, _TRANSPOSE_ROWS):
                bits = np.unpackbits(raw[r0:r0 + _TRANSPOSE_ROWS], axis=1,
                                     count=self.cols, bitorder="little")
                block = np.packbits(bits.T, axis=1, bitorder="little")
                t[:, r0 // 8:r0 // 8 + block.shape[1]] = block
            words = t.view("<u8").astype(np.uint64, copy=False)
            self._transposed = BinaryFactor(self.cols, self.rows, words)
        return self._transposed


def sign(a: np.ndarray) -> np.ndarray:
    """Elementwise +/-1 float64 sign with sign(0) -> +1 (-0.0 included), so
    every real matrix maps to one that :func:`pack` accepts."""
    return (a >= 0) * 2.0 - 1.0


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


def _private_dir(d: Path) -> None:
    """Create *d* (mode 0700) if needed and refuse it unless it belongs to
    this user and no one else can write to it: a planted library in it
    would run its code in this process."""
    try:
        d.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = d.stat()
    except OSError as e:
        raise KernelBuildError(
            f"cannot create kernel cache directory {d}: {e.strerror}") from e
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise KernelBuildError(
            f"kernel cache directory {d} must belong to this user and "
            f"not be writable by others")


def _compile(so: Path) -> None:
    """Compile the kernel to a temp file next to *so*, then rename it into
    place, so a concurrent or interrupted build never leaves a partial
    library under the cached name."""
    try:
        fd, tmp = tempfile.mkstemp(dir=so.parent, prefix=".tmp-", suffix=".so")
    except OSError as e:
        raise KernelBuildError(
            f"cannot write to kernel cache directory {so.parent}: "
            f"{e.strerror}") from e
    os.close(fd)
    cmd = [*CC, *CFLAGS, "-o", tmp, str(KERNEL_SOURCE)]
    try:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  errors="replace")
        except OSError as e:
            raise KernelBuildError(
                f"cannot run the C compiler ({' '.join(cmd)}): {e.strerror}; "
                f"one is needed to build the GEMV kernel") from e
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or [
                f"exit code {proc.returncode}"]
            detail = next((ln for ln in lines if "error" in ln), lines[-1])
            raise KernelBuildError(
                f"GEMV kernel compile failed ({' '.join(cmd)}): {detail}")
        os.replace(tmp, so)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _kernel():
    """The kernel's ``lb_gemv`` entry point, compiled on first use."""
    global _gemv
    if _gemv is None:
        source = KERNEL_SOURCE.read_bytes()
        digest = hashlib.sha256(source + " ".join(CFLAGS).encode()).hexdigest()
        so = CACHE_DIR / f"lutgemv-{digest[:16]}.so"
        _private_dir(CACHE_DIR)
        if not so.exists():
            _compile(so)
        try:
            fn = ctypes.CDLL(str(so)).lb_gemv
        except (OSError, AttributeError) as e:
            raise KernelBuildError(f"cannot load the GEMV kernel {so}: {e}") from e
        fn.restype = ctypes.c_int
        fn.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                       ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                       ctypes.c_void_p]
        _gemv = fn
    return _gemv


def _check_input(a, length: int, name: str) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim not in (1, 2) or a.shape[-1] != length:
        raise ValueError(f"{name} must be a vector of length {length} or a "
                         f"(B, {length}) batch, got shape {a.shape}")
    return a


def _lut_gemv(x: np.ndarray, f: BinaryFactor) -> np.ndarray:
    """x @ unpack(f).T for a vector or (B, f.cols) batch *x*."""
    batch = x[None] if x.ndim == 1 else x
    y = np.empty((batch.shape[0], f.rows), dtype=np.float64)
    words = f.words.astype("<u8", copy=False)
    if _kernel()(batch.ctypes.data, batch.shape[0], f.cols, words.ctypes.data,
                 f.rows, words.shape[1] * 8, y.ctypes.data) != 0:
        raise MemoryError("GEMV kernel could not allocate its tables")
    return y[0] if x.ndim == 1 else y


def gemv_right(x, f: BinaryFactor) -> np.ndarray:
    """y_j = sum_i x_i * sign_ij; x is a vector of length f.rows or a
    (B, f.rows) batch, y has f.cols entries per row of x."""
    return _lut_gemv(_check_input(x, f.rows, "x"), f.transposed())


def gemv_left(z, f: BinaryFactor) -> np.ndarray:
    """y_i = sum_j z_j * sign_ij; z is a vector of length f.cols or a
    (B, f.cols) batch, y has f.rows entries per row of z."""
    return _lut_gemv(_check_input(z, f.cols, "z"), f)
