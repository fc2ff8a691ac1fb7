"""Bit-packed {-1,+1} factor storage and the byte-table GEMV kernel.

A :class:`BinaryFactor` packs each row of a sign matrix into 64-bit words,
LSB-first, bit=1 encoding +1 and bit=0 encoding -1; pad bits beyond the
logical column count are zero.

Both GEMVs run one C kernel, ``lutgemv.c``, on the packed bits (the
byte-table method of LUT-GEMM and T-MAC): for each group of 8 inputs it
builds the 256 signed sums of the group, then sums table entries indexed
by the sign bytes of each output row. The kernel contracts along the bits
of a row, which is how :func:`gemv_left` reads a factor. :func:`gemv_right`
reads the bits of the factor's transpose. A factor holds its bits in one
layout only: the first :func:`gemv_right` on it bit-transposes them in C
(``lb_transpose``, in the same file) and drops the row layout, which
:attr:`BinaryFactor.words` and everything built on it then derive on
demand with the same routine.

The kernel is compiled with the system C compiler (:data:`CC`,
:data:`CFLAGS`) on first use and cached in :data:`CACHE_DIR`
(``$XDG_CACHE_HOME/littlebit``, by default ``~/.cache/littlebit``) under
a name derived from a hash of its source and flags, so later processes
load it without compiling. A missing compiler, a failed compile, a
library without both entry points, or a cache directory that cannot be
made, belongs to another user or is writable by others raises
:class:`~littlebit.errors.KernelBuildError`.
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

_lib = None


def kernel_backend() -> str:
    """Name of the GEMV backend. There is one, the compiled byte-table
    kernel, reported as 'compiled'."""
    return "compiled"


def words_per_row(cols: int) -> int:
    return (cols + WORD_BITS - 1) // WORD_BITS


class BinaryFactor:
    """Packed sign matrix of shape (rows, cols) whose value never changes.

    The bits are held in one layout at a time. A new factor holds the row
    layout, :attr:`words`. The first :func:`gemv_right` on it replaces
    that with the packed (cols, rows) transpose, the layout the kernel
    reads for that product; :attr:`words` is then derived from it on each
    access by the same C routine.
    """

    __slots__ = ("rows", "cols", "_row", "_col")

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
        self._row = np.ascontiguousarray(words)
        self._row.setflags(write=False)
        self._col = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def words(self) -> np.ndarray:
        """The row layout, read-only uint64 of shape (rows,
        words_per_row(cols)). After the first :func:`gemv_right` it is
        rebuilt from the kernel layout on each access, which needs the
        compiled kernel (already built by then)."""
        row = self._row
        if row is None:
            row = _transpose(self._col, self.cols, self.rows)
        return row

    def _kernel_words(self) -> np.ndarray:
        """The packed (cols, rows) transpose that :func:`gemv_right` reads.
        The first call builds it and drops the row layout; two threads
        racing on it build the same words, so either may be kept."""
        if self._col is None:
            self._col, self._row = _transpose(self.words, self.rows, self.cols), None
        return self._col


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


def _compile(so: Path) -> ctypes.CDLL:
    """Compile the kernel to a temp file next to *so*, load it, then rename
    it into place, so a concurrent or interrupted build, or a library
    without both entry points, never leaves a file under the cached
    name."""
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
        lib = _load(tmp)
        os.replace(tmp, so)
        return lib
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load(so) -> ctypes.CDLL:
    """Open the compiled library *so* and declare both of its entry
    points, ``lb_gemv`` and ``lb_transpose``."""
    try:
        lib = ctypes.CDLL(str(so))
        gemv, transpose = lib.lb_gemv, lib.lb_transpose
    except (OSError, AttributeError) as e:
        raise KernelBuildError(f"cannot load the GEMV kernel: {e}") from e
    gemv.restype = ctypes.c_int
    gemv.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                     ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                     ctypes.c_void_p]
    transpose.restype = None
    transpose.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                          ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64]
    return lib


def _kernel() -> ctypes.CDLL:
    """The compiled kernel library, built on first use."""
    global _lib
    if _lib is None:
        source = KERNEL_SOURCE.read_bytes()
        digest = hashlib.sha256(source + " ".join(CFLAGS).encode()).hexdigest()
        so = CACHE_DIR / f"lutgemv-{digest[:16]}.so"
        _private_dir(CACHE_DIR)
        _lib = _load(so) if so.exists() else _compile(so)
    return _lib


def _check_input(a, length: int, name: str) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim not in (1, 2) or a.shape[-1] != length:
        raise ValueError(f"{name} must be a vector of length {length} or a "
                         f"(B, {length}) batch, got shape {a.shape}")
    return a


def _transpose(words: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Read-only packed (cols, rows) bit transpose of the row words of a
    rows x cols factor."""
    dst = np.empty((cols, words_per_row(rows)), dtype=np.uint64)
    _kernel().lb_transpose(words.ctypes.data, rows, words.shape[1], cols,
                           dst.ctypes.data, dst.shape[1])
    dst.setflags(write=False)
    return dst


def _lut_gemv(x: np.ndarray, words: np.ndarray) -> np.ndarray:
    """x @ S.T for a vector or batch *x* and the sign matrix S whose rows
    are packed in *words*, one row of S per output."""
    batch = x[None] if x.ndim == 1 else x
    y = np.empty((batch.shape[0], words.shape[0]), dtype=np.float64)
    words = words.astype("<u8", copy=False)
    if _kernel().lb_gemv(batch.ctypes.data, batch.shape[0], batch.shape[1],
                         words.ctypes.data, words.shape[0], words.shape[1] * 8,
                         y.ctypes.data) != 0:
        raise MemoryError("GEMV kernel could not allocate its tables")
    return y[0] if x.ndim == 1 else y


def gemv_right(x, f: BinaryFactor) -> np.ndarray:
    """y_j = sum_i x_i * sign_ij; x is a vector of length f.rows or a
    (B, f.rows) batch, y has f.cols entries per row of x. The first call
    on *f* leaves it holding the kernel layout (see :class:`BinaryFactor`)."""
    return _lut_gemv(_check_input(x, f.rows, "x"), f._kernel_words())


def gemv_left(z, f: BinaryFactor) -> np.ndarray:
    """y_i = sum_j z_j * sign_ij; z is a vector of length f.cols or a
    (B, f.cols) batch, y has f.rows entries per row of z."""
    return _lut_gemv(_check_input(z, f.cols, "z"), f.words)
