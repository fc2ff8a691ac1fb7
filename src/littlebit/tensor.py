"""Dense-matrix substrate: validation, RNG, truncated SVD, nonnegative
rank-1 approximation, the read and write rules shared by both file
formats, and the LBM1 raw-matrix file format.

Matrices are plain 2-D float64 C-contiguous ``numpy.ndarray`` objects
throughout the package. All math runs in float64; the LBM1 format stores
float32 on disk and values are widened back to float64 on load.
"""

from __future__ import annotations

import math
import os
import secrets
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

LBM1_MAGIC = b"LBM1"
_LBM1_HEADER = struct.Struct("<4sII")


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert *a* to a 2-D float64 C-contiguous array."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    return m


def require_finite(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


# ---------------------------------------------------------------------------
# Deterministic RNG
# ---------------------------------------------------------------------------

def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic generator; identical seeds yield identical streams."""
    return np.random.default_rng(seed)


def gaussian_matrix(rng: np.random.Generator, rows: int, cols: int,
                    std: float = 1.0) -> np.ndarray:
    """Draw a rows x cols matrix of N(0, std^2) samples from *rng*."""
    if std <= 0:
        raise ValueError("std must be positive")
    return rng.standard_normal((rows, cols)) * std


# ---------------------------------------------------------------------------
# Truncated SVD
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SvdResult:
    """Top-k singular triplets: u (m x k), sigma (k,), v (n x k).

    sigma is non-increasing and nonnegative; u and v have orthonormal
    columns; u @ diag(sigma) @ v.T is the best rank-k approximation.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return self.sigma.shape[0]


SVD_METHODS = ("exact", "randomized")
# Randomized range finder (Halko, Martinsson & Tropp 2011, "Finding
# structure with randomness", Algorithms 4.4 and 5.1): sample k + OVERSAMPLE
# directions and run POWER_ITERS rounds of A A^T on them. The sketch is
# drawn from a fixed seed so that equal inputs give equal outputs.
RSVD_OVERSAMPLE = 16
RSVD_POWER_ITERS = 3
RSVD_SEED = 0
# The sketch multiplies up to four factors of a together, so the binary
# exponent of its largest magnitude is kept within +-RSVD_SAFE_EXP: far
# from the ends of the float64 range, and inside the band where scaling a
# by a power of two scales sigma by the same power, bit for bit.
RSVD_SAFE_EXP = 100


def _orth(y: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the columns of a tall *y*.

    CholeskyQR2 (Fukaya et al. 2014, Yamamoto et al. 2015): two passes of
    Cholesky QR, q = y @ inv(chol(y.T @ y).T), all in GEMMs. The second
    pass is orthonormal to rounding when the first is within 0.5 of
    orthonormal (Frobenius norm of q.T @ q - I). Otherwise Householder QR
    gives the basis: when *y* is rank-deficient or badly conditioned, or
    so large that its Gram matrix overflows (non-finite values fail the
    check without a warning).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            q = y @ np.linalg.inv(np.linalg.cholesky(y.T @ y).T)
            g = q.T @ q
            if np.linalg.norm(g - np.eye(y.shape[1])) <= 0.5:
                return q @ np.linalg.inv(np.linalg.cholesky(g).T)
        except np.linalg.LinAlgError:
            pass
    return np.linalg.qr(y)[0]


def _randomized_svd(a: np.ndarray, k: int):
    """SVD of the rank-(k + RSVD_OVERSAMPLE) sketch of *a*: u with k
    columns, every singular value s of the sketch, and vt with k rows."""
    if a.shape[0] > a.shape[1]:
        # keep the basis on the short side: a = (a.T).T; the copy gives
        # BLAS the layout of a wide input, so a and a.T get equal sigma
        v, s, ut = _randomized_svd(np.ascontiguousarray(a.T), k)
        return ut.T, s, v.T
    _, e = np.frexp(max(a.max(), -a.min()))
    if abs(e) > RSVD_SAFE_EXP:
        # exact rescaling by 2**-e; in-band input is used as it is, uncopied
        u, s, vt = _randomized_svd(np.ldexp(a, -e), k)
        return u, np.ldexp(s, e), vt
    rng = seeded_rng(RSVD_SEED)
    q = _orth(a @ rng.standard_normal((a.shape[1], k + RSVD_OVERSAMPLE)))
    for _ in range(RSVD_POWER_ITERS):
        # one orthonormalization per round keeps the basis well conditioned
        q = _orth(a @ (a.T @ q))
    # a.T @ q = qb r with r = qb.T @ a.T @ q small and r = z diag(s) x.T, so
    # q.T @ a = x diag(s) (qb z).T; this is LAPACK's own route for a tall
    # SVD, with CholeskyQR2 in place of its Householder QR
    b = a.T @ q
    qb = _orth(b)
    z, s, xt = np.linalg.svd(qb.T @ b)
    return q @ xt.T[:, :k], s, (qb @ z[:, :k]).T


def truncated_svd(a, k: int, method: str = "exact") -> SvdResult:
    """Top-k SVD of a dense matrix with a deterministic sign convention.

    ``method="exact"`` truncates a full thin SVD. ``method="randomized"``
    uses the seeded randomized range finder above, whose triplets
    approximate the exact ones and whose outputs repeat exactly for equal
    input; it falls back to the exact SVD when the sketch would span the
    smaller side anyway (k + RSVD_OVERSAMPLE >= min(m, n)).

    Each (u_i, v_i) pair is flipped so that the entry of largest magnitude
    in u_i is positive, making outputs reproducible across runs.
    """
    a = as_matrix(a)
    require_finite(a)
    if not 1 <= k <= min(a.shape):
        raise ValueError(f"rank k={k} out of range for shape {a.shape}")
    if method not in SVD_METHODS:
        raise ValueError(f"unknown SVD method {method!r}; expected one of {SVD_METHODS}")
    if method == "randomized" and k + RSVD_OVERSAMPLE < min(a.shape):
        u, s, vt = _randomized_svd(a, k)
    else:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    u = u[:, :k].copy()
    s = s[:k].copy()
    v = vt[:k].T.copy()
    flip = u[np.argmax(np.abs(u), axis=0), np.arange(k)] < 0
    u[:, flip] = -u[:, flip]
    v[:, flip] = -v[:, flip]
    return SvdResult(u=u, sigma=s, v=v)


# ---------------------------------------------------------------------------
# Nonnegative rank-1 approximation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rank1Result:
    """Best rank-1 fit left @ right.T with ||right||_2 = 1; the magnitude is
    carried entirely by *left*. Both factors are nonnegative for
    entrywise-nonnegative input (Perron-Frobenius)."""

    left: np.ndarray
    right: np.ndarray
    # power-iteration rounds run, and whether the right iterate moved less
    # than tol before max_iter ran out
    iterations: int
    converged: bool


def rank1_nonneg(a, max_iter: int = 200, tol: float = 1e-12) -> Rank1Result:
    """Dominant singular pair of an entrywise-nonnegative matrix by power
    iteration on the right side.

    Stops when the right iterate moves less than *tol* or after *max_iter*
    rounds; ``converged`` on the result says which. Raises ValueError on
    all-zero input.
    """
    a = as_matrix(a)
    require_finite(a)
    if np.any(a < 0):
        raise ValueError("rank1_nonneg requires entrywise-nonnegative input")
    if not np.any(a > 0):
        raise ValueError("rank1_nonneg requires at least one positive entry")
    n = a.shape[1]
    v = np.full(n, 1.0 / np.sqrt(n))
    iterations, converged = 0, False
    for iterations in range(1, max_iter + 1):
        u = a @ v
        nu = np.linalg.norm(u)
        if nu == 0.0:
            break
        w = a.T @ (u / nu)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            break
        w /= nw
        delta = np.linalg.norm(w - v)
        v = w
        if delta < tol:
            converged = True
            break
    left = a @ v
    return Rank1Result(left=left, right=v, iterations=iterations,
                       converged=converged)


# ---------------------------------------------------------------------------
# File reading and writing
# ---------------------------------------------------------------------------
# Both file formats (LBM1 here, LBQ1 in :mod:`littlebit.layer`) are a fixed
# little-endian header followed by arrays whose shapes the header implies.

def atomic_write(path, *chunks) -> None:
    """Write *chunks* (bytes or C-contiguous arrays, in order) to *path*
    via a temp file and atomic rename, so an interrupted writer never
    leaves a partial file at the target. The file's mode is 0666 less the
    umask.

    The temp file is fsynced before the rename and the directory after it,
    so the new file survives a machine crash, not only a process crash.
    """
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    # created with mode 0666 so that the umask decides the final mode, as
    # for any file a program creates (tempfile.mkstemp would force 0600)
    while True:
        tmp = os.path.join(d, f".tmp-{secrets.token_hex(8)}~")
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    dir_fd = os.open(d, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read_header(f, header: struct.Struct, magic: bytes, path) -> list:
    """The fields after *magic* of the fixed *header* that starts the open
    file *f*."""
    if not f.seekable():
        # a pipe or FIFO has no size to check the header against
        raise FormatError(f"{path}: not a regular file")
    raw = f.read(header.size)
    if len(raw) < header.size:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    found, *fields = header.unpack(raw)
    if found != magic:
        raise FormatError(f"{path}: bad magic {found!r}")
    return fields


def read_arrays(f, layout, path) -> list[np.ndarray]:
    """Read the arrays that follow the header of the open file *f*.

    *layout* lists their (shape, little-endian dtype) in file order. The
    file size must equal the header plus their total size, checked before
    anything is allocated; each array is then read in place into its own
    buffer, and float data is checked finite before anyone widens it
    (casting a signalling NaN warns)."""
    expected = f.tell() + sum(math.prod(shape) * np.dtype(dtype).itemsize
                              for shape, dtype in layout)
    size = os.fstat(f.fileno()).st_size
    if size < expected:
        raise FormatError(f"{path}: truncated payload "
                          f"({size} bytes, header implies {expected})")
    if size > expected:
        raise FormatError(f"{path}: {size - expected} trailing bytes")
    arrays = []
    for shape, dtype in layout:
        a = np.empty(shape, dtype)
        if f.readinto(a) != a.nbytes:
            raise FormatError(f"{path}: truncated payload "
                              f"(file ends at byte {f.tell()})")
        if a.dtype.kind == "f" and not np.all(np.isfinite(a)):
            raise FormatError(f"{path}: non-finite values")
        # native byte order, as BinaryFactor requires: no copy on
        # little-endian hosts
        arrays.append(a.astype(a.dtype.newbyteorder("="), copy=False))
    return arrays


# ---------------------------------------------------------------------------
# LBM1 file format
# ---------------------------------------------------------------------------
# Little-endian: magic "LBM1", u32 rows, u32 cols, then rows*cols float32
# values row-major. Values are widened to float64 in memory.

def save_matrix(m, path) -> None:
    """Serialize a matrix to an LBM1 file (float32 payload, atomic write)."""
    m = as_matrix(m)
    require_finite(m)
    if 0 in m.shape:
        raise ValueError(f"matrix has a zero dimension {m.shape}")
    atomic_write(path, _LBM1_HEADER.pack(LBM1_MAGIC, *m.shape), m.astype("<f4"))


def load_matrix(path) -> np.ndarray:
    """Load an LBM1 file, widening float32 values to float64."""
    with open(path, "rb") as f:
        rows, cols = read_header(f, _LBM1_HEADER, LBM1_MAGIC, path)
        if rows < 1 or cols < 1:
            raise FormatError(f"{path}: bad dimensions ({rows}, {cols})")
        (data,) = read_arrays(f, [((rows, cols), "<f4")], path)
    return data.astype(np.float64)
