import os
import stat
import struct
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from littlebit import tensor
from littlebit.errors import FormatError


class TestTruncatedSvd:
    def test_identity(self):
        res = tensor.truncated_svd(np.eye(3), 3)
        assert np.allclose(res.sigma, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        a = np.diag([3.0, 2.0, 1.0])
        res = tensor.truncated_svd(a, 2)
        assert np.allclose(res.sigma, [3.0, 2.0])
        recon = (res.u * res.sigma) @ res.v.T
        assert abs(np.linalg.norm(a - recon) - 1.0) < 1e-12

    def test_matches_gram_eigensolver(self, rng):
        # independent oracle: eigenvalues of the Gram matrix
        a = rng.standard_normal((16, 12))
        res = tensor.truncated_svd(a, 5)
        gram_eigs = np.linalg.eigvalsh(a.T @ a)[::-1][:5]
        assert np.allclose(res.sigma, np.sqrt(gram_eigs), rtol=1e-8)

    def test_orthonormal_columns_and_order(self, rng):
        a = rng.standard_normal((20, 9))
        res = tensor.truncated_svd(a, 6)
        assert np.allclose(res.u.T @ res.u, np.eye(6), atol=1e-8)
        assert np.allclose(res.v.T @ res.v, np.eye(6), atol=1e-8)
        assert np.all(res.sigma >= 0)
        assert np.all(np.diff(res.sigma) <= 1e-12)

    def test_sign_convention_deterministic(self, rng):
        a = rng.standard_normal((10, 10))
        r1 = tensor.truncated_svd(a, 4)
        r2 = tensor.truncated_svd(a.copy(), 4)
        assert np.array_equal(r1.u, r2.u) and np.array_equal(r1.v, r2.v)
        for i in range(4):
            j = np.argmax(np.abs(r1.u[:, i]))
            assert r1.u[j, i] > 0

    def test_sign_convention_matches_the_per_column_loop(self, rng):
        a = rng.standard_normal((30, 20))
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        u, v = u[:, :7].copy(), vt[:7].T.copy()
        for i in range(7):
            j = int(np.argmax(np.abs(u[:, i])))
            if u[j, i] < 0:
                u[:, i] = -u[:, i]
                v[:, i] = -v[:, i]
        res = tensor.truncated_svd(a, 7)
        assert np.array_equal(res.u, u) and np.array_equal(res.v, v)
        assert np.array_equal(res.sigma, s[:7])

    def test_rank_out_of_range(self, rng):
        a = rng.standard_normal((5, 4))
        for k in (0, 5):
            with pytest.raises(ValueError):
                tensor.truncated_svd(a, k)

    def test_nonfinite_rejected(self):
        a = np.ones((3, 3))
        a[1, 1] = np.nan
        with pytest.raises(ValueError):
            tensor.truncated_svd(a, 1)

    def test_eckart_young_optimality(self, rng):
        # rank-k SVD beats 100 random rank-k matrices
        for m, n, k in [(12, 9, 2), (30, 40, 5), (64, 17, 3)]:
            a = rng.standard_normal((m, n))
            res = tensor.truncated_svd(a, k)
            best = np.linalg.norm(a - (res.u * res.sigma) @ res.v.T)
            for _ in range(100):
                p = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
                assert best <= np.linalg.norm(a - p) + 1e-8


def with_singular_values(rng, m, n, s):
    """An m x n matrix with random singular vectors and singular values s."""
    u, _ = np.linalg.qr(rng.standard_normal((m, len(s))))
    v, _ = np.linalg.qr(rng.standard_normal((n, len(s))))
    return (u * s) @ v.T


def decaying_matrix(rng, m, n, decay=1.0):
    """Random singular vectors with singular values (1 + i)^-decay."""
    return with_singular_values(rng, m, n, (1.0 + np.arange(min(m, n))) ** -decay)


class TestRandomizedSvd:
    def test_close_to_exact_on_decaying_spectrum(self, rng):
        a = decaying_matrix(rng, 120, 90)
        exact = tensor.truncated_svd(a, 8)
        approx = tensor.truncated_svd(a, 8, method="randomized")
        assert np.allclose(approx.sigma, exact.sigma, rtol=1e-6)
        # same leading directions, so the sign convention picks the same sign
        assert np.allclose(approx.u[:, :3], exact.u[:, :3], atol=1e-4)
        assert np.allclose(approx.v[:, :3], exact.v[:, :3], atol=1e-4)

    def test_orthonormal_ordered_and_sign_convention(self, rng):
        for shape in [(80, 50), (50, 80)]:
            a = rng.standard_normal(shape)
            res = tensor.truncated_svd(a, 10, method="randomized")
            assert res.u.shape == (shape[0], 10) and res.v.shape == (shape[1], 10)
            assert np.allclose(res.u.T @ res.u, np.eye(10), atol=1e-10)
            assert np.allclose(res.v.T @ res.v, np.eye(10), atol=1e-10)
            assert np.all(np.diff(res.sigma) <= 1e-12) and np.all(res.sigma >= 0)
            for i in range(10):
                assert res.u[np.argmax(np.abs(res.u[:, i])), i] > 0

    def test_repeats_exactly(self, rng):
        a = rng.standard_normal((70, 60))
        r1 = tensor.truncated_svd(a, 5, method="randomized")
        r2 = tensor.truncated_svd(a.copy(), 5, method="randomized")
        assert np.array_equal(r1.u, r2.u) and np.array_equal(r1.sigma, r2.sigma)
        assert np.array_equal(r1.v, r2.v)

    def test_exact_when_sketch_spans_the_smaller_side(self, rng):
        a = rng.standard_normal((60, 30))
        k = 30 - tensor.RSVD_OVERSAMPLE
        exact = tensor.truncated_svd(a, k)
        same = tensor.truncated_svd(a, k, method="randomized")
        assert np.array_equal(exact.u, same.u) and np.array_equal(exact.v, same.v)
        below = tensor.truncated_svd(a, k - 1, method="randomized")
        assert not np.array_equal(below.u, exact.u[:, :k - 1])

    def test_unknown_method(self, rng):
        with pytest.raises(ValueError, match="method"):
            tensor.truncated_svd(rng.standard_normal((4, 4)), 1, method="lanczos")


SPECTRA = ("gaussian", "rank5", "logspace", "single", "zero")


def spectrum_matrix(m, n, kind, seed):
    """An m x n test matrix: Gaussian; exactly rank 5 (or less on a short
    side); singular values logspace(0, -12); one nonzero entry; or zero."""
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.standard_normal((m, n))
    if kind == "rank5":
        return rng.standard_normal((m, 5)) @ rng.standard_normal((5, n))
    if kind == "logspace":
        return with_singular_values(rng, m, n, np.logspace(0, -12, min(m, n)))
    a = np.zeros((m, n))
    if kind == "single":
        a[rng.integers(m), rng.integers(n)] = rng.uniform(0.5, 2.0)
    return a


@st.composite
def svd_cases(draw):
    """Tall, wide and square shapes up to 60 a side, with a rank that takes
    the randomized branch whenever the short side is above
    RSVD_OVERSAMPLE + 1."""
    m = draw(st.integers(1, 60))
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, max(1, min(m, n) - tensor.RSVD_OVERSAMPLE - 1)))
    return m, n, k, draw(st.sampled_from(SPECTRA)), draw(st.integers(0, 2**32 - 1))


def with_examples(test):
    """Explicit tall and wide cases of each rank-deficient or
    ill-conditioned spectrum, all on the randomized branch."""
    for case in [(60, 40, 5, "rank5", 1), (40, 60, 3, "rank5", 2),
                 (60, 50, 1, "logspace", 3), (50, 60, 12, "logspace", 4),
                 (60, 25, 2, "single", 5), (25, 60, 8, "single", 6)]:
        test = example(case)(test)
    return test


class TestRandomizedSvdProperties:
    @given(svd_cases())
    @with_examples
    def test_orthonormal_and_ordered(self, case):
        m, n, k, kind, seed = case
        res = tensor.truncated_svd(spectrum_matrix(m, n, kind, seed), k, "randomized")
        assert res.u.shape == (m, k) and res.v.shape == (n, k)
        assert np.allclose(res.u.T @ res.u, np.eye(k), rtol=0, atol=1e-10)
        assert np.allclose(res.v.T @ res.v, np.eye(k), rtol=0, atol=1e-10)
        assert np.all(res.sigma >= 0) and np.all(np.diff(res.sigma) <= 0)

    @given(svd_cases())
    @with_examples
    def test_exact_sigma_when_the_rank_fits_the_sketch(self, case):
        m, n, k, kind, seed = case
        a = spectrum_matrix(m, n, kind, seed)
        assume(np.linalg.matrix_rank(a) <= k + tensor.RSVD_OVERSAMPLE)
        res = tensor.truncated_svd(a, k, "randomized")
        exact = np.linalg.svd(a, compute_uv=False)[:k]
        assert np.allclose(res.sigma, exact, rtol=0, atol=1e-10 * exact[0])

    @given(svd_cases())
    @with_examples
    def test_transpose_gives_the_same_sigma(self, case):
        # the basis always lives on the short side, so a and a.T run the
        # same arithmetic; the exact SVD gives no such promise
        m, n, k, kind, seed = case
        assume(m != n and k + tensor.RSVD_OVERSAMPLE < min(m, n))
        a = spectrum_matrix(m, n, kind, seed)
        assert np.array_equal(tensor.truncated_svd(a.T, k, "randomized").sigma,
                              tensor.truncated_svd(a, k, "randomized").sigma)

    @given(svd_cases())
    @with_examples
    def test_no_runtime_warning(self, case):
        # rank-deficient sketches leave Cholesky QR for Householder QR
        # without passing through inf or nan
        m, n, k, kind, seed = case
        a = spectrum_matrix(m, n, kind, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tensor.truncated_svd(a, k, "randomized")


class TestRandomizedSvdScale:
    # 2**512 and 2**-548 are about 1e154 and 1e-165, where the sketch
    # overflowed and underflowed before it was rescaled
    @given(svd_cases(), st.integers(-1074, 1023))
    @example((40, 60, 5, "gaussian", 0), 512)
    @example((40, 60, 5, "gaussian", 1), -548)
    @example((60, 40, 5, "gaussian", 2), 300)
    @example((60, 40, 5, "gaussian", 3), -300)
    @example((50, 60, 12, "logspace", 4), tensor.RSVD_SAFE_EXP)
    @example((50, 60, 3, "rank5", 5), -tensor.RSVD_SAFE_EXP - 1)
    def test_sigma_scales_with_a_power_of_two_bit_for_bit(self, case, e):
        m, n, k, kind, seed = case
        assume(k + tensor.RSVD_OVERSAMPLE < min(m, n))
        a = spectrum_matrix(m, n, kind, seed)
        with np.errstate(all="ignore"):
            scaled = np.ldexp(a, e)
        # 2**e * a and 2**e * sigma must be exact: finite, no subnormals
        assume(np.all(np.isfinite(scaled))
               and np.array_equal(np.ldexp(scaled, -e), a))
        ref = tensor.truncated_svd(a, k, "randomized")
        with np.errstate(all="ignore"):
            want = np.ldexp(ref.sigma, e)
        assume(np.all(np.isfinite(want))
               and np.array_equal(np.ldexp(want, -e), ref.sigma))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = tensor.truncated_svd(scaled, k, "randomized")
        assert np.array_equal(res.sigma, want)
        assert np.array_equal(res.u, ref.u) and np.array_equal(res.v, ref.v)


@st.composite
def conditioned_bases(draw):
    """A tall y = U diag(s) V.T whose singular values fall geometrically to
    10^-c, or are 1 except the last, which is 10^-c; c runs from 0 (y is
    orthonormal) to 16 (y is singular to rounding)."""
    m = draw(st.integers(2, 60))
    l = draw(st.integers(2, m))
    c = draw(st.floats(0.0, 16.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        s = np.logspace(0, -c, l)
    else:
        s = np.r_[np.ones(l - 1), 10.0 ** -c]
    return with_singular_values(rng, m, l, s)


class TestOrth:
    @given(conditioned_bases())
    def test_orthonormal_basis_of_the_range(self, y):
        q = tensor._orth(y)
        assert q.shape == y.shape
        assert np.allclose(q.T @ q, np.eye(y.shape[1]), rtol=0, atol=1e-12)
        assert np.linalg.norm(y - q @ (q.T @ y)) <= 1e-12 * np.linalg.norm(y)

    @given(conditioned_bases())
    def test_householder_when_one_cholesky_pass_is_not_near_orthonormal(self, y):
        with np.errstate(all="ignore"):
            try:
                q1 = y @ np.linalg.inv(np.linalg.cholesky(y.T @ y).T)
                near = np.linalg.norm(q1.T @ q1 - np.eye(y.shape[1])) <= 0.5
            except np.linalg.LinAlgError:
                near = False
        assume(not near)
        assert np.array_equal(tensor._orth(y), np.linalg.qr(y)[0])

    def test_huge_entries_take_householder_without_warning(self, rng):
        # the Gram matrix overflows; Householder QR does not
        y = rng.standard_normal((60, 21)) * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = tensor._orth(y)
            assert np.array_equal(q, np.linalg.qr(y)[0])


class TestRank1Nonneg:
    def test_exact_outer_product(self):
        a = np.outer([1.0, 2.0], [3.0, 4.0])
        res = tensor.rank1_nonneg(a)
        assert np.allclose(res.right, np.array([3.0, 4.0]) / 5.0)
        assert np.allclose(np.outer(res.left, res.right), a, atol=1e-12)

    def test_constant_matrix(self):
        res = tensor.rank1_nonneg(np.ones((4, 4)))
        assert np.allclose(res.left, [2.0, 2.0, 2.0, 2.0])
        assert np.allclose(res.right, [0.5, 0.5, 0.5, 0.5])

    def test_matches_full_svd_oracle(self, rng):
        a = np.abs(rng.standard_normal((8, 6)))
        res = tensor.rank1_nonneg(a)
        u, s, vt = np.linalg.svd(a)
        assert abs(np.linalg.norm(res.left) - s[0]) < 1e-8 * s[0]
        approx_err = np.linalg.norm(a - np.outer(res.left, res.right))
        best_err = np.linalg.norm(a - s[0] * np.outer(u[:, 0], vt[0]))
        assert approx_err <= best_err + 1e-8

    def test_agrees_with_truncated_svd(self, rng):
        a = np.abs(rng.standard_normal((9, 7))) + 0.05
        res = tensor.rank1_nonneg(a)
        svd1 = tensor.truncated_svd(a, 1)
        # same subspace up to the normalization convention
        assert np.allclose(res.left, svd1.sigma[0] * np.abs(svd1.u[:, 0]),
                           rtol=1e-8, atol=1e-10)
        assert np.allclose(res.right, np.abs(svd1.v[:, 0]),
                           rtol=1e-8, atol=1e-10)

    def test_reports_non_convergence(self, rng):
        a = np.abs(rng.standard_normal((6, 5))) + 0.1
        res = tensor.rank1_nonneg(a, max_iter=1)
        assert res.iterations == 1 and not res.converged

    def test_reports_convergence(self):
        res = tensor.rank1_nonneg(np.ones((4, 4)))
        assert res.converged and 1 <= res.iterations < 200

    def test_nonnegative_outputs(self, rng):
        a = np.abs(rng.standard_normal((12, 5)))
        res = tensor.rank1_nonneg(a)
        assert np.all(res.left >= 0) and np.all(res.right >= 0)

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            tensor.rank1_nonneg(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            tensor.rank1_nonneg(np.array([[1.0, -0.1], [0.2, 0.3]]))


class TestRng:
    def test_same_seed_identical(self):
        a = tensor.gaussian_matrix(tensor.seeded_rng(11), 6, 7, 0.5)
        b = tensor.gaussian_matrix(tensor.seeded_rng(11), 6, 7, 0.5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = tensor.gaussian_matrix(tensor.seeded_rng(1), 6, 7)
        b = tensor.gaussian_matrix(tensor.seeded_rng(2), 6, 7)
        assert not np.array_equal(a, b)

    def test_sample_statistics(self):
        m = tensor.gaussian_matrix(tensor.seeded_rng(3), 200, 200, std=0.02)
        assert 0.019 <= m.std() <= 0.021
        assert abs(m.mean()) < 0.05 * 0.02

    def test_bad_std(self):
        with pytest.raises(ValueError):
            tensor.gaussian_matrix(tensor.seeded_rng(0), 2, 2, std=0.0)


class TestAtomicWrite:
    def test_fsyncs_file_before_rename_then_directory(self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            mode = os.fstat(fd).st_mode
            events.append("fsync dir" if stat.S_ISDIR(mode) else "fsync file")
            real_fsync(fd)

        def replace(src, dst):
            events.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        target = tmp_path / "out.bin"
        # chunks of bytes and arrays, written in order
        tensor.atomic_write(target, b"pay",
                            np.frombuffer(b"load", np.uint8).reshape(2, 2))
        assert events == ["fsync file", "replace", "fsync dir"]
        assert target.read_bytes() == b"payload"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_failed_fsync_leaves_no_file(self, tmp_path, monkeypatch):
        def fsync(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", fsync)
        with pytest.raises(OSError, match="disk gone"):
            tensor.atomic_write(tmp_path / "out.bin", b"payload")
        assert os.listdir(tmp_path) == []

    def test_mode_follows_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            tensor.atomic_write(tmp_path / "out.bin", b"payload")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "out.bin").stat().st_mode) == 0o640


class TestLbm1:
    def test_roundtrip_identical_bytes(self, rng, tmp_path):
        m = rng.standard_normal((5, 7))
        p1, p2 = tmp_path / "a.lbm", tmp_path / "b.lbm"
        tensor.save_matrix(m, p1)
        loaded = tensor.load_matrix(p1)
        tensor.save_matrix(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        # float32 on disk, widened in memory
        assert loaded.dtype == np.float64
        assert np.array_equal(loaded, m.astype(np.float32).astype(np.float64))

    def test_roundtrip_idempotent_many(self, rng, tmp_path):
        for i in range(10):
            m = rng.standard_normal((rng.integers(1, 9), rng.integers(1, 9)))
            p = tmp_path / f"m{i}.lbm"
            tensor.save_matrix(m, p)
            first = p.read_bytes()
            tensor.save_matrix(tensor.load_matrix(p), p)
            assert p.read_bytes() == first

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.lbm"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            tensor.load_matrix(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.lbm"
        p.write_bytes(b"")
        with pytest.raises(FormatError, match="truncated"):
            tensor.load_matrix(p)

    def test_zero_dimension_rejected(self, tmp_path):
        p = tmp_path / "empty.lbm"
        for rows, cols in ((0, 4), (4, 0)):
            p.write_bytes(tensor.LBM1_MAGIC + struct.pack("<II", rows, cols))
            with pytest.raises(FormatError, match="dimensions"):
                tensor.load_matrix(p)
            with pytest.raises(ValueError, match="zero dimension"):
                tensor.save_matrix(np.zeros((rows, cols)), p)

    def test_truncated_payload(self, rng, tmp_path):
        p = tmp_path / "trunc.lbm"
        tensor.save_matrix(rng.standard_normal((4, 4)), p)
        p.write_bytes(p.read_bytes()[:-7])
        with pytest.raises(FormatError, match="truncated"):
            tensor.load_matrix(p)

    def test_nonfinite_payload(self, rng, tmp_path):
        p = tmp_path / "inf.lbm"
        tensor.save_matrix(rng.standard_normal((2, 2)), p)
        raw = bytearray(p.read_bytes())
        raw[12:16] = np.array([np.inf], dtype="<f4").tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="non-finite"):
            tensor.load_matrix(p)

    def test_writer_and_reader_match_spelled_out_bytes(self, rng, tmp_path):
        m = rng.standard_normal((3, 5))
        expected = (struct.pack("<4sII", b"LBM1", 3, 5)
                    + np.asarray(m, "<f4").tobytes())
        written, spelled = tmp_path / "written.lbm", tmp_path / "spelled.lbm"
        tensor.save_matrix(m, written)
        assert written.read_bytes() == expected
        spelled.write_bytes(expected)
        loaded = tensor.load_matrix(spelled)
        assert loaded.dtype == np.float64 and loaded.flags.c_contiguous
        assert np.array_equal(loaded, m.astype(np.float32).astype(np.float64))

    def test_trailing_bytes(self, rng, tmp_path):
        p = tmp_path / "m.lbm"
        tensor.save_matrix(rng.standard_normal((4, 4)), p)
        p.write_bytes(p.read_bytes() + b"x")
        with pytest.raises(FormatError, match="trailing"):
            tensor.load_matrix(p)

    def test_short_read_is_format_error(self, rng, tmp_path, monkeypatch):
        p = tmp_path / "short.lbm"
        tensor.save_matrix(rng.standard_normal((4, 4)), p)
        full = p.read_bytes()
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=len(full)))
        p.write_bytes(full[:-1])
        with pytest.raises(FormatError, match="truncated"):
            tensor.load_matrix(p)

    def test_save_rejects_nonfinite(self, tmp_path):
        m = np.full((2, 2), np.nan)
        with pytest.raises(ValueError):
            tensor.save_matrix(m, tmp_path / "x.lbm")
