import re
import stat

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from littlebit import bitpack
from littlebit.errors import KernelBuildError
from conftest import naive_gemv_left, naive_gemv_right, random_signs


class TestPack:
    def test_bit_layout(self):
        f = bitpack.pack(np.array([[1.0, -1.0, 1.0, -1.0]]))
        assert f.words[0, 0] == 0b0101

    def test_all_plus_one_word(self):
        f = bitpack.pack(np.ones((1, 64)))
        assert f.words[0, 0] == 0xFFFF_FFFF_FFFF_FFFF

    def test_roundtrip_random(self, rng):
        s = random_signs(rng, 7, 130)
        assert np.array_equal(bitpack.unpack(bitpack.pack(s)), s)

    def test_roundtrip_many_shapes(self, rng):
        for rows, cols in [(1, 1), (3, 63), (2, 64), (5, 65), (4, 128), (6, 200)]:
            s = random_signs(rng, rows, cols)
            assert np.array_equal(bitpack.unpack(bitpack.pack(s)), s)

    def test_pad_bits_zero(self, rng):
        f = bitpack.pack(np.ones((3, 70)))
        assert np.all(f.words[:, 1] == (1 << 6) - 1)

    def test_rejects_non_sign_entries(self):
        with pytest.raises(ValueError, match="exactly"):
            bitpack.pack(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            bitpack.pack(np.array([[2.0, -1.0]]))

    def test_rejects_dirty_pad_bits(self):
        words = np.full((1, 1), 0xFF, dtype=np.uint64)
        with pytest.raises(ValueError, match="pad"):
            bitpack.BinaryFactor(1, 4, words)

    def test_word_count_invariant(self, rng):
        for cols in (1, 64, 65, 130, 640):
            f = bitpack.pack(random_signs(rng, 3, cols))
            assert f.words.shape == (3, (cols + 63) // 64)

    @given(st.integers(1, 8), st.integers(1, 200), st.integers(0, 2**32 - 1))
    @example(3, 64, 0)
    @example(2, 128, 1)
    @example(1, 63, 2)
    def test_roundtrip_and_zero_pad_over_shapes(self, rows, cols, seed):
        s = random_signs(np.random.default_rng(seed), rows, cols)
        f = bitpack.pack(s)
        assert np.array_equal(bitpack.unpack(f), s)
        assert f.words.shape == (rows, bitpack.words_per_row(cols))
        used = cols % 64
        if used:    # the pad bits of the last word are all zero
            assert np.all(f.words[:, -1] >> np.uint64(used) == 0)


class TestGemv:
    def test_right_one_hot(self):
        f = bitpack.pack(np.ones((5, 4)))
        x = np.zeros(5)
        x[2] = 1.0
        assert np.array_equal(bitpack.gemv_right(x, f), np.ones(4))

    def test_right_hand_example(self):
        f = bitpack.pack(np.array([[1.0], [-1.0]]))
        assert bitpack.gemv_right(np.array([1.0, 2.0]), f)[0] == -1.0

    def test_left_all_ones(self):
        r = 6
        f = bitpack.pack(np.ones((3, r)))
        y = bitpack.gemv_left(np.ones(r), f)
        assert np.array_equal(y, [r, r, r])

    def test_left_rank1(self):
        f = bitpack.pack(np.ones((2, 1)))
        assert np.array_equal(bitpack.gemv_left(np.array([-2.0]), f), [-2.0, -2.0])

    def test_against_naive_oracle_200_cases(self, rng):
        for _ in range(200):
            rows = int(rng.integers(1, 90))
            cols = int(rng.integers(1, 200))
            s = random_signs(rng, rows, cols)
            f = bitpack.pack(s)
            x = rng.standard_normal(rows)
            z = rng.standard_normal(cols)
            assert np.max(np.abs(bitpack.gemv_right(x, f) - naive_gemv_right(x, s))) < 1e-10
            assert np.max(np.abs(bitpack.gemv_left(z, f) - naive_gemv_left(z, s))) < 1e-10

    def test_large_shape_against_dense(self, rng):
        s = random_signs(rng, 2048, 640)
        f = bitpack.pack(s)
        z = rng.standard_normal(640)
        x = rng.standard_normal(2048)
        assert np.max(np.abs(bitpack.gemv_left(z, f) - s @ z)) < 1e-10
        assert np.max(np.abs(bitpack.gemv_right(x, f) - x @ s)) < 1e-10

    def test_transpose_consistency(self, rng):
        s = random_signs(rng, 33, 33)
        f = bitpack.pack(s)
        x = rng.standard_normal(33)
        assert np.allclose(bitpack.gemv_right(x, f),
                           bitpack.gemv_left(x, bitpack.pack(s.T)), atol=1e-12)

    def test_linearity(self, rng):
        s = random_signs(rng, 40, 70)
        f = bitpack.pack(s)
        x, y = rng.standard_normal(40), rng.standard_normal(40)
        a, b = 1.7, -0.3
        lhs = bitpack.gemv_right(a * x + b * y, f)
        rhs = a * bitpack.gemv_right(x, f) + b * bitpack.gemv_right(y, f)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_dimension_mismatch(self, rng):
        f = bitpack.pack(random_signs(rng, 4, 6))
        with pytest.raises(ValueError):
            bitpack.gemv_right(np.zeros(5), f)
        with pytest.raises(ValueError):
            bitpack.gemv_left(np.zeros(5), f)

    def test_determinism(self, rng):
        s = random_signs(rng, 50, 77)
        f = bitpack.pack(s)
        x = rng.standard_normal(50)
        assert np.array_equal(bitpack.gemv_right(x, f), bitpack.gemv_right(x, f))


class TestSign:
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                    max_side=70),
                      elements=st.sampled_from([0.0, -0.0])
                      | st.floats(allow_nan=False)))
    @example(np.array([[0.0, -0.0, -5e-324, 2.0, -np.inf]]))
    def test_zeros_plus_one_negatives_minus_one(self, a):
        s = bitpack.sign(a)
        assert s.dtype == np.float64 and s.shape == a.shape
        assert np.all(s[a < 0] == -1.0) and np.all(s[a >= 0] == 1.0)
        assert np.array_equal(bitpack.unpack(bitpack.pack(s)), s)


# Sides on and either side of the byte and word boundaries; words are
# also the side of the transpose's 64x64 blocks.
SIDES = (1, 7, 8, 63, 64, 65, 129)


def with_side_examples(test):
    """Every pair of SIDES as explicit (rows, cols, seed) examples."""
    for i, rows in enumerate(SIDES):
        for j, cols in enumerate(SIDES):
            test = example(rows, cols, len(SIDES) * i + j)(test)
    return test


class TestBatchedKernel:
    @given(st.integers(1, 40), st.integers(1, 300), st.integers(1, 70),
           st.integers(0, 2**32 - 1))
    @example(3, 7, 5, 0)
    @example(2, 64, 9, 1)
    @example(40, 300, 70, 2)
    @example(1, 129, 1, 3)
    def test_matches_elementwise_oracle(self, batch, n, m, seed):
        # the oracle of acceptance 03, row by row of the batch
        rng = np.random.default_rng(seed)
        s = random_signs(rng, m, n)          # gemv_left contracts n
        t = random_signs(rng, n, m)          # gemv_right contracts n
        z = rng.standard_normal((batch, n))
        left = bitpack.gemv_left(z, bitpack.pack(s))
        right = bitpack.gemv_right(z, bitpack.pack(t))
        assert left.shape == right.shape == (batch, m)
        for b in range(batch):
            assert np.max(np.abs(left[b] - (s * z[b]).sum(axis=1))) < 1e-10
            assert np.max(np.abs(right[b] - (z[b][:, None] * t).sum(axis=0))) < 1e-10

    @given(st.integers(1, 300), st.integers(1, 300), st.integers(0, 2**32 - 1))
    @with_side_examples
    def test_transpose_is_pack_of_unpacked_transpose(self, rows, cols, seed):
        f = bitpack.pack(random_signs(np.random.default_rng(seed), rows, cols))
        words = f.words
        expected = bitpack.pack(bitpack.unpack(f).T).words
        bitpack.gemv_right(np.zeros(rows), f)   # switches f to the kernel layout
        t = f._kernel_words()
        assert t.shape == (cols, bitpack.words_per_row(rows))
        assert np.array_equal(t, expected)
        assert np.array_equal(bitpack._transpose(t, cols, rows), words)
        assert np.array_equal(f.words, words)
        if rows % 64:   # the pad bits of the last word are all zero
            assert not np.any(t[:, -1] >> np.uint64(rows % 64))

    def test_empty_batch(self, rng):
        f = bitpack.pack(random_signs(rng, 6, 9))
        assert bitpack.gemv_left(np.zeros((0, 9)), f).shape == (0, 6)
        assert bitpack.gemv_right(np.zeros((0, 6)), f).shape == (0, 9)

    def test_rejects_wrong_rank_input(self, rng):
        f = bitpack.pack(random_signs(rng, 4, 6))
        with pytest.raises(ValueError):
            bitpack.gemv_left(np.zeros((2, 3, 6)), f)
        with pytest.raises(ValueError):
            bitpack.gemv_right(np.zeros((2, 6)), f)


class TestKernelBuild:
    @pytest.fixture
    def fresh(self, monkeypatch, tmp_path):
        """A cache directory under tmp_path and no kernel loaded yet."""
        cache = tmp_path / "cache" / "littlebit"
        monkeypatch.setattr(bitpack, "CACHE_DIR", cache)
        monkeypatch.setattr(bitpack, "_lib", None)
        return cache

    def test_cache_dir_created_private(self, fresh):
        bitpack.gemv_left(np.ones(3), bitpack.pack(np.ones((2, 3))))
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o700
        assert len(list(fresh.glob("lutgemv-*.so"))) == 1
        assert not list(fresh.glob(".tmp-*"))

    def test_cached_build_reused_without_compiler(self, fresh, monkeypatch):
        f = bitpack.pack(np.array([[1.0, -1.0, 1.0]]))
        assert np.array_equal(bitpack.gemv_left([1.0, 2.0, 4.0], f), [3.0])
        monkeypatch.setattr(bitpack, "_lib", None)
        monkeypatch.setattr(bitpack, "CC", (str(fresh / "no-such-cc"),))
        assert np.array_equal(bitpack.gemv_left([1.0, 2.0, 4.0], f), [3.0])

    def test_missing_compiler_names_command(self, fresh, monkeypatch):
        missing = str(fresh.parent / "no-such-cc")
        monkeypatch.setattr(bitpack, "CC", (missing,))
        with pytest.raises(KernelBuildError, match="no-such-cc"):
            bitpack.gemv_left(np.ones(3), bitpack.pack(np.ones((2, 3))))
        assert not list(fresh.iterdir())

    def test_failed_compile_leaves_nothing(self, fresh, monkeypatch):
        monkeypatch.setattr(bitpack, "CC", ("false",))
        with pytest.raises(KernelBuildError, match="compile failed"):
            bitpack.gemv_left(np.ones(3), bitpack.pack(np.ones((2, 3))))
        assert not list(fresh.iterdir())

    @pytest.mark.parametrize("source, missing", [
        ("int lb_gemv(void) { return 0; }\n", "lb_transpose"),
        ("void lb_transpose(void) {}\n", "lb_gemv")])
    def test_library_missing_an_entry_point_leaves_nothing(
            self, fresh, monkeypatch, tmp_path, source, missing):
        src = tmp_path / "partial.c"
        src.write_text(source)
        monkeypatch.setattr(bitpack, "KERNEL_SOURCE", src)
        with pytest.raises(KernelBuildError, match=missing):
            bitpack.gemv_left(np.ones(3), bitpack.pack(np.ones((2, 3))))
        assert not list(fresh.iterdir())
        assert bitpack._lib is None

    def test_refuses_cache_dir_writable_by_others(self, fresh):
        fresh.mkdir(parents=True)
        fresh.chmod(0o777)
        with pytest.raises(KernelBuildError, match=re.escape(str(fresh))):
            bitpack.gemv_left(np.ones(3), bitpack.pack(np.ones((2, 3))))

    def test_unwritable_cache_dir_names_path(self, fresh):
        blocker = fresh.parent
        blocker.parent.mkdir(parents=True, exist_ok=True)
        blocker.write_text("a file where the directory should be")
        with pytest.raises(KernelBuildError, match=re.escape(str(fresh))):
            bitpack.gemv_left(np.ones(3), bitpack.pack(np.ones((2, 3))))


class TestBackends:
    def test_backend_reported(self):
        assert bitpack.kernel_backend() == "compiled"
