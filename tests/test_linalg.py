"""Matrix container, quantile conventions, and subset singular values."""
from __future__ import annotations

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _oracles as orc
from kqrk import linalg
from kqrk.linalg import (
    CHOLESKY_SLACK,
    _cholesky_clears,
    _colex_table,
    _min_over_subsets,
    _random_subsets,
    _subset_blocks,
    _unrank,
    DenseMatrix,
    MultisetQuantileSpec,
    NonIntegerQuantileError,
    ProductTableTooLargeError,
    TooManySubsetsError,
    ZeroRowError,
    as_level,
    feasible_level,
    frobenius_sq,
    quantile,
    row_normalize,
    sigma_q_min_exact,
    sigma_q_min_sampled,
    singular_extremes,
    snap_level,
)


def rand_matrix(rng, m, n, normalized=True):
    a = rng.standard_normal((m, n))
    if normalized:
        dm, _ = row_normalize(a)
        return dm
    return DenseMatrix(a)


class TestDenseMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            DenseMatrix(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            DenseMatrix(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            DenseMatrix(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            DenseMatrix(np.eye(3) * 2.0, row_normalized=True)

    def test_readonly(self):
        dm = DenseMatrix(np.eye(3))
        with pytest.raises(ValueError):
            dm.data[0, 0] = 5.0

    def test_row_normalize(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 3)) * 10
        dm, norms = row_normalize(a)
        assert dm.row_normalized
        np.testing.assert_allclose(np.linalg.norm(dm.data, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(dm.data * norms[:, None], a, rtol=1e-12)

    def test_zero_row_rejected(self):
        a = np.ones((3, 2))
        a[1] = 0.0
        with pytest.raises(ZeroRowError) as err:
            row_normalize(a)
        assert err.value.row == 1

    def test_frobenius_unit_rows(self):
        rng = np.random.default_rng(1)
        dm = rand_matrix(rng, 9, 4)
        assert math.isclose(frobenius_sq(dm), 9.0, rel_tol=1e-12)


def _block_shapes(n: int = 64) -> list[tuple[int, int]]:
    """Edge shapes for the row-block passes at the current byte budget."""
    rows = linalg.ROW_BLOCK_BYTES // (8 * n)
    wide = linalg.ROW_BLOCK_BYTES // 8 + 1  # a row larger than one block
    return [
        (1, 1), (1, 3000), (3000, 1), (3, wide),
        (rows - 1, n), (rows, n), (rows + 1, n), (2 * rows + 1, n),
    ]


class TestRowBlocks:
    """The blocked whole-matrix passes agree bit for bit with numpy."""

    @staticmethod
    def _draw(shape, seed=0):
        rng = np.random.default_rng(seed)
        # magnitudes from 1e-150 to 1e150 keep every square finite and normal
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-150, 150, size=shape)

    @pytest.mark.parametrize("shape", _block_shapes(), ids=str)
    def test_row_norms_match_numpy(self, shape):
        a = self._draw(shape)
        expected = np.linalg.norm(a, axis=1).tobytes()
        assert linalg.row_norms(a).tobytes() == expected
        f = np.asfortranarray(a)  # numpy sums these rows in another order
        assert linalg.row_norms(f).tobytes() == np.linalg.norm(f, axis=1).tobytes()

    def test_row_norms_of_strided_rows(self):
        a = self._draw((400, 90), seed=1)[::3, ::2]
        assert linalg.row_norms(a).tobytes() == np.linalg.norm(a, axis=1).tobytes()

    @pytest.mark.parametrize("shape", _block_shapes(), ids=str)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_all_finite_matches_numpy(self, shape, bad):
        a = self._draw(shape)
        assert linalg.all_finite(a) is True
        for where in ((-1, -1), (0, 0)):  # only in the last block, then only in the first
            b = a.copy()
            b[where] = bad
            assert linalg.all_finite(b) is False
            assert not np.isfinite(b).all()

    @pytest.mark.parametrize("shape", _block_shapes(), ids=str)
    def test_row_normalize_matches_whole_division(self, shape):
        a = self._draw(shape, seed=2)
        before = a.copy()
        dm, norms = row_normalize(a)
        expected = np.linalg.norm(a, axis=1)
        assert norms.tobytes() == expected.tobytes()
        assert dm.data.tobytes() == (a / expected[:, None]).tobytes()
        # the public routine leaves its input untouched and writable
        assert a.tobytes() == before.tobytes() and a.flags.writeable

    def test_tiny_budget(self, monkeypatch):
        # A budget below one row gives one-row blocks; results do not move.
        a = self._draw((37, 5), seed=3)
        expected = np.linalg.norm(a, axis=1).tobytes()
        monkeypatch.setattr(linalg, "ROW_BLOCK_BYTES", 16)
        assert linalg.row_norms(a).tobytes() == expected
        assert row_normalize(a)[0].data.tobytes() == (a / np.linalg.norm(a, axis=1)[:, None]).tobytes()
        a[36, 4] = np.nan
        assert linalg.all_finite(a) is False

    def test_zero_row_in_last_block(self):
        a = self._draw((2 * linalg.ROW_BLOCK_BYTES // (8 * 64) + 1, 64))
        a[-1] = 0.0
        with pytest.raises(ZeroRowError) as err:
            row_normalize(a)
        assert err.value.row == a.shape[0] - 1

    def test_unit_row_check_uses_the_same_norms(self):
        a = self._draw((300, 70), seed=4)
        dm = DenseMatrix(row_normalize(a)[0].data.copy(), row_normalized=True)
        assert dm.row_normalized
        bad = dm.data.copy()
        bad[-1] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="row 299 has norm"):
            DenseMatrix(bad, row_normalized=True)


class TestLevels:
    def test_snap_basic(self):
        assert snap_level(0.8, 10) == Fraction(4, 5)
        assert snap_level(0.81, 10) == Fraction(4, 5)
        assert snap_level(0.0, 10) == Fraction(0)
        assert snap_level(1.0, 10) == Fraction(1)
        assert snap_level(Fraction(7, 9), 9) == Fraction(7, 9)

    def test_feasible_accepts_near_floats(self):
        assert feasible_level(0.8, 10) == Fraction(4, 5)
        assert feasible_level(0.05, 100) == Fraction(1, 20)
        assert feasible_level(Fraction(3, 4), 8) == Fraction(3, 4)

    def test_feasible_rejects(self):
        with pytest.raises(NonIntegerQuantileError) as err:
            feasible_level(0.33, 10)
        assert "nearest feasible" in str(err.value)
        with pytest.raises(NonIntegerQuantileError):
            feasible_level(Fraction(1, 3), 10)
        with pytest.raises(NonIntegerQuantileError):
            feasible_level(Fraction(11, 10), 10)

    def test_float_level_is_the_decimal_it_prints_as(self):
        assert as_level(0.8) == Fraction(4, 5) == as_level("0.8")
        assert as_level(np.float64(0.05)) == Fraction(1, 20)
        assert as_level(0.1 + 0.7) == Fraction(7999999999999999, 10**16)
        assert as_level("1/20") == Fraction(1, 20)
        assert as_level(Fraction(1, 3)) == Fraction(1, 3)
        assert as_level(1) == Fraction(1)

    @pytest.mark.parametrize("q,m,nearest", [(0.1 + 0.7, 10, "4/5"), (0.3333333, 3, "1/3")])
    def test_feasible_rejects_floats_off_the_grid(self, q, m, nearest):
        with pytest.raises(NonIntegerQuantileError) as err:
            feasible_level(q, m)
        assert f"nearest feasible q = {nearest})" in str(err.value)

    @given(st.integers(1, 200), st.integers(0, 200))
    def test_snap_always_feasible(self, m, num):
        q = Fraction(num, 200)
        snapped = snap_level(q, m)
        assert (snapped * m).denominator == 1
        assert 0 <= snapped <= 1


class TestQuantile:
    @given(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=60),
        st.data(),
    )
    @settings(max_examples=200)
    def test_matches_sort_oracle(self, values, data):
        m = len(values)
        count = data.draw(st.integers(1, m))
        spec = MultisetQuantileSpec(q=Fraction(count, m), m=m)
        got = quantile(np.array(values), spec)
        assert got == orc.sort_quantile(values, count)

    def test_multiset_ties(self):
        vals = np.array([3.0, 1.0, 1.0, 1.0, 9.0])
        assert quantile(vals, MultisetQuantileSpec(Fraction(2, 5), 5)) == 1.0
        assert quantile(vals, MultisetQuantileSpec(Fraction(4, 5), 5)) == 3.0

    def test_spec_validation(self):
        with pytest.raises(NonIntegerQuantileError):
            MultisetQuantileSpec(Fraction(1, 3), 10)
        with pytest.raises(ValueError):
            MultisetQuantileSpec(Fraction(0), 10)

    @given(st.data())
    @settings(max_examples=100)
    def test_monotone_in_q(self, data):
        m = data.draw(st.integers(2, 40))
        vals = np.array(data.draw(
            st.lists(st.floats(-100, 100, allow_nan=False), min_size=m, max_size=m)
        ))
        k1 = data.draw(st.integers(1, m - 1))
        k2 = data.draw(st.integers(k1 + 1, m))
        lo = quantile(vals, MultisetQuantileSpec(Fraction(k1, m), m))
        hi = quantile(vals, MultisetQuantileSpec(Fraction(k2, m), m))
        assert lo <= hi


class TestSigmaQMin:
    def test_matches_brute_enumeration(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            dm = rand_matrix(rng, 8, 3)
            got = sigma_q_min_exact(dm, Fraction(1, 2))
            want = orc.brute_sigma_q_min(dm.data, Fraction(1, 2))
            assert got.mode == "exact"
            assert not got.is_upper_bound_only
            assert got.subsets_examined == math.comb(8, 4)
            assert math.isclose(got.value, want, rel_tol=1e-10, abs_tol=1e-12)

    def test_zero_when_subsets_are_wide(self):
        rng = np.random.default_rng(4)
        dm = rand_matrix(rng, 10, 5)
        got = sigma_q_min_exact(dm, Fraction(2, 10))
        assert got.value == 0.0
        assert got.subsets_examined == 0

    def test_single_column_analytic(self):
        # n=1: the subset minimum is the root of the sum of the k smallest squares
        rng = np.random.default_rng(5)
        a = DenseMatrix(rng.standard_normal((9, 1)))
        got = sigma_q_min_exact(a, Fraction(4, 9))
        squares = np.sort(a.data.ravel() ** 2)
        want = math.sqrt(math.fsum(squares[:4]))
        assert math.isclose(got.value, want, rel_tol=1e-12)
        assert got.subsets_examined == 0

    def test_enumeration_cap(self):
        rng = np.random.default_rng(6)
        dm = rand_matrix(rng, 40, 3)
        with pytest.raises(TooManySubsetsError):
            sigma_q_min_exact(dm, Fraction(1, 2))

    def test_enumeration_cap_read_at_call_time(self, monkeypatch):
        dm = rand_matrix(np.random.default_rng(6), 12, 3)  # C(12, 6) = 924 subsets
        monkeypatch.setattr(linalg, "SUBSET_ENUMERATION_CAP", 923)
        with pytest.raises(TooManySubsetsError, match="cap of 923"):
            sigma_q_min_exact(dm, Fraction(1, 2))
        monkeypatch.setattr(linalg, "SUBSET_ENUMERATION_CAP", 924)
        assert sigma_q_min_exact(dm, Fraction(1, 2)).subsets_examined == 924

    def test_product_table_budget(self, monkeypatch):
        # Refused before any allocation, in both modes; a level with an
        # analytic shortcut needs no table and is not refused.
        dm = rand_matrix(np.random.default_rng(6), 12, 3)
        empty = np.empty
        monkeypatch.setattr(linalg, "PRODUCT_TABLE_BUDGET_BYTES", 8 * 12 * 6 - 1)
        monkeypatch.setattr(np, "empty", None)  # the table's allocation would fail
        with pytest.raises(ProductTableTooLargeError, match="table of 576 bytes"):
            sigma_q_min_exact(dm, Fraction(1, 2))
        with pytest.raises(ProductTableTooLargeError):
            sigma_q_min_sampled(dm, Fraction(1, 2), 10, seed=1)
        assert sigma_q_min_exact(dm, Fraction(2, 12)).value == 0.0
        # a table of exactly the budget is built
        monkeypatch.setattr(linalg, "PRODUCT_TABLE_BUDGET_BYTES", 8 * 12 * 6)
        monkeypatch.setattr(np, "empty", empty)
        assert sigma_q_min_exact(dm, Fraction(1, 2)).subsets_examined == 924

    def test_sampled_is_upper_bound(self):
        rng = np.random.default_rng(7)
        for seed in range(6):
            dm = rand_matrix(rng, 9, 3)
            exact = sigma_q_min_exact(dm, Fraction(5, 9))
            sampled = sigma_q_min_sampled(dm, Fraction(5, 9), samples=10, seed=seed)
            assert sampled.mode == "sampled"
            assert sampled.is_upper_bound_only
            assert sampled.subsets_examined == 10
            assert sampled.value >= exact.value - 1e-12

    def test_exhaustive_sampling_equals_exact(self):
        rng = np.random.default_rng(8)
        dm = rand_matrix(rng, 8, 3)
        exact = sigma_q_min_exact(dm, Fraction(1, 2))
        total = math.comb(8, 4)
        sampled = sigma_q_min_sampled(dm, Fraction(1, 2), samples=total, seed=0)
        assert sampled.mode == "exact"
        assert not sampled.is_upper_bound_only
        assert sampled.value == exact.value

    def test_monotone_in_q(self):
        rng = np.random.default_rng(9)
        dm = rand_matrix(rng, 9, 2)
        values = [
            sigma_q_min_exact(dm, Fraction(k, 9)).value for k in range(2, 10)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_full_level_is_global_minimum(self):
        rng = np.random.default_rng(10)
        dm = rand_matrix(rng, 7, 3)
        full = sigma_q_min_exact(dm, Fraction(1))
        _, smin = singular_extremes(dm)
        assert math.isclose(full.value, smin, rel_tol=1e-12)


def svd_subset_min(a, k):
    """min over k-row subsets of the smallest singular value, one SVD each."""
    return min(
        float(np.linalg.svd(a[list(s)], compute_uv=False)[-1])
        for s in itertools.combinations(range(a.shape[0]), k)
    )


@st.composite
def screen_cases(draw):
    """Small systems built to stress the eigenvalue screen.

    "duplicated" repeats rows, so many subsets tie at the minimum;
    "deficient" zeroes the last column on k rows, so some subset has
    sigma = 0; "scaled" spreads row norms over 1e-6 to 1e6, so Gram
    eigenvalues lose the small singular values to rounding.
    """
    m = draw(st.integers(2, 12))
    n = draw(st.integers(2, min(4, m)))
    k = draw(st.integers(n, m))
    kind = draw(st.sampled_from(["plain", "duplicated", "deficient", "scaled"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((m, n))
    if kind == "duplicated":
        a[rng.integers(0, m, m)] = a[rng.integers(0, m, m)]
    elif kind == "deficient":
        a[rng.choice(m, size=k, replace=False), -1] = 0.0
    elif kind == "scaled":
        a *= 10.0 ** rng.uniform(-6, 6, m)[:, None]
    unit = draw(st.booleans())
    return (row_normalize(a)[0] if unit else DenseMatrix(a)), k


def check_screen_keeps_the_svd_minimum(case):
    dm, k = case
    want = svd_subset_min(dm.data, k)
    assert _min_over_subsets(dm, k) == want
    got = sigma_q_min_exact(dm, Fraction(k, dm.m))
    assert got.value == want
    assert got.subsets_examined == math.comb(dm.m, k)


@st.composite
def gram_stacks(draw):
    """A stack of symmetric matrices, its kind, and a threshold c >= 0.

    "psd", "deficient" (X has fewer rows than columns, or a repeated
    column) and "scaled" (columns spread over 1e-6 to 1e6) are Gram
    matrices X^T X.  The rest must never clear: "zero_column" has a zero
    row and column, so G - c I has a pivot -c <= 0 exactly; "indefinite"
    subtracts 2 (trace + 1) v v^T for a unit v; "nan" has a NaN pair.
    """
    n = draw(st.integers(1, 7))
    count = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(
        ["psd", "deficient", "scaled", "zero_column", "indefinite", "nan"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((count, draw(st.integers(1, 2 * n)), n))
    if kind == "deficient" and n > 1:
        x[..., -1] = x[..., 0]
    elif kind == "scaled":
        x *= 10.0 ** rng.uniform(-6, 6, (count, 1, n))
    elif kind == "zero_column":
        x[..., rng.integers(n)] = 0.0
    gram = x.transpose(0, 2, 1) @ x
    if kind == "indefinite":
        v = rng.standard_normal((count, n))
        v /= np.linalg.norm(v, axis=1)[:, None]
        scale = 2.0 * (np.trace(gram, axis1=1, axis2=2) + 1.0)
        gram -= scale[:, None, None] * v[:, :, None] * v[:, None, :]
    how = draw(st.sampled_from(["zero", "fraction", "near"]))
    if how == "zero":
        c = 0.0
    elif how == "fraction":
        c = draw(st.floats(0, 1)) * float(np.trace(gram[0]))
    else:
        c = float(np.linalg.eigvalsh(gram[0])[0]) * (1 + draw(st.floats(-1e-9, 1e-9)))
    if kind == "nan":
        i, j = rng.integers(n, size=2)
        gram[:, i, j] = gram[:, j, i] = np.nan
    return gram, kind, max(c, 0.0)


class TestCholeskyClears:
    @given(gram_stacks())
    @settings(max_examples=300, deadline=None)
    def test_cleared_matrices_are_above_the_threshold(self, case):
        gram, kind, c = case
        count, n, _ = gram.shape
        before = gram.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cleared = _cholesky_clears(gram, c)
        np.testing.assert_array_equal(gram, before)
        assert cleared.shape == (count,) and cleared.dtype == bool
        if kind in ("zero_column", "indefinite", "nan"):
            assert not cleared.any()
        if cleared.any():
            fro = np.maximum(np.trace(gram, axis1=1, axis2=2), c)[cleared]
            tau_chol = CHOLESKY_SLACK * n * (n + 1) * np.finfo(np.float64).eps * fro
            low = np.linalg.eigvalsh(gram[cleared])[:, 0]
            assert np.all(low >= c - tau_chol)

    def test_known_stacks(self):
        gram = np.array([
            np.diag([3.0, 2.0, 1.0]),   # last pivot exactly 0 at c = 1
            np.diag([0.5, 4.0, 4.0]),   # first pivot fails, the rest would pass
            np.diag([2.0, 3.0, 4.0]),   # clears
            [[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 2.0]],  # lambda_min 1
            np.full((3, 3), 2.0),       # rank one: 2 x 2 minor is zero
            # fails at once; its column, if still applied, would overflow
            np.full((3, 3), 1e80) - 1e80 * np.eye(3),
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _cholesky_clears(gram, 1.0)
            assert got.tolist() == [False, False, True, False, False, False]
            got = _cholesky_clears(gram, 0.5)
            assert got.tolist() == [True, False, True, True, False, False]

    @given(gram_stacks())
    @settings(max_examples=300, deadline=None)
    def test_clears_whatever_the_freeze_scan_clears(self, case):
        # The one-pass test drops the freeze scan's checks, never its
        # arithmetic, so it can only clear more.
        gram, _, c = case
        frozen = orc.freeze_scan_clears(gram, c)
        assert not (frozen & ~_cholesky_clears(gram, c)).any()

    @given(gram_stacks(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_failing_neighbours_change_no_verdict(self, case, data):
        # NaN, indefinite and overflowing matrices, each put at a random
        # place in the stack, fail on their own and leave the rest alone.
        gram, _, c = case
        count, n, _ = gram.shape
        hostile = {
            "nan": np.full((n, n), np.nan),
            "indefinite": -np.eye(n),
            "1e80": np.full((n, n), 1e80) - 1e80 * np.eye(n),
            "overflow": (c + 1.0) * np.eye(n) + 1e200 * (1 - np.eye(n)),  # its update overflows
        }
        kinds = data.draw(st.lists(st.sampled_from(sorted(hostile)), min_size=1, max_size=4))
        places = sorted(data.draw(st.integers(0, count)) for _ in kinds)
        stack = np.insert(gram, places, np.array([hostile[k] for k in kinds]), axis=0)
        mine = np.ones(len(stack), dtype=bool)
        mine[np.array(places) + np.arange(len(kinds))] = False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = _cholesky_clears(gram, c)
            together = _cholesky_clears(stack, c)
        np.testing.assert_array_equal(together[mine], alone)
        if n > 1:
            assert not together[~mine].any()


class TestSubsetEngine:
    @given(screen_cases())
    @settings(max_examples=150, deadline=None)
    def test_screen_keeps_the_svd_minimum(self, case):
        check_screen_keeps_the_svd_minimum(case)

    @given(screen_cases())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_screen_keeps_the_svd_minimum_in_tiny_chunks(self, monkeypatch, case):
        # A few subsets per chunk, so nearly every chunk is tested against
        # the running minimum and the first one against the seeded value.
        monkeypatch.setattr(linalg, "GATHER_BUDGET_BYTES", 256)
        check_screen_keeps_the_svd_minimum(case)

    def test_singular_subsets_keep_the_svd_minimum(self):
        # Rows 1 and 2 are equal, so two of the four 3-row subsets are
        # singular and their SVD values are rounding noise near 1e-17.
        # Gram rounding is far above their squares, which is what the
        # slack in the Cholesky threshold covers: the first subset seeds
        # the minimum at the larger of the two, and the other must still
        # reach the SVD.
        a = np.array([
            [-0.4583752814182017, -1.3140853562711352, 0.6586976762683966],
            [-1.5353412369219648, 0.6136306992844481, 1.4943659536833518],
            [-1.5353412369219648, 0.6136306992844481, 1.4943659536833518],
            [0.9554258589047299, 0.5246310370122538, -2.5582694047689714],
        ])
        assert _min_over_subsets(DenseMatrix(a), 3) == svd_subset_min(a, 3)

    @pytest.mark.parametrize("m,g", [(1, 0), (5, 0), (5, 1), (6, 3), (9, 4), (12, 5)])
    def test_enumeration_is_every_subset_once(self, m, g):
        # Exact mode pairs each top (the g - h largest members) with the
        # colex run of h-subsets below its least member, for every low
        # size h from 0 (one subset per block) to g (the empty top).
        for h in range(g + 1):
            lows = _unrank(np.arange(math.comb(m, h)), _colex_table(m, h))
            rows = []
            for lo, hi, tops in _subset_blocks(m, g, h, 7):
                assert 0 <= lo < hi and (hi - lo) * len(tops) <= 7
                assert tops.shape[1] == g - h and np.all(np.diff(tops, axis=1) > 0)
                for top in tops:
                    for low in lows[lo:hi]:
                        assert not len(top) or not len(low) or low[-1] < top[0]
                        rows.append(tuple(np.r_[low, top]))
            assert len(rows) == math.comb(m, g)
            assert set(rows) == set(itertools.combinations(range(m), g))

    @pytest.mark.parametrize(
        "m,g,samples",
        [(10, 4, 1), (10, 4, 7), (10, 4, math.comb(10, 4) - 1), (80, 30, 50)],
    )
    def test_sampler_draws_distinct_sorted_subsets(self, m, g, samples):
        if m == 80:  # past 2**63 subsets: the random-key path
            assert math.comb(m, g) > 2**63
        rows = np.concatenate(list(_random_subsets(m, g, samples, 3, 4)))
        assert rows.shape == (samples, g)
        assert np.all(np.diff(rows, axis=1) > 0)
        assert rows.min() >= 0 and rows.max() < m
        assert len({tuple(r) for r in rows}) == samples
        again = np.concatenate(list(_random_subsets(m, g, samples, 3, 4)))
        np.testing.assert_array_equal(rows, again)

    @pytest.mark.parametrize("samples", [10, 40], ids=["kept_ranks", "left_out_ranks"])
    def test_rank_path_includes_every_subset_equally(self, samples):
        # C(8, 3) = 56: 10 samples draw the kept ranks, 40 (past half of
        # 56) draw the 16 left out.  Over 2000 seeds each subset is drawn
        # Binomial(2000, samples / 56) times; every count lies within 5
        # standard deviations of its mean, and the counts are not too
        # even either (a chi-square over 55 degrees of freedom).
        m, g, seeds = 8, 3, 2000
        rank = {c: r for r, c in enumerate(itertools.combinations(range(m), g))}
        counts = np.zeros(len(rank))
        for seed in range(seeds):
            rows = np.concatenate(list(_random_subsets(m, g, samples, seed, 3)))
            assert len({tuple(r) for r in rows}) == samples
            counts[[rank[tuple(r)] for r in rows]] += 1
        p = samples / len(rank)
        mean, sd = seeds * p, math.sqrt(seeds * p * (1 - p))
        assert np.all(np.abs(counts - mean) <= 5 * sd)
        chi2 = float(((counts - mean) ** 2).sum() / (mean * (1 - p)))
        assert 25 < chi2 < 95

    def test_key_path_rejects_repeated_keys(self, monkeypatch):
        m, g, samples = 80, 30, 50
        real = np.random.default_rng
        handed_out = []

        class RepeatingKeys:
            """Hands out every key row twice, and the first call's first row again first."""

            def __init__(self, seed):
                self.rng = real(seed)
                self.first = None

            def random(self, shape):
                count, width = shape
                keys = np.repeat(self.rng.random(((count + 1) // 2, width)), 2, axis=0)[:count]
                if self.first is None:
                    self.first = keys[0].copy()
                elif count > 1:
                    keys[0] = self.first
                handed_out.append(count)
                return keys

        monkeypatch.setattr(np.random, "default_rng", RepeatingKeys)
        rows = np.concatenate(list(_random_subsets(m, g, samples, 3, 4)))
        assert sum(handed_out) > samples
        assert rows.shape == (samples, g)
        assert np.all(np.diff(rows, axis=1) > 0)
        assert len({tuple(r) for r in rows}) == samples

    def test_key_path_survives_fingerprint_collisions(self, monkeypatch):
        # Rows 0 and 1 share a word, and the first two key rows draw one
        # subset holding row 0 and the same subset with row 1 in its
        # place: distinct subsets with one fingerprint.  The second costs
        # a draw and is not yielded.
        m, g, samples = 80, 30, 50
        real_rng, real_words = np.random.default_rng, linalg._fingerprint_words
        handed_out = []

        def shared_words(m):
            words = real_words(m)
            words[1] = words[0]
            return words

        class CollidingKeys:
            def __init__(self, seed):
                self.rng = real_rng(seed)

            def random(self, shape):
                keys = self.rng.random(shape)
                if not handed_out:
                    keys[0, :2] = 0.0, 1.0
                    keys[1] = keys[0]
                    keys[1, :2] = 1.0, 0.0
                handed_out.append(shape[0])
                return keys

        monkeypatch.setattr(linalg, "_fingerprint_words", shared_words)
        monkeypatch.setattr(np.random, "default_rng", CollidingKeys)
        rows = np.concatenate(list(_random_subsets(m, g, samples, 3, 4)))
        assert sum(handed_out) == samples + 1
        assert rows.shape == (samples, g)
        assert np.all(np.diff(rows, axis=1) > 0)
        assert len({tuple(r) for r in rows}) == samples
        assert rows[0, 0] == 0 and 1 not in rows[0]
        swapped = np.sort(np.r_[1, rows[0, 1:]])
        assert not (rows == swapped).all(axis=1).any()

    @pytest.mark.parametrize(
        "m,k,samples",
        [(10, 4, 1), (10, 4, 7), (10, 6, 209), (80, 50, 40)],
    )
    def test_sampled_counts_and_seeds(self, m, k, samples):
        dm = rand_matrix(np.random.default_rng(m + k), m, 2)
        first = sigma_q_min_sampled(dm, Fraction(k, m), samples, seed=5)
        assert first.mode == "sampled"
        assert first.subsets_examined == samples
        assert sigma_q_min_sampled(dm, Fraction(k, m), samples, seed=5) == first
        if m <= 12:
            assert first.value >= sigma_q_min_exact(dm, Fraction(k, m)).value


# sigma_q_min of the benchmark's certify bundles (``kqrk gen`` with scale
# 100 and noise 1) at the two levels ``kqrk bounds`` certifies, q - beta
# and q0 - beta, sampled with seeds 0 and 1 where the mode is sampled.
# Recorded with the engine that formed every Gram matrix by one GEMM
# against a 0/1 subset indicator, so they hold the prefix-sum engine to it.
# The dense bundle's q0 - beta level (7314 of C(22, 5) subsets) was
# re-recorded when the rank sampler stopped permuting all ranks, which
# changed its draw; each value equals the smallest SVD value over the
# drawn subsets, each subset's SVD taken on its own.
CERTIFY_BUNDLES = {
    "exact": (24, 4, Fraction(1, 24), Fraction(11, 12), Fraction(3, 4), None),
    "dense": (22, 4, Fraction(1, 22), Fraction(19, 22), Fraction(3, 11), 7314),
    "tall": (500, 20, Fraction(1, 50), Fraction(4, 5), Fraction(3, 5), 2000),
}
CERTIFY_VALUES = {
    ("exact", 1): (1.2760760404069722, 0.8188090351213454),
    ("exact", 2): (1.1474165528713878, 0.6427001435590979),
    ("exact", 11): (1.021286941828184, 0.6199278057380159),
    ("dense", 1): (0.9519759661794847, 0.003588789408692147),
    ("dense", 2): (0.9020782809923086, 0.008013912388130751),
    ("dense", 11): (0.7634350114643877, 0.015145910111624755),
    ("tall", 1): (3.326578491467384, 2.708398911816128),
    ("tall", 2): (3.3628979071154372, 2.66437927682794),
    ("tall", 11): (3.304417123051095, 2.647952277035607),
}


@pytest.mark.parametrize("bundle,seed", list(CERTIFY_VALUES))
def test_certify_bundle_values(bundle, seed):
    from kqrk.problems import GenSpec, generate

    m, n, beta, q, q0, samples = CERTIFY_BUNDLES[bundle]
    spec = GenSpec(m=m, n=n, beta=beta, corruption_scale=100.0, noise_stddev=1.0, seed=seed)
    a = generate(spec).system
    got = tuple(
        (sigma_q_min_exact(a, level) if samples is None
         else sigma_q_min_sampled(a, level, samples, i)).value
        for i, level in enumerate((q - beta, q0 - beta))
    )
    assert got == CERTIFY_VALUES[bundle, seed]


class TestSingularExtremes:
    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            dm = rand_matrix(rng, 10, 4, normalized=False)
            smax, smin = singular_extremes(dm)
            sv = orc.jacobi_singular_values(dm.data)
            assert math.isclose(smax, sv[0], rel_tol=1e-10)
            assert math.isclose(smin, sv[-1], rel_tol=1e-8, abs_tol=1e-12)
