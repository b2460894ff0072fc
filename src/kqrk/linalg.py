"""Dense row systems, multiset quantiles, and subset singular values.

Conventions used throughout the package:

* A quantile level ``q`` is an exact rational.  For a multiset of ``m``
  values, ``q*m`` must be an integer ``k``, and the q-quantile is the k-th
  smallest element counted with multiplicity.  There is no interpolation;
  an infeasible level is an error (callers that want rounding-to-feasible
  use :func:`snap_level`).  One rule, :func:`as_level`, turns any input
  into a level: a float is the decimal it prints as (0.8 is 4/5, exactly
  as the text "0.8" is), anything else is ``Fraction(v)``.

* ``sigma_q_min(A)`` is the minimum, over all row subsets of size ``q*m``,
  of the smallest singular value of the subset matrix (as an operator from
  R^n, so subsets with fewer rows than columns contribute 0).  The exact
  variant enumerates subsets; the sampled variant inspects a random subset
  of index sets and therefore can only overestimate.

* Both variants share one engine (``_min_over_subsets``) with two
  sources of subset Gram matrices and one screen.  Exact mode forms
  every subset's Gram matrix from prefix sums over row subsets in colex
  order, with no index set per subset.  Sampled mode draws distinct
  subsets by rank in the combinatorial number system (by random keys
  when C(m, k) >= 2**63), so its cost grows with the sample count only,
  and forms their Gram matrices by one BLAS product per chunk.  The
  screen rules subsets out in three stages.  A batched Cholesky
  threshold test first clears every subset whose Gram matrix is
  provably above the running minimum.  It is one pass over the whole
  stack with no checks along the way: a matrix whose pivot fails turns
  NaN or infinite on its own, never touching its neighbours, and the
  verdict rests on all of a matrix's pivots being positive, which is all
  the backward-error bound needs.  The rest are screened in batches
  by the smallest eigenvalue of their Gram matrices; and every subset
  that neither stage can rule out within a proven slack is re-solved by
  SVD.  The reported value is always an SVD value, the same one, bit for
  bit, as running SVD on every subset, so exact mode remains a
  certificate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "DenseMatrix",
    "MultisetQuantileSpec",
    "SigmaQMinResult",
    "ZeroRowError",
    "NonIntegerQuantileError",
    "SvdConvergenceError",
    "TooManySubsetsError",
    "ProductTableTooLargeError",
    "row_normalize",
    "row_norms",
    "all_finite",
    "as_level",
    "snap_level",
    "feasible_level",
    "quantile",
    "singular_extremes",
    "frobenius_sq",
    "sigma_q_min_exact",
    "sigma_q_min_sampled",
]

SUBSET_ENUMERATION_CAP = 2_000_000
UNIT_ROW_TOLERANCE = 1e-12
# Subset minima are computed in chunks of at most this many bytes of
# per-subset work arrays, whatever the subset count, and only one chunk's
# arrays are alive at a time.  Besides one chunk, the engine holds the
# m-by-n(n+1)/2 product table of its Gram matrices and, in exact mode,
# its sums over row subsets (at most half this budget) or, when
# sampling, at most one 8-byte rank or fingerprint per sample (see
# _min_over_subsets).
GATHER_BUDGET_BYTES = 1 << 20
# Both sigma_q_min variants refuse, before computing anything, a level
# whose product table (m by n(n+1)/2 float64) is above this many bytes:
# at m=5000, n=2500 the table alone would be 125 GB.
PRODUCT_TABLE_BUDGET_BYTES = 1 << 30
# Whole-matrix passes (row norms, finiteness, row scaling) walk the rows
# in blocks of at most this many bytes, so none holds an m-by-n temporary.
ROW_BLOCK_BYTES = 1 << 18
# kappa in the eigenvalue screen's slack tau = kappa (m + n) eps ||A||_F^2
# (derived in _min_over_subsets).
SCREEN_SLACK = 64
# kappa in the Cholesky test's slack tau_chol = kappa n (n + 1) eps ||A||_F^2
# (derived in _min_over_subsets).
CHOLESKY_SLACK = 16


class ZeroRowError(ValueError):
    """A row with zero Euclidean norm cannot be normalized."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} has zero norm and cannot be normalized")


class NonIntegerQuantileError(ValueError):
    """Raised when q*m is not an integer for the multiset at hand."""


class SvdConvergenceError(RuntimeError):
    """The dense SVD driver failed to converge."""


class TooManySubsetsError(ValueError):
    """Exact subset enumeration would exceed the configured cap."""


class ProductTableTooLargeError(ValueError):
    """The subset engine's product table would exceed PRODUCT_TABLE_BUDGET_BYTES."""


@dataclass(frozen=True)
class DenseMatrix:
    """An m-by-n dense matrix with float64 entries stored row-major.

    ``row_normalized`` asserts that every row has unit Euclidean norm to
    within ``UNIT_ROW_TOLERANCE``; the flag is validated on construction.
    The underlying array is marked read-only.
    """

    data: np.ndarray
    row_normalized: bool = False

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("matrix must have at least one row and one column")
        if not all_finite(arr):
            raise ValueError("matrix entries must be finite")
        if self.row_normalized:
            norms = row_norms(arr)
            bad = np.flatnonzero(np.abs(norms - 1.0) > UNIT_ROW_TOLERANCE)
            if bad.size:
                raise ValueError(
                    f"row {int(bad[0])} has norm {norms[bad[0]]!r}; "
                    "row_normalized requires unit rows"
                )
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


def _row_blocks(m: int, n: int):
    """Row slices covering 0..m, each at most ROW_BLOCK_BYTES (one row at least)."""
    step = max(1, ROW_BLOCK_BYTES // (8 * max(n, 1)))
    return (slice(i, min(i + step, m)) for i in range(0, m, step))


def row_norms(data: np.ndarray) -> np.ndarray:
    """Euclidean row norms, bit-identical to ``np.linalg.norm(data, axis=1)``."""
    if not data.flags.c_contiguous:
        # numpy's summation order follows the layout; keep its own call
        return np.linalg.norm(data, axis=1)
    norms = np.empty(data.shape[0])
    for rows in _row_blocks(*data.shape):
        blk = data[rows]
        np.sqrt(np.add.reduce(blk * blk, axis=1), out=norms[rows])
    return norms


def all_finite(data: np.ndarray) -> bool:
    """``np.isfinite(data).all()`` for a 2-D array, one row block at a time."""
    return all(bool(np.isfinite(data[rows]).all()) for rows in _row_blocks(*data.shape))


def _normalize_rows_into(data: np.ndarray, out: np.ndarray) -> tuple[DenseMatrix, np.ndarray]:
    """Write ``data / norms[:, None]`` into ``out`` (which may be ``data``)."""
    if data.ndim != 2:
        raise ValueError("expected a two-dimensional array")
    norms = row_norms(data)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroRowError(int(zero[0]))
    for rows in _row_blocks(*data.shape):
        np.divide(data[rows], norms[rows, None], out=out[rows])
    return DenseMatrix(out, row_normalized=True), norms


def row_normalize(a: DenseMatrix | np.ndarray) -> tuple[DenseMatrix, np.ndarray]:
    """Scale each row to unit norm; returns the scaled matrix and the norms.

    Multiplying row i of the result by ``norms[i]`` reconstructs the input
    exactly up to float rounding of the single division performed.  The
    input is left untouched; the result is a new matrix.
    """
    data = a.data if isinstance(a, DenseMatrix) else np.asarray(a, dtype=np.float64)
    return _normalize_rows_into(data, np.empty(data.shape))


def as_level(v: float | Fraction | int | str) -> Fraction:
    """A level as an exact rational.

    A float becomes ``Fraction(repr(v))``, the decimal it prints as, so
    0.8 is 4/5 just as the text "0.8" is, and 0.1 + 0.7 is
    0.7999999999999999.  Anything else becomes ``Fraction(v)``.
    """
    return Fraction(repr(float(v))) if isinstance(v, float) else Fraction(v)


def snap_level(q: float | Fraction, m: int) -> Fraction:
    """Nearest rational k/m to ``q`` with integer k clamped to [0, m]."""
    if m < 1:
        raise ValueError("m must be positive")
    k = round(as_level(q) * m)
    k = min(max(k, 0), m)
    return Fraction(k, m)


def feasible_level(
    q: float | Fraction | int,
    m: int,
    *,
    lowest: int = 0,
) -> Fraction:
    """Validate that ``q*m`` is an integer and return ``q`` as a Fraction.

    ``q`` is read by :func:`as_level` and checked exactly, so 0.8 is 4/5
    while 0.1 + 0.7 (0.7999999999999999) is not a level for any m; an
    infeasible level raises :class:`NonIntegerQuantileError` naming the
    nearest feasible one.  ``lowest`` is the smallest admissible count q*m.
    """
    if m < 1:
        raise ValueError("m must be positive")
    frac = as_level(q)
    if (frac * m).denominator != 1:
        raise NonIntegerQuantileError(
            f"q*m must be an integer; q = {q} gives q*m = {frac * m} "
            f"(nearest feasible q = {snap_level(frac, m)})"
        )
    k = int(frac * m)
    if k < lowest or k > m:
        raise NonIntegerQuantileError(
            f"q*m = {k} outside the admissible range [{lowest}, {m}]"
        )
    return Fraction(k, m)


@dataclass(frozen=True)
class MultisetQuantileSpec:
    """Quantile level for a multiset of a fixed size m, with q*m integral."""

    q: Fraction
    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", feasible_level(self.q, self.m, lowest=1))

    @property
    def count(self) -> int:
        """k = q*m, the rank of the order statistic selected."""
        return int(self.q * self.m)


def quantile(values, spec: MultisetQuantileSpec) -> float:
    """The (q*m)-th smallest element of the multiset, with multiplicity."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size != spec.m:
        raise ValueError(f"expected {spec.m} values, got {arr.size}")
    k = spec.count
    return float(np.partition(arr, k - 1)[k - 1])


def singular_extremes(a: DenseMatrix) -> tuple[float, float]:
    """Largest and smallest singular values of the matrix.

    The smallest value is the min(m, n)-th singular value; for a matrix
    with full column rank this is the operator lower bound
    inf_{|x|=1} |A x|.  Rank deficiency is not an error here; consumers
    that require full column rank check for it themselves.
    """
    try:
        svals = np.linalg.svd(a.data, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SvdConvergenceError(str(exc)) from exc
    return float(svals[0]), float(svals[-1])


def frobenius_sq(a: DenseMatrix) -> float:
    return float(np.sum(a.data * a.data))


@dataclass(frozen=True)
class SigmaQMinResult:
    """Result of a subset minimum-singular-value computation.

    ``mode`` is "exact" when every subset of the prescribed size was
    covered (by enumeration or an analytic shortcut) and "sampled" when
    only a random subset of index sets was inspected.  A sampled value is
    an upper bound only, which is what ``is_upper_bound_only`` records;
    the two fields are locked together.
    """

    value: float
    mode: str
    subsets_examined: int
    is_upper_bound_only: bool

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if (self.mode == "sampled") != self.is_upper_bound_only:
            raise ValueError("sampled mode and is_upper_bound_only must agree")


def _subset_min_singular(rows: np.ndarray) -> float:
    # Operator minimum over R^n: zero when the subset has fewer rows than
    # columns, else the smallest singular value of the submatrix.
    if rows.shape[0] < rows.shape[1]:
        return 0.0
    return float(np.linalg.svd(rows, compute_uv=False)[-1])


def _analytic_sigma_q_min(a: DenseMatrix, k: int) -> float | None:
    # Shortcuts that stay exact without touching any subset: if the subset
    # size cannot reach column rank, every subset gives 0; for a single
    # column the minimum is the root of the k smallest squared entries.
    if k < a.n:
        return 0.0
    if a.n == 1:
        sq = np.sort(a.data[:, 0] ** 2)
        return float(math.sqrt(math.fsum(sq[:k])))
    return None


def _subset_size(a: DenseMatrix, q: float | Fraction) -> tuple[int, SigmaQMinResult | None]:
    # k = q*m, plus the exact result when an analytic shortcut applies.
    # Without one the subset engine runs, so its product table is refused
    # here, before both sigma_q_min variants allocate anything.
    m, n = a.shape
    k = int(feasible_level(q, m, lowest=1) * m)
    shortcut = _analytic_sigma_q_min(a, k)
    if shortcut is not None:
        return k, SigmaQMinResult(shortcut, "exact", 0, False)
    size = 8 * m * (n * (n + 1) // 2)
    if size > PRODUCT_TABLE_BUDGET_BYTES:
        raise ProductTableTooLargeError(
            f"sigma_q_min at m = {m}, n = {n} needs a product table of {size:,} "
            f"bytes, above the budget of {PRODUCT_TABLE_BUDGET_BYTES:,} bytes"
        )
    return k, None


def _colex_table(m: int, g: int) -> np.ndarray:
    # table[j, c] = C(c, j) for j <= g and c < m, built by the hockey-stick
    # identity C(c, j) = sum_{t < c} C(t, j-1).  Every entry is at most
    # C(m, g) when 2g <= m, so int64 holds it whenever C(m, g) < 2**63.
    table = np.zeros((g + 1, m + 1), dtype=np.int64)
    table[0] = 1
    for j in range(1, g + 1):
        np.cumsum(table[j - 1, :-1], out=table[j, 1:])
    return table[:, :m]


def _unrank(ranks: np.ndarray, table: np.ndarray) -> np.ndarray:
    # Sorted g-subsets of range(m) with the given colex ranks, by the
    # combinatorial number system: rank = sum_j C(c_j, j) over the sorted
    # members c_1 < ... < c_g, so c_j is the largest c with C(c, j) <= the
    # rank still to account for.
    g = table.shape[0] - 1
    rest = np.array(ranks, dtype=np.int64)
    out = np.empty((rest.size, g), dtype=np.intp)
    for j in range(g, 0, -1):
        c = np.searchsorted(table[j], rest, side="right") - 1
        out[:, j - 1] = c
        rest -= table[j, c]
    return out


def _low_sums(products: np.ndarray, h: int) -> np.ndarray:
    """The product-table sums of every h-subset of rows, by colex rank.

    Column r of the result is the sum of the table columns of the h-subset
    of rank r.  Colex order is prefix-closed: the h-subsets whose largest
    member is t are the (h-1)-subsets of range(t) (the first C(t, h-1)
    ranks) with t added, at ranks C(t, h) onwards.  So each level is a
    prefix of the one below plus one table column, and level 1 is the
    table itself.
    """
    width, m = products.shape
    if h == 0:
        return np.zeros((width, 1))
    sums = products
    for j in range(2, h + 1):
        below, sums = sums, np.empty((width, math.comb(m, j)))
        for t in range(j - 1, m):
            start, count = math.comb(t, j), math.comb(t, j - 1)
            np.add(below[:, :count], products[:, t, None], out=sums[:, start:start + count])
    return sums


def _subset_blocks(m: int, g: int, h: int, chunk: int):
    """Every g-subset of range(m) exactly once, in blocks of at most ``chunk``.

    Yields ``(lo, hi, tops)``: the block is every L | T for L the h-subset
    of colex rank lo <= r < hi and T a row of ``tops``, a sorted
    (g - h)-subset.  A g-subset splits uniquely into its h least members
    L and the rest T; with t = min T, the L that go with T are the
    h-subsets of range(t), which are exactly the colex ranks below
    C(t, h).  So the tops are streamed by their least member t, the rest
    of T in colex order over range(t + 1, m), and each block pairs a run
    of tops with one run of ranks below C(t, h).  With h = g the only top
    is the empty set and the blocks run over all C(m, g) ranks.
    """
    if g == h:
        total = math.comb(m, h)
        for lo in range(0, total, chunk):
            yield lo, min(lo + chunk, total), np.empty((1, 0), dtype=np.intp)
        return
    table = _colex_table(m - h - 1, g - h - 1)
    for t in range(h, m - g + h + 1):
        lows = math.comb(t, h)
        uppers = math.comb(m - 1 - t, g - h - 1)
        step = min(lows, chunk)
        per = max(1, chunk // lows)
        for first in range(0, uppers, per):
            rest = _unrank(np.arange(first, min(first + per, uppers)), table) + (t + 1)
            tops = np.concatenate((np.full((len(rest), 1), t), rest), axis=1)
            for lo in range(0, lows, step):
                yield lo, min(lo + step, lows), tops


def _fingerprint_words(m: int) -> np.ndarray:
    # One fixed 64-bit word per row; a subset's fingerprint is the wrapping
    # sum of its rows' words.  Drawn from their own fixed seed sequence,
    # so the sampler's random keys are the same whatever the words are.
    return np.random.SeedSequence(0x6B71726B).generate_state(m, np.uint64)


def _distinct_draws(draw, samples: int, chunk: int):
    """Draws until ``samples`` have distinct prints, in draw order, in chunks.

    ``draw(size)`` returns ``size`` fresh draws and their int64 or uint64
    prints.  A draw is kept when its print was not seen before, in its
    own chunk or an earlier one; each chunk draws only as many as are
    still missing, so the kept draws are the first ``samples`` distinct
    ones of one stream.
    """
    # The kept prints, as sorted runs of falling length.  A new run
    # absorbs every run no longer than itself, so for chunks of one size
    # the runs count like a binary counter: O(log samples) runs, and each
    # print is merged O(log samples) times.
    runs: list[np.ndarray] = []
    drawn = 0
    while drawn < samples:
        items, prints = draw(min(chunk, samples - drawn))
        prints, first = np.unique(prints, return_index=True)
        for run in runs:
            new = np.searchsorted(run, prints, side="right") == np.searchsorted(run, prints)
            prints, first = prints[new], first[new]
        while runs and len(runs[-1]) <= len(prints):
            prints = np.sort(np.concatenate((runs.pop(), prints)), kind="stable")
        runs.append(prints)
        items = items[np.sort(first)]  # first draws of new prints, in draw order
        drawn += len(items)
        yield items
        del items  # not held while the next chunk is drawn


def _random_subsets(m: int, g: int, samples: int, seed: int, chunk: int):
    """``samples`` distinct uniform g-subsets of range(m), sorted, in chunks.

    Requires 2g <= m.  While C(m, g) < 2**63 a subset is a uniform rank,
    unranked by the combinatorial number system.  When 2 samples <= C(m, g)
    the kept ranks are drawn by ``_distinct_draws`` and yielded in chunks
    of ``chunk``; past that, it draws the C(m, g) - samples ranks left
    out, and every other rank is yielded in ascending order.  Either way
    a drawn rank repeats one kept before with probability at most 1/2, so
    the draws stay O(samples), and a round's draws fit
    GATHER_BUDGET_BYTES.  Past 2**63, each subset is the g smallest
    of m random keys, and a subset whose 64-bit fingerprint
    (``_fingerprint_words``) was seen before is rejected.  A repeat always
    has a seen fingerprint, so none gets through; a distinct subset that
    shares one only costs an extra draw.  Some repeat or shared
    fingerprint occurs with probability about samples**2 / 2**64, so
    rejections are rare.  Held across chunks: at most one 8-byte rank or
    fingerprint per sample; within one, the key chunk fits
    GATHER_BUDGET_BYTES.
    """
    rng = np.random.default_rng(seed)
    total = math.comb(m, g)
    if total < 2**63:
        table = _colex_table(m, g)

        def ranks(size):
            drawn = rng.integers(total, size=size)
            return drawn, drawn

        # A round draws at most GATHER_BUDGET_BYTES of ranks.
        left_out = 2 * samples > total
        drawn = np.concatenate(list(_distinct_draws(
            ranks, total - samples if left_out else samples, GATHER_BUDGET_BYTES // 8
        )))
        if not left_out:
            for lo in range(0, samples, chunk):
                yield _unrank(drawn[lo:lo + chunk], table)
            return
        drawn.sort()
        for lo in range(0, total, chunk):
            hi = min(lo + chunk, total)
            keep = np.ones(hi - lo, dtype=bool)
            keep[drawn[np.searchsorted(drawn, lo):np.searchsorted(drawn, hi)] - lo] = False
            yield _unrank(np.flatnonzero(keep) + lo, table)
        return
    chunk = max(1, min(chunk, GATHER_BUDGET_BYTES // (8 * m)))
    words = _fingerprint_words(m)

    def keys(size):
        idx = np.argpartition(rng.random((size, m)), g - 1, axis=1)
        idx = np.sort(idx[:, :g], axis=1)  # the g smallest keys of each row
        return idx, words[idx].sum(axis=1)

    yield from _distinct_draws(keys, samples, chunk)


def _cholesky_clears(gram: np.ndarray, c: float) -> np.ndarray:
    """Which matrices G in a stack of symmetric n-by-n ones provably exceed c I.

    The stack is left unchanged: the test runs on a copy of its lower
    triangles, packed as ``_cholesky_clears_into`` wants them.
    """
    rows, cols = np.triu_indices(gram.shape[1])
    return _cholesky_clears_into(gram[:, cols, rows].T.copy(), gram.shape[1], c)


def _cholesky_clears_into(packed: np.ndarray, n: int, c: float) -> np.ndarray:
    """``_cholesky_clears`` on a packed stack, overwriting it.

    Row e of ``packed`` holds entry e of every matrix in the stack, the
    entries of one triangle in ``np.triu_indices(n)`` order, so every
    step works on contiguous vectors as long as the stack.  One pass of a
    column Cholesky with square roots runs on G - c I for the whole stack
    at once, and the result is True for each matrix whose every pivot is
    > 0; a NaN pivot fails.  Step j divides the entries (j, i), i > j, by
    the root of pivot (j, j), giving r_i, and takes the rank-one product
    from the trailing triangle, which is every packed row past row j's:
    entry (i, k) loses r_i r_k.  That is two gathers of the column by the
    triangle's own indices, one product and one subtraction, whatever n
    is.  At n = 20 that is about a quarter of the numpy calls that one
    update per trailing row takes; at n = 4 it is as many calls, plus the
    gathers' copies.

    Step j writes only rows past (j, j), so each diagonal entry ends as
    the pivot that was used, and the verdict reads them all at the end.
    A matrix whose pivot is <= 0 or NaN gets a zero or NaN root, so its
    column and every later entry may turn NaN or infinite, but that
    pivot is never written again and the matrix fails.  Every operation
    is elementwise along the stack, so a failing matrix never changes
    its neighbours; the pass runs with floating-point warnings off.
    """
    # starts[i]: the packed row of entry (i, i), followed by (i, i+1..n-1)
    starts = [i * n - i * (i - 1) // 2 for i in range(n)]
    # np.triu_indices(n), at a third of its cost per call
    rows, cols = np.tri(n, dtype=bool).T.nonzero()
    with np.errstate(all="ignore"):
        packed[starts] -= c
        for j, start in enumerate(starts[:-1]):
            packed[start + 1:start + n - j] /= np.sqrt(packed[start])
            # column entry (j, i) sits at packed row start - j + i
            column, tail = packed[start - j:], starts[j + 1]
            update = column.take(rows[tail:], axis=0)
            update *= column.take(cols[tail:], axis=0)
            packed[tail:] -= update
    return (packed[starts] > 0).all(axis=0)


def _min_over_subsets(a: DenseMatrix, k: int, samples: int | None = None, seed: int = 0) -> float:
    """Minimum SVD sigma_min over k-row subsets: all of them, or ``samples`` drawn ones.

    Gram matrices.  Row (i, j) of the product table P, for i <= j, holds
    the products a_ri a_rj over the rows r, so the packed Gram matrix
    A_S^T A_S of a subset S is the sum of P's columns over S.  When
    2k > m a subset is named by the g = m - k rows it drops (else g = k
    and by the rows it keeps), and its Gram matrix is the full sum of P's
    columns less the sum over the dropped rows.

    * Exact mode forms no index sets.  Colex order is prefix-closed, so
      one pass (``_low_sums``) gives the sums over every h-subset of
      rows, and each g-subset splits into its h least rows and a top T
      of g - h rows, with the h-subsets that go with T exactly the colex
      ranks below C(min T, h) (``_subset_blocks``).  A block's Gram
      matrices are the sum over its tops (the full sum less it when
      dropping) plus (less) a run of low sums: one broadcast operation,
      and every g-subset is formed once.  h is the largest value, at
      most g, for which the low sums (8 C(m, h) n (n + 1) / 2 bytes) fit
      in half of GATHER_BUDGET_BYTES; at h = 1 they are P itself.  A
      chunk holds GATHER_BUDGET_BYTES / (8 (n (n + 1) / 2 + 2 n**2))
      subsets: their packed Gram matrices, n (n + 1) / 2 rows, and at
      most 2 n**2 rows of work arrays.  Those are the block's top sums
      (at most n (n + 1) / 2 rows) and the Cholesky test's temporaries,
      the largest of which are its two gathered copies of the
      n (n - 1) / 2-row trailing triangle at the first column:
      n (n + 1) / 2 + n (n - 1) <= 2 n**2.
    * Sampled subsets share no prefixes, so each chunk's Gram matrices
      come from one BLAS product P W, where column s of the m-by-N 0/1
      matrix W marks the rows of subset s (those it keeps when
      dropping), with N = GATHER_BUDGET_BYTES / (8 (m + 2 n**2)).  W
      and the product (m + n (n + 1) / 2 rows) are alive together; W is
      then dropped, and the product, the test's copy of it and the
      test's temporaries take n (n + 1) + n (n - 1) = 2 n**2 rows.

    The working set is P (8 m n (n + 1) / 2 bytes, built once), in exact
    mode the low sums (at most half the budget), one chunk's arrays
    (each chunk is released before the next is formed) and, in sampled
    mode, the sampler's at most one 8-byte rank or fingerprint per
    sample: it does not grow with the subset size, and grows with the
    sample count by at most 8 bytes a sample.

    Both sources feed one screen.  A batched Cholesky test
    (``_cholesky_clears_into``) against the running minimum b clears
    most of a chunk; the rest are screened by one batched ``eigvalsh``.
    A subset is re-solved by SVD unless one of the two shows it cannot
    attain the minimum, and the result is the minimum of those SVD
    values.  Before the first chunk, b is the SVD value of its first
    subset, so every chunk is tested against a value already found.

    Soundness of the screen.  Let G = A_S^T A_S, so lambda_min(G) =
    sigma_min(A_S)**2 (k >= n here), write F = ||A||_F**2 and u for the
    unit roundoff.  Forming G in floating point perturbs it by a matrix
    of 2-norm at most about (m + g + 2)u F: each entry is a sum of
    products rounded once, in any order (the BLAS picks it in sampled
    mode), of at most m terms, or in exact drop form the full sum of m
    products less a sum of g of them, each accurate to its term count
    times u F, and the difference rounded once.  As g <= m / 2 this is
    below (m + 2) eps F.  ``eigvalsh``
    is backward stable: its lambda_min is exact for G plus a further
    perturbation of norm p(n)u||G|| <= p(n)u F.  By Weyl's inequality the
    screened value mu therefore lies within the sum of those norms of
    sigma_min(A_S)**2.  The SVD's computed s is exact for A_S plus a
    perturbation of norm p'(k, n)u||A_S|| <= p'u sqrt(F), so again by
    Weyl |s - sigma_min(A_S)| <= p'u sqrt(F) and |s**2 - sigma_min**2|
    <= 2p'u F + O(u**2).  With p and p' modest multiples of n and k + n,
    every subset has

        |mu - s**2| <= tau = SCREEN_SLACK * (m + n) * eps * F,

    where eps = 2u and SCREEN_SLACK = 64 leaves a safety factor over the
    sum.  So a subset with mu > b**2 + tau, where b is an SVD value
    already found, has s > b and cannot be the minimum; and within a
    chunk the subset T with the smallest mu has s_T**2 <= mu_T + tau, so
    a subset with mu > mu_T + 2 tau has s > s_T.

    Soundness of the Cholesky test.  Let Gc be the computed Gram matrix
    and c = b**2 + tau + tau_chol, with

        tau_chol = CHOLESKY_SLACK * n * (n + 1) * eps * F.

    Here b <= ||A_S||_2 <= sqrt(F), so c and every entry of Gc are at
    most about F (the slacks are far below F for any m short of 10**12).
    Forming c takes three roundings, at most 3u c <= 3u F in all, and the
    test factors H, the computed Gc - c I, whose diagonal differs from the
    exact one by at most u |Gc_ii - c| <= 2u F.  If every pivot is
    positive, Demmel's backward-error result for Cholesky (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.5)
    gives R^T R = H + dH with R^T R positive definite (R has a positive
    diagonal) and ||dH||_2 <= n gamma_{n+1} ||H||_2 / (1 - n gamma_{n+1}),
    where gamma_j = j u / (1 - j u).  For n (n + 1) u <= 1/4 that factor
    is at most 2 n (n + 1) u, and ||H||_2 <= ||Gc||_2 + c <= 2F, so
    ||dH||_2 <= 2 n (n + 1) eps F.  By Weyl's inequality, twice,

        lambda_min(Gc) > b**2 + tau + tau_chol - (2 n (n + 1) + 3) eps F
                       >= b**2 + tau,

    since 2 n (n + 1) + 3 <= 4 n (n + 1) and CHOLESKY_SLACK = 16 leaves a
    safety factor.  The Gram-formation and SVD errors above are part of
    tau, so s**2 >= lambda_min(Gc) - tau > b**2: a cleared subset has
    s > b and cannot be the minimum.  The bound asks only that every
    computed pivot of the run be positive, so the test checks nothing
    while it runs: it reads the pivots once at the end, and a run that
    met a pivot <= 0 or NaN fails, whatever it computed after it.

    Every subset that passes all three cuts is re-solved, which always
    includes a subset attaining the minimum SVD value, so the result
    equals that of SVD on every subset, bit for bit, whatever the
    chunking or order.
    """
    data = a.data
    m, n = data.shape
    drop = 2 * k > m
    g = m - k if drop else k
    # products[(i, j), r] = a_ri a_rj for i <= j in triu order, filled one
    # row block of the triangle at a time so no m-by-n(n+1)/2 temporary
    # sits beside it.
    upper = np.triu_indices(n)
    width = len(upper[0])
    products = np.empty((width, m))
    for i, start in enumerate(np.flatnonzero(upper[0] == upper[1])):
        np.multiply(data[:, i], data[:, i:].T, out=products[start:start + n - i])
    entry = np.empty((n, n), dtype=np.intp)
    entry[upper] = entry.T[upper] = np.arange(width)
    fro = frobenius_sq(a)
    eps = np.finfo(np.float64).eps
    tau = SCREEN_SLACK * (m + n) * eps * fro
    tau_chol = CHOLESKY_SLACK * n * (n + 1) * eps * fro

    def svd_value(members: np.ndarray) -> float:
        return _subset_min_singular(data[np.delete(np.arange(m), members) if drop else members])

    def chunk_min(stack: np.ndarray, sums_of, members, best: float) -> float:
        # stack[:, s] is the packed Gram matrix of subset s, overwritten
        # by the test; sums_of(s) recomputes such columns, members(s)
        # gives the subset's rows.  A function, so the chunk's arrays are
        # freed when it returns.
        if math.isinf(best):
            best = svd_value(members(0))
        left = np.flatnonzero(~_cholesky_clears_into(stack, n, best * best + tau + tau_chol))
        if not left.size:
            return best
        low = np.linalg.eigvalsh(sums_of(left).T[:, entry])[:, 0]
        cut = min(best * best, float(low.min()) + tau) + tau
        for i in left[low <= cut]:
            best = min(best, svd_value(members(i)))
        return best

    best = math.inf
    if samples is not None:
        chunk = max(1, GATHER_BUDGET_BYTES // (8 * (m + 2 * n * n)))
        for idx in _random_subsets(m, g, samples, seed, chunk):
            if len(idx):
                weights = np.full((m, len(idx)), float(drop))
                weights[idx, np.arange(len(idx))[:, None]] = float(not drop)
                sums = products @ weights
                del weights
                best = chunk_min(sums.copy(), lambda s: sums[:, s], idx.__getitem__, best)
                del sums
            del idx  # freed before the next chunk is drawn
        return best
    chunk = max(1, GATHER_BUDGET_BYTES // (8 * (width + 2 * n * n)))
    # the largest h <= g whose low sums fit half the budget; at h = 1
    # they are the product table itself, which is held anyway
    h = min(g, 1)
    while h < g and 16 * width * math.comb(m, h + 1) <= GATHER_BUDGET_BYTES:
        h += 1
    lows = _low_sums(products, h)
    full = products.sum(axis=1)
    colex = _colex_table(m, h)
    op = np.subtract if drop else np.add

    def block_min(lo: int, hi: int, tops: np.ndarray, best: float) -> float:
        # The block's Gram matrices are its top sums (the full sum less
        # them when dropping) with a run of low sums added (subtracted).
        # Subset s pairs top s // l with low lo + s % l or, when the lows
        # are the shorter run, low lo + s // u with top s % u, so that
        # numpy's inner loop runs over the longer.
        top = np.zeros((width, len(tops)))
        for column in tops.T:
            top += products[:, column]
        if drop:
            np.subtract(full[:, None], top, out=top)
        u, l = top.shape[1], hi - lo
        low_major = l < u
        stack = np.empty((width, u * l))
        if low_major:
            op(top[:, None, :], lows[:, lo:hi, None], out=stack.reshape(width, l, u))
        else:
            op(top[:, :, None], lows[:, None, lo:hi], out=stack.reshape(width, u, l))

        def split(s):
            return (s % u, lo + s // u) if low_major else (s // l, lo + s % l)

        def sums_of(s: np.ndarray) -> np.ndarray:
            i, r = split(s)
            return op(top[:, i], lows[:, r])

        def members(s: int) -> np.ndarray:
            i, r = split(int(s))
            return np.concatenate((_unrank(np.array([r]), colex)[0], tops[i]))

        return chunk_min(stack, sums_of, members, best)

    for lo, hi, tops in _subset_blocks(m, g, h, chunk):
        best = block_min(lo, hi, tops, best)
    return best


def sigma_q_min_exact(a: DenseMatrix, q: float | Fraction) -> SigmaQMinResult:
    """Exact min over all size-(q*m) row subsets of the subset sigma_min.

    Without an analytic shortcut, raises :class:`ProductTableTooLargeError`
    when the product table is over budget, and then
    :class:`TooManySubsetsError` when C(m, q*m) exceeds
    SUBSET_ENUMERATION_CAP; both before any allocation.
    """
    k, shortcut = _subset_size(a, q)
    if shortcut is not None:
        return shortcut
    total = math.comb(a.m, k)
    if total > SUBSET_ENUMERATION_CAP:
        raise TooManySubsetsError(
            f"C({a.m}, {k}) = {total} subsets exceeds the cap of {SUBSET_ENUMERATION_CAP}"
        )
    return SigmaQMinResult(_min_over_subsets(a, k), "exact", total, False)


def sigma_q_min_sampled(
    a: DenseMatrix,
    q: float | Fraction,
    samples: int,
    seed: int,
) -> SigmaQMinResult:
    """Minimum of the subset sigma_min over ``samples`` distinct random subsets.

    Sampling covers a subset of all index sets, so the value can only
    overestimate the exact minimum.  When ``samples`` reaches the total
    subset count the computation enumerates everything and the result is
    exact.  Deterministic for a fixed seed.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    k, shortcut = _subset_size(a, q)
    if shortcut is not None:
        return shortcut
    total = math.comb(a.m, k)
    if samples >= total:
        return SigmaQMinResult(_min_over_subsets(a, k), "exact", total, False)
    best = _min_over_subsets(a, k, samples, seed)
    return SigmaQMinResult(best, "sampled", samples, True)
