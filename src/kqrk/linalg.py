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

* Both variants share one engine (``_min_over_subsets``), which rules
  subsets out in three stages.  A batched Cholesky threshold test first
  clears every subset whose Gram matrix is provably above the running
  minimum; the rest are screened in batches by the smallest eigenvalue
  of their Gram matrices; and every subset that neither stage can rule
  out within a proven slack is re-solved by SVD.  The reported value is
  always an SVD value, the same one, bit for bit, as running SVD on
  every subset, so exact mode remains a certificate.  Sampled mode
  draws distinct subsets by rank in the combinatorial number system (by
  random keys when C(m, k) >= 2**63), so its cost grows with the sample
  count only.
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
    "row_normalize",
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
# per-subset work arrays, whatever the subset count.
GATHER_BUDGET_BYTES = 1 << 20
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
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        if self.row_normalized:
            norms = np.linalg.norm(arr, axis=1)
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

    def row_sq_norms(self) -> np.ndarray:
        if self.row_normalized:
            return np.ones(self.m)
        return np.einsum("ij,ij->i", self.data, self.data)


def row_normalize(a: DenseMatrix | np.ndarray) -> tuple[DenseMatrix, np.ndarray]:
    """Scale each row to unit norm; returns the scaled matrix and the norms.

    Multiplying row i of the result by ``norms[i]`` reconstructs the input
    exactly up to float rounding of the single division performed.
    """
    data = a.data if isinstance(a, DenseMatrix) else np.asarray(a, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("expected a two-dimensional array")
    norms = np.linalg.norm(data, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroRowError(int(zero[0]))
    return DenseMatrix(data / norms[:, None], row_normalized=True), norms


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
        level = feasible_level(self.q, self.m, lowest=1)
        if not (0 < level <= 1):
            raise NonIntegerQuantileError(f"q = {level} outside (0, 1]")
        object.__setattr__(self, "q", level)

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
    k = int(feasible_level(q, a.m, lowest=1) * a.m)
    shortcut = _analytic_sigma_q_min(a, k)
    if shortcut is None:
        return k, None
    return k, SigmaQMinResult(shortcut, "exact", 0, False)


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


def _all_subsets(m: int, g: int, chunk: int):
    """Every g-subset of range(m), sorted, in colex order, ``chunk`` at a time."""
    table = _colex_table(m, g)
    total = math.comb(m, g)
    for lo in range(0, total, chunk):
        yield _unrank(np.arange(lo, min(lo + chunk, total)), table)


def _random_subsets(m: int, g: int, samples: int, seed: int, chunk: int):
    """``samples`` distinct uniform g-subsets of range(m), sorted, in chunks.

    Requires 2g <= m.  While C(m, g) < 2**63 the draw is ``samples``
    distinct ranks, unranked by the combinatorial number system, so the
    cost is O(samples) even when ``samples`` is close to C(m, g).  Past
    that, each subset is the g smallest of m random keys and a repeat is
    rejected; some repeat occurs with probability at most
    samples**2 / (2 C(m, g)) < samples**2 / 2**64, so rejections are rare
    and the cost stays O(samples).
    """
    rng = np.random.default_rng(seed)
    total = math.comb(m, g)
    if total < 2**63:
        table = _colex_table(m, g)
        ranks = rng.choice(total, size=samples, replace=False)
        for lo in range(0, samples, chunk):
            yield _unrank(ranks[lo:lo + chunk], table)
        return
    chunk = max(1, min(chunk, GATHER_BUDGET_BYTES // (8 * m)))
    seen: set[bytes] = set()
    while len(seen) < samples:
        keys = rng.random((min(chunk, samples - len(seen)), m))
        idx = np.sort(np.argpartition(keys, g - 1, axis=1)[:, :g], axis=1)
        del keys  # not held while the caller works on the chunk
        fresh = []
        for i, row in enumerate(idx):
            tag = row.tobytes()
            if tag not in seen:
                seen.add(tag)
                fresh.append(i)
        yield idx[fresh]


def _cholesky_clears(gram: np.ndarray, c: float) -> np.ndarray:
    """Which matrices G in a stack of symmetric n-by-n ones provably exceed c I.

    Runs a column Cholesky with square roots on G - c I for the whole
    stack at once, on one copy laid out entry by entry (so every step
    works on contiguous vectors as long as the stack), and returns True
    for each matrix whose every pivot is > 0; a NaN pivot fails.  A
    matrix that fails is frozen: its pivot is taken as infinite, so its
    column divides to zero and it no longer changes, and it never clears.
    A matrix is also frozen, before the division, when an entry below
    the pivot d has a square above d times its own diagonal: that
    diagonal would turn negative, so a later pivot would fail anyway.
    That check bounds every column entry of an unfrozen matrix by the
    root of the largest diagonal entry D of G - c I, so no entry moves by
    more than n D in all, and finite input raises no floating-point
    warning.
    """
    count, n, _ = gram.shape
    h = gram.transpose(1, 2, 0).copy()
    diagonal = h.reshape(n * n, count)[:: n + 1]
    diagonal -= c
    ok = np.ones(count, dtype=bool)
    for j in range(n):
        pivot = diagonal[j]
        below = h[j + 1:, j]
        ok &= pivot > 0
        ok &= (below * below <= pivot * diagonal[j + 1:]).all(axis=0)
        col = below / np.sqrt(np.where(ok, pivot, np.inf))
        h[j + 1:, j + 1:] -= col[:, None] * col[None]
    return ok


def _min_over_subsets(a: DenseMatrix, k: int, samples: int | None = None, seed: int = 0) -> float:
    """Minimum SVD sigma_min over k-row subsets: all of them, or ``samples`` drawn ones.

    Each chunk's Gram matrices A_S^T A_S come from one BLAS product P W:
    row (i, j) of P, for i <= j, holds the products a_ri a_rj over the
    rows r, and column s of the m-by-N 0/1 matrix W marks the rows of
    subset s, so every Gram entry is a dot product of length m.  A chunk
    holds N = GATHER_BUDGET_BYTES / (8 (m + 2 n**2)) subsets, so that W,
    the N Gram matrices and the Cholesky test's copy of them fit the
    budget together.  A batched Cholesky test (``_cholesky_clears``)
    against the running minimum b clears most of them; the rest are
    screened by one batched ``eigvalsh``.  A subset is re-solved by SVD
    unless one of the two shows it cannot attain the minimum, and the
    result is the minimum of those SVD values.  Before the first chunk,
    b is the SVD value of its first subset, so every chunk is tested
    against a value already found.

    Soundness of the screen.  Let G = A_S^T A_S, so lambda_min(G) =
    sigma_min(A_S)**2 (k >= n here), write F = ||A||_F**2 and u for the
    unit roundoff.  Forming G in floating point perturbs it by a matrix
    of 2-norm at most about (m + 1)u F (dot products of length m, in any
    order the BLAS picks, of products rounded once).  ``eigvalsh``
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
    s > b and cannot be the minimum.

    Every subset that passes all three cuts is re-solved, which always
    includes a subset attaining the minimum SVD value, so the result
    equals that of SVD on every subset, bit for bit, whatever the
    chunking or order.
    """
    data = a.data
    m, n = data.shape
    drop = 2 * k > m
    g = m - k if drop else k
    chunk = max(1, GATHER_BUDGET_BYTES // (8 * (m + 2 * n * n)))
    if samples is None:
        chunks = _all_subsets(m, g, chunk)
    else:
        chunks = _random_subsets(m, g, samples, seed, chunk)
    upper = np.triu_indices(n)
    products = (data[:, upper[0]] * data[:, upper[1]]).T
    entry = np.empty((n, n), dtype=np.intp)
    entry[upper] = entry.T[upper] = np.arange(len(upper[0]))
    fro = frobenius_sq(a)
    eps = np.finfo(np.float64).eps
    tau = SCREEN_SLACK * (m + n) * eps * fro
    tau_chol = CHOLESKY_SLACK * n * (n + 1) * eps * fro

    def svd_value(members: np.ndarray) -> float:
        return _subset_min_singular(data[np.delete(np.arange(m), members) if drop else members])

    best = math.inf
    for idx in chunks:
        if not len(idx):
            continue
        if math.isinf(best):
            best = svd_value(idx[0])
        weights = np.full((m, len(idx)), float(drop))
        weights[idx, np.arange(len(idx))[:, None]] = float(not drop)
        gram = (products @ weights)[entry].transpose(2, 0, 1)
        left = np.flatnonzero(~_cholesky_clears(gram, best * best + tau + tau_chol))
        if not left.size:
            continue
        low = np.linalg.eigvalsh(gram[left])[:, 0]
        cut = min(best * best, float(low.min()) + tau) + tau
        for i in left[low <= cut]:
            best = min(best, svd_value(idx[i]))
    return best


def sigma_q_min_exact(
    a: DenseMatrix,
    q: float | Fraction,
    *,
    cap: int = SUBSET_ENUMERATION_CAP,
) -> SigmaQMinResult:
    """Exact min over all size-(q*m) row subsets of the subset sigma_min.

    Raises :class:`TooManySubsetsError` when C(m, q*m) exceeds ``cap`` and
    no analytic shortcut applies.
    """
    k, shortcut = _subset_size(a, q)
    if shortcut is not None:
        return shortcut
    total = math.comb(a.m, k)
    if total > cap:
        raise TooManySubsetsError(
            f"C({a.m}, {k}) = {total} subsets exceeds the cap of {cap}"
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
