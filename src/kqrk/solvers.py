"""Row-action solvers: plain, quantile-screened, and double-screened.

All three methods iterate x <- x + ((b_i - <a_i, x>) / |a_i|^2) a_i, i.e.
they project the iterate onto the hyperplane of one selected row.  They
differ only in which rows are eligible each iteration:

* rk: every row, sampled with probability |a_i|^2 / |A|_F^2.
* qrk: rows whose residual magnitude sits at or below the q-quantile.
* dqrk: rows whose residual magnitude sits strictly above the q0-quantile
  band and at or below the q-quantile band.

Quantiles follow the exact multiset convention: with k = q*m, the
admissible set is the k lowest residuals counted with multiplicity, ties
at the cut resolved toward the lowest row index.  On systems without unit
rows the residual entries are scaled by 1 / |a_j|^2 before ranking, and
selection within the admissible set is weighted by |a_i|^2 (uniform for
unit rows).

``run`` is the one step kernel, with one residual policy per method.
rk never reads the residual: it draws every row up front, steps in O(n)
on r_i = b_i - <a_i, x>, and fills the residual norms afterwards by one
b - A X product per block of ``RK_BLOCK`` stored iterates.  qrk and dqrk
rank the full residual b - A x, one gemv per step into buffers made once
per run, or with ``residual_mode="incremental"`` update it by rows of
the Gram matrix A A^T, re-synced every ``resync_every`` steps.

Band selection on unit rows sorts a copy of the keys and returns the
row a stable argsort would put at the chosen rank, so ties go to the
lowest row index; other rows take a stable argsort, since the weighted
pick walks the band in that order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import DenseMatrix, feasible_level, singular_extremes
from .problems import CorruptedProblem, InvalidSpecError

__all__ = [
    "METHODS",
    "SolverConfig",
    "RunTrace",
    "HorizonEstimate",
    "EmptyAdmissibleSetError",
    "WindowTooLargeError",
    "InvalidRegimeError",
    "ResidualDriftError",
    "run",
    "horizon_estimate",
    "quantile_diagnostic",
]

METHODS = ("rk", "qrk", "dqrk")

# Safety factor on the drift bound derived in _drift_tolerance.
RESIDUAL_DRIFT_SLACK = 2
RK_BLOCK = 64
DEFAULT_HORIZON_WINDOW = 100


class EmptyAdmissibleSetError(ValueError):
    """The quantile band selects no rows."""


class WindowTooLargeError(ValueError):
    """A horizon window longer than the recorded trace."""


class InvalidRegimeError(ValueError):
    """Parameters outside the regime where a quantity is defined."""


class ResidualDriftError(RuntimeError):
    """The incremental residual drifted beyond tolerance from the exact one."""


@dataclass(frozen=True)
class SolverConfig:
    """Configuration for one solver run.

    ``q`` is required for qrk/dqrk and ``q0`` only for dqrk; both must
    give integer counts against the system size.  ``x0`` is "zero",
    "project_first" (project the start onto a randomly chosen row
    hyperplane, the dqrk default), or an explicit start vector.
    ``residual_mode`` "incremental" makes qrk/dqrk maintain the residual
    with rank-one updates against a cached Gram matrix, re-synced every
    ``resync_every`` steps and checked against full recomputation; rk
    never forms the residual, so the mode does not apply to it.
    ``stop_below`` ends the run early once the squared error against the
    known solution drops under the threshold (trace arrays shrink to the
    steps actually taken).
    """

    method: str
    q: Fraction | float | None = None
    q0: Fraction | float | None = None
    iterations: int = 10_000
    seed: int = 0
    x0: str | np.ndarray = "default"
    record_diagnostics: bool = False
    residual_mode: str = "full"
    resync_every: int = 1_000
    stop_below: float | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise InvalidSpecError(f"unknown method {self.method!r}")
        if self.iterations < 1:
            raise InvalidSpecError("iterations must be positive")
        if self.method in ("qrk", "dqrk") and self.q is None:
            raise InvalidSpecError(f"method {self.method!r} requires q")
        if self.method == "dqrk" and self.q0 is None:
            raise InvalidSpecError("method 'dqrk' requires q0")
        if self.method != "dqrk" and self.q0 is not None:
            raise InvalidSpecError("q0 is only meaningful for dqrk")
        if self.method == "rk" and self.q is not None:
            raise InvalidSpecError("q is only meaningful for qrk/dqrk")
        if self.residual_mode not in ("full", "incremental"):
            raise InvalidSpecError(f"unknown residual_mode {self.residual_mode!r}")
        if self.resync_every < 1:
            raise InvalidSpecError("resync_every must be positive")
        if self.stop_below is not None and not self.stop_below > 0:
            raise InvalidSpecError("stop_below must be positive when set")
        if isinstance(self.x0, str):
            if self.x0 not in ("default", "zero", "project_first"):
                raise InvalidSpecError(f"unknown x0 policy {self.x0!r}")
        else:
            object.__setattr__(
                self, "x0", np.asarray(self.x0, dtype=np.float64).copy()
            )


@dataclass(frozen=True)
class RunTrace:
    """Complete record of one run.

    All per-state arrays have length iterations + 1, index 0 being the
    initial state; ``chosen_indices`` has length iterations (the row used
    to move from state k to state k+1).  Quantile arrays are None for rk.
    ``sq_errors`` is None when the true solution is unknown.  Diagnostic
    bound arrays are present only when requested at run time.
    """

    method: str
    residual_norms: np.ndarray
    chosen_indices: np.ndarray
    admissible_sizes: np.ndarray
    final_x: np.ndarray
    sq_errors: np.ndarray | None = None
    quantiles_q0: np.ndarray | None = None
    quantiles_q: np.ndarray | None = None
    quantile_bound_sparse: np.ndarray | None = None
    quantile_bound_noisy: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        return len(self.chosen_indices)


@dataclass(frozen=True)
class HorizonEstimate:
    """Empirical squared-error plateau: max over the last `window` states."""

    value: float
    window: int


def _unpack(problem) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, CorruptedProblem | None, bool]:
    if isinstance(problem, CorruptedProblem):
        unpacked = (
            problem.system.data,
            problem.b,
            problem.x_star,
            problem,
            problem.system.row_normalized,
        )
    else:
        a, b = problem
        unit_rows = isinstance(a, DenseMatrix) and a.row_normalized
        a = a.data if isinstance(a, DenseMatrix) else np.asarray(a, dtype=np.float64)
        unpacked = (a, np.asarray(b, dtype=np.float64), None, None, unit_rows)
    a, b = unpacked[:2]
    if a.ndim != 2 or b.shape != (a.shape[0],):
        raise ValueError(f"A must be 2-D with one entry of b per row; got {a.shape} and {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("A and b must be finite")
    return unpacked


def _row_sq_norms(a: np.ndarray, unit_rows: bool) -> np.ndarray:
    if unit_rows:
        return np.ones(a.shape[0])
    return np.einsum("ij,ij->i", a, a)


def _pick_rows(row_sq: np.ndarray, unit_rows: bool, us) -> np.ndarray:
    """Rows drawn with probability |a_i|^2/|A|_F^2, one per uniform in ``us``.

    Unit rows take floor(u m); other rows invert the cumsum of |a_i|^2.
    """
    m = len(row_sq)
    us = np.asarray(us)
    if unit_rows:
        return np.minimum((us * m).astype(np.int64), m - 1)
    cum = np.cumsum(row_sq)
    return np.minimum(np.searchsorted(cum, us * cum[-1], side="right"), m - 1)


def _select_in_band(
    keys: np.ndarray, k_lo: int, k_hi: int, row_sq: np.ndarray, unit_rows: bool, u: float,
    s: np.ndarray | None = None, hits: np.ndarray | None = None,
) -> tuple[int, float, float]:
    """Pick a row from the rank band [k_lo, k_hi) of keys; return (i, Q0, Q).

    Q0 and Q are the k_lo-th and k_hi-th smallest keys (Q0 is unused when
    k_lo is 0).  The row is the one a stable argsort would put at the
    chosen rank, so ties go to the lowest row index.  ``s`` (float) and
    ``hits`` (bool), shaped like ``keys``, are optional work buffers.
    """
    if not unit_rows:
        order = np.argsort(keys, kind="stable")
        band = order[k_lo:k_hi]
        i = int(band[_pick_rows(row_sq[band], False, u)])
        return i, float(keys[order[k_lo - 1]]), float(keys[order[k_hi - 1]])
    if s is None:
        s, hits = np.empty_like(keys), np.empty(keys.shape, dtype=bool)
    np.copyto(s, keys)
    s.sort()
    pos = k_lo + min(int(u * (k_hi - k_lo)), k_hi - k_lo - 1)
    v = s[pos]
    if v == v and (pos == 0 or s[pos - 1] != v):
        # v opens its run of equal values in sorted order, so the stable
        # argsort puts the lowest row holding v at this rank.
        i = int(np.equal(keys, v, out=hits).argmax())
    else:
        # A stable argsort lists the rows holding v in index order from
        # rank searchsorted(s, v) on; NaN keys sort last and never equal v.
        ties = np.isnan(keys) if v != v else keys == v
        i = int(np.flatnonzero(ties)[pos - np.searchsorted(s, v)])
    return i, float(s[k_lo - 1]), float(s[k_hi - 1])


def _resolve_counts(method: str, q, q0, m: int) -> tuple[int, int, Fraction | None]:
    """(k_lo, k_hi, q as a level): the band of ranks [k_lo, k_hi) to pick from."""
    if method == "rk":
        return 0, m, None
    level_q = feasible_level(q, m, lowest=1)
    k_hi = int(level_q * m)
    if method == "qrk":
        return 0, k_hi, level_q
    k_lo = int(feasible_level(q0, m, lowest=1) * m)
    if not k_lo < k_hi:
        raise EmptyAdmissibleSetError(
            f"q0*m = {k_lo} must be smaller than q*m = {k_hi}"
        )
    return k_lo, k_hi, level_q


def _initial_x(
    config: SolverConfig, a: np.ndarray, b: np.ndarray, row_sq: np.ndarray,
    unit_rows: bool, init_rng: np.random.Generator,
) -> np.ndarray:
    n = a.shape[1]
    policy = config.x0
    if isinstance(policy, np.ndarray):
        if policy.shape != (n,):
            raise InvalidSpecError(f"x0 must have shape ({n},)")
        return policy.copy()
    if policy == "default":
        policy = "project_first" if config.method == "dqrk" else "zero"
    if policy == "zero":
        return np.zeros(n)
    # project_first: land on a randomly chosen row hyperplane so that
    # <x0, a_i> = b_i holds for some i.
    i = int(_pick_rows(row_sq, unit_rows, init_rng.random()))
    return (b[i] / row_sq[i]) * a[i]


def _drift_tolerance(steps: int, n: int, rho: float, b_inf: float, ax_peak: float) -> float:
    """Bound on the incremental residual's rounding drift over one window.

    Write u = eps/2 for the unit roundoff, S = ``steps`` since the last
    exact residual, rho = max|a_j| / min|a_i| (1 on unit rows), and
    ax_peak = max|a_j| times the window's largest ||x||_2.  A step on row
    i computes c = r_i / |a_i|^2 once, for x <- x + c a_i and for
    r_j <- r_j - c G_ij, where the computed Gram entry has
    |G_ij - a_i.a_j| <= n u |a_i| |a_j|.  Entry j of r errs from the
    exact update by at most (n + 1) u |c| |a_i| |a_j| + u |r_j|; rounding
    c a_i and x + c a_i, which b - A x sees through |a_j| and the update
    does not, adds u |c| |a_i| |a_j| + u |a_j| ||x||_2.  As |c| |a_i| |a_j|
    = |r_i| |a_j| / |a_i| <= rho ||r||_inf, a step adds at most
    (n + 3) u rho ||r||_inf + u ax_peak.  The exact b - A x that ends the
    window errs by (n + 1) u (|b_j| + |a_j| ||x||_2).  With ||r||_inf <=
    ||b||_inf + ax_peak, summing gives

        drift <= (S + 1) (n + 4) u rho (||b||_inf + ax_peak).

    The tolerance takes eps for u, and RESIDUAL_DRIFT_SLACK for second-order
    terms; a wrong Gram row or a lost update drifts by about ||r||_inf.
    """
    eps = np.finfo(np.float64).eps
    return RESIDUAL_DRIFT_SLACK * (steps + 1) * (n + 4) * eps * rho * (b_inf + ax_peak)


def run(problem, config: SolverConfig) -> RunTrace:
    """Run a solver for config.iterations steps and record a full trace.

    Deterministic for fixed (problem, config): randomness comes from two
    streams split off config.seed, one for initialization and one for row
    selection, with all selection uniforms drawn up front.  A and b must
    be finite, with one entry of b per row of A; otherwise ValueError.
    """
    a, b, x_star, corrupted, unit_rows = _unpack(problem)
    m, n = a.shape
    big_k = config.iterations
    row_sq = _row_sq_norms(a, unit_rows)
    k_lo, k_hi, level_q = _resolve_counts(config.method, config.q, config.q0, m)

    diag = None
    if config.record_diagnostics:
        if corrupted is None:
            raise InvalidSpecError("diagnostics require a CorruptedProblem")
        if config.method not in ("qrk", "dqrk"):
            raise InvalidSpecError("diagnostics require a quantile method")
        diag = _bound_terms(corrupted, level_q)

    init_ss, sel_ss = np.random.SeedSequence(config.seed).spawn(2)
    init_rng = np.random.default_rng(init_ss)
    uniforms = np.random.default_rng(sel_ss).random(big_k)

    x = _initial_x(config, a, b, row_sq, unit_rows, init_rng)

    track_err = x_star is not None
    stop_below = config.stop_below
    if stop_below is not None and not track_err:
        raise InvalidSpecError("stop_below needs a problem with a known solution")
    sq_errors = np.empty(big_k + 1) if track_err else None
    residual_sq = np.empty(big_k + 1)
    quants_hi = quants_lo = None
    step = np.empty(n)
    last = big_k

    if config.method == "rk":
        # The pick never reads the residual: draw every row now, step on
        # r_i = b_i - a_i.x alone, and get residual norms (and errors) from
        # the stored iterates, one GEMM per block.
        chosen = _pick_rows(row_sq, unit_rows, uniforms)
        block = min(RK_BLOCK, big_k + 1)
        xs, axs = np.empty((block, n)), np.empty((block, m))
        start = 0
        for k in range(big_k + 1):
            xs[k - start] = x
            if k == big_k or k - start == block - 1:
                ax = np.matmul(xs[: k - start + 1], a.T, out=axs[: k - start + 1])
                np.subtract(b, ax, out=ax)
                residual_sq[start : k + 1] = np.einsum("ij,ij->i", ax, ax)
                if track_err:
                    d = xs[: k - start + 1] - x_star
                    errs = sq_errors[start : k + 1]
                    errs[:] = np.einsum("ij,ij->i", d, d)
                    hit = np.flatnonzero(errs < stop_below) if stop_below else ()
                    if len(hit):
                        last = start + int(hit[0])
                        x = xs[hit[0]].copy()
                        break
                if k == big_k:
                    break
                start = k + 1
            i = chosen[k]
            row = a[i]
            np.multiply(row, (b[i] - row @ x) / row_sq[i], out=step)
            np.add(x, step, out=x)
    else:
        # Quantile methods rank the residual each step, in buffers made once.
        chosen = np.empty(big_k, dtype=np.int64)
        quants_hi = np.empty(big_k + 1)
        quants_lo = np.empty(big_k + 1) if config.method == "dqrk" else None
        r, keys, s, d = np.empty(m), np.empty(m), np.empty(m), np.empty(n)
        hits = np.empty(m, dtype=bool)
        np.subtract(b, np.matmul(a, x, out=r), out=r)
        incremental = config.residual_mode == "incremental"
        if incremental:
            gram = a @ a.T
            b_inf = float(np.max(np.abs(b)))
            a_max = math.sqrt(float(row_sq.max()))
            rho = a_max / math.sqrt(float(row_sq.min()))
            xsq_peak = float(x @ x)
        for k in range(big_k + 1):
            if k and not incremental:
                np.subtract(b, np.matmul(a, x, out=r), out=r)
            residual_sq[k] = r @ r
            if track_err:
                np.subtract(x, x_star, out=d)
                sq_errors[k] = d @ d
            done = k == big_k or (stop_below is not None and sq_errors[k] < stop_below)
            np.abs(r, out=keys)
            if not unit_rows:
                np.divide(keys, row_sq, out=keys)
            # The final state records its quantiles; its pick goes unused.
            i, quant_lo, quants_hi[k] = _select_in_band(
                keys, k_lo, k_hi, row_sq, unit_rows, 0.0 if done else uniforms[k], s, hits
            )
            if quants_lo is not None:
                quants_lo[k] = quant_lo
            if done:
                last = k
                break
            chosen[k] = i
            coeff = r[i] / row_sq[i]
            np.multiply(a[i], coeff, out=step)
            np.add(x, step, out=x)
            if incremental:
                np.multiply(gram[i], coeff, out=keys)  # keys is free until next step
                np.subtract(r, keys, out=r)
                xsq_peak = max(xsq_peak, float(x @ x))
                if (k + 1) % config.resync_every == 0:
                    exact = b - a @ x
                    drift = float(np.max(np.abs(r - exact)))
                    tol = _drift_tolerance(
                        config.resync_every, n, rho, b_inf, a_max * math.sqrt(xsq_peak)
                    )
                    if drift > tol:
                        msg = f"incremental residual drifted by {drift:.3e} (bound {tol:.3e})"
                        raise ResidualDriftError(msg)
                    r[:] = exact
                    xsq_peak = float(x @ x)

    states = slice(last + 1)
    bound_sparse = bound_noisy = None
    if diag is not None:
        sigma_max, denom, noise_term = diag
        bound_sparse = sigma_max * np.sqrt(sq_errors[states]) / (math.sqrt(m) * denom)
        bound_noisy = bound_sparse + noise_term

    return RunTrace(
        method=config.method,
        residual_norms=np.sqrt(residual_sq[states]),
        chosen_indices=chosen[:last],
        admissible_sizes=np.full(last + 1, k_hi - k_lo, dtype=np.int64),
        final_x=x,
        sq_errors=None if sq_errors is None else sq_errors[states],
        quantiles_q0=None if quants_lo is None else quants_lo[states],
        quantiles_q=None if quants_hi is None else quants_hi[states],
        quantile_bound_sparse=bound_sparse,
        quantile_bound_noisy=bound_noisy,
    )


def _bound_terms(
    problem: CorruptedProblem, level: Fraction, sigma_max: float | None = None
) -> tuple[float, float, float]:
    """(sigma_max, denominator, noise term) of the quantile ceilings at level q."""
    beta = problem.minimal_beta()
    if level >= 1 - beta:
        raise InvalidRegimeError(
            f"quantile bound needs q < 1 - beta; q = {level}, beta = {beta}"
        )
    if sigma_max is None:
        sigma_max, _ = singular_extremes(problem.system)
    denom = math.sqrt(float(1 - level - beta))
    eta_inf = float(np.max(np.abs(problem.eta))) if problem.eta.size else 0.0
    return sigma_max, denom, math.sqrt(float(1 - level)) * eta_inf / denom


def horizon_estimate(trace: RunTrace, window: int = DEFAULT_HORIZON_WINDOW) -> HorizonEstimate:
    """Max squared error over the last `window` recorded states."""
    if trace.sq_errors is None:
        raise ValueError("trace has no squared errors (unknown true solution)")
    if window < 1:
        raise ValueError("window must be positive")
    if window > len(trace.sq_errors):
        raise WindowTooLargeError(
            f"window {window} exceeds trace length {len(trace.sq_errors)}"
        )
    return HorizonEstimate(float(np.max(trace.sq_errors[-window:])), window)


def quantile_diagnostic(
    x_k: np.ndarray,
    problem: CorruptedProblem,
    q: Fraction | float,
    *,
    sigma_max: float | None = None,
) -> tuple[float, float, float]:
    """Observed residual quantile and its two theoretical ceilings.

    Returns (Q_observed, Q_bound_sparse, Q_bound_noisy).  The sparse
    ceiling applies when the noise component is zero; the noisy ceiling
    adds the noise allowance and applies in general.  Requires
    q < 1 - beta for the realized corruption level beta.
    """
    m = problem.m
    level = feasible_level(q, m, lowest=1)
    sigma_max, denom, noise_term = _bound_terms(problem, level, sigma_max)
    r = problem.b - problem.system.data @ x_k
    keys = np.abs(r)
    if not problem.system.row_normalized:
        keys = keys / _row_sq_norms(problem.system.data, False)
    k = int(level * m)
    q_obs = float(np.partition(keys, k - 1)[k - 1])
    err = float(np.linalg.norm(x_k - problem.x_star))
    bound_sparse = sigma_max * err / (math.sqrt(m) * denom)
    return q_obs, bound_sparse, bound_sparse + noise_term
