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

One helper selects from the band for ``run`` and both step functions.  On
unit rows it sorts the key values, reads the two cuts and the value v at
the chosen rank from the sorted copy, and returns the row holding v whose
place among the rows equal to v matches that rank: the row a stable
argsort would put there, so ties still go to the lowest row index.  Other
rows take a stable argsort, since the weighted pick walks the band in
that order.
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
    "project_onto_row",
    "rk_step",
    "qrk_step",
    "dqrk_step",
    "run",
    "horizon_estimate",
    "quantile_diagnostic",
]

METHODS = ("rk", "qrk", "dqrk")

RESIDUAL_DRIFT_TOLERANCE = 1e-9
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
    ``residual_mode`` "incremental" maintains the residual with rank-one
    updates against a cached Gram matrix, re-synced every
    ``resync_every`` steps and checked against full recomputation.
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
        return (
            problem.system.data,
            problem.b,
            problem.x_star,
            problem,
            problem.system.row_normalized,
        )
    a, b = problem
    if isinstance(a, DenseMatrix):
        return a.data, np.asarray(b, dtype=np.float64), None, None, a.row_normalized
    a = np.asarray(a, dtype=np.float64)
    return a, np.asarray(b, dtype=np.float64), None, None, False


def _row_sq_norms(a: np.ndarray, unit_rows: bool) -> np.ndarray:
    if unit_rows:
        return np.ones(a.shape[0])
    return np.einsum("ij,ij->i", a, a)


def project_onto_row(
    a: DenseMatrix | np.ndarray, b: np.ndarray, x: np.ndarray, i: int
) -> np.ndarray:
    """Orthogonal projection of x onto the solution set of row i."""
    data = a.data if isinstance(a, DenseMatrix) else np.asarray(a, dtype=np.float64)
    row = data[i]
    return x + ((b[i] - row @ x) / (row @ row)) * row


def _weighted_pick(indices: np.ndarray, weights: np.ndarray, u: float) -> int:
    # Cumulative-sum inversion; deterministic in u.
    cum = np.cumsum(weights)
    j = int(np.searchsorted(cum, u * cum[-1], side="right"))
    return int(indices[min(j, len(indices) - 1)])


def _pick_global(row_sq: np.ndarray, unit_rows: bool, u: float) -> int:
    m = len(row_sq)
    if unit_rows:
        return min(int(u * m), m - 1)
    return _weighted_pick(np.arange(m), row_sq, u)


def _select_in_band(
    keys: np.ndarray, k_lo: int, k_hi: int, row_sq: np.ndarray, unit_rows: bool, u: float
) -> tuple[int, float, float]:
    """Pick a row from the rank band [k_lo, k_hi) of keys; return (i, Q0, Q).

    Q0 and Q are the k_lo-th and k_hi-th smallest keys (Q0 is unused when
    k_lo is 0).  The row is the one a stable argsort would put at the
    chosen rank, so ties go to the lowest row index.
    """
    if unit_rows:
        s = np.sort(keys)
        pos = k_lo + min(int(u * (k_hi - k_lo)), k_hi - k_lo - 1)
        v = s[pos]
        # A stable argsort lists the rows holding v in index order from
        # rank searchsorted(s, v) on; NaN keys sort last and never equal v.
        ties = np.isnan(keys) if v != v else keys == v
        i = int(np.flatnonzero(ties)[pos - np.searchsorted(s, v)])
        return i, float(s[k_lo - 1]), float(s[k_hi - 1])
    order = np.argsort(keys, kind="stable")
    band = order[k_lo:k_hi]
    i = _weighted_pick(band, row_sq[band], u)
    return i, float(keys[order[k_lo - 1]]), float(keys[order[k_hi - 1]])


def _resolve_counts(
    method: str, q, q0, m: int
) -> tuple[int, int, Fraction | None, Fraction | None]:
    if method == "rk":
        return 0, m, None, None
    level_q = feasible_level(q, m, lowest=1)
    k_hi = int(level_q * m)
    if method == "qrk":
        return 0, k_hi, None, level_q
    level_q0 = feasible_level(q0, m, lowest=1)
    k_lo = int(level_q0 * m)
    if not k_lo < k_hi:
        raise EmptyAdmissibleSetError(
            f"q0*m = {k_lo} must be smaller than q*m = {k_hi}"
        )
    return k_lo, k_hi, level_q0, level_q


def rk_step(
    a: DenseMatrix, b: np.ndarray, x: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One projection onto a row sampled with probability |a_i|^2/|A|_F^2.

    Consumes exactly one uniform draw from ``rng``.
    """
    row_sq = _row_sq_norms(a.data, a.row_normalized)
    i = _pick_global(row_sq, a.row_normalized, rng.random())
    return x + ((b[i] - a.data[i] @ x) / row_sq[i]) * a.data[i]


def _band_step(
    a: DenseMatrix, b: np.ndarray, x: np.ndarray, k_lo: int, k_hi: int, u: float
) -> tuple[np.ndarray, float, float]:
    row_sq = _row_sq_norms(a.data, a.row_normalized)
    r = b - a.data @ x
    keys = np.abs(r) if a.row_normalized else np.abs(r) / row_sq
    i, quant_lo, quant_hi = _select_in_band(keys, k_lo, k_hi, row_sq, a.row_normalized, u)
    return x + (r[i] / row_sq[i]) * a.data[i], quant_lo, quant_hi


def qrk_step(
    a: DenseMatrix,
    b: np.ndarray,
    x: np.ndarray,
    q: Fraction | float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float, int]:
    """One quantile-screened projection; returns (x_next, Q, band size).

    Consumes exactly one uniform draw from ``rng``.
    """
    _, k_hi, _, _ = _resolve_counts("qrk", q, None, a.m)
    x_next, _, quant = _band_step(a, b, x, 0, k_hi, rng.random())
    return x_next, quant, k_hi


def dqrk_step(
    a: DenseMatrix,
    b: np.ndarray,
    x: np.ndarray,
    q0: Fraction | float,
    q: Fraction | float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float, float, int]:
    """One double-screened projection; returns (x_next, Q0, Q, band size).

    The admissible band is the multiset difference of the two lower sets,
    so it holds exactly (q - q0) * m rows.  Consumes one uniform draw.
    """
    k_lo, k_hi, _, _ = _resolve_counts("dqrk", q, q0, a.m)
    x_next, quant_lo, quant_hi = _band_step(a, b, x, k_lo, k_hi, rng.random())
    return x_next, quant_lo, quant_hi, k_hi - k_lo


def _initial_x(
    config: SolverConfig,
    a: np.ndarray,
    b: np.ndarray,
    row_sq: np.ndarray,
    unit_rows: bool,
    init_rng: np.random.Generator,
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
    i = _pick_global(row_sq, unit_rows, init_rng.random())
    x = np.zeros(n)
    return x + ((b[i] - a[i] @ x) / row_sq[i]) * a[i]


def run(problem, config: SolverConfig) -> RunTrace:
    """Run a solver for config.iterations steps and record a full trace.

    Deterministic for fixed (problem, config): randomness comes from two
    streams split off config.seed, one for initialization and one for row
    selection, with all selection uniforms drawn up front.
    """
    a, b, x_star, corrupted, unit_rows = _unpack(problem)
    m, n = a.shape
    big_k = config.iterations
    row_sq = _row_sq_norms(a, unit_rows)
    k_lo, k_hi, level_q0, level_q = _resolve_counts(config.method, config.q, config.q0, m)

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
    sq_errors = np.empty(big_k + 1) if track_err else None
    residual_sq = np.empty(big_k + 1)
    chosen = np.empty(big_k, dtype=np.int64)
    quantile_like = config.method in ("qrk", "dqrk")
    quants_hi = np.empty(big_k + 1) if quantile_like else None
    quants_lo = np.empty(big_k + 1) if config.method == "dqrk" else None
    adm = np.full(big_k + 1, (k_hi - k_lo) if quantile_like else m, dtype=np.int64)

    if config.stop_below is not None and not track_err:
        raise InvalidSpecError("stop_below needs a problem with a known solution")

    incremental = config.residual_mode == "incremental"
    gram = a @ a.T if incremental else None
    r = b - a @ x

    last = big_k
    for k in range(big_k + 1):
        residual_sq[k] = r @ r
        if track_err:
            d = x - x_star
            sq_errors[k] = d @ d
        done = k == big_k or (
            config.stop_below is not None and sq_errors[k] < config.stop_below
        )
        # The final state records its quantiles; its pick goes unused.
        u = 0.0 if done else uniforms[k]
        if quantile_like:
            keys = np.abs(r) if unit_rows else np.abs(r) / row_sq
            i, quant_lo, quants_hi[k] = _select_in_band(
                keys, k_lo, k_hi, row_sq, unit_rows, u
            )
            if quants_lo is not None:
                quants_lo[k] = quant_lo
        else:
            i = _pick_global(row_sq, unit_rows, u)
        if done:
            last = k
            break
        chosen[k] = i
        coeff = r[i] / row_sq[i]
        x = x + coeff * a[i]
        if incremental:
            r = r - coeff * gram[i]
            if (k + 1) % config.resync_every == 0:
                exact = b - a @ x
                drift = float(np.max(np.abs(r - exact)))
                if drift > RESIDUAL_DRIFT_TOLERANCE:
                    raise ResidualDriftError(
                        f"incremental residual drifted by {drift:.3e}"
                    )
                r = exact
        else:
            r = b - a @ x

    if last < big_k:
        residual_sq = residual_sq[: last + 1]
        chosen = chosen[:last]
        adm = adm[: last + 1]
        if sq_errors is not None:
            sq_errors = sq_errors[: last + 1]
        if quants_hi is not None:
            quants_hi = quants_hi[: last + 1]
        if quants_lo is not None:
            quants_lo = quants_lo[: last + 1]

    bound_sparse = bound_noisy = None
    if diag is not None:
        sigma_max, denom, noise_term = diag
        bound_sparse = sigma_max * np.sqrt(sq_errors) / (math.sqrt(m) * denom)
        bound_noisy = bound_sparse + noise_term

    return RunTrace(
        method=config.method,
        residual_norms=np.sqrt(residual_sq),
        chosen_indices=chosen,
        admissible_sizes=adm,
        final_x=x,
        sq_errors=sq_errors,
        quantiles_q0=quants_lo,
        quantiles_q=quants_hi,
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
