"""Row-action solvers: plain, quantile-screened, and double-screened.

The solvers take systems with unit rows only: a ``CorruptedProblem``, or
an (A, b) pair whose A is a ``DenseMatrix`` with ``row_normalized=True``
(``linalg.row_normalize`` makes one).  All three methods iterate
x <- x + (b_i - <a_i, x>) a_i, i.e. they project the iterate onto the
hyperplane of one selected row.  They differ only in which rows are
eligible each iteration:

* rk: every row, sampled uniformly (the |a_i|^2-weighted choice of
  Strohmer and Vershynin, on unit rows).
* qrk: rows whose residual magnitude sits at or below the q-quantile.
* dqrk: rows whose residual magnitude sits strictly above the q0-quantile
  band and at or below the q-quantile band.

Quantiles follow the exact multiset convention: with k = q*m, the
admissible set is the k lowest residuals counted with multiplicity, ties
at the cut resolved toward the lowest row index, and the row is drawn
uniformly from it.

There is one step loop, ``run_batch``, and ``run`` is a batch of one: it
steps runs of one problem, of any methods, in lockstep.  rk draws every
row up front and steps on the row dot r_i = b_i - <a_i, x>.  qrk and dqrk
rank the full residual, and ``_gram_pays`` picks from m, n and their
largest iteration count whether each forms b - A x every step, two or
more by one product A [x_1 ... x_B] while A is at most
``SHARED_PRODUCT_BYTES`` (the measured crossover against one gemv each,
so a batch's traces may differ from solo runs in last bits), or updates
it by rows of one shared Gram matrix A A^T, re-synced every
``RESYNC_EVERY`` steps.  Neither rule reads the host.  Every run stores
its iterates in blocks of ``STATE_BLOCK``; one pass over a block gives
their squared errors (and rk's residual norms, by one b - X A^T product),
and ``stop_below`` cuts the trace at the first stored state under it.

``horizon_estimate`` reads the squared-error plateau of a trace.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import DenseMatrix, feasible_level
from .problems import CorruptedProblem, InvalidSpecError

__all__ = [
    "METHODS",
    "SolverConfig",
    "RunTrace",
    "EmptyAdmissibleSetError",
    "WindowTooLargeError",
    "InvalidRegimeError",
    "ResidualDriftError",
    "run",
    "run_batch",
    "horizon_estimate",
]

METHODS = ("rk", "qrk", "dqrk")

# Safety factor on the drift bound derived in _drift_tolerance.
RESIDUAL_DRIFT_SLACK = 2
# Steps between exact resyncs of a residual kept by Gram rows.
RESYNC_EVERY = 1000
# Largest m-by-m Gram matrix, in bytes, that _gram_pays admits.
GRAM_BUDGET_BYTES = 2**30
# Iterates a run stores between passes that fill their squared errors.
STATE_BLOCK = 64
# Largest A, in bytes, for which two or more runs share one residual product
# per step.  A constant, not a host probe, so output bytes never follow the
# machine; README records the crossover it was set from.
SHARED_PRODUCT_BYTES = 2 * 2**20
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
    to move from state k to state k+1).  ``admissible_size`` is the number
    of rows each step picks from.  Quantile arrays are None for rk.
    ``sq_errors`` is None when the true solution is unknown, and
    ``residual_norms`` unless the run was asked for them.
    """

    method: str
    residual_norms: np.ndarray | None
    chosen_indices: np.ndarray
    admissible_size: int
    final_x: np.ndarray
    sq_errors: np.ndarray | None = None
    quantiles_q0: np.ndarray | None = None
    quantiles_q: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        return len(self.chosen_indices)


def _unpack(problem) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """A, b and the known solution (None for an (A, b) pair) of a system
    with unit rows; ValueError for any other A, or a b that is not finite
    or not one entry per row."""
    if isinstance(problem, CorruptedProblem):
        system, b, x_star = problem.system, problem.b, problem.x_star
    else:
        system, b = problem
        b, x_star = np.asarray(b, dtype=np.float64), None
    if not (isinstance(system, DenseMatrix) and system.row_normalized):
        raise ValueError(
            "A must be a DenseMatrix with row_normalized=True; linalg.row_normalize makes one"
        )
    a = system.data
    if b.shape != (a.shape[0],):
        raise ValueError(f"need one entry of b per row of A; got A {a.shape} and b {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError("b must be finite")
    return a, b, x_star


def _pick_rows(m: int, us) -> np.ndarray:
    """Rows drawn uniformly from range(m): floor(u m) for each uniform in ``us``."""
    return np.minimum((np.asarray(us) * m).astype(np.int64), m - 1)


def _select_in_band(
    keys: np.ndarray, k_lo: int, k_hi: int, u: float, s: np.ndarray, hits: np.ndarray
) -> tuple[int, float, float]:
    """Pick a row from the rank band [k_lo, k_hi) of keys; return (i, Q0, Q).

    Q0 and Q are the k_lo-th and k_hi-th smallest keys (Q0 is unused when
    k_lo is 0).  The row is the one a stable argsort would put at the
    chosen rank, so ties go to the lowest row index.  ``s`` holds ``keys``
    sorted, and ``hits`` is a bool work buffer shaped like ``keys``.
    """
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


def _resolve_counts(method: str, q, q0, m: int) -> tuple[int, int]:
    """(k_lo, k_hi): the band of ranks [k_lo, k_hi) to pick from."""
    if method == "rk":
        return 0, m
    k_hi = int(feasible_level(q, m, lowest=1) * m)
    if method == "qrk":
        return 0, k_hi
    k_lo = int(feasible_level(q0, m, lowest=1) * m)
    if not k_lo < k_hi:
        raise EmptyAdmissibleSetError(
            f"q0*m = {k_lo} must be smaller than q*m = {k_hi}"
        )
    return k_lo, k_hi


def _initial_x(
    config: SolverConfig, a: np.ndarray, b: np.ndarray, init_rng: np.random.Generator
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
    i = int(_pick_rows(a.shape[0], init_rng.random()))
    return b[i] * a[i]


def _gram_pays(m: int, n: int, iterations: int) -> bool:
    """Whether a batch of K = ``iterations`` steps on an m-by-n A keeps
    its residuals by rows of A A^T instead of forming b - A x every step.

    Flops: K matrix-vector products cost 2Kmn.  The Gram costs m^2 n once
    (a symmetric product), then O(m) a step and 2mn a resync, so it is
    repaid once K > m/2.  Memory: the Gram holds m/n times A's bytes, so
    it is admitted only while m <= 2n, where it at most doubles the
    resident matrix data, and while its 8 m^2 bytes fit GRAM_BUDGET_BYTES.
    """
    return 2 * iterations > m and m <= 2 * n and 8 * m * m <= GRAM_BUDGET_BYTES


def _drift_tolerance(steps: int, n: int, b_inf: float, x_peak: float) -> float:
    """Bound on the incremental residual's rounding drift over one window.

    Write u = eps/2 for the unit roundoff, S = ``steps`` since the last
    exact residual, and x_peak for the window's largest ||x||_2, which
    bounds |<a_j, x>| on unit rows.  A step on row i moves
    x <- x + r_i a_i and r_j <- r_j - r_i G_ij, where the computed Gram
    entry has |G_ij - a_i.a_j| <= n u.  Entry j of r errs from the exact
    update by at most (n + 1) u |r_i| + u |r_j|; rounding r_i a_i and
    x + r_i a_i, which b - A x sees through a_j and the update does not,
    adds u |r_i| + u ||x||_2.  So a step adds at most
    (n + 3) u ||r||_inf + u x_peak.  The exact b - A x that ends the
    window errs by (n + 1) u (|b_j| + ||x||_2).  With ||r||_inf <=
    ||b||_inf + x_peak, summing gives

        drift <= (S + 1) (n + 4) u (||b||_inf + x_peak).

    The tolerance takes eps for u, and RESIDUAL_DRIFT_SLACK for second-order
    terms; a wrong Gram row or a lost update drifts by about ||r||_inf.
    """
    eps = np.finfo(np.float64).eps
    return RESIDUAL_DRIFT_SLACK * (steps + 1) * (n + 4) * eps * (b_inf + x_peak)


class _Run:
    """One run's settings, random streams, stored states and trace arrays.
    Two streams split off config.seed, one to initialize and one to select
    rows, whose uniforms, one a state, are all drawn up front (rk draws its
    rows from them at once)."""

    def __init__(self, config, a, b, x_star, residual_norms):
        big_k, self.quantile = config.iterations, config.method != "rk"
        self.method, self.iterations, self.stop_below = config.method, big_k, config.stop_below
        self.k_lo, self.k_hi = _resolve_counts(config.method, config.q, config.q0, a.shape[0])
        init_ss, sel_ss = np.random.SeedSequence(config.seed).spawn(2)
        self.uniforms = np.random.default_rng(sel_ss).random(big_k + 1)
        self.x = _initial_x(config, a, b, np.random.default_rng(init_ss))
        if config.stop_below is not None and x_star is None:
            raise InvalidSpecError("stop_below needs a problem with a known solution")
        self.xsq_peak = float(self.x @ self.x)
        self.last, self.r = big_k, None  # r: the residual a qrk/dqrk run ranks
        self.states = np.empty((min(STATE_BLOCK, big_k + 1), a.shape[1]))
        self.chosen = _pick_rows(a.shape[0], self.uniforms)  # qrk/dqrk overwrite it
        self.sq_errors = None if x_star is None else np.empty(big_k + 1)
        self.residual_sq = np.empty(big_k + 1) if residual_norms else None
        self.quants_hi = np.empty(big_k + 1) if self.quantile else None
        self.quants_lo = np.empty(big_k + 1) if config.method == "dqrk" else None

    def close_block(self, k: int, a, b, x_star) -> None:
        """Fill the squared errors, and rk's residual norms, of the states
        stored since the last block end, up to state k; the run ends at the
        first of them under stop_below."""
        start = k - k % STATE_BLOCK
        stored = self.states[: k - start + 1]
        if self.residual_sq is not None and not self.quantile:
            res = b - stored @ a.T
            self.residual_sq[start : k + 1] = np.vecdot(res, res)
        if x_star is not None:
            d = stored - x_star
            errs = self.sq_errors[start : k + 1]
            errs[:] = np.vecdot(d, d)
            hit = np.flatnonzero(errs < self.stop_below) if self.stop_below else ()
            if len(hit):
                self.last = start + int(hit[0])

    def trace(self) -> RunTrace:
        def states(v):
            return None if v is None else v[: self.last + 1]

        return RunTrace(
            method=self.method,
            residual_norms=None if self.residual_sq is None else np.sqrt(states(self.residual_sq)),
            chosen_indices=self.chosen[: self.last],
            admissible_size=self.k_hi - self.k_lo,
            final_x=self.states[self.last % STATE_BLOCK].copy(),
            sq_errors=states(self.sq_errors),
            quantiles_q0=states(self.quants_lo),
            quantiles_q=states(self.quants_hi),
        )


def run(problem, config: SolverConfig, *, residual_norms: bool = False) -> RunTrace:
    """Run a solver for config.iterations steps and record a full trace.

    Deterministic for fixed (problem, config).  A must have unit rows (see
    the module docstring) and b must be finite, with one entry per row of
    A; otherwise ValueError.  The trace's residual norms are recorded only
    with ``residual_norms=True``.  The run is a batch of one (``run_batch``).
    """
    return run_batch(problem, [config], residual_norms=residual_norms)[0]


def run_batch(problem, configs, *, residual_norms: bool = False) -> list[RunTrace]:
    """Run configs of any methods on one problem in lockstep; one trace each.

    Each run keeps its own iterations, stop_below, start and seed, and
    leaves the batch when it ends.  A trace is bitwise its solo run's
    unless the shared product (module docstring) forms its residuals,
    which moves its floats by about 1e-15 relative.
    """
    a, b, x_star = _unpack(problem)
    m, n = a.shape
    runs = [_Run(c, a, b, x_star, residual_norms) for c in configs]
    # Only a run that ranks its residual can use the Gram.
    longest = max((t.iterations for t in runs if t.quantile), default=0)
    gram = a @ a.T if longest and _gram_pays(m, n, longest) else None
    b_inf = float(np.max(np.abs(b)))
    live, k, step, xs = runs, 0, np.empty(n), ()
    while live:
        band = [t for t in live if t.quantile]
        if k == 0 or len(band) < len(xs):
            # The qrk/dqrk runs' iterates and residuals are rows of one array
            # each, so that one abs and one sort serve them all.
            xs = np.array([t.x for t in band])
            rs = np.array([t.r for t in band]) if k else np.empty((len(band), m))
            keys, srt, hits = np.empty_like(rs), np.empty_like(rs), np.empty(rs.shape, dtype=bool)
            for t, *rows in zip(band, xs, rs, keys, srt, hits):
                t.x, t.r, t.key, t.srt, t.hit = rows
        if band:
            if gram is None and len(xs) > 1 and a.nbytes <= SHARED_PRODUCT_BYTES:
                # One product through a C-ordered copy of xs^T (module docstring).
                np.subtract(b, np.matmul(a, np.ascontiguousarray(xs.T)).T, out=rs)
            elif gram is None or k == 0:
                # One gemv a run.  Gram updates carry a residual's rounding to
                # the next resync, so the Gram path forms it as a solo run does.
                for x, r in zip(xs, rs):
                    np.subtract(b, np.matmul(a, x, out=r), out=r)
            np.abs(rs, out=keys)
            np.copyto(srt, keys)
            srt.sort(axis=1)
        for t in live:
            x, r = t.x, t.r
            t.states[k % STATE_BLOCK] = x
            if t.quantile:
                # The last state records its quantiles; its pick goes unused.
                t.chosen[k], quant_lo, t.quants_hi[k] = _select_in_band(
                    t.key, t.k_lo, t.k_hi, t.uniforms[k], t.srt, t.hit
                )
                if t.quants_lo is not None:
                    t.quants_lo[k] = quant_lo
                if residual_norms:
                    t.residual_sq[k] = r @ r
            if k == t.iterations or k % STATE_BLOCK == STATE_BLOCK - 1:
                t.close_block(k, a, b, x_star)
                if t.last <= k:
                    continue
            i = t.chosen[k]
            r_i = r[i] if t.quantile else b[i] - a[i] @ x
            np.multiply(a[i], r_i, out=step)
            np.add(x, step, out=x)
            if gram is not None and t.quantile:
                np.multiply(gram[i], r_i, out=t.key)  # key is free until next step
                np.subtract(r, t.key, out=r)
                t.xsq_peak = max(t.xsq_peak, float(x @ x))
                if (k + 1) % RESYNC_EVERY == 0:
                    exact = b - a @ x
                    drift = float(np.max(np.abs(r - exact)))
                    tol = _drift_tolerance(RESYNC_EVERY, n, b_inf, math.sqrt(t.xsq_peak))
                    if drift > tol:
                        msg = f"incremental residual drifted by {drift:.3e} (bound {tol:.3e})"
                        raise ResidualDriftError(msg)
                    r[:] = exact
                    t.xsq_peak = float(x @ x)
        live = [t for t in live if t.last > k]
        k += 1
    return [t.trace() for t in runs]


def horizon_estimate(trace: RunTrace, window: int = DEFAULT_HORIZON_WINDOW) -> float:
    """Max squared error over the last `window` recorded states."""
    if trace.sq_errors is None:
        raise ValueError("trace has no squared errors (unknown true solution)")
    if window < 1:
        raise ValueError("window must be positive")
    if window > len(trace.sq_errors):
        raise WindowTooLargeError(
            f"window {window} exceeds trace length {len(trace.sq_errors)}"
        )
    return float(np.max(trace.sq_errors[-window:]))
