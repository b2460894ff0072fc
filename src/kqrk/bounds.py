"""Certificates for the solvers: decay constants, conditions, horizons.

Every record evaluates one theoretical guarantee for a concrete
(A, beta, q, q0).  The records are the rows of one ordered table,
``_TABLE``: each row gives the record's kind (the rk, qrk or dqrk params
it takes), the subset minima and inputs it reads, and its evaluator.
``certificate(name, summary, params, ...)`` checks one row's minima,
inputs and kind, then evaluates it; ``build_report`` walks the table in
record order.  The sparsity level ``beta`` is an input assumption,
deliberately decoupled from any particular corruption vector; use
``CorruptedProblem.minimal_beta()`` to infer the smallest feasible level
for a realized instance.

Each constant is computed twice, independently: once from the compact
parametrization (p, r, and the inverse condition numbers) and once from
the raw definition in terms of beta, q, q0 and the singular values.  The
two must agree to 1e-12 relative to the natural term scale of the
expression; disagreement raises, since the forms are algebraically
identical.  Multi-term sums go through compensated summation.

Every qrk/dqrk decay constant has one shape, C = p * lead - factor *
fsum(terms): the lead carries the subset minima, the penalty the
corruption, and the condition C > 0 is rearranged as lhs < rhs.  One
table, ``_PENALTIES``, holds the three penalties (original, alternative,
horizon): each one's factor, its terms in (p, r) form and raw, and its
condition-lhs terms in both forms.  One evaluator, ``_decay``, reads it
for all eight certificates; qrk is dqrk with q - q0 read as q.

Condition certification is directional.  Conditions have the shape
``lhs < rhs`` where rhs grows with the subset minimum singular value.
A sampled subset minimum only overestimates the true one, so in sampled
mode a satisfied inequality proves nothing (recorded as unknown) while a
failed inequality is a genuine failure.  Only exact mode certifies true.

``spectral_summary`` computes the subset minima before the full SVD, so
a level the subset engine refuses costs no SVD.  The noise allowance,
the (beta m + 1)-th largest |epsilon_i|, is worked out once, by
``noise_allowance``: the general horizon records it, and the EH
comparison reads C, the noise coefficient and the allowance from that
record.

``quantile_bounds`` is evaluated after a run, on a realized instance: it
maps a trace's squared errors to the sparse and noisy ceilings on the
q-quantile residual.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import numpy as np

from .linalg import (
    DenseMatrix,
    SigmaQMinResult,
    as_level,
    feasible_level,
    frobenius_sq,
    sigma_q_min_exact,
    sigma_q_min_sampled,
    singular_extremes,
)
from .problems import CorruptedProblem, ordered_magnitude
from .serialize import to_plain
from .solvers import InvalidRegimeError

__all__ = [
    "SpectralSummary",
    "RobustParams",
    "BoundRecord",
    "BoundReport",
    "FullRankViolationError",
    "ZeroCorruptionError",
    "RANK_TOLERANCE",
    "FORM_AGREEMENT_RTOL",
    "robust_params",
    "spectral_summary",
    "noise_allowance",
    "certificate",
    "quantile_bounds",
    "build_report",
]

RANK_TOLERANCE = 1e-12
FORM_AGREEMENT_RTOL = 1e-12


class FullRankViolationError(ValueError):
    """The matrix is (numerically) rank deficient where full rank is needed."""


class ZeroCorruptionError(ValueError):
    """An all-zero error vector makes the requested comparison vacuous."""


@dataclass(frozen=True)
class SpectralSummary:
    """Singular data of one system at the levels a report needs.

    ``sigma_q_beta_min`` is the subset minimum at level q - beta and
    ``sigma_q0_beta_min`` the one at level q0 - beta (present only when a
    lower quantile is in play).  Dimensions ride along because every
    constant depends on m (and the qRaSK comparison on n).
    """

    m: int
    n: int
    sigma_max: float
    sigma_min: float
    frobenius_sq: float
    sigma_q_beta_min: SigmaQMinResult | None = None
    sigma_q0_beta_min: SigmaQMinResult | None = None

    def __post_init__(self) -> None:
        if min(self.sigma_max, self.sigma_min, self.frobenius_sq) < 0:
            raise ValueError("singular data must be nonnegative")
        if (
            self.sigma_q_beta_min is not None
            and self.sigma_q_beta_min.value > self.sigma_max * (1 + 1e-12) + 1e-12
        ):
            raise ValueError("subset minimum cannot exceed sigma_max")

    def exactness(self, *, need_q0: bool = False) -> bool:
        parts = [self.sigma_q_beta_min]
        if need_q0:
            parts.append(self.sigma_q0_beta_min)
        return all(p is not None and p.mode == "exact" for p in parts)


@dataclass(frozen=True)
class RobustParams:
    """Exact rational parameters of the corruption-aware bounds.

    p is the worst-case fraction of admissible rows that are uncorrupted:
    (q - beta)/q for qrk, (q - q0 - beta)/(q - q0) for dqrk.  r is the
    corruption pressure beta/(1 - q - beta), finite inside the regime
    q + beta < 1.
    """

    beta: Fraction
    q: Fraction
    q0: Fraction | None
    p: Fraction
    r: Fraction


def robust_params(
    beta: Fraction | float,
    q: Fraction | float,
    q0: Fraction | float | None = None,
) -> RobustParams:
    """Validate the regime and derive (p, r) exactly.

    Levels are read by ``as_level``: a float is the decimal it prints as
    (so 0.8 means 4/5).  Requires 0 <= beta < q < 1 - beta, and for
    the double-quantile variant beta < q0 < q with q - q0 > beta.
    """

    b, qq = as_level(beta), as_level(q)
    q0q = None if q0 is None else as_level(q0)
    if not 0 <= b < qq <= 1:
        raise InvalidRegimeError(f"need 0 <= beta < q <= 1, got beta={b}, q={qq}")
    if qq + b >= 1:
        raise InvalidRegimeError(f"need q + beta < 1, got q={qq}, beta={b}")
    if q0q is not None:
        if not b < q0q < qq:
            raise InvalidRegimeError(f"need beta < q0 < q, got q0={q0q}")
        if qq - q0q <= b:
            raise InvalidRegimeError(
                f"need q - q0 > beta, got q - q0 = {qq - q0q}, beta = {b}"
            )
        p = (qq - q0q - b) / (qq - q0q)
    else:
        p = (qq - b) / qq
    r = b / (1 - qq - b)
    return RobustParams(beta=b, q=qq, q0=q0q, p=p, r=r)


def spectral_summary(
    a: DenseMatrix,
    params: RobustParams,
    *,
    sigma_mode: str = "exact",
    samples: int | None = None,
    seed: int = 0,
) -> SpectralSummary:
    """Compute the singular data a report needs for the given params.

    The subset minima come first, so a level the subset engine refuses
    (its product table over budget, or in exact mode too many subsets)
    is refused before the full SVD.  A sampled q0 level draws with seed + 1.
    """
    if sigma_mode == "exact":
        def sigma(level, offset):
            return sigma_q_min_exact(a, level)
    elif sigma_mode == "sampled":
        if samples is None or samples < 1:
            raise ValueError("sampled mode requires a positive sample count")

        def sigma(level, offset):
            return sigma_q_min_sampled(a, level, samples, seed + offset)
    else:
        raise ValueError(f"unknown sigma mode {sigma_mode!r}")
    sq = sigma(params.q - params.beta, 0)
    sq0 = None if params.q0 is None else sigma(params.q0 - params.beta, 1)
    smax, smin = singular_extremes(a)
    return SpectralSummary(
        m=a.m,
        n=a.n,
        sigma_max=smax,
        sigma_min=smin,
        frobenius_sq=frobenius_sq(a),
        sigma_q_beta_min=sq,
        sigma_q0_beta_min=sq0,
    )


@dataclass(frozen=True)
class BoundRecord:
    """One evaluated guarantee: named values plus a condition verdict."""

    name: str
    values: dict
    condition_satisfied: bool | None
    condition_mode: str | None
    flags: dict = field(default_factory=dict)

    def value(self, key: str) -> float:
        return self.values[key]

    def to_dict(self) -> dict:
        verdict = {True: "true", False: "false", None: "unknown"}
        return {**to_plain(self), "condition_satisfied": verdict[self.condition_satisfied]}


def _agree(rewritten: float, raw: float, scale: float, what: str) -> None:
    tol = FORM_AGREEMENT_RTOL * max(abs(rewritten), abs(raw), scale)
    if abs(rewritten - raw) > tol:
        raise RuntimeError(
            f"{what}: algebraic forms disagree ({rewritten!r} vs {raw!r})"
        )


def _certify(lhs: float, rhs: float, exact: bool) -> bool | None:
    if exact:
        return bool(lhs < rhs)
    return None if lhs < rhs else False

def _rk_horizon(summary, params, *, epsilon, row_norms, **_):
    if summary.sigma_min < RANK_TOLERANCE * summary.sigma_max:
        raise FullRankViolationError(
            f"sigma_min = {summary.sigma_min!r} is below the full-rank "
            f"threshold {RANK_TOLERANCE!r} * sigma_max"
        )
    eps = np.asarray(epsilon, dtype=np.float64).ravel()
    norms_sq = (
        np.ones(eps.size)
        if row_norms is None
        else np.asarray(row_norms, dtype=np.float64) ** 2
    )
    smin_sq = summary.sigma_min**2
    decay = 1.0 - smin_sq / summary.frobenius_sq
    worst = float(np.max(eps**2 / norms_sq)) if eps.size else 0.0
    horizon = (summary.frobenius_sq / smin_sq) * worst
    return {"decay_factor": decay, "horizon": horizon}, True, "exact", {}


def _floats(summary: SpectralSummary, params: RobustParams) -> SimpleNamespace:
    """The floats every qrk/dqrk constant reads, from one (summary, params).

    ``gap``/``top`` are q and q - beta for qrk, q - q0 and q - q0 - beta for dqrk;
    ``cond`` scales the condition lhs: 1/p for qrk, q/top for dqrk.  ``rm``,
    ``rr`` and ``rs`` are the square roots of m, r and 1 - q - beta.
    """
    f = SimpleNamespace(
        m=summary.m, q=float(params.q), b=float(params.beta), p=float(params.p), r=float(params.r),
        sM=summary.sigma_max, sM2=summary.sigma_max**2, sq2=summary.sigma_q_beta_min.value ** 2,
        slack=float(1 - params.q - params.beta),
    )
    f.rm, f.rr, f.rs = math.sqrt(f.m), math.sqrt(f.r), math.sqrt(f.slack)
    if params.q0 is not None:
        f.q0 = float(params.q0)
        f.gap = float(params.q - params.q0)
        f.top = float(params.q - params.q0 - params.beta)
        f.cond = f.q / f.top
    else:
        f.gap, f.top, f.cond = f.q, float(params.q - params.beta), 1.0 / f.p
    if summary.sigma_q0_beta_min is not None:
        f.sq02 = summary.sigma_q0_beta_min.value ** 2
    return f


# Penalty name -> functions of the shared floats giving (factor, terms, raw
# terms, condition-lhs terms, raw condition-lhs terms).  Raw terms are
# written in beta and 1 - q - beta where the others use r.
_PRESSURE = (
    lambda f: [2.0 * f.rr, f.r],
    lambda f: [2.0 * math.sqrt(f.b) / f.rs, f.b / f.slack],
)
_PENALTIES = {
    "original": (lambda f: f.sM2 / (f.gap * f.m), *_PRESSURE, *_PRESSURE),
    "alternative": (
        lambda f: 1.0 / f.gap,
        lambda f: [f.b, 2.0 * f.sM2 * f.r / f.m],
        lambda f: [f.b, 2.0 * f.sM2 * f.b / (f.m * f.slack)],
        lambda f: [f.b * f.m / f.sM2, 2.0 * f.r],
        lambda f: [f.b * f.m / f.sM2, 2.0 * f.b / f.slack],
    ),
    "horizon": (
        lambda f: 1.0 / f.gap,
        lambda f: [f.b, 2.0 * f.sM2 * f.r / f.m, 4.0 * f.sM * math.sqrt(f.b * f.r) / f.rm],
        lambda f: [f.b, 2.0 * f.sM2 * f.b / (f.m * f.slack), 4.0 * f.b * f.sM / (f.rm * f.rs)],
        lambda f: [f.b * f.m / f.sM2, 2.0 * f.r, 4.0 * math.sqrt(f.b * f.m) * f.rr / f.sM],
        lambda f: [f.b * f.m / f.sM2, 2.0 * f.b / f.slack, 4.0 * f.b * f.rm / (f.sM * f.rs)],
    ),
}


def _penalty(f, name: str) -> float:
    factor, terms = _PENALTIES[name][:2]
    return factor(f) * math.fsum(terms(f))


def _decay(f, name: str, q0_term: bool) -> tuple[float, float, float]:
    """(C, condition_lhs, condition_rhs) for one penalty, C and lhs by both routes.

    The lead carries the subset minimum at q - beta and, if ``q0_term``, at q0 - beta.
    """
    factor, _, raw, cond, cond_raw = _PENALTIES[name]
    lead = [f.sq2 / (f.q * f.m)]
    lead_raw = [f.top * f.sq2 / (f.gap * f.q * f.m)]
    rhs = [f.sq2 / f.sM2]
    if q0_term:
        lead.append(f.sq02 / (f.q0 * f.m) / (f.q * f.m))
        lead_raw.append(f.top * f.sq02 / (f.gap * f.q0 * f.q * f.m * f.m))
        rhs.append(f.sq02 / (f.sM2 * f.q0 * f.m))
    press = _penalty(f, name)
    c = math.fsum([f.p * math.fsum(lead), -press])
    c_raw = math.fsum(lead_raw + [-factor(f) * math.fsum(raw(f))])
    _agree(c, c_raw, f.p * math.fsum(lead) + press, f"{name} C")
    lhs = f.cond * math.fsum(cond(f))
    lhs_raw = (f.q / f.top) * math.fsum(cond_raw(f))
    _agree(lhs, lhs_raw, abs(lhs), f"{name} condition lhs")
    return c, lhs, math.fsum(rhs)


def _certificate(summary, params, *, penalty, eta_inf=None, x0_on_hyperplane=None, **_):
    """A decay-constant record, or for the horizon penalty an error horizon.

    dqrk rates carry the q0 - beta lead term; horizons read only q - beta.
    """
    dq = params.q0 is not None
    horizon = penalty == "horizon"
    q0_term = dq and not horizon
    if horizon and eta_inf < 0:
        raise ValueError("eta_inf must be nonnegative")
    f = _floats(summary, params)
    c, lhs, rhs = _decay(f, penalty, q0_term)
    exact = summary.exactness(need_q0=q0_term)
    verdict = _certify(lhs, rhs, exact)
    values = {"C": c, "condition_lhs": lhs, "condition_rhs": rhs}
    flags = {}
    if dq and penalty == "alternative" and x0_on_hyperplane is not None:
        flags["x0_on_hyperplane"] = bool(x0_on_hyperplane)
    if horizon:
        coef = 2.0 * f.r * (1.0 - f.q) / f.gap + 1.0
        values = {"C": c, "coefficient": coef, "condition_lhs": lhs, "condition_rhs": rhs}
        flags["non_positive_C"] = bool(c <= 0.0)
        if c > 0.0:
            values["horizon"] = (coef / c) * eta_inf * eta_inf
        if not dq and verdict is True and params.q > Fraction(1, 2):
            flags["coefficient_below_two"] = bool(coef < 2.0)
    return values, verdict, "exact" if exact else "sampled", flags


def _comparison_hypotheses(summary: SpectralSummary, params: RobustParams) -> bool:
    # r < 4 keeps the threshold denominator positive; past it the gate fails.
    if params.r >= 4:
        return False
    b = float(params.beta)
    slack = float(1 - params.q - params.beta)
    if b == 0.0:
        return False
    denom = 2.0 * math.sqrt(b) * math.sqrt(slack) - b
    threshold = b * summary.m * slack / denom
    return summary.sigma_max**2 > threshold


def _comparison(summary, params, **_):
    """alpha = 1 - p * lead + penalty for the alternative and original penalties."""
    f = _floats(summary, params)
    if params.q0 is not None:
        base = f.p * math.fsum([f.sq2 / (f.q * f.m), f.sq02 / (f.q0 * f.m * f.q * f.m)])
    else:
        base = f.p * f.sq2 / (f.q * f.m)
    alpha1 = math.fsum([1.0, -base, _penalty(f, "alternative")])
    alpha2 = math.fsum([1.0, -base, _penalty(f, "original")])
    flags = {"alpha1_lt_alpha2": bool(alpha1 < alpha2)}
    verdict = _comparison_hypotheses(summary, params)
    return {"alpha1": alpha1, "alpha2": alpha2}, verdict, "exact", flags


def noise_allowance(epsilon: np.ndarray, beta: Fraction | float) -> float:
    """The (beta*m + 1)-th largest magnitude of the total error vector epsilon.

    The corruption budget absorbs the beta*m worst entries; what is left
    bounds the noise every horizon carries.
    """
    eps = np.asarray(epsilon, dtype=np.float64).ravel()
    k = int(feasible_level(beta, eps.size) * eps.size)
    if k + 1 > eps.size:
        raise InvalidRegimeError("beta*m + 1 exceeds the vector length")
    return ordered_magnitude(eps, k + 1)


def _general_horizon(summary, params, *, epsilon, **_):
    allowance = noise_allowance(epsilon, params.beta)
    values, *rest = _certificate(summary, params, penalty="horizon", eta_inf=allowance)
    return ({**values, "noise_allowance": allowance}, *rest)


def _eh_comparison(summary, params, *, epsilon, **_):
    top = ordered_magnitude(epsilon, 1)
    if top == 0.0:
        raise ZeroCorruptionError("epsilon is zero; the comparison is vacuous")
    if summary.sigma_min < RANK_TOLERANCE * summary.sigma_max:
        raise FullRankViolationError("comparison needs full column rank")
    v = _general_horizon(summary, params, epsilon=epsilon)[0]
    if v["C"] <= 0.0:
        raise InvalidRegimeError("comparison requires C > 0")
    lhs = v["noise_allowance"] / top
    rhs = math.sqrt(v["C"] * summary.m / (summary.sigma_min**2 * v["coefficient"]))
    exact = summary.exactness()
    flags = {"qrk_beats_rk": bool(lhs < rhs)}
    verdict = _certify(lhs, rhs, exact)
    return {"lhs_ratio": lhs, "rhs": rhs}, verdict, "exact" if exact else "sampled", flags


def _timevar(summary, params, **_):
    if params.beta == 0:
        raise InvalidRegimeError("time-varying constants need beta > 0")
    f = _floats(summary, params)
    m, q, b, r = f.m, f.q, f.b, f.r
    s = math.sqrt(float(1 - params.beta) / b)
    shared = (f.sM / (q * m)) * (1.0 / math.sqrt(b * m)) * math.fsum([r, r * r * s])
    phi = math.fsum(
        [
            f.sq2 / (q * m) * f.p,
            -(f.sM2 / (q * m)) * math.fsum([2.0 * r * s, r * r * s * s]),
            -shared,
        ]
    )
    zeta = math.fsum([shared, r * r / (q * b * m * m)])
    values = {"phi": phi, "zeta": zeta, "coefficient_on_noise_sq": 1.0 + zeta * m * m}
    return values, None, None, {}


def _qrask(summary, params, **_):
    if params.beta == 0:
        raise InvalidRegimeError("the comparison needs beta > 0")
    m, n = summary.m, summary.n
    q, b = float(params.q), float(params.beta)
    r = float(params.r)
    sM = summary.sigma_max
    slack = float(1 - params.q - params.beta)
    ours = 2.0 * r * (1.0 - q) / q + 1.0
    ratio_term = 0.5 * math.fsum([r * (1.0 - b) ** 2 / (q * slack), 1.0])
    qrask = math.fsum(
        [
            (2.0 * r * (1.0 - b) / (q * math.sqrt(b)))
            * (1.0 + r * math.sqrt((1.0 - b) / b))
            * math.sqrt(n / m)
            * sM,
            ratio_term,
        ]
    )
    holds = bool(ours <= 4.0 * ratio_term)
    values = {"qrask_coefficient": qrask, "our_coefficient": ours}
    return values, holds, "exact", {"ratio_bound_holds": holds}


# Every record, in report order: name -> (kind, minima, inputs, evaluator).
# A qrk row takes single-quantile params, a dqrk row double-quantile ones,
# and the rk row reads none.  minima are the subset minima the row reads,
# at q - beta ("q") and q0 - beta ("q0"); inputs are what else it needs
# (epsilon, eta_inf).  An evaluator returns the record's (values, verdict,
# condition mode, flags).
_TABLE = {
    # Plain-solver certificate: geometric decay 1 - sigma_min^2 / |A|_F^2
    # and the squared-error plateau (|A|_F^2 / sigma_min^2) *
    # max_j epsilon_j^2 / |a_j|^2 (unit rows unless row_norms is given).
    "rk_horizon": ("rk", (), ("epsilon",), _rk_horizon),
    # Per-step decay constant of the single-quantile solver: expected
    # squared error contracts by (1 - C) per step when the condition holds;
    # C couples the subset minimum at level q - beta against the corruption
    # pressure carried by sigma_max.
    "qrk_rate_original": ("qrk", ("q",), (), partial(_certificate, penalty="original")),
    # The variant decay constant with a milder corruption penalty.
    "qrk_rate_alternative": ("qrk", ("q",), (), partial(_certificate, penalty="alternative")),
    # Head-to-head of the two decay factors alpha = 1 - C + penalty: when
    # r < 4 and sigma_max^2 clears its threshold, the alternative penalty is
    # strictly the smaller one, so alpha1 < alpha2.
    "qrk_rate_comparison": ("qrk", ("q",), (), _comparison),
    # Squared-error plateau under noise: (1/C)(2 r (1-q)/q + 1) eta_inf^2,
    # defined when C > 0.
    "qrk_error_horizon": ("qrk", ("q",), ("eta_inf",), partial(_certificate, penalty="horizon")),
    # The same plateau for an arbitrary total error vector epsilon, at its
    # noise allowance (``noise_allowance``).
    "qrk_general_horizon": ("qrk", ("q",), ("epsilon",), _general_horizon),
    # When does the quantile horizon beat the plain one?  Verdict:
    # eps_(beta*m+1) / eps_(1) < sqrt(C m / (sigma_min^2 coef)), with C, coef
    # and the noise allowance eps_(beta*m+1) read from the general horizon.
    "eh_comparison": ("qrk", ("q",), ("epsilon",), _eh_comparison),
    # Constants of the time-varying-noise analysis, for comparison only:
    # phi (its per-step decay), zeta, and the coefficient 1 + zeta m^2 that
    # multiplies the noise level there; our own coefficient stays bounded
    # while this one grows with m.
    "timevar_constants": ("qrk", ("q",), (), _timevar),
    # Noise coefficient of the sketched competitor vs ours, 2 r (1-q)/q + 1:
    # theirs is larger except for at most a factor of 4 on its second term,
    # which is the inequality the flag checks.
    "qrask_coefficient_comparison": ("qrk", (), (), _qrask),
    # The double-quantile decay constants and their head-to-head, same gate
    # as qrk; the lead also carries the subset minimum at q0 - beta.  The
    # alternative's guarantee assumes the start point lies on one of the row
    # hyperplanes: what is known of that (x0_on_hyperplane) rides along as
    # a flag.
    "dqrk_rate_original": ("dqrk", ("q", "q0"), (), partial(_certificate, penalty="original")),
    "dqrk_rate_alternative": (
        "dqrk", ("q", "q0"), (), partial(_certificate, penalty="alternative")
    ),
    "dqrk_rate_comparison": ("dqrk", ("q", "q0"), (), _comparison),
    # Squared-error plateau of the double-quantile solver under noise:
    # (1/C)(2 r (1-q)/(q-q0) + 1) eta_inf^2, defined when C > 0.
    "dqrk_error_horizon": ("dqrk", ("q",), ("eta_inf",), partial(_certificate, penalty="horizon")),
}


def certificate(
    name: str,
    summary: SpectralSummary,
    params: RobustParams | None,
    *,
    eta_inf: float | None = None,
    epsilon: np.ndarray | None = None,
    row_norms: np.ndarray | None = None,
    x0_on_hyperplane: bool | None = None,
) -> BoundRecord:
    """Evaluate the record ``name`` of the certificate table (KeyError if none).

    ``params`` may be None for rk_horizon, which reads none.  A missing
    subset minimum or input the row needs is a ValueError, params
    of the other kind an InvalidRegimeError.  Past those checks a record
    raises InvalidRegimeError, ZeroCorruptionError or FullRankViolationError
    where its own preconditions fail.
    """
    kind, minima, inputs, evaluate = _TABLE[name]
    levels = {"q": summary.sigma_q_beta_min, "q0": summary.sigma_q0_beta_min}
    for level in minima:
        if levels[level] is None:
            raise ValueError(f"summary lacks the subset minimum at level {level} - beta")
    given = {"eta_inf": eta_inf, "epsilon": epsilon}
    for key in inputs:
        if given[key] is None:
            raise ValueError(f"{name} needs {key}")
    if kind == "dqrk" and params.q0 is None:
        raise InvalidRegimeError("dqrk bounds need double-quantile params")
    if kind == "qrk" and params.q0 is not None:
        raise InvalidRegimeError("qrk bounds take single-quantile params")
    fields = evaluate(
        summary, params, **given, row_norms=row_norms, x0_on_hyperplane=x0_on_hyperplane
    )
    return BoundRecord(name, *fields)


def quantile_bounds(
    problem: CorruptedProblem,
    q: Fraction | float,
    sq_errors,
) -> tuple:
    """The sparse and noisy ceilings on the q-quantile residual.

    For iterates at squared error ``sq_errors`` (a number or an array,
    e.g. a trace's ``sq_errors``) the sparse ceiling is
    sigma_max |x - x*| / sqrt(m (1 - q - beta)), which holds when the
    noise is zero; the noisy ceiling adds
    sqrt(1 - q) |eta|_inf / sqrt(1 - q - beta) and holds in general.
    Returns (sparse, noisy).  Requires q < 1 - beta for the realized
    corruption level beta.
    """
    level = feasible_level(q, problem.m, lowest=1)
    beta = problem.minimal_beta()
    if level >= 1 - beta:
        raise InvalidRegimeError(
            f"quantile bound needs q < 1 - beta; q = {level}, beta = {beta}"
        )
    sigma_max, _ = singular_extremes(problem.system)
    denom = math.sqrt(float(1 - level - beta))
    eta_inf = float(np.max(np.abs(problem.eta))) if problem.eta.size else 0.0
    sparse = sigma_max * np.sqrt(sq_errors) / (math.sqrt(problem.m) * denom)
    return sparse, sparse + math.sqrt(float(1 - level)) * eta_inf / denom


@dataclass(frozen=True)
class BoundReport:
    """All applicable certificates for one (A, beta, q, q0)."""

    params: RobustParams
    summary: SpectralSummary
    records: tuple[BoundRecord, ...]

    def record(self, name: str) -> BoundRecord:
        for rec in self.records:
            if rec.name == name:
                return rec
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "params": to_plain(self.params),
            "spectral": to_plain(self.summary),
            "records": [rec.to_dict() for rec in self.records],
        }


def build_report(
    summary: SpectralSummary,
    params: RobustParams,
    *,
    eta_inf: float | None = None,
    epsilon: np.ndarray | None = None,
    row_norms: np.ndarray | None = None,
    x0_on_hyperplane: bool | None = None,
) -> BoundReport:
    """Evaluate every certificate that applies, tolerating regime gaps.

    The qrk rows read (beta, q) alone, so double-quantile params give them
    the single-quantile params of the same beta and q.  A row is skipped
    when its inputs, or for a dqrk row q0, are absent.  Operations whose
    regime preconditions fail are recorded with a ``not_applicable`` flag
    instead of aborting the report.
    """
    qrk = params if params.q0 is None else robust_params(params.beta, params.q)
    given = {"eta_inf": eta_inf, "epsilon": epsilon}
    records: list[BoundRecord] = []
    for name, (kind, _, inputs, _) in _TABLE.items():
        if (kind == "dqrk" and params.q0 is None) or any(given[k] is None for k in inputs):
            continue
        try:
            records.append(certificate(
                name, summary, params if kind == "dqrk" else qrk,
                **given, row_norms=row_norms, x0_on_hyperplane=x0_on_hyperplane,
            ))
        except (InvalidRegimeError, ZeroCorruptionError, FullRankViolationError) as exc:
            records.append(
                BoundRecord(
                    name=name,
                    values={},
                    condition_satisfied=None,
                    condition_mode=None,
                    flags={"not_applicable": True, "reason": str(exc)},
                )
            )
    return BoundReport(params=params, summary=summary, records=tuple(records))
