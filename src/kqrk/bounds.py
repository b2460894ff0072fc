"""Certificates for the solvers: decay constants, conditions, horizons.

Every operation evaluates one theoretical guarantee for a concrete
(A, beta, q, q0).  The sparsity level ``beta`` is an input assumption,
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
record.  ``build_report`` walks one table of certificates in record order.

``quantile_bounds`` is evaluated after a run, on a realized instance: it
maps a trace's squared errors to the sparse and noisy ceilings on the
q-quantile residual.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
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
    "rk_horizon",
    "qrk_rate_original",
    "qrk_rate_alternative",
    "compare_qrk_rates",
    "qrk_error_horizon",
    "noise_allowance",
    "qrk_general_horizon",
    "eh_comparison_condition",
    "timevar_constants",
    "qrask_coefficient_comparison",
    "dqrk_rate_original",
    "dqrk_rate_alternative",
    "compare_dqrk_rates",
    "dqrk_error_horizon",
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


def _need(summary: SpectralSummary, *, q0: bool = False) -> None:
    if summary.sigma_q_beta_min is None:
        raise ValueError("summary lacks the subset minimum at level q - beta")
    if q0 and summary.sigma_q0_beta_min is None:
        raise ValueError("summary lacks the subset minimum at level q0 - beta")


def rk_horizon(
    summary: SpectralSummary,
    eta_plus_xi: np.ndarray,
    row_norms: np.ndarray | None = None,
) -> BoundRecord:
    """Plain-solver certificate: geometric decay plus a stall radius.

    decay = 1 - sigma_min^2 / |A|_F^2 and the squared-error plateau is
    (|A|_F^2 / sigma_min^2) * max_j (eta + xi)_j^2 / |a_j|^2.
    """
    if summary.sigma_min < RANK_TOLERANCE * summary.sigma_max:
        raise FullRankViolationError(
            f"sigma_min = {summary.sigma_min!r} is below the full-rank "
            f"threshold {RANK_TOLERANCE!r} * sigma_max"
        )
    eps = np.asarray(eta_plus_xi, dtype=np.float64).ravel()
    norms_sq = (
        np.ones(eps.size)
        if row_norms is None
        else np.asarray(row_norms, dtype=np.float64) ** 2
    )
    smin_sq = summary.sigma_min**2
    decay = 1.0 - smin_sq / summary.frobenius_sq
    worst = float(np.max(eps**2 / norms_sq)) if eps.size else 0.0
    horizon = (summary.frobenius_sq / smin_sq) * worst
    return BoundRecord(
        name="rk_horizon",
        values={"decay_factor": decay, "horizon": horizon},
        condition_satisfied=True,
        condition_mode="exact",
    )


def _floats(summary: SpectralSummary, params: RobustParams, dq: bool) -> SimpleNamespace:
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
    if dq:
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


def _decay(f, name: str, q0_term: bool, what: str) -> tuple[float, float, float]:
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
    _agree(c, c_raw, f.p * math.fsum(lead) + press, f"{what} C")
    lhs = f.cond * math.fsum(cond(f))
    lhs_raw = (f.q / f.top) * math.fsum(cond_raw(f))
    _agree(lhs, lhs_raw, abs(lhs), f"{what} condition lhs")
    return c, lhs, math.fsum(rhs)


def _kind(params: RobustParams, dq: bool) -> None:
    if dq and params.q0 is None:
        raise InvalidRegimeError("dqrk bounds need double-quantile params")
    if not dq and params.q0 is not None:
        raise InvalidRegimeError("qrk bounds take single-quantile params")


def _certificate(
    summary: SpectralSummary, params: RobustParams, penalty: str, dq: bool, name: str,
    *, eta_inf: float | None = None, flags: dict | None = None,
) -> BoundRecord:
    """A decay-constant record, or for the horizon penalty an error horizon.

    dqrk rates carry the q0 - beta lead term; horizons read only q - beta.
    The horizon is (1/C)(2 r (1-q)/gap + 1) eta_inf^2, defined when C > 0.
    """
    horizon = penalty == "horizon"
    q0_term = dq and not horizon
    _need(summary, q0=q0_term)
    _kind(params, dq)
    if horizon and eta_inf < 0:
        raise ValueError("eta_inf must be nonnegative")
    f = _floats(summary, params, dq)
    c, lhs, rhs = _decay(f, penalty, q0_term, name)
    exact = summary.exactness(need_q0=q0_term)
    verdict = _certify(lhs, rhs, exact)
    values = {"C": c, "condition_lhs": lhs, "condition_rhs": rhs}
    if horizon:
        coef = 2.0 * f.r * (1.0 - f.q) / f.gap + 1.0
        values = {"C": c, "coefficient": coef, "condition_lhs": lhs, "condition_rhs": rhs}
        flags = {"non_positive_C": bool(c <= 0.0)}
        if c > 0.0:
            values["horizon"] = (coef / c) * eta_inf * eta_inf
        if not dq and verdict is True and params.q > Fraction(1, 2):
            flags["coefficient_below_two"] = bool(coef < 2.0)
    return BoundRecord(
        name=name,
        values=values,
        condition_satisfied=verdict,
        condition_mode="exact" if exact else "sampled",
        flags={} if flags is None else flags,
    )


def _comparison(summary: SpectralSummary, params: RobustParams, dq: bool) -> BoundRecord:
    """alpha = 1 - p * lead + penalty for the alternative and original penalties."""
    f = _floats(summary, params, dq)
    if dq:
        base = f.p * math.fsum([f.sq2 / (f.q * f.m), f.sq02 / (f.q0 * f.m * f.q * f.m)])
    else:
        base = f.p * f.sq2 / (f.q * f.m)
    alpha1 = math.fsum([1.0, -base, _penalty(f, "alternative")])
    alpha2 = math.fsum([1.0, -base, _penalty(f, "original")])
    return BoundRecord(
        name="dqrk_rate_comparison" if dq else "qrk_rate_comparison",
        values={"alpha1": alpha1, "alpha2": alpha2},
        condition_satisfied=_comparison_hypotheses(summary, params),
        condition_mode="exact",
        flags={"alpha1_lt_alpha2": bool(alpha1 < alpha2)},
    )


def qrk_rate_original(summary: SpectralSummary, params: RobustParams) -> BoundRecord:
    """Per-step decay constant of the single-quantile solver.

    Expected squared error contracts by (1 - C) per step when the
    condition holds; C couples the subset minimum at level q - beta
    against the corruption pressure carried by sigma_max.
    """
    return _certificate(summary, params, "original", False, "qrk_rate_original")


def qrk_rate_alternative(summary: SpectralSummary, params: RobustParams) -> BoundRecord:
    """Variant decay constant with a milder corruption penalty."""
    return _certificate(summary, params, "alternative", False, "qrk_rate_alternative")


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


def compare_qrk_rates(summary: SpectralSummary, params: RobustParams) -> BoundRecord:
    """Head-to-head of the two qrk decay factors alpha = 1 - C + penalty.

    When r < 4 and sigma_max^2 clears its threshold, the alternative
    penalty is strictly the smaller one, so alpha1 < alpha2.
    """
    _need(summary)
    return _comparison(summary, params, False)


def qrk_error_horizon(
    summary: SpectralSummary, params: RobustParams, eta_inf: float
) -> BoundRecord:
    """Squared-error plateau of the single-quantile solver under noise.

    horizon = (1/C) * (2 r (1-q)/q + 1) * eta_inf^2, defined when C > 0.
    """
    return _certificate(summary, params, "horizon", False, "qrk_error_horizon", eta_inf=eta_inf)


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


def qrk_general_horizon(
    summary: SpectralSummary, params: RobustParams, epsilon: np.ndarray
) -> BoundRecord:
    """Horizon for an arbitrary total error vector epsilon, at its noise allowance."""
    allowance = noise_allowance(epsilon, params.beta)
    record = qrk_error_horizon(summary, params, allowance)
    return replace(
        record,
        name="qrk_general_horizon",
        values={**record.values, "noise_allowance": allowance},
    )


def eh_comparison_condition(
    summary: SpectralSummary, params: RobustParams, epsilon: np.ndarray
) -> BoundRecord:
    """When does the quantile horizon bound beat the plain one?

    Verdict: eps_(beta*m+1) / eps_(1) < sqrt(C m / (sigma_min^2 coef)), with
    C, coef and the noise allowance eps_(beta*m+1) read from the general horizon.
    """
    _need(summary)
    _kind(params, False)
    top = ordered_magnitude(epsilon, 1)
    if top == 0.0:
        raise ZeroCorruptionError("epsilon is zero; the comparison is vacuous")
    if summary.sigma_min < RANK_TOLERANCE * summary.sigma_max:
        raise FullRankViolationError("comparison needs full column rank")
    v = qrk_general_horizon(summary, params, epsilon).values
    if v["C"] <= 0.0:
        raise InvalidRegimeError("comparison requires C > 0")
    lhs = v["noise_allowance"] / top
    rhs = math.sqrt(v["C"] * summary.m / (summary.sigma_min**2 * v["coefficient"]))
    exact = summary.exactness()
    return BoundRecord(
        name="eh_comparison",
        values={"lhs_ratio": lhs, "rhs": rhs},
        condition_satisfied=_certify(lhs, rhs, exact),
        condition_mode="exact" if exact else "sampled",
        flags={"qrk_beats_rk": bool(lhs < rhs)},
    )


def timevar_constants(summary: SpectralSummary, params: RobustParams) -> BoundRecord:
    """Constants of the time-varying-noise analysis, for comparison only.

    Returns phi (its per-step decay), zeta, and the coefficient 1 + zeta m^2
    that multiplies the noise level there; our own coefficient stays
    bounded while this one grows with m.
    """
    _need(summary)
    if params.beta == 0:
        raise InvalidRegimeError("time-varying constants need beta > 0")
    f = _floats(summary, params, False)
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
    return BoundRecord(
        name="timevar_constants",
        values={
            "phi": phi,
            "zeta": zeta,
            "coefficient_on_noise_sq": 1.0 + zeta * m * m,
        },
        condition_satisfied=None,
        condition_mode=None,
    )


def qrask_coefficient_comparison(
    summary: SpectralSummary, params: RobustParams
) -> BoundRecord:
    """Noise coefficient of the sketched competitor vs ours.

    Ours is 2 r (1-q)/q + 1; the competitor's is larger except for at
    most a factor of 4 on its second term, which is the inequality the
    flag checks.
    """
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
    return BoundRecord(
        name="qrask_coefficient_comparison",
        values={"qrask_coefficient": qrask, "our_coefficient": ours},
        condition_satisfied=holds,
        condition_mode="exact",
        flags={"ratio_bound_holds": holds},
    )


def dqrk_rate_original(summary: SpectralSummary, params: RobustParams) -> BoundRecord:
    """Per-step decay constant of the double-quantile solver."""
    return _certificate(summary, params, "original", True, "dqrk_rate_original")


def dqrk_rate_alternative(
    summary: SpectralSummary,
    params: RobustParams,
    *,
    x0_on_hyperplane: bool | None = None,
) -> BoundRecord:
    """Variant dqrk decay constant with the milder corruption penalty.

    The underlying guarantee also assumes the start point lies on one of
    the row hyperplanes; pass what is known about that so the record can
    carry it.
    """
    flags = {} if x0_on_hyperplane is None else {"x0_on_hyperplane": bool(x0_on_hyperplane)}
    return _certificate(summary, params, "alternative", True, "dqrk_rate_alternative", flags=flags)


def compare_dqrk_rates(summary: SpectralSummary, params: RobustParams) -> BoundRecord:
    """Head-to-head of the two dqrk decay factors, same gate as qrk."""
    _need(summary, q0=True)
    _kind(params, True)
    return _comparison(summary, params, True)


def dqrk_error_horizon(
    summary: SpectralSummary, params: RobustParams, eta_inf: float
) -> BoundRecord:
    """Squared-error plateau of the double-quantile solver under noise.

    The per-step contraction here induces the plateau
    (1/C)(2 r (1-q)/(q-q0) + 1) eta_inf^2, defined when C > 0.
    """
    return _certificate(summary, params, "horizon", True, "dqrk_error_horizon", eta_inf=eta_inf)


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

    One table of (name, applies, evaluator) rows fixes the record order.
    Operations whose regime preconditions fail are recorded with a
    ``not_applicable`` flag instead of aborting the report.
    """
    qrk = params if params.q0 is None else robust_params(params.beta, params.q)
    eps, eta, dq = epsilon is not None, eta_inf is not None, params.q0 is not None
    rows = (
        ("rk_horizon", eps, lambda: rk_horizon(summary, epsilon, row_norms)),
        ("qrk_rate_original", True, lambda: qrk_rate_original(summary, qrk)),
        ("qrk_rate_alternative", True, lambda: qrk_rate_alternative(summary, qrk)),
        ("qrk_rate_comparison", True, lambda: compare_qrk_rates(summary, qrk)),
        ("qrk_error_horizon", eta, lambda: qrk_error_horizon(summary, qrk, eta_inf)),
        ("qrk_general_horizon", eps, lambda: qrk_general_horizon(summary, qrk, epsilon)),
        ("eh_comparison", eps, lambda: eh_comparison_condition(summary, qrk, epsilon)),
        ("timevar_constants", True, lambda: timevar_constants(summary, qrk)),
        ("qrask_coefficient_comparison", True,
         lambda: qrask_coefficient_comparison(summary, qrk)),
        ("dqrk_rate_original", dq, lambda: dqrk_rate_original(summary, params)),
        ("dqrk_rate_alternative", dq, lambda: dqrk_rate_alternative(
            summary, params, x0_on_hyperplane=x0_on_hyperplane)),
        ("dqrk_rate_comparison", dq, lambda: compare_dqrk_rates(summary, params)),
        ("dqrk_error_horizon", dq and eta, lambda: dqrk_error_horizon(summary, params, eta_inf)),
    )
    records: list[BoundRecord] = []
    for name, applies, evaluate in rows:
        if not applies:
            continue
        try:
            records.append(evaluate())
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
