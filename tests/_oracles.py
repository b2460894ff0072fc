"""Independent oracles the tests compare the library against.

Nothing here calls back into the package's numerics: singular values
come from a hand-rolled one-sided Jacobi sweep rather than LAPACK,
order statistics from plain python sorting, and the bound constants are
evaluated term by term in 60-digit mpmath arithmetic straight from their
raw definitions.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf

mp.dps = 60

JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 60


def jacobi_singular_values(a: np.ndarray) -> np.ndarray:
    """All singular values of a (copy), descending, via one-sided Jacobi."""
    work = np.array(a, dtype=np.float64, copy=True)
    m, n = work.shape
    if m < n:
        # one-sided Jacobi wants tall matrices; singular values are shared
        work = work.T.copy()
        m, n = work.shape
    for _ in range(JACOBI_MAX_SWEEPS):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                ai = work[:, i]
                aj = work[:, j]
                alpha = float(ai @ ai)
                beta = float(aj @ aj)
                gamma = float(ai @ aj)
                if alpha * beta > 0:
                    off = max(off, abs(gamma) / math.sqrt(alpha * beta))
                if gamma == 0.0:
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                col_i = c * ai - s * aj
                col_j = s * ai + c * aj
                work[:, i] = col_i
                work[:, j] = col_j
        if off < JACOBI_TOL:
            break
    sv = np.sqrt(np.sum(work * work, axis=0))
    return np.sort(sv)[::-1]


def sort_quantile(values, count: int) -> float:
    """count-th smallest magnitude-free order statistic by full sort."""
    ordered = sorted(float(v) for v in values)
    return ordered[count - 1]


def lower_set_indices(keys, count: int) -> list[int]:
    """Indices of the count smallest keys, ties resolved to lowest index."""
    order = sorted(range(len(keys)), key=lambda i: (keys[i], i))
    return order[:count]


def brute_sigma_q_min(a: np.ndarray, q: Fraction) -> float:
    """min over all row subsets of size q*m of the smallest singular value."""
    m, n = a.shape
    k = int(q * m)
    if k < n:
        return 0.0
    best = math.inf
    for rows in itertools.combinations(range(m), k):
        sv = jacobi_singular_values(a[list(rows)])
        best = min(best, float(sv[-1]))
    return best


# ---------------------------------------------------------------- mpmath
# Raw-definition constants in 60-digit arithmetic.  All level arguments
# are Fractions so nothing is lost converting to mpf.


def _f(x) -> mpf:
    if isinstance(x, Fraction):
        return mpf(x.numerator) / mpf(x.denominator)
    return mpf(x)


def mp_rk(m, frob_sq, smin_sq, worst_ratio_sq):
    decay = 1 - _f(smin_sq) / _f(frob_sq)
    horizon = _f(frob_sq) / _f(smin_sq) * _f(worst_ratio_sq)
    return decay, horizon


def mp_qrk_c_original(m, beta, q, smax_sq, sq_sq):
    b, qq = _f(beta), _f(q)
    slack = 1 - qq - b
    lead = (qq - b) * _f(sq_sq) / (qq * qq * m)
    press = 2 * mp.sqrt(b) / mp.sqrt(slack) + b / slack
    return lead - _f(smax_sq) / (qq * m) * press


def mp_qrk_c_alternative(m, beta, q, smax_sq, sq_sq):
    b, qq = _f(beta), _f(q)
    slack = 1 - qq - b
    lead = (qq - b) * _f(sq_sq) / (qq * qq * m)
    return lead - (b / qq) * (1 + 2 * _f(smax_sq) / (m * slack))


def mp_qrk_horizon(m, beta, q, smax_sq, sq_sq, eta_inf):
    b, qq = _f(beta), _f(q)
    slack = 1 - qq - b
    sM = mp.sqrt(_f(smax_sq))
    lead = (qq - b) * _f(sq_sq) / (qq * qq * m)
    penalty = b + 2 * _f(smax_sq) * b / (m * slack) + 4 * b * sM / (mp.sqrt(m) * mp.sqrt(slack))
    c = lead - penalty / qq
    r = b / slack
    coef = 2 * r * (1 - qq) / qq + 1
    horizon = None if c <= 0 else coef / c * _f(eta_inf) ** 2
    return c, coef, horizon


def mp_qrk_alphas(m, beta, q, smax_sq, sq_sq):
    b, qq = _f(beta), _f(q)
    slack = 1 - qq - b
    r = b / slack
    base = (qq - b) * _f(sq_sq) / (qq * qq * m)
    alpha1 = 1 - base + (b + 2 * _f(smax_sq) * r / m) / qq
    alpha2 = 1 - base + _f(smax_sq) / (qq * m) * (2 * mp.sqrt(r) + r)
    return alpha1, alpha2


def mp_dqrk_c_original(m, beta, q0, q, smax_sq, sq_sq, sq0_sq):
    b, q0q, qq = _f(beta), _f(q0), _f(q)
    slack = 1 - qq - b
    gap = qq - q0q
    top = qq - q0q - b
    lead = top * _f(sq_sq) / (gap * qq * m) + top * _f(sq0_sq) / (gap * q0q * qq * m * m)
    press = 2 * mp.sqrt(b) / mp.sqrt(slack) + b / slack
    return lead - _f(smax_sq) / (gap * m) * press


def mp_dqrk_c_alternative(m, beta, q0, q, smax_sq, sq_sq, sq0_sq):
    b, q0q, qq = _f(beta), _f(q0), _f(q)
    slack = 1 - qq - b
    gap = qq - q0q
    top = qq - q0q - b
    lead = top * _f(sq_sq) / (gap * qq * m) + top * _f(sq0_sq) / (gap * q0q * qq * m * m)
    return lead - (b + 2 * _f(smax_sq) * b / (m * slack)) / gap


def mp_dqrk_horizon(m, beta, q0, q, smax_sq, sq_sq, eta_inf):
    b, q0q, qq = _f(beta), _f(q0), _f(q)
    slack = 1 - qq - b
    gap = qq - q0q
    top = qq - q0q - b
    sM = mp.sqrt(_f(smax_sq))
    lead = top * _f(sq_sq) / (gap * qq * m)
    penalty = b + 2 * _f(smax_sq) * b / (m * slack) + 4 * b * sM / (mp.sqrt(m) * mp.sqrt(slack))
    c = lead - penalty / gap
    r = b / slack
    coef = 2 * r * (1 - qq) / gap + 1
    horizon = None if c <= 0 else coef / c * _f(eta_inf) ** 2
    return c, coef, horizon


def mp_dqrk_alphas(m, beta, q0, q, smax_sq, sq_sq, sq0_sq):
    b, q0q, qq = _f(beta), _f(q0), _f(q)
    slack = 1 - qq - b
    r = b / slack
    gap = qq - q0q
    top = qq - q0q - b
    base = top * _f(sq_sq) / (gap * qq * m) + top * _f(sq0_sq) / (gap * q0q * qq * m * m)
    alpha1 = 1 - base + (b + 2 * _f(smax_sq) * r / m) / gap
    alpha2 = 1 - base + _f(smax_sq) / (gap * m) * (2 * mp.sqrt(r) + r)
    return alpha1, alpha2


# Condition sides from the raw definitions: multiplying C by the positive
# gap q m / (sigma_max^2 top), with gap = q and top = q - beta for qrk and
# gap = q - q0 and top = q - q0 - beta for dqrk, turns C > 0 into lhs < rhs.


def _condition_terms(kind, m, b, qq, smax_sq):
    slack = 1 - qq - b
    sM2 = _f(smax_sq)
    if kind == "original":
        return 2 * mp.sqrt(b) / mp.sqrt(slack) + b / slack
    terms = b * m / sM2 + 2 * b / slack
    if kind == "horizon":
        terms += 4 * b * mp.sqrt(m) / (mp.sqrt(sM2) * mp.sqrt(slack))
    return terms


def mp_qrk_condition(kind, m, beta, q, smax_sq, sq_sq):
    """(lhs, rhs) of qrk_rate_original/alternative or qrk_error_horizon."""
    b, qq = _f(beta), _f(q)
    lhs = qq / (qq - b) * _condition_terms(kind, m, b, qq, smax_sq)
    return lhs, _f(sq_sq) / _f(smax_sq)


def mp_dqrk_condition(kind, m, beta, q0, q, smax_sq, sq_sq, sq0_sq):
    """(lhs, rhs) of dqrk_rate_original/alternative or dqrk_error_horizon."""
    b, q0q, qq = _f(beta), _f(q0), _f(q)
    lhs = qq / (qq - q0q - b) * _condition_terms(kind, m, b, qq, smax_sq)
    rhs = _f(sq_sq) / _f(smax_sq)
    if kind != "horizon":
        rhs += _f(sq0_sq) / (_f(smax_sq) * q0q * m)
    return lhs, rhs


def mp_timevar(m, beta, q, smax_sq, sq_sq):
    b, qq = _f(beta), _f(q)
    slack = 1 - qq - b
    r = b / slack
    s = mp.sqrt((1 - b) / b)
    p = (qq - b) / qq
    sM = mp.sqrt(_f(smax_sq))
    kappa_hat_inv2 = _f(sq_sq) / (qq * m)
    shared = sM / (qq * m) / mp.sqrt(b * m) * (r + r * r * s)
    phi = kappa_hat_inv2 * p - _f(smax_sq) / (qq * m) * (2 * r * s + r * r * s * s) - shared
    zeta = shared + r * r / (qq * b * m * m)
    return phi, zeta


def mp_close(impl: float, oracle, scale: float, rtol: float = 1e-12) -> bool:
    return abs(mpf(impl) - oracle) <= rtol * max(abs(mpf(impl)), abs(oracle), mpf(scale))
