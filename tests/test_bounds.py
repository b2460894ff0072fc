"""Bound engine: rational params, oracle agreement, certification."""
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from kqrk.bounds import (
    BoundReport,
    FullRankViolationError,
    SpectralSummary,
    ZeroCorruptionError,
    build_report,
    certificate,
    noise_allowance,
    robust_params,
    spectral_summary,
)
from kqrk.linalg import DenseMatrix, NonIntegerQuantileError, SigmaQMinResult
from kqrk.solvers import InvalidRegimeError

from _oracles import (
    mp_close,
    mp_dqrk_alphas,
    mp_dqrk_c_alternative,
    mp_dqrk_c_original,
    mp_dqrk_condition,
    mp_dqrk_horizon,
    mp_qrk_alphas,
    mp_qrk_c_alternative,
    mp_qrk_c_original,
    mp_qrk_condition,
    mp_qrk_horizon,
    mp_rk,
    mp_timevar,
)


def _summary(m, n, smax_sq, sq_sq, sq0_sq=None, smin_sq=None, exact=True):
    mode = "exact" if exact else "sampled"
    flag = not exact
    subs = 0 if exact else 5
    sq0 = (
        None
        if sq0_sq is None
        else SigmaQMinResult(math.sqrt(sq0_sq), mode, subs, flag)
    )
    return SpectralSummary(
        m=m,
        n=n,
        sigma_max=math.sqrt(smax_sq),
        sigma_min=math.sqrt(smax_sq / 4 if smin_sq is None else smin_sq),
        frobenius_sq=1.5 * smax_sq * max(n, 1),
        sigma_q_beta_min=SigmaQMinResult(math.sqrt(sq_sq), mode, subs, flag),
        sigma_q0_beta_min=sq0,
    )


def _assert_condition_sides(rec, lhs, rhs):
    """Both sides match the oracle, and lhs < rhs exactly when C > 0."""
    assert mp_close(rec.value("condition_lhs"), lhs, 0.0), rec.name
    assert mp_close(rec.value("condition_rhs"), rhs, 0.0), rec.name
    if abs(lhs - rhs) > 1e-9 * rhs:
        assert (rec.value("C") > 0) == (lhs < rhs), rec.name


def _random_regimes(count, seed, with_q0=False):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        d = int(rng.integers(8, 64))
        b = Fraction(int(rng.integers(0, max(1, d // 8))), d)
        q = Fraction(int(rng.integers(d // 3, d - 1)), d)
        if not (b < q and q + b < 1):
            continue
        q0 = None
        if with_q0:
            if q.numerator * 1 <= 1:
                continue
            q0 = Fraction(int(rng.integers(1, int(q * d))), d)
            if not (b < q0 < q and q - q0 > b):
                continue
        m = int(rng.integers(10, 500))
        smax_sq = float(rng.uniform(0.5, 80.0))
        sq_sq = smax_sq * float(rng.uniform(0.01, 0.99))
        sq0_sq = sq_sq * float(rng.uniform(0.1, 1.0))
        out.append((m, b, q, q0, smax_sq, sq_sq, sq0_sq))
    return out


class TestRobustParams:
    def test_exact_rationals(self):
        p = robust_params(Fraction(1, 20), Fraction(4, 5))
        assert (p.beta, p.q, p.q0) == (Fraction(1, 20), Fraction(4, 5), None)
        assert p.p == Fraction(15, 16)
        assert p.r == Fraction(1, 3)

    def test_double_quantile(self):
        p = robust_params(Fraction(1, 20), Fraction(4, 5), Fraction(3, 5))
        assert p.q0 == Fraction(3, 5)
        assert p.p == Fraction(3, 4)
        assert p.r == Fraction(1, 3)

    def test_floats_become_nearest_rationals(self):
        assert robust_params(0.05, 0.8) == robust_params(
            Fraction(1, 20), Fraction(4, 5)
        )
        assert robust_params(0.05, 0.8, 0.6).q0 == Fraction(3, 5)

    def test_floats_are_read_as_printed(self):
        assert robust_params(0.3333333, Fraction(1, 2)).beta == Fraction(3333333, 10**7)

    def test_zero_corruption_allowed(self):
        p = robust_params(0, Fraction(1, 2))
        assert p.r == 0 and p.p == 1

    @pytest.mark.parametrize(
        "b,q,q0",
        [
            (Fraction(1, 2), Fraction(1, 2), None),  # beta == q
            (Fraction(3, 5), Fraction(2, 5), None),  # beta > q
            (Fraction(1, 4), Fraction(3, 4), None),  # q + beta == 1
            (Fraction(1, 10), Fraction(19, 20), None),  # q + beta > 1
            (Fraction(1, 10), Fraction(1, 2), Fraction(1, 20)),  # q0 <= beta
            (Fraction(1, 10), Fraction(1, 2), Fraction(1, 2)),  # q0 == q
            (Fraction(1, 10), Fraction(1, 2), Fraction(9, 20)),  # gap <= beta
        ],
    )
    def test_regime_rejected(self, b, q, q0):
        with pytest.raises(InvalidRegimeError):
            robust_params(b, q, q0)


class TestSummaryValidation:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SpectralSummary(m=4, n=2, sigma_max=-1.0, sigma_min=0.0, frobenius_sq=1.0)

    def test_subset_min_cannot_exceed_sigma_max(self):
        with pytest.raises(ValueError):
            _summary(10, 2, smax_sq=1.0, sq_sq=4.0)

    def test_exactness_levels(self):
        s = SpectralSummary(
            m=10,
            n=2,
            sigma_max=2.0,
            sigma_min=1.0,
            frobenius_sq=8.0,
            sigma_q_beta_min=SigmaQMinResult(1.0, "exact", 3, False),
            sigma_q0_beta_min=SigmaQMinResult(0.5, "sampled", 3, True),
        )
        assert s.exactness() is True
        assert s.exactness(need_q0=True) is False


class TestRkHorizon:
    def test_identity_instance(self):
        # A = I_n: frobenius n, sigma_min 1, eps = e1 -> horizon n.
        n = 7
        s = SpectralSummary(m=n, n=n, sigma_max=1.0, sigma_min=1.0, frobenius_sq=float(n))
        eps = np.zeros(n)
        eps[0] = 1.0
        rec = certificate("rk_horizon", s, None, epsilon=eps)
        assert rec.value("decay_factor") == pytest.approx(1 - 1 / n, rel=1e-15)
        assert rec.value("horizon") == pytest.approx(n, rel=1e-15)
        assert rec.condition_satisfied is True

    def test_zero_error_zero_horizon(self):
        s = _summary(10, 3, smax_sq=4.0, sq_sq=1.0, smin_sq=1.0)
        rec = certificate("rk_horizon", s, None, epsilon=np.zeros(10))
        assert rec.value("horizon") == 0.0
        assert 0.0 < rec.value("decay_factor") < 1.0

    def test_row_norms_rescale(self):
        s = _summary(3, 2, smax_sq=4.0, sq_sq=1.0, smin_sq=1.0)
        eps = np.array([2.0, 2.0, 2.0])
        small = certificate(
            "rk_horizon", s, None, epsilon=eps, row_norms=np.array([2.0, 2.0, 2.0])
        )
        large = certificate("rk_horizon", s, None, epsilon=eps)
        assert small.value("horizon") == pytest.approx(
            large.value("horizon") / 4.0, rel=1e-15
        )

    def test_oracle_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            frob = float(rng.uniform(5.0, 50.0))
            smin_sq = float(rng.uniform(0.01, frob / 2))
            worst = float(rng.uniform(0.0, 9.0))
            s = SpectralSummary(
                m=12,
                n=3,
                sigma_max=math.sqrt(frob / 2),
                sigma_min=math.sqrt(smin_sq),
                frobenius_sq=frob,
            )
            eps = np.zeros(12)
            eps[3] = math.sqrt(worst)
            rec = certificate("rk_horizon", s, None, epsilon=eps)
            decay, horizon = mp_rk(12, frob, smin_sq, worst)
            assert mp_close(rec.value("decay_factor"), decay, 1.0)
            assert mp_close(rec.value("horizon"), horizon, float(horizon) + 1.0)

    def test_rank_deficient_rejected(self):
        s = SpectralSummary(m=5, n=2, sigma_max=1.0, sigma_min=0.0, frobenius_sq=5.0)
        with pytest.raises(FullRankViolationError):
            certificate("rk_horizon", s, None, epsilon=np.ones(5))


class TestQrkOracleAgreement:
    def test_rate_original(self):
        for m, b, q, _, smax_sq, sq_sq, _ in _random_regimes(50, seed=1):
            s = _summary(m, 3, smax_sq, sq_sq)
            params = robust_params(b, q)
            rec = certificate("qrk_rate_original", s, params)
            oracle = mp_qrk_c_original(m, b, q, smax_sq, sq_sq)
            bq, qq = float(q - b), float(q)
            slack = float(1 - q - b)
            scale = bq * sq_sq / (qq * qq * m) + smax_sq / (qq * m) * (
                2 * math.sqrt(float(b) / slack) + float(b) / slack
            )
            assert mp_close(rec.value("C"), oracle, scale)

    def test_rate_alternative(self):
        for m, b, q, _, smax_sq, sq_sq, _ in _random_regimes(50, seed=2):
            s = _summary(m, 3, smax_sq, sq_sq)
            rec = certificate("qrk_rate_alternative", s, robust_params(b, q))
            oracle = mp_qrk_c_alternative(m, b, q, smax_sq, sq_sq)
            qq, bf = float(q), float(b)
            slack = float(1 - q - b)
            scale = float(q - b) * sq_sq / (qq * qq * m) + (bf / qq) * (
                1 + 2 * smax_sq / (m * slack)
            )
            assert mp_close(rec.value("C"), oracle, scale)

    def test_error_horizon(self):
        for m, b, q, _, smax_sq, sq_sq, _ in _random_regimes(50, seed=3):
            s = _summary(m, 3, smax_sq, sq_sq)
            eta = 0.25
            rec = certificate("qrk_error_horizon", s, robust_params(b, q), eta_inf=eta)
            c, coef, horizon = mp_qrk_horizon(m, b, q, smax_sq, sq_sq, eta)
            qq, bf = float(q), float(b)
            slack = float(1 - q - b)
            scale = float(q - b) * sq_sq / (qq * qq * m) + (
                bf
                + 2 * smax_sq * bf / (m * slack)
                + 4 * bf * math.sqrt(smax_sq) / math.sqrt(m * slack)
            ) / qq
            assert mp_close(rec.value("C"), c, scale)
            assert mp_close(rec.value("coefficient"), coef, float(coef))
            if horizon is None:
                assert rec.flags["non_positive_C"] is True
                assert "horizon" not in rec.values
            else:
                assert rec.flags["non_positive_C"] is False
                assert mp_close(rec.value("horizon"), horizon, float(horizon))

    def test_alpha_comparison(self):
        for m, b, q, _, smax_sq, sq_sq, _ in _random_regimes(50, seed=4):
            s = _summary(m, 3, smax_sq, sq_sq)
            rec = certificate("qrk_rate_comparison", s, robust_params(b, q))
            a1, a2 = mp_qrk_alphas(m, b, q, smax_sq, sq_sq)
            scale = 1.0 + abs(float(a1)) + abs(float(a2))
            assert mp_close(rec.value("alpha1"), a1, scale)
            assert mp_close(rec.value("alpha2"), a2, scale)
            assert rec.flags["alpha1_lt_alpha2"] == (
                rec.value("alpha1") < rec.value("alpha2")
            )

    def test_condition_sides(self):
        evaluators = {
            "original": lambda s, params: certificate("qrk_rate_original", s, params),
            "alternative": lambda s, params: certificate("qrk_rate_alternative", s, params),
            "horizon": lambda s, params: certificate("qrk_error_horizon", s, params, eta_inf=1.0),
        }
        for m, b, q, _, smax_sq, sq_sq, _ in _random_regimes(50, seed=10):
            s = _summary(m, 3, smax_sq, sq_sq)
            for kind, op in evaluators.items():
                rec = op(s, robust_params(b, q))
                lhs, rhs = mp_qrk_condition(kind, m, b, q, smax_sq, sq_sq)
                _assert_condition_sides(rec, lhs, rhs)

    def test_timevar(self):
        for m, b, q, _, smax_sq, sq_sq, _ in _random_regimes(50, seed=5):
            if b == 0:
                continue
            s = _summary(m, 3, smax_sq, sq_sq)
            rec = certificate("timevar_constants", s, robust_params(b, q))
            phi, zeta = mp_timevar(m, b, q, smax_sq, sq_sq)
            scale = abs(float(phi)) + abs(float(zeta)) + sq_sq / (float(q) * m)
            assert mp_close(rec.value("phi"), phi, scale)
            assert mp_close(rec.value("zeta"), zeta, scale)
            assert rec.value("coefficient_on_noise_sq") == pytest.approx(
                1.0 + rec.value("zeta") * m * m, rel=1e-12
            )


class TestDqrkOracleAgreement:
    def test_rate_original(self):
        for m, b, q, q0, smax_sq, sq_sq, sq0_sq in _random_regimes(
            30, seed=6, with_q0=True
        ):
            s = _summary(m, 3, smax_sq, sq_sq, sq0_sq=sq0_sq)
            rec = certificate("dqrk_rate_original", s, robust_params(b, q, q0))
            oracle = mp_dqrk_c_original(m, b, q0, q, smax_sq, sq_sq, sq0_sq)
            gap, qq, q0q = float(q - q0), float(q), float(q0)
            top = float(q - q0 - b)
            slack = float(1 - q - b)
            scale = (
                top * sq_sq / (gap * qq * m)
                + top * sq0_sq / (gap * q0q * qq * m * m)
                + smax_sq
                / (gap * m)
                * (2 * math.sqrt(float(b) / slack) + float(b) / slack)
            )
            assert mp_close(rec.value("C"), oracle, scale)

    def test_rate_alternative(self):
        for m, b, q, q0, smax_sq, sq_sq, sq0_sq in _random_regimes(
            30, seed=7, with_q0=True
        ):
            s = _summary(m, 3, smax_sq, sq_sq, sq0_sq=sq0_sq)
            rec = certificate("dqrk_rate_alternative", s, robust_params(b, q, q0))
            oracle = mp_dqrk_c_alternative(m, b, q0, q, smax_sq, sq_sq, sq0_sq)
            gap, qq, q0q = float(q - q0), float(q), float(q0)
            top = float(q - q0 - b)
            slack = float(1 - q - b)
            scale = (
                top * sq_sq / (gap * qq * m)
                + top * sq0_sq / (gap * q0q * qq * m * m)
                + (float(b) + 2 * smax_sq * float(b) / (m * slack)) / gap
            )
            assert mp_close(rec.value("C"), oracle, scale)

    def test_error_horizon(self):
        for m, b, q, q0, smax_sq, sq_sq, _ in _random_regimes(
            30, seed=8, with_q0=True
        ):
            s = _summary(m, 3, smax_sq, sq_sq, sq0_sq=sq_sq * 0.5)
            eta = 1.5
            rec = certificate("dqrk_error_horizon", s, robust_params(b, q, q0), eta_inf=eta)
            c, coef, horizon = mp_dqrk_horizon(m, b, q0, q, smax_sq, sq_sq, eta)
            gap, qq = float(q - q0), float(q)
            top = float(q - q0 - b)
            slack = float(1 - q - b)
            scale = top * sq_sq / (gap * qq * m) + (
                float(b)
                + 2 * smax_sq * float(b) / (m * slack)
                + 4 * float(b) * math.sqrt(smax_sq) / math.sqrt(m * slack)
            ) / gap
            assert mp_close(rec.value("C"), c, scale)
            assert mp_close(rec.value("coefficient"), coef, float(coef))
            if horizon is not None:
                assert mp_close(rec.value("horizon"), horizon, float(horizon))

    def test_condition_sides(self):
        evaluators = {
            "original": lambda s, params: certificate("dqrk_rate_original", s, params),
            "alternative": lambda s, params: certificate("dqrk_rate_alternative", s, params),
            "horizon": lambda s, params: certificate("dqrk_error_horizon", s, params, eta_inf=1.0),
        }
        for m, b, q, q0, smax_sq, sq_sq, sq0_sq in _random_regimes(
            30, seed=11, with_q0=True
        ):
            s = _summary(m, 3, smax_sq, sq_sq, sq0_sq=sq0_sq)
            for kind, op in evaluators.items():
                rec = op(s, robust_params(b, q, q0))
                lhs, rhs = mp_dqrk_condition(kind, m, b, q0, q, smax_sq, sq_sq, sq0_sq)
                _assert_condition_sides(rec, lhs, rhs)

    def test_alpha_comparison(self):
        for m, b, q, q0, smax_sq, sq_sq, sq0_sq in _random_regimes(
            30, seed=12, with_q0=True
        ):
            s = _summary(m, 3, smax_sq, sq_sq, sq0_sq=sq0_sq)
            rec = certificate("dqrk_rate_comparison", s, robust_params(b, q, q0))
            a1, a2 = mp_dqrk_alphas(m, b, q0, q, smax_sq, sq_sq, sq0_sq)
            scale = 1.0 + abs(float(a1)) + abs(float(a2))
            assert mp_close(rec.value("alpha1"), a1, scale)
            assert mp_close(rec.value("alpha2"), a2, scale)

    def test_alphas_are_one_minus_c(self):
        for m, b, q, q0, smax_sq, sq_sq, sq0_sq in _random_regimes(
            20, seed=9, with_q0=True
        ):
            s = _summary(m, 3, smax_sq, sq_sq, sq0_sq=sq0_sq)
            params = robust_params(b, q, q0)
            rec = certificate("dqrk_rate_comparison", s, params)
            c_orig = certificate("dqrk_rate_original", s, params).value("C")
            c_alt = certificate("dqrk_rate_alternative", s, params).value("C")
            scale = 1.0 + abs(c_orig) + abs(c_alt)
            assert rec.value("alpha1") == pytest.approx(1.0 - c_alt, abs=1e-12 * scale)
            assert rec.value("alpha2") == pytest.approx(1.0 - c_orig, abs=1e-12 * scale)

    def test_single_quantile_params_rejected(self):
        s = _summary(20, 3, 4.0, 1.0, sq0_sq=0.5)
        qrk = robust_params(Fraction(1, 20), Fraction(4, 5))
        for name in ("dqrk_rate_original", "dqrk_rate_alternative", "dqrk_rate_comparison"):
            with pytest.raises(InvalidRegimeError):
                certificate(name, s, qrk)
        with pytest.raises(InvalidRegimeError):
            certificate("dqrk_error_horizon", s, qrk, eta_inf=1.0)

    def test_dqrk_params_rejected_by_qrk_ops(self):
        # Every qrk row reads qrk's p = (q - beta)/q; dqrk's would be wrong.
        s = _summary(20, 3, 4.0, 1.0, sq0_sq=0.5)
        dq = robust_params(Fraction(1, 20), Fraction(4, 5), Fraction(3, 5))
        for name in (
            "qrk_rate_original", "qrk_rate_alternative", "qrk_rate_comparison",
            "qrk_error_horizon", "qrk_general_horizon", "eh_comparison",
            "timevar_constants", "qrask_coefficient_comparison",
        ):
            with pytest.raises(InvalidRegimeError, match="single-quantile"):
                certificate(name, s, dq, eta_inf=1.0, epsilon=np.ones(20))

    def test_x0_flag_passthrough(self):
        s = _summary(40, 3, 4.0, 1.0, sq0_sq=0.5)
        params = robust_params(Fraction(1, 40), Fraction(4, 5), Fraction(3, 5))
        rec = certificate("dqrk_rate_alternative", s, params, x0_on_hyperplane=True)
        assert rec.flags["x0_on_hyperplane"] is True
        rec2 = certificate("dqrk_rate_alternative", s, params)
        assert "x0_on_hyperplane" not in rec2.flags


class TestCertification:
    # Small beta keeps the condition lhs low enough to be satisfiable.
    PARAMS = robust_params(Fraction(1, 1000), Fraction(1, 2))

    def test_exact_satisfied_is_true(self):
        s = _summary(1000, 3, 10.0, 2.0, exact=True)
        rec = certificate("qrk_rate_original", s, self.PARAMS)
        assert rec.value("condition_lhs") < rec.value("condition_rhs")
        assert rec.condition_satisfied is True
        assert rec.condition_mode == "exact"

    def test_sampled_satisfied_is_unknown(self):
        s = _summary(1000, 3, 10.0, 2.0, exact=False)
        rec = certificate("qrk_rate_original", s, self.PARAMS)
        assert rec.value("condition_lhs") < rec.value("condition_rhs")
        assert rec.condition_satisfied is None
        assert rec.condition_mode == "sampled"

    def test_sampled_violated_is_false(self):
        s = _summary(1000, 3, 10.0, 0.1, exact=False)
        rec = certificate("qrk_rate_original", s, self.PARAMS)
        assert rec.value("condition_lhs") >= rec.value("condition_rhs")
        assert rec.condition_satisfied is False

    def test_exact_violated_is_false(self):
        s = _summary(1000, 3, 10.0, 0.1, exact=True)
        rec = certificate("qrk_rate_original", s, self.PARAMS)
        assert rec.condition_satisfied is False

    def test_rate_comparison_mode_always_exact(self):
        # The comparison hypotheses involve only sigma_max, known exactly.
        s = _summary(100, 3, 10.0, 2.0, exact=False)
        rec = certificate("qrk_rate_comparison", s, robust_params(Fraction(1, 20), Fraction(4, 5)))
        assert rec.condition_mode == "exact"


class TestZeroCorruptionLimit:
    def test_c_reduces_to_leading_term(self):
        params = robust_params(0, Fraction(1, 2))
        s = _summary(40, 3, 9.0, 2.0)
        rec = certificate("qrk_rate_original", s, params)
        assert rec.value("C") == pytest.approx(2.0 / (0.5 * 40), rel=1e-14)
        assert rec.condition_satisfied is True

    def test_timevar_needs_corruption(self):
        params = robust_params(0, Fraction(1, 2))
        s = _summary(40, 3, 9.0, 2.0)
        with pytest.raises(InvalidRegimeError):
            certificate("timevar_constants", s, params)
        with pytest.raises(InvalidRegimeError):
            certificate("qrask_coefficient_comparison", s, params)


class TestFrozenCoefficients:
    def test_qrk_noise_coefficient(self):
        s = _summary(40, 3, 4.0, 1.0)
        rec = certificate(
            "qrk_error_horizon", s, robust_params(Fraction(1, 20), Fraction(4, 5)), eta_inf=1.0
        )
        assert rec.value("coefficient") == pytest.approx(7 / 6, rel=1e-14)

    def test_dqrk_noise_coefficient(self):
        s = _summary(40, 3, 4.0, 1.0, sq0_sq=0.5)
        rec = certificate(
            "dqrk_error_horizon", s,
            robust_params(Fraction(1, 20), Fraction(4, 5), Fraction(3, 5)), eta_inf=1.0,
        )
        assert rec.value("coefficient") == pytest.approx(5 / 3, rel=1e-14)

    def test_qrask_ratio_bound(self):
        s = _summary(1000, 200, 4.0, 1.0)
        rec = certificate(
            "qrask_coefficient_comparison",
            s, robust_params(Fraction(1, 20), Fraction(4, 5))
        )
        assert rec.value("our_coefficient") == pytest.approx(7 / 6, rel=1e-14)
        assert rec.flags["ratio_bound_holds"] is True
        # ours <= 4 * ratio_term with ratio_term = 505/288 here
        assert 4 * 505 / 288 == pytest.approx(505 / 72)
        assert rec.value("our_coefficient") <= 505 / 72

    def test_qrask_coefficient_grows_with_m(self):
        params = robust_params(Fraction(1, 20), Fraction(4, 5))
        small = certificate("qrask_coefficient_comparison", _summary(100, 20, 4.0, 1.0), params)
        # sqrt(n/m) fixed, sigma_max grows with sqrt(m) in practice; model
        # that by scaling smax_sq with m.
        big = certificate(
            "qrask_coefficient_comparison", _summary(10000, 2000, 400.0, 1.0), params
        )
        assert big.value("qrask_coefficient") > small.value("qrask_coefficient")
        assert big.value("our_coefficient") == small.value("our_coefficient")


class TestTimevarComparison:
    PARAMS = robust_params(Fraction(1, 128), Fraction(125, 128))

    def test_side_conditions_hold_on_crafted_instance(self):
        # The two sufficient conditions for phi < C: m below
        # 1/(4 sqrt(beta) sqrt(s)) + sqrt(1-beta)/(4 sqrt(s)^3), and, with
        # r < 1, sigma_max^2 above (beta m / 2) s / (sqrt(beta s) - beta),
        # where s = 1 - q - beta.
        m, b, q = 128, 1 / 128, 125 / 128
        s = 1 - q - b
        assert self.PARAMS.r == Fraction(1, 2)
        assert m < 1 / (4 * math.sqrt(b) * math.sqrt(s)) + math.sqrt(1 - b) / (4 * math.sqrt(s) ** 3)
        for smax_sq in (4.0, 64.0, 640.0):
            assert smax_sq > (b * m / 2) * s / (math.sqrt(b) * math.sqrt(s) - b)

    def test_phi_below_horizon_c(self):
        for smax_sq in (4.0, 64.0, 640.0):
            s = _summary(128, 2, smax_sq, 0.5)
            phi = certificate("timevar_constants", s, self.PARAMS).value("phi")
            c = certificate("qrk_error_horizon", s, self.PARAMS, eta_inf=1.0).value("C")
            assert phi < c

    def test_margin_independent_of_subset_minimum(self):
        margins = []
        for sq_sq in (0.3, 0.5, 0.7):
            s = _summary(128, 2, 64.0, sq_sq)
            phi = certificate("timevar_constants", s, self.PARAMS).value("phi")
            c = certificate("qrk_error_horizon", s, self.PARAMS, eta_inf=1.0).value("C")
            margins.append(c - phi)
        assert max(margins) - min(margins) < 1e-12 * max(map(abs, margins))



class TestGeneralHorizon:
    def test_allowance_is_order_statistic(self):
        params = robust_params(Fraction(1, 10), Fraction(1, 2))
        s = _summary(20, 3, 4.0, 2.0)
        eps = np.zeros(20)
        eps[:4] = [100.0, -50.0, 25.0, -12.0]
        rec = certificate("qrk_general_horizon", s, params, epsilon=eps)
        # beta*m = 2 worst entries absorbed; allowance is the 3rd largest.
        assert rec.value("noise_allowance") == 25.0
        direct = certificate("qrk_error_horizon", s, params, eta_inf=25.0)
        assert rec.value("C") == direct.value("C")
        assert rec.values.get("horizon") == direct.values.get("horizon")

    def test_zero_epsilon_allows_zero(self):
        params = robust_params(Fraction(1, 10), Fraction(1, 2))
        s = _summary(20, 3, 4.0, 2.0)
        rec = certificate("qrk_general_horizon", s, params, epsilon=np.zeros(20))
        assert rec.value("noise_allowance") == 0.0

    def test_noise_allowance(self):
        eps = np.array([5.0, -25.0, 3.0, -1.0])
        assert noise_allowance(eps, 0) == 25.0
        assert noise_allowance(eps, Fraction(1, 4)) == 5.0
        assert noise_allowance(eps, 0.5) == 3.0  # a level read by as_level
        with pytest.raises(InvalidRegimeError, match="exceeds the vector length"):
            noise_allowance(eps, 1)
        with pytest.raises(NonIntegerQuantileError):
            noise_allowance(eps, Fraction(1, 3))


class TestEhComparison:
    def _certifying(self):
        a = DenseMatrix(np.ones((28, 1)), row_normalized=True)
        params = robust_params(Fraction(1, 28), Fraction(1, 2))
        summary = spectral_summary(a, params)
        return summary, params

    def test_certifies_on_single_column_instance(self):
        summary, params = self._certifying()
        assert summary.sigma_q_beta_min.mode == "exact"
        assert summary.sigma_q_beta_min.value == pytest.approx(
            math.sqrt(13), rel=1e-15
        )
        eps = np.zeros(28)
        eps[0] = 100.0
        eps[1:] = 0.001
        rec = certificate("eh_comparison", summary, params, epsilon=eps)
        assert rec.condition_satisfied is True
        assert rec.condition_mode == "exact"
        assert rec.flags["qrk_beats_rk"] is True
        assert rec.value("lhs_ratio") == pytest.approx(1e-5, rel=1e-12)

    def test_horizon_positive_on_certifying_instance(self):
        summary, params = self._certifying()
        rec = certificate("qrk_error_horizon", summary, params, eta_inf=0.001)
        assert rec.value("C") > 0
        assert rec.value("coefficient") == pytest.approx(15 / 13, rel=1e-13)
        assert rec.value("horizon") == pytest.approx(
            (15 / 13) / rec.value("C") * 1e-6, rel=1e-12
        )

    def test_zero_epsilon_rejected(self):
        summary, params = self._certifying()
        with pytest.raises(ZeroCorruptionError):
            certificate("eh_comparison", summary, params, epsilon=np.zeros(28))

    def test_rank_deficient_rejected(self):
        params = robust_params(Fraction(1, 10), Fraction(1, 2))
        s = SpectralSummary(
            m=20,
            n=2,
            sigma_max=2.0,
            sigma_min=0.0,
            frobenius_sq=20.0,
            sigma_q_beta_min=SigmaQMinResult(1.0, "exact", 3, False),
        )
        with pytest.raises(FullRankViolationError):
            certificate("eh_comparison", s, params, epsilon=np.ones(20))

    def test_nonpositive_c_rejected(self):
        params = robust_params(Fraction(1, 10), Fraction(1, 2))
        s = _summary(20, 3, 40.0, 0.001)
        with pytest.raises(InvalidRegimeError):
            certificate("eh_comparison", s, params, epsilon=np.ones(20))

    @pytest.mark.parametrize("seed", range(5))
    def test_double_quantile_params_rejected(self, seed):
        # The comparison reads qrk's horizon; dqrk params are a regime
        # error, as for every other qrk certificate.
        rng = np.random.default_rng(seed)
        a = DenseMatrix(rng.standard_normal((12, 3)))
        params = robust_params(Fraction(1, 12), Fraction(3, 4), Fraction(5, 12))
        eps = rng.standard_normal(12)
        eps[0] = 50.0
        with pytest.raises(InvalidRegimeError, match="single-quantile"):
            certificate("eh_comparison", spectral_summary(a, params), params, epsilon=eps)


class TestReport:
    def _inputs(self):
        a = DenseMatrix(np.ones((28, 1)), row_normalized=True)
        params = robust_params(Fraction(1, 28), Fraction(1, 2), Fraction(1, 4))
        summary = spectral_summary(a, params)
        eps = np.zeros(28)
        eps[0] = 50.0
        eps[1:] = 0.01
        return summary, params, eps

    def test_full_report_names(self):
        summary, params, eps = self._inputs()
        report = build_report(summary, params, eta_inf=0.01, epsilon=eps)
        names = [rec.name for rec in report.records]
        assert names == [
            "rk_horizon",
            "qrk_rate_original",
            "qrk_rate_alternative",
            "qrk_rate_comparison",
            "qrk_error_horizon",
            "qrk_general_horizon",
            "eh_comparison",
            "timevar_constants",
            "qrask_coefficient_comparison",
            "dqrk_rate_original",
            "dqrk_rate_alternative",
            "dqrk_rate_comparison",
            "dqrk_error_horizon",
        ]

    def test_record_lookup(self):
        summary, params, eps = self._inputs()
        report = build_report(summary, params, epsilon=eps)
        assert report.record("qrk_rate_original").name == "qrk_rate_original"
        with pytest.raises(KeyError):
            report.record("nope")

    def test_not_applicable_records(self):
        params = robust_params(0, Fraction(1, 2))
        s = _summary(40, 3, 9.0, 2.0)
        report = build_report(s, params, eta_inf=1.0)
        tv = report.record("timevar_constants")
        assert tv.flags.get("not_applicable") is True
        assert "beta" in tv.flags["reason"]
        qa = report.record("qrask_coefficient_comparison")
        assert qa.flags.get("not_applicable") is True

    def test_to_dict_json_round_trip(self):
        summary, params, eps = self._inputs()
        report = build_report(
            summary, params, eta_inf=0.01, epsilon=eps, x0_on_hyperplane=True
        )
        doc = report.to_dict()
        text = json.dumps(doc, sort_keys=True)
        back = json.loads(text)
        assert back["schema_version"] == 1
        assert back["params"]["beta"] == "1/28"
        assert back["params"]["q0"] == "1/4"
        assert back["spectral"]["sigma_q_beta_min"]["mode"] == "exact"
        verdicts = {r["name"]: r["condition_satisfied"] for r in back["records"]}
        assert set(verdicts.values()) <= {"true", "false", "unknown"}
        alt = [r for r in back["records"] if r["name"] == "dqrk_rate_alternative"][0]
        assert alt["flags"]["x0_on_hyperplane"] is True

    def test_dqrk_report_derives_single_quantile_params(self):
        # The qrk records inside a dqrk report use (beta, q) alone.
        summary, params, eps = self._inputs()
        report = build_report(summary, params, eta_inf=0.01)
        qrk_direct = certificate(
            "qrk_rate_original",
            summary, robust_params(params.beta, params.q)
        )
        assert report.record("qrk_rate_original").values == qrk_direct.values
