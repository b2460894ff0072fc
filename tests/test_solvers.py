"""Solver behavior: projections, band selection, traces, stopping."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kqrk.linalg import DenseMatrix
from kqrk.problems import GenSpec, InvalidSpecError, generate
from kqrk.solvers import (
    EmptyAdmissibleSetError,
    HorizonEstimate,
    InvalidRegimeError,
    SolverConfig,
    WindowTooLargeError,
    _select_in_band,
    dqrk_step,
    horizon_estimate,
    project_onto_row,
    qrk_step,
    quantile_diagnostic,
    rk_step,
    run,
)

from _oracles import lower_set_indices, sort_quantile


class _FixedU:
    """Stand-in rng whose random() returns a preset value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def _problem(m=40, n=4, beta=Fraction(1, 10), scale=20.0, seed=5, **kw):
    return generate(
        GenSpec(m=m, n=n, beta=beta, corruption_scale=scale, seed=seed, **kw)
    )


class TestProjection:
    def test_lands_on_hyperplane(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal(6)
        x = rng.standard_normal(3)
        for i in range(6):
            xp = project_onto_row(a, b, x, i)
            assert abs(a[i] @ xp - b[i]) < 1e-12

    def test_orthogonal_move(self):
        # The step is along the row direction only.
        a = np.array([[3.0, 4.0], [1.0, 0.0]])
        b = np.array([10.0, 0.0])
        x = np.array([2.0, -1.0])
        xp = project_onto_row(a, b, x, 0)
        move = xp - x
        assert abs(move[0] * 4.0 - move[1] * 3.0) < 1e-14

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 2))
        b = rng.standard_normal(4)
        x1 = project_onto_row(a, b, np.zeros(2), 2)
        x2 = project_onto_row(a, b, x1, 2)
        np.testing.assert_allclose(x2, x1, atol=1e-15)


class TestStepSelection:
    def test_rk_unit_rows_uniform(self):
        dm = DenseMatrix(np.eye(5), row_normalized=True)
        b = np.arange(5.0)
        # u in [k/5, (k+1)/5) picks row k.
        for u, expect in ((0.0, 0), (0.19, 0), (0.2, 1), (0.99, 4)):
            x = rk_step(dm, b, np.zeros(5), _FixedU(u))
            moved = int(np.nonzero(x)[0][0]) if x.any() else 0
            assert moved == expect

    def test_rk_weighted_by_row_norm_sq(self):
        # Rows with |a_i|^2 = 1 and 4: cumsum (1, 5).
        a = DenseMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        b = np.array([1.0, 2.0])
        x_lo = rk_step(a, b, np.zeros(2), _FixedU(0.19))
        x_hi = rk_step(a, b, np.zeros(2), _FixedU(0.21))
        assert x_lo[0] != 0 and x_lo[1] == 0
        assert x_hi[1] != 0 and x_hi[0] == 0

    def test_qrk_restricts_to_lower_set(self):
        prob = _problem()
        keys = np.abs(prob.b)  # residual at x = 0 on unit rows
        admissible = set(lower_set_indices(keys, 32))  # q = 4/5, m = 40
        for u in np.linspace(0.0, 0.999, 23):
            x, quant, size = qrk_step(
                prob.system, prob.b, np.zeros(prob.n), Fraction(4, 5), _FixedU(u)
            )
            assert size == 32
            assert quant == sort_quantile(keys, 32)
            moved = int(np.nonzero(x - 0.0)[0][0]) if x.any() else None
            # identify the chosen row from the step direction
            step = x - np.zeros(prob.n)
            dots = prob.system.data @ step
            i = int(np.argmax(np.abs(dots)))
            assert i in admissible

    def test_dqrk_band_excludes_inner_set(self):
        prob = _problem()
        keys = np.abs(prob.b)
        lo = set(lower_set_indices(keys, 24))  # q0 = 3/5
        hi = set(lower_set_indices(keys, 32))  # q = 4/5
        band = hi - lo
        assert len(band) == 8
        seen = set()
        for u in np.linspace(0.0, 0.999, 40):
            x, qlo, qhi, size = dqrk_step(
                prob.system,
                prob.b,
                np.zeros(prob.n),
                Fraction(3, 5),
                Fraction(4, 5),
                _FixedU(u),
            )
            assert size == 8
            assert qlo == sort_quantile(keys, 24)
            assert qhi == sort_quantile(keys, 32)
            step = x
            dots = prob.system.data @ step
            i = int(np.argmax(np.abs(dots)))
            seen.add(i)
            assert i in band
        assert seen == band  # sweeping u covers the whole band

    def test_tie_convention_lowest_index(self):
        # All residuals equal: the lower set is the lowest-index rows.
        dm = DenseMatrix(np.eye(4), row_normalized=True)
        b = np.ones(4)
        x, quant, size = qrk_step(dm, b, np.zeros(4), Fraction(1, 2), _FixedU(0.0))
        assert size == 2
        assert quant == 1.0
        assert x[0] == 1.0 and not x[1:].any()
        x2, _, _ = qrk_step(dm, b, np.zeros(4), Fraction(1, 2), _FixedU(0.99))
        assert x2[1] == 1.0 and x2[0] == 0.0


class TestSelectInBand:
    """The value-sort pick must equal reading a stable argsort at the rank."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_stable_argsort(self, data):
        m = data.draw(st.integers(2, 60))
        alphabet = st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf, np.nan])
        keys = np.array(data.draw(st.lists(alphabet, min_size=m, max_size=m)))
        weights = st.sampled_from([0.25, 1.0, 4.0])
        row_sq = np.array(data.draw(st.lists(weights, min_size=m, max_size=m)))
        k_hi = data.draw(st.integers(1, m))
        k_lo = data.draw(st.integers(0, k_hi - 1))
        order = np.argsort(keys, kind="stable")
        band = order[k_lo:k_hi]
        width = k_hi - k_lo
        cum = np.concatenate([[0.0], np.cumsum(row_sq[band])])
        for j in range(width):
            for unit_rows, u, expect in (
                (True, (j + 0.5) / width, order[k_lo + j]),
                (False, (cum[j] + cum[j + 1]) / 2 / cum[-1], band[j]),
            ):
                rs = np.ones(m) if unit_rows else row_sq
                i, q_lo, q_hi = _select_in_band(keys, k_lo, k_hi, rs, unit_rows, u)
                assert i == expect
                np.testing.assert_equal(q_hi, keys[order[k_hi - 1]])
                if k_lo:
                    np.testing.assert_equal(q_lo, keys[order[k_lo - 1]])


class TestRunTrace:
    def test_replay_qrk(self):
        """Every recorded step must be explainable from the trace itself."""
        prob = _problem(m=30, n=3, seed=11)
        cfg = SolverConfig(method="qrk", q=Fraction(4, 5), iterations=60, seed=3, x0="zero")
        trace = run(prob, cfg)
        a = prob.system.data
        k_hi = 24
        x = np.zeros(prob.n)
        for k in range(trace.iterations):
            # Mirror the solver's arithmetic exactly (gemv residual,
            # unit row norms) so comparisons can be bit-for-bit.
            r = prob.b - a @ x
            keys = np.abs(r)
            assert trace.residual_norms[k] == np.sqrt(r @ r)
            assert trace.quantiles_q[k] == sort_quantile(keys, k_hi)
            i = int(trace.chosen_indices[k])
            assert i in set(lower_set_indices(keys, k_hi))
            x = x + r[i] * a[i]
        np.testing.assert_array_equal(trace.final_x, x)

    def test_replay_dqrk_ties_at_both_cuts(self):
        # Repeated b values, and the zeros left by projecting onto identity
        # rows, put ties across both cuts; the band must still be the
        # lowest-index multiset difference of the two lower sets.
        m = 20
        b = np.array([2.0, 1.0, 2.0, 3.0, 1.0, 2.0, 2.0, 3.0, 1.0, 2.0] * 2)
        cfg = SolverConfig(
            method="dqrk", q=Fraction(3, 4), q0=Fraction(1, 4), iterations=40, seed=2, x0="zero"
        )
        trace = run((DenseMatrix(np.eye(m), row_normalized=True), b), cfg)
        x = np.zeros(m)
        straddled = {5: 0, 15: 0}
        for k in range(trace.iterations):
            keys = np.abs(b - x)
            for cut in straddled:
                v = sort_quantile(keys, cut)
                below = np.count_nonzero(keys < v)
                straddled[cut] += below < cut < below + np.count_nonzero(keys == v)
            assert trace.quantiles_q0[k] == sort_quantile(keys, 5)
            assert trace.quantiles_q[k] == sort_quantile(keys, 15)
            i = int(trace.chosen_indices[k])
            assert i in set(lower_set_indices(keys, 15)) - set(lower_set_indices(keys, 5))
            x[i] = b[i]
        np.testing.assert_array_equal(trace.final_x, x)
        assert min(straddled.values()) > 0

    def test_replay_dqrk_band(self):
        prob = _problem(m=30, n=3, seed=12)
        cfg = SolverConfig(
            method="dqrk",
            q=Fraction(4, 5),
            q0=Fraction(3, 5),
            iterations=60,
            seed=4,
            x0="zero",
        )
        trace = run(prob, cfg)
        a = prob.system.data
        x = np.zeros(prob.n)
        for k in range(trace.iterations):
            r = prob.b - a @ x
            keys = np.abs(r)
            hi = set(lower_set_indices(keys, 24))
            lo = set(lower_set_indices(keys, 18))
            assert trace.quantiles_q[k] == sort_quantile(keys, 24)
            assert trace.quantiles_q0[k] == sort_quantile(keys, 18)
            i = int(trace.chosen_indices[k])
            assert i in hi - lo
            x = x + r[i] * a[i]

    def test_admissible_sizes_exact(self):
        prob = _problem()
        t_rk = run(prob, SolverConfig(method="rk", iterations=5))
        t_q = run(prob, SolverConfig(method="qrk", q=Fraction(4, 5), iterations=5))
        t_dq = run(
            prob,
            SolverConfig(method="dqrk", q=Fraction(4, 5), q0=Fraction(3, 5), iterations=5),
        )
        assert set(t_rk.admissible_sizes) == {40}
        assert set(t_q.admissible_sizes) == {32}
        assert set(t_dq.admissible_sizes) == {8}

    def test_array_lengths(self):
        prob = _problem()
        trace = run(prob, SolverConfig(method="qrk", q=Fraction(4, 5), iterations=17))
        assert trace.iterations == 17
        assert len(trace.residual_norms) == 18
        assert len(trace.sq_errors) == 18
        assert len(trace.quantiles_q) == 18
        assert len(trace.admissible_sizes) == 18
        assert trace.quantiles_q0 is None
        assert trace.final_x.shape == (prob.n,)

    def test_deterministic(self):
        prob = _problem()
        cfg = SolverConfig(method="dqrk", q=Fraction(4, 5), q0=Fraction(3, 5), iterations=40, seed=7)
        t1, t2 = run(prob, cfg), run(prob, cfg)
        np.testing.assert_array_equal(t1.chosen_indices, t2.chosen_indices)
        np.testing.assert_array_equal(t1.sq_errors, t2.sq_errors)
        np.testing.assert_array_equal(t1.final_x, t2.final_x)

    def test_seed_sensitivity(self):
        prob = _problem()
        t1 = run(prob, SolverConfig(method="rk", iterations=40, seed=0))
        t2 = run(prob, SolverConfig(method="rk", iterations=40, seed=1))
        assert not np.array_equal(t1.chosen_indices, t2.chosen_indices)

    def test_plain_tuple_has_no_errors(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((12, 3))
        b = rng.standard_normal(12)
        trace = run((a, b), SolverConfig(method="rk", iterations=10))
        assert trace.sq_errors is None
        with pytest.raises(ValueError):
            horizon_estimate(trace)

    def test_incremental_matches_full(self):
        prob = _problem(m=50, n=5, seed=21)
        cfg_full = SolverConfig(method="qrk", q=Fraction(4, 5), iterations=300, seed=9)
        cfg_inc = SolverConfig(
            method="qrk", q=Fraction(4, 5), iterations=300, seed=9,
            residual_mode="incremental",
        )
        t_full, t_inc = run(prob, cfg_full), run(prob, cfg_inc)
        np.testing.assert_array_equal(t_full.chosen_indices, t_inc.chosen_indices)
        np.testing.assert_allclose(
            t_full.residual_norms, t_inc.residual_norms, rtol=1e-9
        )
        np.testing.assert_allclose(t_full.final_x, t_inc.final_x, rtol=1e-9, atol=1e-12)

    def test_rk_converges_on_consistent_system(self):
        prob = _problem(beta=Fraction(0), scale=0.0, noise_stddev=0.0, m=100, n=10)
        trace = run(prob, SolverConfig(method="rk", iterations=4000))
        assert trace.sq_errors[-1] < 1e-12 * trace.sq_errors[0]


class TestInitialIterate:
    def test_zero_start(self):
        prob = _problem()
        trace = run(prob, SolverConfig(method="rk", iterations=1, x0="zero"))
        assert trace.sq_errors[0] == float(prob.x_star @ prob.x_star)

    def test_dqrk_default_projects_first(self):
        prob = _problem()
        trace = run(
            prob,
            SolverConfig(method="dqrk", q=Fraction(4, 5), q0=Fraction(3, 5), iterations=1),
        )
        # State 0 satisfies some row equation exactly.
        x0_err = trace.sq_errors[0]
        assert x0_err != float(prob.x_star @ prob.x_star)

    def test_project_first_on_hyperplane(self):
        prob = _problem(beta=Fraction(0), scale=0.0)
        cfg = SolverConfig(method="rk", iterations=1, x0="project_first", seed=13)
        trace = run(prob, cfg)
        # Replay from the recorded first step backwards is awkward; instead
        # check via a fresh run of 1 iteration that the initial residual
        # has at least one exact zero.
        r0_min = None
        # residual_norms[0] reflects x0; reconstruct: run with 1 iter and
        # inspect the residual of the final state after zero steps is not
        # stored, so verify indirectly through a direct projection sweep.
        a = prob.system.data
        hits = [
            abs(a[i] @ trace.final_x - prob.b[i]) < 1e-10 for i in range(prob.m)
        ]
        assert any(hits)

    def test_explicit_vector(self):
        prob = _problem()
        x0 = np.full(prob.n, 2.0)
        trace = run(prob, SolverConfig(method="rk", iterations=1, x0=x0))
        d = x0 - prob.x_star
        assert trace.sq_errors[0] == pytest.approx(float(d @ d), rel=1e-15)

    def test_bad_shape_rejected(self):
        prob = _problem()
        with pytest.raises(InvalidSpecError):
            run(prob, SolverConfig(method="rk", iterations=1, x0=np.zeros(prob.n + 1)))


class TestEarlyStop:
    def test_truncates_arrays(self):
        prob = _problem(beta=Fraction(0), scale=0.0, noise_stddev=0.0, m=80, n=6)
        cfg = SolverConfig(method="qrk", q=Fraction(4, 5), iterations=20_000, stop_below=1e-20)
        trace = run(prob, cfg)
        taken = trace.iterations
        assert taken < 20_000
        assert trace.sq_errors[-1] < 1e-20
        assert np.all(trace.sq_errors[:-1] >= 1e-20)
        assert len(trace.residual_norms) == taken + 1
        assert len(trace.admissible_sizes) == taken + 1
        assert len(trace.quantiles_q) == taken + 1

    def test_requires_known_solution(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((10, 2)), rng.standard_normal(10)
        with pytest.raises(InvalidSpecError):
            run((a, b), SolverConfig(method="rk", iterations=10, stop_below=1e-6))

    def test_threshold_not_reached_runs_full(self):
        prob = _problem(m=30, n=3)
        cfg = SolverConfig(method="rk", iterations=15, stop_below=1e-30)
        trace = run(prob, cfg)
        assert trace.iterations == 15


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"method": "sor"},
            {"method": "qrk"},  # missing q
            {"method": "dqrk", "q": 0.8},  # missing q0
            {"method": "rk", "q": 0.8},
            {"method": "qrk", "q": 0.8, "q0": 0.5},
            {"method": "rk", "iterations": 0},
            {"method": "rk", "residual_mode": "lazy"},
            {"method": "rk", "resync_every": 0},
            {"method": "rk", "stop_below": 0.0},
            {"method": "rk", "stop_below": -1.0},
            {"method": "rk", "x0": "center"},
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(InvalidSpecError):
            SolverConfig(**kw)

    def test_empty_band_rejected_at_run(self):
        prob = _problem()
        cfg = SolverConfig(method="dqrk", q=Fraction(3, 5), q0=Fraction(3, 5), iterations=1)
        with pytest.raises(EmptyAdmissibleSetError):
            run(prob, cfg)


class TestHorizon:
    def test_max_over_window(self):
        prob = _problem(m=30, n=3)
        trace = run(prob, SolverConfig(method="rk", iterations=50))
        est = horizon_estimate(trace, window=10)
        assert isinstance(est, HorizonEstimate)
        assert est.window == 10
        assert est.value == float(np.max(trace.sq_errors[-10:]))

    def test_window_covers_whole_trace(self):
        prob = _problem(m=30, n=3)
        trace = run(prob, SolverConfig(method="rk", iterations=20))
        est = horizon_estimate(trace, window=21)
        assert est.value == float(np.max(trace.sq_errors))

    def test_window_too_large(self):
        prob = _problem(m=30, n=3)
        trace = run(prob, SolverConfig(method="rk", iterations=20))
        with pytest.raises(WindowTooLargeError):
            horizon_estimate(trace, window=22)

    def test_window_positive(self):
        prob = _problem(m=30, n=3)
        trace = run(prob, SolverConfig(method="rk", iterations=5))
        with pytest.raises(ValueError):
            horizon_estimate(trace, window=0)


class TestDiagnostics:
    def test_arrays_recorded(self):
        prob = _problem(m=60, n=4, beta=Fraction(1, 20), scale=50.0)
        cfg = SolverConfig(
            method="qrk", q=Fraction(4, 5), iterations=30, record_diagnostics=True
        )
        trace = run(prob, cfg)
        assert trace.quantile_bound_sparse is not None
        assert trace.quantile_bound_noisy is not None
        assert len(trace.quantile_bound_noisy) == 31
        assert np.all(trace.quantile_bound_noisy >= trace.quantile_bound_sparse)

    def test_requires_corrupted_problem(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((10, 2)), rng.standard_normal(10)
        cfg = SolverConfig(
            method="qrk", q=Fraction(4, 5), iterations=5, record_diagnostics=True
        )
        with pytest.raises(InvalidSpecError):
            run((a, b), cfg)

    def test_requires_quantile_method(self):
        prob = _problem()
        cfg = SolverConfig(method="rk", iterations=5, record_diagnostics=True)
        with pytest.raises(InvalidSpecError):
            run(prob, cfg)

    def test_regime_guard(self):
        # q >= 1 - beta is outside the bound's regime.
        prob = _problem(m=40, n=4, beta=Fraction(1, 4), scale=10.0)
        cfg = SolverConfig(
            method="qrk", q=Fraction(4, 5), iterations=5, record_diagnostics=True
        )
        with pytest.raises(InvalidRegimeError):
            run(prob, cfg)

    def test_quantile_diagnostic_matches_trace(self):
        prob = _problem(m=60, n=4, beta=Fraction(1, 20), scale=50.0)
        q_obs, b_sparse, b_noisy = quantile_diagnostic(
            np.zeros(prob.n), prob, Fraction(4, 5)
        )
        keys = np.abs(prob.b)
        assert q_obs == sort_quantile(keys, 48)
        assert b_noisy >= b_sparse > 0
