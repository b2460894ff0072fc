"""Solver behavior: projections, band selection, traces, stopping."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kqrk.bounds import quantile_bounds
from kqrk.experiments import FIGURES, desk_profile, paper_profile
from kqrk.linalg import DenseMatrix, row_normalize
from kqrk.problems import GenSpec, InvalidSpecError, generate
from kqrk.solvers import (
    EmptyAdmissibleSetError,
    InvalidRegimeError,
    ResidualDriftError,
    SolverConfig,
    WindowTooLargeError,
    _select_in_band,
    horizon_estimate,
    run,
    run_batch,
)
from kqrk import solvers

from _oracles import lower_set_indices, sort_quantile


def _uniforms(seed, count):
    """The selection uniforms run() draws for config.seed = seed."""
    _, sel = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(sel).random(count)


def _one_step(system, method, seed, x0, **levels):
    return run(system, SolverConfig(method=method, iterations=1, seed=seed, x0=x0, **levels))


def _force_gram(monkeypatch, on):
    """Make the residual-path rule pick the Gram (on) or the matvec."""
    monkeypatch.setattr(solvers, "_gram_pays", lambda m, n, iterations: on)


def _unit(a):
    """A with its rows scaled to unit norm, as the solvers require."""
    return row_normalize(a)[0]


def _problem(m=40, n=4, beta=Fraction(1, 10), scale=20.0, seed=5, **kw):
    return generate(
        GenSpec(m=m, n=n, beta=beta, corruption_scale=scale, seed=seed, **kw)
    )


class TestProjection:
    def test_lands_on_hyperplane(self):
        rng = np.random.default_rng(0)
        dm = _unit(rng.standard_normal((6, 3)))
        b = rng.standard_normal(6)
        x = rng.standard_normal(3)
        rows = set()
        for seed in range(40):
            trace = _one_step((dm, b), "rk", seed, x)
            i = int(trace.chosen_indices[0])
            rows.add(i)
            assert abs(dm.data[i] @ trace.final_x - b[i]) < 1e-12
        assert rows == set(range(6))

    def test_orthogonal_move(self):
        # The step is along the row direction only.
        dm = _unit(np.array([[3.0, 4.0], [1.0, 0.0]]))
        a = dm.data
        b = np.array([2.0, 0.0])
        x = np.array([2.0, -1.0])
        rows = set()
        for seed in range(40):
            trace = _one_step((dm, b), "rk", seed, x)
            i = int(trace.chosen_indices[0])
            rows.add(i)
            move = trace.final_x - x
            assert abs(move[0] * a[i, 1] - move[1] * a[i, 0]) < 1e-14
        assert rows == {0, 1}

    def test_idempotent(self):
        # The same seed picks the same row, so the second step repeats the
        # first projection.
        rng = np.random.default_rng(1)
        dm = _unit(rng.standard_normal((4, 2)))
        b = rng.standard_normal(4)
        for seed in range(8):
            t1 = _one_step((dm, b), "rk", seed, np.zeros(2))
            t2 = _one_step((dm, b), "rk", seed, t1.final_x)
            assert t2.chosen_indices[0] == t1.chosen_indices[0]
            np.testing.assert_allclose(t2.final_x, t1.final_x, atol=1e-15)


class TestStepSelection:
    def test_rk_unit_rows_uniform(self):
        dm = DenseMatrix(np.eye(5), row_normalized=True)
        b = np.arange(5.0)
        trace = run((dm, b), SolverConfig(method="rk", iterations=60, seed=3))
        # u in [k/5, (k+1)/5) picks row k.
        expect = np.floor(_uniforms(3, 60) * 5).astype(np.int64)
        np.testing.assert_array_equal(trace.chosen_indices, expect)
        assert set(expect) == set(range(5))

    def test_qrk_restricts_to_lower_set(self):
        prob = _problem()
        keys = np.abs(prob.b)  # residual at x = 0 on unit rows
        admissible = set(lower_set_indices(keys, 32))  # q = 4/5, m = 40
        for seed in range(23):
            trace = _one_step(prob, "qrk", seed, "zero", q=Fraction(4, 5))
            assert trace.admissible_size == 32
            assert trace.quantiles_q[0] == sort_quantile(keys, 32)
            i = int(trace.chosen_indices[0])
            assert i in admissible
            # the move is along row i
            np.testing.assert_allclose(trace.final_x, prob.b[i] * prob.system.data[i])

    def test_dqrk_band_excludes_inner_set(self):
        prob = _problem()
        keys = np.abs(prob.b)
        lo = set(lower_set_indices(keys, 24))  # q0 = 3/5
        hi = set(lower_set_indices(keys, 32))  # q = 4/5
        band = hi - lo
        assert len(band) == 8
        seen = set()
        for seed in range(60):
            trace = _one_step(prob, "dqrk", seed, "zero", q=Fraction(4, 5), q0=Fraction(3, 5))
            assert trace.admissible_size == 8
            assert trace.quantiles_q0[0] == sort_quantile(keys, 24)
            assert trace.quantiles_q[0] == sort_quantile(keys, 32)
            i = int(trace.chosen_indices[0])
            seen.add(i)
            assert i in band
        assert seen == band  # sweeping seeds covers the whole band

    def test_tie_convention_lowest_index(self):
        # All residuals equal: the lower set is the lowest-index rows.
        dm = DenseMatrix(np.eye(4), row_normalized=True)
        b = np.ones(4)
        rows = set()
        for seed in range(10):
            trace = _one_step((dm, b), "qrk", seed, "zero", q=Fraction(1, 2))
            assert trace.admissible_size == 2
            assert trace.quantiles_q[0] == 1.0
            i = 0 if _uniforms(seed, 1)[0] < 0.5 else 1
            assert trace.chosen_indices[0] == i
            np.testing.assert_array_equal(trace.final_x, np.eye(4)[i])
            rows.add(i)
        assert rows == {0, 1}


class TestSelectInBand:
    """The value-sort pick must equal reading a stable argsort at the rank."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_stable_argsort(self, data):
        m = data.draw(st.integers(2, 60))
        alphabet = st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf, np.nan])
        keys = np.array(data.draw(st.lists(alphabet, min_size=m, max_size=m)))
        k_hi = data.draw(st.integers(1, m))
        k_lo = data.draw(st.integers(0, k_hi - 1))
        order = np.argsort(keys, kind="stable")
        width = k_hi - k_lo
        for j in range(width):
            i, q_lo, q_hi = _select_in_band(keys, k_lo, k_hi, (j + 0.5) / width)
            assert i == order[k_lo + j]
            np.testing.assert_equal(q_hi, keys[order[k_hi - 1]])
            if k_lo:
                np.testing.assert_equal(q_lo, keys[order[k_lo - 1]])


class TestRunTrace:
    def test_replay_qrk(self):
        """Every recorded step must be explainable from the trace itself."""
        prob = _problem(m=30, n=3, seed=11)
        cfg = SolverConfig(method="qrk", q=Fraction(4, 5), iterations=60, seed=3, x0="zero")
        trace = run(prob, cfg, residual_norms=True)
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
        assert t_rk.admissible_size == 40
        assert t_q.admissible_size == 32
        assert t_dq.admissible_size == 8

    def test_array_lengths(self):
        prob = _problem()
        cfg = SolverConfig(method="qrk", q=Fraction(4, 5), iterations=17)
        trace = run(prob, cfg, residual_norms=True)
        assert trace.iterations == 17
        assert len(trace.residual_norms) == 18
        assert len(trace.sq_errors) == 18
        assert len(trace.quantiles_q) == 18
        assert trace.admissible_size == 32
        assert trace.quantiles_q0 is None
        assert trace.final_x.shape == (prob.n,)

    @pytest.mark.parametrize("method", ["rk", "qrk"])
    def test_residual_norms_on_request(self, method):
        # Residual norms cost rk a b - A X product per block of iterates,
        # so a run records them only when asked; nothing else moves.
        prob = _problem()
        levels = {"q": Fraction(4, 5)} if method == "qrk" else {}
        cfg = SolverConfig(method=method, iterations=100, seed=2, **levels)
        bare, full = run(prob, cfg), run(prob, cfg, residual_norms=True)
        assert bare.residual_norms is None
        np.testing.assert_array_equal(bare.chosen_indices, full.chosen_indices)
        np.testing.assert_array_equal(bare.sq_errors, full.sq_errors)
        a, x = prob.system.data, np.zeros(prob.n)
        for k, i in enumerate(full.chosen_indices):
            r = prob.b - a @ x
            assert full.residual_norms[k] == pytest.approx(np.sqrt(r @ r), rel=1e-12)
            x = x + r[i] * a[i]

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
        a = _unit(rng.standard_normal((12, 3)))
        b = rng.standard_normal(12)
        trace = run((a, b), SolverConfig(method="rk", iterations=10))
        assert trace.sq_errors is None
        with pytest.raises(ValueError):
            horizon_estimate(trace)

    def test_incremental_matches_full(self, monkeypatch):
        prob = _problem(m=50, n=5, seed=21)
        cfg = SolverConfig(method="qrk", q=Fraction(4, 5), iterations=300, seed=9)
        _force_gram(monkeypatch, False)
        t_full = run(prob, cfg, residual_norms=True)
        _force_gram(monkeypatch, True)
        t_inc = run(prob, cfg, residual_norms=True)
        np.testing.assert_array_equal(t_full.chosen_indices, t_inc.chosen_indices)
        np.testing.assert_allclose(
            t_full.residual_norms, t_inc.residual_norms, rtol=1e-9
        )
        np.testing.assert_allclose(t_full.final_x, t_inc.final_x, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("method", ["qrk", "dqrk"])
    def test_incremental_drift_bound_is_relative(self, monkeypatch, method):
        # Corruption of scale 1e6 drifts the incremental residual by a few
        # 1e-9 per 1000 steps: rounding at the size of b, which an absolute
        # bound of 1e-9 used to reject.  It must pick what the full path does.
        prob = generate(
            GenSpec(m=1000, n=200, beta=Fraction(1, 20), corruption_scale=1e6, seed=3)
        )
        levels = {"q": Fraction(4, 5), "q0": Fraction(3, 5) if method == "dqrk" else None}
        cfg = SolverConfig(method=method, iterations=3000, seed=3, **levels)
        _force_gram(monkeypatch, False)
        t_full = run(prob, cfg, residual_norms=True)
        _force_gram(monkeypatch, True)
        t_inc = run(prob, cfg, residual_norms=True)
        np.testing.assert_array_equal(t_full.chosen_indices, t_inc.chosen_indices)
        np.testing.assert_allclose(t_full.residual_norms, t_inc.residual_norms, rtol=1e-12)

    def test_drift_past_the_bound_raises(self, monkeypatch):
        monkeypatch.setattr(solvers, "RESIDUAL_DRIFT_SLACK", 0.0)
        monkeypatch.setattr(solvers, "RESYNC_EVERY", 100)
        _force_gram(monkeypatch, True)
        cfg = SolverConfig(method="qrk", q=Fraction(4, 5), iterations=300, seed=9)
        with pytest.raises(ResidualDriftError):
            run(_problem(m=50, n=5, seed=21), cfg)

    def test_resync_period_is_the_module_constant(self, monkeypatch):
        # Every RESYNC_EVERY steps the incremental residual is checked
        # against b - Ax over a window of that many steps, and replaced.
        monkeypatch.setattr(solvers, "RESYNC_EVERY", 10)
        windows = []
        tolerance = solvers._drift_tolerance

        def spy(steps, *args):
            windows.append(steps)
            return tolerance(steps, *args)

        monkeypatch.setattr(solvers, "_drift_tolerance", spy)
        prob = _problem(m=50, n=5, seed=21)
        cfg = SolverConfig(method="qrk", q=Fraction(4, 5), iterations=300, seed=9)
        _force_gram(monkeypatch, True)
        t_inc = run(prob, cfg, residual_norms=True)
        assert windows == [10] * 30
        _force_gram(monkeypatch, False)
        t_full = run(prob, cfg, residual_norms=True)
        np.testing.assert_array_equal(t_full.chosen_indices, t_inc.chosen_indices)
        np.testing.assert_allclose(t_full.residual_norms, t_inc.residual_norms, rtol=1e-12)

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
        trace = run(prob, cfg, residual_norms=True)
        taken = trace.iterations
        assert taken < 20_000
        assert trace.sq_errors[-1] < 1e-20
        assert np.all(trace.sq_errors[:-1] >= 1e-20)
        assert len(trace.residual_norms) == taken + 1
        assert len(trace.sq_errors) == taken + 1
        assert len(trace.quantiles_q) == taken + 1

    def test_requires_known_solution(self):
        rng = np.random.default_rng(0)
        a, b = _unit(rng.standard_normal((10, 2))), rng.standard_normal(10)
        with pytest.raises(InvalidSpecError):
            run((a, b), SolverConfig(method="rk", iterations=10, stop_below=1e-6))

    def test_threshold_not_reached_runs_full(self):
        prob = _problem(m=30, n=3)
        cfg = SolverConfig(method="rk", iterations=15, stop_below=1e-30)
        trace = run(prob, cfg)
        assert trace.iterations == 15


_TRACE_FLOATS = ("sq_errors", "residual_norms", "quantiles_q0", "quantiles_q", "final_x")


def _assert_batch_matches_solo(problem, configs, rtol):
    """Each batched trace has its solo run's picks and stop step; floats
    agree to ``rtol`` (bitwise when it is 0)."""
    batch = run_batch(problem, configs, residual_norms=True)
    assert len(batch) == len(configs)
    for cfg, got in zip(configs, batch):
        want = run(problem, cfg, residual_norms=True)
        assert got.method == cfg.method
        np.testing.assert_array_equal(got.chosen_indices, want.chosen_indices)
        assert got.admissible_size == want.admissible_size
        for name in _TRACE_FLOATS:
            g, w = getattr(got, name), getattr(want, name)
            assert (g is None) == (w is None), name
            if w is not None and rtol:
                np.testing.assert_allclose(g, w, rtol=rtol, atol=0, err_msg=name)
            elif w is not None:
                np.testing.assert_array_equal(g, w, err_msg=name)


@st.composite
def _batches(draw):
    """A small problem, 2-4 qrk/dqrk configs that differ in seed,
    iterations, start and stop_below, and the residual path."""
    m, n = draw(st.sampled_from([20, 40])), draw(st.integers(2, 6))
    seed = draw(st.integers(0, 999))
    noise = draw(st.sampled_from([0.01, 1.0]))
    problem = _problem(m=m, n=n, beta=Fraction(1, 10), scale=20.0, seed=seed, noise_stddev=noise)
    configs = []
    for _ in range(draw(st.integers(2, 4))):
        method = draw(st.sampled_from(["qrk", "dqrk"]))
        x0 = draw(st.sampled_from(["default", "zero", "project_first", "vector"]))
        configs.append(SolverConfig(
            method=method,
            q=Fraction(4, 5),
            q0=Fraction(3, 5) if method == "dqrk" else None,
            iterations=draw(st.integers(1, 120)),
            seed=draw(st.integers(0, 999)),
            x0=np.full(n, draw(st.sampled_from([-1.0, 0.5]))) if x0 == "vector" else x0,
            stop_below=draw(st.sampled_from([None, 0.5, 0.05])),
        ))
    return problem, configs, draw(st.booleans())


class TestBatch:
    @given(_batches())
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_solo(self, case):
        problem, configs, gram = case
        with pytest.MonkeyPatch.context() as mp:
            _force_gram(mp, gram)
            _assert_batch_matches_solo(problem, configs, rtol=1e-12)

    def test_without_the_shared_product_batch_is_solo(self, monkeypatch):
        # The Gram path never shares the product, and with the product rule
        # off neither does the matvec path: every residual takes the gemv a
        # solo run takes, so the batch is bit-identical to the solo runs.
        prob = _problem(m=40, n=4, noise_stddev=0.01, seed=3)
        levels = dict(q=Fraction(4, 5), q0=Fraction(3, 5))
        configs = [
            SolverConfig(method="qrk", q=levels["q"], iterations=90, seed=1),
            SolverConfig(method="dqrk", iterations=150, seed=2, **levels),
            SolverConfig(method="dqrk", iterations=60, seed=3, x0="zero", stop_below=0.05, **levels),
            SolverConfig(method="qrk", q=levels["q"], iterations=120, seed=4),
        ]
        _force_gram(monkeypatch, True)
        _assert_batch_matches_solo(prob, configs, rtol=0)
        _force_gram(monkeypatch, False)
        monkeypatch.setattr(solvers, "SHARED_PRODUCT_BYTES", 0)
        _assert_batch_matches_solo(prob, configs, rtol=0)

    def test_shared_product_rule(self, monkeypatch):
        # One product per step for two or more runs on the matvec path while
        # A is at most SHARED_PRODUCT_BYTES; one gemv per run otherwise.
        prob = _problem(m=40, n=4)
        cfgs = [SolverConfig(method="qrk", q=Fraction(4, 5), iterations=10, seed=s) for s in (1, 2)]
        calls = []
        matmul = np.matmul

        def spy(a, x, **kw):
            calls.append(np.ndim(x))
            return matmul(a, x, **kw)

        monkeypatch.setattr(solvers.np, "matmul", spy)
        run_batch(prob, cfgs)
        assert calls == [2] * 11
        calls.clear()
        # On the Gram path each run forms b - A x once, by its own gemv, then
        # updates it by Gram rows.
        _force_gram(monkeypatch, True)
        run_batch(prob, cfgs)
        assert calls == [1, 1]
        calls.clear()
        _force_gram(monkeypatch, False)
        monkeypatch.setattr(solvers, "SHARED_PRODUCT_BYTES", prob.system.data.nbytes - 1)
        run_batch(prob, cfgs)
        assert calls == [1] * 22

    def test_rejects_rk(self):
        with pytest.raises(InvalidSpecError):
            run_batch(_problem(), [SolverConfig(method="rk", iterations=5)])


class TestGramRule:
    def test_profiles(self):
        # Every paper profile keeps its residuals by Gram rows, every desk
        # profile (m = 5n) by the matvec.
        for figure in FIGURES:
            paper, desk = paper_profile(figure), desk_profile(figure)
            assert solvers._gram_pays(paper.m, paper.n, paper.iterations), figure
            assert not solvers._gram_pays(desk.m, desk.n, desk.iterations), figure

    def test_edges(self):
        # The m^2 n build is repaid once K > m/2; the m^2 store is admitted
        # while m <= 2n.
        assert not solvers._gram_pays(1000, 500, 500)
        assert solvers._gram_pays(1000, 500, 501)
        assert not solvers._gram_pays(1001, 501, 500)
        assert solvers._gram_pays(1001, 501, 501)
        assert not solvers._gram_pays(1001, 500, 10**6)
        assert solvers._gram_pays(40, 40, 21)

    def test_budget(self, monkeypatch):
        # About 1 GiB: an 11585-row Gram fits, an 11586-row one does not.
        assert solvers._gram_pays(11585, 6000, 10**6)
        assert not solvers._gram_pays(11586, 6000, 10**6)
        monkeypatch.setattr(solvers, "GRAM_BUDGET_BYTES", 8 * 1000 * 1000)
        assert solvers._gram_pays(1000, 500, 10**4)
        monkeypatch.setattr(solvers, "GRAM_BUDGET_BYTES", 8 * 1000 * 1000 - 1)
        assert not solvers._gram_pays(1000, 500, 10**4)

    def test_batch_follows_the_rule(self, monkeypatch):
        # m = 2n: the batch's longest run (30 steps > m/2) selects the Gram
        # for both runs, so each forms b - A x once; a budget one byte short
        # of the Gram puts every step on the matvec.
        prob = _problem(m=40, n=20)
        cfgs = [
            SolverConfig(method="qrk", q=Fraction(4, 5), iterations=k, seed=k) for k in (10, 30)
        ]
        calls = []
        matmul = np.matmul

        def spy(a, x, **kw):
            calls.append(np.ndim(x))
            return matmul(a, x, **kw)

        monkeypatch.setattr(solvers.np, "matmul", spy)
        gram_path = run_batch(prob, cfgs)
        assert calls == [1, 1]
        calls.clear()
        monkeypatch.setattr(solvers, "GRAM_BUDGET_BYTES", 8 * 40 * 40 - 1)
        matvec_path = run_batch(prob, cfgs)
        assert calls == [2] * 11 + [1] * 20
        for g, f in zip(gram_path, matvec_path):
            np.testing.assert_array_equal(g.chosen_indices, f.chosen_indices)


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
            {"method": "rk", "stop_below": 0.0},
            {"method": "rk", "stop_below": -1.0},
            {"method": "rk", "x0": "center"},
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(InvalidSpecError):
            SolverConfig(**kw)

    @pytest.mark.parametrize(
        "method,levels,gram",
        [
            ("rk", {}, False),
            ("qrk", {"q": Fraction(4, 5)}, False),
            ("qrk", {"q": Fraction(4, 5)}, True),
        ],
        ids=["rk", "qrk", "qrk-incremental"],
    )
    @pytest.mark.parametrize(
        "defect,message",
        [("nan_b", "finite"), ("inf_a", "finite"), ("short_b", "one entry of b per row")],
    )
    def test_bad_system_rejected_at_run(self, monkeypatch, method, levels, gram, defect, message):
        _force_gram(monkeypatch, gram)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((20, 3))
        b = rng.standard_normal(20)
        if defect == "inf_a":
            # A non-finite A is refused as a DenseMatrix, before any run.
            a[3, 1] = np.inf
            with pytest.raises(ValueError, match=message):
                DenseMatrix(a, row_normalized=True)
            return
        if defect == "nan_b":
            b[7] = np.nan
        else:
            b = b[:-1]
        with pytest.raises(ValueError, match=message):
            run((_unit(a), b), SolverConfig(method=method, iterations=50, **levels))

    @pytest.mark.parametrize("system", ["ndarray", "not_normalized"])
    def test_rows_must_be_unit(self, system):
        # The solvers take unit rows only; any other A is refused, with a
        # pointer to the normalizer, even when its rows happen to be unit.
        a = np.eye(4)
        problem = (a if system == "ndarray" else DenseMatrix(a), np.ones(4))
        with pytest.raises(ValueError, match="row_normalize"):
            run(problem, SolverConfig(method="rk", iterations=5))
        with pytest.raises(ValueError, match="row_normalize"):
            run_batch(problem, [SolverConfig(method="qrk", q=Fraction(1, 2), iterations=5)])

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
        assert type(est) is float
        assert est == float(np.max(trace.sq_errors[-10:]))

    def test_window_covers_whole_trace(self):
        prob = _problem(m=30, n=3)
        trace = run(prob, SolverConfig(method="rk", iterations=20))
        assert horizon_estimate(trace, window=21) == float(np.max(trace.sq_errors))

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
        cfg = SolverConfig(method="qrk", q=Fraction(4, 5), iterations=30)
        sparse, noisy = quantile_bounds(prob, Fraction(4, 5), run(prob, cfg).sq_errors)
        assert len(sparse) == len(noisy) == 31
        assert np.all(noisy >= sparse)

    def test_trace_quantiles_match_partition(self):
        # The recorded Q at state k is the (q m = 48)-th smallest
        # |b - A x_k|, read by np.partition.  A run cut to k steps ends on state k of
        # the longer run with the same seed.
        prob = _problem(m=60, n=4, beta=Fraction(1, 20), scale=50.0, seed=8)
        q = Fraction(4, 5)
        trace = run(prob, SolverConfig(method="qrk", q=q, iterations=40, seed=3))
        for k in (1, 5, 17, 40):
            x_k = run(prob, SolverConfig(method="qrk", q=q, iterations=k, seed=3)).final_x
            d = x_k - prob.x_star
            assert float(d @ d) == trace.sq_errors[k]
            keys = np.abs(prob.b - prob.system.data @ x_k)
            q_obs = np.partition(keys, 47)[47]
            assert q_obs == pytest.approx(trace.quantiles_q[k], rel=1e-12, abs=0.0)

    def test_regime_guard(self):
        # q >= 1 - beta is outside the bound's regime.
        prob = _problem(m=40, n=4, beta=Fraction(1, 4), scale=10.0)
        trace = run(prob, SolverConfig(method="qrk", q=Fraction(4, 5), iterations=5))
        with pytest.raises(InvalidRegimeError):
            quantile_bounds(prob, Fraction(4, 5), trace.sq_errors)

    def test_quantile_bounds_formula(self):
        prob = _problem(m=60, n=4, beta=Fraction(1, 20), scale=50.0)
        # At x = 0 the squared error is |x*|^2.
        b_sparse, b_noisy = quantile_bounds(prob, Fraction(4, 5), prob.x_star @ prob.x_star)
        assert b_noisy >= b_sparse > 0
        # sigma_max |x - x*| / sqrt(m (1 - q - beta)), plus
        # sqrt(1 - q) |eta|_inf / sqrt(1 - q - beta) for the noisy ceiling.
        slack = 1 - 0.8 - np.count_nonzero(prob.xi) / prob.m
        sigma_max = np.linalg.svd(prob.system.data, compute_uv=False)[0]
        sparse = sigma_max * np.linalg.norm(prob.x_star) / np.sqrt(prob.m * slack)
        noise = np.sqrt(0.2) * np.max(np.abs(prob.eta)) / np.sqrt(slack)
        assert b_sparse == pytest.approx(sparse, rel=1e-12)
        assert b_noisy == pytest.approx(sparse + noise, rel=1e-12)
