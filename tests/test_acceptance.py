"""Acceptance gate: the end-to-end guarantees this package ships with.

Each test is one criterion with its tolerance and runtime budget stated
inline.  These are deliberately slower than the unit suites; together
they drive the solvers, the bound evaluators, and the experiment
runners at desk scale.  `pytest tests/test_acceptance.py -v` prints one
verdict line per criterion.
"""
import math
import time
from fractions import Fraction

import numpy as np

from kqrk.bounds import (
    FORM_AGREEMENT_RTOL,
    SpectralSummary,
    certificate,
    quantile_bounds,
    robust_params,
    spectral_summary,
)
from kqrk.experiments import desk_profile, fig3_trend, run_experiment
from kqrk.linalg import (
    DenseMatrix,
    SigmaQMinResult,
    row_normalize,
    sigma_q_min_exact,
    sigma_q_min_sampled,
)
from kqrk.problems import CorruptedProblem, GenSpec, generate
from kqrk.solvers import SolverConfig, horizon_estimate, run


def _verdict(tag: str, detail: str, t0: float, budget: float | None = None) -> None:
    """Print the criterion's single pass line, enforcing its time budget."""
    elapsed = time.perf_counter() - t0
    if budget is not None:
        assert elapsed < budget, f"{tag} took {elapsed:.1f}s, budget {budget:.0f}s"
        print(f"PASS {tag}: {detail} [{elapsed:.1f}s < {budget:.0f}s]")
    else:
        print(f"PASS {tag}: {detail} [{elapsed:.1f}s]")


Q, Q0 = Fraction(4, 5), Fraction(3, 5)


def test_c01_consistent_systems_converge():
    """All three methods solve clean consistent systems to 1e-16."""
    t0 = time.perf_counter()
    tol, cap = 1e-16, 20_000
    variants = (
        dict(method="rk"),
        dict(method="qrk", q=Q),
        dict(method="dqrk", q=Q, q0=Q0),
    )
    worst = 0
    for seed in range(10):
        problem = generate(
            GenSpec(m=200, n=20, corruption_scale=0.0, noise_stddev=0.0, seed=seed)
        )
        for kw in variants:
            trace = run(
                problem,
                SolverConfig(iterations=cap, seed=1000 + seed, stop_below=tol, **kw),
            )
            assert trace.sq_errors[-1] < tol, (kw["method"], seed, trace.sq_errors[-1])
            assert trace.iterations <= cap
            worst = max(worst, trace.iterations)
    _verdict(
        "c01",
        f"rk/qrk/dqrk below 1e-16 on 10/10 seeds, worst run {worst} steps",
        t0,
        budget=10.0,
    )


def test_c02_sparse_corruption_exact_recovery():
    """Quantile methods shrug off unbounded sparse corruption; rk cannot."""
    t0 = time.perf_counter()
    tol, cap = 1e-12, 50_000
    good = {"qrk": 0, "dqrk": 0}
    rk_floor = math.inf
    for seed in range(10):
        problem = generate(
            GenSpec(
                m=500,
                n=20,
                beta=Fraction(1, 50),
                corruption_scale=100.0,
                noise_stddev=0.0,
                seed=seed,
            )
        )
        for kw in (dict(method="qrk", q=Q), dict(method="dqrk", q=Q, q0=Q0)):
            trace = run(
                problem,
                SolverConfig(iterations=cap, seed=1000 + seed, stop_below=tol, **kw),
            )
            if trace.sq_errors[-1] < tol:
                good[kw["method"]] += 1
        rk = run(problem, SolverConfig(method="rk", iterations=cap, seed=1000 + seed))
        plateau = horizon_estimate(rk, 100)
        rk_floor = min(rk_floor, plateau)
        assert plateau > 1e-2, (seed, plateau)
    assert good["qrk"] >= 9, good
    assert good["dqrk"] >= 9, good
    _verdict(
        "c02",
        f"qrk {good['qrk']}/10 and dqrk {good['dqrk']}/10 seeds below 1e-12; "
        f"rk plateau never under {rk_floor:.3g}",
        t0,
        budget=60.0,
    )


def test_c03_corrupted_horizon_separation():
    """Under heavy sparse corruption the quantile horizons sit >= 100x lower."""
    t0 = time.perf_counter()
    wins = 0
    ratios = []
    for seed in range(10):
        spec = desk_profile("fig2", seed=seed, ensembles=("gaussian",))
        h = run_experiment(spec).horizons["gaussian"]
        ratios.append(h["rk"] / max(h["qrk"], h["dqrk"]))
        if h["qrk"] <= h["rk"] / 100 and h["dqrk"] <= h["rk"] / 100:
            wins += 1
    assert wins >= 9, (wins, ratios)
    _verdict(
        "c03",
        f"{wins}/10 seeds separated by >= 100x (median gap {np.median(ratios):.0f}x)",
        t0,
        budget=300.0,
    )


def test_c04_noise_only_horizon_parity():
    """With dense noise and no corruption all three horizons are comparable."""
    t0 = time.perf_counter()
    wins = 0
    spreads = []
    for seed in range(10):
        spec = desk_profile("fig1", seed=seed, ensembles=("gaussian",))
        h = run_experiment(spec).horizons["gaussian"]
        vals = [h["rk"], h["qrk"], h["dqrk"]]
        spread = max(vals) / min(vals)
        spreads.append(spread)
        if spread <= 10.0:
            wins += 1
    assert wins >= 8, (wins, spreads)
    _verdict(
        "c04",
        f"{wins}/10 seeds within a 10x band (median spread {np.median(spreads):.2f}x)",
        t0,
        budget=300.0,
    )


def test_c05_scale_sweep_trend():
    """rk's plateau tracks corruption magnitude; dqrk's stays flat."""
    t0 = time.perf_counter()
    spec = desk_profile("fig3")  # scales (1, 3, 10, 30, 100), 15 trials
    trend = fig3_trend(run_experiment(spec))
    rho = trend["spearman_scale_rk_horizon"]
    flat = trend["dqrk_horizon_max_min_ratio"]
    assert rho >= 0.9, trend
    assert flat <= 10.0, trend
    _verdict(
        "c05",
        f"spearman(scale, rk horizon) = {rho:.3f}, dqrk median spread {flat:.2f}x",
        t0,
        budget=1200.0,
    )


def test_c06_rate_comparison_sweep():
    """Wherever its hypotheses hold, the milder decay factor wins strictly.

    100 random row-normalized Gaussian systems small enough for exact
    subset enumeration, with beta*m = 1 and the quantiles two and four
    rows below m.  That geometry pins r = 1 and makes the sigma_max
    threshold equal 1, so every instance exercises the certified branch.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260817)
    certified = 0
    for i in range(100):
        m = int(rng.integers(10, 15))
        n = int(rng.integers(2, 5))
        mat, _ = row_normalize(rng.standard_normal((m, n)))
        params = robust_params(
            Fraction(1, m), Fraction(m - 2, m), Fraction(m - 4, m)
        )
        summary = spectral_summary(mat, params)
        for rec in (
            certificate("qrk_rate_comparison", summary, robust_params(params.beta, params.q)),
            certificate("dqrk_rate_comparison", summary, params),
        ):
            assert rec.condition_mode == "exact"
            if rec.condition_satisfied:
                certified += 1
                assert rec.values["alpha1"] < rec.values["alpha2"], (i, rec.name, rec.values)
                assert rec.flags["alpha1_lt_alpha2"] is True
    assert certified > 0
    _verdict(
        "c06",
        f"alpha1 < alpha2 strictly on {certified}/200 certified comparisons, 0 violations",
        t0,
        budget=300.0,
    )


def test_c07_algebraic_form_equivalence():
    """Rewritten and raw constants agree to 1e-12 relative on 1000 tuples.

    Every evaluator computes both algebraic routes and refuses to answer
    if they drift past FORM_AGREEMENT_RTOL of the additive term scale, so
    driving them over random regimes is the equivalence check itself.
    """
    t0 = time.perf_counter()
    assert FORM_AGREEMENT_RTOL == 1e-12
    rng = np.random.default_rng(7)
    evaluated = 0
    for _ in range(1000):
        d = int(rng.integers(8, 64))
        k = int(rng.integers(max(4, d // 2), d - 1))
        k0 = int(rng.integers(2, k - 1))
        params = robust_params(Fraction(1, d), Fraction(k, d), Fraction(k0, d))
        m = int(rng.integers(12, 2000))
        n = int(rng.integers(1, 50))
        smax = float(rng.uniform(1.0, 50.0))
        sq = smax * float(rng.uniform(0.01, 0.99))
        sq0 = sq * float(rng.uniform(0.1, 1.0))
        summary = SpectralSummary(
            m=m,
            n=n,
            sigma_max=smax,
            sigma_min=sq * float(rng.uniform(0.1, 1.0)),
            frobenius_sq=smax**2 * n * float(rng.uniform(0.3, 1.0)),
            sigma_q_beta_min=SigmaQMinResult(sq, "exact", 1, False),
            sigma_q0_beta_min=SigmaQMinResult(sq0, "exact", 1, False),
        )
        eta_inf = float(rng.uniform(0.0, 5.0))
        single = robust_params(params.beta, params.q)
        for rec in (
            certificate("qrk_rate_original", summary, single),
            certificate("qrk_rate_alternative", summary, single),
            certificate("qrk_error_horizon", summary, single, eta_inf=eta_inf),
            certificate("dqrk_rate_original", summary, params),
            certificate("dqrk_rate_alternative", summary, params, x0_on_hyperplane=True),
            certificate("dqrk_error_horizon", summary, params, eta_inf=eta_inf),
        ):
            assert math.isfinite(rec.values["C"])
            evaluated += 1
    assert evaluated == 6000
    _verdict("c07", "6000 dual-route evaluations agreed at 1e-12", t0, budget=1.0)


def test_c08_noise_coefficient_grid():
    """Our noise coefficient never exceeds 4x the sketched competitor's term.

    Exact rational arithmetic over a 50x50 feasible (beta, q) lattice, so
    a violation cannot hide in rounding.
    """
    t0 = time.perf_counter()
    checked = 0
    for i in range(1, 51):
        beta = Fraction(i, 200)
        for j in range(1, 51):
            q = Fraction(j + 99, 200)
            r = beta / (1 - q - beta)
            ours = 2 * r * (1 - q) / q + 1
            ratio_term = Fraction(1, 2) * (r * (1 - beta) ** 2 / (q * (1 - q - beta)) + 1)
            assert ours <= 4 * ratio_term, (beta, q)
            checked += 1
    assert checked == 2500
    # the evaluator reports the same verdict at the grid corners
    summary = SpectralSummary(
        m=200,
        n=20,
        sigma_max=3.0,
        sigma_min=1.0,
        frobenius_sq=200.0,
        sigma_q_beta_min=SigmaQMinResult(1.5, "exact", 1, False),
    )
    for bi, qj in ((1, 100), (1, 149), (50, 100), (50, 149)):
        rec = certificate(
            "qrask_coefficient_comparison",
            summary, robust_params(Fraction(bi, 200), Fraction(qj, 200))
        )
        assert rec.flags["ratio_bound_holds"] is True
    _verdict("c08", "2500/2500 grid points satisfy the 4x bound", t0, budget=1.0)


def test_c09_quantile_bound_dominates_observed():
    """The recorded residual quantile never crosses its theoretical ceiling."""
    t0 = time.perf_counter()
    sparse = [
        (
            GenSpec(
                m=500,
                n=20,
                beta=Fraction(1, 50),
                corruption_scale=100.0,
                noise_stddev=0.0,
                seed=s,
            ),
            50_000,
        )
        for s in range(3)
    ]
    noisy = [
        (
            GenSpec(
                m=1000,
                n=200,
                beta=Fraction(1, 20),
                corruption_scale=100.0,
                noise_stddev=1.0,
                seed=s,
            ),
            20_000,
        )
        for s in range(3)
    ]
    states = 0
    for gspec, iters in sparse + noisy:
        problem = generate(gspec)
        trace = run(
            problem,
            SolverConfig(
                method="qrk",
                q=Q,
                iterations=iters,
                seed=7000 + gspec.seed,
            ),
        )
        _, bound_noisy = quantile_bounds(problem, Q, trace.sq_errors)
        # The computed residual of a converged iterate cannot drop below
        # the roundoff of evaluating b - Ax (about an ulp of b's entries),
        # while the bound keeps shrinking with the true error.  An
        # absolute floor at that resolution joins the relative tolerance;
        # both are orders below any quantile seen away from convergence.
        atol = 64 * np.finfo(np.float64).eps * max(1.0, float(np.abs(problem.b).max()))
        over = np.sum(trace.quantiles_q > bound_noisy * (1 + 1e-12) + atol)
        assert int(over) == 0, (gspec.m, gspec.seed, int(over))
        states += len(trace.quantiles_q)
    _verdict("c09", f"0 violations across {states} recorded states on 6 full runs", t0)


def test_c10_subset_minimum_oracle_equivalence():
    """Exhaustive sampling is bit-identical to enumeration; partial only overshoots."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    for i in range(20):
        m = int(rng.integers(8, 13))
        n = int(rng.integers(2, 4))
        k = int(rng.integers(n, m))
        mat, _ = row_normalize(rng.standard_normal((m, n)))
        level = Fraction(k, m)
        exact = sigma_q_min_exact(mat, level)
        total = math.comb(m, k)
        full = sigma_q_min_sampled(mat, level, total, seed=i)
        assert full.value == exact.value, (i, m, k)
        assert full.mode == "exact" and full.is_upper_bound_only is False
        part = sigma_q_min_sampled(mat, level, min(20, total - 1), seed=i)
        assert part.value >= exact.value, (i, m, k)
        assert part.mode == "sampled" and part.is_upper_bound_only is True
    _verdict("c10", "20/20 instances: exhaustive == exact, partial >= exact", t0, budget=30.0)


def test_c11_horizon_bound_validity():
    """Where the exact condition certifies C > 0, runs respect the horizon.

    Single-column all-ones systems keep every subset minimum analytic, so
    certification is exact-mode by construction.  The sweep keeps the
    instances that certify (larger m) and logs the ones that do not.
    """
    t0 = time.perf_counter()
    log = []
    certified = []
    for m in (20, 24, 28, 32):
        a = DenseMatrix(np.ones((m, 1)), row_normalized=True)
        params = robust_params(Fraction(1, m), Fraction(1, 2))
        summary = spectral_summary(a, params)
        assert summary.exactness()
        eta = np.random.default_rng(m).normal(0.0, 1.0, m)
        rec = certificate("qrk_error_horizon", summary, params, eta_inf=float(np.max(np.abs(eta))))
        log.append(
            f"m={m}: C={rec.values['C']:+.5f} "
            f"lhs={rec.values['condition_lhs']:.5f} "
            f"rhs={rec.values['condition_rhs']:.5f} "
            f"certified={rec.condition_satisfied}"
        )
        if rec.condition_satisfied is True:
            certified.append((m, a, eta, rec))
    for line in log:
        print("search:", line)
    if not certified:
        print("no certified instance found")
        return
    margins = []
    for m, a, eta, rec in certified:
        x_star = np.array([0.8])
        b_t = a.data @ x_star
        xi = np.zeros(m)
        xi[3] = 40.0  # exactly beta*m = 1 corrupted entry
        problem = CorruptedProblem(
            system=a, x_star=x_star, b_t=b_t, eta=eta, xi=xi, b=b_t + eta + xi
        )
        limits = [
            horizon_estimate(
                run(
                    problem,
                    SolverConfig(
                        method="qrk", q=Fraction(1, 2), iterations=3000, seed=seed
                    ),
                ),
                100,
            )
            for seed in range(20)
        ]
        mean_limit = float(np.mean(limits))
        bound = rec.values["horizon"]
        assert mean_limit <= bound, (m, mean_limit, bound)
        margins.append(bound / mean_limit)
    _verdict(
        "c11",
        f"{len(certified)} certified instances held the bound "
        f"(slack {min(margins):.1f}x to {max(margins):.1f}x)",
        t0,
    )
