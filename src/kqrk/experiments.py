"""The three packaged experiments: convergence curves and horizon scatter.

fig1 runs every method on a shared noisy system with no corruption, fig2
adds large sparse corruption to the same setup, and fig3 sweeps the
corruption scale to relate an identifiability ratio of the realized
error vector to the empirical error horizon.

Fairness and determinism: within one job every method sees the
identical problem, all randomness derives from the experiment seed, and
results are sorted canonically before emission, so a rerun reproduces
every output file byte for byte, whatever the BLAS thread count.  Jobs
run one at a time in the calling thread; any parallelism is the BLAS
pool's.  fig1 is the corruption-free special case of fig2; running fig2
with corruption scale zero and the same seed yields bit-identical data
and plot files.  The files' bytes are laid out by ``serialize``.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from .linalg import feasible_level
from .problems import (
    ENSEMBLES,
    CorruptedProblem,
    GenSpec,
    InvalidSpecError,
    generate,
    ordered_magnitude,
)
from .serialize import csv_blocks, from_plain, read_json, to_plain, write_csv, write_json
from .solvers import DEFAULT_HORIZON_WINDOW, SolverConfig, horizon_estimate, run, run_batch
from . import svgplot

__all__ = [
    "FIGURES",
    "METHOD_ORDER",
    "ExperimentSpec",
    "ExperimentResult",
    "Fig3Point",
    "desk_profile",
    "paper_profile",
    "run_experiment",
    "fig3_trend",
    "emit",
    "load_result",
]

FIGURES = ("fig1", "fig2", "fig3")
METHOD_ORDER = ("rk", "qrk", "dqrk")
DEFAULT_SCALES = (1.0, 3.0, 10.0, 30.0, 100.0)


@dataclass(frozen=True)
class ExperimentSpec:
    """Resolved parameters of one experiment run.

    Ensembles and methods default by figure: the curve figures use both
    matrix ensembles and all three methods, the scatter figure a single
    ensemble and (rk, dqrk).  All levels must give integer counts
    against m.
    """

    figure: str
    m: int = 1000
    n: int = 200
    beta: Fraction = Fraction(1, 20)
    q: Fraction = Fraction(4, 5)
    q0: Fraction = Fraction(3, 5)
    ensembles: tuple[str, ...] | None = None
    methods: tuple[str, ...] | None = None
    iterations: int = 20_000
    trials: int = 15
    scales: tuple[float, ...] = DEFAULT_SCALES
    corruption_scale: float = 100.0
    noise_stddev: float = 1.0
    horizon_window: int = DEFAULT_HORIZON_WINDOW
    seed: int = 0

    def __post_init__(self) -> None:
        if self.figure not in FIGURES:
            raise InvalidSpecError(f"unknown figure {self.figure!r}")
        if self.ensembles is None:
            default = ENSEMBLES if self.figure != "fig3" else (ENSEMBLES[0],)
            object.__setattr__(self, "ensembles", tuple(default))
        else:
            object.__setattr__(self, "ensembles", tuple(self.ensembles))
        if self.methods is None:
            default = METHOD_ORDER if self.figure != "fig3" else ("rk", "dqrk")
            object.__setattr__(self, "methods", tuple(default))
        else:
            object.__setattr__(self, "methods", tuple(self.methods))
        if not self.methods:
            raise InvalidSpecError("methods must be nonempty")
        bad = [x for x in self.methods if x not in METHOD_ORDER]
        if bad:
            raise InvalidSpecError(f"unknown methods {bad}")
        if len(set(self.methods)) != len(self.methods):
            raise InvalidSpecError("duplicate methods")
        if not self.ensembles:
            raise InvalidSpecError("ensembles must be nonempty")
        bad = [x for x in self.ensembles if x not in ENSEMBLES]
        if bad:
            raise InvalidSpecError(f"unknown ensembles {bad}")
        if self.figure == "fig3":
            if self.trials < 1:
                raise InvalidSpecError("fig3 requires trials >= 1")
            if not self.scales:
                raise InvalidSpecError("fig3 requires a nonempty scale grid")
            if len(self.ensembles) != 1:
                raise InvalidSpecError("fig3 takes exactly one ensemble")
        object.__setattr__(self, "scales", tuple(float(s) for s in self.scales))
        if self.iterations < 1:
            raise InvalidSpecError("iterations must be positive")
        if not 1 <= self.horizon_window <= self.iterations + 1:
            raise InvalidSpecError("horizon_window must fit inside the trace")
        # snap-or-raise happens in the CLI; here the levels must be exact
        for name, lvl in (("beta", self.beta), ("q0", self.q0), ("q", self.q)):
            object.__setattr__(self, name, feasible_level(lvl, self.m))
        if not self.beta < self.q0 < self.q:
            raise InvalidSpecError(
                f"need beta < q0 < q, got {self.beta}, {self.q0}, {self.q}"
            )
        grid = self.scales if self.figure == "fig3" else ()
        bad = [s for s in (*grid, self.corruption_scale, self.noise_stddev)
               if not 0 <= s < math.inf]
        if bad:
            raise InvalidSpecError(f"scales must be finite and nonnegative, got {bad}")


def desk_profile(figure: str, *, seed: int = 0, **overrides) -> ExperimentSpec:
    """Small instance runnable in minutes: m=1000, n=200, 2e4 steps."""
    base = dict(m=1000, n=200, iterations=20_000, seed=seed)
    base.update(overrides)
    return ExperimentSpec(figure=figure, **base)


def paper_profile(figure: str, *, seed: int = 0, **overrides) -> ExperimentSpec:
    """Full-size instance: m=5000, n=2500, 5e4 steps."""
    base = dict(m=5000, n=2500, iterations=50_000, seed=seed)
    base.update(overrides)
    return ExperimentSpec(figure=figure, **base)


@dataclass(frozen=True)
class Fig3Point:
    scale: float
    trial: int
    method: str
    ratio: float
    horizon: float


@dataclass(frozen=True)
class ExperimentResult:
    """Either per-method error curves (fig1/2) or scatter points (fig3).

    ``wall_clock`` is informational only and never serialized into
    result.json, keeping reruns byte-identical.
    """

    spec: ExperimentSpec
    curves: dict | None = None  # ensemble -> method -> sq_error array
    horizons: dict | None = None  # ensemble -> method -> float
    points: tuple[Fig3Point, ...] | None = None
    wall_clock: float = 0.0

    def to_dict(self) -> dict:
        out: dict = {"schema_version": 1, "spec": to_plain(self.spec)}
        if self.curves is not None:
            out["curves"] = to_plain(self.curves)
            out["horizons"] = to_plain(self.horizons or {})
        if self.points is not None:
            out["points"] = to_plain(self.points)
        return out

    @staticmethod
    def from_dict(d: dict) -> "ExperimentResult":
        spec = from_plain(ExperimentSpec, d.get("spec"))
        curves = horizons = points = None
        if "curves" in d:
            curves = {
                ens: {meth: np.asarray(vals, dtype=np.float64) for meth, vals in per.items()}
                for ens, per in d["curves"].items()
            }
            horizons = {ens: dict(per) for ens, per in d.get("horizons", {}).items()}
        if "points" in d:
            points = tuple(from_plain(Fig3Point, p) for p in d["points"])
        return ExperimentResult(spec=spec, curves=curves, horizons=horizons, points=points)


def _child_seed(*keys: int) -> int:
    """Derive a decorrelated integer seed from a key path."""
    a, b = np.random.SeedSequence(list(keys)).generate_state(2)
    return (int(a) << 32) | int(b)


def _solver_config(spec: ExperimentSpec, method: str, seed: int) -> SolverConfig:
    if method == "rk":
        return SolverConfig(method="rk", iterations=spec.iterations, seed=seed)
    if method == "qrk":
        return SolverConfig(method="qrk", q=spec.q, iterations=spec.iterations, seed=seed)
    return SolverConfig(
        method="dqrk", q=spec.q, q0=spec.q0, iterations=spec.iterations, seed=seed
    )


def _gen_spec(spec: ExperimentSpec, ensemble: str, scale: float, seed: int) -> GenSpec:
    return GenSpec(
        m=spec.m,
        n=spec.n,
        beta=spec.beta,
        corruption_scale=scale,
        noise_stddev=spec.noise_stddev,
        ensemble=ensemble,
        seed=seed,
    )


def _identifiability_ratio(problem: CorruptedProblem, q: Fraction) -> float:
    """Largest error magnitude over the ((1-q)m + 1)-th largest."""
    eps = problem.eta + problem.xi
    top = ordered_magnitude(eps, 1)
    k = int((1 - q) * problem.m) + 1
    denom = ordered_magnitude(eps, k)
    if denom == 0.0:
        return 1.0 if top == 0.0 else math.inf
    return top / denom


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run the figure ``spec`` names, one job at a time.

    A job is one problem: it is generated, every method runs on it (rk
    alone, qrk and dqrk as one batch), and it is dropped before the next
    job.  fig1 (noise only) and fig2 (sparse corruption of magnitude
    corruption_scale) run one job per ensemble and give one curve per
    (ensemble, method).  fig3 runs one job per (scale, trial) and gives
    one point per (scale, trial, method).
    """
    t0 = time.perf_counter()
    fig3 = spec.figure == "fig3"
    if fig3:
        jobs = [
            (0, spec.ensembles[0], si, scale, trial)
            for si, scale in enumerate(spec.scales)
            for trial in range(spec.trials)
        ]
    else:
        scale = spec.corruption_scale if spec.figure == "fig2" else 0.0
        jobs = [(ei, ens, 0, scale, 0) for ei, ens in enumerate(spec.ensembles)]
    curves: dict = {}
    horizons: dict = {}
    points = []
    for ei, ens, si, scale, trial in jobs:
        problem = generate(_gen_spec(spec, ens, scale, _child_seed(spec.seed, 1, ei, si, trial)))
        cfgs = [
            _solver_config(spec, meth, _child_seed(spec.seed, 2, ei, si, trial, mi))
            for mi, meth in enumerate(spec.methods)
        ]
        traces = {c.method: run(problem, c) for c in cfgs if c.method == "rk"}
        quantile = [c for c in cfgs if c.method != "rk"]
        if quantile:
            traces.update({t.method: t for t in run_batch(problem, quantile)})
        horizon = {meth: horizon_estimate(traces[meth], spec.horizon_window) for meth in spec.methods}
        if fig3:
            ratio = _identifiability_ratio(problem, spec.q)
            points += [
                Fig3Point(scale=scale, trial=trial, method=meth, ratio=ratio, horizon=horizon[meth])
                for meth in spec.methods
            ]
        else:
            curves[ens] = {meth: traces[meth].sq_errors for meth in spec.methods}
            horizons[ens] = horizon
        del problem, traces
    if not fig3:
        return ExperimentResult(
            spec=spec, curves=curves, horizons=horizons, wall_clock=time.perf_counter() - t0
        )
    points.sort(key=lambda p: (p.scale, p.trial, METHOD_ORDER.index(p.method)))
    return ExperimentResult(spec=spec, points=tuple(points), wall_clock=time.perf_counter() - t0)


def fig3_trend(result: ExperimentResult) -> dict:
    """Trend statistics of a fig3 result.

    Spearman rank correlation between corruption scale and the rk
    horizon over all points, plus the max/min ratio of the per-scale
    median dqrk horizon.
    """
    if result.points is None:
        raise InvalidSpecError("trend statistics need a fig3 result")
    out: dict = {}
    rk = [(p.scale, p.horizon) for p in result.points if p.method == "rk"]
    if rk:
        from scipy import stats  # slow to import; only needed here

        rho = stats.spearmanr([s for s, _ in rk], [h for _, h in rk]).statistic
        out["spearman_scale_rk_horizon"] = float(rho)
    dq = [p for p in result.points if p.method == "dqrk"]
    if dq:
        scales = sorted({p.scale for p in dq})
        medians = [
            float(np.median([p.horizon for p in dq if p.scale == s])) for s in scales
        ]
        out["dqrk_horizon_max_min_ratio"] = max(medians) / min(medians)
    return out


def _write_curve_csvs(out: Path, result: ExperimentResult) -> list[Path]:
    """data_<ensemble>.csv per ensemble, and data.csv with each of their rows
    prefixed by the ensemble: each block of rows is formatted once, for both."""
    present = [meth for meth in METHOD_ORDER if meth in result.spec.methods]
    paths = [out / f"data_{ens}.csv" for ens in result.spec.ensembles]
    with open(out / "data.csv", "w", encoding="utf-8", newline="") as fh:
        fh.writelines(csv_blocks(["ensemble", "k", *present], [], 0))
        for ens, path in zip(result.spec.ensembles, paths):
            per = result.curves[ens]
            length = max(len(per[meth]) for meth in present)
            columns = [range(length), *(per[meth] for meth in present)]
            blocks = csv_blocks(["k", *present], columns, length)
            with open(path, "w", encoding="utf-8", newline="") as ens_fh:
                ens_fh.write(next(blocks))
                for block in blocks:
                    ens_fh.write(block)
                    fh.writelines(f"{ens},{line}" for line in block.splitlines(keepends=True))
    return [*paths, out / "data.csv"]


def _curves_svg(result: ExperimentResult) -> str:
    series = []
    for ens in result.spec.ensembles:
        for meth in METHOD_ORDER:
            if meth not in result.spec.methods:
                continue
            arr = result.curves[ens][meth]
            series.append(
                svgplot.Series(
                    label=f"{ens} {meth}",
                    x=np.arange(len(arr), dtype=np.float64),
                    y=np.asarray(arr, dtype=np.float64),
                )
            )
    return svgplot.chart(
        series,
        title="squared error by iteration",
        xlabel="iteration",
        ylabel="squared error",
        ylog=True,
    )


def _scatter_svg(result: ExperimentResult) -> str:
    series = []
    for meth in METHOD_ORDER:
        pts = [p for p in result.points if p.method == meth]
        if not pts:
            continue
        series.append(
            svgplot.Series(
                label=meth,
                x=np.array([p.ratio for p in pts]),
                y=np.array([p.horizon for p in pts]),
                marker="circle",
            )
        )
    return svgplot.chart(
        series,
        title="error horizon by corruption ratio",
        xlabel="max error over bulk error",
        ylabel="empirical horizon",
        xlog=True,
        ylog=True,
    )


def emit(result: ExperimentResult, out_dir) -> list[Path]:
    """Write the result's CSV, SVG and JSON files; CSV is the source of truth.

    Curve results produce one CSV per ensemble plus a combined one;
    scatter results a single CSV.  result.json embeds everything needed
    to re-emit the other files byte-identically.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if result.curves is not None:
        written = _write_curve_csvs(out, result)
    else:
        path = out / "data.csv"
        names = [f.name for f in fields(Fig3Point)]
        columns = [[getattr(p, name) for p in result.points] for name in names]
        write_csv(path, names, columns, len(result.points))
        written = [path]

    svg = _curves_svg(result) if result.curves is not None else _scatter_svg(result)
    path = out / "plot.svg"
    svgplot.write_svg(path, svg)
    written.append(path)

    path = out / "result.json"
    write_json(path, result.to_dict())
    written.append(path)
    return written


def load_result(path) -> ExperimentResult:
    """Read back a result.json written by emit()."""
    return ExperimentResult.from_dict(read_json(path))
