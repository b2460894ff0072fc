"""Solvers and certificates for corrupted overdetermined linear systems.

The package solves Ax = b where b carries dense noise and sparse, possibly
huge corruption, using randomized row-projection methods that discard the
worst residuals each step (rk, qrk, dqrk).  Alongside the solvers it
evaluates the convergence and error-horizon guarantees for concrete
instances and ships the reproducible experiments comparing the methods.

The names below are the ones the demos and the README use; everything
else is imported from its submodule (``kqrk.linalg``, ``kqrk.problems``,
``kqrk.solvers``, ``kqrk.bounds``, ``kqrk.experiments``,
``kqrk.serialize``).
"""
from .linalg import (
    MultisetQuantileSpec,
    NonIntegerQuantileError,
    SigmaQMinResult,
    feasible_level,
    quantile,
    row_normalize,
    sigma_q_min_exact,
    sigma_q_min_sampled,
    snap_level,
)
from .problems import GenSpec, canonical_decomposition, generate
from .solvers import SolverConfig, horizon_estimate, run
from .bounds import (
    SpectralSummary,
    build_report,
    certificate,
    robust_params,
    spectral_summary,
)
from .experiments import ExperimentSpec, emit, fig3_trend, load_result, run_experiment
from .serialize import load_problem, save_problem

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # linalg
    "MultisetQuantileSpec",
    "NonIntegerQuantileError",
    "SigmaQMinResult",
    "feasible_level",
    "quantile",
    "row_normalize",
    "sigma_q_min_exact",
    "sigma_q_min_sampled",
    "snap_level",
    # problems
    "GenSpec",
    "canonical_decomposition",
    "generate",
    # solvers
    "SolverConfig",
    "horizon_estimate",
    "run",
    # bounds
    "SpectralSummary",
    "build_report",
    "certificate",
    "robust_params",
    "spectral_summary",
    # experiments
    "ExperimentSpec",
    "emit",
    "fig3_trend",
    "load_result",
    "run_experiment",
    # serialize
    "load_problem",
    "save_problem",
]
