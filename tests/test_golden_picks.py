"""Golden picks: every solver run below must choose the recorded rows.

``golden_picks.json`` holds, for each case, a SHA-256 digest of
``chosen_indices`` (little-endian int64), the step count, and samples of
``sq_errors`` and ``residual_norms`` at 21 evenly spaced states plus
|final_x|^2.  The cases cover desk fig2 jobs (both ensembles, seeds as
the experiment derives them), one desk fig3 job, small systems at
several seeds, and early stopping.

Picks are integers, so they are checked exactly; floats are checked to
1e-12 relative, which holds across BLAS builds and summation orders
where byte hashes would not.  The file was written by the solver before
its step code was folded into one kernel.  Regenerate it only for a
change that is meant to move picks or floats, and say so:

    PYTHONPATH=src python tests/test_golden_picks.py --write
"""
from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kqrk.experiments import _child_seed, _gen_spec, _solver_config, desk_profile
from kqrk.problems import GenSpec, generate
from kqrk.solvers import SolverConfig, run, run_batch

GOLDEN = Path(__file__).with_name("golden_picks.json")
REL_TOL = 1e-12
SAMPLES = 21
Q, Q0 = Fraction(4, 5), Fraction(3, 5)


def _config(method, iterations, seed, **kw):
    levels = {"rk": {}, "qrk": {"q": Q}, "dqrk": {"q": Q, "q0": Q0}}[method]
    return SolverConfig(method=method, iterations=iterations, seed=seed, **levels, **kw)


def _cases():
    """Yield (name, problem, config) for every golden run."""
    fig2 = desk_profile("fig2", seed=0, iterations=1000)
    for ei, ens in enumerate(fig2.ensembles):
        problem = generate(
            _gen_spec(fig2, ens, fig2.corruption_scale, _child_seed(fig2.seed, 1, ei, 0, 0))
        )
        for mi, meth in enumerate(fig2.methods):
            cfg = _solver_config(fig2, meth, _child_seed(fig2.seed, 2, ei, 0, 0, mi))
            yield f"desk-fig2/{ens}/{meth}", problem, cfg

    fig3 = desk_profile("fig3", seed=0, iterations=2000)
    si, trial = len(fig3.scales) - 1, 0
    scale = fig3.scales[si]
    problem = generate(
        _gen_spec(fig3, fig3.ensembles[0], scale, _child_seed(fig3.seed, 1, 0, si, trial))
    )
    for mi, meth in enumerate(fig3.methods):
        cfg = _solver_config(fig3, meth, _child_seed(fig3.seed, 2, 0, si, trial, mi))
        yield f"desk-fig3/scale{scale:g}/{meth}", problem, cfg

    for seed in (1, 2, 3):
        problem = generate(
            GenSpec(m=40, n=4, beta=Fraction(1, 10), corruption_scale=20.0, seed=seed)
        )
        for meth in ("rk", "qrk", "dqrk"):
            yield f"small/seed{seed}/{meth}", problem, _config(meth, 300, seed)

    # Early stop above the noise floor, so the crossing is clean; rk stops
    # past its first block of stored iterates (state 69).
    problem = generate(GenSpec(m=80, n=6, beta=Fraction(0), noise_stddev=0.01, seed=6))
    for meth in ("rk", "qrk"):
        yield f"stop/{meth}", problem, _config(meth, 5000, 6, stop_below=3e-4)


def _record(trace) -> dict:
    picks = np.ascontiguousarray(trace.chosen_indices, dtype="<i8")
    states = len(trace.residual_norms)
    at = sorted({int(round(k)) for k in np.linspace(0, states - 1, SAMPLES)})
    rec = {
        "steps": int(trace.iterations),
        "picks_sha256": hashlib.sha256(picks.tobytes()).hexdigest(),
        "at": at,
        "residual_norms": [float(trace.residual_norms[k]) for k in at],
        "final_x_sq": float(trace.final_x @ trace.final_x),
    }
    if trace.sq_errors is not None:
        rec["sq_errors"] = [float(trace.sq_errors[k]) for k in at]
    return rec


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


CASES = list(_cases())


def _check(got, want):
    assert got["steps"] == want["steps"]
    assert got["picks_sha256"] == want["picks_sha256"]
    assert got["at"] == want["at"]
    for key in ("residual_norms", "sq_errors"):
        assert (key in got) == (key in want)
        if key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=REL_TOL, atol=0)
    np.testing.assert_allclose(got["final_x_sq"], want["final_x_sq"], rtol=REL_TOL, atol=0)


@pytest.mark.parametrize("name,problem,config", CASES, ids=[c[0] for c in CASES])
def test_golden_picks(name, problem, config):
    _check(_record(run(problem, config, residual_norms=True)), _golden()[name])


@pytest.mark.parametrize("ensemble", ["gaussian", "uniform"])
def test_golden_picks_batched(ensemble):
    # The experiments run qrk and dqrk on one problem as one batch, whose
    # shared residual product rounds unlike a gemv: the same rows, floats
    # to REL_TOL.
    cases = [c for c in CASES if c[0].startswith(f"desk-fig2/{ensemble}/") and c[2].method != "rk"]
    traces = run_batch(cases[0][1], [c[2] for c in cases], residual_norms=True)
    for (name, _, _), trace in zip(cases, traces):
        _check(_record(trace), _golden()[name])


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(name for name, _, _ in CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden_picks.py --write")
    doc = {
        name: _record(run(problem, config, residual_norms=True))
        for name, problem, config in CASES
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
