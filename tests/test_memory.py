"""Memory contracts: each path that builds or moves A holds one copy of it,
and the subset engine's working set does not grow with the subset size.

tracemalloc sees numpy's buffers, so the traced peak above the starting
point measures every array a call allocates, its result included.  The
matrix is 2048 x 512 (8 MiB); a call that makes a full-size temporary
of A overshoots its bound by most of |A|.
"""
from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from kqrk import cli, solvers
from kqrk.linalg import (
    GATHER_BUDGET_BYTES,
    DenseMatrix,
    _random_subsets,
    row_normalize,
    sigma_q_min_exact,
    sigma_q_min_sampled,
)
from kqrk.problems import GenSpec, generate
from kqrk.serialize import load_problem, save_problem
from kqrk.solvers import SolverConfig

SPEC = GenSpec(m=2048, n=512, beta=Fraction(1, 16), corruption_scale=100.0, seed=5)
A_BYTES = SPEC.m * SPEC.n * 8


def traced_peak(fn, *args, **kwargs) -> int:
    """Bytes allocated at the peak of ``fn(*args)`` above the start."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


@pytest.fixture(scope="module")
def problem():
    return generate(SPEC)


def test_generate():
    assert traced_peak(generate, SPEC) <= 1.25 * A_BYTES


def test_row_normalize():
    raw = np.random.default_rng(0).standard_normal((SPEC.m, SPEC.n))
    assert traced_peak(row_normalize, raw) <= 1.25 * A_BYTES


def test_unit_row_check(problem):
    data = problem.system.data.copy()
    assert traced_peak(DenseMatrix, data, row_normalized=True) <= 0.25 * A_BYTES


def test_save_problem(problem, tmp_path):
    assert traced_peak(save_problem, tmp_path / "p", problem, SPEC) <= 0.25 * A_BYTES


def test_load_problem(problem, tmp_path):
    save_problem(tmp_path / "p", problem, SPEC)
    assert traced_peak(load_problem, tmp_path / "p") <= 1.25 * A_BYTES


def test_verify_problem(problem, tmp_path):
    # Loading, then regenerating from the spec: the loaded matrix is
    # dropped before the new one is drawn and compared with the file.
    save_problem(tmp_path / "p", problem, SPEC)
    assert traced_peak(cli._verify_problem, tmp_path / "p") <= 1.5 * A_BYTES


def test_solver_input_check(problem):
    assert traced_peak(solvers._unpack, (problem.system, problem.b)) <= 0.25 * A_BYTES
    assert traced_peak(solvers._unpack, problem) <= 0.25 * A_BYTES


@pytest.mark.parametrize("m,n,samples", [(1000, 10, 2000), (1000, 10, 32000), (2000, 30, 10)])
def test_sampled_sigma_working_set(m, n, samples):
    # Level 1/2 draws m/2-row subsets by random keys.  Beside the
    # m x n(n+1)/2 product table, the engine holds one key chunk or one
    # subset chunk (each within the budget) and 8 bytes a sample, so a
    # 16x larger sample stays under the same bound.
    a, _ = row_normalize(np.random.default_rng(0).standard_normal((m, n)))
    peak = traced_peak(sigma_q_min_sampled, a, Fraction(1, 2), samples, seed=1)
    assert peak <= 8 * m * n * (n + 1) / 2 + 2.5 * GATHER_BUDGET_BYTES


@pytest.mark.parametrize("k", [22, 7])
def test_exact_sigma_working_set(k):
    # C(29, 7) = 1,560,780 subsets, dropping 7 rows (k = 22) or keeping 7.
    # Beside the product table, exact mode holds the sums over every
    # h-subset of rows (at most half the budget) and one chunk.
    m, n = 29, 4
    a, _ = row_normalize(np.random.default_rng(3).standard_normal((m, n)))
    peak = traced_peak(sigma_q_min_exact, a, Fraction(k, m))
    assert peak <= 8 * m * n * (n + 1) / 2 + 2.5 * GATHER_BUDGET_BYTES


@pytest.mark.parametrize("samples", [200_000, math.comb(26, 10) - 200_000])
def test_rank_sampler_working_set(samples):
    # C(26, 10) = 5,311,735 subsets, below 2**63, so subsets are drawn as
    # ranks: 200,000 kept ones, or the 200,000 left out.  The sampler
    # holds 8 bytes a drawn rank (1.6 MB), one round of draws (at most
    # GATHER_BUDGET_BYTES of ranks) and one chunk, not a permutation of
    # all C(26, 10) ranks (45 and 83 MB traced when numpy's `choice` drew
    # them).
    def consume():
        for _ in _random_subsets(26, 10, samples, 1, 1000):
            pass

    assert traced_peak(consume) <= 12e6


def test_rk_never_builds_the_gram(monkeypatch):
    # rk ranks no residual, so an rk-only batch never builds the 8 m^2-byte
    # Gram, even where the rule (forced here) would take it; a qrk run on
    # the same system does.
    m, n = 2000, 100
    rng = np.random.default_rng(2)
    system = (row_normalize(rng.standard_normal((m, n)))[0], rng.standard_normal(m))
    monkeypatch.setattr(solvers, "_gram_pays", lambda m, n, iterations: True)
    gram_bytes = 8 * m * m
    rk = SolverConfig(method="rk", iterations=200)
    assert traced_peak(solvers.run, system, rk, residual_norms=True) <= 0.1 * gram_bytes
    qrk = SolverConfig(method="qrk", q=Fraction(1, 2), iterations=1)
    assert traced_peak(solvers.run, system, qrk) >= gram_bytes
