"""rk, qrk, and dqrk head to head on one corrupted system.

Plain randomized Kaczmarz projects onto a row chosen with probability
proportional to its squared norm; every corrupted row it touches throws
the iterate away from the true solution.  The quantile variants compute
all residuals first and only sample among rows whose residual magnitude
is modest: qrk keeps the lowest q-fraction, dqrk additionally discards
the very smallest ones (below the q0-quantile), which tend to carry no
new information.

Run:  python3 demos/03_solver_shootout.py
"""
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from kqrk import GenSpec, SolverConfig, generate, horizon_estimate, run
from kqrk.svgplot import Series, chart

problem = generate(
    GenSpec(m=300, n=15, beta=Fraction(1, 30), corruption_scale=80.0,
            noise_stddev=0.0, seed=4)
)
print(f"{problem.m}x{problem.n} system, {problem.corruption_count()} corrupted "
      f"rows with |xi|_inf = {np.abs(problem.xi).max():.0f}, no dense noise\n")

configs = [
    SolverConfig(method="rk", iterations=8000, seed=1),
    SolverConfig(method="qrk", q=Fraction(4, 5), iterations=8000, seed=1),
    SolverConfig(method="dqrk", q=Fraction(4, 5), q0=Fraction(3, 5),
                 iterations=8000, seed=1),
]

traces = {}
for cfg in configs:
    trace = run(problem, cfg)
    traces[cfg.method] = trace
    plateau = horizon_estimate(trace, window=100)
    print(f"{cfg.method:>5}: final |x - x*|^2 = {trace.sq_errors[-1]:.3e}   "
          f"plateau over last 100 states = {plateau:.3e}   "
          f"admissible set size = {trace.admissible_size}")

# With eta = 0 and sparse corruption the quantile methods recover x*
# exactly (to machine precision) while rk orbits the corruption level.
assert traces["qrk"].sq_errors[-1] < 1e-12 < traces["rk"].sq_errors[-1]

# Early stopping: hand the config a threshold and the trace ends the
# moment the squared error crosses it.
short = run(problem, SolverConfig(method="qrk", q=Fraction(4, 5),
                                  iterations=8000, seed=1, stop_below=1e-10))
print(f"\nwith stop_below=1e-10 the qrk run ends after {short.iterations} steps")

out = Path(tempfile.mkdtemp()) / "shootout.svg"
out.write_text(
    chart(
        [Series(x=np.arange(len(t.sq_errors)), y=t.sq_errors, label=name)
         for name, t in traces.items()],
        title="squared error by iteration",
        xlabel="iteration",
        ylabel="|x - x*|^2",
    )
)
print(f"convergence plot written to {out}")
