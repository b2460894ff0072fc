"""A miniature corruption-scale sweep, start to finish.

The third shipped experiment sweeps the corruption amplitude over a grid,
runs rk and dqrk on fresh problems for several trials per scale, and
records each run's error plateau (the max squared error over the last
100 states).  rk's plateau tracks the corruption magnitude; dqrk's stays
pinned at the noise floor.  This demo runs a desk-sized version in a few
seconds and emits the same CSV/SVG/JSON artifacts the CLI writes.

Run:  python3 demos/05_horizon_experiment.py
"""
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from kqrk import ExperimentSpec, emit, fig3_trend, load_result, run_experiment

spec = ExperimentSpec(
    figure="fig3",
    m=80,
    n=8,
    beta=Fraction(1, 20),
    q0=Fraction(3, 5),
    q=Fraction(4, 5),
    iterations=1500,
    trials=4,
    scales=(1.0, 10.0, 100.0),
    noise_stddev=1.0,
    seed=2,
)
result = run_experiment(spec)
print(f"{len(result.points)} points "
      f"({len(spec.scales)} scales x {spec.trials} trials x {len(spec.methods)} methods), "
      f"wall clock {result.wall_clock:.1f}s\n")

print(f"{'scale':>6}  {'median rk plateau':>18}  {'median dqrk plateau':>20}")
for scale in spec.scales:
    meds = {
        meth: float(np.median([p.horizon for p in result.points
                               if p.scale == scale and p.method == meth]))
        for meth in spec.methods
    }
    print(f"{scale:>6.0f}  {meds['rk']:>18.3f}  {meds['dqrk']:>20.3f}")

trend = fig3_trend(result)
print(f"\nspearman(scale, rk plateau) = {trend['spearman_scale_rk_horizon']:.3f}")
print(f"dqrk plateau spread across scales = "
      f"{trend['dqrk_horizon_max_min_ratio']:.2f}x")

# Every experiment emits the same artifact set; re-running the same spec
# reproduces them byte for byte (the CLI's verify subcommand checks that).
out = Path(tempfile.mkdtemp()) / "fig3"
for path in emit(result, out):
    print("wrote", path)
reloaded = load_result(out / "result.json")
assert reloaded.spec == spec
assert len(reloaded.points) == len(result.points)
print("result.json reloads into an equal spec with all points intact")
