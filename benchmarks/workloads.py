"""The three benchmark workloads: their inputs, derived from a seed.

Each workload is a fixed list of ``kqrk`` command lines, one round;
BENCHMARK.json says why each was chosen.  The seed only changes the
problems the commands draw, never the amount of work, so every round of
a workload costs the same.  This module is pure Python so that the
runner (run.py) can use it without importing numpy.
"""
from __future__ import annotations

from pathlib import Path

# desk-fig2: the fig2 desk profile (m=1000, n=200, beta=1/20, corruption
# 100, noise 1, both ensembles, rk/qrk/dqrk) cut to 1000 iterations.  The
# quantile horizons reach their noise plateau before that, and a round is
# short enough that a run holds a few dozen of them.
DESK_ITERATIONS = 1000

# paper-fig3: the fig3 paper profile (m=5000, n=2500, rk and dqrk) with
# one trial at three corruption scales, 100x apart, and 200 iterations.
PAPER_SCALES = (1.0, 100.0, 10000.0)
PAPER_ITERATIONS = 200

# certify: three bundles.  "exact" enumerates C(24, 21) = 2024 and
# C(24, 17) = 346104 subsets; "dense" samples C(22, 18) - 1 = 7314
# subsets at level q - beta; "tall" samples 2000 subsets at m=500.
CERTIFY_BUNDLES = {
    "exact": dict(m=24, n=4, beta="1/24", q="11/12", q0="3/4", mode="exact"),
    "dense": dict(m=22, n=4, beta="1/22", q="19/22", q0="3/11", mode="sampled:7314"),
    "tall": dict(m=500, n=20, beta="1/50", q="4/5", q0="3/5", mode="sampled:2000"),
}
# The sampler's seed stays fixed while the bundles change with the
# benchmark seed.  At N = C(m,k) - 1 the duplicate-rejection loop makes
# about C(m,k) * ln C(m,k) draws, a coupon-collector count whose spread
# (about 15% of that loop) would otherwise differ from seed to seed.
SAMPLER_SEED = "0"
CORRUPTION_SCALE = "100"
NOISE = "1"


WORKLOADS = ("desk-fig2", "paper-fig3", "certify")


def commands(workload: str, seed: int, out: Path) -> list[list[str]]:
    """One round of a workload: its kqrk command lines, outputs under ``out``."""
    if workload == "desk-fig2":
        return [[
            "experiment", "fig2", "--desk",
            "--iters", str(DESK_ITERATIONS),
            "--seed", str(seed),
            "--out", str(out / "fig2"),
        ]]
    if workload == "paper-fig3":
        return [[
            "experiment", "fig3", "--paper",
            "--scales", ",".join(f"{s:g}" for s in PAPER_SCALES),
            "--trials", "1",
            "--iters", str(PAPER_ITERATIONS),
            "--seed", str(seed),
            "--out", str(out / "fig3"),
        ]]
    if workload != "certify":
        raise ValueError(f"unknown workload {workload!r}")
    cmds = []
    for name, b in CERTIFY_BUNDLES.items():
        bundle = str(out / name)
        cmds.append([
            "gen", "--m", str(b["m"]), "--n", str(b["n"]), "--beta", b["beta"],
            "--scale", CORRUPTION_SCALE, "--noise", NOISE,
            "--seed", str(seed), "--out", bundle,
        ])
        cmds.append([
            "bounds", "--problem", bundle, "--q", b["q"], "--q0", b["q0"],
            "--sigma-mode", b["mode"], "--seed", SAMPLER_SEED,
            "--out", str(out / f"{name}.json"),
        ])
    cmds += [["verify", "--problem", str(out / name)] for name in CERTIFY_BUNDLES]
    return cmds
