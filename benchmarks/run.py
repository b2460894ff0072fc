"""Benchmark runner: repeat whole rounds of one workload for a fixed time.

    python3 benchmarks/run.py --workload desk-fig2 --seed 1 --seconds 50 --trace 0

A run first times set-up in processes that only set up (interpreter
start, ``import kqrk``, building the inputs), then starts one process
(worker.py) that sets up once more and repeats rounds of the workload
until ``--seconds`` have passed since the run began.  Every process has
the BLAS pool pinned to one thread.  Each round ends with the workload's
correctness checks, run after its clock has stopped.  The run makes the
whole number of rounds that best fills the time, and every time metric
is the median over its rounds; ``setup_s`` is the median over the
SETUP_SAMPLES set-up processes.

With ``--trace 0`` the last line of output reports the end-to-end
metrics; with ``--trace 1`` rounds alternate untraced and traced, and it
reports the per-layer metrics of the traced rounds plus the tracing
overhead (traced minus untraced wall time).  Outputs are written under
``.bench_out/`` in the checkout and removed after each round; the spans
of the last traced round stay in ``.bench_out/trace-<workload>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_out"
SETUP_SAMPLES = 7
# A worker ends its last round past the deadline by at most about half a
# round plus its check, a few seconds; one that overruns by this much is
# stuck, and stopping it keeps a run well inside three minutes.
WORKER_GRACE_S = 60
# One BLAS thread: output bytes and timings must not depend on how many
# cores the machine happens to lend the pool.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, commands  # noqa: E402


def spawn(workload, seed, tag, *, deadline=None, trace=False):
    """Run worker.py once; returns its result dict, or None if it died."""
    out = WORK / f"{workload}-{os.getpid()}-{tag}"
    result = out.with_name(out.name + ".json")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--out", str(out), "--result", str(result),
    ]
    if deadline is not None:
        cmd += ["--deadline", repr(deadline)]
    if trace:
        cmd += ["--trace-file", str(WORK / f"trace-{workload}.json")]
    env = dict(os.environ, **PINNED, TMPDIR=str(WORK / "tmp"))
    timeout = WORKER_GRACE_S + (deadline - time.monotonic() if deadline else 0)
    try:
        spawned = time.monotonic()
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=timeout,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not result.is_file():
            sys.stderr.write(f"worker {tag} exited {proc.returncode}\n")
            return None
        return json.loads(result.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"worker {tag} ran past its deadline by {WORKER_GRACE_S} s\n")
        return None
    finally:
        shutil.rmtree(out, ignore_errors=True)
        result.unlink(missing_ok=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args()
    if not (ROOT / "src" / "kqrk" / "__init__.py").is_file():
        print(f"error: no kqrk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    start = time.monotonic()

    setups = []
    if not ns.trace:
        for i in range(SETUP_SAMPLES - 1):
            res = spawn(ns.workload, ns.seed, f"setup{i}")
            if res is None:
                print("error: a set-up process failed", file=sys.stderr)
                return 1
            setups.append(res["setup_s"])
    res = spawn(ns.workload, ns.seed, "rounds", deadline=start + ns.seconds, trace=bool(ns.trace))
    if res is None or not res["rounds"]:
        print("error: no round completed", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    rounds = res["rounds"]
    ops_per_round = len(commands(ns.workload, ns.seed, WORK))
    attempted = ops_per_round * len(rounds)
    failed = sum(c != 0 for r in rounds for c in r["codes"])
    correct = all(r["error"] is None for r in rounds)
    for i, r in enumerate(rounds):
        if r["error"] is not None:
            print(f"round {i}: check failed: {r['error']}", file=sys.stderr)
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]

    def med(rs, key):
        return statistics.median(r[key] for r in rs)

    if ns.trace:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        layers["cli.import_s"] = res["import_s"]
        layers["trace.overhead_s"] = med(traced, "wall_s") - med(plain, "wall_s")
        units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {u["name"]: {"value": layers[u["name"]], "unit": u["unit"]} for u in units}
    else:
        walls = sorted(r["wall_s"] for r in plain)
        print("rounds wall_s: " + " ".join(f"{w:.4f}" for w in walls))
        metrics = {
            "wall_s": {"value": med(plain, "wall_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cpu_s": {"value": med(plain, "cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "work_per_s": {
                "value": statistics.median(r["work"] / r["wall_s"] for r in plain),
                "unit": "1/s",
            },
        }
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
