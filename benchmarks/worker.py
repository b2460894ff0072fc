"""One benchmark run's rounds in a single process: set up, then repeat.

Started by run.py, which passes the monotonic clock reading taken just
before it launched this process, so set-up time covers interpreter
start, ``import kqrk`` and building the inputs.  The process then runs
whole rounds until the deadline: each round calls ``kqrk.cli.main``
once per command of the workload, times that span, and checks the
outputs only after the clock has stopped.  Peak memory is read after
the first round's commands, before any check has run, so it is what a
process that runs the workload once would reach.  The result goes to a
JSON file for the parent.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument(
        "--deadline", type=float,
        help="monotonic time by which to stop; without it, only set up",
    )
    ap.add_argument("--trace-file", type=Path, help="trace every other round, spans to FILE")
    ns = ap.parse_args()

    t_import = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import kqrk.cli as cli

    import_s = time.perf_counter() - t_import
    if Path(cli.__file__).resolve().parent != (ROOT / "src" / "kqrk").resolve():
        raise SystemExit(f"kqrk was imported from {cli.__file__}, not from {ROOT / 'src'}")
    from workloads import commands

    argvs = commands(ns.workload, ns.seed, ns.out)
    doc = {"setup_s": time.monotonic() - ns.spawned_at, "import_s": import_s, "rounds": []}

    if ns.deadline is not None:
        from checks import CHECKS
        from tracing import Tracer, install, layer_metrics

        while True:
            traced = ns.trace_file is not None and len(doc["rounds"]) % 2 == 1
            entry, restore = cli.main, None
            if traced:
                tracer = Tracer()
                restore = install(tracer)
                entry = tracer.wrap("cli.main", cli.main, lambda a, k, r: {"subcommand": a[0][0]})
            began = time.monotonic()
            cpu0, t0 = time.process_time(), time.perf_counter()
            codes = [entry(argv) for argv in argvs]
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            if restore is not None:
                restore()
            if not doc["rounds"]:
                doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            rnd = {"traced": traced, "codes": codes, "wall_s": wall, "cpu_s": cpu}
            try:
                rnd["work"] = CHECKS[ns.workload](ns.out, ns.seed)
                rnd["error"] = None
            except Exception as exc:  # any failure here is a wrong output
                rnd["work"] = 0
                rnd["error"] = f"{type(exc).__name__}: {exc}"
            if traced:
                rnd["layers"] = layer_metrics(tracer)
                tracer.dump(ns.trace_file)
            shutil.rmtree(ns.out, ignore_errors=True)
            doc["rounds"].append(rnd)
            print(
                f"round {len(doc['rounds']) - 1}{' traced' if traced else ''}: "
                f"wall {wall:.3f} s, cpu {cpu:.3f} s, work {rnd['work']}, "
                f"exit codes {codes}, check {'ok' if rnd['error'] is None else 'FAILED'}",
                file=sys.stderr, flush=True,
            )
            # Stop at the whole number of rounds that best fills the time;
            # a traced run needs a traced and an untraced round.
            now = time.monotonic()
            need = 2 if ns.trace_file is not None else 1
            if len(doc["rounds"]) >= need and now + (now - began) / 2 >= ns.deadline:
                break

    ns.result.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
