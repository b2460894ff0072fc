"""Spans around calls into kqrk's layers, recorded from outside the package.

Each traced public function is replaced, in the module namespace its
caller looks it up in, by a wrapper that records a span (name, start,
end, parent).  Spans stay in memory until the round ends.  A wrapper may
keep small references from the call (a method name, the chosen row
indices, a path); sizes and counts are derived from them only after the
round, so the timed region pays for nothing but the clock reads.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": perf_counter(),
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if note is not None:
                span["note"] = note(args, kwargs, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def dump(self, path: Path) -> None:
        doc = [
            {k: s[k] for k in ("name", "start", "end", "parent")} for s in self.spans
        ]
        Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


# (module whose namespace is patched, attribute, span name, note)
TRACE_POINTS = [
    ("kqrk.cli", "generate", "problems.generate", None),
    ("kqrk.experiments", "generate", "problems.generate", None),
    ("kqrk.experiments", "run", "solvers.run",
     lambda a, k, r: {"method": r.method, "chosen": r.chosen_indices,
                      "xi": getattr(_arg(a, k, 0, "problem"), "xi", None)}),
    ("kqrk.cli", "run_experiment", "experiments.run_experiment", None),
    ("kqrk.cli", "emit", "experiments.emit",
     lambda a, k, r: {"paths": [str(p) for p in r]}),
    ("kqrk.svgplot", "chart", "svgplot.chart", None),
    ("kqrk.bounds", "sigma_q_min_exact", "linalg.sigma_q_min_exact",
     lambda a, k, r: {"subsets": r.subsets_examined}),
    ("kqrk.bounds", "sigma_q_min_sampled", "linalg.sigma_q_min_sampled",
     lambda a, k, r: {"subsets": r.subsets_examined}),
    ("kqrk.bounds", "singular_extremes", "linalg.singular_extremes", None),
    ("kqrk.cli", "spectral_summary", "bounds.spectral_summary", None),
    ("kqrk.cli", "build_report", "bounds.build_report",
     lambda a, k, r: {"records": len(r.records)}),
    ("kqrk.cli", "save_problem", "serialize.save_problem",
     lambda a, k, r: {"dir": str(_arg(a, k, 0, "directory"))}),
    ("kqrk.cli", "load_problem", "serialize.load_problem",
     lambda a, k, r: {"dir": str(_arg(a, k, 0, "directory"))}),
    ("kqrk.cli", "sha256_file", "serialize.sha256_file",
     lambda a, k, r: {"paths": [str(_arg(a, k, 0, "path"))]}),
    ("kqrk.serialize", "sha256_file", "serialize.sha256_file",
     lambda a, k, r: {"paths": [str(_arg(a, k, 0, "path"))]}),
]


def install(tracer: Tracer):
    """Wrap every trace point; returns a function that unwraps them all."""
    saved = []
    for module, attr, name, note in TRACE_POINTS:
        mod = importlib.import_module(module)
        fn = getattr(mod, attr)
        saved.append((mod, attr, fn))
        setattr(mod, attr, tracer.wrap(name, fn, note))

    def restore() -> None:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)

    return restore


def _mb(paths) -> float:
    return sum(os.path.getsize(p) for p in paths) / 1e6


def _dir_mb(directory: str) -> float:
    return _mb(p for p in Path(directory).iterdir() if p.is_file())


METHODS = ("rk", "qrk", "dqrk")
SUBCOMMANDS = ("gen", "bounds", "verify", "experiment")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced round; absent layers read 0."""
    spans = tracer.spans
    own = tracer.self_times()

    def pick(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def total(idx):
        return sum(spans[i]["end"] - spans[i]["start"] for i in idx)

    def per(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    gen = pick("problems.generate")
    out["problems.generate.calls"] = len(gen)
    out["problems.generate.ms_per_call"] = per(total(gen) * 1e3, len(gen))

    runs = pick("solvers.run")
    out["solvers.run.calls"] = len(runs)
    out["solvers.run.steps"] = sum(len(spans[i]["note"]["chosen"]) for i in runs)
    for method in METHODS:
        mine = [i for i in runs if spans[i]["note"]["method"] == method]
        steps = sum(len(spans[i]["note"]["chosen"]) for i in mine)
        out[f"solvers.run.us_per_step.{method}"] = per(total(mine) * 1e6, steps)
        picks = 0
        for i in mine:
            note = spans[i]["note"]
            if note["xi"] is not None:
                picks += int(np.isin(note["chosen"], np.flatnonzero(note["xi"])).sum())
        out[f"solvers.run.corrupted_picks.{method}"] = picks

    emit = pick("experiments.emit")
    out["experiments.emit.s"] = total(emit)
    out["experiments.emit.mb_written"] = sum(_mb(spans[i]["note"]["paths"]) for i in emit)
    out["svgplot.chart.s"] = total(pick("svgplot.chart"))
    out["experiments.run_experiment.self_s"] = sum(
        own[i] for i in pick("experiments.run_experiment")
    )

    for fn in ("sigma_q_min_exact", "sigma_q_min_sampled"):
        idx = pick(f"linalg.{fn}")
        n = sum(spans[i]["note"]["subsets"] for i in idx)
        out[f"linalg.{fn}.subsets"] = n
        out[f"linalg.{fn}.us_per_subset"] = per(total(idx) * 1e6, n)
    out["linalg.singular_extremes.s"] = total(pick("linalg.singular_extremes"))

    out["bounds.spectral_summary.self_s"] = sum(
        own[i] for i in pick("bounds.spectral_summary")
    )
    reports = pick("bounds.build_report")
    out["bounds.build_report.ms"] = total(reports) * 1e3
    out["bounds.build_report.records"] = sum(spans[i]["note"]["records"] for i in reports)

    for fn in ("save_problem", "load_problem"):
        idx = pick(f"serialize.{fn}")
        out[f"serialize.{fn}.s"] = total(idx)
        out[f"serialize.{fn}.mb"] = sum(_dir_mb(spans[i]["note"]["dir"]) for i in idx)
    hashes = pick("serialize.sha256_file")
    out["serialize.sha256_file.s"] = total(hashes)
    out["serialize.sha256_file.mb"] = sum(_mb(spans[i]["note"]["paths"]) for i in hashes)

    mains = pick("cli.main")
    for sub in SUBCOMMANDS:
        out[f"cli.main.self_s.{sub}"] = sum(
            own[i] for i in mains if spans[i]["note"]["subcommand"] == sub
        )
    return out
