"""Self-test of the benchmark's correctness checks.

    python3 benchmarks/selftest.py [--seed N]

Runs one round of every workload (outputs under .bench_out/selftest),
confirms that each check accepts the genuine outputs, then applies one
forgery at a time to a fresh copy and confirms that the check rejects
it.  Forgeries keep data.csv and result.json consistent with each other
where that matters, so each one reaches the check it is aimed at.
Exits 1 if a genuine output is rejected or a forgery is accepted.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_out" / "selftest"


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _save(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _edit_fig2(out, fn):
    """Edit fig2's result.json and rewrite data.csv to match it."""
    d = out / "fig2"
    doc = _load(d / "result.json")
    fn(doc)
    _save(d / "result.json", doc)
    curves = doc["curves"]
    _write_csv(
        d / "data.csv",
        ["ensemble", "k", "rk", "qrk", "dqrk"],
        (
            [ens, k, *(repr(curves[ens][m][k]) for m in ("rk", "qrk", "dqrk"))]
            for ens in ("gaussian", "uniform")
            for k in range(len(curves[ens]["rk"]))
        ),
    )


def _edit_fig3(out, fn):
    """Edit fig3's result.json and rewrite data.csv to match it."""
    d = out / "fig3"
    doc = _load(d / "result.json")
    fn(doc)
    _save(d / "result.json", doc)
    _write_csv(
        d / "data.csv",
        ["scale", "trial", "method", "ratio", "horizon"],
        (
            [repr(p["scale"]), p["trial"], p["method"], repr(p["ratio"]), repr(p["horizon"])]
            for p in doc["points"]
        ),
    )


def _edit_csv_cell(path, row_index, column):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    rows[row_index][column] = repr(float(rows[row_index][column]) * 1.01)
    _write_csv(path, list(rows[0]), ([r[c] for c in rows[0]] for r in rows))


def _edit_report(out, name, fn):
    doc = _load(out / f"{name}.json")
    fn(doc)
    _save(out / f"{name}.json", doc)


def _point(doc, scale, method):
    return next(p for p in doc["points"] if p["scale"] == scale and p["method"] == method)


def _raise_qrk_tail(doc):
    curves = doc["curves"]["uniform"]
    curves["qrk"][-100:] = curves["rk"][-100:]
    doc["horizons"]["uniform"]["qrk"] = max(curves["qrk"][-100:])


def _swap_rk(doc):
    a, b = _point(doc, 1.0, "rk"), _point(doc, 100.0, "rk")
    a["horizon"], b["horizon"] = b["horizon"], a["horizon"]


def _flip_sampled_verdict(doc):
    rec = next(r for r in doc["records"] if r["condition_mode"] == "sampled")
    rec["condition_satisfied"] = "true"


def _scale(container, key, factor):
    container[key] *= factor


FORGERIES = {
    "desk-fig2": [
        ("first point of a curve edited",
         lambda out: _edit_fig2(out, lambda d: _scale(d["curves"]["gaussian"]["rk"], 0, 1.01))),
        ("data.csv point differs from result.json",
         lambda out: _edit_csv_cell(out / "fig2" / "data.csv", 10, "qrk")),
        ("qrk tail and horizon raised to rk's",
         lambda out: _edit_fig2(out, _raise_qrk_tail)),
        ("horizon halved, no longer the max of its window",
         lambda out: _edit_fig2(out, lambda d: _scale(d["horizons"]["gaussian"], "dqrk", 0.5))),
    ],
    "paper-fig3": [
        ("rk horizons of two scales swapped", lambda out: _edit_fig3(out, _swap_rk)),
        ("dqrk horizon above rk's at the top scale",
         lambda out: _edit_fig3(out, lambda d: _scale(_point(d, 10000.0, "dqrk"), "horizon", 1e9))),
        ("identifiability ratio edited",
         lambda out: _edit_fig3(out, lambda d: _scale(_point(d, 100.0, "rk"), "ratio", 1.001))),
    ],
    "certify": [
        ("exact sigma_{q,min} scaled by 1 + 1e-6",
         lambda out: _edit_report(out, "exact", lambda d: _scale(
             d["spectral"]["sigma_q0_beta_min"], "value", 1 + 1e-6))),
        ("sampled sigma_{q,min} below the exact value",
         lambda out: _edit_report(out, "dense", lambda d: _scale(
             d["spectral"]["sigma_q_beta_min"], "value", 0.5))),
        ("sampled-mode verdict flipped to true",
         lambda out: _edit_report(out, "tall", _flip_sampled_verdict)),
        ("qrk decay constant C edited",
         lambda out: _edit_report(out, "exact", lambda d: _scale(
             next(r for r in d["records"] if r["name"] == "qrk_rate_original")["values"],
             "C", 1 + 1e-6))),
    ],
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ns = ap.parse_args()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import kqrk.cli as cli
    from checks import CHECKS, CheckFailed
    from workloads import commands

    ok = True
    for name, forgeries in FORGERIES.items():
        genuine = WORK / name / "genuine"
        shutil.rmtree(WORK / name, ignore_errors=True)
        codes = [cli.main(argv) for argv in commands(name, ns.seed, genuine)]
        if any(codes):
            print(f"{name}: kqrk exited {codes}")
            return 1
        try:
            CHECKS[name](genuine, ns.seed)
            print(f"{name}: genuine output accepted")
        except CheckFailed as exc:
            print(f"{name}: genuine output REJECTED: {exc}")
            ok = False
        for i, (what, forge) in enumerate(forgeries):
            copy = WORK / name / f"forged-{i}"
            shutil.copytree(genuine, copy)
            forge(copy)
            try:
                CHECKS[name](copy, ns.seed)
                print(f"{name}: forgery ACCEPTED: {what}")
                ok = False
            except CheckFailed as exc:
                print(f"{name}: forgery rejected ({what}): {exc}")
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
