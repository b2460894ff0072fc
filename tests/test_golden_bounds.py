"""Golden reports: ``build_report`` must reproduce the recorded records.

``golden_bounds.json`` holds, for each case, the inputs (a synthetic
``SpectralSummary``, the levels, and the optional eta_inf, epsilon, row
norms and start-point flag) and the ``BoundReport.to_dict()`` the
evaluators gave for them.  The cases cover single- and double-quantile
params, exact and sampled subset minima, beta = 0, decay constants on
both sides of 0, sigma_min = 0 and epsilon = 0.

Every value is compared by ``repr`` and every flag and verdict exactly.
The values come only from IEEE arithmetic, ``math.fsum`` and
``math.sqrt``, which are correctly rounded, so they do not depend on the
platform.  The inputs are stored with the outputs, so the cases do not
depend on a random-number stream either.  The file was written by the
evaluators before they were folded into one; regenerate it only for a
change that is meant to move a certificate, and say so:

    PYTHONPATH=src python tests/test_golden_bounds.py --write
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kqrk.bounds import SpectralSummary, build_report, robust_params
from kqrk.linalg import SigmaQMinResult

GOLDEN = Path(__file__).with_name("golden_bounds.json")


def _subset_min(value: float, exact: bool) -> list:
    return [value, "exact", 0, False] if exact else [value, "sampled", 7, True]


def _input(m, n, smax, smin, frob, sq, sq0, beta, q, q0, *, exact=True,
           exact0=None, eta_inf=None, epsilon=None, row_norms=None, x0=None) -> dict:
    return {
        "m": m,
        "n": n,
        "sigma_max": smax,
        "sigma_min": smin,
        "frobenius_sq": frob,
        "sigma_q_beta_min": _subset_min(sq, exact),
        "sigma_q0_beta_min": None
        if sq0 is None
        else _subset_min(sq0, exact if exact0 is None else exact0),
        "beta": str(beta),
        "q": str(q),
        "q0": None if q0 is None else str(q0),
        "eta_inf": eta_inf,
        "epsilon": None if epsilon is None else [float(v) for v in epsilon],
        "row_norms": None if row_norms is None else [float(v) for v in row_norms],
        "x0_on_hyperplane": x0,
    }


def _random_inputs(rng, double: bool, index: int) -> dict:
    """One random regime: levels on a grid of d, m a multiple of d."""
    while True:
        d = int(rng.integers(8, 32))
        m = d * int(rng.integers(1, 3))
        # odd cases take beta in {0, 1/m}, so C > 0 and certified
        # conditions turn up next to the usual C <= 0
        if index % 2:
            b = Fraction(int(rng.integers(0, 2)), m)
        else:
            b = Fraction(int(rng.integers(0, max(2, d // 6))), d)
        q = Fraction(int(rng.integers(d // 3, d - 1)), d)
        q0 = Fraction(int(rng.integers(1, max(2, int(q * d)))), d) if double else None
        if not (b < q and q + b < 1):
            continue
        if double and not (b < q0 < q and q - q0 > b):
            continue
        break
    smax = float(rng.uniform(1.0, 30.0))
    sq = smax * float(rng.uniform(0.05, 0.99))
    eps = np.round(rng.standard_normal(m) * 0.1, 3)
    eps[rng.integers(0, m, max(1, m // 20))] = np.round(rng.uniform(10.0, 1e3), 1)
    return _input(
        m,
        int(rng.integers(1, 20)),
        smax,
        sq * float(rng.uniform(0.1, 1.0)),
        smax**2 * float(rng.uniform(1.0, 20.0)),
        sq,
        sq * float(rng.uniform(0.1, 1.0)) if double else None,
        b,
        q,
        q0,
        exact=bool(index % 3),
        exact0=bool(index % 5) if double else None,
        eta_inf=float(rng.uniform(0.0, 3.0)),
        epsilon=eps,
        row_norms=np.round(rng.uniform(0.5, 2.0, m), 2) if index % 4 == 0 else None,
        x0=(None, True, False)[index % 3] if double else None,
    )


def _cases() -> dict:
    """Name -> inputs for every golden case (used by --write only)."""
    rng = np.random.default_rng(20261018)
    cases = {}
    for i in range(18):
        cases[f"random/qrk/{i:02d}"] = _random_inputs(rng, False, i)
    for i in range(18):
        cases[f"random/dqrk/{i:02d}"] = _random_inputs(rng, True, i)

    spike = np.full(40, 0.01)
    spike[0] = 50.0
    lvl = dict(beta=Fraction(1, 40), q=Fraction(4, 5))
    for exact in (True, False):
        mode = "exact" if exact else "sampled"
        # C > 0: sigma_q_min close to sigma_max and one corrupted row
        cases[f"positive/qrk/{mode}"] = _input(
            40, 2, 3.0, 2.0, 30.0, 2.8, None, **lvl, q0=None, exact=exact,
            eta_inf=0.01, epsilon=spike)
        cases[f"positive/dqrk/{mode}"] = _input(
            40, 2, 3.0, 2.0, 30.0, 2.8, 2.5, **lvl, q0=Fraction(1, 2), exact=exact,
            eta_inf=0.01, epsilon=spike, x0=True)
        # C <= 0: a small subset minimum against a large sigma_max
        cases[f"negative/qrk/{mode}"] = _input(
            40, 2, 30.0, 2.0, 3000.0, 0.5, None, **lvl, q0=None, exact=exact,
            eta_inf=0.5, epsilon=spike)
        cases[f"negative/dqrk/{mode}"] = _input(
            40, 2, 30.0, 2.0, 3000.0, 0.5, 0.4, **lvl, q0=Fraction(1, 2), exact=exact,
            eta_inf=0.5, epsilon=spike)
    cases["beta0/qrk"] = _input(
        20, 3, 3.0, 1.0, 20.0, 1.5, None, 0, Fraction(1, 2), None,
        eta_inf=1.0, epsilon=np.linspace(-1.0, 1.0, 20))
    cases["beta0/dqrk"] = _input(
        20, 3, 3.0, 1.0, 20.0, 1.5, 1.0, 0, Fraction(1, 2), Fraction(1, 4),
        eta_inf=1.0, epsilon=np.linspace(-1.0, 1.0, 20), x0=False)
    cases["sigma_min0/qrk"] = _input(
        40, 2, 3.0, 0.0, 30.0, 2.8, None, **lvl, q0=None, eta_inf=0.01, epsilon=spike)
    cases["sigma_min0/dqrk"] = _input(
        40, 2, 3.0, 0.0, 30.0, 2.8, 2.5, **lvl, q0=Fraction(1, 2),
        eta_inf=0.01, epsilon=spike)
    cases["epsilon0/qrk"] = _input(
        40, 2, 3.0, 2.0, 30.0, 2.8, None, **lvl, q0=None, eta_inf=0.0,
        epsilon=np.zeros(40))
    cases["epsilon0/dqrk"] = _input(
        40, 2, 3.0, 2.0, 30.0, 2.8, 2.5, **lvl, q0=Fraction(1, 2), eta_inf=0.0,
        epsilon=np.zeros(40), row_norms=np.full(40, 2.0))
    cases["rates-only/dqrk"] = _input(
        24, 4, 5.0, 1.0, 60.0, 3.0, 2.0, Fraction(1, 24), Fraction(11, 12),
        Fraction(3, 4), exact0=False)
    # r = 4: past the comparison gate
    cases["r4/qrk"] = _input(
        10, 2, 4.0, 1.0, 20.0, 2.0, None, Fraction(2, 5), Fraction(1, 2), None,
        eta_inf=1.0)
    # the single-column instance that certifies the eh comparison
    eh = np.full(28, 0.001)
    eh[0] = 100.0
    cases["eh-certified/qrk"] = _input(
        28, 1, 28**0.5, 28**0.5, 28.0, 13**0.5, None, Fraction(1, 28),
        Fraction(1, 2), None, eta_inf=0.001, epsilon=eh)
    return cases


def _summary(doc: dict) -> SpectralSummary:
    def subset_min(v):
        return None if v is None else SigmaQMinResult(*v)

    return SpectralSummary(
        m=doc["m"],
        n=doc["n"],
        sigma_max=doc["sigma_max"],
        sigma_min=doc["sigma_min"],
        frobenius_sq=doc["frobenius_sq"],
        sigma_q_beta_min=subset_min(doc["sigma_q_beta_min"]),
        sigma_q0_beta_min=subset_min(doc["sigma_q0_beta_min"]),
    )


def _report(doc: dict) -> dict:
    params = robust_params(
        Fraction(doc["beta"]),
        Fraction(doc["q"]),
        None if doc["q0"] is None else Fraction(doc["q0"]),
    )
    arrays = {
        key: None if doc[key] is None else np.array(doc[key])
        for key in ("epsilon", "row_norms")
    }
    report = build_report(
        _summary(doc),
        params,
        eta_inf=doc["eta_inf"],
        x0_on_hyperplane=doc["x0_on_hyperplane"],
        **arrays,
    )
    return _reprs(report.to_dict())


def _reprs(obj):
    """The document with every float replaced by its repr."""
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _reprs(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reprs(v) for v in obj]
    return obj


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


NAMES = sorted(_golden()) if GOLDEN.exists() else []


@pytest.mark.parametrize("name", NAMES)
def test_golden_report(name):
    case = _golden()[name]
    got = _report(case["input"])
    want = case["report"]
    assert got["params"] == want["params"]
    assert got["spectral"] == want["spectral"]
    assert [r["name"] for r in got["records"]] == [r["name"] for r in want["records"]]
    for g, w in zip(got["records"], want["records"]):
        assert g == w, g["name"]


def test_golden_file_covers_the_edges():
    golden = _golden()
    assert len(golden) >= 50
    records = [
        (case["input"], rec)
        for case in golden.values()
        for rec in case["report"]["records"]
    ]
    c_values = [
        float(rec["values"]["C"])
        for _, rec in records
        if rec["name"].endswith(("rate_original", "error_horizon")) and rec["values"]
    ]
    assert min(c_values) <= 0.0 < max(c_values)
    names = {rec["name"] for _, rec in records}
    assert {"dqrk_rate_original", "dqrk_error_horizon", "eh_comparison"} <= names
    verdicts = {rec["condition_satisfied"] for _, rec in records}
    assert verdicts == {"true", "false", "unknown"}
    modes = {rec["condition_mode"] for _, rec in records}
    assert {"exact", "sampled"} <= modes
    inputs = [case["input"] for case in golden.values()]
    assert any(doc["beta"] == "0" for doc in inputs)
    assert any(doc["q0"] is None for doc in inputs)
    assert any(doc["q0"] is not None for doc in inputs)
    assert any(doc["sigma_min"] == 0.0 for doc in inputs)
    assert any(doc["epsilon"] is not None and not any(doc["epsilon"]) for doc in inputs)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden_bounds.py --write")
    doc = {
        name: {"input": inputs, "report": _report(inputs)}
        for name, inputs in _cases().items()
    }
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(doc.items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
