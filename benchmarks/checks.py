"""Correctness checks run at the end of every benchmark round.

Nothing here calls into kqrk.  The checks compare the program's output
files against quantities recomputed from first principles (the
documented generator streams, brute-force subset spectra, the raw
certificate formulas in 60-digit arithmetic) or against properties the
methods must have.  Each check raises :class:`CheckFailed` with the first
violation it finds and otherwise returns the round's count of work
units (solver steps or row subsets).
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import CERTIFY_BUNDLES, DESK_ITERATIONS, PAPER_ITERATIONS, PAPER_SCALES

# The quantile horizons must sit at least this far below rk's.  Over 40
# seed/ensemble pairs (seeds 100-119) at 1000 iterations the smallest gap
# was 43x (median 145x), so 10x leaves room while still failing a run in
# which the quantile methods follow corrupted rows.
SEPARATION_MARGIN = 10.0
# Float agreement for quantities the program and the check compute by the
# same arithmetic in a different order.
REL_TOL = 1e-9
# Brute-force subset minima use eigvalsh of the Gram matrix: its error is
# about k * eps * sigma_max^2 (~1e-14 here), and the square root near
# sigma ~ 1e-3 amplifies that to ~1e-11.
SIGMA_ABS_TOL = 1e-9
# Raw-form certificate constants against the report, relative to the
# magnitude of their terms (the program's two routes agree to 1e-12).
CERT_RTOL = 1e-9

DESK = dict(m=1000, n=200, beta=Fraction(1, 20), scale=100.0, noise=1.0, window=100)
DESK_ENSEMBLES = ("gaussian", "uniform")
METHODS = ("rk", "qrk", "dqrk")
PAPER = dict(m=5000, n=2500, beta=Fraction(1, 20), q=Fraction(4, 5), noise=1.0)


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _close(a: float, b: float, rtol: float = REL_TOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------- generator
# The generator's documented streams: SeedSequence(seed).spawn(6) gives
# matrix, solution, support, values, signs, noise; experiments derive each
# problem and solver seed from a key path below the experiment seed.


def child_seed(*keys: int) -> int:
    a, b = np.random.SeedSequence(list(keys)).generate_state(2)
    return (int(a) << 32) | int(b)


def draw_problem(seed, m, n, beta, scale, noise, ensemble="gaussian", matrix=True):
    """(A or None, x*, eta, xi) exactly as the documented streams give them."""
    mat_rng, sol_rng, sup_rng, val_rng, _, noise_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(6)
    )
    a = None
    if matrix:
        raw = (
            mat_rng.standard_normal((m, n))
            if ensemble == "gaussian"
            else mat_rng.random((m, n))
        )
        a = raw / np.linalg.norm(raw, axis=1)[:, None]
    x_star = sol_rng.standard_normal(n)
    k = int(beta * m)
    support = np.sort(sup_rng.choice(m, size=k, replace=False))
    xi = np.zeros(m)
    xi[support] = val_rng.random(k) * scale
    eta = noise_rng.standard_normal(m) * noise
    return a, x_star, eta, xi


def initial_sq_error(method, solver_seed, a, x_star, b) -> float:
    """||x0 - x*||^2: rk/qrk start at 0, dqrk on a random row hyperplane."""
    if method != "dqrk":
        return float(x_star @ x_star)
    init_ss, _ = np.random.SeedSequence(solver_seed).spawn(2)
    m = a.shape[0]
    i = min(int(np.random.default_rng(init_ss).random() * m), m - 1)
    d = b[i] * a[i] - x_star
    return float(d @ d)


# ---------------------------------------------------------------- files


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_matrix(path: Path) -> np.ndarray:
    """The KQRK container: 25-byte little-endian header, then float64 rows."""
    raw = Path(path).read_bytes()
    magic, _version, m, n, _flag = struct.unpack_from("<4sIQQB", raw)
    _require(magic == b"KQRK", f"{path}: bad magic")
    return np.frombuffer(raw, dtype="<f8", offset=25).reshape(m, n).copy()


# ---------------------------------------------------------------- desk-fig2


def check_desk_fig2(out: Path, seed: int) -> int:
    d = out / "fig2"
    result = _read_json(d / "result.json")
    curves = result["curves"]
    horizons = result["horizons"]
    _require(sorted(curves) == sorted(DESK_ENSEMBLES), f"ensembles {sorted(curves)}")

    # data.csv must parse back to the curves in result.json.
    parsed = {ens: {m: [] for m in METHODS} for ens in DESK_ENSEMBLES}
    for row in _read_csv(d / "data.csv"):
        for m in METHODS:
            parsed[row["ensemble"]][m].append(float(row[m]))
    steps = 0
    for ens in DESK_ENSEMBLES:
        for m in METHODS:
            curve = curves[ens][m]
            _require(
                parsed[ens][m] == curve,
                f"data.csv {ens}/{m} does not match result.json",
            )
            _require(
                len(curve) == DESK_ITERATIONS + 1,
                f"{ens}/{m}: {len(curve)} states for {DESK_ITERATIONS} iterations",
            )
            _require(
                horizons[ens][m] == max(curve[-DESK["window"]:]),
                f"{ens}/{m}: horizon is not the max of the last {DESK['window']} states",
            )
            steps += len(curve) - 1

    # The first state is ||x0 - x*||^2, recomputed from the generator streams.
    for ei, ens in enumerate(DESK_ENSEMBLES):
        a, x_star, eta, xi = draw_problem(
            child_seed(seed, 1, ei, 0, 0), DESK["m"], DESK["n"], DESK["beta"],
            DESK["scale"], DESK["noise"], ens,
        )
        b = a @ x_star + eta + xi
        for mi, m in enumerate(METHODS):
            want = initial_sq_error(m, child_seed(seed, 2, ei, 0, 0, mi), a, x_star, b)
            got = curves[ens][m][0]
            _require(_close(got, want), f"{ens}/{m}: first point {got!r}, expected {want!r}")

    # The separation the paper proves: quantile horizons far below rk's.
    for ens in DESK_ENSEMBLES:
        h = horizons[ens]
        worst = max(h["qrk"], h["dqrk"])
        _require(
            h["rk"] >= SEPARATION_MARGIN * worst,
            f"{ens}: rk horizon {h['rk']:.4g} is not {SEPARATION_MARGIN:g}x "
            f"above qrk/dqrk {worst:.4g}",
        )
    return steps


# ---------------------------------------------------------------- paper-fig3


def check_paper_fig3(out: Path, seed: int) -> int:
    d = out / "fig3"
    points = _read_json(d / "result.json")["points"]
    rows = _read_csv(d / "data.csv")
    _require(len(rows) == len(points), "data.csv and result.json differ in length")
    for row, p in zip(rows, points):
        _require(
            (float(row["scale"]), int(row["trial"]), row["method"],
             float(row["ratio"]), float(row["horizon"]))
            == (p["scale"], p["trial"], p["method"], p["ratio"], p["horizon"]),
            f"data.csv row {row} does not match result.json",
        )
    got = {(p["scale"], p["method"]): p for p in points}
    _require(
        sorted(got) == sorted((s, m) for s in PAPER_SCALES for m in ("rk", "dqrk")),
        f"points cover {sorted(got)}",
    )

    # Identifiability ratio, from the noise and corruption streams alone.
    m = PAPER["m"]
    k = int((1 - PAPER["q"]) * m) + 1
    for si, scale in enumerate(PAPER_SCALES):
        _, _, eta, xi = draw_problem(
            child_seed(seed, 1, 0, si, 0), m, PAPER["n"], PAPER["beta"],
            scale, PAPER["noise"], matrix=False,
        )
        mags = np.sort(np.abs(eta + xi))[::-1]
        want = float(mags[0] / mags[k - 1])
        ratio = got[(scale, "rk")]["ratio"]
        _require(_close(ratio, want), f"scale {scale:g}: ratio {ratio!r}, expected {want!r}")

    rk = [got[(s, "rk")]["horizon"] for s in PAPER_SCALES]
    _require(
        all(lo < hi for lo, hi in zip(rk, rk[1:])),
        f"rk horizon does not rise with corruption scale: {rk}",
    )
    top = PAPER_SCALES[-1]
    _require(
        got[(top, "dqrk")]["horizon"] < got[(top, "rk")]["horizon"],
        f"at scale {top:g} dqrk horizon {got[(top, 'dqrk')]['horizon']:.4g} "
        f"is not below rk's {got[(top, 'rk')]['horizon']:.4g}",
    )
    return PAPER_ITERATIONS * len(points)


# ---------------------------------------------------------------- certify


def brute_sigma_q_min(a: np.ndarray, k: int, chunk: int = 20000) -> float:
    """min over all k-row subsets of sigma_min, by batched Gram eigvalsh.

    For k > m/2 each subset's Gram matrix is A^T A minus the outer
    products of the m - k rows left out, which is fewer rows to sum.
    """
    m, n = a.shape
    if k < n:
        return 0.0
    full = a.T @ a
    drop = 2 * k > m
    best = math.inf
    size = m - k if drop else k
    combos = itertools.combinations(range(m), size)
    while True:
        flat = itertools.chain.from_iterable(itertools.islice(combos, chunk))
        idx = np.fromiter(flat, dtype=np.intp).reshape(-1, size)
        if idx.size == 0:
            break
        rows = a[idx]  # (s, size, n)
        gram = rows.transpose(0, 2, 1) @ rows
        if drop:
            gram = full - gram
        best = min(best, float(np.linalg.eigvalsh(gram)[:, 0].min()))
    return math.sqrt(max(best, 0.0))


def _raw_certificates(m, beta, q, q0, smax, sq, sq0):
    """qrk and dqrk C from their raw definitions, with their term scales."""
    from mpmath import mp, mpf, sqrt

    mp.dps = 60
    b, qq, qq0 = (mpf(x.numerator) / mpf(x.denominator) for x in (beta, q, q0))
    sM2, s2, s02 = mpf(smax) ** 2, mpf(sq) ** 2, mpf(sq0) ** 2
    slack = 1 - qq - b
    press = 2 * sqrt(b) / sqrt(slack) + b / slack
    qrk_terms = [(qq - b) * s2 / (qq * qq * m), -sM2 / (qq * m) * press]
    top, gap = qq - qq0 - b, qq - qq0
    dqrk_terms = [
        top * s2 / (gap * qq * m),
        top * s02 / (gap * qq0 * qq * m * m),
        -sM2 / (gap * m) * press,
    ]
    return {
        name: (float(sum(terms)), float(sum(abs(t) for t in terms)))
        for name, terms in (
            ("qrk_rate_original", qrk_terms),
            ("dqrk_rate_original", dqrk_terms),
        )
    }


def check_certify(out: Path, seed: int) -> int:
    subsets = 0
    for name, b in CERTIFY_BUNDLES.items():
        report = _read_json(out / f"{name}.json")
        spec = report["spectral"]
        a = read_matrix(out / name / "matrix.kqrk")
        m = b["m"]
        beta, q, q0 = (Fraction(b[key]) for key in ("beta", "q", "q0"))
        k, k0 = int((q - beta) * m), int((q0 - beta) * m)
        sv = np.linalg.svd(a, compute_uv=False)
        _require(
            _close(spec["sigma_max"], float(sv[0]), 1e-12),
            f"{name}: sigma_max {spec['sigma_max']!r}, expected {float(sv[0])!r}",
        )
        sq, sq0 = spec["sigma_q_beta_min"], spec["sigma_q0_beta_min"]
        subsets += sq["subsets_examined"] + sq0["subsets_examined"]
        # Removing rows never raises sigma_min, so every subset value is
        # at most the full matrix's.
        for lvl, rec in (("q", sq), ("q0", sq0)):
            _require(
                0.0 <= rec["value"] <= sv[-1] + SIGMA_ABS_TOL,
                f"{name}: sigma at level {lvl} = {rec['value']!r} outside [0, sigma_min(A)]",
            )

        if b["mode"] == "exact":
            exact = {"q": brute_sigma_q_min(a, k), "q0": brute_sigma_q_min(a, k0)}
            for lvl, rec, kk in (("q", sq, k), ("q0", sq0, k0)):
                _require(
                    rec["mode"] == "exact" and not rec["is_upper_bound_only"],
                    f"{name}: level {lvl} not exact",
                )
                _require(
                    rec["subsets_examined"] == math.comb(m, kk),
                    f"{name}: level {lvl} examined {rec['subsets_examined']} of "
                    f"{math.comb(m, kk)} subsets",
                )
                _require(
                    abs(rec["value"] - exact[lvl]) <= SIGMA_ABS_TOL,
                    f"{name}: exact sigma at level {lvl} = {rec['value']!r}, "
                    f"brute force {exact[lvl]!r}",
                )
            raw = _raw_certificates(m, beta, q, q0, float(sv[0]), exact["q"], exact["q0"])
            records = {r["name"]: r for r in report["records"]}
            for rname, (want, scale) in raw.items():
                got = records[rname]["values"]["C"]
                _require(
                    abs(got - want) <= CERT_RTOL * scale,
                    f"{name}: {rname} C = {got!r}, raw formula {want!r}",
                )
        else:
            for lvl, rec in (("q", sq), ("q0", sq0)):
                _require(
                    rec["mode"] == "sampled" and rec["is_upper_bound_only"],
                    f"{name}: level {lvl} is not marked as a sampled upper bound",
                )
            for rec in report["records"]:
                if rec["condition_mode"] == "sampled":
                    _require(
                        rec["condition_satisfied"] != "true",
                        f"{name}: sampled-mode record {rec['name']} certified true",
                    )
            # Only the dense bundle is small enough for a brute force.
            if math.comb(m, k) <= 10**6 and math.comb(m, k0) <= 10**6:
                for lvl, rec, kk in (("q", sq, k), ("q0", sq0, k0)):
                    exact = brute_sigma_q_min(a, kk)
                    _require(
                        rec["value"] >= exact - SIGMA_ABS_TOL,
                        f"{name}: sampled sigma at level {lvl} = {rec['value']!r} "
                        f"is below the exact {exact!r}",
                    )
    return subsets


CHECKS = {
    "desk-fig2": check_desk_fig2,
    "paper-fig3": check_paper_fig3,
    "certify": check_certify,
}
