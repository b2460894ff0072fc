"""Evaluating every convergence certificate for one concrete instance.

The bounds module turns a system's singular data plus the corruption
parameters (beta, q, q0) into named records: per-step decay constants,
error-horizon radii, head-to-head comparisons of alternative forms, and
the side conditions under which each is certified.  ``build_report``
evaluates all that apply; ``certificate(name, ...)`` evaluates one.  Exact
subset enumeration makes a verdict a real certificate; sampled subset
minima only ever certify failure (the value is an upper bound, so a
satisfied condition stays "unknown").

Run:  python3 demos/04_certificate_report.py
"""
import json
from fractions import Fraction

import numpy as np

from kqrk import (
    GenSpec,
    SigmaQMinResult,
    SpectralSummary,
    build_report,
    certificate,
    generate,
    robust_params,
    row_normalize,
    spectral_summary,
)

rng = np.random.default_rng(8)
a, _ = row_normalize(rng.standard_normal((16, 2)))
params = robust_params(beta=Fraction(1, 16), q=Fraction(3, 4), q0=Fraction(1, 2))
print(f"params: beta={params.beta} q0={params.q0} q={params.q} "
      f"-> p={params.p}, r={params.r}")

# Exact mode enumerates all C(16, 11) and C(16, 7) row subsets here.
summary = spectral_summary(a, params, sigma_mode="exact")
print(f"sigma_max = {summary.sigma_max:.4f}, "
      f"sigma_(q-beta)min = {summary.sigma_q_beta_min.value:.4f} "
      f"({summary.sigma_q_beta_min.subsets_examined} subsets), "
      f"sigma_(q0-beta)min = {summary.sigma_q0_beta_min.value:.4f}\n")

problem = generate(GenSpec(m=16, n=2, beta=Fraction(1, 16), corruption_scale=30.0,
                           noise_stddev=0.2, seed=8))
report = build_report(
    summary,
    params,
    eta_inf=float(np.abs(problem.eta).max()),
    epsilon=problem.b - problem.b_t,
)

print(f"{'record':<30} {'condition':<10} values")
for rec in report.records:
    cond = {True: "holds", False: "fails", None: "unknown"}[rec.condition_satisfied]
    if rec.flags.get("not_applicable"):
        cond = "n/a"
    keys = ", ".join(f"{k}={v:.4g}" for k, v in rec.values.items()
                     if isinstance(v, float))
    print(f"{rec.name:<30} {cond:<10} {keys}")

# Reports serialize to JSON; rational params survive as exact strings.
doc = json.loads(json.dumps(report.to_dict()))
assert doc["params"]["q"] == str(params.q)
assert [r["name"] for r in doc["records"]] == [r.name for r in report.records]
print("\nJSON serialization preserved", len(doc["records"]), "records")

# A sampled subset minimum is only an upper bound on the true one, so it
# can certify that a condition fails but never that it holds.  On this
# instance the rate conditions fail either way:
sampled = spectral_summary(a, params, sigma_mode="sampled", samples=30, seed=1)
rec = build_report(sampled, params).record("qrk_rate_original")
print("under sampling, qrk_rate_original condition:",
      {True: "holds", False: "fails", None: "unknown"}[rec.condition_satisfied],
      f"(mode={rec.condition_mode})")

# ... but where the numbers would satisfy the condition, a sampled value
# downgrades the verdict from "holds" to "unknown":
mild = robust_params(beta=Fraction(1, 100), q=Fraction(1, 2))
for mode, upper_only in (("exact", False), ("sampled", True)):
    summary2 = SpectralSummary(
        m=100, n=5, sigma_max=3.0, sigma_min=1.0, frobenius_sq=100.0,
        sigma_q_beta_min=SigmaQMinResult(2.0, mode, 50, upper_only),
    )
    rec = certificate("qrk_rate_original", summary2, mild)
    print(f"same numbers, sigma mode {mode:>7}: condition ->",
          {True: "holds", False: "fails", None: "unknown"}[rec.condition_satisfied])
