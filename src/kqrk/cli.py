"""Command-line entry point: gen, solve, bounds, experiment, verify.

Every command writes a manifest next to its outputs with the tool
version, a build hash over the package sources, the full resolved
parameter set, the seeds, and content checksums, so any output can be
reproduced byte-identically on the same build.  Wall-clock timing is the
one manifest field allowed to differ between identical runs.

Each command's ``Opt`` table decides its flags: the flag, the record
field it sets (GenSpec, SolverConfig, RobustParams or ExperimentSpec),
and so the manifest ``parameters``, read back from that record.  Every
value comes from its flag or its default.  Level flags (beta, q, q0)
are snapped to the nearest value whose product with m is an integer; a
snap is reported on stderr and recorded in the manifest.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import build_report, noise_allowance, robust_params, spectral_summary
from .experiments import (
    ExperimentSpec,
    desk_profile,
    emit,
    paper_profile,
    run_experiment,
)
from .linalg import (
    NonIntegerQuantileError,
    ProductTableTooLargeError,
    TooManySubsetsError,
    ZeroRowError,
    as_level,
    snap_level,
)
from .problems import GenSpec, InvalidSpecError, check_shape, generate
from .serialize import (
    VECTOR_NAMES,
    ContainerFormatError,
    load_problem,
    matrix_file_equals,
    problem_files,
    read_json,
    save_problem,
    save_trace_csv,
    sha256_file,
    from_plain,
    to_plain,
    write_json,
)
from .solvers import InvalidRegimeError, SolverConfig, _gram_pays, run

__all__ = ["main", "build_hash"]

TOOL_NAME = "kqrk"


class UsageError(Exception):
    """Bad flags: reported on stderr, exit code 2."""


class VerificationError(Exception):
    """An artifact failed re-verification: exit code 1."""


_VALIDATION_ERRORS = (
    UsageError,
    InvalidSpecError,
    InvalidRegimeError,
    NonIntegerQuantileError,
    ZeroRowError,
    ContainerFormatError,
    FileNotFoundError,
    NotADirectoryError,
)


@functools.lru_cache(maxsize=1)
def build_hash() -> str:
    """12-hex digest over the package's own source files."""
    root = Path(__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


# ---------------------------------------------------------------- options


@dataclass(frozen=True)
class Opt:
    name: str
    conv: object  # str -> value
    default: object = None
    required: bool = False
    help: str = ""
    field: str = ""  # the field the flag sets in the command's record


def _conv_list(s: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in s.split(",") if part.strip())


def _conv_float_list(s: str) -> tuple[float, ...]:
    return tuple(float(part) for part in _conv_list(s))


def _conv_sigma_mode(s: str) -> tuple[str, int | None]:
    if s == "exact":
        return "exact", None
    if s.startswith("sampled:"):
        count = int(s.split(":", 1)[1])
        if count < 1:
            raise ValueError("sample count must be positive")
        return "sampled", count
    raise ValueError(f"expected 'exact' or 'sampled:N', got {s!r}")


def resolve_opts(ns: argparse.Namespace, opts: list[Opt]) -> dict:
    """Each flag's value, converted, or its default when it is not given."""
    out = {}
    for opt in opts:
        raw = getattr(ns, opt.name)
        if raw is None:
            if opt.required:
                raise UsageError(f"--{opt.name.replace('_', '-')} is required")
            out[opt.name] = opt.default
            continue
        try:
            out[opt.name] = opt.conv(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"--{opt.name.replace('_', '-')}: {exc}") from exc
    return out


def _add_opts(parser: argparse.ArgumentParser, opts: list[Opt]) -> None:
    for opt in opts:
        parser.add_argument(
            f"--{opt.name.replace('_', '-')}",
            dest=opt.name,
            default=None,
            help=opt.help,
        )


def _snap_levels(opt: dict, opts: list[Opt], m: int) -> dict:
    """Snap every level given in ``opt`` to the nearest k/m, in place.

    Each snap is reported on stderr; the returned dict of them is the
    manifest's ``snapped`` block.
    """
    snaps: dict = {}
    for o in opts:
        value = opt[o.name]
        if o.conv is not as_level or value is None:
            continue
        opt[o.name] = snapped = snap_level(value, m)
        if snapped != value:
            print(
                f"{o.name}*m must be an integer; nearest feasible {o.name} = "
                f"{float(snapped):.6g} (requested {value})",
                file=sys.stderr,
            )
            snaps[o.name] = {"requested": str(value), "used": str(snapped)}
    return snaps


def _fields(opt: dict, opts: list[Opt]) -> dict:
    """The record fields the resolved flags set."""
    return {o.field: opt[o.name] for o in opts if o.field}


def _parameters(opts: list[Opt], record) -> dict:
    """Manifest parameters: each field-setting flag, as the record holds it."""
    return {o.name: to_plain(getattr(record, o.field)) for o in opts if o.field}


# ---------------------------------------------------------------- manifest


def _manifest(
    subcommand: str,
    argv: list[str],
    parameters: dict,
    seeds: dict,
    outputs: dict[str, str],
    *,
    snapped: dict | None = None,
    wall_clock: float = 0.0,
) -> dict:
    doc = {
        "schema_version": 1,
        "tool": {
            "name": TOOL_NAME,
            "version": __version__,
            "build_hash": build_hash(),
        },
        "subcommand": subcommand,
        "argv": list(argv),
        "parameters": parameters,
        "seeds": seeds,
        "outputs": outputs,
        "timing": {"wall_clock_s": wall_clock},
    }
    if snapped:
        doc["snapped"] = snapped
    return doc


def _checksums(paths: list[Path], base: Path) -> dict[str, str]:
    return {str(p.relative_to(base)): sha256_file(p) for p in sorted(paths)}


# ---------------------------------------------------------------- commands


_GEN_OPTS = [
    Opt("m", int, required=True, field="m", help="rows"),
    Opt("n", int, required=True, field="n", help="columns"),
    Opt("beta", as_level, default=Fraction(0), field="beta", help="corrupted fraction"),
    Opt("scale", float, default=0.0, field="corruption_scale", help="corruption magnitude"),
    Opt("noise", float, default=1.0, field="noise_stddev", help="noise stddev"),
    Opt("ensemble", str, default="gaussian", field="ensemble", help="gaussian|uniform"),
    Opt("seed", int, default=0),
    Opt("out", str, required=True, help="output directory"),
]


def cmd_gen(ns: argparse.Namespace, argv: list[str]) -> int:
    t0 = time.perf_counter()
    opt = resolve_opts(ns, _GEN_OPTS)
    check_shape(opt["m"], opt["n"])
    snaps = _snap_levels(opt, _GEN_OPTS, opt["m"])
    spec = GenSpec(**_fields(opt, _GEN_OPTS), seed=opt["seed"])
    problem = generate(spec)
    out = Path(opt["out"])
    run_doc = _manifest(
        "gen",
        argv,
        _parameters(_GEN_OPTS, spec),
        {"seed": spec.seed},
        {},
        snapped=snaps,
        wall_clock=time.perf_counter() - t0,
    )
    save_problem(out, problem, spec, extra_manifest={"run": run_doc})
    return 0


_SOLVE_OPTS = [
    Opt("problem", str, required=True, help="problem bundle directory"),
    Opt("method", str, required=True, field="method", help="rk|qrk|dqrk"),
    Opt("q", as_level, field="q", help="upper quantile level"),
    Opt("q0", as_level, field="q0", help="lower quantile level (dqrk)"),
    Opt("iters", int, default=10_000, field="iterations"),
    Opt("seed", int, default=0),
    Opt("x0", str, default="default", field="x0", help="zero|project_first|default"),
    Opt("trace", str, required=True, help="trace CSV output path"),
]


def cmd_solve(ns: argparse.Namespace, argv: list[str]) -> int:
    t0 = time.perf_counter()
    opt = resolve_opts(ns, _SOLVE_OPTS)
    problem, _ = load_problem(opt["problem"])
    snaps = _snap_levels(opt, _SOLVE_OPTS, problem.m)
    config = SolverConfig(**_fields(opt, _SOLVE_OPTS), seed=opt["seed"])
    trace = run(problem, config, residual_norms=True)
    trace_path = Path(opt["trace"])
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    save_trace_csv(trace_path, trace)
    manifest_path = trace_path.with_suffix(".manifest.json")
    doc = _manifest(
        "solve",
        argv,
        {
            "problem": opt["problem"],
            **_parameters(_SOLVE_OPTS, config),
            "residual_mode": "incremental"
            if config.method != "rk" and _gram_pays(problem.m, problem.n, config.iterations)
            else "full",
        },
        {"seed": config.seed},
        _checksums([trace_path], trace_path.parent),
        snapped=snaps,
        wall_clock=time.perf_counter() - t0,
    )
    write_json(manifest_path, doc)
    return 0


_BOUNDS_OPTS = [
    Opt("problem", str, required=True, help="problem bundle directory"),
    Opt("beta", as_level, field="beta", help="assumed corruption level (default: bundle)"),
    Opt("q", as_level, required=True, field="q", help="upper quantile level"),
    Opt("q0", as_level, field="q0", help="lower quantile level (dqrk records)"),
    Opt("sigma_mode", _conv_sigma_mode, default=("exact", None), help="exact|sampled:N"),
    Opt("seed", int, default=0, help="seed for sampled mode"),
    Opt("out", str, required=True, help="report JSON path"),
]


def cmd_bounds(ns: argparse.Namespace, argv: list[str]) -> int:
    t0 = time.perf_counter()
    opt = resolve_opts(ns, _BOUNDS_OPTS)
    problem, bundle = load_problem(opt["problem"])
    if opt["beta"] is None:
        spec = bundle.get("spec")
        opt["beta"] = problem.minimal_beta() if spec is None else from_plain(GenSpec, spec).beta
    snaps = _snap_levels(opt, _BOUNDS_OPTS, problem.m)
    params = robust_params(**_fields(opt, _BOUNDS_OPTS))
    mode, samples = opt["sigma_mode"]
    try:
        summary = spectral_summary(
            problem.system, params, sigma_mode=mode, samples=samples, seed=opt["seed"]
        )
    except TooManySubsetsError as exc:
        raise UsageError(f"{exc}; use --sigma-mode sampled:N instead") from exc
    except ProductTableTooLargeError as exc:
        raise UsageError(str(exc)) from exc
    epsilon = problem.eta + problem.xi
    eta_inf = noise_allowance(epsilon, params.beta)
    report = build_report(summary, params, eta_inf=eta_inf, epsilon=epsilon)
    out = Path(opt["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    write_json(out, report.to_dict())
    doc = _manifest(
        "bounds",
        argv,
        {
            "problem": opt["problem"],
            **_parameters(_BOUNDS_OPTS, params),
            "sigma_mode": mode if samples is None else f"{mode}:{samples}",
        },
        {"seed": opt["seed"]},
        _checksums([out], out.parent),
        snapped=snaps,
        wall_clock=time.perf_counter() - t0,
    )
    write_json(out.with_suffix(".manifest.json"), doc)
    return 0


_EXPERIMENT_OPTS = [
    Opt("m", int, field="m"),
    Opt("n", int, field="n"),
    Opt("beta", as_level, field="beta"),
    Opt("q", as_level, field="q"),
    Opt("q0", as_level, field="q0"),
    Opt("iters", int, field="iterations"),
    Opt("trials", int, field="trials"),
    Opt("scales", _conv_float_list, field="scales", help="comma-separated corruption scales"),
    Opt("ensembles", _conv_list, field="ensembles",
        help="comma-separated subset of gaussian,uniform"),
    Opt("methods", _conv_list, field="methods", help="comma-separated subset of rk,qrk,dqrk"),
    Opt("scale", float, field="corruption_scale", help="fig2 corruption magnitude"),
    Opt("noise", float, field="noise_stddev", help="noise stddev"),
    Opt("window", int, field="horizon_window", help="horizon window"),
    Opt("seed", int, default=0),
    Opt("out", str, required=True, help="output directory"),
]


def cmd_experiment(ns: argparse.Namespace, argv: list[str]) -> int:
    t0 = time.perf_counter()
    opt = resolve_opts(ns, _EXPERIMENT_OPTS)
    figure = ns.figure
    if ns.desk and ns.paper:
        raise UsageError("--desk and --paper are mutually exclusive")
    profile = "paper" if ns.paper else "desk"
    factory = paper_profile if ns.paper else desk_profile
    base = factory(figure)  # the profile's shape, unless overridden
    m = opt["m"] if opt["m"] is not None else base.m
    check_shape(m, opt["n"] if opt["n"] is not None else base.n)
    snaps = _snap_levels(opt, _EXPERIMENT_OPTS, m)
    overrides = {k: v for k, v in _fields(opt, _EXPERIMENT_OPTS).items() if v is not None}
    spec = factory(figure, seed=opt["seed"], **overrides)
    print(
        f"running {figure} ({profile}, m={spec.m}, n={spec.n}, "
        f"iterations={spec.iterations})",
        file=sys.stderr,
    )
    result = run_experiment(spec)
    out = Path(opt["out"])
    written = emit(result, out)
    doc = _manifest(
        "experiment",
        argv,
        {"figure": figure, "profile": profile, **to_plain(spec)},
        {"seed": spec.seed},
        _checksums(written, out),
        snapped=snaps,
        wall_clock=time.perf_counter() - t0,
    )
    write_json(out / "manifest.json", doc)
    return 0


_VERIFY_OPTS = [
    Opt("problem", str, help="problem bundle directory"),
    Opt(
        "experiment",
        str,
        help="experiment output directory (re-runs the experiment once)",
    ),
]


def _verify_checksums(base: Path, sums: dict[str, str]) -> None:
    for rel, expected in sums.items():
        path = base / rel
        if not path.is_file():
            raise VerificationError(f"missing output file {path}")
        actual = sha256_file(path)
        if actual != expected:
            raise VerificationError(
                f"checksum mismatch for {path}: {actual} != {expected}"
            )


def _verify_problem(directory: Path) -> None:
    problem, manifest = load_problem(directory)  # re-runs all invariants
    sums = manifest.get("checksums")
    if sums:
        _verify_checksums(directory, sums)
    spec_doc = manifest.get("spec")
    if spec_doc is None:
        return
    # Only the vectors are kept: the regenerated matrix is compared with
    # the file block by block, so one copy of A is alive at a time.
    stored = {name: getattr(problem, name) for name in VECTOR_NAMES}
    del problem
    regen = generate(from_plain(GenSpec, spec_doc))
    if not matrix_file_equals(problem_files(directory)["matrix"], regen.system):
        raise VerificationError("matrix does not reproduce bit-identically from its spec")
    for name in VECTOR_NAMES:
        if not np.array_equal(getattr(regen, name), stored[name]):
            raise VerificationError(
                f"{name} does not reproduce bit-identically from its spec"
            )


def _verify_experiment(directory: Path) -> None:
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise VerificationError(f"{directory}: no manifest.json")
    manifest = read_json(manifest_path)
    _verify_checksums(directory, manifest.get("outputs", {}))
    doc = read_json(directory / "result.json")
    spec = from_plain(ExperimentSpec, doc.get("spec"))
    # Re-run the stored spec: re-emitting the stored result alone would
    # accept a result.json edited together with its checksums.
    result = run_experiment(spec)
    with tempfile.TemporaryDirectory() as tmp:
        for path in emit(result, tmp):
            stored = directory / path.name
            if not stored.is_file() or stored.read_bytes() != path.read_bytes():
                raise VerificationError(
                    f"{stored.name} does not reproduce byte-identically from its spec"
                )


def cmd_verify(ns: argparse.Namespace, argv: list[str]) -> int:
    opt = resolve_opts(ns, _VERIFY_OPTS)
    targets = [t for t in (opt["problem"], opt["experiment"]) if t]
    if len(targets) != 1:
        raise UsageError("pass exactly one of --problem or --experiment")
    # An artifact that exists but no longer loads cleanly is a failed
    # verification, not a usage error; only a missing path stays usage.
    try:
        if opt["problem"]:
            _verify_problem(Path(opt["problem"]))
        else:
            _verify_experiment(Path(opt["experiment"]))
    except (FileNotFoundError, NotADirectoryError, VerificationError):
        raise
    except (InvalidSpecError, ContainerFormatError, ZeroRowError) as exc:
        raise VerificationError(str(exc)) from exc
    target = opt["problem"] or opt["experiment"]
    kind = "problem bundle" if opt["problem"] else "experiment"
    print(f"ok: {kind} {target}")
    return 0


# ---------------------------------------------------------------- dispatch


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="corrupted linear systems: generate, solve, certify, reproduce",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"{TOOL_NAME} {__version__}+{build_hash()}",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_gen = sub.add_parser("gen", help="generate a corrupted problem bundle")
    _add_opts(p_gen, _GEN_OPTS)
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="run a solver on a bundle")
    _add_opts(p_solve, _SOLVE_OPTS)
    p_solve.set_defaults(func=cmd_solve)

    p_bounds = sub.add_parser("bounds", help="evaluate certificates for a bundle")
    _add_opts(p_bounds, _BOUNDS_OPTS)
    p_bounds.set_defaults(func=cmd_bounds)

    p_exp = sub.add_parser("experiment", help="run a packaged experiment")
    p_exp.add_argument("figure", choices=("fig1", "fig2", "fig3"))
    p_exp.add_argument("--desk", action="store_true", help="desk-scale profile (default)")
    p_exp.add_argument("--paper", action="store_true", help="full-scale profile")
    _add_opts(p_exp, _EXPERIMENT_OPTS)
    p_exp.set_defaults(func=cmd_experiment)

    p_verify = sub.add_parser("verify", help="re-verify an output directory")
    _add_opts(p_verify, _VERIFY_OPTS)
    p_verify.set_defaults(func=cmd_verify)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return make_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ns = _parser().parse_args(argv)
    try:
        return ns.func(ns, argv)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
