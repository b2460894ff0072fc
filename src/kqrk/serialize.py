"""File formats: binary matrix container, CSV vectors, bundles.

Binary matrix container layout (little-endian):

    offset  size  field
    0       4     magic  b"KQRK"
    4       4     format version (u32), currently 1
    8       8     m (u64)
    16      8     n (u64)
    24      1     row_normalized flag (u8, 0 or 1)
    25      m*n*8 entries, float64, row-major

CSV files use '.' as the decimal separator and 17 significant digits,
which round-trips every float64 exactly.  A problem bundle is a directory
holding the matrix container, one single-column CSV per vector, and a
JSON manifest with the generating spec, the pre-normalization row norms,
and SHA-256 checksums of every data file.

A record stored as JSON (a spec, a scatter point, the parameter and
singular-value blocks of a bounds report) is its dataclass fields, one
key per field: ``to_plain`` writes them and ``from_plain`` reads them
back, with levels as exact fraction strings.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import struct
import sys
import typing
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .linalg import DenseMatrix, _row_blocks
from .problems import CorruptedProblem, GenSpec, InvalidSpecError

__all__ = [
    "ContainerFormatError",
    "MATRIX_FILENAME",
    "VECTOR_NAMES",
    "fmt_float",
    "save_matrix",
    "load_matrix",
    "matrix_file_equals",
    "save_vector_csv",
    "load_vector_csv",
    "sha256_file",
    "save_problem",
    "load_problem",
    "problem_files",
    "save_trace_csv",
    "to_plain",
    "from_plain",
    "write_json",
]

MAGIC = b"KQRK"
CONTAINER_VERSION = 1
_HEADER = struct.Struct("<4sIQQB")

MATRIX_FILENAME = "matrix.kqrk"
MANIFEST_FILENAME = "manifest.json"
VECTOR_NAMES = ("x_star", "b_t", "eta", "xi", "b")


class ContainerFormatError(ValueError):
    """The file is not a valid matrix container."""


def fmt_float(x: float) -> str:
    """17 significant digits; lossless for float64."""
    return format(float(x), ".17g")


def save_matrix(path: str | Path, a: DenseMatrix) -> None:
    # The entries go out from the array's own buffer, with no bytes copy;
    # only a big-endian host pays for a little-endian copy.
    payload = np.ascontiguousarray(a.data, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, CONTAINER_VERSION, a.m, a.n, int(a.row_normalized)))
        fh.write(memoryview(payload).cast("B"))


def _read_header(fh, path) -> tuple[int, int, int]:
    """Check a container's header and size; returns m, n and the flag."""
    header = fh.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise ContainerFormatError(f"{path}: truncated header")
    magic, version, m, n, flag = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ContainerFormatError(f"{path}: bad magic {magic!r}")
    if version != CONTAINER_VERSION:
        raise ContainerFormatError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + m * n * 8
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        raise ContainerFormatError(
            f"{path}: expected {expected} bytes for a {m}x{n} matrix, got {size}"
        )
    return m, n, flag


def _read_into(fh, path, data: np.ndarray) -> None:
    # Fill a C-contiguous float64 array with the next entries of the file.
    buf = memoryview(data).cast("B")
    filled = 0
    while filled < len(buf):
        got = fh.readinto(buf[filled:])
        if not got:
            raise ContainerFormatError(f"{path}: truncated entries")
        filled += got
    if sys.byteorder == "big":
        data.byteswap(inplace=True)


def load_matrix(path: str | Path) -> DenseMatrix:
    with open(path, "rb") as fh:
        m, n, flag = _read_header(fh, path)
        # Read straight into the matrix, which is the only copy of A.
        data = np.empty((m, n), dtype=np.float64)
        _read_into(fh, path, data)
    return DenseMatrix(data, row_normalized=bool(flag))


def matrix_file_equals(path: str | Path, a: DenseMatrix) -> bool:
    """Whether the container at ``path`` holds the entries of ``a``.

    The file is read one row block (``ROW_BLOCK_BYTES``) at a time, so
    the comparison holds no second copy of the matrix.
    """
    with open(path, "rb") as fh:
        m, n, _ = _read_header(fh, path)
        if (m, n) != a.shape:
            return False
        for rows in _row_blocks(m, n):
            stored = np.empty((rows.stop - rows.start, n))
            _read_into(fh, path, stored)
            if not np.array_equal(stored, a.data[rows]):
                return False
    return True


def save_vector_csv(path: str | Path, name: str, values: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name])
        for v in np.asarray(values).ravel():
            writer.writerow([fmt_float(v)])


def load_vector_csv(path: str | Path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ContainerFormatError(f"{path}: empty vector file")
        try:
            return np.array([float(row[0]) for row in reader if row], dtype=np.float64)
        except ValueError as exc:
            # the reader is lazy, so line_num is the line that failed
            raise ContainerFormatError(f"{path}:{reader.line_num}: {exc}") from None


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    buf = memoryview(bytearray(1 << 20))
    with open(path, "rb", buffering=0) as fh:
        while got := fh.readinto(buf):
            digest.update(buf[:got])
    return digest.hexdigest()


def to_plain(obj):
    """A record as JSON-ready data: a dataclass becomes a dict of its fields.

    A Fraction becomes its exact string, a tuple a list, and an ndarray
    a list through one ``tolist`` call; dicts and lists are walked, and
    anything else is returned as it is.
    """
    if is_dataclass(obj):
        return {f.name: to_plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [to_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_plain(v) for k, v in obj.items()}
    return obj


# The JSON values a scalar field accepts.  Other fields are left to the
# constructor, which reads a level from its fraction string and makes a
# list a tuple.
_JSON_SCALARS = {
    int: lambda v: isinstance(v, int) and not isinstance(v, bool),
    float: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    str: lambda v: isinstance(v, str),
    bool: lambda v: isinstance(v, bool),
}


def from_plain(cls, payload):
    """The dataclass ``cls`` from a dict written by :func:`to_plain`.

    Every field must be present, as :func:`to_plain` writes them all: a
    record read from a file that lacks one is damaged, not short.  A
    missing key, an unknown key, a scalar of the wrong JSON type, or a
    TypeError or ValueError from the constructor raises InvalidSpecError
    naming the class.
    """
    name = cls.__name__
    if not isinstance(payload, dict):
        raise InvalidSpecError(f"{name}: expected an object, got {payload!r}")
    hints = typing.get_type_hints(cls)
    known = fields(cls)
    unknown = sorted(set(payload) - {f.name for f in known})
    if unknown:
        raise InvalidSpecError(f"{name}: unknown key {unknown[0]!r}")
    for f in known:
        if f.name not in payload:
            raise InvalidSpecError(f"{name}: missing key {f.name!r}")
        fits = _JSON_SCALARS.get(hints[f.name])
        if fits and not fits(payload[f.name]):
            raise InvalidSpecError(
                f"{name}: key {f.name!r} must be {hints[f.name].__name__}, "
                f"got {payload[f.name]!r}"
            )
    try:
        return cls(**payload)
    except (TypeError, ValueError) as exc:
        raise InvalidSpecError(f"{name}: {exc}") from exc


def write_json(path: str | Path, doc) -> None:
    """``doc`` as JSON: indent 2, sorted keys, a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def problem_files(directory: str | Path) -> dict[str, Path]:
    base = Path(directory)
    files = {"matrix": base / MATRIX_FILENAME}
    for name in VECTOR_NAMES:
        files[name] = base / f"{name}.csv"
    return files


def save_problem(
    directory: str | Path,
    problem: CorruptedProblem,
    spec: GenSpec | None = None,
    *,
    extra_manifest: dict | None = None,
) -> dict:
    """Write a problem bundle; returns the manifest that was stored."""
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    files = problem_files(base)
    save_matrix(files["matrix"], problem.system)
    for name in VECTOR_NAMES:
        save_vector_csv(files[name], name, getattr(problem, name))
    checksums = {path.name: sha256_file(path) for path in files.values()}
    manifest = {
        "schema_version": 1,
        "kind": "problem",
        "spec": to_plain(spec),
        "norms": to_plain(problem.row_norms),
        "checksums": checksums,
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    write_json(base / MANIFEST_FILENAME, manifest)
    return manifest


def load_problem(directory: str | Path) -> tuple[CorruptedProblem, dict]:
    base = Path(directory)
    manifest_path = base / MANIFEST_FILENAME
    if not manifest_path.is_file():
        raise ContainerFormatError(f"{base}: no {MANIFEST_FILENAME}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ContainerFormatError(f"{manifest_path}: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ContainerFormatError(f"{manifest_path}: not a JSON object")
    files = problem_files(base)
    system = load_matrix(files["matrix"])
    vectors = {name: load_vector_csv(files[name]) for name in VECTOR_NAMES}
    norms = manifest.get("norms")
    problem = CorruptedProblem(
        system=system,
        x_star=vectors["x_star"],
        b_t=vectors["b_t"],
        eta=vectors["eta"],
        xi=vectors["xi"],
        b=vectors["b"],
        row_norms=None if norms is None else np.asarray(norms, dtype=np.float64),
    )
    return problem, manifest


def save_trace_csv(path, trace) -> None:
    """Write a solver trace as CSV: k, sq_error, residual_norm,
    chosen_index, Q0, Q.  Columns that do not apply stay empty (rk has no
    quantiles; the final state has no chosen index; a trace run without
    residual norms has none)."""
    states = len(trace.admissible_sizes)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "sq_error", "residual_norm", "chosen_index", "Q0", "Q"])
        for k in range(states):
            writer.writerow(
                [
                    str(k),
                    "" if trace.sq_errors is None else fmt_float(float(trace.sq_errors[k])),
                    "" if trace.residual_norms is None
                    else fmt_float(float(trace.residual_norms[k])),
                    str(int(trace.chosen_indices[k])) if k < len(trace.chosen_indices) else "",
                    "" if trace.quantiles_q0 is None else fmt_float(float(trace.quantiles_q0[k])),
                    "" if trace.quantiles_q is None else fmt_float(float(trace.quantiles_q[k])),
                ]
            )
