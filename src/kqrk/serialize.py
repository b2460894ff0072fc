"""File formats: binary matrix container, CSV and JSON files, bundles.

Binary matrix container layout (little-endian):

    offset  size  field
    0       4     magic  b"KQRK"
    4       4     format version (u32), currently 1
    8       8     m (u64)
    16      8     n (u64)
    24      1     row_normalized flag (u8, 0 or 1)
    25      m*n*8 entries, float64, row-major

Every CSV and JSON file kqrk writes is laid out here.  A CSV
(``write_csv``) is a header line and one CRLF-ended line per row; a
float cell has 17 significant digits (``fmt_float``), lossless for
float64, any other cell is ``str`` of its value, and a column with no
value in a row leaves the cell empty.  A JSON file (``write_json``) is
indented by 2 with sorted keys and a trailing newline.  A problem bundle
is a directory holding the matrix container, one single-column CSV per
vector, and a JSON manifest with the generating spec, the
pre-normalization row norms, and SHA-256 checksums of every data file.

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
import re
import struct
import sys
import typing
from dataclasses import fields, is_dataclass
from fractions import Fraction
from itertools import repeat
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
    "csv_blocks",
    "write_csv",
    "to_plain",
    "from_plain",
    "read_json",
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


# CSV rows are formatted and written this many at a time.
CSV_BLOCK_ROWS = 256


def _cells(column, start: int, stop: int) -> list[str]:
    """Cells start..stop-1 of one column, by ``fmt_float`` for a float
    column and by ``str`` for any other; empty past its end or for None."""
    if column is None:
        return [""] * (stop - start)
    values = np.asarray(column[start:stop])
    cells = list(map(fmt_float if values.dtype.kind == "f" else str, values.tolist()))
    return cells + [""] * (stop - start - len(cells))


def csv_blocks(header: list[str], columns: list, rows: int):
    """A CSV file's text: its header line, then CSV_BLOCK_ROWS rows at a time
    of ``columns``, one sequence (or None) per header name.  The bytes are
    csv.writer's, as no cell kqrk writes needs quoting."""
    yield ",".join(header) + "\r\n"
    for start in range(0, rows, CSV_BLOCK_ROWS):
        stop = min(start + CSV_BLOCK_ROWS, rows)
        cells = [_cells(column, start, stop) for column in columns]
        yield "\r\n".join(map(",".join, zip(*cells))) + "\r\n"


def write_csv(path: str | Path, header: list[str], columns: list, rows: int) -> None:
    """``rows`` rows of ``columns`` under ``header``, as ``csv_blocks`` lays them out."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(csv_blocks(header, columns, rows))


def save_vector_csv(path: str | Path, name: str, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=np.float64).ravel()
    write_csv(path, [name], [values], len(values))


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


def read_json(path: str | Path) -> dict:
    """The JSON object stored at ``path``; ContainerFormatError naming the
    file for text that is not JSON, or JSON that is not an object."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ContainerFormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ContainerFormatError(f"{path}: not a JSON object")
    return doc


# json escapes the NUL, and no name or path kqrk writes can hold one.
_PLACEHOLDER = "\0@{}"


def _float_lists_out(doc, lists: list, depth: int = 0):
    """``doc`` with each nonempty all-float list replaced by a placeholder
    string; each list and its nesting depth is appended to ``lists``."""
    if isinstance(doc, dict):
        return {k: _float_lists_out(v, lists, depth + 1) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        if doc and all(map(isinstance, doc, repeat(float))):
            lists.append((doc, depth))
            return _PLACEHOLDER.format(len(lists) - 1)
        return [_float_lists_out(v, lists, depth + 1) for v in doc]
    return doc


def write_json(path: str | Path, doc) -> None:
    """``doc`` as json.dump(doc, indent=2, sort_keys=True) writes it, and a
    trailing newline.  Float lists (curves, row norms) hold nearly all the
    bytes, and an indent sends json through its pure-Python encoder, so
    each nonempty all-float list is dumped as a placeholder and written in
    its place by json's C encoder, which spells floats the same way."""
    lists: list = []
    text = json.dumps(_float_lists_out(doc, lists), indent=2, sort_keys=True)
    parts = re.split(r'"\\u0000@(\d+)"', text)  # the placeholders as json spells them
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(parts[0])
        for index, rest in zip(parts[1::2], parts[2::2]):
            values, depth = lists[int(index)]
            pad = "\n" + "  " * depth
            items = json.dumps(values)[1:-1].replace(", ", "," + pad + "  ")
            fh.write(f"[{pad}  {items}{pad}]{rest}")
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
    manifest = read_json(manifest_path)
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
    states = len(trace.chosen_indices) + 1
    columns = [range(states), trace.sq_errors, trace.residual_norms,
               trace.chosen_indices, trace.quantiles_q0, trace.quantiles_q]
    header = ["k", "sq_error", "residual_norm", "chosen_index", "Q0", "Q"]
    write_csv(path, header, columns, states)
