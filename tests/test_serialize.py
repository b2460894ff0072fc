"""File formats: binary matrix container, CSV round trips, bundles."""
from __future__ import annotations

import hashlib
import json
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kqrk.experiments import ExperimentSpec, desk_profile
from kqrk.linalg import DenseMatrix, row_normalize
from kqrk.problems import GenSpec, InvalidSpecError, generate
from kqrk.serialize import (
    ContainerFormatError,
    MATRIX_FILENAME,
    fmt_float,
    load_matrix,
    load_problem,
    load_vector_csv,
    save_matrix,
    save_problem,
    save_trace_csv,
    save_vector_csv,
    from_plain,
    sha256_file,
    to_plain,
)
from kqrk.solvers import SolverConfig, run


# complete records, for the malformed-record cases to edit one key of
_GEN = to_plain(GenSpec(m=12, n=3))
_EXP = to_plain(desk_profile("fig1"))


class TestFloatFormat:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300)
    def test_17g_round_trips(self, x):
        assert float(fmt_float(x)) == x

    def test_examples(self):
        assert fmt_float(0.1) == "0.10000000000000001"
        assert fmt_float(1.0) == "1"


class TestMatrixContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        dm, _ = row_normalize(rng.standard_normal((13, 4)))
        path = tmp_path / "a.kqrk"
        save_matrix(path, dm)
        back = load_matrix(path)
        assert back.row_normalized == dm.row_normalized
        np.testing.assert_array_equal(back.data, dm.data)

    def test_header_layout(self, tmp_path):
        dm = DenseMatrix(np.arange(6, dtype=np.float64).reshape(2, 3) + 1.0)
        path = tmp_path / "a.kqrk"
        save_matrix(path, dm)
        blob = path.read_bytes()
        magic, version, m, n, flag = struct.unpack_from("<4sIQQB", blob)
        assert magic == b"KQRK"
        assert version == 1
        assert (m, n, flag) == (2, 3, 0)
        entries = np.frombuffer(blob, dtype="<f8", offset=struct.calcsize("<4sIQQB"))
        np.testing.assert_array_equal(entries.reshape(2, 3), dm.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.kqrk"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ContainerFormatError):
            load_matrix(path)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(1)
        dm = DenseMatrix(rng.standard_normal((4, 4)))
        path = tmp_path / "a.kqrk"
        save_matrix(path, dm)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ContainerFormatError):
            load_matrix(path)

    # Bundle matrix of GenSpec(m=50, n=3, beta=1/5, corruption 1e6, uniform,
    # seed 0) as the container format has always stored it.
    GOLDEN_FILE_SHA = "500c5a29780e042a2479d69c493a9c64dbac6ab76a49f6158a366c74a031be46"
    GOLDEN_SPEC = GenSpec(
        m=50, n=3, beta=Fraction(1, 5), corruption_scale=1e6, ensemble="uniform", seed=0,
    )

    @staticmethod
    def _reference_bytes(dm) -> bytes:
        """The container as written by formatting it whole: header + payload."""
        header = struct.pack("<4sIQQB", b"KQRK", 1, dm.m, dm.n, int(dm.row_normalized))
        return header + np.ascontiguousarray(dm.data, dtype="<f8").tobytes()

    @staticmethod
    def _reference_load(blob: bytes) -> tuple[np.ndarray, bool]:
        """The container read whole from bytes, the simplest reader there is."""
        _, _, m, n, flag = struct.unpack_from("<4sIQQB", blob)
        data = np.frombuffer(blob, dtype="<f8", offset=struct.calcsize("<4sIQQB"))
        return data.reshape(m, n).astype(np.float64), bool(flag)

    def test_golden_file_bytes(self, tmp_path):
        dm = generate(self.GOLDEN_SPEC).system
        path = tmp_path / "a.kqrk"
        save_matrix(path, dm)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.GOLDEN_FILE_SHA
        assert path.read_bytes() == self._reference_bytes(dm)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (9, 1), (130, 70), (300, 513)])
    @pytest.mark.parametrize("unit", [False, True])
    def test_reference_files_read_identically(self, tmp_path, shape, unit):
        # A file formatted whole loads through load_matrix, and a file that
        # save_matrix writes reads back through the whole-file reader.
        raw = np.random.default_rng(sum(shape)).standard_normal(shape)
        dm = row_normalize(raw)[0] if unit else DenseMatrix(raw)
        old = tmp_path / "old.kqrk"
        old.write_bytes(self._reference_bytes(dm))
        back = load_matrix(old)
        assert back.row_normalized == unit
        assert back.data.dtype == np.float64 and back.data.tobytes() == dm.data.tobytes()
        new = tmp_path / "new.kqrk"
        save_matrix(new, dm)
        data, flag = self._reference_load(new.read_bytes())
        assert flag == unit and data.tobytes() == dm.data.tobytes()

    def test_trailing_bytes(self, tmp_path):
        dm = DenseMatrix(np.ones((3, 2)))
        path = tmp_path / "a.kqrk"
        save_matrix(path, dm)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ContainerFormatError, match="expected 73 bytes for a 3x2 matrix, got 74"):
            load_matrix(path)

    def test_format_errors_name_the_fault(self, tmp_path):
        path = tmp_path / "a.kqrk"
        path.write_bytes(b"KQRK\x01\x00")
        with pytest.raises(ContainerFormatError, match="truncated header"):
            load_matrix(path)
        path.write_bytes(struct.pack("<4sIQQB", b"KQRK", 2, 1, 1, 0) + bytes(8))
        with pytest.raises(ContainerFormatError, match="unsupported version 2"):
            load_matrix(path)
        path.write_bytes(struct.pack("<4sIQQB", b"NOPE", 1, 1, 1, 0) + bytes(8))
        with pytest.raises(ContainerFormatError, match="bad magic"):
            load_matrix(path)
        path.write_bytes(struct.pack("<4sIQQB", b"KQRK", 1, 2, 2, 0) + bytes(24))
        with pytest.raises(ContainerFormatError, match="expected 57 bytes for a 2x2 matrix, got 49"):
            load_matrix(path)


class TestVectorCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(17) * 1e8
        path = tmp_path / "v.csv"
        save_vector_csv(path, "b", v)
        back = load_vector_csv(path)
        np.testing.assert_array_equal(back, v)
        assert path.read_text().splitlines()[0] == "b"

    def test_non_numeric_entry_names_file_and_line(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("b\n1.5\n\n2.5e3\nabc\n4\n")
        with pytest.raises(ContainerFormatError, match=r"v\.csv:5: .*'abc'"):
            load_vector_csv(path)


class TestProblemBundle:
    def test_round_trip(self, tmp_path):
        spec = GenSpec(m=24, n=4, beta=Fraction(1, 8), corruption_scale=30.0, seed=9)
        prob = generate(spec)
        save_problem(tmp_path / "p", prob, spec)
        back, manifest = load_problem(tmp_path / "p")
        np.testing.assert_array_equal(back.system.data, prob.system.data)
        for name in ("x_star", "b_t", "eta", "xi", "b"):
            np.testing.assert_array_equal(getattr(back, name), getattr(prob, name))
        assert manifest["kind"] == "problem"
        assert from_plain(GenSpec, manifest["spec"]) == spec

    def test_manifest_checksums_match(self, tmp_path):
        spec = GenSpec(m=10, n=2, seed=0)
        save_problem(tmp_path / "p", generate(spec), spec)
        manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
        for name, expected in manifest["checksums"].items():
            assert sha256_file(tmp_path / "p" / name) == expected
        assert MATRIX_FILENAME in manifest["checksums"]

    def test_spec_dict_round_trip(self):
        specs = [
            GenSpec(
                m=12, n=3, beta=Fraction(1, 4), corruption_scale=5.0,
                noise_stddev=0.5, ensemble="uniform", seed=42,
            ),
            GenSpec(m=12, n=3, beta=0.25, corruption_scale=5.0),
            GenSpec(m=12, n=3, noise_stddev=0.0),
            GenSpec(m=5, n=5),
        ]
        for spec in specs:
            doc = json.loads(json.dumps(to_plain(spec)))
            assert doc["beta"] == str(spec.beta)
            assert from_plain(GenSpec, doc) == spec

    @pytest.mark.parametrize(
        "cls,payload,message",
        [
            (GenSpec, {k: v for k, v in _GEN.items() if k != "m"},
             "GenSpec: missing key 'm'"),
            (GenSpec, {k: v for k, v in _GEN.items() if k != "noise_stddev"},
             "GenSpec: missing key 'noise_stddev'"),
            (GenSpec, {**_GEN, "sede": 4}, "GenSpec: unknown key 'sede'"),
            (GenSpec, {**_GEN, "m": "forty"}, "GenSpec: key 'm' must be int, got 'forty'"),
            (GenSpec, {**_GEN, "seed": True}, "GenSpec: key 'seed' must be int, got True"),
            (GenSpec, {**_GEN, "beta": "one"}, "GenSpec: beta: Invalid literal"),
            (GenSpec, {**_GEN, "m": 2}, "GenSpec: need m >= n >= 1"),
            (GenSpec, ["m", 12], "GenSpec: expected an object"),
            (ExperimentSpec, {k: v for k, v in _EXP.items() if k != "figure"},
             "ExperimentSpec: missing key 'figure'"),
            (ExperimentSpec, {**_EXP, "m": "forty"},
             "ExperimentSpec: key 'm' must be int, got 'forty'"),
            (ExperimentSpec, {**_EXP, "iters": 5}, "unknown key 'iters'"),
            (ExperimentSpec, {**_EXP, "scales": ["x"]}, "ExperimentSpec: could not"),
        ],
        ids=[
            "missing", "missing_default", "unknown", "m_forty", "bool_text",
            "bad_level", "constructor", "not_object", "exp_missing", "exp_m_forty",
            "exp_unknown", "exp_bad_scale",
        ],
    )
    def test_malformed_record_rejected(self, cls, payload, message):
        with pytest.raises(InvalidSpecError, match=message):
            from_plain(cls, payload)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ContainerFormatError):
            load_problem(tmp_path)

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", "\udcff"])
    def test_unparsable_manifest(self, tmp_path, text):
        spec = GenSpec(m=10, n=2, seed=0)
        save_problem(tmp_path / "p", generate(spec), spec)
        (tmp_path / "p" / "manifest.json").write_text(text, errors="surrogateescape")
        with pytest.raises(ContainerFormatError, match="manifest.json"):
            load_problem(tmp_path / "p")


class TestTraceCsv:
    def test_columns_and_blanks(self, tmp_path):
        prob = generate(GenSpec(m=10, n=2, seed=1))
        trace = run(prob, SolverConfig(method="dqrk", q=Fraction(4, 5), q0=Fraction(1, 2), iterations=5))
        path = tmp_path / "t.csv"
        save_trace_csv(path, trace)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,sq_error,residual_norm,chosen_index,Q0,Q"
        assert len(lines) == 7  # header + states 0..5
        final = lines[-1].split(",")
        assert final[3] == ""  # no step leaves the final state
        assert final[4] != "" and final[5] != ""
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] != ""

    def test_rk_has_no_quantiles(self, tmp_path):
        prob = generate(GenSpec(m=10, n=2, seed=1))
        trace = run(prob, SolverConfig(method="rk", iterations=3))
        path = tmp_path / "t.csv"
        save_trace_csv(path, trace)
        row = path.read_text().strip().splitlines()[1].split(",")
        assert row[4] == "" and row[5] == ""
