"""Experiment orchestration: specs, fairness, determinism, emission."""
import csv
import io
import json
from fractions import Fraction

import numpy as np
import pytest

from kqrk.experiments import (
    ExperimentResult,
    ExperimentSpec,
    Fig3Point,
    _identifiability_ratio,
    _write_curve_csvs,
    desk_profile,
    emit,
    fig3_trend,
    load_result,
    paper_profile,
    run_experiment,
)
from kqrk.linalg import NonIntegerQuantileError
from kqrk.problems import GenSpec, InvalidSpecError, generate
from kqrk.serialize import from_plain, save_trace_csv, save_vector_csv, to_plain, write_json
from kqrk.solvers import SolverConfig, run

SMALL = dict(
    m=40,
    n=4,
    beta=Fraction(1, 20),
    q=Fraction(4, 5),
    q0=Fraction(3, 5),
    iterations=150,
    seed=42,
)


def _spec(figure, **over):
    kw = dict(SMALL)
    kw.update(over)
    return ExperimentSpec(figure=figure, **kw)


class TestSpec:
    def test_curve_defaults(self):
        spec = _spec("fig1")
        assert spec.ensembles == ("gaussian", "uniform")
        assert spec.methods == ("rk", "qrk", "dqrk")

    def test_scatter_defaults(self):
        spec = _spec("fig3", trials=2, scales=(1.0, 10.0))
        assert spec.ensembles == ("gaussian",)
        assert spec.methods == ("rk", "dqrk")

    def test_round_trip(self):
        records = [
            _spec("fig3", trials=3, scales=(1.0, 3.0), methods=("dqrk",)),
            _spec("fig1"),
            _spec("fig2", scales=[1, 3], ensembles=["uniform"], corruption_scale=30.0),
            _spec("fig3", trials=2, scales=(1.0, 10.0), horizon_window=20),
            Fig3Point(scale=10.0, trial=1, method="dqrk", ratio=np.inf, horizon=0.25),
        ]
        for record in records:
            text = json.dumps(to_plain(record), sort_keys=True)
            assert from_plain(type(record), json.loads(text)) == record

    def test_profiles(self):
        desk = desk_profile("fig1")
        paper = paper_profile("fig1")
        assert (desk.m, desk.n, desk.iterations) == (1000, 200, 20_000)
        assert (paper.m, paper.n, paper.iterations) == (5000, 2500, 50_000)
        # corruption geometry is shared between the two profiles
        assert (desk.beta, desk.q0, desk.q) == (paper.beta, paper.q0, paper.q)

    @pytest.mark.parametrize(
        "over",
        [
            {"methods": ()},
            {"methods": ("rk", "sor")},
            {"methods": ("rk", "rk")},
            {"ensembles": ()},
            {"ensembles": ("cauchy",)},
            {"iterations": 0},
            {"horizon_window": 0},
            {"horizon_window": 152},  # iterations + 2
            {"q0": Fraction(9, 10)},  # q0 > q
            {"noise_stddev": -1.0},
            {"corruption_scale": -2.0},
        ],
    )
    def test_rejects(self, over):
        with pytest.raises(InvalidSpecError):
            _spec("fig1", **over)

    def test_unknown_figure(self):
        with pytest.raises(InvalidSpecError):
            _spec("fig9")

    def test_fig3_constraints(self):
        with pytest.raises(InvalidSpecError):
            _spec("fig3", trials=0)
        with pytest.raises(InvalidSpecError):
            _spec("fig3", trials=2, scales=())
        with pytest.raises(InvalidSpecError):
            _spec("fig3", trials=2, ensembles=("gaussian", "uniform"))

    def test_levels_must_be_integral(self):
        with pytest.raises(NonIntegerQuantileError):
            _spec("fig1", q=Fraction(1, 3))


class TestCurveFigures:
    def test_structure_and_horizons(self):
        spec = _spec("fig1")
        result = run_experiment(spec)
        assert set(result.curves) == {"gaussian", "uniform"}
        for ens in spec.ensembles:
            assert set(result.curves[ens]) == {"rk", "qrk", "dqrk"}
            for meth in spec.methods:
                arr = result.curves[ens][meth]
                assert len(arr) == spec.iterations + 1
                expected = float(np.max(arr[-spec.horizon_window :]))
                assert result.horizons[ens][meth] == expected

    def test_methods_share_problem_within_ensemble(self):
        result = run_experiment(_spec("fig1"))
        for ens in ("gaussian", "uniform"):
            per = result.curves[ens]
            # rk and qrk both start from zero, on the same instance
            assert per["rk"][0] == per["qrk"][0]
        assert result.curves["gaussian"]["rk"][0] != result.curves["uniform"]["rk"][0]

    def test_fig2_scale_zero_reduces_to_fig1(self, tmp_path):
        r1 = run_experiment(_spec("fig1"))
        r2 = run_experiment(_spec("fig2", corruption_scale=0.0))
        for ens in ("gaussian", "uniform"):
            for meth in ("rk", "qrk", "dqrk"):
                np.testing.assert_array_equal(
                    r1.curves[ens][meth], r2.curves[ens][meth]
                )
        assert r1.horizons == r2.horizons
        d1, d2 = tmp_path / "f1", tmp_path / "f2"
        emit(r1, d1)
        emit(r2, d2)
        for name in ("data_gaussian.csv", "data_uniform.csv", "data.csv", "plot.svg"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_fig2_corruption_changes_curves(self):
        r0 = run_experiment(_spec("fig2", corruption_scale=0.0))
        r100 = run_experiment(_spec("fig2", corruption_scale=100.0))
        assert not np.array_equal(
            r0.curves["gaussian"]["rk"], r100.curves["gaussian"]["rk"]
        )



class TestScatterFigure:
    SPEC = dict(trials=2, scales=(1.0, 10.0))

    def test_point_grid(self):
        spec = _spec("fig3", **self.SPEC)
        result = run_experiment(spec)
        assert len(result.points) == 2 * 2 * 2  # scales x trials x methods
        key = [(p.scale, p.trial, p.method) for p in result.points]
        assert key == sorted(key, key=lambda t: (t[0], t[1], ("rk", "dqrk").index(t[2]) if t[2] != "qrk" else 1))
        # both methods of one (scale, trial) cell share the realized ratio
        by_cell = {}
        for p in result.points:
            by_cell.setdefault((p.scale, p.trial), set()).add(p.ratio)
        assert all(len(v) == 1 for v in by_cell.values())

    def test_fresh_problem_per_cell(self):
        result = run_experiment(_spec("fig3", **self.SPEC))
        ratios = {(p.scale, p.trial): p.ratio for p in result.points}
        assert len(set(ratios.values())) == len(ratios)

    def test_trend_keys(self):
        spec = _spec("fig3", trials=3, scales=(1.0, 10.0, 100.0))
        stats = fig3_trend(run_experiment(spec))
        assert -1.0 <= stats["spearman_scale_rk_horizon"] <= 1.0
        assert stats["dqrk_horizon_max_min_ratio"] >= 1.0

    def test_trend_needs_points(self):
        result = run_experiment(_spec("fig1"))
        with pytest.raises(InvalidSpecError):
            fig3_trend(result)


class TestIdentifiabilityRatio:
    def test_zero_error_is_one(self):
        prob = generate(GenSpec(m=20, n=2, beta=Fraction(0), noise_stddev=0.0))
        assert _identifiability_ratio(prob, Fraction(4, 5)) == 1.0

    def test_sparse_only_is_infinite(self):
        # one corrupted row, no noise: the bulk magnitude is exactly zero
        prob = generate(
            GenSpec(
                m=20,
                n=2,
                beta=Fraction(1, 20),
                corruption_scale=50.0,
                noise_stddev=0.0,
                seed=3,
            )
        )
        assert _identifiability_ratio(prob, Fraction(4, 5)) == float("inf")

    def test_matches_order_statistics(self):
        prob = generate(
            GenSpec(m=20, n=2, beta=Fraction(1, 10), corruption_scale=30.0, seed=1)
        )
        eps = np.abs(prob.eta + prob.xi)
        top = np.sort(eps)[::-1]
        expected = top[0] / top[4]  # (1 - 4/5) * 20 + 1 = 5th largest
        assert _identifiability_ratio(prob, Fraction(4, 5)) == pytest.approx(
            expected, rel=1e-15
        )


class TestEmission:
    def test_no_wall_clock_in_json(self):
        result = run_experiment(_spec("fig1", ensembles=("gaussian",), methods=("rk",)))
        doc = result.to_dict()
        assert "wall_clock" not in json.dumps(doc)
        assert result.wall_clock > 0.0

    def test_reemit_byte_identical_curves(self, tmp_path):
        result = run_experiment(_spec("fig1"))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        names = [p.name for p in emit(result, d1)]
        assert names == [
            "data_gaussian.csv",
            "data_uniform.csv",
            "data.csv",
            "plot.svg",
            "result.json",
        ]
        emit(load_result(d1 / "result.json"), d2)
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_reemit_byte_identical_scatter(self, tmp_path):
        result = run_experiment(_spec("fig3", trials=2, scales=(1.0, 10.0)))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        names = [p.name for p in emit(result, d1)]
        assert names == ["data.csv", "plot.svg", "result.json"]
        emit(load_result(d1 / "result.json"), d2)
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_scatter_csv_shape(self, tmp_path):
        result = run_experiment(_spec("fig3", trials=2, scales=(1.0, 10.0)))
        emit(result, tmp_path)
        lines = (tmp_path / "data.csv").read_text().splitlines()
        assert lines[0] == "scale,trial,method,ratio,horizon"
        assert len(lines) == 1 + len(result.points)

    def test_curve_csv_columns_follow_method_order(self, tmp_path):
        spec = _spec("fig1", ensembles=("gaussian",), methods=("dqrk", "rk"))
        emit(run_experiment(spec), tmp_path)
        header = (tmp_path / "data_gaussian.csv").read_text().splitlines()[0]
        assert header == "k,rk,dqrk"

    def test_curve_csvs_parse_back_to_the_curves(self, tmp_path):
        # data.csv is the per-ensemble files, each row prefixed by its
        # ensemble, and every value reads back to the curve's float.
        result = run_experiment(_spec("fig1"))
        emit(result, tmp_path)
        combined = (tmp_path / "data.csv").read_text().splitlines()
        assert combined[0] == "ensemble,k,rk,qrk,dqrk"
        body = combined[1:]
        for ens in ("gaussian", "uniform"):
            lines = (tmp_path / f"data_{ens}.csv").read_text().splitlines()
            assert lines[0] == "k,rk,qrk,dqrk"
            assert [f"{ens},{line}" for line in lines[1:]] == body[: len(lines) - 1]
            body = body[len(lines) - 1 :]
            for k, line in enumerate(lines[1:]):
                fields = line.split(",")
                assert fields[0] == str(k)
                for meth, text in zip(("rk", "qrk", "dqrk"), fields[1:]):
                    assert float(text) == result.curves[ens][meth][k]
        assert body == []

    def test_curve_files_match_the_standard_writers(self, tmp_path):
        # Every CSV and JSON writer is byte-identical to what the csv module
        # and json.dump(indent=2, sort_keys=True) write.  The curves are of
        # unequal length with non-finite, signed-zero and extreme values,
        # long enough to span several blocks of rows.  The writers are called
        # directly: plot.svg is not under test, and its log axis cannot place
        # a subnormal minimum.
        rng = np.random.default_rng(8)
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1]
        curves = {}
        for ens, length in (("gaussian", 9001), ("uniform", 3)):
            curves[ens] = {}
            for i, meth in enumerate(("rk", "qrk", "dqrk")):
                arr = rng.standard_normal(length - 2 * i if length > 3 else length) * 1e3
                arr[: min(len(special), len(arr))] = special[: len(arr)]
                curves[ens][meth] = arr
        horizons = {ens: {"rk": np.inf, "qrk": np.nan, "dqrk": 1.5} for ens in curves}
        result = ExperimentResult(
            spec=_spec("fig2", iterations=9000), curves=curves, horizons=horizons
        )
        _write_curve_csvs(tmp_path, result)
        write_json(tmp_path / "result.json", result.to_dict())

        def reference_csv(header, rows):
            buf = io.StringIO(newline="")
            writer = csv.writer(buf)
            writer.writerow(header)
            writer.writerows(rows)
            return buf.getvalue().encode()

        def reference_json(doc):
            buf = io.StringIO()
            json.dump(doc, buf, indent=2, sort_keys=True)
            return (buf.getvalue() + "\n").encode()

        def cell(values, k):
            if values is None or k >= len(values):
                return ""
            v = values[k]
            return format(float(v), ".17g") if isinstance(v, (float, np.floating)) else str(v)

        def rows(per):
            length = max(len(arr) for arr in per.values())
            for k in range(length):
                yield [str(k)] + [cell(per[m], k) for m in ("rk", "qrk", "dqrk")]

        combined = []
        for ens, per in curves.items():
            expected = reference_csv(["k", "rk", "qrk", "dqrk"], rows(per))
            assert (tmp_path / f"data_{ens}.csv").read_bytes() == expected
            combined += [[ens, *row] for row in rows(per)]
        expected = reference_csv(["ensemble", "k", "rk", "qrk", "dqrk"], combined)
        assert (tmp_path / "data.csv").read_bytes() == expected
        assert (tmp_path / "result.json").read_bytes() == reference_json(result.to_dict())

        # Solver traces: dqrk stopped early by stop_below (shorter arrays,
        # quantile columns) and rk without residual norms (empty columns).
        problem = generate(
            GenSpec(m=40, n=4, beta=Fraction(1, 20), corruption_scale=100, noise_stddev=0, seed=3)
        )
        traces = [
            run(problem, SolverConfig(method="dqrk", q=Fraction(4, 5), q0=Fraction(3, 5),
                                      iterations=5000, stop_below=1e-3), residual_norms=True),
            run(problem, SolverConfig(method="rk", iterations=700)),
        ]
        assert len(traces[0].chosen_indices) < 5000 and traces[1].residual_norms is None
        for i, trace in enumerate(traces):
            save_trace_csv(tmp_path / f"trace{i}.csv", trace)
            columns = [trace.sq_errors, trace.residual_norms, trace.chosen_indices,
                       trace.quantiles_q0, trace.quantiles_q]
            expected = reference_csv(
                ["k", "sq_error", "residual_norm", "chosen_index", "Q0", "Q"],
                ([str(k)] + [cell(c, k) for c in columns]
                 for k in range(len(trace.admissible_sizes))),
            )
            assert (tmp_path / f"trace{i}.csv").read_bytes() == expected

        vector = np.concatenate([special, rng.standard_normal(600)])
        save_vector_csv(tmp_path / "v.csv", "b", vector)
        expected = reference_csv(["b"], ([cell(vector, k)] for k in range(len(vector))))
        assert (tmp_path / "v.csv").read_bytes() == expected

        points = (
            Fig3Point(scale=1.0, trial=0, method="rk", ratio=np.inf, horizon=2.5),
            Fig3Point(scale=1.0, trial=0, method="dqrk", ratio=np.inf, horizon=0.1),
            Fig3Point(scale=10.0, trial=1, method="rk", ratio=3.25, horizon=-0.0),
        )
        fig3 = ExperimentResult(spec=_spec("fig3", trials=2, scales=(1.0, 10.0)), points=points)
        emit(fig3, tmp_path / "fig3")
        expected = reference_csv(
            ["scale", "trial", "method", "ratio", "horizon"],
            ([cell([p.scale], 0), str(p.trial), p.method, cell([p.ratio], 0), cell([p.horizon], 0)]
             for p in points),
        )
        assert (tmp_path / "fig3" / "data.csv").read_bytes() == expected
        assert (tmp_path / "fig3" / "result.json").read_bytes() == reference_json(fig3.to_dict())

        doc = {
            "nested": [[0.5, -1e-300], [np.nan, np.inf, -np.inf], [], [[2.0], [3.0, 4.0]]],
            "empty": [],
            "mixed": [1, 2.5, -0.0],
            "nonfinite": [np.nan, -np.inf, np.inf, 5e-324],
            "norms": vector.tolist(),
            "scalars": {"a": 1.0, "b": None, "c": True, "d": "x"},
        }
        write_json(tmp_path / "doc.json", doc)
        assert (tmp_path / "doc.json").read_bytes() == reference_json(doc)
        write_json(tmp_path / "top.json", [0.25, np.nan])
        assert (tmp_path / "top.json").read_bytes() == reference_json([0.25, np.nan])

    def test_loaded_spec_round_trips(self, tmp_path):
        spec = _spec("fig3", trials=2, scales=(1.0, 10.0))
        result = run_experiment(spec)
        emit(result, tmp_path)
        back = load_result(tmp_path / "result.json")
        assert back.spec == spec
        assert back.points == result.points
