"""End-to-end CLI behavior through in-process main() calls."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kqrk import solvers
from kqrk.cli import build_hash, main
from kqrk.experiments import emit, load_result
from kqrk.serialize import sha256_file


def _gen(tmp_path, name="prob", m=40, n=4, beta="1/20", scale="30", seed="5", extra=()):
    out = tmp_path / name
    rc = main(
        [
            "gen",
            "--m", str(m),
            "--n", str(n),
            "--beta", beta,
            "--scale", scale,
            "--noise", "1.0",
            "--seed", seed,
            "--out", str(out),
            *extra,
        ]
    )
    assert rc == 0
    return out


class TestGenVerify:
    def test_round_trip(self, tmp_path, capsys):
        bundle = _gen(tmp_path)
        assert (bundle / "manifest.json").is_file()
        assert main(["verify", "--problem", str(bundle)]) == 0
        assert "ok: problem bundle" in capsys.readouterr().out

    def test_manifest_contents(self, tmp_path):
        bundle = _gen(tmp_path)
        doc = json.loads((bundle / "manifest.json").read_text())
        assert doc["kind"] == "problem"
        assert doc["run"]["tool"]["name"] == "kqrk"
        assert doc["run"]["tool"]["build_hash"] == build_hash()
        assert doc["run"]["parameters"]["beta"] == "1/20"
        assert doc["run"]["seeds"] == {"seed": 5}
        assert set(doc["checksums"])  # nonempty checksum table

    def test_tampered_bundle_fails_verification(self, tmp_path, capsys):
        bundle = _gen(tmp_path)
        target = bundle / "b.csv"
        text = target.read_text().splitlines()
        text[1] = "999.5"
        target.write_text("\n".join(text) + "\n")
        assert main(["verify", "--problem", str(bundle)]) == 1
        assert "verification failed" in capsys.readouterr().err

    def test_byte_tamper_fails_checksum(self, tmp_path, capsys):
        # Appending a blank line keeps the parsed vector (and every bundle
        # invariant) intact, so only the checksum table can catch it.
        bundle = _gen(tmp_path)
        target = bundle / "b.csv"
        target.write_bytes(target.read_bytes() + b"\n")
        assert main(["verify", "--problem", str(bundle)]) == 1
        err = capsys.readouterr().err
        assert "verification failed" in err
        assert "b.csv" in err

    @pytest.mark.parametrize(
        "field,value,first_mismatch",
        [("seed", 6, "matrix"), ("noise_stddev", 2.0, "eta")],
    )
    def test_spec_that_does_not_reproduce_fails(
        self, tmp_path, capsys, field, value, first_mismatch
    ):
        # The manifest is outside the checksum table, so an edited spec
        # is caught only by regenerating: a new seed draws another matrix,
        # a new noise level the same matrix with other noise.
        bundle = _gen(tmp_path)
        path = bundle / "manifest.json"
        doc = json.loads(path.read_text())
        doc["spec"][field] = value
        path.write_text(json.dumps(doc))
        assert main(["verify", "--problem", str(bundle)]) == 1
        assert f"{first_mismatch} does not reproduce" in capsys.readouterr().err

    def test_beta_snap_reported(self, tmp_path, capsys):
        bundle = _gen(tmp_path, beta="0.06")  # 0.06 * 40 = 2.4, snaps to 2/40
        err = capsys.readouterr().err
        assert "beta*m must be an integer" in err
        assert "nearest feasible beta = 0.05" in err
        doc = json.loads((bundle / "manifest.json").read_text())
        assert doc["run"]["snapped"]["beta"] == {
            "requested": "3/50",
            "used": "1/20",
        }

    def test_missing_required_flag(self, tmp_path, capsys):
        rc = main(["gen", "--m", "10", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "--n is required" in capsys.readouterr().err

    def test_invalid_spec_is_usage_error(self, tmp_path, capsys):
        rc = main(
            ["gen", "--m", "4", "--n", "8", "--out", str(tmp_path / "x")]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "name,text,fault",
        [
            ("b.csv", "b\n0.5\nfour\n", "b.csv:3: could not convert"),
            ("manifest.json", "{not json", "manifest.json: not valid JSON"),
        ],
    )
    def test_malformed_bundle_file(self, tmp_path, capsys, name, text, fault):
        # a validation error (exit 2) to the commands that read the bundle,
        # a failed verification (exit 1) to verify
        bundle = _gen(tmp_path)
        (bundle / name).write_text(text)
        capsys.readouterr()
        for argv in (
            ["solve", "--problem", str(bundle), "--method", "rk",
             "--trace", str(tmp_path / "t.csv")],
            ["bounds", "--problem", str(bundle), "--q", "1/2", "--out", str(tmp_path / "r.json")],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and fault in err
        assert main(["verify", "--problem", str(bundle)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("verification failed: ") and fault in err


class TestSolve:
    def test_trace_and_manifest(self, tmp_path):
        bundle = _gen(tmp_path)
        trace = tmp_path / "run" / "trace.csv"
        rc = main(
            [
                "solve",
                "--problem", str(bundle),
                "--method", "dqrk",
                "--q", "4/5",
                "--q0", "3/5",
                "--iters", "50",
                "--trace", str(trace),
            ]
        )
        assert rc == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "k,sq_error,residual_norm,chosen_index,Q0,Q"
        assert len(lines) == 1 + 51
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] != "" and first[4] != ""
        last = lines[-1].split(",")
        assert last[3] == "" and last[5] != ""
        doc = json.loads((tmp_path / "run" / "trace.manifest.json").read_text())
        assert doc["subcommand"] == "solve"
        assert doc["parameters"]["method"] == "dqrk"
        assert doc["parameters"]["residual_mode"] == "full"
        assert "trace.csv" in doc["outputs"]

    def test_manifest_records_the_gram_path(self, tmp_path):
        # m = 2n and 4000 steps > m/2: the rule keeps the residual by Gram rows.
        bundle = _gen(tmp_path, m=1000, n=500, seed="3")
        trace = tmp_path / "trace.csv"
        argv = ["solve", "--problem", str(bundle), "--method", "dqrk", "--q", "4/5",
                "--q0", "3/5", "--iters", "4000", "--trace", str(trace)]
        assert main(argv) == 0
        doc = json.loads((tmp_path / "trace.manifest.json").read_text())
        assert doc["parameters"]["residual_mode"] == "incremental"

    def test_residual_drift_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solvers, "RESIDUAL_DRIFT_SLACK", 0.0)
        bundle = _gen(tmp_path, m=40, n=20)
        trace = tmp_path / "trace.csv"
        argv = ["solve", "--problem", str(bundle), "--method", "qrk", "--q", "4/5",
                "--iters", "1000", "--trace", str(trace)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ResidualDriftError: ")
        assert not trace.exists()

    def test_residual_mode_is_not_an_option(self, tmp_path, capsys):
        # The residual path is the solver's rule; neither the flag nor a
        # config key selects it.
        bundle = _gen(tmp_path)
        argv = ["solve", "--problem", str(bundle), "--method", "qrk", "--q", "4/5",
                "--trace", str(tmp_path / "trace.csv")]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--residual-mode", "incremental"])
        assert exc.value.code == 2
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("residual_mode = incremental\n")
        assert main([*argv, "--config", str(cfg)]) == 2
        assert "unknown config keys: ['residual_mode']" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_rk_trace_has_empty_quantiles(self, tmp_path):
        bundle = _gen(tmp_path)
        trace = tmp_path / "trace.csv"
        assert (
            main(
                [
                    "solve",
                    "--problem", str(bundle),
                    "--method", "rk",
                    "--iters", "10",
                    "--trace", str(trace),
                ]
            )
            == 0
        )
        row = trace.read_text().splitlines()[1].split(",")
        assert row[4] == "" and row[5] == ""

    def test_quantile_snap(self, tmp_path, capsys):
        bundle = _gen(tmp_path)
        trace = tmp_path / "trace.csv"
        rc = main(
            [
                "solve",
                "--problem", str(bundle),
                "--method", "qrk",
                "--q", "0.81",
                "--iters", "10",
                "--trace", str(trace),
            ]
        )
        assert rc == 0
        assert "nearest feasible q = 0.8" in capsys.readouterr().err
        doc = json.loads((tmp_path / "trace.manifest.json").read_text())
        assert doc["parameters"]["q"] == "4/5"
        assert doc["snapped"]["q"]["requested"] == "81/100"

    @pytest.mark.parametrize(
        "flags,parameters,snapped",
        [
            (["--method", "rk"],
             {"method": "rk", "q": None, "q0": None}, None),
            (["--method", "dqrk", "--q", "0.81", "--q0", "3/5"],
             {"method": "dqrk", "q": "4/5", "q0": "3/5"},
             {"q": {"requested": "81/100", "used": "4/5"}}),
        ],
        ids=["rk", "dqrk_snapped_q"],
    )
    def test_manifest_parameters(self, tmp_path, flags, parameters, snapped):
        bundle = _gen(tmp_path)
        trace = tmp_path / "trace.csv"
        assert main(["solve", "--problem", str(bundle), *flags, "--iters", "30",
                     "--trace", str(trace)]) == 0
        doc = json.loads((tmp_path / "trace.manifest.json").read_text())
        assert doc["parameters"] == {
            "problem": str(bundle), **parameters, "iters": 30, "x0": "default",
            "residual_mode": "full",
        }
        assert doc["seeds"] == {"seed": 0}
        assert doc.get("snapped") == snapped

    def test_unknown_method(self, tmp_path, capsys):
        bundle = _gen(tmp_path)
        rc = main(
            [
                "solve",
                "--problem", str(bundle),
                "--method", "cg",
                "--trace", str(tmp_path / "t.csv"),
            ]
        )
        assert rc == 2

    def test_missing_bundle(self, tmp_path):
        rc = main(
            [
                "solve",
                "--problem", str(tmp_path / "nope"),
                "--method", "rk",
                "--trace", str(tmp_path / "t.csv"),
            ]
        )
        assert rc == 2


class TestBounds:
    def test_report_written(self, tmp_path):
        bundle = _gen(tmp_path, m=12, n=2, beta="1/12", scale="20")
        out = tmp_path / "report.json"
        rc = main(
            [
                "bounds",
                "--problem", str(bundle),
                "--q", "1/2",
                "--q0", "1/4",
                "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["params"]["beta"] == "1/12"  # default comes from the bundle
        names = [r["name"] for r in doc["records"]]
        assert "qrk_rate_original" in names and "dqrk_error_horizon" in names
        assert doc["spectral"]["sigma_q_beta_min"]["mode"] == "exact"
        man = json.loads((tmp_path / "report.manifest.json").read_text())
        assert man["subcommand"] == "bounds"
        assert "report.json" in man["outputs"]

    @pytest.mark.parametrize("key", ["beta", "noise_stddev"])
    def test_manifest_spec_missing_a_field_is_rejected(self, tmp_path, capsys, key):
        # bounds would certify, and verify regenerate, at the field's
        # default rather than the value the bundle was made with
        bundle = _gen(tmp_path, m=12, n=2, beta="1/12", scale="20")
        doc = json.loads((bundle / "manifest.json").read_text())
        del doc["spec"][key]
        (bundle / "manifest.json").write_text(json.dumps(doc))
        capsys.readouterr()
        argv = ["bounds", "--problem", str(bundle), "--q", "1/2", "--q0", "1/4",
                "--out", str(tmp_path / "r.json")]
        assert main(argv) == 2
        assert f"GenSpec: missing key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()
        assert main(["verify", "--problem", str(bundle)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("verification failed: ")
        assert f"GenSpec: missing key '{key}'" in err

    def test_sampled_mode(self, tmp_path):
        bundle = _gen(tmp_path, m=30, n=3, beta="1/30", scale="20")
        out = tmp_path / "report.json"
        rc = main(
            [
                "bounds",
                "--problem", str(bundle),
                "--q", "1/2",
                "--sigma-mode", "sampled:40",
                "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        sq = doc["spectral"]["sigma_q_beta_min"]
        assert sq["mode"] == "sampled"
        assert sq["is_upper_bound_only"] is True

    def test_exact_mode_over_cap_suggests_sampling(self, tmp_path, capsys, monkeypatch):
        # refused before the full SVD, as an over-budget table is
        from kqrk import bounds

        bundle = _gen(tmp_path, m=100, n=3, beta="1/100", scale="20")
        monkeypatch.setattr(bounds, "singular_extremes", None)
        rc = main(
            [
                "bounds",
                "--problem", str(bundle),
                "--q", "1/2",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 2
        assert "--sigma-mode sampled:N instead" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "flags,parameters,snapped",
        [
            (["--q", "1/2", "--q0", "1/4"],
             {"beta": "1/12", "q": "1/2", "q0": "1/4", "sigma_mode": "exact"}, None),
            (["--beta", "0.09", "--q", "1/2"],
             {"beta": "1/12", "q": "1/2", "q0": None, "sigma_mode": "exact"},
             {"beta": {"requested": "9/100", "used": "1/12"}}),
            (["--q", "1/2", "--sigma-mode", "sampled:0200", "--seed", "3"],
             {"beta": "1/12", "q": "1/2", "q0": None, "sigma_mode": "sampled:200"}, None),
        ],
        ids=["beta_from_bundle", "beta_flag_snapped", "sampled"],
    )
    def test_manifest_parameters(self, tmp_path, capsys, flags, parameters, snapped):
        bundle = _gen(tmp_path, m=12, n=2, beta="1/12", scale="20")
        capsys.readouterr()
        out = tmp_path / "report.json"
        assert main(["bounds", "--problem", str(bundle), *flags, "--out", str(out)]) == 0
        doc = json.loads((tmp_path / "report.manifest.json").read_text())
        assert doc["parameters"] == {"problem": str(bundle), **parameters}
        assert doc["seeds"] == {"seed": 3 if "--seed" in flags else 0}
        assert doc.get("snapped") == snapped
        err = capsys.readouterr().err
        assert ("nearest feasible beta" in err) == (snapped is not None)

    @pytest.mark.parametrize("mode", ["exact", "sampled:50"])
    def test_product_table_over_budget_exits_2_before_the_svd(
        self, tmp_path, capsys, monkeypatch, mode
    ):
        from kqrk import bounds, linalg

        bundle = _gen(tmp_path, m=12, n=3, beta="1/12", scale="20")
        monkeypatch.setattr(linalg, "PRODUCT_TABLE_BUDGET_BYTES", 8 * 12 * 6 - 1)
        monkeypatch.setattr(bounds, "singular_extremes", None)
        argv = ["bounds", "--problem", str(bundle), "--q", "2/3", "--q0", "1/3",
                "--sigma-mode", mode, "--out", str(tmp_path / "r.json")]
        assert main(argv) == 2
        assert "product table of 576 bytes" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_decimal_and_rational_levels_write_the_same_report(self, tmp_path):
        bundle = _gen(tmp_path, m=10, n=2, beta="1/10", scale="20")
        reports = []
        for q, q0 in (("0.8", "0.6"), ("4/5", "3/5")):
            out = tmp_path / f"report_{q.replace('/', '_')}.json"
            argv = ["bounds", "--problem", str(bundle), "--q", q, "--q0", q0, "--out", str(out)]
            assert main(argv) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_bad_sigma_mode(self, tmp_path, capsys):
        bundle = _gen(tmp_path, m=12, n=2)
        rc = main(
            [
                "bounds",
                "--problem", str(bundle),
                "--q", "1/2",
                "--sigma-mode", "guess",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 2
        assert "--sigma-mode" in capsys.readouterr().err


class TestExperiment:
    ARGS = [
        "--m", "40",
        "--n", "4",
        "--iters", "150",
        "--seed", "7",
    ]

    def test_fig3_and_verify(self, tmp_path, capsys):
        out = tmp_path / "exp"
        rc = main(
            [
                "experiment", "fig3",
                *self.ARGS,
                "--trials", "2",
                "--scales", "1,10",
                "--out", str(out),
            ]
        )
        assert rc == 0
        for name in ("manifest.json", "data.csv", "plot.svg", "result.json"):
            assert (out / name).is_file()
        capsys.readouterr()
        assert main(["verify", "--experiment", str(out)]) == 0

    def test_tampered_experiment_fails(self, tmp_path, capsys):
        out = tmp_path / "exp"
        main(
            [
                "experiment", "fig3",
                *self.ARGS,
                "--trials", "2",
                "--scales", "1,10",
                "--out", str(out),
            ]
        )
        (out / "data.csv").write_text("scale,trial,method,ratio,horizon\n")
        assert main(["verify", "--experiment", str(out)]) == 1

    def test_edited_result_with_checksums_fails(self, tmp_path, capsys):
        # Re-emitting the edited result and rewriting the checksums keeps
        # the directory self-consistent; only a re-run of the spec differs.
        out = tmp_path / "exp"
        assert main(["experiment", "fig2", *self.ARGS, "--out", str(out)]) == 0
        result = load_result(out / "result.json")
        for ens in result.spec.ensembles:
            result.curves[ens]["rk"][-1] = 1e-6
            result.horizons[ens]["rk"] = 1e-6
        emit(result, out)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["outputs"] = {rel: sha256_file(out / rel) for rel in manifest["outputs"]}
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["verify", "--experiment", str(out)]) == 1
        assert "does not reproduce" in capsys.readouterr().err

    def test_spec_missing_a_field_fails_verification(self, tmp_path, capsys):
        # A spec without "trials" is damaged: verify names the key instead
        # of re-running at the field's default.
        out = tmp_path / "exp"
        assert main(["experiment", "fig2", *self.ARGS, "--out", str(out)]) == 0
        doc = json.loads((out / "result.json").read_text())
        del doc["spec"]["trials"]
        (out / "result.json").write_text(json.dumps(doc))
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["outputs"]["result.json"] = sha256_file(out / "result.json")
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["verify", "--experiment", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("verification failed: ") and "'trials'" in err

    @pytest.mark.parametrize(
        "name, text",
        [("manifest.json", "{bad"), ("result.json", "[1]")],
        ids=["manifest_not_json", "result_not_an_object"],
    )
    def test_malformed_json_fails_verification(self, tmp_path, capsys, name, text):
        out = tmp_path / "exp"
        assert main(["experiment", "fig1", *self.ARGS, "--out", str(out)]) == 0
        (out / name).write_text(text)
        if name == "result.json":  # past the checksum, to the reader
            manifest = json.loads((out / "manifest.json").read_text())
            manifest["outputs"]["result.json"] = sha256_file(out / "result.json")
            (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["verify", "--experiment", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("verification failed: ") and name in err

    def test_missing_output_fails_verification(self, tmp_path):
        out = tmp_path / "exp"
        assert main(["experiment", "fig2", *self.ARGS, "--out", str(out)]) == 0
        (out / "data_uniform.csv").unlink()
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["outputs"]["data_uniform.csv"]
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["verify", "--experiment", str(out)]) == 1

    def test_same_argv_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(
                [
                    "experiment", "fig1",
                    *self.ARGS,
                    "--methods", "rk,qrk",
                    "--out", str(out),
                ]
            )
            assert rc == 0
            outs.append(out)
        for name in ("data.csv", "data_gaussian.csv", "plot.svg", "result.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_snap_against_overridden_m(self, tmp_path, capsys):
        out = tmp_path / "exp"
        rc = main(
            [
                "experiment", "fig1",
                "--m", "40", "--n", "4",
                "--iters", "120",
                "--q", "0.81",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert "nearest feasible q = 0.8" in capsys.readouterr().err
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["snapped"]["q"] == {"requested": "81/100", "used": "4/5"}
        assert doc["parameters"]["q"] == "4/5"

    def test_profile_conflict(self, tmp_path, capsys):
        rc = main(
            ["experiment", "fig1", "--desk", "--paper", "--out", str(tmp_path / "x")]
        )
        assert rc == 2

    def test_threads_is_not_an_option(self, tmp_path, capsys):
        # Experiments run one job at a time; neither the flag nor a config
        # key selects a thread count.
        out = str(tmp_path / "x")
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "fig2", "--threads", "2", "--out", out])
        assert exc.value.code == 2
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("threads = 2\n")
        assert main(["experiment", "fig2", "--config", str(cfg), "--out", out]) == 2
        assert "unknown config keys: ['threads']" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_manifest_parameters_cover_spec(self, tmp_path):
        out = tmp_path / "exp"
        main(
            [
                "experiment", "fig1",
                *self.ARGS,
                "--methods", "rk",
                "--ensembles", "gaussian",
                "--out", str(out),
            ]
        )
        doc = json.loads((out / "manifest.json").read_text())
        p = doc["parameters"]
        assert p["figure"] == "fig1" and p["profile"] == "desk"
        assert p["m"] == 40 and p["methods"] == ["rk"]
        assert doc["outputs"].keys() == {
            "data.csv", "data_gaussian.csv", "plot.svg", "result.json"
        }


_SMALL = ["--m", "40", "--n", "4", "--iters", "50", "--window", "10"]
_FIG3 = ["experiment", "fig3", *_SMALL, "--trials", "1"]


@pytest.mark.parametrize(
    "argv,fault",
    [
        (["gen", "--m", "40", "--n", "4", "--beta", "1/20", "--scale", "inf"],
         "corruption_scale must be finite"),
        (["gen", "--m", "40", "--n", "4", "--noise", "nan"], "noise_stddev must be finite"),
        ([*_FIG3, "--scales", "1,inf"], "scales must be finite"),
        ([*_FIG3, "--scales", "1,-5"], "scales must be finite"),
        ([*_FIG3, "--scales", "1,nan"], "scales must be finite"),
        (["experiment", "fig2", *_SMALL, "--scale", "nan"], "scales must be finite"),
        (["experiment", "fig2", *_SMALL, "--noise", "inf"], "scales must be finite"),
    ],
    ids=["gen_scale_inf", "gen_noise_nan", "fig3_inf", "fig3_negative", "fig3_nan",
         "fig2_scale_nan", "fig2_noise_inf"],
)
def test_non_finite_scale_is_refused_before_any_job(tmp_path, capsys, monkeypatch, argv, fault):
    from kqrk import cli, experiments

    def never(spec):
        pytest.fail("a problem was generated")

    monkeypatch.setattr(experiments, "generate", never)
    monkeypatch.setattr(cli, "generate", never)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fault in err
    assert not out.exists()


class TestVerifyUsage:
    def test_requires_exactly_one_target(self, tmp_path, capsys):
        assert main(["verify"]) == 2
        bundle = _gen(tmp_path)
        capsys.readouterr()
        rc = main(
            ["verify", "--problem", str(bundle), "--experiment", str(bundle)]
        )
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults_cli_wins(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("m = 30\nn = 3  # columns\nseed = 11\n")
        out = tmp_path / "prob"
        rc = main(
            [
                "gen",
                "--config", str(cfg),
                "--m", "20",  # overrides the config value
                "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["spec"]["m"] == 20
        assert doc["spec"]["n"] == 3
        assert doc["spec"]["seed"] == 11

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("rows = 30\n")
        rc = main(["gen", "--config", str(cfg), "--n", "3", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("just words\n")
        rc = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "expected key = value" in capsys.readouterr().err


class TestVersion:
    def test_version_string(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        text = capsys.readouterr().out.strip()
        prefix, _, digest = text.partition("+")
        assert prefix.startswith("kqrk ")
        assert len(digest) == 12
        assert digest == build_hash()


def test_experiment_bytes_follow_no_blas_threads(tmp_path):
    # The quantile runs share one product per step; whether OpenBLAS splits
    # it over one or two threads, the desk fig2 result is the same bytes.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for blas in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OMP_NUM_THREADS": blas,
               "OPENBLAS_NUM_THREADS": blas, "MKL_NUM_THREADS": blas}
        out = tmp_path / f"blas{blas}"
        subprocess.run(
            [sys.executable, "-m", "kqrk.cli", "experiment", "fig2", "--desk",
             "--iters", "300", "--out", str(out)],
            env=env, capture_output=True, check=True,
        )
        outs.append((out / "result.json").read_bytes())
    assert outs[1] == outs[0]


def test_import_skips_scipy():
    # scipy.stats costs about a second at start-up and only fig3_trend needs it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import sys, kqrk, kqrk.cli; "
        "print('scipy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def test_parser_built_once_per_process(tmp_path, monkeypatch, capsys):
    # Repeated in-process calls reuse one parser and still parse afresh.
    from kqrk import cli

    built = []

    def counting_make_parser():
        built.append(1)
        return make_parser()

    make_parser = cli.make_parser
    monkeypatch.setattr(cli, "make_parser", counting_make_parser)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["gen", "--m", "10", "--out", str(tmp_path / "x")]) == 2
            assert "--n is required" in capsys.readouterr().err
        assert main(["verify"]) == 2
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
