import io
import json
import math

import pytest

from wristkin import (
    JointState,
    RationalQuadricSurface,
    SubjectParams,
    derive_joint_series,
    forward_kinematics,
    load_session,
    save_surface,
)
from wristkin.cli import run


@pytest.fixture
def data_dir(tmp_path, steep_truth):
    """Three noiseless synthetic sessions generated through the CLI."""
    surface_path = tmp_path / "truth.json"
    save_surface(steep_truth, surface_path)
    out = tmp_path / "data"
    rc = run(
        [
            "synth",
            "--subjects", "3",
            "--seed", "42",
            "--out", str(out),
            "--cycles", "2",
            "--duration", "6",
            "--noise-sigma", "0",
            "--surface", str(surface_path),
        ]
    )
    assert rc == 0
    return out


class TestFkIk:
    def test_fk_prints_expected_pose(self, capsys):
        rc = run(["fk", "--theta3-deg", "0", "--theta4-deg", "30", "--d2", "20", "--a4", "100"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p"] == pytest.approx([20.0, 86.6025, 50.0], abs=1e-4)
        # oracle: the library's own closed form
        oracle = forward_kinematics(
            JointState(0.0, math.radians(30.0), 20.0), SubjectParams(a4=100.0)
        )
        assert payload["p"] == pytest.approx(list(oracle.p), abs=1e-12)

    def test_fk_angle_unit_rad(self, capsys):
        rc = run(["fk", "--theta3", "0", "--theta4", str(math.radians(30)),
                  "--d2", "20", "--a4", "100", "--angle-unit", "rad"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p"] == pytest.approx([20.0, 86.6025, 50.0], abs=1e-4)

    def test_fk_requires_exactly_one_spelling(self, capsys):
        rc = run(["fk", "--theta3-deg", "0", "--theta3", "0", "--theta4-deg", "0",
                  "--d2", "0", "--a4", "100"])
        assert rc == 3

    def test_round_trip_through_files(self, tmp_path, capsys):
        out = tmp_path / "fkout"
        rc = run(["fk", "--theta3-deg", "7", "--theta4-deg", "-9", "--d2", "12.5",
                  "--a4", "105", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        rc = run(["ik", "--pose", str(out / "pose.json"), "--a4", "105"])
        assert rc == 0
        joints = json.loads(capsys.readouterr().out)
        assert joints["angle_unit"] == "deg"
        assert joints["theta3"] == pytest.approx(7.0, abs=1e-9)
        assert joints["theta4"] == pytest.approx(-9.0, abs=1e-9)
        assert joints["beta4"] == joints["theta4"]
        assert joints["beta3"] == pytest.approx(97.0, abs=1e-9)
        assert joints["d2_mm"] == pytest.approx(12.5, abs=1e-9)

    def test_ik_from_stdin(self, capsys, monkeypatch):
        pose = forward_kinematics(JointState(0.0, 0.3, 5.0), SubjectParams(a4=95.0))
        payload = {
            "n": list(pose.n), "o": list(pose.o), "a": list(pose.a), "p": list(pose.p)
        }
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        rc = run(["ik", "--pose", "-", "--a4", "95", "--angle-unit", "rad"])
        assert rc == 0
        joints = json.loads(capsys.readouterr().out)
        assert joints["theta4"] == pytest.approx(0.3, abs=1e-12)
        assert joints["d2_mm"] == pytest.approx(5.0, abs=1e-9)

    def test_ik_missing_file(self, tmp_path, capsys):
        rc = run(["ik", "--pose", str(tmp_path / "nope.json"), "--a4", "100"])
        assert rc == 3

    def test_out_of_branch_angle_is_numeric_error(self, capsys):
        rc = run(["fk", "--theta3-deg", "0", "--theta4-deg", "120", "--d2", "0", "--a4", "100"])
        assert rc == 4


class TestPipeline:
    def test_synth_writes_sessions_and_manifest(self, data_dir):
        files = sorted(p.name for p in data_dir.iterdir())
        assert "subject_00.csv" in files
        assert "subject_00.meta.json" in files
        assert "synth_manifest.json" in files
        manifest = json.loads((data_dir / "synth_manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["parameters"]["seed"] == 42
        assert len(manifest["outputs"]) == 6

    def test_fit_predict_reproduces_rmse(self, data_dir, tmp_path, capsys):
        fit_out = tmp_path / "fit"
        rc = run(["fit", "--data", str(data_dir), "--out", str(fit_out),
                  "--seed", "7", "--generations", "1200"])
        assert rc == 0
        fit_report = json.loads((fit_out / "fit_report.json").read_text())
        pred_out = tmp_path / "pred"
        rc = run(["predict", "--surface", str(fit_out / "surface.json"),
                  "--data", str(data_dir), "--out", str(pred_out)])
        assert rc == 0
        pred_report = json.loads((pred_out / "predict_report.json").read_text())
        assert abs(pred_report["rmse"] - fit_report["rmse"]) < 1e-10
        assert pred_report["n"] == fit_report["n"]
        lines = (pred_out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "subject_id,t,beta3,beta4,d2_observed,d2_predicted"
        assert len(lines) == 1 + fit_report["n"]

    def test_validate_output_schema(self, data_dir, tmp_path, steep_truth, capsys):
        surface_path = tmp_path / "s.json"
        save_surface(steep_truth, surface_path)
        out = tmp_path / "val"
        rc = run(["validate", "--surface", str(surface_path), "--data", str(data_dir),
                  "--out", str(out)])
        assert rc == 0
        lines = (out / "per_subject.csv").read_text().splitlines()
        assert lines[0] == (
            "subject_id,n,mean_residual_mm,sd_residual_mm,pct_error,min,q1,median,q3,max"
        )
        assert len(lines) == 4  # header + 3 subjects
        # generating surface on its own noiseless data: residuals ~ 0
        report = json.loads((out / "validate_report.json").read_text())
        assert abs(report["pooled_mean_mm"]) < 1e-9

    def test_residuals_output(self, data_dir, tmp_path, steep_truth, capsys):
        surface_path = tmp_path / "s.json"
        save_surface(steep_truth, surface_path)
        out = tmp_path / "res"
        rc = run(["residuals", "--surface", str(surface_path), "--data", str(data_dir),
                  "--out", str(out), "--lowess-frac", "0.4", "--lowess-iterations", "1",
                  "--lowess-max-points", "200"])
        assert rc == 0
        lines = (out / "residuals.csv").read_text().splitlines()
        assert lines[0] == "index,residual,standardized_residual,lowess"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(len(rows)))
        assert all(math.isfinite(float(v)) for r in rows for v in r[1:])

    def test_stats_shows_strong_negative_correlation(self, data_dir, tmp_path, capsys):
        out = tmp_path / "stats"
        rc = run(["stats", "--data", str(data_dir), "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "stats.json").read_text())
        assert payload["pooled"]["spearman"] <= -0.9
        assert payload["pooled"]["slope_mm_per_rad"] < 0
        assert len(payload["per_subject"]) == 3


class TestCheck:
    def test_accepts_valid_outputs(self, data_dir, tmp_path, steep_truth, capsys):
        surface_path = tmp_path / "s.json"
        save_surface(steep_truth, surface_path)
        rc = run(["check", str(surface_path), str(data_dir / "subject_00.csv"),
                  str(data_dir / "subject_00.meta.json"),
                  str(data_dir / "synth_manifest.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 4

    def test_rejects_bad_surface(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"numerator": [1, 2], "denominator": [], "angle_unit": "rad"}))
        assert run(["check", str(bad)]) == 3

    def test_rejects_unknown_csv(self, tmp_path, capsys):
        weird = tmp_path / "w.csv"
        weird.write_text("a,b\n1,2\n")
        assert run(["check", str(weird)]) == 3

    def test_validate_report(self, data_dir, tmp_path, steep_truth, capsys):
        surface_path = tmp_path / "s.json"
        save_surface(steep_truth, surface_path)
        out = tmp_path / "val"
        assert run(["validate", "--surface", str(surface_path), "--data", str(data_dir),
                    "--out", str(out)]) == 0
        report = out / "validate_report.json"
        assert run(["check", str(report)]) == 0
        assert "OK" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        for key, value in (("n_total", 0), ("n_subjects", 1.5), ("pooled_sd_mm", "x")):
            report.write_text(json.dumps({**payload, key: value}))
            assert run(["check", str(report)]) == 3
            assert key in capsys.readouterr().err

    def test_session_without_metadata_uses_loader_checks(self, data_dir, capsys):
        csv = data_dir / "subject_00.csv"
        (data_dir / "subject_00.meta.json").unlink()
        assert run(["check", str(csv)]) == 0
        assert "no metadata" in capsys.readouterr().out
        lines = csv.read_text().splitlines()
        lines[3] = lines[2]  # repeated timestamp
        csv.write_text("\n".join(lines) + "\n")
        assert run(["check", str(csv)]) == 3
        assert "row 2: monotonicity violated" in capsys.readouterr().err

    def test_rejects_corrupt_session_rows(self, data_dir, capsys):
        csv = data_dir / "subject_00.csv"
        text = csv.read_text().splitlines()
        text[1] = text[1].replace(text[1].split(",")[1], "bogus", 1)
        csv.write_text("\n".join(text) + "\n")
        assert run(["check", str(csv)]) == 3


# out-of-range count, size and rate arguments, one per flag
OUT_OF_RANGE = [
    ["synth", "--subjects", "0"],
    ["synth", "--cycles", "-1"],
    ["synth", "--duration", "-1"],
    ["synth", "--duration", "inf"],
    ["synth", "--sample-rate", "0"],
    ["synth", "--noise-sigma", "-0.5"],
    ["synth", "--noise-sigma", "nan"],
    ["fit", "--data", "d", "--generations", "0"],
    ["fit", "--data", "d", "--population-size", "2"],
    ["fit", "--data", "d", "--n-fit", "0"],
    ["residuals", "--surface", "s", "--data", "d", "--lowess-frac", "0"],
    ["residuals", "--surface", "s", "--data", "d", "--lowess-frac", "1.5"],
    ["residuals", "--surface", "s", "--data", "d", "--lowess-iterations", "-1"],
    ["residuals", "--surface", "s", "--data", "d", "--lowess-max-points", "2"],
    ["synth", "--subjects", "three"],
]


def _malformed_inputs(tmp_path, data_dir) -> dict:
    """Paths for the MALFORMED table: the good cohort and each bad input."""
    files = {"data": str(data_dir), "missing": str(tmp_path / "missing"),
             "surface": str(tmp_path / "good.json"), "bad_surface": str(tmp_path / "bad.json"),
             "pole_surface": str(tmp_path / "pole.json")}
    save_surface(RationalQuadricSurface([20.0, 0, 0, 0, 0, 0], [0.0] * 5), files["surface"])
    (tmp_path / "bad.json").write_text(
        json.dumps({"numerator": [1, 2], "denominator": [0] * 5, "angle_unit": "rad"}))
    # denominator 1 - x / beta3[0] vanishes at the first sample
    first = derive_joint_series(
        load_session(data_dir / "subject_00.csv", data_dir / "subject_00.meta.json"))
    save_surface(RationalQuadricSurface([1.0, 0, 0, 0, 0, 0], [-1.0 / first.beta3[0], 0, 0, 0, 0]),
                 files["pole_surface"])
    good_pose = {"n": [1, 0, 0], "o": [0, 1, 0], "a": [0, 0, 1], "p": [0, 0, 100]}
    for name, text in (("not_json_pose", "{"),
                       ("short_pose", json.dumps({**good_pose, "p": [0, 0]})),
                       ("reflected_pose", json.dumps({**good_pose, "a": [0, 0, -1]}))):
        (tmp_path / f"{name}.json").write_text(text)
        files[name] = str(tmp_path / f"{name}.json")
    return files


# each subcommand against each malformed input: argv ({...} filled from
# _malformed_inputs; --out is appended), exit code, part of the error line
MALFORMED = [
    *(pytest.param([cmd, *extra, "--data", "{missing}"], 3, "{missing}: not a directory",
                   id=f"{cmd} missing-data")
      for cmd, extra in (("fit", []), ("predict", ["--surface", "{surface}"]),
                         ("validate", ["--surface", "{surface}"]),
                         ("residuals", ["--surface", "{surface}"]), ("stats", []))),
    *(pytest.param([cmd, "--surface", "{bad_surface}", "--data", "{data}"], 3,
                   "'numerator' must be 6 finite numbers", id=f"{cmd} bad-surface")
      for cmd in ("predict", "validate", "residuals")),
    pytest.param(["synth", "--subjects", "1", "--surface", "{bad_surface}"], 3,
                 "'numerator' must be 6 finite numbers", id="synth bad-surface"),
    pytest.param(["check", "{bad_surface}"], 3, "'numerator' must be 6 finite numbers",
                 id="check bad-surface"),
    *(pytest.param(["ik", "--pose", "{%s}" % name, "--a4", "100"], 3, message,
                   id=f"ik {name.replace('_', '-')}")
      for name, message in (("not_json_pose", "not valid JSON"),
                            ("short_pose", "'p' must be 3 finite numbers"),
                            ("reflected_pose", "improper"))),
    *(pytest.param([cmd, "--surface", "{pole_surface}", "--data", "{data}"], 4,
                   "denominator magnitude below", id=f"{cmd} pole-at-sample")
      for cmd in ("predict", "validate", "residuals")),
    pytest.param(["fit", "--data", "{data}", "--n-fit", "3"], 2,
                 "error: --n-fit must be below the 3 sessions in {data}, got 3",
                 id="fit n-fit-at-session-count"),
]


class TestExitCodes:
    @pytest.mark.parametrize("argv", OUT_OF_RANGE, ids=lambda argv: " ".join(argv[-2:]))
    def test_out_of_range_argument_is_usage_error(self, argv, tmp_path, capsys):
        assert run([*argv, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert any(line.startswith("wristkin ") and "error: argument " + argv[-2] in line
                   for line in err.splitlines())
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_usage_error(self, capsys):
        assert run([]) == 2
        assert run(["fk", "--theta3-deg", "0"]) == 2  # missing required flags

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_numeric_error_from_degenerate_fit(self, tmp_path, capsys, steep_truth):
        # constant-x sessions cannot happen via synth; drive fit's
        # min-points guard instead (ValueError -> 4)
        out = tmp_path / "d"
        surface_path = tmp_path / "t.json"
        save_surface(steep_truth, surface_path)
        rc = run(["synth", "--subjects", "1", "--seed", "1", "--out", str(out),
                  "--cycles", "1", "--duration", "0.1", "--sample-rate", "50",
                  "--surface", str(surface_path)])
        assert rc == 0
        assert run(["fit", "--data", str(out), "--out", str(tmp_path / "f")]) == 4

    @pytest.mark.parametrize("argv, code, message", MALFORMED)
    def test_malformed_input(self, argv, code, message, data_dir, tmp_path, capsys):
        files = _malformed_inputs(tmp_path, data_dir)
        argv = [arg.format(**files) for arg in argv]
        out = [] if argv[0] == "check" else ["--out", str(tmp_path / "o")]
        assert run([*argv, *out]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert message.format(**files) in lines[0]

