import copy
import dataclasses
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from wristkin import (
    JointState,
    RationalQuadricSurface,
    SchemaError,
    SessionProtocol,
    SubjectParams,
    derive_joint_series,
    forward_kinematics,
    load_session,
    lowess,
    save_session,
    save_surface,
)
from wristkin.cli import run
from wristkin.regression import LOWESS_FRAC, LOWESS_ITERATIONS
from wristkin.sessions import A4_RANGE, EXTENSION_MAX, FLEXION_MAX, RUD_AMPLITUDE, SAMPLE_RATE_HZ


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
        rc = run(["fk", "--theta3", "0", "--theta4", "30", "--d2", "20", "--a4", "100"])
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

    def test_round_trip_through_files(self, tmp_path, capsys):
        out = tmp_path / "fkout"
        rc = run(["fk", "--theta3", "7", "--theta4", "-9", "--d2", "12.5",
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
        rc = run(["fk", "--theta3", "0", "--theta4", "120", "--d2", "0", "--a4", "100"])
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
        # the one synthetic protocol, recorded but not settable
        assert manifest["parameters"]["sample_rate_hz"] == SAMPLE_RATE_HZ == 50.0
        assert manifest["parameters"]["flexion_max_rad"] == FLEXION_MAX == math.radians(30.0)
        assert manifest["parameters"]["extension_max_rad"] == EXTENSION_MAX == math.radians(10.0)
        assert manifest["parameters"]["rud_amplitude_rad"] == RUD_AMPLITUDE == math.radians(5.0)
        assert manifest["parameters"]["a4_range_mm"] == list(A4_RANGE) == [90.0, 110.0]
        assert "angle_unit" not in manifest["parameters"]
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
                  "--out", str(out), "--lowess-max-points", "200"])
        assert rc == 0
        lines = (out / "residuals.csv").read_text().splitlines()
        assert lines[0] == "index,residual,standardized_residual,lowess"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(len(rows)))
        assert all(math.isfinite(float(v)) for r in rows for v in r[1:])
        # smoothed by lowess at its defaults, which the manifest records
        table = np.array(rows, dtype=float)
        anchors = np.unique(np.linspace(0, len(rows) - 1, 200).round().astype(int))
        assert np.array_equal(table[anchors, 3], lowess(table[anchors, 0], table[anchors, 2]))
        parameters = json.loads((out / "residuals_manifest.json").read_text())["parameters"]
        assert (parameters["lowess_frac"], parameters["lowess_iterations"]) == (
            LOWESS_FRAC, LOWESS_ITERATIONS) == (2.0 / 3.0, 3)

    @pytest.mark.parametrize("max_points", [5000, 903, 902, 50])
    def test_residuals_lowess_column(self, max_points, data_dir, tmp_path, steep_truth, capsys):
        # the 903-sample series is smoothed at every index when it has at
        # most max_points samples, else on evenly strided anchors
        surface_path = tmp_path / "s.json"
        save_surface(steep_truth, surface_path)
        out = tmp_path / "res"
        assert run(["residuals", "--surface", str(surface_path), "--data", str(data_dir),
                    "--out", str(out), "--lowess-max-points", str(max_points)]) == 0
        table = np.loadtxt(out / "residuals.csv", delimiter=",", skiprows=1)
        index, std_res, smooth = table[:, 0], table[:, 2], table[:, 3]
        assert index.size == 903
        if max_points >= index.size:
            assert np.array_equal(smooth, lowess(index, std_res))
            return
        anchors = np.unique(np.linspace(0, index.size - 1, max_points).round().astype(int))
        assert anchors.size == max_points and anchors[-1] == index.size - 1
        at_anchors = lowess(index[anchors], std_res[anchors])
        assert np.array_equal(smooth[anchors], at_anchors)
        assert np.array_equal(smooth, np.interp(index, index[anchors], at_anchors))

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

    def test_accepts_every_cli_output(self, data_dir, tmp_path, capsys):
        tree = tmp_path / "tree"
        surface = str(tree / "fit" / "surface.json")
        data = ["--data", str(data_dir)]
        for argv in (["fk", "--theta3", "7", "--theta4", "-9", "--d2", "12.5",
                      "--a4", "105"],
                     ["ik", "--pose", str(tree / "fk" / "pose.json"), "--a4", "105"],
                     ["fit", *data, "--seed", "7", "--generations", "60"],
                     ["predict", "--surface", surface, *data],
                     ["validate", "--surface", surface, *data],
                     ["residuals", "--surface", surface, *data, "--lowess-max-points", "50"],
                     ["stats", *data]):
            assert run([*argv, "--out", str(tree / argv[0])]) == 0
        capsys.readouterr()
        paths = sorted(p for p in (*data_dir.iterdir(), *tree.rglob("*")) if p.is_file())
        assert run(["check", *map(str, paths)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"OK {p} ({_output_kind(p.name)})" for p in paths]

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

    def test_session_data_file_is_read_once(self, data_dir, capsys, monkeypatch):
        csv, meta = data_dir / "subject_00.csv", data_dir / "subject_00.meta.json"
        reads = []
        read_text = Path.read_text

        def counting(path, *args, **kwargs):
            reads.append(path)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        assert run(["check", str(csv)]) == 0
        assert "(session (subject_00.meta.json))" in capsys.readouterr().out
        assert reads.count(csv) == 1
        assert reads.count(meta) == 1

    def test_rejects_corrupt_session_rows(self, data_dir, capsys):
        csv = data_dir / "subject_00.csv"
        text = csv.read_text().splitlines()
        text[1] = text[1].replace(text[1].split(",")[1], "bogus", 1)
        csv.write_text("\n".join(text) + "\n")
        assert run(["check", str(csv)]) == 3


# kind label that check gives each file the CLI writes, by file name
OUTPUT_KINDS = {
    "pose.json": "pose",
    "joints.json": "joint state",
    "surface.json": "surface",
    "fit_report.json": "fit report",
    "predict_report.json": "fit report",
    "validate_report.json": "validation report",
    "stats.json": "stats",
    "predictions.csv": "predictions",
    "per_subject.csv": "per-subject validation",
    "residuals.csv": "residual series",
}


def _output_kind(name: str) -> str:
    if name.endswith("_manifest.json"):
        return "manifest"
    if name.endswith(".meta.json"):
        return "session metadata"
    if name.startswith("subject_") and name.endswith(".csv"):
        return f"session ({name[:-4]}.meta.json)"
    return OUTPUT_KINDS[name]


# out-of-range count, size and duration arguments, one per flag
OUT_OF_RANGE = [
    ["synth", "--subjects", "0"],
    ["synth", "--cycles", "-1"],
    ["synth", "--duration", "-1"],
    ["synth", "--duration", "inf"],
    # a finite duration whose sample count at 50 Hz is not
    ["synth", "--duration", "1e308"],
    ["synth", "--noise-sigma", "-0.5"],
    ["synth", "--noise-sigma", "nan"],
    ["synth", "--seed", "-1"],
    ["fit", "--data", "d", "--generations", "0"],
    ["fit", "--data", "d", "--n-fit", "0"],
    ["fit", "--data", "d", "--seed", "-1"],
    ["residuals", "--surface", "s", "--data", "d", "--lowess-max-points", "2"],
    ["synth", "--subjects", "three"],
]

# flags that set the synthetic protocol, the GA population or the LOWESS
# span and rounds are not options: each is an unrecognized argument
REMOVED_FLAGS = [
    ["synth", "--flexion-max", "-5"],
    ["synth", "--extension-max", "-5"],
    ["synth", "--rud-amplitude", "nan"],
    ["synth", "--a4-min", "0"],
    ["synth", "--a4-max", "0"],
    ["synth", "--sample-rate", "0"],
    ["synth", "--angle-unit", "rad"],
    ["fit", "--data", "d", "--population-size", "2"],
    ["residuals", "--surface", "s", "--data", "d", "--lowess-frac", "0"],
    ["residuals", "--surface", "s", "--data", "d", "--lowess-iterations", "-1"],
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
    # finite coefficients whose predictions overflow to inf or nan
    save_surface(RationalQuadricSurface([1e308] * 6, [1e308] * 5), tmp_path / "huge.json")
    files["huge_surface"] = str(tmp_path / "huge.json")
    good_pose = {"n": [1, 0, 0], "o": [0, 1, 0], "a": [0, 0, 1], "p": [0, 0, 100]}
    for name, text in (("not_json_pose", "{"),
                       # nesting past the decoder's recursion limit, and an
                       # integer past Python's digit limit for str -> int
                       ("deep_json", "[" * 200_000 + "]" * 200_000),
                       ("long_int_json", '{"numerator": [%s]}' % ("9" * 5000)),
                       ("short_pose", json.dumps({**good_pose, "p": [0, 0]})),
                       ("reflected_pose", json.dumps({**good_pose, "a": [0, 0, -1]}))):
        (tmp_path / f"{name}.json").write_text(text)
        files[name] = str(tmp_path / f"{name}.json")
    # a \xff byte, which no UTF-8 text holds, in a JSON file, an output CSV
    # and the data file of an otherwise good session pair
    binary = tmp_path / "binary"
    binary.mkdir()
    (binary / "subject_00.meta.json").write_bytes((data_dir / "subject_00.meta.json").read_bytes())
    for name, file_name, text in (
        ("binary_json", "b.json", b'{"subject_id": "\xff"}'),
        ("binary_csv", "b.csv", b"index,residual,standardized_residual,lowess\n0,1,\xff,2\n"),
        ("binary_session", "subject_00.csv", (data_dir / "subject_00.csv").read_bytes() + b"\xff"),
    ):
        (binary / file_name).write_bytes(text)
        files[name] = str(binary / file_name)
    files["binary_data"] = str(binary)
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
    *(pytest.param([cmd, "--surface", "{huge_surface}", "--data", "{data}"], 4,
                   "non-finite prediction at point index 0", id=f"{cmd} overflowing-surface")
      for cmd in ("predict", "validate", "residuals")),
    *(pytest.param(["check", "{%s}" % name], 3, "{%s}: not valid JSON" % name,
                   id=f"check {name.replace('_', '-')}")
      for name in ("deep_json", "long_int_json")),
    *(pytest.param(argv, 3, "{%s}: not UTF-8 text" % name, id=f"{argv[0]} {name.replace('_', '-')}")
      for argv, name in ((["check", "{binary_json}"], "binary_json"),
                         (["check", "{binary_csv}"], "binary_csv"),
                         (["check", "{binary_session}"], "binary_session"),
                         (["ik", "--pose", "{binary_json}", "--a4", "100"], "binary_json"),
                         (["predict", "--surface", "{binary_json}", "--data", "{data}"],
                          "binary_json"),
                         (["stats", "--data", "{binary_data}"], "binary_session"))),
    pytest.param(["fit", "--data", "{data}", "--n-fit", "3"], 2,
                 "error: --n-fit must be below the 3 sessions in {data}, got 3",
                 id="fit n-fit-at-session-count"),
]


# one valid JSON document per schema, by file name ("pose" goes to ik on
# stdin, the rest to check)
VALID_JSON = {
    "surface.json": {"numerator": [20.0, 0, 0, 0, 0, 0], "denominator": [0.0] * 5,
                     "angle_unit": "rad"},
    "fit_report.json": {"sse": 1.5, "rmse": 0.5, "r": 0.9, "r_squared": 0.81, "n": 6},
    "validate_report.json": {"n_subjects": 2, "n_total": 12, "pooled_mean_mm": 0.1,
                             "pooled_sd_mm": 0.4},
    "s.meta.json": {"subject_id": "s", "a4_mm": 100.0, "p_lorg_mm": [0.0, 0.0, 0.0],
                    "handedness": "right", "protocol": {"cycles": 2, "duration_s": 6.0}},
    "pose": {"n": [1, 0, 0], "o": [0, 1, 0], "a": [0, 0, 1], "p": [0, 0, 100]},
    "pose.json": {"n": [1, 0, 0], "o": [0, 1, 0], "a": [0, 0, 1], "p": [0, 0, 100]},
    "joints.json": {"angle_unit": "deg", "theta3": 7.0, "beta3": 97.0, "theta4": -9.0,
                    "beta4": -9.0, "d2_mm": 12.5},
    "manifest.json": {"command": "fk", "version": "0.1.0", "parameters": {"a4_mm": 105.0},
                      "inputs": [], "outputs": ["fk/pose.json"]},
    # stats writes a NaN spearman where rho is degenerate
    "stats.json": {"pooled": {"n": 12, "slope_mm_per_rad": -20.0, "intercept_mm": 18.0,
                              "spearman": -0.9},
                   "per_subject": [{"subject_id": "s", "n": 12, "slope_mm_per_rad": -20.0,
                                    "intercept_mm": 18.0, "spearman": math.nan}]},
}

# a JSON boolean where each schema reads a number: document, path to the
# field, part of the error line. Booleans decode to bool, an int subclass.
BOOLEAN_FIELDS = [
    ("surface.json", ("numerator", 0), "'numerator' must be 6 finite numbers"),
    ("fit_report.json", ("sse",), "'sse' must be a number"),
    ("fit_report.json", ("n",), "'n' must be a positive integer"),
    ("validate_report.json", ("n_subjects",), "'n_subjects' must be a positive integer"),
    ("s.meta.json", ("a4_mm",), "a4_mm must be a positive number"),
    ("s.meta.json", ("p_lorg_mm", 1), "p_lorg_mm must be 3 finite numbers"),
    ("s.meta.json", ("protocol", "cycles"), "protocol must hold integer cycles"),
    ("s.meta.json", ("protocol", "duration_s"), "protocol must hold integer cycles"),
    ("pose", ("a", 2), "stdin: 'a' must be 3 finite numbers"),
    ("pose.json", ("p", 0), "'p' must be 3 finite numbers"),
    ("joints.json", ("d2_mm",), "'d2_mm' must be a number"),
    ("stats.json", ("pooled", "n"), "'pooled' must be an object of n"),
    ("stats.json", ("per_subject", 0, "spearman"), "'per_subject' must be a list of such"),
]

# one bad field of each JSON kind: document, path to the field, its bad
# value, part of the error line
CORRUPTED_FIELDS = [
    ("surface.json", ("angle_unit",), "deg", "angle_unit must be 'rad'"),
    ("fit_report.json", ("n",), 0, "'n' must be a positive integer"),
    ("validate_report.json", ("pooled_sd_mm",), "x", "'pooled_sd_mm' must be a number"),
    ("s.meta.json", ("handedness",), "ambi", "handedness must be 'left' or 'right'"),
    ("manifest.json", ("outputs", 0), None, "'outputs' must be a list of strings"),
    ("stats.json", ("per_subject", 0, "subject_id"), 7, "'per_subject' must be a list of such"),
    ("pose.json", ("a", 2), -1, "(improper)"),
    ("joints.json", ("angle_unit",), "grad", "'angle_unit' must be 'deg' or 'rad'"),
]

# an integer too long for a float where each report schema reads a number:
# document, path to the field, part of the error line
LONG_INT_FIELDS = [
    ("fit_report.json", ("sse",), "'sse' must be a number"),
    ("validate_report.json", ("pooled_mean_mm",), "'pooled_mean_mm' must be a number"),
    ("stats.json", ("pooled", "slope_mm_per_rad"), "'pooled' must be an object of n"),
    ("joints.json", ("theta3",), "'theta3' must be a number"),
]


def _rejects_field(name, field, value, message, tmp_path, capsys, monkeypatch) -> None:
    """VALID_JSON[name] passes its check; with ``field`` set to ``value`` it
    exits 3 with one error line holding ``message``."""
    payload = copy.deepcopy(VALID_JSON[name])
    path = tmp_path / name
    argv = ["ik", "--pose", "-", "--a4", "100"] if name == "pose" else ["check", str(path)]

    def run_with(doc):
        path.write_text(json.dumps(doc))
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        return run(argv)

    assert run_with(payload) == 0
    capsys.readouterr()
    *parents, key = field
    target = payload
    for step in parents:
        target = target[step]
    target[key] = value
    assert run_with(payload) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


class TestExitCodes:
    @pytest.mark.parametrize("name, field, message", BOOLEAN_FIELDS,
                             ids=[f"{name} {'.'.join(map(str, field))}"
                                  for name, field, _ in BOOLEAN_FIELDS])
    def test_boolean_is_not_a_number(self, name, field, message, tmp_path, capsys,
                                     monkeypatch):
        _rejects_field(name, field, True, message, tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("name, field, value, message", CORRUPTED_FIELDS,
                             ids=[name for name, *_ in CORRUPTED_FIELDS])
    def test_corrupted_document(self, name, field, value, message, tmp_path, capsys,
                                monkeypatch):
        _rejects_field(name, field, value, message, tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("name, field, message", LONG_INT_FIELDS,
                             ids=[name for name, *_ in LONG_INT_FIELDS])
    def test_integer_past_float_range_is_not_a_number(self, name, field, message, tmp_path,
                                                      capsys, monkeypatch):
        # 401 digits: a valid JSON number that no float can hold
        _rejects_field(name, field, 10**400, message, tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("subject_id", ["left,wrist", "two\nlines", "cr\r"])
    def test_subject_id_that_breaks_a_csv_field(self, subject_id, data_dir, tmp_path, capsys):
        # each id would add a column or a row to predictions.csv and
        # per_subject.csv, which check then rejects
        with pytest.raises(ValueError, match="subject_id must be a string without"):
            SubjectParams(a4=100.0, subject_id=subject_id)
        meta = data_dir / "subject_01.meta.json"
        meta.write_text(json.dumps({**json.loads(meta.read_text()), "subject_id": subject_id}))
        surface = tmp_path / "s.json"
        save_surface(RationalQuadricSurface([20.0, 0, 0, 0, 0, 0], [0.0] * 5), surface)
        for argv in (["check", str(meta)],
                     ["predict", "--surface", str(surface), "--data", str(data_dir),
                      "--out", str(tmp_path / "o")]):
            assert run(argv) == 3
            err = capsys.readouterr().err
            assert "Traceback" not in err
            lines = err.splitlines()
            assert len(lines) == 1
            assert lines[0] == (f"error: {meta}: subject_id must be a string "
                                "without ',', CR or LF")
        assert not (tmp_path / "o" / "predictions.csv").exists()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_duration_is_a_schema_error(self, literal, data_dir, capsys):
        csv, meta = data_dir / "subject_00.csv", data_dir / "subject_00.meta.json"
        assert run(["check", str(meta)]) == 0
        capsys.readouterr()
        payload = json.loads(meta.read_text())
        payload["protocol"]["duration_s"] = float(literal)
        meta.write_text(json.dumps(payload))
        assert f'"duration_s": {literal}' in meta.read_text()
        assert run(["check", str(meta)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "finite duration_s > 0" in lines[0]
        with pytest.raises(SchemaError, match="finite duration_s"):
            load_session(csv, meta)

    @pytest.mark.parametrize("cosine", ["-1e200", "1e200"])
    def test_huge_direction_cosine_is_an_orientation_error(self, cosine, data_dir, capsys):
        # finite, but its rotation's determinant and Gram matrix overflow
        csv = data_dir / "subject_00.csv"
        lines = csv.read_text().splitlines()
        fields = lines[2].split(",")
        fields[4] = cosine  # nx of row 1
        lines[2] = ",".join(fields)
        csv.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["check", str(csv)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        prefix = f"error: {csv} row 1: "
        assert len(lines) == 1 and lines[0].startswith(prefix)
        assert len(lines[0]) - len(prefix) < 100  # no 200-digit determinant

    def test_session_metadata_is_standard_json(self, data_dir, tmp_path):
        session = load_session(data_dir / "subject_00.csv", data_dir / "subject_00.meta.json")
        session = dataclasses.replace(session, protocol=SessionProtocol(2, float("nan")))
        with pytest.raises(ValueError, match="JSON compliant"):
            save_session(session, tmp_path / "s.csv", tmp_path / "s.meta.json")

    @pytest.mark.parametrize("argv", OUT_OF_RANGE, ids=lambda argv: " ".join(argv[-2:]))
    def test_out_of_range_argument_is_usage_error(self, argv, tmp_path, capsys):
        assert run([*argv, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert any(line.startswith("wristkin ") and "error: argument " + argv[-2] in line
                   for line in err.splitlines())
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", REMOVED_FLAGS, ids=lambda argv: " ".join(argv[-2:]))
    def test_removed_flag_is_unrecognized(self, argv, tmp_path, capsys):
        assert run([*argv, "--out", str(tmp_path / "o")]) == 2
        message = "wristkin: error: unrecognized arguments: " + " ".join(argv[-2:])
        assert capsys.readouterr().err.splitlines()[-1] == message
        assert not (tmp_path / "o").exists()

    def test_usage_error(self, capsys):
        assert run([]) == 2
        assert run(["fk", "--theta3", "0"]) == 2  # missing required flags
        assert run(["fk", "--theta3", "0", "--d2", "0", "--a4", "100"]) == 2  # and an angle

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_numeric_error_from_degenerate_fit(self, tmp_path, capsys, steep_truth):
        # constant-x sessions cannot happen via synth; drive fit's
        # min-points guard instead (ValueError -> 4)
        out = tmp_path / "d"
        surface_path = tmp_path / "t.json"
        save_surface(steep_truth, surface_path)
        rc = run(["synth", "--subjects", "1", "--seed", "1", "--out", str(out),
                  "--cycles", "1", "--duration", "0.1", "--surface", str(surface_path)])
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

