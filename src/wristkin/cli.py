"""Command-line pipeline: kinematics queries, synthetic data, fitting,
validation, and plot-ready exports.

Subcommands: fk, ik, synth, fit, predict, validate, residuals, stats,
check. Commands that write files also emit a ``<command>_manifest.json``
(command, tool version, resolved parameters, input/output paths — no
timestamps, so reruns are byte-identical). Angles are degrees at the
boundary unless ``--angle-unit rad`` is given; files always use radians.

Exit codes: 0 success, 2 usage (out-of-range count, size or rate arguments
included; ``fit --n-fit`` is checked against the session count after
loading), 3 data error (schema/orientation/reach), 4 numeric error (pole,
degenerate statistic, invalid value).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    DegenerateDataError,
    OrientationError,
    OutOfReachError,
    PoleError,
    SchemaError,
    WristKinError,
)
from .ga import GAConfig, fit_surface
from .regression import (
    fit_report,
    linear_regression,
    load_surface,
    lowess,
    reference_surface,
    save_surface,
    standardized_residuals,
)
from .sessions import (
    SESSION_HEADER,
    SyntheticConfig,
    TrackingSession,
    _parse_data,
    _parse_meta,
    _session_predictions,
    derive_joint_series,
    load_session,
    save_session,
    subject_split,
    synthesize_sessions,
    to_data_points,
    validation_stats,
)
from .transforms import Pose
from .wrist import JointState, SubjectParams, forward_kinematics, inverse_kinematics

PREDICTIONS_HEADER = "subject_id,t,beta3,beta4,d2_observed,d2_predicted"
PER_SUBJECT_HEADER = "subject_id,n,mean_residual_mm,sd_residual_mm,pct_error,min,q1,median,q3,max"
RESIDUALS_HEADER = "index,residual,standardized_residual,lowess"

USAGE_ERROR = 2
DATA_ERROR = 3
NUMERIC_ERROR = 4


def _csv_lines(*columns) -> list[str]:
    """Comma-joined rows of equal-length columns; floats print as ``repr``."""
    return list(map(",".join, zip(*(map(str, np.asarray(c).tolist()) for c in columns))))


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(out_dir: Path, command: str, parameters: dict, inputs, outputs) -> Path:
    path = out_dir / f"{command}_manifest.json"
    _write_json(
        path,
        {
            "command": command,
            "version": __version__,
            "parameters": parameters,
            "inputs": [str(p) for p in inputs],
            "outputs": [str(p) for p in outputs],
        },
    )
    return path


def _ensure_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _angle_to_rad(value: float, unit: str) -> float:
    return math.radians(value) if unit == "deg" else value


def _angle_from_rad(value: float, unit: str) -> float:
    return math.degrees(value) if unit == "deg" else value


def _pose_payload(pose: Pose) -> dict:
    return {
        "n": [float(v) for v in pose.n],
        "o": [float(v) for v in pose.o],
        "a": [float(v) for v in pose.a],
        "p": [float(v) for v in pose.p],
    }


def _pose_from_payload(payload, where: str) -> Pose:
    if not isinstance(payload, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    cols = []
    for key in ("n", "o", "a", "p"):
        vec = payload.get(key)
        if (
            not isinstance(vec, list)
            or len(vec) != 3
            or not all(isinstance(v, (int, float)) and math.isfinite(v) for v in vec)
        ):
            raise SchemaError(f"{where}: '{key}' must be 3 finite numbers")
        cols.append([float(v) for v in vec])
    r = np.column_stack(cols[:3])
    try:
        return Pose(r, np.array(cols[3]))
    except ValueError as exc:
        raise OrientationError(f"{where}: {exc}") from exc


def _discover_sessions(data_dir: str) -> list[tuple[Path, Path]]:
    root = Path(data_dir)
    if not root.is_dir():
        raise SchemaError(f"{data_dir}: not a directory")
    pairs = []
    for csv_path in sorted(root.glob("*.csv")):
        meta_path = csv_path.with_name(csv_path.stem + ".meta.json")
        if meta_path.exists():
            pairs.append((csv_path, meta_path))
    if not pairs:
        raise SchemaError(f"{data_dir}: no session pairs (*.csv with *.meta.json) found")
    return pairs


def _load_dataset(data_dir: str) -> list[TrackingSession]:
    return [load_session(d, m) for d, m in _discover_sessions(data_dir)]


def _resolve_theta(args, name: str, unit: str) -> float:
    plain = getattr(args, name)
    forced_deg = getattr(args, f"{name}_deg")
    if (plain is None) == (forced_deg is None):
        raise SchemaError(f"give exactly one of --{name} or --{name}-deg")
    if forced_deg is not None:
        return math.radians(forced_deg)
    return _angle_to_rad(plain, unit)


# --- subcommands -----------------------------------------------------------


def _cmd_fk(args) -> int:
    theta3 = _resolve_theta(args, "theta3", args.angle_unit)
    theta4 = _resolve_theta(args, "theta4", args.angle_unit)
    state = JointState(theta3=theta3, theta4=theta4, d2=args.d2)
    subject = SubjectParams(a4=args.a4)
    pose = forward_kinematics(state, subject)
    payload = _pose_payload(pose)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        out = _ensure_out(args)
        pose_path = out / "pose.json"
        _write_json(pose_path, payload)
        _write_manifest(
            out,
            "fk",
            {
                "theta3_rad": theta3,
                "theta4_rad": theta4,
                "d2_mm": args.d2,
                "a4_mm": args.a4,
                "angle_unit": args.angle_unit,
            },
            [],
            [pose_path],
        )
    return 0


def _cmd_ik(args) -> int:
    if args.pose == "-":
        text = sys.stdin.read()
        where = "stdin"
    else:
        text = Path(args.pose).read_text()
        where = args.pose
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{where}: not valid JSON ({exc})") from exc
    pose = _pose_from_payload(payload, where)
    state = inverse_kinematics(pose, SubjectParams(a4=args.a4))
    unit = args.angle_unit
    result = {
        "angle_unit": unit,
        "theta3": _angle_from_rad(state.theta3, unit),
        "beta3": _angle_from_rad(state.beta3, unit),
        "theta4": _angle_from_rad(state.theta4, unit),
        "beta4": _angle_from_rad(state.beta4, unit),
        "d2_mm": state.d2,
    }
    print(json.dumps(result, indent=2, sort_keys=True))
    if args.out:
        out = _ensure_out(args)
        joints_path = out / "joints.json"
        _write_json(joints_path, result)
        _write_manifest(
            out,
            "ik",
            {"pose": args.pose, "a4_mm": args.a4, "angle_unit": unit},
            [] if args.pose == "-" else [args.pose],
            [joints_path],
        )
    return 0


def _cmd_synth(args) -> int:
    unit = args.angle_unit
    surface = load_surface(args.surface) if args.surface else reference_surface()
    config = SyntheticConfig(
        ground_truth=surface,
        n_subjects=args.subjects,
        seed=args.seed,
        cycles_per_subject=args.cycles,
        duration_s=args.duration,
        flexion_max=_angle_to_rad(args.flexion_max, unit),
        extension_max=_angle_to_rad(args.extension_max, unit),
        rud_amplitude=_angle_to_rad(args.rud_amplitude, unit),
        noise_sigma_mm=args.noise_sigma,
        a4_range=(args.a4_min, args.a4_max),
        sample_rate_hz=args.sample_rate,
    )
    out = _ensure_out(args)
    outputs = []
    for i, session in enumerate(synthesize_sessions(config)):
        data_path = out / f"subject_{i:02d}.csv"
        meta_path = out / f"subject_{i:02d}.meta.json"
        save_session(session, data_path, meta_path)
        outputs.extend([data_path, meta_path])
    _write_manifest(
        out,
        "synth",
        {
            "subjects": args.subjects,
            "seed": args.seed,
            "cycles": args.cycles,
            "duration_s": args.duration,
            "sample_rate_hz": args.sample_rate,
            "flexion_max_rad": config.flexion_max,
            "extension_max_rad": config.extension_max,
            "rud_amplitude_rad": config.rud_amplitude,
            "noise_sigma_mm": args.noise_sigma,
            "a4_range_mm": [args.a4_min, args.a4_max],
            "surface": args.surface or "builtin-reference",
            "angle_unit": unit,
        },
        [args.surface] if args.surface else [],
        outputs,
    )
    print(f"wrote {args.subjects} sessions to {out}")
    return 0


def _ga_config(args) -> GAConfig:
    overrides = {}
    if args.generations is not None:
        overrides["generations"] = args.generations
    if args.population_size is not None:
        overrides["population_size"] = args.population_size
    return GAConfig(seed=args.seed, **overrides)


def _cmd_fit(args) -> int:
    sessions = _load_dataset(args.data)
    if args.n_fit is not None:
        # the bound depends on the data, so argparse cannot check it
        if args.n_fit >= len(sessions):
            print(f"error: --n-fit must be below the {len(sessions)} sessions in {args.data}, "
                  f"got {args.n_fit}", file=sys.stderr)
            return USAGE_ERROR
        sessions, _ = subject_split(sessions, args.n_fit, seed=args.seed)
    points = to_data_points([derive_joint_series(s) for s in sessions])
    config = _ga_config(args)
    surface, report = fit_surface(points, config)
    out = _ensure_out(args)
    surface_path = out / "surface.json"
    report_path = out / "fit_report.json"
    save_surface(surface, surface_path)
    _write_json(
        report_path,
        {
            "sse": report.sse,
            "rmse": report.rmse,
            "r": report.r,
            "r_squared": report.r_squared,
            "n": report.n,
        },
    )
    _write_manifest(
        out,
        "fit",
        {
            "data": args.data,
            "seed": args.seed,
            "n_fit": args.n_fit,
            "subjects_used": [s.subject.subject_id for s in sessions],
            "generations": config.generations,
            "population_size": config.population_size,
            "crossover_rate": config.crossover_rate,
            "mutation_rate": config.mutation_rate,
        },
        [args.data],
        [surface_path, report_path],
    )
    print(
        f"fit {report.n} points from {len(sessions)} sessions: "
        f"rmse={report.rmse:.4f} mm r2={report.r_squared:.4f}"
    )
    return 0


def _cmd_predict(args) -> int:
    surface = load_surface(args.surface)
    sessions = _load_dataset(args.data)
    out = _ensure_out(args)
    rows = [PREDICTIONS_HEADER]
    all_series = []
    for session, series, predicted in _session_predictions(surface, sessions):
        all_series.append(series)
        rows += _csv_lines([session.subject.subject_id] * len(series), series.times,
                           series.beta3, series.beta4, series.d2, predicted)
    predictions_path = out / "predictions.csv"
    predictions_path.write_text("\n".join(rows) + "\n")
    report = fit_report(surface, to_data_points(all_series))
    report_path = out / "predict_report.json"
    _write_json(
        report_path,
        {
            "sse": report.sse,
            "rmse": report.rmse,
            "r": report.r,
            "r_squared": report.r_squared,
            "n": report.n,
        },
    )
    _write_manifest(
        out,
        "predict",
        {"surface": args.surface, "data": args.data},
        [args.surface, args.data],
        [predictions_path, report_path],
    )
    print(f"predicted {report.n} samples: rmse={report.rmse:.4f} mm")
    return 0


def _cmd_validate(args) -> int:
    surface = load_surface(args.surface)
    sessions = _load_dataset(args.data)
    summary = validation_stats(surface, sessions)
    out = _ensure_out(args)
    fields = ("subject_id", "n", "mean_residual", "sd_residual", "pct_error", "minimum",
              "q1", "median", "q3", "maximum")
    rows = [PER_SUBJECT_HEADER] + _csv_lines(
        *([getattr(s, f) for s in summary.subjects] for f in fields)
    )
    per_subject_path = out / "per_subject.csv"
    per_subject_path.write_text("\n".join(rows) + "\n")
    report_path = out / "validate_report.json"
    _write_json(
        report_path,
        {
            "n_subjects": len(summary.subjects),
            "n_total": summary.n_total,
            "pooled_mean_mm": summary.pooled_mean,
            "pooled_sd_mm": summary.pooled_sd,
        },
    )
    _write_manifest(
        out,
        "validate",
        {"surface": args.surface, "data": args.data},
        [args.surface, args.data],
        [per_subject_path, report_path],
    )
    print(
        f"validated {len(summary.subjects)} subjects: "
        f"pooled residual {summary.pooled_mean:+.3f} +- {summary.pooled_sd:.3f} mm"
    )
    return 0


def _cmd_residuals(args) -> int:
    surface = load_surface(args.surface)
    sessions = _load_dataset(args.data)
    residual = np.concatenate(
        [series.d2 - predicted for _, series, predicted in _session_predictions(surface, sessions)]
    )
    std_res = standardized_residuals(residual)
    index = np.arange(residual.size, dtype=float)
    if residual.size > args.lowess_max_points:
        # display smoothing for large series: evaluate on a strided subset
        # of anchors and interpolate between them
        anchors = np.unique(
            np.linspace(0, residual.size - 1, args.lowess_max_points).round().astype(int)
        )
        smooth_anchor = lowess(
            index[anchors], std_res[anchors], frac=args.lowess_frac,
            iterations=args.lowess_iterations,
        )
        smooth = np.interp(index, index[anchors], smooth_anchor)
    else:
        smooth = lowess(index, std_res, frac=args.lowess_frac, iterations=args.lowess_iterations)
    out = _ensure_out(args)
    rows = [RESIDUALS_HEADER] + _csv_lines(range(residual.size), residual, std_res, smooth)
    residuals_path = out / "residuals.csv"
    residuals_path.write_text("\n".join(rows) + "\n")
    _write_manifest(
        out,
        "residuals",
        {
            "surface": args.surface,
            "data": args.data,
            "lowess_frac": args.lowess_frac,
            "lowess_iterations": args.lowess_iterations,
            "lowess_max_points": args.lowess_max_points,
        },
        [args.surface, args.data],
        [residuals_path],
    )
    print(f"wrote {residual.size} residuals to {residuals_path}")
    return 0


def _cmd_stats(args) -> int:
    sessions = _load_dataset(args.data)
    per_subject = []
    beta4_all = []
    d2_all = []
    for session in sessions:
        series = derive_joint_series(session)
        fit = linear_regression(series.beta4, series.d2)
        per_subject.append(
            {
                "subject_id": session.subject.subject_id,
                "n": len(series),
                "slope_mm_per_rad": fit.slope,
                "intercept_mm": fit.intercept,
                "spearman": fit.rho,
            }
        )
        beta4_all.append(series.beta4)
        d2_all.append(series.d2)
    pooled_fit = linear_regression(np.concatenate(beta4_all), np.concatenate(d2_all))
    payload = {
        "pooled": {
            "n": int(sum(s["n"] for s in per_subject)),
            "slope_mm_per_rad": pooled_fit.slope,
            "intercept_mm": pooled_fit.intercept,
            "spearman": pooled_fit.rho,
        },
        "per_subject": per_subject,
    }
    out = _ensure_out(args)
    stats_path = out / "stats.json"
    _write_json(stats_path, payload)
    _write_manifest(out, "stats", {"data": args.data}, [args.data], [stats_path])
    print(
        f"d2 vs beta4 over {payload['pooled']['n']} samples: "
        f"slope={pooled_fit.slope:.2f} mm/rad spearman={pooled_fit.rho:.3f}"
    )
    return 0


# --- check -----------------------------------------------------------------


def _check_csv_rows(path: Path, n_cols: int, numeric_from: int) -> None:
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != n_cols:
            raise SchemaError(f"{path} row {i}: expected {n_cols} columns, got {len(parts)}")
        for value in parts[numeric_from:]:
            try:
                float(value)
            except ValueError as exc:
                raise SchemaError(f"{path} row {i}: non-numeric field {value!r}") from exc


def _check_session_csv(path: Path) -> str:
    meta = path.with_name(path.stem + ".meta.json")
    if meta.exists():
        load_session(path, meta)
        return f"session ({meta.name})"
    # no metadata: the loader's checks of the data file alone
    _parse_data(path)
    return "session (no metadata)"


_NUMBER = (lambda v: isinstance(v, (int, float)), "a number")
_POSITIVE_INT = (lambda v: isinstance(v, int) and v >= 1, "a positive integer")
# numeric JSON reports: kind label -> key -> (check, what the value must be)
_REPORTS = {
    "fit report": {**dict.fromkeys(("sse", "rmse", "r", "r_squared"), _NUMBER),
                   "n": _POSITIVE_INT},
    "validation report": {**dict.fromkeys(("n_subjects", "n_total"), _POSITIVE_INT),
                          **dict.fromkeys(("pooled_mean_mm", "pooled_sd_mm"), _NUMBER)},
}


def _check_manifest_json(path: Path, payload: dict) -> None:
    if not isinstance(payload.get("command"), str):
        raise SchemaError(f"{path}: 'command' must be a string")
    if not isinstance(payload.get("version"), str):
        raise SchemaError(f"{path}: 'version' must be a string")
    if not isinstance(payload.get("parameters"), dict):
        raise SchemaError(f"{path}: 'parameters' must be an object")
    for key in ("inputs", "outputs"):
        if not isinstance(payload.get(key), list):
            raise SchemaError(f"{path}: '{key}' must be a list")


def _check_one(path: Path) -> str:
    """Validate one file against its (sniffed) schema; returns a kind label."""
    if not path.exists():
        raise SchemaError(f"{path}: no such file")
    if path.suffix == ".json":
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(payload, dict):
            raise SchemaError(f"{path}: expected a JSON object")
        keys = payload.keys()
        if {"numerator", "denominator", "angle_unit"} <= keys:
            load_surface(path)
            return "surface"
        for kind, schema in _REPORTS.items():
            if schema.keys() <= keys:
                for key, (ok, what) in schema.items():
                    if not ok(payload[key]):
                        raise SchemaError(f"{path}: '{key}' must be {what}")
                return kind
        if {"subject_id", "a4_mm", "p_lorg_mm", "handedness"} <= keys:
            _parse_meta(path)
            return "session metadata"
        if {"command", "version"} <= keys:
            _check_manifest_json(path, payload)
            return "manifest"
        if {"pooled", "per_subject"} <= keys:
            return "stats"
        raise SchemaError(f"{path}: unrecognized JSON document")
    if path.suffix == ".csv":
        first = path.read_text().splitlines()
        header = first[0] if first else ""
        if header == SESSION_HEADER:
            return _check_session_csv(path)
        if header == PER_SUBJECT_HEADER:
            _check_csv_rows(path, 10, 1)
            return "per-subject validation"
        if header == RESIDUALS_HEADER:
            _check_csv_rows(path, 4, 0)
            return "residual series"
        if header == PREDICTIONS_HEADER:
            _check_csv_rows(path, 6, 1)
            return "predictions"
        raise SchemaError(f"{path}: unrecognized CSV header {header!r}")
    raise SchemaError(f"{path}: unsupported file type {path.suffix!r}")


def _cmd_check(args) -> int:
    for name in args.paths:
        kind = _check_one(Path(name))
        print(f"OK {name} ({kind})")
    return 0


# --- parser ----------------------------------------------------------------


def _checked(kind: type, ok, requirement: str):
    """argparse type: parse with ``kind``, then reject a value failing
    ``ok`` as a usage error (exit 2)."""

    def parse(text: str):
        if not ok(value := kind(text)):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in parse errors
    return parse


_COUNT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_POSITIVE = _checked(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")
_NON_NEGATIVE = _checked(float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")


def _add_angle_unit(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--angle-unit",
        choices=("deg", "rad"),
        default="deg",
        help="unit of boundary angle values (default: deg)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wristkin",
        description="Wrist kinematics with a translating rotation center.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fk", help="forward kinematics of one joint state")
    p.add_argument("--theta3", type=float, help="deviation angle (in --angle-unit)")
    p.add_argument("--theta3-deg", type=float, help="deviation angle in degrees")
    p.add_argument("--theta4", type=float, help="flexion angle (in --angle-unit)")
    p.add_argument("--theta4-deg", type=float, help="flexion angle in degrees")
    p.add_argument("--d2", type=float, required=True, help="prismatic offset (mm)")
    p.add_argument("--a4", type=float, required=True, help="fingertip link length (mm)")
    p.add_argument("--out", help="directory for pose.json + manifest")
    _add_angle_unit(p)
    p.set_defaults(func=_cmd_fk)

    p = sub.add_parser("ik", help="inverse kinematics of a pose JSON")
    p.add_argument("--pose", required=True, help="pose JSON path, or '-' for stdin")
    p.add_argument("--a4", type=float, required=True, help="fingertip link length (mm)")
    p.add_argument("--out", help="directory for joints.json + manifest")
    _add_angle_unit(p)
    p.set_defaults(func=_cmd_ik)

    p = sub.add_parser("synth", help="generate synthetic tracking sessions")
    p.add_argument("--subjects", type=_COUNT, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--cycles", type=_COUNT, default=10)
    p.add_argument("--duration", type=_POSITIVE, default=40.0, help="seconds")
    p.add_argument("--sample-rate", type=_POSITIVE, default=50.0, help="Hz")
    p.add_argument("--noise-sigma", type=_NON_NEGATIVE, default=0.0, help="d2 noise sd (mm)")
    p.add_argument("--flexion-max", type=float, default=30.0)
    p.add_argument("--extension-max", type=float, default=10.0)
    p.add_argument("--rud-amplitude", type=float, default=5.0)
    p.add_argument("--a4-min", type=float, default=90.0)
    p.add_argument("--a4-max", type=float, default=110.0)
    p.add_argument("--surface", help="ground-truth surface JSON (default: built-in)")
    _add_angle_unit(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="fit the offset surface to sessions")
    p.add_argument("--data", required=True, help="directory of session pairs")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-fit", type=_COUNT, help="randomly keep this many sessions for fitting")
    p.add_argument("--generations", type=_COUNT)
    p.add_argument("--population-size", type=_checked(int, lambda v: v >= 4, "an integer >= 4"))
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="predict d2 for sessions with a surface")
    p.add_argument("--surface", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("validate", help="per-subject residual statistics")
    p.add_argument("--surface", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("residuals", help="residual series with LOWESS overlay")
    p.add_argument("--surface", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lowess-frac", default=2.0 / 3.0,
                   type=_checked(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]"))
    p.add_argument("--lowess-iterations", default=3,
                   type=_checked(int, lambda v: v >= 0, "an integer >= 0"))
    p.add_argument(
        "--lowess-max-points",
        type=_checked(int, lambda v: v >= 3, "an integer >= 3"),
        default=2000,
        help="above this size, smooth anchors and interpolate",
    )
    p.set_defaults(func=_cmd_residuals)

    p = sub.add_parser("stats", help="d2-vs-flexion regression and rank correlation")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("check", help="validate files against the documented schemas")
    p.add_argument("paths", nargs="+", metavar="PATH")
    p.set_defaults(func=_cmd_check)

    return parser


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except (SchemaError, OrientationError, OutOfReachError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (PoleError, DegenerateDataError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except WristKinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
