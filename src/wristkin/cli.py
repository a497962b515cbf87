"""Command-line pipeline: kinematics queries, synthetic data, fitting,
validation, and plot-ready exports.

Subcommands: fk, ik, synth, fit, predict, validate, residuals, stats,
check. Commands that write files also emit a ``<command>_manifest.json``,
built by one rule in :func:`_write_manifest`: its parameters are the
parsed arguments (under their argparse dest) plus the constants the
command resolved, and its inputs are the pose, surface and data paths
given. It holds no timestamps, so reruns are byte-identical.

fk and ik take and print angles in degrees unless ``--angle-unit rad`` is
given; data files always use radians, and fk's manifest records the
angles as given, next to ``angle_unit``. synth draws the one protocol of
:class:`~wristkin.sessions.SyntheticConfig`, and residuals smooths with
:func:`~wristkin.regression.lowess` at its defaults.

Exit codes: 0 success, 2 usage (out-of-range count, size or duration arguments
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
    PoleError,
    SchemaError,
    WristKinError,
)
from .ga import CROSSOVER_RATE, MUTATION_RATE, GAConfig, fit_surface
from .regression import (
    LOWESS_FRAC,
    LOWESS_ITERATIONS,
    _finite_numbers,
    _json_number,
    _json_object,
    _read_text,
    _surface_from_payload,
    _write_json,
    fit_report,
    linear_regression,
    load_surface,
    lowess,
    reference_surface,
    save_surface,
    standardized_residuals,
)
from .sessions import (
    A4_RANGE,
    EXTENSION_MAX,
    FLEXION_MAX,
    RUD_AMPLITUDE,
    SAMPLE_RATE_HZ,
    SESSION_HEADER,
    SyntheticConfig,
    TrackingSession,
    _csv_numbers,
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


def _write_manifest(args, outputs, **resolved) -> None:
    """Write ``<command>_manifest.json`` into ``args.out``: every parsed
    argument but ``command``, ``func`` and ``out`` under its dest, then the
    ``resolved`` values; the inputs are the pose, surface and data paths given."""
    parameters = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    inputs = [getattr(args, k, None) for k in ("pose", "surface", "data")]
    _write_json(Path(args.out) / f"{args.command}_manifest.json", {
        "command": args.command,
        "version": __version__,
        "parameters": {**parameters, **resolved},
        "inputs": [p for p in inputs if p not in (None, "-")],
        "outputs": [str(p) for p in outputs],
    })


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


def _pose_from_payload(payload: dict, where) -> Pose:
    """The pose of a decoded pose JSON object (``ik``'s input, ``fk``'s output)."""
    cols = []
    for key in ("n", "o", "a", "p"):
        if not _finite_numbers(payload.get(key), 3):
            raise SchemaError(f"{where}: '{key}' must be 3 finite numbers")
        cols.append([float(v) for v in payload[key]])
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


# --- subcommands -----------------------------------------------------------


def _cmd_fk(args) -> int:
    theta3 = _angle_to_rad(args.theta3, args.angle_unit)
    theta4 = _angle_to_rad(args.theta4, args.angle_unit)
    state = JointState(theta3=theta3, theta4=theta4, d2=args.d2_mm)
    subject = SubjectParams(a4=args.a4_mm)
    pose = forward_kinematics(state, subject)
    payload = _pose_payload(pose)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        pose_path = _ensure_out(args) / "pose.json"
        _write_json(pose_path, payload)
        _write_manifest(args, [pose_path])
    return 0


def _cmd_ik(args) -> int:
    if args.pose == "-":
        text, where = sys.stdin.read(), "stdin"
    else:
        text, where = _read_text(args.pose), args.pose
    pose = _pose_from_payload(_json_object(text, where), where)
    state = inverse_kinematics(pose, SubjectParams(a4=args.a4_mm))
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
        joints_path = _ensure_out(args) / "joints.json"
        _write_json(joints_path, result)
        _write_manifest(args, [joints_path])
    return 0


def _cmd_synth(args) -> int:
    surface = load_surface(args.surface) if args.surface else reference_surface()
    config = SyntheticConfig(
        ground_truth=surface,
        n_subjects=args.subjects,
        seed=args.seed,
        cycles_per_subject=args.cycles,
        duration_s=args.duration_s,
        noise_sigma_mm=args.noise_sigma_mm,
    )
    out = _ensure_out(args)
    outputs = []
    for i, session in enumerate(synthesize_sessions(config)):
        data_path = out / f"subject_{i:02d}.csv"
        meta_path = out / f"subject_{i:02d}.meta.json"
        save_session(session, data_path, meta_path)
        outputs.extend([data_path, meta_path])
    _write_manifest(args, outputs, sample_rate_hz=SAMPLE_RATE_HZ, flexion_max_rad=FLEXION_MAX,
                    extension_max_rad=EXTENSION_MAX, rud_amplitude_rad=RUD_AMPLITUDE,
                    a4_range_mm=list(A4_RANGE), surface=args.surface or "builtin-reference")
    print(f"wrote {args.subjects} sessions to {out}")
    return 0


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
    config = GAConfig(seed=args.seed, generations=args.generations)
    surface, report = fit_surface(points, config)
    out = _ensure_out(args)
    surface_path = out / "surface.json"
    report_path = out / "fit_report.json"
    save_surface(surface, surface_path)
    _write_json(report_path, _report_payload(report))
    _write_manifest(args, [surface_path, report_path],
                    subjects_used=[s.subject.subject_id for s in sessions],
                    population_size=config.population_size,
                    crossover_rate=CROSSOVER_RATE, mutation_rate=MUTATION_RATE)
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
    _write_json(report_path, _report_payload(report))
    _write_manifest(args, [predictions_path, report_path])
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
    _write_manifest(args, [per_subject_path, report_path])
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
    # display smoothing on at most lowess_max_points evenly strided anchors,
    # interpolated between them; a shorter series anchors at every index,
    # where the interpolation returns the smoothed values exactly
    anchors = np.unique(
        np.linspace(0, residual.size - 1, args.lowess_max_points).round().astype(int)
    )
    smooth_anchor = lowess(index[anchors], std_res[anchors])
    smooth = np.interp(index, index[anchors], smooth_anchor)
    out = _ensure_out(args)
    rows = [RESIDUALS_HEADER] + _csv_lines(range(residual.size), residual, std_res, smooth)
    residuals_path = out / "residuals.csv"
    residuals_path.write_text("\n".join(rows) + "\n")
    _write_manifest(args, [residuals_path],
                    lowess_frac=LOWESS_FRAC, lowess_iterations=LOWESS_ITERATIONS)
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
    _write_manifest(args, [stats_path])
    print(
        f"d2 vs beta4 over {payload['pooled']['n']} samples: "
        f"slope={pooled_fit.slope:.2f} mm/rad spearman={pooled_fit.rho:.3f}"
    )
    return 0


# --- check -----------------------------------------------------------------


def _session_csv(lines: list[str], path: Path) -> str:
    """The checks :func:`load_session` makes, in its order: of the metadata
    file when there is one, then of the data file's lines; returns which
    metadata was used."""
    meta = path.with_name(path.stem + ".meta.json")
    used = "no metadata"
    if meta.exists():
        _parse_meta(_json_object(_read_text(meta), meta), meta)
        used = meta.name
    _parse_data(lines, path)
    return used


def _numbers_from(first: int):
    """Check of an output CSV: rows as wide as the header, numbers from
    column ``first`` on."""
    return lambda lines, path: _csv_numbers(lines[1:], path, lines[0].count(",") + 1, first)


def _fields(schema: dict):
    """Check of a decoded JSON object against ``{key: (ok, what)}``: each
    value must pass ``ok``, else ``'{key}' must be {what}``."""

    def check(payload: dict, where) -> None:
        for key, (ok, what) in schema.items():
            if not ok(payload.get(key)):
                raise SchemaError(f"{where}: '{key}' must be {what}")

    return check


def _object_of(schema: dict):
    return lambda v: isinstance(v, dict) and all(ok(v.get(k)) for k, (ok, _) in schema.items())


def _list_of(ok):
    return lambda v: isinstance(v, list) and all(map(ok, v))


_STRING = (lambda v: isinstance(v, str), "a string")
# a float the program can have written: NaN passes (an undefined r or
# spearman), an integer too long for a float does not
_NUMBER = (lambda v: _json_number(v) and not abs(v) > sys.float_info.max, "a number")
_POSITIVE_INT = (lambda v: _json_number(v, int) and v >= 1, "a positive integer")
_FIT_REPORT = {**dict.fromkeys(("sse", "rmse", "r", "r_squared"), _NUMBER), "n": _POSITIVE_INT}
_VALIDATION_REPORT = {**dict.fromkeys(("n_subjects", "n_total"), _POSITIVE_INT),
                      **dict.fromkeys(("pooled_mean_mm", "pooled_sd_mm"), _NUMBER)}
_JOINT_STATE = {"angle_unit": (lambda v: v in ("deg", "rad"), "'deg' or 'rad'"),
                **dict.fromkeys(("theta3", "beta3", "theta4", "beta4", "d2_mm"), _NUMBER)}
_REGRESSION = {"n": _POSITIVE_INT,
               **dict.fromkeys(("slope_mm_per_rad", "intercept_mm", "spearman"), _NUMBER)}
_STATS = {
    "pooled": (_object_of(_REGRESSION),
               "an object of n, slope_mm_per_rad, intercept_mm and spearman"),
    "per_subject": (_list_of(_object_of({"subject_id": _STRING, **_REGRESSION})),
                    "a list of such objects, each with a string subject_id"),
}
_MANIFEST = {**dict.fromkeys(("command", "version"), _STRING),
             "parameters": (lambda v: isinstance(v, dict), "an object"),
             **dict.fromkeys(("inputs", "outputs"), (_list_of(_STRING[0]), "a list of strings"))}

# JSON kinds, first match wins: (keys that identify the kind, kind label,
# check of the decoded object)
_JSON_KINDS = [
    ({"numerator", "denominator", "angle_unit"}, "surface", _surface_from_payload),
    (_FIT_REPORT.keys(), "fit report", _fields(_FIT_REPORT)),
    (_VALIDATION_REPORT.keys(), "validation report", _fields(_VALIDATION_REPORT)),
    ({"subject_id", "a4_mm", "p_lorg_mm", "handedness"}, "session metadata", _parse_meta),
    ({"command", "version"}, "manifest", _fields(_MANIFEST)),
    (_STATS.keys(), "stats", _fields(_STATS)),
    ({"n", "o", "a", "p"}, "pose", _pose_from_payload),
    (_JOINT_STATE.keys(), "joint state", _fields(_JOINT_STATE)),
]
# CSV header -> (kind label, check of the file's lines, which may return a
# detail for the label)
_CSV_KINDS = {
    SESSION_HEADER: ("session", _session_csv),
    PER_SUBJECT_HEADER: ("per-subject validation", _numbers_from(1)),
    RESIDUALS_HEADER: ("residual series", _numbers_from(0)),
    PREDICTIONS_HEADER: ("predictions", _numbers_from(1)),
}


def _report_payload(report) -> dict:
    """The fit report schema's fields of a FitReport, as written by fit and predict."""
    return {key: getattr(report, key) for key in _FIT_REPORT}


def _check_one(path: Path) -> str:
    """Validate one file against its (sniffed) schema; returns a kind label."""
    if not path.exists():
        raise SchemaError(f"{path}: no such file")
    if path.suffix == ".json":
        payload = _json_object(_read_text(path), path)
        for keys, label, check in _JSON_KINDS:
            if keys <= payload.keys():
                check(payload, path)
                return label
        raise SchemaError(f"{path}: unrecognized JSON document")
    if path.suffix == ".csv":
        lines = _read_text(path).splitlines()
        header = lines[0] if lines else ""
        if header not in _CSV_KINDS:
            raise SchemaError(f"{path}: unrecognized CSV header {header!r}")
        label, check = _CSV_KINDS[header]
        detail = check(lines, path)
        return f"{label} ({detail})" if isinstance(detail, str) else label
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
_NON_NEGATIVE_INT = _checked(int, lambda v: v >= 0, "an integer >= 0")
# synth's sample count, duration times SAMPLE_RATE_HZ, must be a finite number
_DURATION = _checked(float, lambda v: 0.0 < v * SAMPLE_RATE_HZ < math.inf,
                     f"a number > 0 that gives a finite sample count at {SAMPLE_RATE_HZ:g} Hz")
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
    p.add_argument("--theta3", type=float, required=True,
                   help="deviation angle (in --angle-unit)")
    p.add_argument("--theta4", type=float, required=True, help="flexion angle (in --angle-unit)")
    p.add_argument("--d2", dest="d2_mm", type=float, required=True, help="prismatic offset (mm)")
    p.add_argument("--a4", dest="a4_mm", type=float, required=True,
                   help="fingertip link length (mm)")
    p.add_argument("--out", help="directory for pose.json + manifest")
    _add_angle_unit(p)
    p.set_defaults(func=_cmd_fk)

    p = sub.add_parser("ik", help="inverse kinematics of a pose JSON")
    p.add_argument("--pose", required=True, help="pose JSON path, or '-' for stdin")
    p.add_argument("--a4", dest="a4_mm", type=float, required=True,
                   help="fingertip link length (mm)")
    p.add_argument("--out", help="directory for joints.json + manifest")
    _add_angle_unit(p)
    p.set_defaults(func=_cmd_ik)

    p = sub.add_parser("synth", help="generate synthetic tracking sessions")
    p.add_argument("--subjects", type=_COUNT, default=25)
    p.add_argument("--seed", type=_NON_NEGATIVE_INT, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--cycles", type=_COUNT, default=10)
    p.add_argument("--duration", dest="duration_s", type=_DURATION, default=40.0, help="seconds")
    p.add_argument("--noise-sigma", dest="noise_sigma_mm", type=_NON_NEGATIVE, default=0.0,
                   help="d2 noise sd (mm)")
    p.add_argument("--surface", help="ground-truth surface JSON (default: built-in)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="fit the offset surface to sessions")
    p.add_argument("--data", required=True, help="directory of session pairs")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_NON_NEGATIVE_INT, default=0)
    p.add_argument("--n-fit", type=_COUNT, help="randomly keep this many sessions for fitting")
    p.add_argument("--generations", type=_COUNT, default=GAConfig.generations)
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
    except (PoleError, DegenerateDataError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except (WristKinError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
