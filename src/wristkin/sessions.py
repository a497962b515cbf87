"""Tracking sessions: file ingestion, synthetic generation, joint derivation.

A session is an ordered series of end-effector poses expressed in the
optical sensor frame L, plus the per-subject constants needed to map them
into the wrist chain. Samples are array rows, and every per-sample stage
(synthesis, file I/O, inverse kinematics) is one batch operation. Sessions
come from two places: the documented CSV + JSON file pair (replacing live
capture), or the synthetic generator that emulates the flexion-extension
protocol (smooth cycles from neutral to extension to flexion and back, a
small coupled deviation sinusoid, and a ground-truth surface for the
translation offset d2).

File formats
------------
data CSV    header ``t,px,py,pz,nx,ny,nz,ox,oy,oz,ax,ay,az``; t seconds,
            positions mm, direction cosines dimensionless.
meta JSON   ``subject_id`` (str), ``a4_mm`` (> 0), ``p_lorg_mm`` (3 numbers),
            ``handedness`` ("left"|"right"), optional ``protocol``
            {"cycles", "duration_s"}.

Numbers are written with 12 decimal places; a load/save cycle of a saved
session is byte-identical. Loading checks header, columns, numbers, times
and rotations in that order, naming the first row failing a check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import OrientationError, SchemaError
from .regression import DataPoints, RationalQuadricSurface
from .transforms import _check_rigid, _flagged, _gram_drift, invert
from .wrist import HALF_PI, SubjectParams, _fk_arrays, _ik_arrays, sensor_frame_transform

SESSION_HEADER = "t,px,py,pz,nx,ny,nz,ox,oy,oz,ax,ay,az"
# Gram drift thresholds on loaded rotation columns: below KEEP the matrix is
# stored bit-for-bit, up to REPAIR it is SVD-projected, beyond it is rejected.
DRIFT_KEEP = 1e-9
DRIFT_REPAIR = 1e-3
_ROW_FORMAT = ",".join(["%.12f"] * 13)


@dataclass(frozen=True)
class SessionProtocol:
    cycles: int
    duration_s: float


@dataclass(frozen=True)
class TrackingSession:
    """Timestamped sensor-frame poses plus subject constants, one row per
    sample: ``times`` (n,) s, rotations ``r`` (n, 3, 3) with columns n, o, a
    and positions ``p`` (n, 3) mm. Every row must pass the checks of
    :class:`~wristkin.transforms.Pose`, and times must be finite and
    increase."""

    subject: SubjectParams
    times: np.ndarray
    r: np.ndarray
    p: np.ndarray
    protocol: SessionProtocol | None = None
    handedness: str = "right"

    def __post_init__(self):
        times, r, p = (np.array(v, dtype=float) for v in (self.times, self.r, self.p))
        n = times.size
        if times.ndim != 1 or r.shape != (n, 3, 3) or p.shape != (n, 3):
            raise ValueError("times (n,), r (n, 3, 3) and p (n, 3) must have matching lengths")
        _check_rigid(r, p)
        if bad := _flagged(~np.isfinite(times)):
            raise ValueError(f"{bad[1]}timestamp must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("timestamps must be strictly increasing")
        if self.handedness not in ("left", "right"):
            raise ValueError(f"handedness must be 'left' or 'right', got {self.handedness!r}")
        for name, value in (("times", times), ("r", r), ("p", p)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class JointSeries:
    """Joint values aligned 1:1 with a session's samples: ``theta3``,
    ``theta4`` (rad) and ``d2`` (mm) arrays over finite ``times``. Every
    sample must pass the checks of :class:`~wristkin.wrist.JointState`, each
    failure naming the first failing sample."""

    times: np.ndarray
    theta3: np.ndarray
    theta4: np.ndarray
    d2: np.ndarray

    def __post_init__(self):
        names = ("times", "theta3", "theta4", "d2")
        times, theta3, theta4, d2 = (np.array(getattr(self, k), dtype=float) for k in names)
        if times.ndim != 1 or not times.shape == theta3.shape == theta4.shape == d2.shape:
            raise ValueError("times, theta3, theta4 and d2 must be 1-d arrays of one length")
        if bad := _flagged(~np.isfinite(times)):
            raise ValueError(f"{bad[1]}timestamp must be finite")
        if bad := _flagged(~(np.isfinite(theta3) & np.isfinite(theta4) & np.isfinite(d2))):
            raise ValueError(f"{bad[1]}joint state must be finite")
        if bad := _flagged(np.abs(theta4) > HALF_PI):
            raise ValueError(f"{bad[1]}theta4 {theta4[bad[0]]} outside [-pi/2, pi/2]")
        for name, value in zip(names, (times, theta3, theta4, d2)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.times.size

    @property
    def beta3(self) -> np.ndarray:
        return self.theta3 + HALF_PI

    @property
    def beta4(self) -> np.ndarray:
        return self.theta4


@dataclass(frozen=True)
class SyntheticConfig:
    """Protocol emulation parameters (angles radians, lengths mm).

    Each subject performs ``cycles_per_subject`` flexion-extension cycles
    in ``duration_s`` seconds: beta4 runs neutral -> extension (negative)
    -> flexion (positive) -> neutral per cycle, spanning
    [-extension_max, +flexion_max]. theta3 is a coupled sinusoid of
    amplitude ``rud_amplitude`` with a per-subject phase. d2 follows
    ``ground_truth`` evaluated at (beta3, beta4) plus Gaussian noise.
    """

    ground_truth: RationalQuadricSurface
    n_subjects: int
    seed: int = 0
    cycles_per_subject: int = 10
    duration_s: float = 40.0
    flexion_max: float = math.radians(30.0)
    extension_max: float = math.radians(10.0)
    rud_amplitude: float = math.radians(5.0)
    noise_sigma_mm: float = 0.0
    a4_range: tuple[float, float] = (90.0, 110.0)
    sample_rate_hz: float = 50.0

    def __post_init__(self):
        if self.flexion_max < 0 or self.extension_max < 0:
            raise ValueError("flexion_max and extension_max must be >= 0")
        if self.noise_sigma_mm < 0:
            raise ValueError("noise_sigma_mm must be >= 0")
        if self.n_subjects < 1:
            raise ValueError("n_subjects must be >= 1")
        lo, hi = self.a4_range
        if not 0 < lo <= hi:
            raise ValueError(f"a4_range must be a positive interval, got {self.a4_range}")
        if self.cycles_per_subject < 1 or self.duration_s <= 0 or self.sample_rate_hz <= 0:
            raise ValueError("cycles, duration and sample rate must be positive")


def _parse_meta(meta_file) -> tuple[SubjectParams, SessionProtocol | None, str]:
    try:
        payload = json.loads(Path(meta_file).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{meta_file}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise SchemaError(f"{meta_file}: expected a JSON object")
    subject_id = payload.get("subject_id")
    if not isinstance(subject_id, str):
        raise SchemaError(f"{meta_file}: subject_id must be a string")
    a4 = payload.get("a4_mm")
    if not isinstance(a4, (int, float)) or not math.isfinite(a4) or a4 <= 0:
        raise SchemaError(f"{meta_file}: a4_mm must be a positive number")
    p_lorg = payload.get("p_lorg_mm")
    if (
        not isinstance(p_lorg, list)
        or len(p_lorg) != 3
        or not all(isinstance(v, (int, float)) and math.isfinite(v) for v in p_lorg)
    ):
        raise SchemaError(f"{meta_file}: p_lorg_mm must be 3 finite numbers")
    handedness = payload.get("handedness")
    if handedness not in ("left", "right"):
        raise SchemaError(f"{meta_file}: handedness must be 'left' or 'right'")
    protocol = None
    if "protocol" in payload:
        proto = payload["protocol"]
        if (
            not isinstance(proto, dict)
            or not isinstance(proto.get("cycles"), int)
            or proto["cycles"] < 1
            or not isinstance(proto.get("duration_s"), (int, float))
            or proto["duration_s"] <= 0
        ):
            raise SchemaError(
                f"{meta_file}: protocol must hold integer cycles >= 1 and duration_s > 0"
            )
        protocol = SessionProtocol(cycles=proto["cycles"], duration_s=float(proto["duration_s"]))
    subject = SubjectParams(a4=float(a4), p_lorg=np.array(p_lorg, dtype=float), subject_id=subject_id)
    return subject, protocol, handedness


def _parse_data(data_file) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Times (n,), rotations (n, 3, 3) and positions (n, 3) of a session
    data CSV, checked and drift-repaired as :func:`load_session` describes."""
    lines = Path(data_file).read_text().splitlines()
    if not lines or lines[0] != SESSION_HEADER:
        raise SchemaError(f"{data_file}: first line must be '{SESSION_HEADER}'")
    rows = lines[1:]
    if not rows:
        raise SchemaError(f"{data_file}: no samples")
    row = f"{data_file} row"
    width = np.char.count(rows, ",") + 1
    if bad := _flagged(width != 13, row):
        raise SchemaError(f"{bad[1]}expected 13 columns, got {width[bad[0]]}")
    try:
        values = np.array(",".join(rows).split(","), dtype=float).reshape(-1, 13)
    except ValueError:
        for i, line in enumerate(rows):  # error path only: name the row
            try:
                np.array(line.split(","), dtype=float)
            except ValueError as exc:
                raise SchemaError(f"{row} {i}: non-numeric field ({exc})") from exc
        raise
    if bad := _flagged(~np.isfinite(values).all(axis=1), row):
        raise SchemaError(f"{bad[1]}non-finite field")
    times = values[:, 0]
    if bad := _flagged(np.diff(times, prepend=-np.inf) <= 0.0, row):
        i, where = bad
        raise SchemaError(f"{where}monotonicity violated (t = {times[i]} after {times[i - 1]})")
    # fields n, o, a of each row are the columns of its rotation
    r = values[:, 4:13].reshape(-1, 3, 3).transpose(0, 2, 1).copy()
    det = np.linalg.det(r)
    if bad := _flagged(det <= 0.0, row):
        raise OrientationError(f"{bad[1]}rotation is a reflection (det = {det[bad[0]]:.6f})")
    drift = _gram_drift(r)
    if bad := _flagged(drift > DRIFT_REPAIR, row):
        i, where = bad
        raise OrientationError(f"{where}orientation drift {drift[i]:.3e} exceeds {DRIFT_REPAIR}")
    repair = drift > DRIFT_KEEP
    if repair.any():
        u, _, vt = np.linalg.svd(r[repair])
        r[repair] = u @ vt
    return times, r, values[:, 1:4]


def load_session(data_file, meta_file) -> TrackingSession:
    """Read and validate a session from the documented CSV + JSON pair.

    Rotation columns with Gram drift in (1e-9, 1e-3] are re-orthonormalized
    by SVD projection; larger drift or a reflection raises
    OrientationError. Non-monotonic timestamps and malformed rows raise
    SchemaError.
    """
    subject, protocol, handedness = _parse_meta(meta_file)
    times, r, p = _parse_data(data_file)
    return TrackingSession(
        subject=subject, times=times, r=r, p=p, protocol=protocol, handedness=handedness
    )


def save_session(session: TrackingSession, data_file, meta_file) -> None:
    """Write the canonical file pair (12-decimal fixed formatting)."""
    n = len(session)
    table = np.column_stack([session.times, session.p, session.r.transpose(0, 2, 1).reshape(n, 9)])
    text = "\n".join([SESSION_HEADER] + [_ROW_FORMAT] * n) % tuple(table.ravel().tolist())
    Path(data_file).write_text(text + "\n")

    meta = {
        "subject_id": session.subject.subject_id,
        "a4_mm": float(session.subject.a4),
        "p_lorg_mm": [float(v) for v in session.subject.p_lorg],
        "handedness": session.handedness,
    }
    if session.protocol is not None:
        meta["protocol"] = {
            "cycles": session.protocol.cycles,
            "duration_s": float(session.protocol.duration_s),
        }
    Path(meta_file).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def derive_joint_series(session: TrackingSession) -> JointSeries:
    """Map every sample to joint space: sensor frame -> base frame -> IK.

    Unreachable or malformed samples raise OutOfReachError or
    OrientationError naming the first offending sample index.
    """
    base = sensor_frame_transform(session.subject)
    joints = _ik_arrays(base.r @ session.r, session.p @ base.r.T + base.p, session.subject.a4)
    return JointSeries(session.times, *joints)


def to_data_points(series: JointSeries | Iterable[JointSeries]) -> DataPoints:
    """Flatten joint series into one (beta3, beta4, d2) regression record."""
    series = [series] if isinstance(series, JointSeries) else list(series)
    return DataPoints(
        x=np.concatenate([np.empty(0)] + [s.beta3 for s in series]),
        y=np.concatenate([np.empty(0)] + [s.beta4 for s in series]),
        z=np.concatenate([np.empty(0)] + [s.d2 for s in series]),
    )


def _beta4_trajectory(t: np.ndarray, cycles: int, duration: float,
                      flexion_max: float, extension_max: float) -> np.ndarray:
    # sinusoid spanning [-extension_max, flexion_max], starting at neutral
    # and moving into extension first
    mid = (flexion_max - extension_max) / 2.0
    amp = (flexion_max + extension_max) / 2.0
    if amp == 0.0:
        return np.zeros_like(t)
    omega = 2.0 * math.pi * cycles / duration
    phase = math.asin(mid / amp)
    return mid - amp * np.sin(omega * t + phase)


def synthesize_session(config: SyntheticConfig, subject_index: int) -> TrackingSession:
    """Generate one subject's session; a pure function of (seed, subject_index).

    Draw order (fixed): a4, the three p_lorg components, the deviation
    phase, then the d2 noise vector.
    """
    if not 0 <= subject_index < config.n_subjects:
        raise ValueError(f"subject_index {subject_index} outside 0..{config.n_subjects - 1}")
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(subject_index,)))
    a4 = float(rng.uniform(*config.a4_range))
    p_lorg = rng.uniform(-250.0, 250.0, 3)
    rud_phase = float(rng.uniform(0.0, 2.0 * math.pi))
    subject = SubjectParams(a4=a4, p_lorg=p_lorg, subject_id=f"subject_{subject_index:02d}")

    n = int(round(config.duration_s * config.sample_rate_hz)) + 1
    t = np.arange(n) / config.sample_rate_hz
    omega = 2.0 * math.pi * config.cycles_per_subject / config.duration_s
    theta4 = _beta4_trajectory(
        t, config.cycles_per_subject, config.duration_s,
        config.flexion_max, config.extension_max,
    )
    theta3 = config.rud_amplitude * np.sin(omega * t + rud_phase)
    beta3 = theta3 + math.pi / 2.0
    d2 = np.asarray(config.ground_truth.evaluate(beta3, theta4), dtype=float)
    if config.noise_sigma_mm > 0.0:
        d2 = d2 + rng.normal(0.0, config.noise_sigma_mm, n)

    series = JointSeries(times=t, theta3=theta3, theta4=theta4, d2=d2)
    r, p = _fk_arrays(series.theta3, series.theta4, series.d2, a4)
    to_sensor = invert(sensor_frame_transform(subject))
    return TrackingSession(
        subject=subject,
        times=t,
        r=to_sensor.r @ r,
        p=p @ to_sensor.r.T + to_sensor.p,
        protocol=SessionProtocol(cycles=config.cycles_per_subject, duration_s=config.duration_s),
    )


def synthesize_sessions(config: SyntheticConfig) -> list[TrackingSession]:
    """All subjects of a synthetic cohort."""
    return [synthesize_session(config, i) for i in range(config.n_subjects)]


def subject_split(
    sessions: Sequence[TrackingSession], n_fit: int, seed: int
) -> tuple[list[TrackingSession], list[TrackingSession]]:
    """Seeded random partition into (fit, validation); order-stable within each."""
    if not 0 <= n_fit < len(sessions):
        raise ValueError(f"n_fit must be in [0, {len(sessions) - 1}], got {n_fit}")
    perm = np.random.default_rng(seed).permutation(len(sessions))
    fit_idx = sorted(perm[:n_fit].tolist())
    val_idx = sorted(perm[n_fit:].tolist())
    return [sessions[i] for i in fit_idx], [sessions[i] for i in val_idx]


@dataclass(frozen=True)
class SubjectValidation:
    """Residual summary (d2_predicted - d2_observed, mm) for one subject."""

    subject_id: str
    n: int
    mean_residual: float
    sd_residual: float
    pct_error: float
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    residuals: np.ndarray


@dataclass(frozen=True)
class ValidationSummary:
    subjects: tuple[SubjectValidation, ...]
    pooled_mean: float
    pooled_sd: float
    n_total: int


def _session_predictions(surface: RationalQuadricSurface, sessions):
    """Yield (session, joint series, predicted d2) per session."""
    for session in sessions:
        series = derive_joint_series(session)
        yield session, series, np.asarray(surface.evaluate(series.beta3, series.beta4), dtype=float)


# samples with |d2| below this are excluded from the percentage error
PCT_ERROR_MIN_D2 = 1.0


def validation_stats(
    surface: RationalQuadricSurface, sessions: Sequence[TrackingSession]
) -> ValidationSummary:
    """Per-subject and pooled residual statistics of a surface on sessions.

    Residuals are predicted minus observed d2. The percentage error is the
    mean of |residual| / |d2| * 100 over samples with |d2| >= 1 mm (nan if
    no sample qualifies).
    """
    if not sessions:
        raise ValueError("no sessions given")
    per_subject = []
    pooled = []
    for session, series, predicted in _session_predictions(surface, sessions):
        if len(session) == 0:
            raise ValueError(f"session {session.subject.subject_id!r} has no samples")
        observed = series.d2
        residual = predicted - observed
        mask = np.abs(observed) >= PCT_ERROR_MIN_D2
        if mask.any():
            pct = float(np.mean(np.abs(residual[mask]) / np.abs(observed[mask])) * 100.0)
        else:
            pct = float("nan")
        q1, median, q3 = np.percentile(residual, [25.0, 50.0, 75.0])
        per_subject.append(
            SubjectValidation(
                subject_id=session.subject.subject_id,
                n=residual.size,
                mean_residual=float(residual.mean()),
                sd_residual=float(residual.std(ddof=1)) if residual.size > 1 else 0.0,
                pct_error=pct,
                minimum=float(residual.min()),
                q1=float(q1),
                median=float(median),
                q3=float(q3),
                maximum=float(residual.max()),
                residuals=residual,
            )
        )
        pooled.append(residual)
    pooled_arr = np.concatenate(pooled)
    return ValidationSummary(
        subjects=tuple(per_subject),
        pooled_mean=float(pooled_arr.mean()),
        pooled_sd=float(pooled_arr.std(ddof=1)) if pooled_arr.size > 1 else 0.0,
        n_total=int(pooled_arr.size),
    )
