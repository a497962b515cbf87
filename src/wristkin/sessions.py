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
meta JSON   ``subject_id`` (str without ',', CR or LF), ``a4_mm`` (> 0),
            ``p_lorg_mm`` (3 numbers), ``handedness`` ("left"|"right");
            other keys, such as an older file's ``protocol``, are ignored.

Numbers are written exactly as ``"%.12f"`` writes them: correctly rounded
to 12 decimal places, ties to even. The writer formats in numpy, and a
table holding any value of magnitude 2**53 or more goes through ``%``. A
load/save cycle of a saved session is byte-identical; saving refuses a
session that would not load back. Loading checks header, columns, numbers,
times and rotations in that order, naming the first row failing a check.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import OrientationError, SchemaError
from .regression import (DataPoints, RationalQuadricSurface, _finite_number, _finite_numbers,
                         _json_object, _read_text, _write_json)
from .transforms import ORTHONORMAL_TOL, _check_rigid, _flagged, _gram_drift, invert
from .wrist import (HALF_PI, SubjectParams, _check_joints, _fk_arrays, _ik_arrays, _plain_id,
                    sensor_frame_transform)

SESSION_HEADER = "t,px,py,pz,nx,ny,nz,ox,oy,oz,ax,ay,az"
# Gram drift thresholds on loaded rotation columns: up to ORTHONORMAL_TOL
# (TrackingSession's own tolerance) the matrix is stored bit-for-bit, up to
# DRIFT_REPAIR it is SVD-projected, beyond it is rejected.
DRIFT_REPAIR = 1e-3
_ROW_FORMAT = ",".join(["%.12f"] * 13)


@dataclass(frozen=True)
class TrackingSession:
    """Timestamped sensor-frame poses plus subject constants, one row per
    sample: ``times`` (n,) s, rotations ``r`` (n, 3, 3) with columns n, o, a
    and positions ``p`` (n, 3) mm. There is at least one row, every row must
    pass the checks of :class:`~wristkin.transforms.Pose`, and times must be
    finite and increase. ``_rigid_checked`` skips the Pose checks, for rows
    that :func:`load_session`'s parser already made pass them."""

    subject: SubjectParams
    times: np.ndarray
    r: np.ndarray
    p: np.ndarray
    handedness: str = "right"
    _rigid_checked: InitVar[bool] = False

    def __post_init__(self, _rigid_checked):
        times, r, p = (np.array(v, dtype=float) for v in (self.times, self.r, self.p))
        n = times.size
        if times.ndim != 1 or r.shape != (n, 3, 3) or p.shape != (n, 3):
            raise ValueError("times (n,), r (n, 3, 3) and p (n, 3) must have matching lengths")
        if n == 0:
            raise ValueError("a session needs at least one sample")
        if not _rigid_checked:
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
        _check_joints(theta3, theta4, d2)
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


# the synthetic protocol of SyntheticConfig (angles rad, lengths mm)
FLEXION_MAX = math.radians(30.0)
EXTENSION_MAX = math.radians(10.0)
RUD_AMPLITUDE = math.radians(5.0)
A4_RANGE = (90.0, 110.0)
SAMPLE_RATE_HZ = 50.0


@dataclass(frozen=True)
class SyntheticConfig:
    """A synthetic cohort of the flexion-extension protocol (lengths mm).

    Each subject performs ``cycles_per_subject`` flexion-extension cycles
    in ``duration_s`` seconds, sampled at SAMPLE_RATE_HZ: beta4 runs
    neutral -> extension (negative) -> flexion (positive) -> neutral per
    cycle, spanning [-EXTENSION_MAX, +FLEXION_MAX]. theta3 is a coupled
    sinusoid of amplitude RUD_AMPLITUDE with a per-subject phase, and a4 is
    drawn from A4_RANGE. d2 follows ``ground_truth`` evaluated at
    (beta3, beta4) plus Gaussian noise of sd ``noise_sigma_mm``.
    """

    ground_truth: RationalQuadricSurface
    n_subjects: int
    seed: int = 0
    cycles_per_subject: int = 10
    duration_s: float = 40.0
    noise_sigma_mm: float = 0.0

    def __post_init__(self):
        if self.noise_sigma_mm < 0:
            raise ValueError("noise_sigma_mm must be >= 0")
        if self.n_subjects < 1:
            raise ValueError("n_subjects must be >= 1")
        if self.cycles_per_subject < 1 or not self.duration_s > 0:
            raise ValueError("cycles and duration must be positive")
        if not math.isfinite(self.duration_s * SAMPLE_RATE_HZ):
            raise ValueError(f"duration_s {self.duration_s} gives a non-finite sample count "
                             f"at {SAMPLE_RATE_HZ} Hz")
        try:
            omega = 2.0 * math.pi * self.cycles_per_subject / self.duration_s
        except OverflowError:  # a cycle count too large for a float
            omega = math.inf
        if not math.isfinite(omega):
            raise ValueError("angular frequency 2*pi*cycles_per_subject/duration_s "
                             "is not finite")


def _parse_meta(payload: dict, where) -> tuple[SubjectParams, str]:
    """Subject and handedness of a decoded metadata JSON object."""
    subject_id = payload.get("subject_id")
    if not _plain_id(subject_id):
        raise SchemaError(f"{where}: subject_id must be a string without ',', CR or LF")
    a4 = payload.get("a4_mm")
    if not _finite_number(a4) or a4 <= 0:
        raise SchemaError(f"{where}: a4_mm must be a positive number")
    p_lorg = payload.get("p_lorg_mm")
    if not _finite_numbers(p_lorg, 3):
        raise SchemaError(f"{where}: p_lorg_mm must be 3 finite numbers")
    handedness = payload.get("handedness")
    if handedness not in ("left", "right"):
        raise SchemaError(f"{where}: handedness must be 'left' or 'right'")
    subject = SubjectParams(a4=float(a4), p_lorg=np.array(p_lorg, dtype=float), subject_id=subject_id)
    return subject, handedness


def _csv_numbers(rows: list[str], where, n_cols: int, first: int = 0) -> np.ndarray:
    """Fields ``first`` to ``n_cols - 1`` of CSV data rows as an
    (n, n_cols - first) float array. A row of another width or a field that
    is no number is a SchemaError naming the first such row of ``where``."""
    if not rows:
        return np.empty((0, n_cols - first))
    row = f"{where} row"
    width = np.char.count(rows, ",") + 1
    if bad := _flagged(width != n_cols, row):
        raise SchemaError(f"{bad[1]}expected {n_cols} columns, got {width[bad[0]]}")
    if first:
        rows = [line.split(",", first)[first] for line in rows]
    try:
        return np.array(",".join(rows).split(","), dtype=float).reshape(-1, n_cols - first)
    except ValueError:
        for i, line in enumerate(rows):  # error path only: name the row
            try:
                np.array(line.split(","), dtype=float)
            except ValueError as exc:
                raise SchemaError(f"{row} {i}: non-numeric field ({exc})") from exc
        raise


def _parse_data(lines: list[str], where) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Times (n,), rotations (n, 3, 3) and positions (n, 3) of a session
    data CSV's lines, checked and drift-repaired as :func:`load_session`
    describes: every returned row passes the checks of
    :class:`~wristkin.transforms.Pose`."""
    if not lines or lines[0] != SESSION_HEADER:
        raise SchemaError(f"{where}: first line must be '{SESSION_HEADER}'")
    rows = lines[1:]
    if not rows:
        raise SchemaError(f"{where}: no samples")
    values = _csv_numbers(rows, where, 13)
    row = f"{where} row"
    if bad := _flagged(~np.isfinite(values).all(axis=1), row):
        raise SchemaError(f"{bad[1]}non-finite field")
    times = values[:, 0]
    if bad := _flagged(np.diff(times, prepend=-np.inf) <= 0.0, row):
        i, where = bad
        raise SchemaError(f"{where}monotonicity violated (t = {times[i]} after {times[i - 1]})")
    # fields n, o, a of each row are the columns of its rotation
    r = values[:, 4:13].reshape(-1, 3, 3).transpose(0, 2, 1).copy()
    # a huge finite direction cosine can overflow det and the Gram matrix to
    # inf or nan; such a row fails the reflection or the drift check
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.linalg.det(r)
        drift = _gram_drift(r)
    if bad := _flagged(det <= 0.0, row):
        raise OrientationError(f"{bad[1]}rotation is a reflection (det = {det[bad[0]]:.6g})")
    if bad := _flagged(~(drift <= DRIFT_REPAIR), row):
        i, where = bad
        raise OrientationError(f"{where}orientation drift {drift[i]:.3e} exceeds {DRIFT_REPAIR}")
    repair = (drift > ORTHONORMAL_TOL) | (np.abs(det - 1.0) > ORTHONORMAL_TOL)
    if repair.any():
        u, _, vt = np.linalg.svd(r[repair])
        r[repair] = u @ vt
    return times, r, values[:, 1:4]


def load_session(data_file, meta_file) -> TrackingSession:
    """Read and validate a session from the documented CSV + JSON pair.

    Rotation columns with Gram drift in (1e-9, 1e-3], or with a
    determinant more than 1e-9 from 1, are re-orthonormalized by SVD
    projection; larger drift or a reflection raises OrientationError.
    Non-monotonic timestamps and malformed rows raise SchemaError.
    """
    meta = _json_object(_read_text(meta_file), meta_file)
    subject, handedness = _parse_meta(meta, meta_file)
    times, r, p = _parse_data(_read_text(data_file).splitlines(), data_file)
    return TrackingSession(subject=subject, times=times, r=r, p=p, handedness=handedness,
                           _rigid_checked=True)


def _digit_words() -> np.ndarray:
    """The digits of 0..9999 as 4-byte little-endian words, three tables one
    after the other: zero-padded ("0042"), with leading zeros as 0 bytes
    ("42"; 0 is empty), and the same with 0 as "0"."""
    k = np.arange(10_000)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1)
    chars = (digits + ord("0")) << np.array([0, 8, 16, 24])
    bare = np.where(k[:, None] < np.array([1000, 100, 10, 1]), 0, chars).sum(axis=1)
    units = bare.copy()
    units[0] = ord("0") << 24
    return np.concatenate([chars.sum(axis=1), bare, units]).astype("<u4")


_DIGIT_WORDS = _digit_words()


def _veltkamp(a):
    """(hi, lo) with hi + lo == a exactly and each half of at most 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_E12_HI, _E12_LO = _veltkamp(1e12)


def _groups(v: np.ndarray, count: int):
    """The ``count`` 4-digit groups of int64 ``v`` < 10**(4 * count), least
    significant first."""
    for _ in range(count - 1):
        q = v // 10_000
        yield v - q * 10_000
        v = q
    yield v


def _fixed12(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer part and 12 fraction digits (int64) of each ``a`` in [0, 2**53)
    rounded as ``"%.12f"`` rounds it. ``ip`` and ``f = a - ip`` are exact,
    and Dekker's two-product gives ``p + e == f * 1e12`` exactly, with |e| at
    most half an ulp of ``p``. So ``rint(p)`` (half to even) is ``f * 1e12``
    rounded unless ``p`` is a half-integer, where the sign of ``e`` decides;
    ``e`` is computed for those values only."""
    ip = np.floor(a)
    f = a - ip
    p = f * 1e12
    frac = np.rint(p)
    half = p - frac
    tie = np.flatnonzero(np.abs(half) == 0.5)
    if tie.size:
        f_hi, f_lo = _veltkamp(f[tie])
        e = ((f_hi * _E12_HI - p[tie]) + f_hi * _E12_LO + f_lo * _E12_HI) + f_lo * _E12_LO
        # p + e lies past the half-integer p, away from rint(p)
        frac[tie] += np.where(e * half[tie] > 0.0, 2.0 * half[tie], 0.0)
    carry = frac == 1e12
    return (ip + carry).astype(np.int64), (frac - carry * 1e12).astype(np.int64)


def _data_bytes(table: np.ndarray) -> bytes:
    """A session data file holding ``table`` (n, 13): the header, then each
    row's values formatted ``"%.12f"`` and joined by ',', a row per line.
    Values below 2**53 in magnitude get the digits of :func:`_fixed12` as
    4-digit words whose 0 bytes are dropped in one gather; a table holding a
    larger or non-finite value goes through ``%``."""
    x = table.ravel()
    a = np.abs(x)
    if not (a < 2.0**53).all():
        text = "\n".join([SESSION_HEADER] + [_ROW_FORMAT] * len(table)) % tuple(x.tolist())
        return (text + "\n").encode()
    ip, frac = _fixed12(a)

    # a value's slots: separator and sign, k integer groups, '.', 3 fraction groups
    k = (len(str(ip.max(initial=0))) + 3) // 4
    words = np.empty((x.size, k + 5), dtype="<u4")
    rows = words.reshape(-1, 13, k + 5)
    rows[:, 0, 0] = ord("\n")
    rows[:, 1:, 0] = ord(",")
    words[:, 0] |= np.signbit(x).astype(np.uint32) * (ord("-") << 8)
    for col, group in zip(range(k, 0, -1), _groups(ip, k)):
        # zero-padded below the leading group, bare from it up, "0" if ip is 0
        leading = ip < 10_000 ** (k - col + 1)
        words[:, col] = _DIGIT_WORDS[group + leading * (20_000 if col == k else 10_000)]
    words[:, k + 1] = ord(".")
    for col, group in zip(range(k + 4, k + 1, -1), _groups(frac, 3)):
        words[:, col] = _DIGIT_WORDS[group]
    out = words.view(np.uint8).ravel()
    return SESSION_HEADER.encode() + out[out != 0].tobytes() + b"\n"


def save_session(session: TrackingSession, data_file, meta_file) -> None:
    """Write the canonical file pair (12-decimal fixed formatting). A time
    that the file's rounding makes no greater than the one before it raises
    ValueError naming its sample, as :func:`load_session` would refuse it."""
    t, n = session.times, len(session)
    # times 2e-12 or more apart (a margin over 1e-12) never round alike; the rest are < 2**53
    i = np.flatnonzero(np.diff(t) < 2e-12) + 1
    pair = t[np.stack([i - 1, i])]
    ip, frac = np.where(np.signbit(pair), -1, 1) * np.stack(_fixed12(np.abs(pair)))
    if (equal := (ip[0] == ip[1]) & (frac[0] == frac[1])).any():
        k = i[equal.argmax()]
        raise ValueError(f"sample {k}: time {t[k]} is not after {t[k - 1]} at 12 decimals")
    table = np.column_stack([t, session.p, session.r.transpose(0, 2, 1).reshape(n, 9)])
    Path(data_file).write_bytes(_data_bytes(table))
    _write_json(meta_file, {
        "subject_id": session.subject.subject_id,
        "a4_mm": float(session.subject.a4),
        "p_lorg_mm": [float(v) for v in session.subject.p_lorg],
        "handedness": session.handedness,
    })


def derive_joint_series(session: TrackingSession) -> JointSeries:
    """Map every sample to joint space: sensor frame -> base frame -> IK.

    Unreachable or malformed samples raise OutOfReachError or
    OrientationError naming the first offending sample index.
    """
    base = sensor_frame_transform(session.subject)
    joints = _ik_arrays(base.r @ session.r, session.p @ base.r.T + base.p, session.subject.a4)
    return JointSeries(session.times, *joints)


def to_data_points(series: Iterable[JointSeries]) -> DataPoints:
    """Flatten joint series into one (beta3, beta4, d2) regression record."""
    series = list(series)
    return DataPoints(
        x=np.concatenate([np.empty(0)] + [s.beta3 for s in series]),
        y=np.concatenate([np.empty(0)] + [s.beta4 for s in series]),
        z=np.concatenate([np.empty(0)] + [s.d2 for s in series]),
    )


def _beta4_trajectory(t: np.ndarray, omega: float) -> np.ndarray:
    # sinusoid spanning [-EXTENSION_MAX, FLEXION_MAX], starting at neutral
    # and moving into extension first
    mid = (FLEXION_MAX - EXTENSION_MAX) / 2.0
    amp = (FLEXION_MAX + EXTENSION_MAX) / 2.0
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
    a4 = float(rng.uniform(*A4_RANGE))
    p_lorg = rng.uniform(-250.0, 250.0, 3)
    rud_phase = float(rng.uniform(0.0, 2.0 * math.pi))
    subject = SubjectParams(a4=a4, p_lorg=p_lorg, subject_id=f"subject_{subject_index:02d}")

    n = int(round(config.duration_s * SAMPLE_RATE_HZ)) + 1
    t = np.arange(n) / SAMPLE_RATE_HZ
    omega = 2.0 * math.pi * config.cycles_per_subject / config.duration_s
    theta4 = _beta4_trajectory(t, omega)
    theta3 = RUD_AMPLITUDE * np.sin(omega * t + rud_phase)
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
