import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wristkin import (
    JointSeries,
    JointState,
    OrientationError,
    OutOfReachError,
    Pose,
    SchemaError,
    SubjectParams,
    SyntheticConfig,
    TrackingSession,
    derive_joint_series,
    forward_kinematics,
    inverse_kinematics,
    sensor_to_base,
    load_session,
    save_session,
    subject_split,
    synthesize_session,
    synthesize_sessions,
    to_data_points,
    validation_stats,
)
from wristkin.sessions import (A4_RANGE, EXTENSION_MAX, FLEXION_MAX, RUD_AMPLITUDE, SAMPLE_RATE_HZ,
                               SESSION_HEADER, _data_bytes)
from wristkin.wrist import _fk_arrays


def small_config(truth, **kwargs):
    defaults = dict(
        ground_truth=truth,
        n_subjects=3,
        seed=77,
        cycles_per_subject=4,
        duration_s=8.0,
        noise_sigma_mm=0.0,
    )
    defaults.update(kwargs)
    return SyntheticConfig(**defaults)


def write_session_files(tmp_path, rows, meta=None):
    data = tmp_path / "s.csv"
    data.write_text("\n".join([SESSION_HEADER] + rows) + "\n")
    meta_path = tmp_path / "s.meta.json"
    payload = meta or {
        "subject_id": "t",
        "a4_mm": 100.0,
        "p_lorg_mm": [0.0, 0.0, 0.0],
        "handedness": "right",
    }
    meta_path.write_text(json.dumps(payload))
    return data, meta_path


IDENTITY_ROW = "0.0,1.0,2.0,3.0,1,0,0,0,1,0,0,0,1"


class TestLoadSession:
    def test_happy_path(self, tmp_path):
        rows = [
            "0.0,1.0,2.0,3.0,1,0,0,0,1,0,0,0,1",
            "0.1,1.5,2.0,3.0,1,0,0,0,1,0,0,0,1",
            "0.2,2.0,2.0,3.0,1,0,0,0,1,0,0,0,1",
        ]
        session = load_session(*write_session_files(tmp_path, rows))
        assert len(session) == 3
        assert session.subject.a4 == 100.0
        assert session.subject.subject_id == "t"
        assert np.allclose(session.p[1], [1.5, 2.0, 3.0])
        assert np.array_equal(session.r, np.broadcast_to(np.eye(3), (3, 3, 3)))

    def test_duplicate_timestamp(self, tmp_path):
        rows = [IDENTITY_ROW, IDENTITY_ROW]
        with pytest.raises(SchemaError, match="monotonicity"):
            load_session(*write_session_files(tmp_path, rows))

    def test_reflection_rejected(self, tmp_path):
        rows = ["0.0,0,0,0,1,0,0,0,1,0,0,0,-1"]
        with pytest.raises(OrientationError, match="reflection"):
            load_session(*write_session_files(tmp_path, rows))

    def test_large_drift_rejected(self, tmp_path):
        rows = ["0.0,0,0,0,1.1,0,0,0,1,0,0,0,1"]
        with pytest.raises(OrientationError, match="drift"):
            load_session(*write_session_files(tmp_path, rows))

    def test_small_drift_repaired(self, tmp_path):
        # 1e-4 drift: inside the repair band, outside the keep band
        rows = ["0.0,0,0,0,1.0001,0,0,0,1,0,0,0,1"]
        session = load_session(*write_session_files(tmp_path, rows))
        r = session.r[0]
        assert np.abs(r.T @ r - np.eye(3)).max() <= 1e-9

    def test_determinant_off_within_drift_tolerance_repaired(self, tmp_path, steep_truth):
        # row 1 scaled by 1 + 0.495e-9: Gram drift 0.99e-9 keeps it
        # unrepaired, but its determinant is 1 + 1.485e-9
        session = synthesize_session(small_config(steep_truth), 0)
        data, meta = tmp_path / "s.csv", tmp_path / "s.meta.json"
        save_session(session, data, meta)
        unmodified = load_session(data, meta)
        lines = data.read_text().splitlines()
        fields = lines[2].split(",")
        fields[4:] = [f"{float(v) * (1 + 0.495e-9):.12f}" for v in fields[4:]]
        lines[2] = ",".join(fields)
        data.write_text("\n".join(lines) + "\n")
        loaded = load_session(data, meta)
        r = loaded.r[1]
        assert np.abs(r.T @ r - np.eye(3)).max() <= 1e-9
        assert abs(np.linalg.det(r) - 1.0) <= 1e-9
        assert np.array_equal(np.delete(loaded.r, 1, axis=0), np.delete(unmodified.r, 1, axis=0))

    def test_wrong_header(self, tmp_path):
        data, meta = write_session_files(tmp_path, [IDENTITY_ROW])
        data.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(SchemaError, match="first line"):
            load_session(data, meta)

    def test_wrong_column_count(self, tmp_path):
        rows = ["0.0,1.0,2.0"]
        with pytest.raises(SchemaError, match="13 columns"):
            load_session(*write_session_files(tmp_path, rows))

    def test_non_numeric_field(self, tmp_path):
        rows = ["0.0,x,2.0,3.0,1,0,0,0,1,0,0,0,1"]
        with pytest.raises(SchemaError, match="non-numeric"):
            load_session(*write_session_files(tmp_path, rows))

    def test_empty_file(self, tmp_path):
        with pytest.raises(SchemaError, match="no samples"):
            load_session(*write_session_files(tmp_path, []))

    @pytest.mark.parametrize(
        "patch",
        [
            {"a4_mm": -5.0},
            {"p_lorg_mm": [1.0, 2.0]},
            {"handedness": "ambi"},
            {"subject_id": 7},
        ],
    )
    def test_bad_metadata(self, tmp_path, patch):
        meta = {
            "subject_id": "t",
            "a4_mm": 100.0,
            "p_lorg_mm": [0.0, 0.0, 0.0],
            "handedness": "right",
        }
        meta.update(patch)
        with pytest.raises(SchemaError):
            load_session(*write_session_files(tmp_path, [IDENTITY_ROW], meta))


class TestSaveLoadRoundTrip:
    def test_byte_identical(self, tmp_path, steep_truth):
        session = synthesize_session(small_config(steep_truth), 0)
        d1, m1 = tmp_path / "a.csv", tmp_path / "a.meta.json"
        save_session(session, d1, m1)
        loaded = load_session(d1, m1)
        d2, m2 = tmp_path / "b.csv", tmp_path / "b.meta.json"
        save_session(loaded, d2, m2)
        assert d1.read_bytes() == d2.read_bytes()
        assert m1.read_bytes() == m2.read_bytes()

    def test_protocol_preserved(self, tmp_path, steep_truth):
        session = synthesize_session(small_config(steep_truth), 1)
        d, m = tmp_path / "a.csv", tmp_path / "a.meta.json"
        save_session(session, d, m)
        loaded = load_session(d, m)
        assert loaded.protocol.cycles == 4
        assert loaded.protocol.duration_s == 8.0
        assert loaded.handedness == "right"


def hand_built_session(subject, big):
    """Three rows of values at the edges of 12-place rounding: signed zeros,
    +-1e-13 and +-5e-13 beside zero, ties k/8192, a carry into the integer
    part, the smallest subnormal, and ``big`` in one position."""
    r = np.eye(3)
    r[r == 0.0] = -0.0
    return TrackingSession(
        subject=subject,
        times=np.array([-1.0, 5e-13, 1.0 / 8192.0]),
        r=np.stack([r, np.eye(3), r]),
        p=np.array([[-0.0, 1e-13, -1e-13],
                    [5e-13, -5e-13, 3.0 / 8192.0],
                    [big, -9.9999999999995, -2.0 ** -1074]]),
    )


def percent_rows(table):
    """The session data file of ``table`` as the `%` operator formats it."""
    rows = [",".join("%.12f" % v for v in row) for row in table.tolist()]
    return ("\n".join([SESSION_HEADER] + rows) + "\n").encode()


# exact ties at the 12th decimal, odd k / 8192, and the floats beside them;
# near-ties, the floats nearest (k + 0.5) / 1e12
_TIES = st.integers(0, 2**24).map(lambda k: (2 * k + 1) / 8192.0)
_WRITER_VALUES = st.one_of(
    st.floats(-(2.0**53), 2.0**53, exclude_min=True, exclude_max=True),
    _TIES,
    st.integers(0, 10**12 - 1).map(lambda k: (k + 0.5) / 1e12),
    _TIES.map(lambda v: float(np.nextafter(v, 0.0))),
    _TIES.map(lambda v: float(np.nextafter(v, np.inf))),
    st.sampled_from([0.9999999999995, 9.9999999999995, 2.0**53 - 0.5, 5e-13, -0.0]),
)


@st.composite
def writer_tables(draw):
    """1-4 rows of 13 values below 2**53, and with probability 1/2 one
    value of any finite magnitude, which sends the table to the `%` branch
    when it is 2**53 or more."""
    values = draw(st.lists(_WRITER_VALUES, min_size=13, max_size=52))
    values = values[: len(values) // 13 * 13]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(values) - 1))
        values[i] = draw(st.floats(allow_nan=False, allow_infinity=False))
    signs = draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    return np.array([-v if s else v for v, s in zip(values, signs)]).reshape(-1, 13)


class TestSaveBytes:
    """save_session's data file holds exactly the bytes of `%.12f`."""

    @given(writer_tables())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_writer_matches_percent(self, table):
        assert _data_bytes(table) == percent_rows(table)

    def test_ties_and_decimal_halves(self):
        # each odd k / 8192 lies halfway between two 12-place decimals, and
        # its neighbours do not; the float nearest (k + 0.5) / 1e12 is a
        # near-tie whose product with 1e12 rounds to the tie itself
        ties = np.arange(1, 4 * 8192, 2) / 8192.0
        halves = (np.arange(0, 10**12, 33_333_331) + 0.5) / 1e12
        values = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf),
                                 halves, np.nextafter(halves, 0.0), np.nextafter(halves, 1.0)])
        values = np.concatenate([values, -values])
        table = values[: values.size // 13 * 13].reshape(-1, 13)
        assert _data_bytes(table) == percent_rows(table)

    @pytest.mark.parametrize("big", [1e300, 2.0**60])
    def test_huge_value_round_trip(self, tmp_path, subject, big):
        session = hand_built_session(subject, big)
        d1, m1 = tmp_path / "a.csv", tmp_path / "a.meta.json"
        save_session(session, d1, m1)
        loaded = load_session(d1, m1)
        assert loaded.p[2, 0] == big
        d2, m2 = tmp_path / "b.csv", tmp_path / "b.meta.json"
        save_session(loaded, d2, m2)
        assert d1.read_bytes() == d2.read_bytes()

    # SHA-256 digests pinned from the `%`-formatting writer, so the bytes are
    # checked against that writer and not only against a reload. The
    # synthetic digest also pins the synthesis: a platform whose sin, cos or
    # matmul kernels round differently writes other bytes.
    @staticmethod
    def digest(session, tmp_path):
        data, meta = tmp_path / "g.csv", tmp_path / "g.meta.json"
        save_session(session, data, meta)
        return hashlib.sha256(data.read_bytes()).hexdigest()

    def test_synthetic_session_digest(self, tmp_path, steep_truth):
        session = synthesize_session(small_config(steep_truth, noise_sigma_mm=1.35), 1)
        assert (self.digest(session, tmp_path)
                == "4643f414fc51fbc1dc43c04d97efd70126f8ca48f000af372764724131b7cd0f")

    @pytest.mark.parametrize("big, expected", [
        (2.5, "2da8ecc8aed597d304dcba710c038cdca474b1b07b3f1b05d903f50387231ed3"),
        (1e300, "c9f4275882d8fd7458cd6fbed93b6fccc030d54af5af8d74b5903ee82df442e2"),
    ])
    def test_hand_built_session_digest(self, tmp_path, subject, big, expected):
        assert self.digest(hand_built_session(subject, big), tmp_path) == expected


class TestSynthesize:
    def test_deterministic(self, steep_truth):
        config = small_config(steep_truth, noise_sigma_mm=0.7)
        a = synthesize_session(config, 2)
        b = synthesize_session(config, 2)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.r, b.r)
        assert np.array_equal(a.p, b.p)
        assert a.subject.a4 == b.subject.a4

    def test_subjects_differ(self, steep_truth):
        config = small_config(steep_truth)
        a = synthesize_session(config, 0)
        b = synthesize_session(config, 1)
        assert a.subject.a4 != b.subject.a4

    def test_cycle_structure(self, steep_truth):
        config = small_config(steep_truth, cycles_per_subject=10, duration_s=40.0)
        series = derive_joint_series(synthesize_session(config, 0))
        beta4 = series.beta4
        t = series.times
        # starts neutral, first motion is extension (negative), spans the
        # prescribed range, and repeats with the cycle period
        assert abs(beta4[0]) < 1e-9
        assert beta4[1] < 0.0
        # discrete sampling straddles the sinusoid extrema
        assert beta4.min() == pytest.approx(-EXTENSION_MAX, abs=2e-3)
        assert beta4.min() >= -EXTENSION_MAX - 1e-12
        assert beta4.max() == pytest.approx(FLEXION_MAX, abs=2e-3)
        assert beta4.max() <= FLEXION_MAX + 1e-12
        period = config.duration_s / config.cycles_per_subject
        k = int(round(period * SAMPLE_RATE_HZ))
        assert np.allclose(beta4[: len(beta4) - k], beta4[k:], atol=1e-9)

    def test_sample_rate_and_duration(self, steep_truth):
        session = synthesize_session(small_config(steep_truth), 0)
        assert len(session) == int(8.0 * 50.0) + 1
        assert session.times[0] == 0.0
        assert session.times[-1] == pytest.approx(8.0)

    def test_index_out_of_range(self, steep_truth):
        with pytest.raises(ValueError):
            synthesize_session(small_config(steep_truth), 3)

    @pytest.mark.parametrize("duration", [1e308, math.inf, math.nan, 0.0])
    def test_sample_count_must_be_finite_and_positive(self, steep_truth, duration):
        with pytest.raises(ValueError, match="duration"):
            small_config(steep_truth, duration_s=duration)


class TestDeriveJointSeries:
    def test_round_trip_noiseless(self, steep_truth):
        config = small_config(steep_truth)
        session = synthesize_session(config, 1)
        series = derive_joint_series(session)
        # reconstruct the generator's trajectories independently
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1,)))
        rng.uniform(*A4_RANGE)
        rng.uniform(-250.0, 250.0, 3)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        t = session.times
        omega = 2.0 * math.pi * config.cycles_per_subject / config.duration_s
        theta3 = RUD_AMPLITUDE * np.sin(omega * t + phase)
        assert np.abs(series.beta3 - (theta3 + math.pi / 2)).max() < 1e-9
        d2_truth = np.asarray(
            steep_truth.evaluate(theta3 + math.pi / 2, series.beta4)
        )
        assert np.abs(series.d2 - d2_truth).max() < 1e-9

    def test_neutral_sample(self, steep_truth, monkeypatch):
        monkeypatch.setattr("wristkin.sessions.RUD_AMPLITUDE", 0.0)
        session = synthesize_session(small_config(steep_truth), 0)
        series = derive_joint_series(session)
        assert abs(series.theta3[0]) < 1e-12
        assert abs(series.theta4[0]) < 1e-12
        expected = steep_truth.evaluate(math.pi / 2, 0.0)
        assert series.d2[0] == pytest.approx(expected, abs=1e-9)

    def test_out_of_reach_names_sample(self):
        subject = SubjectParams(a4=100.0, p_lorg=np.zeros(3), subject_id="x")
        session = TrackingSession(
            subject=subject,
            times=np.array([0.0, 0.1]),
            r=np.stack([np.eye(3), np.eye(3)]),
            p=np.array([[0.0, 10.0, 0.0], [0.0, 300.0, 0.0]]),  # base p_z = 300 > a4
        )
        with pytest.raises(OutOfReachError, match="sample 1"):
            derive_joint_series(session)

    def test_single_pose_api_matches_batch_bit_for_bit(self, steep_truth, monkeypatch):
        # one FK/IK implementation: the scalar functions reproduce each
        # batch row exactly, not just within a tolerance
        monkeypatch.setattr("wristkin.sessions.RUD_AMPLITUDE", 0.3)
        monkeypatch.setattr("wristkin.sessions.FLEXION_MAX", 1.2)
        session = synthesize_session(small_config(steep_truth, noise_sigma_mm=0.5), 2)
        subject = session.subject
        series = derive_joint_series(session)
        fk_r, fk_p = _fk_arrays(series.theta3, series.theta4, series.d2, subject.a4)
        for k in range(len(session)):
            state = inverse_kinematics(
                sensor_to_base(Pose(session.r[k], session.p[k]), subject), subject
            )
            assert (state.theta3, state.theta4, state.d2) == (
                series.theta3[k], series.theta4[k], series.d2[k]
            )
            pose = forward_kinematics(
                JointState(series.theta3[k], series.theta4[k], series.d2[k]), subject
            )
            assert np.array_equal(pose.r, fk_r[k]) and np.array_equal(pose.p, fk_p[k])

    def test_alignment(self, steep_truth):
        session = synthesize_session(small_config(steep_truth), 0)
        series = derive_joint_series(session)
        assert len(series) == len(session)
        assert np.array_equal(series.times, session.times)

    def test_to_data_points(self, steep_truth):
        session = synthesize_session(small_config(steep_truth), 0)
        series = derive_joint_series(session)
        pts = to_data_points([series])
        assert len(pts) == len(series)
        assert np.array_equal(pts.x, series.beta3)
        assert np.array_equal(pts.y, series.beta4)
        assert np.array_equal(pts.z, series.d2)
        both = to_data_points([series, series])
        assert len(both) == 2 * len(series)
        assert np.array_equal(both.z[len(series):], series.d2)
        assert len(to_data_points([])) == 0


class TestSubjectSplit:
    def test_paper_partition(self, steep_truth):
        sessions = synthesize_sessions(small_config(steep_truth, n_subjects=25))
        fit, val = subject_split(sessions, 9, seed=4)
        assert len(fit) == 9 and len(val) == 16
        fit_ids = {s.subject.subject_id for s in fit}
        val_ids = {s.subject.subject_id for s in val}
        assert fit_ids.isdisjoint(val_ids)
        assert len(fit_ids | val_ids) == 25

    def test_zero_fit(self, steep_truth):
        sessions = synthesize_sessions(small_config(steep_truth))
        fit, val = subject_split(sessions, 0, seed=1)
        assert fit == [] and len(val) == 3

    def test_seeded_repeatable(self, steep_truth):
        sessions = synthesize_sessions(small_config(steep_truth, n_subjects=10))
        a = subject_split(sessions, 4, seed=9)
        b = subject_split(sessions, 4, seed=9)
        assert [s.subject.subject_id for s in a[0]] == [s.subject.subject_id for s in b[0]]

    def test_invalid_n_fit(self, steep_truth):
        sessions = synthesize_sessions(small_config(steep_truth))
        with pytest.raises(ValueError):
            subject_split(sessions, 3, seed=0)
        with pytest.raises(ValueError):
            subject_split(sessions, -1, seed=0)


class TestValidationStats:
    def test_self_consistency(self, steep_truth):
        sessions = synthesize_sessions(small_config(steep_truth))
        summary = validation_stats(steep_truth, sessions)
        assert summary.pooled_mean == pytest.approx(0.0, abs=1e-9)
        for s in summary.subjects:
            assert np.abs(s.residuals).max() < 1e-9
            assert s.pct_error == pytest.approx(0.0, abs=1e-9)

    def test_constant_offset_recovered(self, steep_truth):
        sessions = synthesize_sessions(small_config(steep_truth))
        # add exactly +2 mm everywhere: numerator += 2 * denominator poly
        num = steep_truth.numerator + 2.0 * np.concatenate(
            ([1.0], steep_truth.denominator)
        )
        from wristkin import RationalQuadricSurface

        shifted = RationalQuadricSurface(num, steep_truth.denominator)
        summary = validation_stats(shifted, sessions)
        assert summary.pooled_mean == pytest.approx(2.0, abs=0.1)

    def test_noise_floor_sd(self, steep_truth):
        config = small_config(
            steep_truth, n_subjects=3, duration_s=40.0, cycles_per_subject=10,
            noise_sigma_mm=3.14,
        )
        sessions = synthesize_sessions(config)
        summary = validation_stats(steep_truth, sessions)
        assert summary.n_total >= 5000
        assert 2.5 <= summary.pooled_sd <= 3.8

    def test_quartiles_match_numpy(self, steep_truth):
        config = small_config(steep_truth, noise_sigma_mm=1.0)
        sessions = synthesize_sessions(config)
        summary = validation_stats(steep_truth, sessions)
        s = summary.subjects[0]
        q1, med, q3 = np.percentile(s.residuals, [25, 50, 75])
        assert (s.q1, s.median, s.q3) == (q1, med, q3)
        assert s.minimum == s.residuals.min()
        assert s.maximum == s.residuals.max()

    def test_empty_sessions_rejected(self, steep_truth):
        with pytest.raises(ValueError):
            validation_stats(steep_truth, [])


class TestTrackingSessionInvariants:
    def test_times_must_increase(self, subject):
        with pytest.raises(ValueError):
            TrackingSession(
                subject=subject, times=np.array([0.0, 0.0]),
                r=np.stack([np.eye(3), np.eye(3)]), p=np.zeros((2, 3)),
            )

    def test_times_must_be_finite(self, subject):
        # NaN fails every comparison, so the monotonicity check alone misses it
        for times, first in (([np.nan, 1.0, 2.0], 0), ([0.0, 1.0, np.inf], 2)):
            with pytest.raises(ValueError, match=f"sample {first}: timestamp must be finite"):
                TrackingSession(
                    subject=subject, times=np.array(times),
                    r=np.stack([np.eye(3)] * 3), p=np.zeros((3, 3)),
                )

    def test_handedness_checked(self, subject):
        with pytest.raises(ValueError):
            TrackingSession(
                subject=subject, times=np.array([0.0]), r=np.eye(3)[None], p=np.zeros((1, 3)),
                handedness="x",
            )

    @pytest.mark.parametrize(
        "bad_r, bad_p, match",
        [
            (np.diag([1.0, 1.0, -1.0]), np.zeros(3), "rotation determinant"),
            (np.diag([1.0 + 1e-6, 1.0, 1.0]), np.zeros(3), "rotation not orthonormal"),
            (np.eye(3), np.array([0.0, np.nan, 0.0]), "pose entries must be finite"),
            # the Gram matrix overflows; no RuntimeWarning may escape
            (np.diag([1e200, 1.0, 1.0]), np.zeros(3), r"rotation not orthonormal \(drift inf\)"),
            (np.diag([-1e200, 1.0, 1.0]), np.zeros(3), r"rotation not orthonormal \(drift inf\)"),
        ],
    )
    def test_rows_checked_like_pose(self, subject, bad_r, bad_p, match):
        with pytest.raises(ValueError, match=match):
            Pose(bad_r, bad_p)
        with pytest.raises(ValueError, match=f"sample 1: {match}"):
            TrackingSession(
                subject=subject, times=np.array([0.0, 0.1, 0.2]),
                r=np.stack([np.eye(3), bad_r, bad_r]), p=np.stack([np.zeros(3), bad_p, bad_p]),
            )

    def test_shapes_checked(self, subject):
        with pytest.raises(ValueError, match="matching lengths"):
            TrackingSession(subject=subject, times=np.array([0.0, 0.1]),
                            r=np.eye(3)[None], p=np.zeros((2, 3)))


class TestJointSeriesInvariants:
    def test_samples_checked_like_joint_state(self):
        t = np.array([0.0, 0.1, 0.2])
        for theta3, theta4, message in ((0.0, 2.0, "theta4 2.0 outside [-pi/2, pi/2]"),
                                        (np.inf, 0.0, "joint state must be finite")):
            with pytest.raises(ValueError) as scalar:
                JointState(theta3=theta3, theta4=theta4, d2=0.0)
            with pytest.raises(ValueError) as series:
                JointSeries(times=t, theta3=[0.0, 0.0, theta3], theta4=[0.0, 0.1, theta4],
                            d2=np.zeros(3))
            assert str(scalar.value) == message
            assert str(series.value) == f"sample 2: {message}"
        with pytest.raises(ValueError, match="sample 1: joint state must be finite"):
            JointSeries(times=t, theta3=[0.0, np.inf, 0.0], theta4=np.zeros(3), d2=np.zeros(3))
        with pytest.raises(ValueError, match="one length"):
            JointSeries(times=t, theta3=np.zeros(2), theta4=np.zeros(3), d2=np.zeros(3))

    def test_times_must_be_finite(self):
        with pytest.raises(ValueError, match="sample 1: timestamp must be finite"):
            JointSeries(times=[0.0, np.nan, 0.2], theta3=np.zeros(3), theta4=np.zeros(3),
                        d2=np.zeros(3))

    def test_beta_coupling(self):
        series = JointSeries(times=[0.0], theta3=[0.123], theta4=[0.2], d2=[5.0])
        assert series.beta3[0] == 0.123 + math.pi / 2
        assert series.beta4[0] == 0.2
