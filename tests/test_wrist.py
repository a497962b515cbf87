import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wristkin import (
    JointState,
    OrientationError,
    OutOfReachError,
    Pose,
    SubjectParams,
    compose_chain,
    forward_kinematics,
    inverse_kinematics,
    link_transforms,
    sensor_frame_transform,
    sensor_to_base,
)

HALF_PI = math.pi / 2.0


class TestJointState:
    def test_beta_coupling_exact(self):
        state = JointState(theta3=0.123, theta4=0.2, d2=5.0)
        assert state.beta3 == 0.123 + HALF_PI
        assert state.beta4 == 0.2

    def test_theta4_branch_enforced(self):
        with pytest.raises(ValueError):
            JointState(theta3=0.0, theta4=HALF_PI + 0.01, d2=0.0)

    def test_finite_required(self):
        with pytest.raises(ValueError):
            JointState(theta3=0.0, theta4=0.0, d2=math.inf)


class TestSubjectParams:
    def test_positive_a4(self):
        with pytest.raises(ValueError):
            SubjectParams(a4=0.0)

    def test_p_lorg_shape(self):
        with pytest.raises(ValueError):
            SubjectParams(a4=100.0, p_lorg=np.zeros(2))


class TestLinkTransforms:
    def test_base_link_constant(self, subject):
        for theta3 in (0.0, 0.2, -0.3):
            state = JointState(theta3=theta3, theta4=0.1, d2=7.0)
            t01 = link_transforms(state, subject)[0]
            expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
            assert np.allclose(t01.r, expected, atol=1e-12)
            assert np.allclose(t01.p, 0.0, atol=1e-12)

    def test_deviation_link_at_neutral(self, subject):
        state = JointState(theta3=0.0, theta4=0.0, d2=0.0)
        t23 = link_transforms(state, subject)[2]
        expected = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, -1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        assert np.allclose(t23.as_matrix(), expected, atol=1e-12)

    def test_fingertip_link_translation_only(self, subject):
        state = JointState(theta3=0.1, theta4=-0.2, d2=3.0)
        t45 = link_transforms(state, subject)[4]
        assert np.array_equal(t45.r, np.eye(3))
        assert np.allclose(t45.p, [100.0, 0.0, 0.0])


class TestForwardKinematics:
    def test_neutral_posture(self, subject):
        pose = forward_kinematics(JointState(0.0, 0.0, 0.0), subject)
        assert np.allclose(pose.p, [0.0, 100.0, 0.0], atol=1e-12)
        assert np.allclose(pose.a, [1.0, 0.0, 0.0], atol=1e-12)

    def test_flexed_with_offset(self, subject):
        # oracle: multiply the five link matrices
        state = JointState(theta3=0.0, theta4=math.radians(30), d2=20.0)
        pose = forward_kinematics(state, subject)
        oracle = compose_chain(link_transforms(state, subject))
        assert np.abs(pose.as_matrix() - oracle.as_matrix()).max() < 1e-12
        assert np.allclose(pose.p, [20.0, 86.6025, 50.0], atol=1e-4)

    def test_deviated(self, subject):
        state = JointState(theta3=math.radians(10), theta4=0.0, d2=0.0)
        pose = forward_kinematics(state, subject)
        oracle = compose_chain(link_transforms(state, subject))
        assert np.abs(pose.as_matrix() - oracle.as_matrix()).max() < 1e-12
        assert np.allclose(pose.p, [-17.3648, 98.4808, 0.0], atol=1e-4)
        assert pose.a[1] == pytest.approx(0.17365, abs=1e-5)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_closed_form_equals_link_product(self, seed):
        rng = np.random.default_rng(seed)
        state = JointState(
            theta3=rng.uniform(-1.0, 1.0),
            theta4=rng.uniform(-1.5, 1.5),
            d2=rng.uniform(-60.0, 60.0),
        )
        subject = SubjectParams(a4=rng.uniform(80.0, 120.0))
        closed = forward_kinematics(state, subject).as_matrix()
        product = compose_chain(link_transforms(state, subject)).as_matrix()
        assert np.abs(closed - product).max() < 1e-12


class TestSensorFrame:
    def test_fixed_rotation(self):
        subject = SubjectParams(a4=100.0, p_lorg=np.zeros(3))
        pose = sensor_to_base(Pose.identity(), subject)
        expected = np.array([[0.0, 0.0, -1.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert np.array_equal(pose.r, expected)
        assert np.array_equal(pose.p, np.zeros(3))

    def test_translation_offset(self):
        subject = SubjectParams(a4=100.0, p_lorg=np.array([10.0, 20.0, 30.0]))
        pose = sensor_to_base(Pose.identity(), subject)
        assert np.allclose(pose.p, [10.0, 20.0, 30.0])

    def test_unit_x_maps_to_minus_y(self):
        subject = SubjectParams(a4=100.0, p_lorg=np.array([10.0, 20.0, 30.0]))
        pose_in_L = Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        pose = sensor_to_base(pose_in_L, subject)
        assert np.allclose(pose.p, [10.0, 19.0, 30.0], atol=1e-12)

    def test_preserves_distances(self, rng):
        subject = SubjectParams(a4=90.0, p_lorg=rng.uniform(-100, 100, 3))
        t = sensor_frame_transform(subject)
        for _ in range(20):
            a, b = rng.uniform(-50, 50, (2, 3))
            da = (t.r @ a + t.p) - (t.r @ b + t.p)
            assert np.linalg.norm(da) == pytest.approx(np.linalg.norm(a - b), abs=1e-12)


class TestInverseKinematics:
    def test_neutral(self, subject):
        pose = Pose(
            np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            np.zeros(3),
        )
        state = inverse_kinematics(pose, subject)
        assert state.theta4 == 0.0
        assert state.theta3 == 0.0
        assert state.beta3 == pytest.approx(math.radians(90))
        assert state.d2 == 0.0

    def test_round_trip(self, subject):
        state = JointState(theta3=0.0, theta4=math.radians(30), d2=20.0)
        back = inverse_kinematics(forward_kinematics(state, subject), subject)
        assert back.theta3 == pytest.approx(state.theta3, abs=1e-12)
        assert back.theta4 == pytest.approx(state.theta4, abs=1e-12)
        assert back.d2 == pytest.approx(state.d2, abs=1e-10)

    def test_out_of_reach(self, subject):
        pose = forward_kinematics(JointState(0.0, 0.0, 0.0), subject)
        far = Pose(pose.r, np.array([0.0, 0.0, 2.0 * subject.a4]))
        with pytest.raises(OutOfReachError):
            inverse_kinematics(far, subject)

    def test_clamps_within_tolerance_band(self, subject):
        pose = forward_kinematics(JointState(0.0, 0.0, 0.0), subject)
        near = Pose(pose.r, np.array([0.0, 0.0, subject.a4 * (1.0 + 0.5e-9)]))
        state = inverse_kinematics(near, subject)
        assert state.theta4 == pytest.approx(HALF_PI)

    def test_malformed_orientation(self, subject):
        # a_y exceeds 1 only through a broken rotation, which Pose rejects;
        # drive the shared array path directly instead
        from wristkin.wrist import _ik_arrays

        r = np.eye(3)
        r[1, 2] = 1.0 + 1e-6
        with pytest.raises(OrientationError):
            _ik_arrays(r, np.zeros(3), subject.a4)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        state = JointState(
            theta3=rng.uniform(math.radians(-20), math.radians(20)),
            theta4=rng.uniform(-HALF_PI + 1e-6, HALF_PI - 1e-6),
            d2=rng.uniform(-50.0, 50.0),
        )
        subject = SubjectParams(a4=rng.uniform(80.0, 120.0))
        back = inverse_kinematics(forward_kinematics(state, subject), subject)
        assert abs(back.theta3 - state.theta3) < 1e-9
        assert abs(back.theta4 - state.theta4) < 1e-9
        assert abs(back.d2 - state.d2) < 1e-9

    def test_offset_identity_cancellation(self, subject, rng):
        # p_x - a4*n_x recovers d2 to 1e-12 because the s3*c4 terms cancel
        for _ in range(100):
            state = JointState(
                theta3=rng.uniform(-0.4, 0.4),
                theta4=rng.uniform(-1.4, 1.4),
                d2=rng.uniform(-50.0, 50.0),
            )
            pose = forward_kinematics(state, subject)
            d2 = pose.p[0] - subject.a4 * pose.r[0, 0]
            assert d2 == pytest.approx(state.d2, abs=1e-12)
