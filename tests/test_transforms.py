import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wristkin import DHRow, Pose, compose, compose_chain, dh_link_transform, invert

from conftest import random_pose

HALF_PI = math.pi / 2.0


def explicit_link_product(alpha, a, theta, d):
    """Independent oracle: build the link transform from the four explicit
    4x4 operator matrices and multiply them out."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    ct, s_t = math.cos(theta), math.sin(theta)
    rot_x = np.array([[1, 0, 0, 0], [0, ca, -sa, 0], [0, sa, ca, 0], [0, 0, 0, 1.0]])
    trans_x = np.eye(4)
    trans_x[0, 3] = a
    rot_z = np.array([[ct, -s_t, 0, 0], [s_t, ct, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.0]])
    trans_z = np.eye(4)
    trans_z[2, 3] = d
    return rot_x @ trans_x @ rot_z @ trans_z


class TestPose:
    def test_identity(self):
        eye = Pose.identity()
        assert np.array_equal(eye.r, np.eye(3))
        assert np.array_equal(eye.p, np.zeros(3))

    def test_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="determinant"):
            Pose(r, np.zeros(3))

    def test_rejects_non_orthonormal(self):
        r = np.eye(3)
        r[0, 0] = 1.0 + 1e-6
        with pytest.raises(ValueError, match="orthonormal"):
            Pose(r, np.zeros(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3), np.array([np.nan, 0.0, 0.0]))

    def test_columns_named_n_o_a(self):
        pose = Pose(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(pose.n, [1, 0, 0])
        assert np.array_equal(pose.o, [0, 1, 0])
        assert np.array_equal(pose.a, [0, 0, 1])

    def test_arrays_frozen(self):
        pose = Pose.identity()
        with pytest.raises(ValueError):
            pose.r[0, 0] = 2.0


class TestDHLinkTransform:
    def test_rotation_only_row(self):
        # alpha=0, a=0, theta=90deg, d=0
        pose = dh_link_transform(DHRow(theta=HALF_PI))
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(pose.r, expected, atol=1e-12)
        assert np.allclose(pose.p, 0.0, atol=1e-12)

    def test_prismatic_row(self):
        # alpha=90deg, a=0, theta=0, d=d2
        d2 = 17.5
        pose = dh_link_transform(DHRow(alpha_prev=HALF_PI, d=d2))
        expected_r = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        assert np.allclose(pose.r, expected_r, atol=1e-12)
        assert np.allclose(pose.p, [0.0, -d2, 0.0], atol=1e-12)

    def test_zero_row_is_exact_identity(self):
        pose = dh_link_transform(DHRow())
        assert np.array_equal(pose.r, np.eye(3))
        assert np.array_equal(pose.p, np.zeros(3))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            DHRow(theta=math.nan)

    def test_matches_operator_product_oracle(self, rng):
        for _ in range(200):
            alpha, theta = rng.uniform(-math.pi, math.pi, 2)
            a, d = rng.uniform(-100, 100, 2)
            pose = dh_link_transform(DHRow(alpha_prev=alpha, a_prev=a, d=d, theta=theta))
            oracle = explicit_link_product(alpha, a, theta, d)
            assert np.allclose(pose.as_matrix(), oracle, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_output_always_valid_pose(self, seed):
        rng = np.random.default_rng(seed)
        alpha, theta = rng.uniform(-2 * math.pi, 2 * math.pi, 2)
        a, d = rng.uniform(-1000, 1000, 2)
        pose = dh_link_transform(DHRow(alpha_prev=alpha, a_prev=a, d=d, theta=theta))
        # construction already enforces the invariants; recheck explicitly
        assert np.abs(pose.r.T @ pose.r - np.eye(3)).max() <= 1e-9


class TestCompose:
    def test_identity_neutral(self, rng):
        pose = random_pose(rng)
        assert np.allclose(compose(Pose.identity(), pose).as_matrix(), pose.as_matrix())
        assert np.allclose(compose(pose, Pose.identity()).as_matrix(), pose.as_matrix())

    def test_inverse_round_trip(self, rng):
        for _ in range(50):
            pose = random_pose(rng)
            eye = compose(pose, invert(pose)).as_matrix()
            assert np.abs(eye - np.eye(4)).max() < 1e-12
            eye = compose(invert(pose), pose).as_matrix()
            assert np.abs(eye - np.eye(4)).max() < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_associative(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_pose(rng) for _ in range(3))
        left = compose(compose(a, b), c).as_matrix()
        right = compose(a, compose(b, c)).as_matrix()
        assert np.abs(left - right).max() < 1e-12

    def test_five_link_chain_against_matrix_oracle(self):
        # theta3 = theta4 = 0, d2 = 20, a4 = 100
        rows = [
            DHRow(theta=HALF_PI),
            DHRow(alpha_prev=HALF_PI, d=20.0),
            DHRow(alpha_prev=-HALF_PI, theta=0.0),
            DHRow(alpha_prev=HALF_PI, theta=0.0),
            DHRow(a_prev=100.0),
        ]
        chained = compose_chain(dh_link_transform(r) for r in rows)
        oracle = np.eye(4)
        for r in rows:
            oracle = oracle @ explicit_link_product(r.alpha_prev, r.a_prev, r.theta, r.d)
        assert np.allclose(chained.as_matrix(), oracle, atol=1e-12)
        assert np.allclose(chained.p, [20.0, 100.0, 0.0], atol=1e-9)


class TestInvert:
    def test_identity(self):
        eye = invert(Pose.identity())
        assert np.array_equal(eye.as_matrix(), np.eye(4))

    def test_involution(self, rng):
        pose = random_pose(rng)
        back = invert(invert(pose)).as_matrix()
        assert np.abs(back - pose.as_matrix()).max() < 1e-12

    def test_pure_translation(self):
        pose = Pose(np.eye(3), np.array([1.0, 2.0, 3.0]))
        inv = invert(pose)
        assert np.array_equal(inv.r, np.eye(3))
        assert np.allclose(inv.p, [-1.0, -2.0, -3.0])
