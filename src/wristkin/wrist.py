"""Five-frame wrist chain with a translating rotation center.

The chain runs from the radiocarpal base frame {0} to the fingertip frame
{5}: a fixed 90-degree base rotation, a prismatic offset d2 along the
capitate axis (the moving center of global wrist motion), two revolute
joints for radio-ulnar deviation (theta3) and flexion-extension (theta4),
and the fingertip link of length a4. Flexion is positive theta4; ulnar
deviation increases beta3 = theta3 + pi/2.

Forward kinematics has the closed form

    n = (-s3*c4, c3*c4, s4)    o = (s3*s4, -c3*s4, c4)    a = (c3, s3, 0)
    p = (d2 - a4*s3*c4, a4*c3*c4, a4*s4)

which makes the inverse closed-form as well:

    theta4 = asin(p_z / a4)    theta3 = asin(a_y)    d2 = p_x - a4*n_x

Tracked data arrives in the optical sensor frame L; ``sensor_to_base``
applies the fixed mounting rotation plus the measured sensor origin.

``_fk_arrays`` and ``_ik_arrays`` evaluate the closed forms on one pose or
a batch; the single-pose functions call them, so both agree bit for bit.
Likewise ``_check_joints`` holds the checks of one joint state and of a
whole joint series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OrientationError, OutOfReachError
from .transforms import DHRow, Pose, _flagged, compose, dh_link_transform

HALF_PI = math.pi / 2.0

# arcsin arguments within this band of +-1 are clamped (measurement noise);
# beyond it the sample is rejected.
ARCSIN_SLACK = 1e-9

# Fixed rotation taking sensor-frame vectors into the base frame: the sensor
# x axis maps to -y of the base, y maps to +z, z maps to -x.
SENSOR_ROTATION = np.array(
    [
        [0.0, 0.0, -1.0],
        [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
    ]
)
SENSOR_ROTATION.flags.writeable = False


def _check_joints(theta3, theta4, d2) -> None:
    """The checks of :class:`JointState` on one state or on arrays of one
    shape, each naming the first failing sample of the arrays."""
    if bad := _flagged(~(np.isfinite(theta3) & np.isfinite(theta4) & np.isfinite(d2))):
        raise ValueError(f"{bad[1]}joint state must be finite")
    if bad := _flagged(np.abs(theta4) > HALF_PI):
        raise ValueError(f"{bad[1]}theta4 {np.asarray(theta4)[bad[0]]} outside [-pi/2, pi/2]")


@dataclass(frozen=True)
class JointState:
    """Wrist configuration: theta3/theta4 in radians, d2 in millimeters.

    beta3 = theta3 + pi/2 and beta4 = theta4 are derived exactly, never
    stored. theta4 is restricted to the principal arcsin branch.
    """

    theta3: float
    theta4: float
    d2: float

    def __post_init__(self):
        _check_joints(self.theta3, self.theta4, self.d2)

    @property
    def beta3(self) -> float:
        return self.theta3 + HALF_PI

    @property
    def beta4(self) -> float:
        return self.theta4


def _plain_id(subject_id) -> bool:
    """Whether a subject label is a string without ',', CR or LF, so it is
    one field of the CLI's CSV outputs."""
    return isinstance(subject_id, str) and not any(c in subject_id for c in ",\r\n")


@dataclass(frozen=True)
class SubjectParams:
    """Per-subject constants: fingertip link length a4 (mm), sensor origin
    p_lorg in the base frame (mm), and an opaque subject label: a string
    without ',', CR or LF."""

    a4: float
    p_lorg: np.ndarray = field(default_factory=lambda: np.zeros(3))
    subject_id: str = ""

    def __post_init__(self):
        if not (np.isfinite(self.a4) and self.a4 > 0):
            raise ValueError(f"a4 must be positive and finite, got {self.a4}")
        p = np.array(self.p_lorg, dtype=float)
        if p.shape != (3,) or not np.isfinite(p).all():
            raise ValueError("p_lorg must be a finite 3-vector")
        if not _plain_id(self.subject_id):
            raise ValueError("subject_id must be a string without ',', CR or LF")
        p.flags.writeable = False
        object.__setattr__(self, "p_lorg", p)


def dh_rows(state: JointState, subject: SubjectParams) -> list[DHRow]:
    """The five modified-D-H rows of the chain for a given configuration."""
    return [
        DHRow(alpha_prev=0.0, a_prev=0.0, d=0.0, theta=HALF_PI),
        DHRow(alpha_prev=HALF_PI, a_prev=0.0, d=state.d2, theta=0.0),
        DHRow(alpha_prev=-HALF_PI, a_prev=0.0, d=0.0, theta=state.theta3),
        DHRow(alpha_prev=HALF_PI, a_prev=0.0, d=0.0, theta=state.theta4),
        DHRow(alpha_prev=0.0, a_prev=subject.a4, d=0.0, theta=0.0),
    ]


def link_transforms(state: JointState, subject: SubjectParams) -> list[Pose]:
    """The five successive link transforms T_01 ... T_45."""
    return [dh_link_transform(row) for row in dh_rows(state, subject)]


def _fk_arrays(theta3, theta4, d2, a4: float) -> tuple[np.ndarray, np.ndarray]:
    """Base-frame fingertip rotations (..., 3, 3) and positions (..., 3) of
    joint values given as scalars or as arrays of one shape."""
    c3, s3 = np.cos(theta3), np.sin(theta3)
    c4, s4 = np.cos(theta4), np.sin(theta4)
    px = d2 - a4 * s3 * c4
    r = np.empty(np.shape(px) + (3, 3))
    r[..., 0, 0], r[..., 0, 1], r[..., 0, 2] = -s3 * c4, s3 * s4, c3
    r[..., 1, 0], r[..., 1, 1], r[..., 1, 2] = c3 * c4, -c3 * s4, s3
    r[..., 2, 0], r[..., 2, 1], r[..., 2, 2] = s4, c4, 0.0
    p = np.empty(np.shape(px) + (3,))
    p[..., 0], p[..., 1], p[..., 2] = px, a4 * c3 * c4, a4 * s4
    return r, p


def forward_kinematics(state: JointState, subject: SubjectParams) -> Pose:
    """Fingertip pose in the base frame, closed form.

    Equal to the composed product of :func:`link_transforms` to within
    1e-12 elementwise.
    """
    return Pose(*_fk_arrays(state.theta3, state.theta4, state.d2, subject.a4))


def sensor_frame_transform(subject: SubjectParams) -> Pose:
    """Fixed transform taking sensor-frame poses into the base frame."""
    return Pose(SENSOR_ROTATION, subject.p_lorg)


def sensor_to_base(pose_in_L: Pose, subject: SubjectParams) -> Pose:
    """Re-express a sensor-frame pose in the base frame."""
    return compose(sensor_frame_transform(subject), pose_in_L)


def _arcsin_checked(value, what: str, exc: type[Exception]):
    if bad := _flagged(np.abs(value) > 1.0 + ARCSIN_SLACK):
        i, where = bad
        raise exc(f"{where}{what} = {float(value[i])!r} outside arcsin domain")
    return np.arcsin(np.minimum(np.maximum(value, -1.0), 1.0))


def _ik_arrays(r: np.ndarray, p: np.ndarray, a4: float):
    """(theta3, theta4, d2) of one base-frame pose, r (3, 3) and p (3,), or
    of a batch, r (n, 3, 3) and p (n, 3)."""
    # indexing the transposes yields numpy scalars for one pose (cheap
    # arithmetic) and sample columns for a batch
    rt, pt = r.T, p.T
    theta4 = _arcsin_checked(pt[2] / a4, "p_z / a4", OutOfReachError)
    theta3 = _arcsin_checked(rt[2, 1], "a_y", OrientationError)
    d2 = pt[0] - a4 * rt[0, 0]
    return theta3, theta4, d2


def inverse_kinematics(pose_in_base: Pose, subject: SubjectParams) -> JointState:
    """Closed-form inverse: theta4 from p_z, theta3 from a_y, d2 from p_x and n_x.

    Raises OutOfReachError when ``|p_z| > a4*(1 + 1e-9)`` and
    OrientationError when ``|a_y| > 1 + 1e-9``; arguments inside the
    tolerance band are clamped to [-1, 1].
    """
    theta3, theta4, d2 = _ik_arrays(pose_in_base.r, pose_in_base.p, subject.a4)
    return JointState(theta3=float(theta3), theta4=float(theta4), d2=float(d2))
