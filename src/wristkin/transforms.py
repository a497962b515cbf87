"""Rigid-body transform algebra for serial kinematic chains.

A :class:`Pose` is a proper rigid transform held as a 3x3 rotation and a
3-vector position (millimeters). The rotation columns are conventionally
called n, o, a. Link transforms follow the modified (proximal) D-H
convention: ``Rot_X(alpha_prev) @ Trans_X(a_prev) @ Rot_Z(theta) @
Trans_Z(d)``. The classic (distal) convention is deliberately not offered.

Angles are radians everywhere; lengths are millimeters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EYE3 = np.eye(3)
ORTHONORMAL_TOL = 1e-9


def _gram_drift(r: np.ndarray) -> np.ndarray:
    """Largest |r.T @ r - I| entry of one matrix, r (3, 3), or of each
    matrix in a batch, r (n, 3, 3)."""
    return np.abs(np.swapaxes(r, -1, -2) @ r - _EYE3).max(axis=(-2, -1))


def _flagged(bad, label: str = "sample"):
    """None if the bool scalar or 1-d array ``bad`` is all False, else the
    first True index and an error-message prefix: ``((), "")`` for a
    scalar, ``(i, f"{label} {i}: ")`` for an array."""
    if bad.ndim == 0:
        return ((), "") if bad else None
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return i, f"{label} {i}: "


def _check_rigid(r: np.ndarray, p: np.ndarray) -> None:
    """The checks of :class:`Pose` on one pose, r (3, 3) and p (3,), or on
    a batch, r (n, 3, 3) and p (n, 3), each naming the first failing
    sample of a batch."""
    if bad := _flagged(~(np.isfinite(r).all(axis=(-2, -1)) & np.isfinite(p).all(axis=-1))):
        raise ValueError(f"{bad[1]}pose entries must be finite")
    # a huge finite direction cosine overflows the Gram matrix to inf or
    # nan; such a pose fails the drift check
    with np.errstate(over="ignore", invalid="ignore"):
        drift = _gram_drift(r)
    if bad := _flagged(~(drift <= ORTHONORMAL_TOL)):
        raise ValueError(f"{bad[1]}rotation not orthonormal (drift {drift[bad[0]]:.3e})")
    det = np.linalg.det(r)
    if bad := _flagged(np.abs(det - 1.0) > ORTHONORMAL_TOL):
        raise ValueError(f"{bad[1]}rotation determinant {det[bad[0]]:.12f} != +1 (improper)")


@dataclass(frozen=True)
class Pose:
    """Proper rigid transform: rotation ``r`` (columns n, o, a) and position ``p`` (mm).

    Construction validates orthonormality (r.T @ r == I within 1e-9
    elementwise) and det(r) == +1 within 1e-9. Arrays are copied and
    frozen so poses behave as immutable values.
    """

    r: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        r = np.array(self.r, dtype=float)
        p = np.array(self.p, dtype=float)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        if p.shape != (3,):
            raise ValueError(f"position must be a 3-vector, got {p.shape}")
        _check_rigid(r, p)
        r.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", p)

    # column accessors named after the usual direction-cosine labels
    @property
    def n(self) -> np.ndarray:
        return self.r[:, 0]

    @property
    def o(self) -> np.ndarray:
        return self.r[:, 1]

    @property
    def a(self) -> np.ndarray:
        return self.r[:, 2]

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.r
        m[:3, 3] = self.p
        return m


@dataclass(frozen=True)
class DHRow:
    """One modified-D-H table row: alpha_prev, a_prev (link twist/length about
    the previous x axis), then theta, d (rotation about / translation along
    the current z axis). Angles in radians, lengths in mm."""

    alpha_prev: float = 0.0
    a_prev: float = 0.0
    d: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        vals = (self.alpha_prev, self.a_prev, self.d, self.theta)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError(f"D-H row fields must be finite, got {vals}")


def dh_link_transform(row: DHRow) -> Pose:
    """Link transform Rot_X(alpha) @ Trans_X(a) @ Rot_Z(theta) @ Trans_Z(d).

    Written in closed form:

        [ c_th        -s_th        0       a      ]
        [ s_th*c_al    c_th*c_al  -s_al   -s_al*d ]
        [ s_th*s_al    c_th*s_al   c_al    c_al*d ]
        [ 0            0           0       1      ]
    """
    c_al, s_al = np.cos(row.alpha_prev), np.sin(row.alpha_prev)
    c_th, s_th = np.cos(row.theta), np.sin(row.theta)
    r = np.array(
        [
            [c_th, -s_th, 0.0],
            [s_th * c_al, c_th * c_al, -s_al],
            [s_th * s_al, c_th * s_al, c_al],
        ]
    )
    p = np.array([row.a_prev, -s_al * row.d, c_al * row.d])
    return Pose(r, p)


def compose(lhs: Pose, rhs: Pose) -> Pose:
    """Homogeneous product lhs @ rhs (rhs expressed in lhs's frame)."""
    return Pose(lhs.r @ rhs.r, lhs.r @ rhs.p + lhs.p)


def compose_chain(poses) -> Pose:
    """Fold compose over a sequence of poses; identity for an empty sequence."""
    out = Pose.identity()
    for t in poses:
        out = compose(out, t)
    return out


def invert(t: Pose) -> Pose:
    """Rigid inverse (r.T, -r.T @ p)."""
    rt = t.r.T
    return Pose(rt, -(rt @ t.p))
