"""Wrist kinematics with a translating rotation center.

A five-frame serial chain models the wrist: two revolute joints for
radio-ulnar deviation and flexion-extension plus a prismatic offset d2
that tracks the moving center of carpal rotation. The package provides
the closed-form forward/inverse kinematics, a rational quadric surface
predicting d2 from the coupled wrist angles, genetic-algorithm surface
fitting, goodness-of-fit statistics, synthetic tracking sessions, and a
CLI tying the pipeline together.
"""

from .errors import (
    DegenerateDataError,
    OrientationError,
    OutOfReachError,
    PoleError,
    SchemaError,
    WristKinError,
)
from .ga import GAConfig, fit_surface, fitness
from .regression import (
    DataPoints,
    FitReport,
    LinearFit,
    RationalQuadricSurface,
    fit_report,
    linear_regression,
    load_surface,
    lowess,
    reference_surface,
    save_surface,
    spearman_rho,
    standardized_residuals,
)
from .sessions import (
    JointSeries,
    SubjectValidation,
    SyntheticConfig,
    TrackingSession,
    ValidationSummary,
    derive_joint_series,
    load_session,
    save_session,
    subject_split,
    synthesize_session,
    synthesize_sessions,
    to_data_points,
    validation_stats,
)
from .transforms import DHRow, Pose, compose, compose_chain, dh_link_transform, invert
from .wrist import (
    JointState,
    SubjectParams,
    forward_kinematics,
    inverse_kinematics,
    link_transforms,
    sensor_frame_transform,
    sensor_to_base,
)

__version__ = "0.1.0"

__all__ = [
    "DHRow",
    "DataPoints",
    "DegenerateDataError",
    "FitReport",
    "GAConfig",
    "JointSeries",
    "JointState",
    "LinearFit",
    "OrientationError",
    "OutOfReachError",
    "PoleError",
    "Pose",
    "RationalQuadricSurface",
    "SchemaError",
    "SubjectParams",
    "SubjectValidation",
    "SyntheticConfig",
    "TrackingSession",
    "ValidationSummary",
    "WristKinError",
    "compose",
    "compose_chain",
    "derive_joint_series",
    "dh_link_transform",
    "fit_report",
    "fit_surface",
    "fitness",
    "forward_kinematics",
    "inverse_kinematics",
    "invert",
    "linear_regression",
    "link_transforms",
    "load_session",
    "load_surface",
    "lowess",
    "reference_surface",
    "save_session",
    "save_surface",
    "sensor_frame_transform",
    "sensor_to_base",
    "spearman_rho",
    "standardized_residuals",
    "subject_split",
    "synthesize_session",
    "synthesize_sessions",
    "to_data_points",
    "validation_stats",
    "__version__",
]
