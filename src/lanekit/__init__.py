"""Spline-based 3D lane geometry, temporal propagation, losses, metrics,
and trajectory-driven auto-labeling.

numpy is the only run-time dependency: the one-to-one matching that the
losses and metrics need comes from `lanekit.assignment`.
"""

from .splines import (
    BasisMatrix,
    CurveConfig,
    arg_for_y,
    basis_matrix,
    build_basis,
    control_points_from_columns,
    evaluate_curve,
    evaluate_segment,
    fit_control_points,
)
from .temporal import EgoPose, MemoryQueue, propagate_points, relative_transform

__all__ = [
    "BasisMatrix",
    "CurveConfig",
    "EgoPose",
    "MemoryQueue",
    "arg_for_y",
    "basis_matrix",
    "build_basis",
    "control_points_from_columns",
    "evaluate_curve",
    "evaluate_segment",
    "fit_control_points",
    "propagate_points",
    "relative_transform",
]
