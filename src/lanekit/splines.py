"""Catmull-Rom lane curves: basis construction, evaluation, and fitting.

A lane is parameterized by M control points with columns (x, y, z, v).
The curve interpolates its control points, every sample depends on at
most four of them, and the y column is fixed uniform over the configured
longitudinal range, so the curve argument of a longitudinal position is
a plain linear map.  Sampling a curve then reduces to one matrix product
between a precomputed basis matrix and the control-point matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Weights of the four support points of one cubic segment:
# [t^3 t^2 t 1] @ SEGMENT_COEFFS, t being the local argument in [0, 1].
SEGMENT_COEFFS = 0.5 * np.array(
    [
        [-1.0, 3.0, -3.0, 1.0],
        [2.0, -5.0, 4.0, -1.0],
        [-1.0, 0.0, 1.0, 0.0],
        [0.0, 2.0, 0.0, 0.0],
    ]
)
SEGMENT_COEFFS.flags.writeable = False

# Snap tolerance for sample arguments that should land exactly on a knot
# but carry float round-off from the division by (m - 1).
_KNOT_SNAP = 1e-12


@dataclass(frozen=True)
class CurveConfig:
    """Curve parameterization shared by all lanes of a model.

    m control points, dense sampling with `samples` arguments, and the
    longitudinal range [y_start, y_end] that fixes the y column.
    """

    m: int = 20
    y_start: float = 3.0
    y_end: float = 103.0
    samples: int = 100

    def __post_init__(self):
        if self.m < 4:
            raise ValueError(f"need at least 4 control points, got {self.m}")
        if not self.y_end > self.y_start:
            raise ValueError("y range must have positive extent")
        if self.samples < self.m:
            raise ValueError("dense sample count must be >= control point count")

    @property
    def knots(self) -> np.ndarray:
        """Knot arguments s_k = k / (m - 1)."""
        return np.linspace(0.0, 1.0, self.m)

    @property
    def control_y(self) -> np.ndarray:
        """Fixed uniform y positions of the control points."""
        return np.linspace(self.y_start, self.y_end, self.m)


@dataclass(frozen=True)
class BasisMatrix:
    """Precomputed sample-args x m evaluation matrix for one derivative order."""

    matrix: np.ndarray
    order: int
    sample_args: np.ndarray

    @property
    def m(self) -> int:
        return self.matrix.shape[1]


def evaluate_segment(s_local: float, p4) -> float:
    """Evaluate one cubic segment from its four support values at local argument s_local."""
    if not 0.0 <= s_local <= 1.0:
        raise ValueError(f"local argument outside [0, 1]: {s_local}")
    sv = np.array([s_local**3, s_local**2, s_local, 1.0])
    return float(sv @ SEGMENT_COEFFS @ np.asarray(p4, dtype=float))


def _segment_weights(local: np.ndarray, order: int, m: int) -> np.ndarray:
    """Per-sample weights of the four support points, differentiated `order` times.

    Derivatives are taken w.r.t. the global argument s, hence the (m - 1)
    chain factor per order.
    """
    one = np.ones_like(local)
    zero = np.zeros_like(local)
    if order == 0:
        arg = np.stack([local**3, local**2, local, one], axis=1)
        scale = 1.0
    elif order == 1:
        arg = np.stack([3.0 * local**2, 2.0 * local, one, zero], axis=1)
        scale = float(m - 1)
    elif order == 2:
        arg = np.stack([6.0 * local, 2.0 * one, zero, zero], axis=1)
        scale = float(m - 1) ** 2
    else:
        raise ValueError(f"derivative order must be 0, 1, or 2, got {order}")
    return (arg @ SEGMENT_COEFFS) * scale


def basis_matrix(m: int, sample_args, order: int = 0) -> BasisMatrix:
    """Basis matrix mapping m control values to samples at the given arguments.

    Rows fold the four segment weights into the m columns; the first and
    last segments obtain their outer support points by reflection
    (p[-1] = 2 p[0] - p[1] and symmetrically at the far end), which keeps
    end tangents and interpolation at the boundary control points.
    """
    if m < 4:
        raise ValueError(f"need at least 4 control points, got {m}")
    s = np.asarray(sample_args, dtype=float).ravel()
    if s.size and (s.min() < 0.0 or s.max() > 1.0):
        raise ValueError("sample arguments must lie in [0, 1]")
    return _basis(m, order, s.tobytes())


# Sized by counting what repeats.  A process has at most five repeated grids:
# the dense grid at orders 0-2 (`spatial_regularization`), the moving-average
# y grid and the neighbour-tangent grid (`neighbor_line_index`).  A lane
# target's basis is looked up at most four times within one frame (the fit,
# `assign_proposals`, `regression_loss`, `visibility_loss`; `combined_loss`
# takes both loss terms from the assignment's samples, so the detector looks
# it up twice), and between its first and last lookup at most 5 + (T - 1)
# other keys arrive for T targets a frame.  A grid looked up once a frame
# sees both frames' targets and the other grids in between, 2T + 4 keys.  So
# 16 entries keep every hit for up to 5 targets a frame (11 within a frame);
# the scenes here have 4.  Each entry is samples x m floats and most are
# one-off fits, so a larger bound only holds memory: hits / misses were 498 /
# 117 over 28 detector steps (274 / 117 since `combined_loss` reuses the
# samples), 955 / 5 for `temporal-demo` and 0 / 801 for `spline` on the
# README scene at both 128 and 16 entries, while 8 entries rebuilt 135 bases
# in the detector run.
@functools.lru_cache(maxsize=16)
def _basis(m: int, order: int, args: bytes) -> BasisMatrix:
    s = np.frombuffer(args)
    t = s * (m - 1)
    near = np.abs(t - np.round(t)) <= _KNOT_SNAP * (m - 1)
    t[near] = np.round(t[near])
    seg = np.minimum(t.astype(int), m - 2)
    w = _segment_weights(t - seg, order, m)

    # Columns 0 and m + 1 hold the reflected support points p[-1] and p[m];
    # a row's four support columns seg .. seg + 3 are distinct.
    padded = np.zeros((s.size, m + 2))
    np.put_along_axis(padded, seg[:, None] + np.arange(4), w, axis=1)
    padded[:, 1] += 2.0 * padded[:, 0]
    padded[:, 2] -= padded[:, 0]
    padded[:, m] += 2.0 * padded[:, m + 1]
    padded[:, m - 1] -= padded[:, m + 1]
    rows = np.ascontiguousarray(padded[:, 1:m + 1])
    rows.flags.writeable = False
    return BasisMatrix(matrix=rows, order=order, sample_args=s)


def build_basis(cfg: CurveConfig, sample_args=None, order: int = 0) -> BasisMatrix:
    """Basis for a curve config; defaults to the config's dense uniform sampling."""
    if sample_args is None:
        sample_args = np.linspace(0.0, 1.0, cfg.samples)
    return basis_matrix(cfg.m, sample_args, order=order)


def evaluate_curve(control_points: np.ndarray, basis: BasisMatrix) -> np.ndarray:
    """Sample a curve: basis.matrix @ control_points, each column independently."""
    points = np.asarray(control_points, dtype=float)
    if points.shape[0] != basis.m:
        raise ValueError(
            f"control point count {points.shape[0]} does not match basis columns {basis.m}"
        )
    return basis.matrix @ points


def arg_for_y(y, cfg: CurveConfig):
    """Curve argument of a longitudinal position: (y - y_start) / (y_end - y_start)."""
    y = np.asarray(y, dtype=float)
    span = cfg.y_end - cfg.y_start
    tol = 1e-9 * span
    if np.any(y < cfg.y_start - tol) or np.any(y > cfg.y_end + tol):
        raise ValueError(f"y outside [{cfg.y_start}, {cfg.y_end}]")
    s = (y - cfg.y_start) / span
    return np.clip(s, 0.0, 1.0)


def control_points_from_columns(cfg: CurveConfig, x, z, v) -> np.ndarray:
    """Assemble an (m, 4) control-point matrix with the fixed uniform y column."""
    x = np.asarray(x, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if not (x.size == z.size == v.size == cfg.m):
        raise ValueError("column length must equal the control point count")
    if v.min() < 0.0 or v.max() > 1.0:
        raise ValueError("visibility entries must lie in [0, 1]")
    return np.column_stack([x, cfg.control_y, z, v])


class RankDeficientFit(ValueError):
    """The samples' y positions cannot fix every control point."""


def fit_control_points(dense: np.ndarray, cfg: CurveConfig) -> np.ndarray:
    """Least-squares control points reproducing dense (x, y, z, v) samples.

    Solves basis @ P ~= dense for the x, z, v columns; the y column stays
    fixed uniform.  Visibility is clamped to [0, 1] after the solve.
    Raises `RankDeficientFit` when the samples leave a control point
    undetermined: when there are fewer samples than control points, or
    when they stop short of the last knot span.
    """
    dense = np.asarray(dense, dtype=float)
    if dense.ndim != 2 or dense.shape[1] != 4:
        raise ValueError("dense samples must be an (n, 4) array of (x, y, z, v)")
    if dense.shape[0] < cfg.m:
        raise RankDeficientFit(f"need at least {cfg.m} samples, got {dense.shape[0]}")
    args = arg_for_y(dense[:, 1], cfg)
    basis = basis_matrix(cfg.m, args, order=0)
    solution, _, rank, _ = np.linalg.lstsq(basis.matrix, dense[:, [0, 2, 3]], rcond=None)
    if rank < cfg.m:
        raise RankDeficientFit(f"rank-deficient fit: rank {rank} < {cfg.m} "
                               "(too few distinct y positions)")
    x, z, v = solution[:, 0], solution[:, 1], np.clip(solution[:, 2], 0.0, 1.0)
    return control_points_from_columns(cfg, x, z, v)
