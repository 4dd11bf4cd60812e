"""Ego-motion propagation of lane points and the rolling query memory.

Poses are rigid vehicle-to-world transforms.  Past control points are
carried into the current frame by inv(E_current) @ E_source; only the
geometry changes, visibility rides along untouched.  The memory keeps
the most confident lanes of each of the last `capacity` frames and
propagates lazily at view time, so repeated views never accumulate
transform drift.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

_ORTHONORMAL_TOL = 1e-9
# For a finite y, np.allclose(x, y, atol=_ORTHONORMAL_TOL) holds exactly when every
# |x - y| <= _ORTHONORMAL_TOL + 1e-5 * |y|, a NaN failing; these are those bounds.
_BOTTOM_ROW = np.array([0.0, 0.0, 0.0, 1.0])
_BOTTOM_ROW_TOL = _ORTHONORMAL_TOL + 1e-5 * np.abs(_BOTTOM_ROW)
_IDENTITY = np.eye(3)
_IDENTITY_TOL = _ORTHONORMAL_TOL + 1e-5 * _IDENTITY


@dataclass(frozen=True)
class EgoPose:
    """4x4 homogeneous vehicle-to-world transform with orthonormal rotation."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"pose must be 4x4, got {m.shape}")
        if not (abs(m[3] - _BOTTOM_ROW) <= _BOTTOM_ROW_TOL).all():
            raise ValueError("pose bottom row must be (0, 0, 0, 1)")
        if not np.isfinite(m[:3]).all():
            raise ValueError("pose has non-finite entries")
        r = m[:3, :3]
        if not (abs(r.T @ r - _IDENTITY) <= _IDENTITY_TOL).all():
            raise ValueError("pose rotation is not orthonormal")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls) -> "EgoPose":
        return cls(np.eye(4))

    @classmethod
    def from_parts(cls, rotation, translation) -> "EgoPose":
        m = np.eye(4)
        m[:3, :3] = np.asarray(rotation, dtype=float)
        m[:3, 3] = np.asarray(translation, dtype=float)
        return cls(m)

    @property
    def rotation(self) -> np.ndarray:
        return self.matrix[:3, :3]

    @property
    def position(self) -> np.ndarray:
        return self.matrix[:3, 3]

    def inverse_matrix(self) -> np.ndarray:
        """`rigid_inverse` of the pose matrix."""
        return rigid_inverse(self.matrix)


def rigid_inverse(transform: np.ndarray) -> np.ndarray:
    """Analytic inverse [R^T | -R^T t] of a 4x4 rigid transform, such as `EgoPose.matrix`."""
    inv = np.eye(4)
    rt = transform[:3, :3].T
    inv[:3, :3] = rt
    inv[:3, 3] = -rt @ transform[:3, 3]
    return inv


def relative_transform(src: EgoPose, dst: EgoPose) -> np.ndarray:
    """Transform mapping src-frame coordinates into the dst frame."""
    return dst.inverse_matrix() @ src.matrix


def apply_transform(transform: np.ndarray, xyz: np.ndarray) -> np.ndarray:
    """Apply a 4x4 rigid transform to a (..., 3) array of points."""
    xyz = np.asarray(xyz, dtype=float)
    return xyz @ transform[:3, :3].T + transform[:3, 3]


def propagate_points(points: np.ndarray, src: EgoPose, dst: EgoPose) -> np.ndarray:
    """Carry (x, y, z, v) points from the src ego frame into the dst ego frame.

    Geometry is mapped by inv(dst) @ src; the visibility column (and any
    further trailing columns) is returned unchanged.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] < 3:
        raise ValueError("points must be an (n, >=3) array")
    out = points.copy()
    out[:, :3] = apply_transform(relative_transform(src, dst), points[:, :3])
    return out


@dataclass
class FrameBlock:
    """Per-frame memory block: top lanes' points, embeddings, and provenance."""

    frame_index: int
    pose: EgoPose
    points: np.ndarray       # (lanes, m, 4)
    embeddings: np.ndarray   # (lanes, m, channels)
    confidences: np.ndarray  # (lanes,)
    lane_ids: np.ndarray     # (lanes,)

    @property
    def entry_count(self) -> int:
        return self.points.shape[0] * self.points.shape[1]


@dataclass(frozen=True)
class MemoryView:
    """Flattened memory contents propagated into one target frame."""

    points: np.ndarray       # (entries, 4), geometry in the target frame
    embeddings: np.ndarray   # (entries, channels)

    def __len__(self) -> int:
        return self.points.shape[0]


class MemoryQueue:
    """FIFO of per-frame top-confidence lane entries over the last `capacity` frames."""

    def __init__(self, capacity: int = 3):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._blocks: deque[FrameBlock] = deque()  # most recent first

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def blocks(self) -> list[FrameBlock]:
        return list(self._blocks)

    @property
    def entry_count(self) -> int:
        return sum(b.entry_count for b in self._blocks)

    def push_frame(self, points, embeddings, confidences, pose: EgoPose,
                   frame_index: int, keep: int = 10) -> None:
        """Append the `keep` most confident lanes as the newest block, evicting the oldest.

        Confidence ties keep the lower lane index first for determinism.
        The block's `lane_ids` are the kept lanes' indices in the input.
        """
        points = np.asarray(points, dtype=float)
        embeddings = np.asarray(embeddings, dtype=float)
        confidences = np.asarray(confidences, dtype=float)
        n = points.shape[0]
        if not (embeddings.shape[0] == n and confidences.shape[0] == n):
            raise ValueError("points, embeddings, and confidences must agree on lane count")
        if keep > n:
            warnings.warn(f"keep={keep} exceeds lane count {n}; keeping all lanes")
            keep = n
        order = np.argsort(-confidences, kind="stable")[:keep]
        self._blocks.appendleft(
            FrameBlock(
                frame_index=frame_index,
                pose=pose,
                points=points[order].copy(),
                embeddings=embeddings[order].copy(),
                confidences=confidences[order].copy(),
                lane_ids=order,
            )
        )
        while len(self._blocks) > self.capacity:
            self._blocks.pop()

    def view(self, current_pose: EgoPose) -> MemoryView:
        """All stored entries with geometry propagated into the current frame."""
        if not self._blocks:
            return MemoryView(points=np.zeros((0, 4)), embeddings=np.zeros((0, 0)))
        pts, embs = [], []
        for block in self._blocks:
            flat = block.points.reshape(-1, block.points.shape[-1])
            pts.append(propagate_points(flat, block.pose, current_pose))
            embs.append(block.embeddings.reshape(-1, block.embeddings.shape[-1]))
        return MemoryView(points=np.concatenate(pts, axis=0), embeddings=np.concatenate(embs, axis=0))
