"""Trajectory-based auto-labeling: lift near-range 2D lane detections onto
a road surface spanned by the ego trajectory, accumulate them across
frames with a per-station Kalman line tracker, and emit per-frame local
3D labels.  Each frame, the tracker bins all of its lines' located points
in one pass into a (lines, stations) array of mean lateral offsets, NaN
where a line has no point; that one array prices the lines against the
tracks and updates the joined ones.

The surface is piecewise planar: one plane per consecutive trajectory
pose pair, oriented by the vehicle's up vector, valid over its
along-track interval.  Detections are lifted by closed-form ray-plane
intersection.  Tracks store a filtered lateral offset per fixed
arclength station, so a line's world polyline is reconstructed from the
trajectory geometry plus the filtered offsets.

Lifting and locating cost grows linearly with the frame count, because
each frame tests its rays and points only against a window of nearby
segments, and lifting intersects only the rays that can give a kept
point.  Neither changes any output:

* Lifting keeps a hit only if it lies at most `near_range` ahead, so a
  ray's parameter t is at most its own t_max = (near_range - origin_y) /
  dir_y, in the vehicle frame, and at most R = max over rays of t_max.
  Every point of a segment's validity strip is at least the along-track
  gap between the camera and the segment span away from the camera, so
  a segment whose gap exceeds R holds no kept hit.  A ray whose nearest
  hit over all segments lies beyond R is dropped with or without the
  window, so the result is exact, also where the trajectory comes back
  near an old segment.  A ray with dir_y <= 0 has no such bound, and its
  frame scans every segment.
* The window also leaves out a segment that ends more than 1e-6 behind
  the camera, along its own direction d_k, if every ray moves forward
  along it.  With a the vehicle's forward axis and m the least dir_y of
  the frame's rays, a unit ray direction d has d.d_k >= m - |d_k - a|.
  Where that is above 1e-6, which covers the 1e-9 by which a pose
  rotation may miss orthonormality, a hit at t > 0 lies further along
  the segment than the camera, past the segment's end, and is never
  valid.  A forward camera's window loses the segments behind the
  vehicle, about half of it.
* Within the window, a ray is intersected only if some segment's plane
  crossing t = n.(p_k - o) / n.d can satisfy 0 < t <= B, with
  B = t_max (1 + 1e-9) + 1e-6; rays with dir_y <= 0 keep t_max = inf.
  The test multiplies instead of dividing: with the sign of the
  numerator folded into the normal, f = sign(n.(p_k - o)) n.d, it keeps
  the ray if B (f + 1e-14) >= |n.(p_k - o)|.  The numerators are the
  ones `_intersect_rays` uses.  Its denominators come from another
  evaluation order, but for unit vectors the two differ by far less
  than 1e-14.  A valid hit needs |n.d| above the parallel threshold and
  t > 1e-9, so f > 0, and every valid hit of a skipped ray has t > B up
  to one rounding.  Its vehicle-frame y then exceeds `near_range` by
  about 1e-9 (near_range - origin_y) + 1e-6 dir_y or more.  With
  coordinates of kilometres, that is orders of magnitude above the
  rounding of the y that the near-range check computes, and the check
  drops it anyway.  `_intersect_rays` treats each row on its own, so
  the rows it is given come out bit-identical, and skipped rows stay
  NaN.
* Before that per-segment test, each ray is tested against all segments
  at once.  With s the first segment's signed normal and spread the
  largest |s_k - s| over the window, f <= s.d + spread for every
  segment, so a ray with B (s.d + spread + 2e-14) below the smallest
  |n.(p_k - o)| fails the per-segment test and is dropped first; the
  second 1e-14 covers the rounding of s.d and spread.  Where the
  window's planes share one orientation, spread is about 1e-16, and the
  per-segment test sees only the rays that it keeps.
* Locating points prunes segments with the triangle inequality
  dist(p, seg) >= dist(c, seg) - |p - c| around the points' centroid c;
  a pruned segment is strictly farther than the nearest one, so the
  argmin and its lowest-index tie rule are unchanged.  The tracker
  locates all of a frame's lines in one call: the window of the combined
  points is built by the same argument, which holds for any point set,
  and each (point, segment) distance is computed the same way, so every
  line gets the (arclength, offset) that its own call would give.

The kernels keep x, y and z as separate planes: (segments, rays) for
rays and (points, segments) for points, none with a trailing axis of 3.
They take rays and points in blocks of at most `_BLOCK_ELEMENTS` (4,096)
pairs, so a plane holds at most 32 KB of float64 whatever the frame, and
each row is computed as a whole plane computes it, so the block size
moves no bit.  A plane that grows with the frame is, once freed, either
unmapped (above glibc's 128 KB mmap threshold) or trimmed off the top of
the heap, and the next frame faults its pages back in, at a cost that
follows unrelated heap layout.  Blocks far below the mmap threshold are
reused from the heap's free lists instead: at 8,192 pairs a block the
`long-drive` autolabel child's page faults still followed the length of
PYTHONPATH, and at 4,096 they did not.  Results equal the `np.einsum`
and `np.linalg.norm` forms bit for bit, because the planes are added in
the same order (`_dot3`, `_norm3`): a three-term sum as einsum's
(x + z) + y, plus +0.0 since einsum's sum never ends at -0.0, and a norm
as (x^2 + y^2) + z^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assignment import gated_assignment, masked_mean
from .attention import _query_chunks
from .temporal import EgoPose, apply_transform, rigid_inverse

_PARALLEL_EPS = 1e-12
_WINDOW_SLACK = 1e-6  # m; widens segment windows past floating-point rounding
_DOT_SLACK = 1e-14  # bounds the rounding gap between two evaluations of a unit-vector dot product
_HEADING_SLACK = 1e-6  # covers the 1e-9 by which a pose rotation may miss orthonormality
_MIN_DEPTH = 0.1  # m; camera-frame depth a point needs to project
_LABEL_STEP = 2.0  # m between label points along local y
# (segment, ray) or (point, segment) pairs per block: 32 KB of float64 per plane (module docstring)
_BLOCK_ELEMENTS = 1 << 12


def _planes(a: np.ndarray) -> np.ndarray:
    """The x, y and z columns of (n, 3) `a` as the contiguous rows of a (3, n) array."""
    return np.ascontiguousarray(np.asarray(a).T)


def _dot3(a, b) -> np.ndarray:
    """a.b of vectors given as x, y and z planes, summed as `np.einsum`
    sums a length-3 axis: (x + z) + y, then + 0.0, because einsum's sum
    starts from +0.0 and so never ends at -0.0."""
    (ax, ay, az), (bx, by, bz) = a, b
    dot = (ax * bx + az * bz) + ay * by
    dot += 0.0
    return dot


def _norm3(a) -> np.ndarray:
    """|a| of vectors given as x, y and z planes, summed as
    `np.linalg.norm(..., axis=-1)` sums: (x^2 + y^2) + z^2."""
    x, y, z = a
    return np.sqrt((x * x + y * y) + z * z)


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus the camera-to-vehicle rigid transform.

    Camera axes: x right, y down, z forward (optical axis).  The
    extrinsic is checked as an `EgoPose` matrix is, and stored as its
    read-only copy.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    extrinsic: np.ndarray
    width: int = 960
    height: int = 720

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        object.__setattr__(self, "extrinsic", EgoPose(self.extrinsic).matrix)

    @classmethod
    def level_camera(cls, height_m: float = 1.5, fx: float = 1000.0, fy: float = 1000.0,
                     cx: float = 480.0, cy: float = 360.0, width: int = 960,
                     image_height: int = 720) -> "CameraModel":
        """Forward-looking camera at the given height above the vehicle origin."""
        # camera x -> vehicle x, camera y (down) -> -vehicle z, camera z (forward) -> vehicle y
        ext = EgoPose.from_parts([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]],
                                 [0.0, 0.0, height_m])
        return cls(fx=fx, fy=fy, cx=cx, cy=cy, extrinsic=ext.matrix, width=width, height=image_height)

    def pixel_rays(self, pixels) -> tuple[np.ndarray, np.ndarray]:
        """Rays of (n, 2) pixels in vehicle coordinates: (origin (3,), unit directions (n, 3))."""
        px = np.asarray(pixels, dtype=float).reshape(-1, 2)
        dirs_cam = np.column_stack([
            (px[:, 0] - self.cx) / self.fx,
            (px[:, 1] - self.cy) / self.fy,
            np.ones(px.shape[0]),
        ])
        dirs = dirs_cam @ self.extrinsic[:3, :3].T
        return self.extrinsic[:3, 3], dirs / np.linalg.norm(dirs, axis=1, keepdims=True)

    def project_vehicle_points(self, points_vehicle: np.ndarray):
        """Project vehicle-frame points to pixels; returns (pixels, mask of camera depth > 0.1 m)."""
        cam = apply_transform(rigid_inverse(self.extrinsic), points_vehicle)
        in_front = cam[:, 2] > _MIN_DEPTH
        depth = np.where(in_front, cam[:, 2], 1.0)
        u = self.cx + self.fx * cam[:, 0] / depth
        v = self.cy + self.fy * cam[:, 1] / depth
        return np.column_stack([u, v]), in_front


@dataclass
class Trajectory:
    """Timestamped ego poses along one sequence."""

    timestamps: np.ndarray
    poses: list[EgoPose]

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        if len(self.poses) != self.timestamps.size:
            raise ValueError("one pose per timestamp required")
        if self.timestamps.size >= 2 and np.any(np.diff(self.timestamps) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        positions = np.array([p.position for p in self.poses])
        if positions.shape[0] >= 2:
            if np.any(np.linalg.norm(np.diff(positions, axis=0), axis=1) < 1e-9):
                raise ValueError("consecutive trajectory positions must be distinct")

    def __len__(self) -> int:
        return len(self.poses)

    @property
    def positions(self) -> np.ndarray:
        return np.array([p.position for p in self.poses])


@dataclass
class SurfaceModel:
    """Piecewise-planar road surface along a trajectory.

    Segment k spans the plane through positions k and k+1 with the
    in-plane frame (direction, lateral); `arclength[k]` is the
    along-track start of the segment.  Terminal segments extend their
    validity outward so near-range rays just past the trajectory ends
    still intersect (`spans`).

    Per-frame queries read a window of segments, not all of them:
    `segments_within` keeps every segment whose validity strip can come
    within a radius of a point, because the along-track gap between the
    point and a segment's span is a lower bound on the distance to any
    point of the strip, less the segments that end behind the point
    along which every ray moves forward; `locate` keeps every segment that the triangle
    inequality cannot rule out as the nearest.  Both windows are
    supersets of what the query can return, so results equal a scan
    over all segments.
    """

    origins: np.ndarray      # (segments, 3) start positions
    directions: np.ndarray   # (segments, 3) unit along-track
    laterals: np.ndarray     # (segments, 3) unit in-plane lateral (right-positive)
    normals: np.ndarray      # (segments, 3) unit plane normals
    lengths: np.ndarray      # (segments,)
    arclength: np.ndarray    # (segments + 1,) cumulative

    @property
    def segment_count(self) -> int:
        return self.origins.shape[0]

    def total_length(self) -> float:
        return float(self.arclength[-1])

    def spans(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) along-track validity of each segment: its own span,
        open-ended before the first segment and after the last."""
        lo = np.zeros(self.segment_count)
        hi = self.lengths.copy()
        lo[0] = -np.inf
        hi[-1] = np.inf
        return lo, hi

    def station_frames(self, arclengths: np.ndarray):
        """(positions, directions, laterals), each (n, 3), of the surface points at arclengths."""
        s = np.asarray(arclengths, dtype=float)
        k = np.clip(np.searchsorted(self.arclength, s, side="right") - 1, 0, self.segment_count - 1)
        t = s - self.arclength[k]
        return self.origins[k] + t[:, None] * self.directions[k], self.directions[k], self.laterals[k]

    def segments_within(self, point: np.ndarray, radius: float, forward: np.ndarray,
                        least: float) -> np.ndarray:
        """Sorted indices of the segments whose validity strip may lie within
        `radius` of `point` and may hold a hit of a ray from `point` whose
        unit direction d has d.forward >= `least` (see the module docstring)."""
        lo, hi = self.spans()
        along = np.einsum("kc,kc->k", point - self.origins, self.directions)
        near = np.maximum(lo - along, along - hi) <= radius + _WINDOW_SLACK
        behind = (along - hi > _WINDOW_SLACK) & (least - np.linalg.norm(self.directions - forward, axis=1)
                                                  > _HEADING_SLACK)
        return np.flatnonzero(near & ~behind)

    def _closest(self, points: np.ndarray, segments: np.ndarray):
        """Per block of at most `_BLOCK_ELEMENTS` (point, segment) pairs of
        the (3, n) x, y and z rows `points`: (rows, along, dist), where
        along is the clamped along-track parameter and dist the distance
        to the clamped span, both (rows, segments) planes."""
        origins, directions = _planes(self.origins[segments]), _planes(self.directions[segments])
        lo, hi = (b[segments] for b in self.spans())
        for rows in _query_chunks(points.shape[1], segments.size, _BLOCK_ELEMENTS):
            block = points[:, rows, None]
            along = _dot3([p - o for p, o in zip(block, origins)], directions)
            np.clip(along, lo, hi, out=along)
            yield rows, along, _norm3([p - (o + along * d) for p, o, d in zip(block, origins, directions)])

    def locate(self, points: np.ndarray):
        """Project world points onto the trajectory: (arclength, lateral offset) per point.

        Uses the along-track parameter of the nearest segment, clamped
        to the segment span except at the trajectory ends, which extend
        linearly so look-ahead points keep a faithful decomposition.
        Only segments within 2 * (largest distance from the centroid)
        of the centroid's nearest distance are compared.
        """
        pts = np.asarray(points, dtype=float)
        planes = _planes(pts)
        segments = np.arange(self.segment_count)
        if pts.shape[0]:
            center = pts.mean(axis=0)[:, None]
            radius = _norm3(planes - center).max()
            to_center = next(self._closest(center, segments))[2][0]
            near = np.flatnonzero(to_center <= to_center.min() + 2.0 * radius + _WINDOW_SLACK)
            if near.size:  # empty only for non-finite points
                segments = near
        seg, along = np.empty(pts.shape[0], dtype=int), np.empty(pts.shape[0])
        for rows, block_along, dist in self._closest(planes, segments):
            nearest = np.argmin(dist, axis=1)
            seg[rows] = segments[nearest]
            along[rows] = block_along[np.arange(nearest.size), nearest]
        lam = self.arclength[seg] + along
        offset = _dot3(planes - self.origins[seg].T, self.laterals[seg].T)
        return lam, offset


def build_surface(traj: Trajectory) -> SurfaceModel:
    """One plane per consecutive pose pair, oriented by the vehicle up vector.

    The plane normal is the component of the up vector orthogonal to the
    chord between the two positions, so both positions lie exactly in
    the plane.
    """
    if len(traj) < 2:
        raise ValueError("need at least 2 poses to build a surface")
    positions = traj.positions
    chords = np.diff(positions, axis=0)
    lengths = np.linalg.norm(chords, axis=1)  # `Trajectory` rejects lengths below 1e-9
    directions = chords / lengths[:, None]
    ups = np.array([p.rotation[:, 2] for p in traj.poses[:-1]])
    normals = ups - np.einsum("kc,kc->k", ups, directions)[:, None] * directions
    norm = np.linalg.norm(normals, axis=1, keepdims=True)
    if np.any(norm < 1e-9):
        raise ValueError("vehicle up vector parallel to travel direction")
    normals = normals / norm
    laterals = np.cross(directions, normals)
    laterals /= np.linalg.norm(laterals, axis=1, keepdims=True)
    arclength = np.concatenate([[0.0], np.cumsum(lengths)])
    return SurfaceModel(origins=positions[:-1], directions=directions, laterals=laterals,
                        normals=normals, lengths=lengths, arclength=arclength)


def _world_rays(cam: CameraModel, pixels, pose: EgoPose):
    """Camera center (1, 3) and unit ray directions (n, 3) in the world
    frame, plus the directions in the vehicle frame."""
    origin_v, dirs_v = cam.pixel_rays(pixels)
    return apply_transform(pose.matrix, origin_v[None, :]), dirs_v @ pose.rotation.T, dirs_v


def _plane_numerators(surf: SurfaceModel, origin: np.ndarray, segments) -> np.ndarray:
    """n.(p_k - o) of the segment planes for the rays' shared (1, 3) origin o,
    as a (k, 1) column: the numerators of the ray parameters t = n.(p_k - o) / n.d
    where the rays cross the planes."""
    rel = _planes(surf.origins[segments])[:, :, None] - origin.T[:, None, :]
    return _dot3(rel, _planes(surf.normals[segments])[:, :, None])


def _intersect_rays(surf: SurfaceModel, origin: np.ndarray, directions: np.ndarray,
                    segments=slice(None), numer=None):
    """Vectorized nearest valid ray-plane hit per ray; NaN rows where none exists.

    Only `segments` (sorted indices; default all) are tested, and ties
    go to the lowest index.  The rays share the (1, 3) `origin`, and
    `numer` is its `_plane_numerators`, computed here if not given.
    Validity means the hit's along-track parameter falls inside the
    segment span (`SurfaceModel.spans`).  Rays are taken in blocks of at
    most `_BLOCK_ELEMENTS` (segment, ray) pairs; every quantity of a
    block is a (segments, rays) plane, and only the chosen hit of each
    ray is built.
    """
    d = np.atleast_2d(directions)
    seg_origins, seg_dirs, normals = (_planes(a[segments])[:, :, None]
                                      for a in (surf.origins, surf.directions, surf.normals))
    out = np.full(d.shape, np.nan)
    if normals.shape[1] == 0:
        return out
    if numer is None:
        numer = _plane_numerators(surf, origin, segments)
    lo, hi = (b[segments][:, None] for b in surf.spans())
    lo, hi = lo - 1e-9, hi + 1e-9
    ray_origin = origin.T[:, :, None]
    for rays in _query_chunks(d.shape[0], normals.shape[1], _BLOCK_ELEMENTS):
        ray_dirs = _planes(d[rays])[:, None, :]
        denom = _dot3(normals, ray_dirs)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_hit = numer / denom
        ok = (np.abs(denom) > _PARALLEL_EPS) & (t_hit > 1e-9)
        t_safe = np.where(np.isfinite(t_hit), t_hit, 0.0)
        along = _dot3([r + t_safe * u - s for r, u, s in zip(ray_origin, ray_dirs, seg_origins)], seg_dirs)
        ok &= (along >= lo) & (along <= hi)
        t_valid = np.where(ok, t_hit, np.inf)
        best = np.argmin(t_valid, axis=0), np.arange(t_valid.shape[1])  # (segment, ray) of each hit
        hits = origin + t_safe[best][:, None] * d[rays]
        hits[~np.isfinite(t_valid[best])] = np.nan
        out[rays] = hits
    return out


def _crossing_rays(numer: np.ndarray, normals: np.ndarray, dirs: np.ndarray, bound: np.ndarray):
    """Sorted indices of the rays that may cross a plane at 0 < t <= their
    `bound` B: the ones with B (f + slack) >= |numer| for some segment,
    where f = sign(numer) n.d (see the module docstring).  `numer` and
    `normals` are the window's (segments, 1) numerators and (segments, 3)
    normals, `dirs` the (rays, 3) unit directions."""
    if not len(numer):
        return np.zeros(0, dtype=int)
    signed, reach = np.sign(numer) * normals, np.abs(numer)
    # f <= s.d + spread for every segment, with s the first signed normal: a ray that fails
    # with that bound and the smallest |numer| fails for every segment
    spread = np.linalg.norm(signed - signed[0], axis=1).max()
    with np.errstate(invalid="ignore"):  # inf * 0: a ray without a bound, where the factor is 0
        rays = np.flatnonzero(bound * (dirs @ signed[0] + spread + 2.0 * _DOT_SLACK) >= reach.min())
        crosses = np.empty(rays.size, dtype=bool)
        for block in _query_chunks(rays.size, len(numer), _BLOCK_ELEMENTS):
            facing = signed @ dirs[rays[block]].T  # (segments, rays)
            facing += _DOT_SLACK
            facing *= bound[rays[block]]
            crosses[block] = (facing >= reach).any(axis=0)
    return rays[crosses]


def lift_detections(detections, cam: CameraModel, pose: EgoPose, surf: SurfaceModel,
                    near_range: float = 25.0):
    """Lift 2D polylines to world-frame 3D lines on the road surface.

    Each pixel is intersected with the surface; points farther ahead of
    the ego than `near_range` (vehicle-frame y) are discarded.  Returns
    (points (k, 3) in world frame, category) per detection; detections
    whose points all fall out of range come back empty.  All rays of the
    call are tested together against the segments that a kept hit can
    lie on, and only rays with a plane crossing inside their own range
    are intersected (see the module docstring).
    """
    pixels = [np.asarray(px, dtype=float).reshape(-1, 2) for px, _ in detections]
    counts = [len(px) for px in pixels]
    if not sum(counts):
        return [(np.zeros((0, 3)), category) for _, category in detections]
    origin_w, dirs_w, dirs_v = _world_rays(cam, np.concatenate(pixels), pose)
    dir_y = dirs_v[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_max = np.where(dir_y > 0, (near_range - cam.extrinsic[1, 3]) / dir_y, np.inf)
    window = surf.segments_within(origin_w[0], np.max(t_max), pose.rotation[:, 1], dir_y.min())
    numer = _plane_numerators(surf, origin_w, window)
    cast = _crossing_rays(numer, surf.normals[window], dirs_w, t_max * (1.0 + 1e-9) + 1e-6)
    hits = _intersect_rays(surf, origin_w, dirs_w[cast], window, numer)
    found = ~np.isnan(hits).any(axis=1)
    cast, hits = cast[found], hits[found]
    ahead = apply_transform(pose.inverse_matrix(), hits)[:, 1]
    kept = (ahead <= near_range) & (ahead > 0.0)
    # kept ray indices ascend, so each detection's hits are one run of rows
    bounds = np.searchsorted(cast[kept], np.cumsum(counts)[:-1])
    return [(points, category) for points, (_, category)
            in zip(np.split(hits[kept], bounds), detections)]


@dataclass
class Track:
    """One tracked line: filtered lateral offset and variance per station."""

    track_id: int
    offsets: np.ndarray      # (stations,), NaN where never observed
    variances: np.ndarray
    category_votes: dict = field(default_factory=dict)
    hits: int = 0            # frames with an associated observation

    @property
    def category(self) -> int:
        if not self.category_votes:
            return 0
        best = max(sorted(self.category_votes), key=lambda c: self.category_votes[c])
        return best

    def observed(self) -> np.ndarray:
        return ~np.isnan(self.offsets)


class LineTracker:
    """Kalman line tracker over fixed arclength stations.

    Lines are static, so the motion model is identity with a small
    process noise; each observed station runs an independent scalar
    filter on the lateral offset.  Lines that the gated assignment leaves
    unmatched spawn new tracks immediately; a track counts as mature once
    it has been associated `min_hits` times.
    """

    def __init__(self, surf: SurfaceModel, station_spacing: float = 2.0, gate: float = 1.0,
                 min_hits: int = 3, measurement_var: float = 0.01,
                 process_var: float = 1e-6, lead: float = 260.0):
        if not station_spacing > 0:  # stations are binned by dividing by the spacing
            raise ValueError(f"station_spacing must be > 0, got {station_spacing!r}")
        self.surf = surf
        self.spacing = station_spacing
        self.gate = gate
        self.min_hits = min_hits
        self.measurement_var = measurement_var
        self.process_var = process_var
        # stations cover the trajectory plus the look-ahead of the final frames
        self.stations = np.arange(0.0, surf.total_length() + lead + station_spacing, station_spacing)
        self.tracks: list[Track] = []
        self._next_id = 0

    def step(self, lines) -> list[int]:
        """Associate and filter one frame's lifted lines; returns the track id per line.

        All lines are located in one `SurfaceModel.locate` call (see the
        module docstring) and binned in one pass into a (lines, stations)
        array of mean offsets over the stations the frame touches, NaN
        where a line has no point.  That array feeds both the cost and the
        filter.  A (line, track) distance is the `masked_mean` of the
        absolute offset gaps over the stations both hold, inf where they
        share none.  Lines join tracks by `gated_assignment` over these
        distances, admissible below the gate; unmatched non-empty lines
        spawn tracks in input order, and empty lines get -1.
        """
        lines = [(np.asarray(points, dtype=float), category) for points, category in lines]
        observed = [k for k, (points, _) in enumerate(lines) if points.shape[0]]
        assignments = [-1] * len(lines)
        if not observed:
            return assignments
        sizes = [len(lines[k][0]) for k in observed]
        lam, offset = self.surf.locate(np.concatenate([lines[k][0] for k in observed]))
        idx = np.clip(np.round(lam / self.spacing).astype(int), 0, self.stations.size - 1)
        lo, hi = idx.min(), idx.max() + 1
        span, width = slice(lo, hi), hi - lo
        # a stable sort keeps each (line, station) run in input order, so runs sum as they come
        key = np.repeat(np.arange(len(observed)) * width, sizes) + (idx - lo)
        order = np.argsort(key, kind="stable")
        key, offset = key[order], offset[order]
        start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        offsets = np.full((len(observed), width), np.nan)
        offsets.flat[key[start]] = np.add.reduceat(offset, start) / np.diff(np.append(start, key.size))
        tracked = np.array([track.offsets[span] for track in self.tracks]).reshape(-1, width)
        gap = np.abs(offsets[:, None] - tracked)
        dist = masked_mean(gap, ~np.isnan(gap))
        rows, cols = gated_assignment(dist, dist < self.gate)
        joined = dict(zip(rows.tolist(), cols.tolist()))
        for row, k in enumerate(observed):
            if row in joined:
                track = self.tracks[joined[row]]
            else:
                track = Track(track_id=self._next_id, offsets=np.full(self.stations.size, np.nan),
                              variances=np.full(self.stations.size, np.inf))
                self._next_id += 1
                self.tracks.append(track)
            self._update(track, span, offsets[row], lines[k][1])
            assignments[k] = track.track_id
        return assignments

    def _update(self, track: Track, span: slice, measured: np.ndarray, category):
        """Filter `track` over `span` with one line's station means, NaN where it has none."""
        offsets, variances = track.offsets[span], track.variances[span]
        has = ~np.isnan(measured)
        fresh = has & np.isnan(offsets)
        seen = has & ~fresh
        offsets[fresh] = measured[fresh]
        variances[fresh] = self.measurement_var
        prior = variances[seen] + self.process_var
        gain = prior / (prior + self.measurement_var)
        offsets[seen] += gain * (measured[seen] - offsets[seen])
        variances[seen] = (1.0 - gain) * prior
        track.category_votes[int(category)] = track.category_votes.get(int(category), 0) + 1
        track.hits += 1

    def track_polyline(self, track: Track) -> np.ndarray:
        """World polyline of a track, reconstructed at its observed stations."""
        observed = np.flatnonzero(track.observed())
        positions, _, laterals = self.surf.station_frames(self.stations[observed])
        return positions + track.offsets[observed][:, None] * laterals

    def mature_tracks(self) -> list[Track]:
        return [t for t in self.tracks if t.hits >= self.min_hits]


def mature_polylines(tracker: LineTracker) -> list[tuple[int, int, np.ndarray]]:
    """(track id, category, world polyline) of every mature track, in track order.

    Tracking is over before labels are emitted, so one call serves every
    frame's `emit_frame_labels`.
    """
    return [(track.track_id, track.category, tracker.track_polyline(track))
            for track in tracker.mature_tracks()]


def emit_frame_labels(tracker: LineTracker, pose: EgoPose, max_range: float = 250.0,
                      polylines=None):
    """Per-frame local labels: mature track polylines in the frame's ego coordinates.

    Polylines are clipped to [0, max_range] ahead of the ego and
    resampled every 2 m of local y; a lane needs two points to be
    emitted.  Returns (lane_id, category, points (k, 4)) tuples with
    full visibility.  `polylines` is `mature_polylines(tracker)`, built
    once when many frames are emitted from one finished tracker; by
    default it is built per call.
    """
    if polylines is None:
        polylines = mature_polylines(tracker)
    inv = pose.inverse_matrix()
    lanes = []
    for track_id, category, world in polylines:
        local = apply_transform(inv, world)
        inside = (local[:, 1] >= 0.0) & (local[:, 1] <= max_range)
        local = local[inside]
        if local.shape[0] < 2:
            continue
        order = np.argsort(local[:, 1], kind="stable")
        local = local[order]
        y_lo, y_hi = local[0, 1], local[-1, 1]
        grid = np.arange(np.ceil(y_lo / _LABEL_STEP) * _LABEL_STEP, y_hi + 1e-9, _LABEL_STEP)
        if grid.size < 2:
            continue
        x = np.interp(grid, local[:, 1], local[:, 0])
        z = np.interp(grid, local[:, 1], local[:, 2])
        points = np.column_stack([x, grid, z, np.ones_like(grid)])
        lanes.append((track_id, category, points))
    return lanes
