"""Deterministic synthetic road scenes for end-to-end testing.

A scene is a polynomial centerline x(y) with a polynomial elevation
z(y); lanes are laid out at constant orthogonal offsets from the
centerline and the ego trajectory follows the centerline at constant
speed.  Rendering projects ground-truth lanes through a pinhole camera
(optionally with pixel noise), the exact inverse of the auto-labeling
lift.  `simulate_occlusion` flags lane points hidden behind per-frame
obstacles by ray-box tests; no CLI scene calls it yet, so every
ground-truth point `gen_scene` writes is visible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autolabel import CameraModel, Trajectory
from .temporal import EgoPose, apply_transform

SAMPLE_STEP = 0.5  # m between ground-truth lane samples along the centerline parameter y
# bound on a scene polynomial's value and slope and on a lane's offset: sums of a few squares stay finite
_POLY_LIMIT = 1e150


@dataclass(frozen=True)
class SceneSpec:
    """Scene layout, vertical profile, and sequence parameters; seed fixes all randomness."""

    num_lanes: int = 4
    lane_spacing: float = 3.5
    curvature: tuple[float, ...] = (0.0,)      # centerline x(y) polynomial, low order first
    elevation: tuple[float, ...] = (0.0,)      # elevation z(y) polynomial, low order first
    frames: int = 100
    speed: float = 10.0
    frame_interval: float = 0.1
    seed: int = 0
    lane_length: float = 400.0

    def __post_init__(self):
        if self.lane_spacing <= 0:
            raise ValueError("lane spacing must be positive")
        # compared as an int, which may lie beyond the float range, against a float
        if not self.num_lanes - 1 < 2.0 * _POLY_LIMIT / self.lane_spacing:
            raise ValueError(f"{self.num_lanes} lanes {self.lane_spacing:g} m apart put the outer lanes "
                             f"{_POLY_LIMIT:g} m or more from the centerline")
        if self.frames < 1:
            raise ValueError("need at least one frame")
        if self.speed <= 0 or self.frame_interval <= 0:
            raise ValueError("speed and frame interval must be positive")
        y_max = self.lane_length + SAMPLE_STEP  # beyond the last centerline sample
        for name, coeffs in (("curvature", self.curvature), ("elevation", self.elevation)):
            reach = _reach(coeffs, y_max)
            if not reach < _POLY_LIMIT:
                raise ValueError(f"{name} polynomial {tuple(coeffs)} may reach {reach:.3g} in value or "
                                 f"slope for y in [0, {y_max:g}] m; it must stay below {_POLY_LIMIT:g}")


@dataclass(frozen=True)
class Obstacle:
    """Axis-aligned box in the ego frame of one frame."""

    frame_index: int
    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if np.any(hi <= lo):
            raise ValueError("obstacle box must have positive extents")


@dataclass
class World:
    """Ground truth: dense world-frame lane polylines, ego trajectory, scene spec."""

    lanes: list  # (lane_id, category, points (n, 4)) in world frame
    trajectory: Trajectory
    spec: SceneSpec

    def lanes_in_frame(self, frame_index: int, y_min: float = 0.0, y_max: float = 250.0):
        """Lanes expressed in one frame's ego coordinates, clipped longitudinally."""
        pose = self.trajectory.poses[frame_index]
        inv = pose.inverse_matrix()
        out = []
        for lane_id, category, points in self.lanes:
            local = points.copy()
            local[:, :3] = apply_transform(inv, points[:, :3])
            keep = (local[:, 1] >= y_min) & (local[:, 1] <= y_max)
            if np.count_nonzero(keep) >= 2:
                out.append((lane_id, category, local[keep]))
        return out


def _reach(coeffs, y_max: float) -> float:
    """Bound on |p(y)| and |p'(y)| over [0, y_max] of the polynomial with low-order-first
    coefficients: the larger of sum |c_k| y_max^k and sum k |c_k| y_max^(k-1), and inf
    where a power of y_max overflows, as `_polyval`'s would."""
    try:
        powers = [float(y_max) ** k for k in range(len(coeffs))]  # a Python float raises on overflow
    except OverflowError:
        return np.inf
    value = sum(abs(c) * p for c, p in zip(coeffs, powers))
    slope = sum(k * abs(c) * p for k, (c, p) in enumerate(zip(coeffs[1:], powers), start=1))
    return max(value, slope)


def _polyval(coeffs, y):
    """Polynomial with low-order-first coefficients."""
    out = np.zeros_like(np.asarray(y, dtype=float))
    for power, c in enumerate(coeffs):
        out += c * np.asarray(y, dtype=float) ** power
    return out


def _polyder(coeffs):
    return tuple(c * p for p, c in enumerate(coeffs))[1:] or (0.0,)


def _centerline(spec: SceneSpec, y: np.ndarray) -> np.ndarray:
    return np.column_stack([_polyval(spec.curvature, y), y, _polyval(spec.elevation, y)])


def _road_frame(spec: SceneSpec, y: np.ndarray):
    """(tangent, surface normal, in-plane lateral) unit vectors of the road
    surface z = elevation(world y) along the centerline parameter y."""
    dx = _polyval(_polyder(spec.curvature), y)
    dz = _polyval(_polyder(spec.elevation), y)
    tangent = np.column_stack([dx, np.ones_like(y), dz])
    tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
    normal = np.column_stack([np.zeros_like(y), -dz, np.ones_like(y)])
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    # tangent and normal are orthogonal by construction, so the cross
    # product is already unit length
    lateral = np.cross(tangent, normal)
    return tangent, normal, lateral


def gen_scene(spec: SceneSpec) -> World:
    """Build ground-truth lanes and the ego trajectory for a scene spec.

    Lane k is offset (k - (num_lanes - 1) / 2) * spacing from the
    centerline along the road surface's in-plane lateral direction, so
    laterally adjacent lanes keep a constant orthogonal gap and every
    lane point lies on the surface.  The trajectory advances
    speed * frame_interval of arclength per frame, with the vehicle up
    vector equal to the surface normal; a drive past the centerline's end
    is rejected.
    """
    y = np.arange(0.0, spec.lane_length + SAMPLE_STEP, SAMPLE_STEP)
    center = _centerline(spec, y)
    _, _, lateral = _road_frame(spec, y)

    lanes = []
    for k in range(spec.num_lanes):
        offset = (k - (spec.num_lanes - 1) / 2.0) * spec.lane_spacing
        pts = center + offset * lateral
        lanes.append((k, 1 + k % 3, np.column_stack([pts, np.ones_like(y)])))

    # arclength table of the centerline, inverted for constant-speed stepping
    seg = np.linalg.norm(np.diff(center, axis=0), axis=1)
    arclength = np.concatenate([[0.0], np.cumsum(seg)])

    poses, stamps = [], []
    step = spec.speed * spec.frame_interval
    if (spec.frames - 1) * step > arclength[-1]:
        raise ValueError(f"{spec.frames} frames at {step:g} m a frame drive "
                         f"{(spec.frames - 1) * step:g} m, past the end of the lane: "
                         f"lane length {spec.lane_length:g} m gives {arclength[-1]:g} m of centerline")
    for f in range(spec.frames):
        lam = f * step
        yf = np.array([float(np.interp(lam, arclength, y))])
        pos = _centerline(spec, yf)[0]
        tangent, normal, lateral_f = _road_frame(spec, yf)
        rot = np.column_stack([lateral_f[0], tangent[0], normal[0]])
        poses.append(EgoPose.from_parts(rot, pos))
        stamps.append(f * spec.frame_interval)
    return World(lanes=lanes, trajectory=Trajectory(np.array(stamps), poses), spec=spec)


def render_2d(world: World, frame_index: int, cam: CameraModel,
              pixel_noise_sigma: float = 0.0, max_depth: float = 120.0):
    """Project ground-truth lanes into one frame's image.

    Points behind the camera or outside the image are dropped; optional
    isotropic Gaussian pixel noise, drawn from a generator seeded by
    (scene seed, frame index), is added before the bounds check, so a
    frame renders the same however many frames are rendered before it.
    Polylines come back ordered bottom-to-top (near to far).
    """
    rng = np.random.default_rng([world.spec.seed, frame_index])
    pose = world.trajectory.poses[frame_index]
    inv = pose.inverse_matrix()
    detections = []
    for _, category, points in world.lanes:
        local = apply_transform(inv, points[:, :3])
        near = (local[:, 1] > 0.0) & (local[:, 1] <= max_depth)
        pixels, in_front = cam.project_vehicle_points(local[near])
        pixels = pixels[in_front]
        depth_order = np.argsort(-pixels[:, 1], kind="stable")
        pixels = pixels[depth_order]
        if pixel_noise_sigma > 0:
            pixels = pixels + rng.normal(0.0, pixel_noise_sigma, size=pixels.shape)
        inside = (
            (pixels[:, 0] >= 0) & (pixels[:, 0] <= cam.width)
            & (pixels[:, 1] >= 0) & (pixels[:, 1] <= cam.height)
        )
        if np.count_nonzero(inside) >= 2:
            detections.append((pixels[inside], category))
    return detections


def _segment_hits_box(starts: np.ndarray, ends: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Slab test: does the segment start->end pass through the box, per row."""
    d = ends - starts
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo[None, :] - starts) / d
        t2 = (hi[None, :] - starts) / d
    t_lo = np.where(np.isnan(t1), -np.inf, np.minimum(t1, t2))
    t_hi = np.where(np.isnan(t2), np.inf, np.maximum(t1, t2))
    # axes with zero direction: inside the slab or never
    parallel = np.abs(d) < 1e-15
    inside = (starts >= lo[None, :]) & (starts <= hi[None, :])
    t_lo = np.where(parallel, np.where(inside, -np.inf, np.inf), t_lo)
    t_hi = np.where(parallel, np.where(inside, np.inf, -np.inf), t_hi)
    enter = t_lo.max(axis=1)
    leave = t_hi.min(axis=1)
    return (enter <= leave) & (leave >= 0.0) & (enter <= 1.0)


def simulate_occlusion(world: World, frame_index: int, obstacles, cam: CameraModel,
                       y_min: float = 0.0, y_max: float = 250.0):
    """Visibility flags for one frame: a lane point is occluded when the
    camera-to-point segment crosses any obstacle box of that frame.

    Returns the frame's lanes with the visibility column updated.
    """
    lanes = world.lanes_in_frame(frame_index, y_min=y_min, y_max=y_max)
    boxes = [(np.asarray(o.lo, float), np.asarray(o.hi, float))
             for o in obstacles if o.frame_index == frame_index]
    cam_origin = cam.extrinsic[:3, 3]
    out = []
    for lane_id, category, points in lanes:
        visible = np.ones(points.shape[0], dtype=bool)
        starts = np.tile(cam_origin, (points.shape[0], 1))
        for lo, hi in boxes:
            visible &= ~_segment_hits_box(starts, points[:, :3], lo, hi)
        updated = points.copy()
        updated[:, 3] = np.minimum(updated[:, 3], visible.astype(float))
        out.append((lane_id, category, updated))
    return out
