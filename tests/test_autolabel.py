import re

import numpy as np
import pytest

from lanekit import autolabel, synth
from lanekit.assignment import gated_assignment
from lanekit.autolabel import (
    CameraModel,
    LineTracker,
    Track,
    Trajectory,
    _dot3,
    _intersect_rays,
    _norm3,
    build_surface,
    emit_frame_labels,
    lift_detections,
)
from lanekit.temporal import EgoPose, apply_transform


def straight_trajectory(n=20, step=2.0, grade=0.0, start=0.0):
    poses = []
    for k in range(n):
        y = start + k * step
        z = grade * y
        forward = np.array([0.0, 1.0, grade])
        forward /= np.linalg.norm(forward)
        right = np.cross(forward, [0, 0, 1.0])
        right /= np.linalg.norm(right)
        up = np.cross(right, forward)
        poses.append(EgoPose.from_parts(np.column_stack([right, forward, up]), [0.0, y, z]))
    return Trajectory(np.arange(n) * 0.1, poses)


def curved_trajectory(n=40, step=2.0):
    poses = []
    for k in range(n):
        y = k * step
        x = 0.001 * y**2
        dx = 0.002 * y
        forward = np.array([dx, 1.0, 0.0])
        forward /= np.linalg.norm(forward)
        right = np.cross(forward, [0, 0, 1.0])
        right /= np.linalg.norm(right)
        up = np.cross(right, forward)
        poses.append(EgoPose.from_parts(np.column_stack([right, forward, up]), [x, y, 0.0]))
    return Trajectory(np.arange(n) * 0.1, poses)


class TestTrajectory:
    def test_rejects_nonincreasing_timestamps(self):
        poses = [EgoPose.identity(), EgoPose.from_parts(np.eye(3), [0, 1, 0])]
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.0], poses)

    def test_rejects_duplicate_positions(self):
        poses = [EgoPose.identity(), EgoPose.identity()]
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.1], poses)


class TestCameraModel:
    @pytest.mark.parametrize("edit, message", [
        (lambda ext: ext[:3, :3], "pose must be 4x4, got (3, 3)"),
        (lambda ext: ext[:, :3], "pose must be 4x4, got (4, 3)"),
        (lambda ext: ext * [[1.0], [1.0], [2.0], [1.0]], "pose rotation is not orthonormal"),
        (lambda ext: np.vstack([ext[:3], [5.0, 6.0, 7.0, 8.0]]), "pose bottom row must be (0, 0, 0, 1)"),
        (lambda ext: np.vstack([ext[:3], [0.0, 0.0, 0.0, 2.0]]), "pose bottom row must be (0, 0, 0, 1)"),
    ], ids=["3x3", "4x3", "scaled-row", "bottom-row", "bottom-row-scale"])
    def test_rejects_non_rigid_extrinsic(self, edit, message):
        level = CameraModel.level_camera()
        with pytest.raises(ValueError, match=re.escape(message)):
            CameraModel(fx=1000.0, fy=1000.0, cx=480.0, cy=360.0, extrinsic=edit(level.extrinsic))

    def test_extrinsic_is_a_read_only_copy(self):
        ext = CameraModel.level_camera().extrinsic.copy()
        cam = CameraModel(fx=1000.0, fy=1000.0, cx=480.0, cy=360.0, extrinsic=ext)
        ext[0, 3] = 5.0
        assert cam.extrinsic[0, 3] == 0.0
        assert not cam.extrinsic.flags.writeable


class TestBuildSurface:
    def test_flat_trajectory_gives_flat_planes(self):
        surf = build_surface(straight_trajectory(grade=0.0))
        np.testing.assert_allclose(surf.normals, np.tile([0.0, 0.0, 1.0], (surf.segment_count, 1)),
                                   atol=1e-12)
        np.testing.assert_allclose(surf.origins[:, 2], 0.0, atol=1e-12)

    def test_constant_grade_slope(self):
        grade = 0.05
        surf = build_surface(straight_trajectory(grade=grade))
        # slope along travel: dz/dy of each plane along the direction
        slope = surf.directions[:, 2] / surf.directions[:, 1]
        np.testing.assert_allclose(slope, grade, atol=1e-12)
        # both bounding positions lie in each plane by construction
        for k in range(surf.segment_count):
            d = surf.origins[k] + surf.lengths[k] * surf.directions[k]
            residual = np.dot(d - surf.origins[k], surf.normals[k])
            assert abs(residual) < 1e-9

    def test_s_curve_positions_in_planes(self):
        n = 30
        poses = []
        for k in range(n):
            y = 2.0 * k
            x = 3.0 * np.sin(y / 20.0)
            dx = 3.0 / 20.0 * np.cos(y / 20.0)
            forward = np.array([dx, 1.0, 0.0])
            forward /= np.linalg.norm(forward)
            right = np.cross(forward, [0, 0, 1.0])
            right /= np.linalg.norm(right)
            up = np.cross(right, forward)
            poses.append(EgoPose.from_parts(np.column_stack([right, forward, up]), [x, y, 0.1 * np.sin(y / 30)]))
        surf = build_surface(Trajectory(np.arange(n) * 0.1, poses))
        ends = surf.origins + surf.lengths[:, None] * surf.directions
        residual_start = np.einsum("kc,kc->k", surf.origins - surf.origins, surf.normals)
        residual_end = np.einsum("kc,kc->k", ends - surf.origins, surf.normals)
        assert np.abs(residual_start).max() < 1e-9
        assert np.abs(residual_end).max() < 1e-9

    def test_needs_two_poses(self):
        with pytest.raises(ValueError):
            build_surface(Trajectory([0.0], [EgoPose.identity()]))


class TestRayIntersection:
    def test_similar_triangles_on_flat_world(self):
        surf = build_surface(straight_trajectory(n=30, step=2.0))
        cam = CameraModel.level_camera(height_m=1.5)
        # ray direction (0, 1, -0.1) in the vehicle frame crosses z=0 at y=15
        # pixel for that direction: y_cam/z_cam = 0.1 -> v = cy + fy*0.1
        pixel = (cam.cx, cam.cy + cam.fy * 0.1)
        origin, dirs = cam.pixel_rays([pixel])
        hit = _intersect_rays(surf, origin[None, :], dirs)
        np.testing.assert_allclose(hit, [[0.0, 15.0, 0.0]], atol=1e-9)
        (lifted, _), = lift_detections([(np.array([pixel]), 0)], cam, EgoPose.identity(), surf)
        np.testing.assert_array_equal(lifted, hit)

    def test_horizon_ray_misses(self):
        surf = build_surface(straight_trajectory(n=30))
        cam = CameraModel.level_camera(height_m=1.5)
        pixels = np.array([(cam.cx, cam.cy), (cam.cx, cam.cy - 50)])
        origin, dirs = cam.pixel_rays(pixels)
        assert np.isnan(_intersect_rays(surf, origin[None, :], dirs)).all()
        (lifted, _), = lift_detections([(pixels, 0)], cam, EgoPose.identity(), surf)
        assert lifted.shape == (0, 3)

    def test_grade_change_matches_exhaustive_segment_check(self):
        # two-part profile: flat then 5% climb
        poses = []
        ys = np.arange(0.0, 60.0, 2.0)
        for y in ys:
            z = 0.0 if y < 30 else 0.05 * (y - 30)
            poses.append(EgoPose.from_parts(np.eye(3), [0.0, y, z]))
        traj = Trajectory(np.arange(ys.size) * 0.1, poses)
        surf = build_surface(traj)
        cam = CameraModel.level_camera(height_m=1.5)
        rng = np.random.default_rng(3)
        pixels = np.column_stack([rng.uniform(100, 860, 50), rng.uniform(cam.cy + 20, 700, 50)])
        origin_v, dirs_v = cam.pixel_rays(pixels)  # the first pose is the identity
        hits = _intersect_rays(surf, origin_v[None, :], dirs_v)
        for hit, dir_v in zip(hits, dirs_v):
            # exhaustive: intersect every plane, keep valid ones, take nearest
            best = None
            for k in range(surf.segment_count):
                denom = surf.normals[k] @ dir_v
                if abs(denom) < 1e-12:
                    continue
                t = surf.normals[k] @ (surf.origins[k] - origin_v) / denom
                if t <= 0:
                    continue
                point = origin_v + t * dir_v
                along = (point - surf.origins[k]) @ surf.directions[k]
                lo = -np.inf if k == 0 else 0.0
                hi = np.inf if k == surf.segment_count - 1 else surf.lengths[k]
                if lo - 1e-9 <= along <= hi + 1e-9:
                    if best is None or t < best[0]:
                        best = (t, point)
            if best is None:
                assert np.isnan(hit).all()
            else:
                np.testing.assert_allclose(hit, best[1], atol=1e-8)


class TestLiftDetections:
    def test_round_trip_recovers_lane_points(self):
        traj = straight_trajectory(n=40, step=2.0, grade=0.05)
        surf = build_surface(traj)
        cam = CameraModel.level_camera(height_m=1.5)
        pose = traj.poses[0]
        # ground-truth points on the 5% plane, 5..24 m ahead, offset 2 m right
        y = np.linspace(5.0, 24.0, 20)
        world = np.column_stack([np.full_like(y, 2.0), y, 0.05 * y])
        local = apply_transform(pose.inverse_matrix(), world)
        pixels, in_front = cam.project_vehicle_points(local)
        assert in_front.all()
        lifted = lift_detections([(pixels, 1)], cam, pose, surf, near_range=25.0)
        points, category = lifted[0]
        assert category == 1
        np.testing.assert_allclose(points, world, atol=1e-6)

    def test_far_points_discarded(self):
        traj = straight_trajectory(n=40, step=2.0)
        surf = build_surface(traj)
        cam = CameraModel.level_camera()
        pose = traj.poses[0]
        y = np.array([10.0, 20.0, 40.0, 60.0])
        world = np.column_stack([np.zeros_like(y) + 1.0, y, np.zeros_like(y)])
        pixels, _ = cam.project_vehicle_points(world)
        lifted = lift_detections([(pixels, 0)], cam, pose, surf, near_range=25.0)
        points, _ = lifted[0]
        assert points.shape[0] == 2
        assert points[:, 1].max() <= 25.0

    def test_empty_detections(self):
        traj = straight_trajectory()
        surf = build_surface(traj)
        cam = CameraModel.level_camera()
        lifted = lift_detections([], cam, traj.poses[0], surf)
        assert lifted == []
        lifted = lift_detections([(np.zeros((0, 2)), 2)], cam, traj.poses[0], surf)
        assert lifted[0][0].shape == (0, 3)

    def test_lifted_points_lie_on_surface(self):
        traj = straight_trajectory(n=40, step=2.0, grade=0.03)
        surf = build_surface(traj)
        cam = CameraModel.level_camera()
        pose = traj.poses[2]
        rng = np.random.default_rng(7)
        pixels = np.column_stack([rng.uniform(200, 760, 30), rng.uniform(500, 700, 30)])
        (points, _), = lift_detections([(pixels, 0)], cam, pose, surf)
        lam, offset = surf.locate(points)
        for p, l, o in zip(points, lam, offset):
            k = min(int(np.searchsorted(surf.arclength, l, side="right")) - 1, surf.segment_count - 1)
            residual = (p - surf.origins[k]) @ surf.normals[k]
            assert abs(residual) < 1e-9

    def test_one_pixel_noise_lateral_error(self):
        # noise propagated through the analytic intersection at ~15 m depth
        traj = straight_trajectory(n=40, step=2.0)
        surf = build_surface(traj)
        cam = CameraModel.level_camera(height_m=1.5)
        pose = traj.poses[0]
        point = np.array([[0.5, 15.0, 0.0]])
        pixels, _ = cam.project_vehicle_points(point)
        rng = np.random.default_rng(11)
        errors = []
        for _ in range(500):
            noisy = pixels + rng.normal(0.0, 1.0, size=(1, 2))
            (lifted, _), = lift_detections([(noisy, 0)], cam, pose, surf, near_range=30.0)
            if lifted.shape[0]:
                errors.append(abs(lifted[0, 0] - 0.5))
        assert np.mean(errors) < 0.05


class TestLineTracker:
    def _observed_line(self, x_offset, y_lo=2.0, y_hi=30.0, n=29, noise=0.0, rng=None):
        y = np.linspace(y_lo, y_hi, n)
        x = np.full_like(y, x_offset)
        if noise and rng is not None:
            x = x + rng.normal(0.0, noise, size=y.shape)
        return np.column_stack([x, y, np.zeros_like(y)])

    def test_repeated_static_line_single_track(self):
        surf = build_surface(straight_trajectory(n=30, step=2.0))
        tracker = LineTracker(surf)
        line = self._observed_line(1.5)
        ids_a = tracker.step([(line, 2)])
        ids_b = tracker.step([(line, 2)])
        assert ids_a == ids_b
        assert len(tracker.tracks) == 1
        track = tracker.tracks[0]
        observed = track.observed()
        np.testing.assert_allclose(track.offsets[observed], 1.5, atol=1e-9)

    def test_gating_separates_lanes(self):
        surf = build_surface(straight_trajectory(n=30, step=2.0))
        tracker = LineTracker(surf, gate=1.0)
        ids = tracker.step([(self._observed_line(0.0), 1), (self._observed_line(3.5), 1)])
        assert len(set(ids)) == 2
        ids2 = tracker.step([(self._observed_line(0.0), 1), (self._observed_line(3.5), 1)])
        assert ids2 == ids

    @pytest.mark.parametrize("order", [(0.6, 0.1), (0.1, 0.6)])
    def test_contested_track_goes_to_the_line_without_another(self, order):
        # the 0.6 m line is nearer the 0 m track, but the 0.1 m line has no other track in its gate
        surf = build_surface(straight_trajectory(n=30, step=2.0))
        tracker = LineTracker(surf, gate=1.0)
        assert tracker.step([(self._observed_line(0.0), 1), (self._observed_line(1.5), 1)]) == [0, 1]
        ids = tracker.step([(self._observed_line(x), 1) for x in order])
        assert dict(zip(order, ids)) == {0.1: 0, 0.6: 1}
        assert len(tracker.tracks) == 2

    def test_kalman_converges_like_reference_filter(self):
        surf = build_surface(straight_trajectory(n=30, step=2.0))
        meas_var, proc_var = 0.01, 1e-6
        tracker = LineTracker(surf, measurement_var=meas_var, process_var=proc_var)
        rng = np.random.default_rng(13)
        frames = 50
        noises = rng.normal(0.0, 0.1, frames)
        for k in range(frames):
            line = self._observed_line(2.0 + noises[k], n=29)
            tracker.step([(line, 1)])
        track = tracker.tracks[0]
        observed = track.observed()
        state_error = np.abs(track.offsets[observed] - 2.0).max()

        # reference: iterate the scalar filter equations on the same stream
        x, p = 2.0 + noises[0], meas_var
        for z in 2.0 + noises[1:]:
            p = p + proc_var
            gain = p / (p + meas_var)
            x = x + gain * (z - x)
            p = (1 - gain) * p
        assert state_error == pytest.approx(abs(x - 2.0), abs=1e-9)
        assert state_error < 0.03
        assert (track.variances[observed] > 0).all()

    def test_category_majority_vote(self):
        surf = build_surface(straight_trajectory(n=30, step=2.0))
        tracker = LineTracker(surf)
        for category in (2, 2, 3):
            tracker.step([(self._observed_line(0.0), category)])
        assert tracker.tracks[0].category == 2

    def test_min_hits_gates_emission(self):
        surf = build_surface(straight_trajectory(n=30, step=2.0))
        tracker = LineTracker(surf, min_hits=3)
        tracker.step([(self._observed_line(0.0), 1)])
        assert tracker.mature_tracks() == []
        tracker.step([(self._observed_line(0.0), 1)])
        tracker.step([(self._observed_line(0.0), 1)])
        assert len(tracker.mature_tracks()) == 1


class TestEmitLabels:
    def _tracked_world(self):
        traj = straight_trajectory(n=40, step=2.0)
        surf = build_surface(traj)
        tracker = LineTracker(surf, min_hits=1)
        y = np.arange(0.0, 78.0, 2.0)
        line = np.column_stack([np.full_like(y, 1.5), y, np.zeros_like(y)])
        tracker.step([(line, 1)])
        return traj, tracker

    def test_identity_pose_keeps_world_geometry(self):
        traj, tracker = self._tracked_world()
        lanes = emit_frame_labels(tracker, EgoPose.identity(), max_range=250.0)
        assert len(lanes) == 1
        _, _, points = lanes[0]
        np.testing.assert_allclose(points[:, 0], 1.5, atol=1e-9)
        np.testing.assert_allclose(points[:, 2], 0.0, atol=1e-9)

    def test_advanced_ego_shifts_labels(self):
        traj, tracker = self._tracked_world()
        base = emit_frame_labels(tracker, EgoPose.identity())
        moved = emit_frame_labels(tracker, EgoPose.from_parts(np.eye(3), [0.0, 10.0, 0.0]))
        _, _, base_points = base[0]
        _, _, moved_points = moved[0]
        # same world geometry, expressed 10 m forward
        shared = np.intersect1d(base_points[:, 1] - 10.0, moved_points[:, 1])
        assert shared.size > 10
        for y in shared:
            b = base_points[base_points[:, 1] == y + 10.0][0]
            m = moved_points[moved_points[:, 1] == y][0]
            assert abs(b[0] - m[0]) < 1e-9

    def test_range_clipping(self):
        traj, tracker = self._tracked_world()
        lanes = emit_frame_labels(tracker, EgoPose.identity(), max_range=30.0)
        _, _, points = lanes[0]
        assert points[:, 1].max() <= 30.0
        assert points[:, 1].min() >= 0.0

    def test_two_frames_describe_same_world_geometry(self):
        traj, tracker = self._tracked_world()
        pose_a = traj.poses[0]
        pose_b = traj.poses[5]
        (_, _, lanes_a), = emit_frame_labels(tracker, pose_a, max_range=60.0)[:1]
        (_, _, lanes_b), = emit_frame_labels(tracker, pose_b, max_range=60.0)[:1]
        world_a = apply_transform(pose_a.matrix, lanes_a[:, :3])
        world_b = apply_transform(pose_b.matrix, lanes_b[:, :3])
        # compare at shared world y positions (straight trajectory: local grid
        # maps to world y plus the ego offset)
        shared, ia, ib = np.intersect1d(np.round(world_a[:, 1], 9),
                                        np.round(world_b[:, 1], 9), return_indices=True)
        assert shared.size >= 10
        assert np.abs(world_a[ia] - world_b[ib]).max() < 1e-9

    def test_polylines_built_once_equal_the_per_call_rebuild(self):
        world = synth.gen_scene(synth.SceneSpec(num_lanes=3, curvature=(0.0, 0.0, 5e-4), elevation=(0.0, 0.05),
                                                frames=40, seed=5, lane_length=200.0))
        cam = CameraModel.level_camera()
        surf = build_surface(world.trajectory)
        tracker = LineTracker(surf, min_hits=3, lead=130.0)
        for f, pose in enumerate(world.trajectory.poses):
            tracker.step(lift_detections(synth.render_2d(world, f, cam, pixel_noise_sigma=1.0), cam, pose, surf))
        polylines = autolabel.mature_polylines(tracker)
        assert [track_id for track_id, _, _ in polylines] == [t.track_id for t in tracker.mature_tracks()]
        assert len(polylines) == 3
        for pose in world.trajectory.poses:
            want = emit_frame_labels(tracker, pose, max_range=100.0)
            got = emit_frame_labels(tracker, pose, max_range=100.0, polylines=polylines)
            assert [(i, c) for i, c, _ in got] == [(i, c) for i, c, _ in want] and len(want) == 3
            assert all(p.tobytes() == q.tobytes() for (_, _, p), (_, _, q) in zip(got, want))
        assert emit_frame_labels(tracker, world.trajectory.poses[0], polylines=[]) == []


def hairpin_trajectory(leg=60.0, step=2.0, gap=6.0, drop=0.0):
    """Out along +y at x=0, a half-turn, back along -y at x=gap.

    The return leg descends by `drop` per metre of arclength after the
    turn, so with drop=0 the two legs share one plane and their hits tie.
    """
    radius = gap / 2.0
    outbound = [(0.0, y, 0.0) for y in np.arange(0.0, leg, step)]
    turn = [(radius + radius * np.cos(a), leg + radius * np.sin(a), 0.0)
            for a in np.linspace(np.pi, 0.0, 7)[:-1]]
    back = [(gap, y, 0.0) for y in np.arange(leg, -step / 2, -step)]
    points = np.array(outbound + turn + back)
    s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(points, axis=0), axis=1))])
    points[:, 2] = -drop * np.maximum(s - s[len(outbound) + len(turn)], 0.0)
    poses = []
    for k, p in enumerate(points):
        nxt = points[min(k + 1, len(points) - 1)] - points[max(k - 1, 0)]
        forward = nxt / np.linalg.norm(nxt)
        right = np.cross(forward, [0, 0, 1.0])
        right /= np.linalg.norm(right)
        up = np.cross(right, forward)
        poses.append(EgoPose.from_parts(np.column_stack([right, forward, up]), p))
    return Trajectory(np.arange(len(points)) * 0.1, poses)


def camera(kind):
    """A level camera, one pitched 10 degrees down, or one that looks backwards
    from 10 m ahead of the vehicle origin, so that every ray has dir_y < 0."""
    level = CameraModel.level_camera()
    ext = level.extrinsic.copy()
    if kind == "pitched":
        a = np.deg2rad(-10.0)
        ext[:3, :3] = np.array([[1.0, 0.0, 0.0], [0.0, np.cos(a), -np.sin(a)],
                                [0.0, np.sin(a), np.cos(a)]]) @ ext[:3, :3]
    elif kind == "rear":
        ext[:3, :3] = np.diag([-1.0, -1.0, 1.0]) @ ext[:3, :3]
        ext[1, 3] = 10.0
    return CameraModel(fx=level.fx, fy=level.fy, cx=level.cx, cy=level.cy, extrinsic=ext)


def full_scan_intersect(surf, origins, directions):
    """Oracle: every ray against every segment; nearest valid hit, lowest index on ties."""
    denom = np.einsum("kc,rc->rk", surf.normals, directions)
    rel = surf.origins[None, :, :] - origins[:, None, :]
    numer = np.einsum("rkc,kc->rk", rel, surf.normals)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_hit = numer / denom
    ok = (np.abs(denom) > 1e-12) & (t_hit > 1e-9)
    t_safe = np.where(np.isfinite(t_hit), t_hit, 0.0)
    hits = origins[:, None, :] + t_safe[:, :, None] * directions[:, None, :]
    along = np.einsum("rkc,kc->rk", hits - surf.origins[None, :, :], surf.directions)
    lo = np.zeros(surf.segment_count)
    hi = surf.lengths.copy()
    lo[0], hi[-1] = -np.inf, np.inf
    ok &= (along >= lo[None, :] - 1e-9) & (along <= hi[None, :] + 1e-9)
    t_valid = np.where(ok, t_hit, np.inf)
    best = np.argmin(t_valid, axis=1)
    rows = np.arange(origins.shape[0])
    out = hits[rows, best]
    out[~np.isfinite(t_valid[rows, best])] = np.nan
    ties = (t_valid == t_valid[rows, best][:, None]) & np.isfinite(t_valid)
    return out, ties.sum(axis=1)


def full_scan_lift(detections, cam, pose, surf, near_range):
    """Oracle: each detection on its own, its rays against every segment."""
    lifted = []
    for pixels, category in detections:
        dirs_cam = np.column_stack([(pixels[:, 0] - cam.cx) / cam.fx, (pixels[:, 1] - cam.cy) / cam.fy,
                                    np.ones(pixels.shape[0])])
        dirs_v = dirs_cam @ cam.extrinsic[:3, :3].T
        dirs_v /= np.linalg.norm(dirs_v, axis=1, keepdims=True)
        origins = np.tile(apply_transform(pose.matrix, cam.extrinsic[:3, 3][None, :]), (pixels.shape[0], 1))
        hits, _ = full_scan_intersect(surf, origins, dirs_v @ pose.rotation.T)
        good = ~np.isnan(hits).any(axis=1)
        local = apply_transform(pose.inverse_matrix(), np.where(good[:, None], hits, 0.0))
        good &= (local[:, 1] <= near_range) & (local[:, 1] > 0.0)
        lifted.append((hits[good], category))
    return lifted


def full_scan_locate(surf, points):
    """Oracle: every point against every segment; nearest clamped span, lowest index on ties."""
    rel = points[:, None, :] - surf.origins[None, :, :]
    along = np.einsum("pkc,kc->pk", rel, surf.directions)
    lo = np.zeros(surf.segment_count)
    hi = surf.lengths.copy()
    lo[0], hi[-1] = -np.inf, np.inf
    along = np.clip(along, lo[None, :], hi[None, :])
    closest = surf.origins[None, :, :] + along[:, :, None] * surf.directions[None, :, :]
    dist = np.linalg.norm(points[:, None, :] - closest, axis=2)
    seg = np.argmin(dist, axis=1)
    idx = np.arange(points.shape[0])
    lam = surf.arclength[seg] + along[idx, seg]
    offset = np.einsum("pc,pc->p", rel[idx, seg], surf.laterals[seg])
    ties = (dist == dist[idx, seg][:, None]).sum(axis=1)
    return lam, offset, ties


def pixel_grid(cam):
    u, v = np.meshgrid(np.linspace(0.0, cam.width, 33), np.linspace(cam.cy - 40.0, cam.height, 41))
    pixels = np.column_stack([u.ravel(), v.ravel()])
    return [(pixels[:500], 1), (np.zeros((0, 2)), 2), (pixels[500:], 3)]


class TestSegmentWindowExactness:
    """Windowed lift and locate equal a scan over every segment."""

    @pytest.mark.parametrize("drop", [0.0, 0.1])
    @pytest.mark.parametrize("kind", ["level", "pitched", "rear"])
    def test_lift_equals_full_scan_on_hairpin(self, drop, kind):
        traj = hairpin_trajectory(drop=drop)
        surf = build_surface(traj)
        cam = camera(kind)
        detections = pixel_grid(cam)
        origin, dirs_v = cam.pixel_rays(np.concatenate([p for p, _ in detections]))
        # a rear camera has no bound on t: its frames scan every segment
        assert (dirs_v[:, 1] > 0).all() == (kind != "rear")
        kept = tied = 0
        for frame in (0, 10, 20, 28, 33, 40, 55, len(traj) - 1):
            pose = traj.poses[frame]
            got = lift_detections(detections, cam, pose, surf, near_range=25.0)
            want = full_scan_lift(detections, cam, pose, surf, near_range=25.0)
            assert [c for _, c in got] == [c for _, c in want]
            for (g, _), (w, _) in zip(got, want):
                np.testing.assert_array_equal(g, w)
                kept += len(g)
            origins = np.tile(apply_transform(pose.matrix, origin[None, :]), (len(dirs_v), 1))
            _, ties = full_scan_intersect(surf, origins, dirs_v @ pose.rotation.T)
            tied += int((ties > 1).sum())
        assert kept > 0
        if drop == 0.0 and kind == "level":
            assert tied > 0  # shared plane: the lowest-index rule decided some hits

    def test_window_reaches_the_return_leg_only_nearby(self):
        traj = hairpin_trajectory()
        surf = build_surface(traj)
        pose = traj.poses[20]  # outbound, 40 m along, 6 m from the return leg
        window = surf.segments_within(pose.position, 30.0, pose.rotation[:, 1], -1.0)  # rays every way
        assert 0 < window.size < surf.segment_count
        returning = surf.directions[window, 1] < -0.5
        assert returning.any()
        assert (surf.directions[window, 1] > 0.5).any()

    @pytest.mark.parametrize("least", [0.5, 0.0])
    def test_heading_drops_only_segments_behind_that_every_ray_moves_along(self, least):
        traj = hairpin_trajectory()
        surf = build_surface(traj)
        pose = traj.poses[20]  # outbound: segments 0-18 end behind it, segment 19 at it
        window = surf.segments_within(pose.position, 30.0, pose.rotation[:, 1], -1.0)
        headed = surf.segments_within(pose.position, 30.0, pose.rotation[:, 1], least)
        # rays with d.forward >= 0.5 move forward along every outbound segment; the return leg
        # runs the other way, and a ray with d.forward = 0 may move backwards along any segment
        behind = window[window < 19]
        assert behind.size >= 10 and (surf.directions[window, 1] < -0.5).any()
        np.testing.assert_array_equal(headed, np.setdiff1d(window, behind) if least > 0 else window)

    def test_intersect_window_matches_full_scan(self):
        traj = hairpin_trajectory(drop=0.1)
        surf = build_surface(traj)
        cam = CameraModel.level_camera()
        pose = traj.poses[25]
        origin, dirs_v = cam.pixel_rays(np.concatenate([p for p, _ in pixel_grid(cam)]))
        origin_w = apply_transform(pose.matrix, origin[None, :])
        dirs_w = dirs_v @ pose.rotation.T
        want, _ = full_scan_intersect(surf, np.repeat(origin_w, len(dirs_w), axis=0), dirs_w)
        np.testing.assert_array_equal(_intersect_rays(surf, origin_w, dirs_w), want)
        everything = np.arange(surf.segment_count)
        np.testing.assert_array_equal(_intersect_rays(surf, origin_w, dirs_w, everything), want)
        empty = _intersect_rays(surf, origin_w, dirs_w, np.array([], dtype=int))
        assert np.isnan(empty).all()

    @pytest.mark.parametrize("drop", [0.0, 0.1])
    def test_locate_equals_full_scan_with_ties(self, drop):
        traj = hairpin_trajectory(drop=drop)
        surf = build_surface(traj)
        rng = np.random.default_rng(5)
        # midway between the legs every point ties between an outbound and a return segment
        midway = np.column_stack([np.full(20, 3.0), np.arange(1.0, 41.0, 2.0), np.zeros(20)])
        scattered = np.column_stack([rng.uniform(-5, 11, 200), rng.uniform(-10, 70, 200),
                                     rng.uniform(-3, 1, 200)])
        for points in (midway, scattered, midway[:1], scattered[:0], np.vstack([midway, scattered])):
            lam, offset = surf.locate(points)
            want_lam, want_offset, ties = full_scan_locate(surf, points)
            np.testing.assert_array_equal(lam, want_lam)
            np.testing.assert_array_equal(offset, want_offset)
            if points is midway and drop == 0.0:
                assert (ties > 1).all()

    def test_track_polyline_equals_station_loop(self):
        traj = hairpin_trajectory(drop=0.1)
        surf = build_surface(traj)
        tracker = LineTracker(surf, min_hits=1)
        cam = CameraModel.level_camera()
        for frame in range(0, len(traj), 3):
            tracker.step(lift_detections(pixel_grid(cam), cam, traj.poses[frame], surf))
        assert tracker.tracks
        for track in tracker.tracks:
            observed = np.flatnonzero(track.observed())
            want = np.empty((observed.size, 3))
            for i, station in enumerate(observed):
                s = float(tracker.stations[station])
                k = int(np.clip(np.searchsorted(surf.arclength, s, side="right") - 1, 0,
                                surf.segment_count - 1))
                position = surf.origins[k] + (s - surf.arclength[k]) * surf.directions[k]
                want[i] = position + track.offsets[station] * surf.laterals[k]
            np.testing.assert_array_equal(tracker.track_polyline(track), want)


def rows_landing_at(cam, pose, surf, targets, columns=17):
    """Pixels whose full-scan hits land at vehicle-frame y = each target,
    found per image column by bisection on the row."""
    u = np.repeat(np.linspace(0.0, cam.width, columns), len(targets))
    want = np.tile(targets, columns)

    def miss(v):
        origin, dirs_v = cam.pixel_rays(np.column_stack([u, v]))
        origins = np.repeat(apply_transform(pose.matrix, origin[None, :]), len(v), axis=0)
        hits, _ = full_scan_intersect(surf, origins, dirs_v @ pose.rotation.T)
        y = apply_transform(pose.inverse_matrix(), np.nan_to_num(hits))[:, 1]
        # a ray that clears every plane lands at infinity in its own direction
        return np.where(np.isnan(hits[:, 0]), np.copysign(np.inf, dirs_v[:, 1]), y) - want

    top, bottom = np.zeros_like(u), np.full_like(u, float(cam.height))
    miss_top = miss(top)
    for _ in range(60):
        mid = 0.5 * (top + bottom)
        miss_mid = miss(mid)
        upper = np.sign(miss_mid) == np.sign(miss_top)
        top, miss_top = np.where(upper, mid, top), np.where(upper, miss_mid, miss_top)
        bottom = np.where(upper, bottom, mid)
    return np.column_stack([u, bottom])


class TestPerRayBound:
    """Rays that cannot land within near_range are not intersected, and labels do not move."""

    @pytest.mark.parametrize("scene,kind,near_range", [
        ("flat", "level", 25.0), ("flat", "pitched", 25.0), ("hairpin", "level", 25.0),
        ("hairpin", "pitched", 25.0), ("hairpin", "rear", 4.0)])
    def test_hits_at_near_range_equal_full_scan(self, scene, kind, near_range):
        traj = straight_trajectory(n=40) if scene == "flat" else hairpin_trajectory(drop=0.1)
        surf = build_surface(traj)
        cam = camera(kind)
        targets = near_range + np.linspace(-1e-6, 1e-6, 9)
        inside = outside = 0
        for frame in (0, 10, 20, 28, 33):
            pose = traj.poses[frame]
            pixels = rows_landing_at(cam, pose, surf, targets)
            detections = [(pixels[:60], 1), (pixels[60:], 2)]
            got = lift_detections(detections, cam, pose, surf, near_range=near_range)
            want = full_scan_lift(detections, cam, pose, surf, near_range=near_range)
            for (g, _), (w, _) in zip(got, want):
                np.testing.assert_array_equal(g, w)
            origin, dirs_v = cam.pixel_rays(pixels)
            origins = np.repeat(apply_transform(pose.matrix, origin[None, :]), len(pixels), axis=0)
            hits, _ = full_scan_intersect(surf, origins, dirs_v @ pose.rotation.T)
            y = apply_transform(pose.inverse_matrix(), np.nan_to_num(hits))[:, 1]
            close = np.abs(y - near_range) <= 1.5e-6
            inside += int((close & (y <= near_range)).sum())
            outside += int((close & (y > near_range)).sum())
        # many rows land within a micrometre of the boundary, on both sides of it
        assert inside >= 50 and outside >= 50

    @pytest.fixture
    def rows(self, monkeypatch):
        """Row counts of every `_intersect_rays` call."""
        rows = []
        intersect = autolabel._intersect_rays
        monkeypatch.setattr(autolabel, "_intersect_rays",
                            lambda s, o, d, *rest: rows.append(len(d)) or intersect(s, o, d, *rest))
        return rows

    def test_rear_camera_casts_every_crossing_ray(self, rows):
        traj = hairpin_trajectory(drop=0.1)
        surf = build_surface(traj)
        cam = camera("rear")
        detections = pixel_grid(cam)
        pose = traj.poses[20]
        got = lift_detections(detections, cam, pose, surf, near_range=25.0)
        want = full_scan_lift(detections, cam, pose, surf, near_range=25.0)
        for (g, _), (w, _) in zip(got, want):
            np.testing.assert_array_equal(g, w)
        origin, dirs_v = cam.pixel_rays(np.concatenate([p for p, _ in detections]))
        origins = np.repeat(apply_transform(pose.matrix, origin[None, :]), len(dirs_v), axis=0)
        hits, _ = full_scan_intersect(surf, origins, dirs_v @ pose.rotation.T)
        # no bound on t: every ray with a hit is intersected, kept or not
        assert rows[0] >= (~np.isnan(hits[:, 0])).sum() > sum(len(w) for w, _ in want)

    def test_kept_rows_split_back_to_their_detections(self):
        """Only cast rays reach the tail; empty detections and ones with no kept
        point, first, last and between others, still get their own (0, 3) entry."""
        traj = hairpin_trajectory(drop=0.1)
        surf = build_surface(traj)
        cam = camera("level")
        grid = pixel_grid(cam)
        sky = np.column_stack([np.linspace(0.0, cam.width, 7), np.zeros(7)])  # above the horizon
        empty = np.zeros((0, 2))
        detections = [(empty, 0), grid[0], (sky, 4), grid[2], (empty, 5), (sky, 6)]
        pose = traj.poses[20]
        got = lift_detections(detections, cam, pose, surf, near_range=25.0)
        want = full_scan_lift(detections, cam, pose, surf, near_range=25.0)
        assert [c for _, c in got] == [0, 1, 4, 3, 5, 6]
        assert [len(g) > 0 for g, _ in got] == [False, True, False, True, False, False]
        for (g, _), (w, _) in zip(got, want):
            assert g.shape[1:] == (3,)
            np.testing.assert_array_equal(g, w)

    def test_intersected_rays_yield_kept_points(self, rows):
        world = synth.gen_scene(synth.SceneSpec(num_lanes=3, frames=20, seed=7, lane_length=300.0,
                                                curvature=(0.0, 0.0, 5e-4), elevation=(0.0, 0.05)))
        cam = CameraModel.level_camera()
        surf = build_surface(world.trajectory)
        rays = kept = 0
        for frame in range(0, 20, 2):
            detections = synth.render_2d(world, frame, cam, pixel_noise_sigma=1.0)
            lifted = lift_detections(detections, cam, world.trajectory.poses[frame], surf)
            rays += sum(len(p) for p, _ in detections)
            kept += sum(len(p) for p, _ in lifted)
        assert kept > 0
        assert kept >= 0.95 * sum(rows)  # every ray used to be intersected: yield about 0.16
        assert sum(rows) < 0.5 * rays


def per_line_step(tracker, lines):
    """Reference for `LineTracker.step`: each line located and binned on its own, its distance
    to each track taken pair by pair, then the gated assignment; unmatched lines spawn in order,
    and each joined track runs the scalar filter at the line's stations."""
    measured = {}
    for k, (points, _) in enumerate(lines):
        if len(points):
            lam, offset = tracker.surf.locate(points)
            idx = np.clip(np.round(lam / tracker.spacing).astype(int), 0, tracker.stations.size - 1)
            stations = np.unique(idx)
            runs = [offset[idx == s] for s in stations]  # each station's points in input order
            # summed as `np.add.reduceat` sums a run: its first point plus numpy's sum of the rest
            measured[k] = stations, np.array([(run[0] + np.add.reduce(run[1:])) / run.size for run in runs])
    dist = np.full((len(measured), len(tracker.tracks)), np.inf)
    for row, (stations, offsets) in enumerate(measured.values()):
        for col, track in enumerate(tracker.tracks):
            common = ~np.isnan(track.offsets[stations])
            if common.any():
                dist[row, col] = np.abs(offsets[common] - track.offsets[stations[common]]).mean()
    joined = dict(zip(*(a.tolist() for a in gated_assignment(dist, dist < tracker.gate))))
    assignments = [-1] * len(lines)
    for row, (k, (stations, offsets)) in enumerate(measured.items()):
        if row in joined:
            track = tracker.tracks[joined[row]]
        else:
            track = Track(track_id=tracker._next_id, offsets=np.full(tracker.stations.size, np.nan),
                          variances=np.full(tracker.stations.size, np.inf))
            tracker._next_id += 1
            tracker.tracks.append(track)
        fresh = np.isnan(track.offsets[stations])
        track.offsets[stations[fresh]] = offsets[fresh]
        track.variances[stations[fresh]] = tracker.measurement_var
        seen = stations[~fresh]
        prior = track.variances[seen] + tracker.process_var
        gain = prior / (prior + tracker.measurement_var)
        track.offsets[seen] += gain * (offsets[~fresh] - track.offsets[seen])
        track.variances[seen] = (1.0 - gain) * prior
        track.category_votes[lines[k][1]] = track.category_votes.get(lines[k][1], 0) + 1
        track.hits += 1
        assignments[k] = track.track_id
    return assignments


class TestOneLocatePerFrame:
    @pytest.mark.parametrize("drop", [0.0, 0.1])
    def test_step_equals_per_line_reference_on_hairpin(self, drop, monkeypatch):
        surf = build_surface(hairpin_trajectory(drop=drop))
        batched, reference = LineTracker(surf), LineTracker(surf)
        calls = []
        locate = surf.locate
        monkeypatch.setattr(batched.surf, "locate", lambda p: calls.append(len(p)) or locate(p))
        rng = np.random.default_rng(17)
        y = np.arange(1.0, 41.0, 2.0)
        for frame in range(12):
            start = 2.0 * frame
            lines = [
                # contested from frame 6 on: within the gate of its own track (1.7 m) and of the
                # 0.2 m line's, which is nearer, so a first-come step would take that one
                (np.column_stack([np.full(20, 1.7 if frame < 6 else 0.9), y + start, np.zeros(20)]), 4),
                (np.column_stack([rng.normal(0.2, 0.05, 20), y + start, np.zeros(20)]), 1),
                (np.zeros((0, 3)), 2),
                # midway between the legs: every point ties between an outbound and a return segment
                (np.column_stack([np.full(20, 3.0), y + start, np.zeros(20)]), 2),
                (np.column_stack([rng.normal(5.8, 0.05, 20), y + start, -drop * rng.uniform(0, 1, 20)]),
                 3 if frame % 3 else 1),
            ]
            calls.clear()
            got = batched.step(lines)
            assert calls == [80]
            assert got == per_line_step(reference, lines)
        assert len(batched.tracks) == len(reference.tracks) == 4
        for a, b in zip(batched.tracks, reference.tracks):
            assert a.track_id == b.track_id and a.hits == b.hits
            assert a.category_votes == b.category_votes
            np.testing.assert_array_equal(a.offsets, b.offsets)
            np.testing.assert_array_equal(a.variances, b.variances)

    def test_step_sums_runs_of_shuffled_points_as_the_reference(self):
        """Several points of one line fall in each station, in shuffled order, and the lines
        share stations: each (line, station) run is summed as the per-line reference sums it."""
        surf = build_surface(hairpin_trajectory())
        batched, reference = LineTracker(surf), LineTracker(surf)
        rng = np.random.default_rng(23)
        for frame in range(10):
            lines = []
            for x, first, count in [(0.2, 1.0, 60), (-1.6, 9.0, 35), (1.9, 5.0, 12), (5.8, 3.0, 40)]:
                y = rng.permutation(first + 2.0 * frame + 0.4 * np.arange(count))  # 5 points a station
                lines.append((np.column_stack([rng.normal(x, 0.05, count), y, np.zeros(count)]),
                              1 + frame % 2))
            assert batched.step(lines) == per_line_step(reference, lines)
        assert len(batched.tracks) == len(reference.tracks) == 4
        for a, b in zip(batched.tracks, reference.tracks):
            assert a.track_id == b.track_id and a.hits == b.hits == 10
            assert a.category_votes == b.category_votes
            np.testing.assert_array_equal(a.offsets, b.offsets)
            np.testing.assert_array_equal(a.variances, b.variances)


def mixed_operands(rng, shape):
    """Random normal values; a quarter of them rescaled to magnitudes from
    1e-300 to 1e300, and some replaced by +0.0 or -0.0."""
    values = rng.normal(size=shape)
    extreme = rng.random(shape) < 0.25
    values[extreme] = np.copysign(10.0 ** rng.uniform(-300.0, 300.0, int(extreme.sum())), values[extreme])
    zeros = rng.random(shape) < 0.15
    values[zeros] = rng.choice([-0.0, 0.0], int(zeros.sum()))
    return values


def assert_same_bits(got, want):
    """Equal bit patterns; NaNs (inf - inf) at the same places."""
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


class TestSummationOrder:
    """The per-coordinate kernels add a dot product's three terms as `np.einsum`
    does and a norm's three squares as `np.linalg.norm` does, so the full-scan
    oracles hold bit for bit.  A numpy that changes either order fails here."""

    # the einsum forms of the oracles, with each operand as x, y and z planes
    # broadcast to the einsum's output shape
    FORMS = {
        "rkc,kc->rk": ((40, 30, 3), (30, 3), lambda a: a.transpose(2, 0, 1), lambda b: b.T),
        "kc,rc->rk": ((30, 3), (40, 3), lambda a: a.T[:, None, :], lambda b: b.T[:, :, None]),
        "pc,pc->p": ((500, 3), (500, 3), lambda a: a.T, lambda b: b.T),
    }

    @pytest.mark.parametrize("subscripts", sorted(FORMS))
    def test_dot3_equals_einsum_bit_for_bit(self, subscripts):
        shape_a, shape_b, planes_a, planes_b = self.FORMS[subscripts]
        rng = np.random.default_rng(11)
        a, b = mixed_operands(rng, shape_a), mixed_operands(rng, shape_b)
        with np.errstate(all="ignore"):
            want = np.einsum(subscripts, a, b)
            got = _dot3(planes_a(a), planes_b(b))
            (ax, ay, az), (bx, by, bz) = planes_a(a), planes_b(b)
            in_order = (ax * bx + ay * by) + az * bz
            unsigned = (ax * bx + az * bz) + ay * by
        assert_same_bits(got, want)
        assert np.isinf(want).any()
        assert np.signbit(unsigned[want == 0.0]).any()  # sums of -0.0, which einsum ends at +0.0
        assert not np.array_equal(in_order, want, equal_nan=True)  # the order is what is tested

    @pytest.mark.parametrize("shape", [(500, 3), (40, 30, 3)])
    def test_norm3_equals_linalg_norm_bit_for_bit(self, shape):
        v = mixed_operands(np.random.default_rng(12), shape)
        with np.errstate(all="ignore"):
            want = np.linalg.norm(v, axis=-1)
            got = _norm3(np.moveaxis(v, -1, 0))
            x, y, z = np.moveaxis(v, -1, 0)
            in_order = np.sqrt((x * x + z * z) + y * y)
        assert_same_bits(got, want)
        assert np.isinf(want).any() and (want == 0.0).any()
        assert not np.array_equal(in_order, want)


def leaves(x):
    """The arrays and numbers of a nested structure of lists and tuples, in order."""
    if isinstance(x, (list, tuple)):
        for item in x:
            yield from leaves(item)
    else:
        yield np.asarray(x)


class TestFixedSizeBlocks:
    """Lifting, locating and tracking take rays and points in blocks of at most
    `_BLOCK_ELEMENTS` (segment, ray) or (point, segment) pairs, so their
    temporaries stay small whatever the frame; the block size moves no bit."""

    @staticmethod
    def run(surf, cam, frames):
        """Per frame, the lifted lines, the (arclength, offset) of their points
        and the track ids; then each track's offsets and variances."""
        tracker = LineTracker(surf, min_hits=1)
        out = []
        for pose, detections in frames:
            lines = lift_detections(detections, cam, pose, surf)
            points = np.concatenate([points for points, _ in lines])
            out.append((lines, surf.locate(points), tracker.step(lines)))
        return out, [(track.offsets, track.variances) for track in tracker.tracks]

    @pytest.mark.parametrize("scene", ["criterion-09", "rear-hairpin"])
    def test_a_few_elements_a_block_move_no_bit(self, scene, monkeypatch):
        if scene == "criterion-09":  # acceptance criterion 09's scene, every 20th frame
            world = synth.gen_scene(synth.SceneSpec(num_lanes=4, curvature=(0.0, 0.0, 5e-4),
                                                    elevation=(0.0, 0.05), frames=200, seed=109,
                                                    lane_length=470.0))
            traj, cam = world.trajectory, CameraModel.level_camera()
            frames = [(traj.poses[f], synth.render_2d(world, f, cam, pixel_noise_sigma=1.0, max_depth=40.0))
                      for f in range(0, 200, 20)]
        else:  # every ray has dir_y < 0, so every frame's window holds every segment
            traj, cam = hairpin_trajectory(drop=0.1), camera("rear")
            frames = [(traj.poses[f], pixel_grid(cam)) for f in range(0, len(traj), 8)]
        surf = build_surface(traj)
        want = list(leaves(self.run(surf, cam, frames)))
        monkeypatch.setattr(autolabel, "_BLOCK_ELEMENTS", 5)
        got = list(leaves(self.run(surf, cam, frames)))
        assert len(got) == len(want) and sum(a.size for a in want) > 1000
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype
            if w.dtype == float:
                assert_same_bits(g, w)
            else:
                np.testing.assert_array_equal(g, w)

    def test_peak_allocation_does_not_grow_with_segments_times_rays(self):
        import tracemalloc

        traj = straight_trajectory(n=320, step=1.0)
        surf = build_surface(traj)
        cam = camera("rear")  # no ray has a bound on t: the window is every segment
        detections = pixel_grid(cam)
        rays = sum(len(pixels) for pixels, _ in detections)
        pose = traj.poses[160]
        lift_detections(detections, cam, pose, surf)  # warm caches outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lifted = lift_detections(detections, cam, pose, surf)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert surf.segment_count >= 300 and sum(len(points) for points, _ in lifted) > 0
        plane = 8 * autolabel._BLOCK_ELEMENTS  # bytes of one block's float64 plane
        row = 3 * 8 * (rays + surf.segment_count)  # bytes of one (n, 3) array per ray and per segment
        # a (segments, rays) plane of float64 alone would take 3.4 MB
        assert peak < 12 * plane + 8 * row, (peak, plane, row)
