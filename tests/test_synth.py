import numpy as np
import pytest

from lanekit.autolabel import CameraModel, build_surface, lift_detections
from lanekit.synth import Obstacle, SceneSpec, gen_scene, render_2d, simulate_occlusion
from lanekit.temporal import apply_transform


class TestGenScene:
    def test_straight_flat_scene(self):
        world = gen_scene(SceneSpec(num_lanes=2, curvature=(0.0,), elevation=(0.0,), frames=5, seed=1))
        for _, _, points in world.lanes:
            np.testing.assert_allclose(points[:, 2], 0.0, atol=1e-12)
            assert np.allclose(points[:, 0], points[0, 0])

    def test_constant_orthogonal_gap(self):
        spec = SceneSpec(num_lanes=2, lane_spacing=3.5, curvature=(0.0, 0.0, 5e-4),
                         frames=5, seed=2)
        world = gen_scene(spec)
        (_, _, a), (_, _, b) = world.lanes
        gaps = np.linalg.norm(a[:, :3] - b[:, :3], axis=1)
        np.testing.assert_allclose(gaps, 3.5, atol=1e-12)

    def test_crest_max_grade(self):
        # z = 0.05*y - 2.5e-4*y^2 peaks mid-range: max slope 0.05 at y=0
        spec = SceneSpec(num_lanes=1, curvature=(0.0,), elevation=(0.0, 0.05, -2.5e-4),
                         frames=5, lane_length=100.0, seed=3)
        world = gen_scene(spec)
        _, _, points = world.lanes[0]
        slopes = np.diff(points[:, 2]) / np.diff(points[:, 1])
        assert np.abs(slopes).max() == pytest.approx(0.05, abs=1e-3)

    def test_trajectory_follows_centerline_at_speed(self):
        spec = SceneSpec(num_lanes=2, frames=10, speed=10.0, frame_interval=0.1, seed=4)
        world = gen_scene(spec)
        positions = world.trajectory.positions
        steps = np.linalg.norm(np.diff(positions, axis=0), axis=1)
        np.testing.assert_allclose(steps, 1.0, atol=1e-6)

    def test_same_seed_identical_scene(self):
        spec = SceneSpec(num_lanes=3, curvature=(0.0, 0.0, 1e-4), frames=8, seed=9)
        a, b = gen_scene(spec), gen_scene(spec)
        for (ia, ca, pa), (ib, cb, pb) in zip(a.lanes, b.lanes):
            assert (ia, ca) == (ib, cb)
            assert np.array_equal(pa, pb)
        for pa, pb in zip(a.trajectory.poses, b.trajectory.poses):
            assert np.array_equal(pa.matrix, pb.matrix)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(lane_spacing=-1.0)
        with pytest.raises(ValueError):
            SceneSpec(frames=0)

    @pytest.mark.parametrize("field, coeffs", [
        ("curvature", (0.0, 0.0, 1e300)),
        ("elevation", (0.0, 1e300)),
        ("elevation", (0.0, 4e147)),  # the value reaches 1.6e150 at the lane's end
        ("curvature", (0.0,) * 150 + (1e-300,)),  # a power of the lane length overflows
        ("curvature", (0.0, 0.0, 5e307)),  # the slope's coefficient 2 c overflows
    ])
    def test_polynomial_that_can_overflow_rejected(self, field, coeffs):
        with pytest.raises(ValueError, match=f"{field} polynomial"):
            SceneSpec(**{field: coeffs})

    def test_polynomial_below_the_bound_runs_without_overflow(self):
        world = gen_scene(SceneSpec(num_lanes=2, frames=3, curvature=(0.0, 2e147), elevation=(0.0, 2e147)))
        assert all(np.isfinite(points).all() for _, _, points in world.lanes)

    @pytest.mark.parametrize("num_lanes, lane_spacing", [
        (5, 1e308),  # (5 - 1) / 2 * 1e308 overflows
        (3, 1e150),  # the outer lanes lie at the bound
        (10 ** 400, 1.0),  # a lane count beyond the float range
    ])
    def test_lane_offset_that_can_overflow_rejected(self, num_lanes, lane_spacing):
        with pytest.raises(ValueError, match="put the outer lanes 1e\\+150 m or more from the centerline"):
            SceneSpec(num_lanes=num_lanes, lane_spacing=lane_spacing)

    def test_lane_offset_below_the_bound_runs_without_overflow(self):
        world = gen_scene(SceneSpec(num_lanes=3, lane_spacing=9e149, frames=3))
        assert all(np.isfinite(points).all() for _, _, points in world.lanes)


class TestRender:
    def test_point_on_optical_axis(self):
        cam = CameraModel.level_camera(height_m=1.5)
        # vehicle point straight ahead at camera height projects to the center
        pixels, in_front = cam.project_vehicle_points(np.array([[0.0, 20.0, 1.5]]))
        assert in_front[0]
        np.testing.assert_allclose(pixels[0], [cam.cx, cam.cy], atol=1e-9)

    def test_known_ground_point_pixel(self):
        cam = CameraModel.level_camera(height_m=1.5, fx=1000.0, fy=1000.0, cx=480.0, cy=360.0)
        pixels, in_front = cam.project_vehicle_points(np.array([[0.0, 15.0, 0.0]]))
        assert in_front[0]
        np.testing.assert_allclose(pixels[0], [480.0, 460.0], atol=1e-9)

    def test_behind_camera_dropped(self):
        spec = SceneSpec(num_lanes=1, frames=3, seed=5)
        world = gen_scene(spec)
        cam = CameraModel.level_camera()
        detections = render_2d(world, 1, cam)
        for pixels, _ in detections:
            assert (pixels[:, 0] >= 0).all() and (pixels[:, 0] <= cam.width).all()
            assert (pixels[:, 1] >= 0).all() and (pixels[:, 1] <= cam.height).all()

    def test_polylines_ordered_bottom_to_top(self):
        spec = SceneSpec(num_lanes=2, frames=3, seed=6)
        world = gen_scene(spec)
        cam = CameraModel.level_camera()
        for pixels, _ in render_2d(world, 0, cam):
            assert (np.diff(pixels[:, 1]) <= 1e-9).all()

    def test_render_lift_round_trip(self):
        spec = SceneSpec(num_lanes=2, curvature=(0.0, 0.0, 2e-4), elevation=(0.0, 0.05),
                         frames=30, seed=7)
        world = gen_scene(spec)
        cam = CameraModel.level_camera()
        surf = build_surface(world.trajectory)
        frame = 3
        pose = world.trajectory.poses[frame]
        detections = render_2d(world, frame, cam)
        lifted = lift_detections(detections, cam, pose, surf, near_range=25.0)
        inv = pose.inverse_matrix()
        for (points, _), (_, _, gt) in zip(lifted, world.lanes):
            assert points.shape[0] > 0
            local_gt = apply_transform(inv, gt[:, :3])
            for p in apply_transform(inv, points):
                nearest = np.abs(local_gt[:, 1] - p[1]).argmin()
                assert np.linalg.norm(local_gt[nearest] - p) < 1e-6

    def test_render_deterministic_with_noise(self):
        spec = SceneSpec(num_lanes=2, frames=3, seed=8)
        world = gen_scene(spec)
        cam = CameraModel.level_camera()
        a = render_2d(world, 1, cam, pixel_noise_sigma=1.0)
        b = render_2d(world, 1, cam, pixel_noise_sigma=1.0)
        for (pa, ca), (pb, cb) in zip(a, b):
            assert ca == cb
            assert np.array_equal(pa, pb)


class TestOcclusion:
    def test_no_obstacles_all_visible(self):
        world = gen_scene(SceneSpec(num_lanes=2, frames=3, seed=10))
        cam = CameraModel.level_camera()
        lanes = simulate_occlusion(world, 0, [], cam)
        for _, _, points in lanes:
            assert (points[:, 3] == 1.0).all()

    def test_box_behind_points_no_occlusion(self):
        world = gen_scene(SceneSpec(num_lanes=1, frames=3, seed=11))
        cam = CameraModel.level_camera()
        box = Obstacle(frame_index=0, lo=(-1.0, 260.0, 0.0), hi=(1.0, 280.0, 2.0))
        lanes = simulate_occlusion(world, 0, [box], cam, y_max=250.0)
        for _, _, points in lanes:
            assert (points[:, 3] == 1.0).all()

    def test_box_on_lane_matches_slab_oracle(self):
        world = gen_scene(SceneSpec(num_lanes=1, frames=3, seed=12))
        cam = CameraModel.level_camera()
        box = Obstacle(frame_index=0, lo=(-2.0, 20.0, -0.5), hi=(2.0, 30.0, 2.0))
        lanes = simulate_occlusion(world, 0, [box], cam, y_max=100.0)
        _, _, points = lanes[0]
        origin = cam.extrinsic[:3, 3]
        lo, hi = np.array(box.lo), np.array(box.hi)
        for p in points:
            # oracle: dense sampling of the camera-to-point segment
            ts = np.linspace(0.0, 1.0, 4001)[:, None]
            samples = origin[None, :] + ts * (p[:3] - origin)[None, :]
            crosses = np.any(np.all((samples >= lo) & (samples <= hi), axis=1))
            assert bool(p[3] == 0.0) == bool(crosses)

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            Obstacle(frame_index=0, lo=(1.0, 0.0, 0.0), hi=(0.0, 1.0, 1.0))


class TestFrameView:
    def test_lanes_in_frame_clip_and_transform(self):
        spec = SceneSpec(num_lanes=2, frames=10, seed=13)
        world = gen_scene(spec)
        lanes = world.lanes_in_frame(5, y_min=0.0, y_max=50.0)
        for _, _, points in lanes:
            assert points[:, 1].min() >= 0.0
            assert points[:, 1].max() <= 50.0


class TestParallelism:
    @pytest.mark.parametrize("curvature", [(0.0,), (0.0, 0.0, 5e-4)])
    def test_orthogonal_gap_variance_vanishes(self, curvature):
        # constant-spacing scenes: the gap along the local normal between
        # adjacent lanes is the spacing everywhere, so its variance is zero
        spec = SceneSpec(num_lanes=3, lane_spacing=3.5, curvature=curvature,
                         elevation=(0.0,), frames=5, seed=14, lane_length=150.0)
        world = gen_scene(spec)
        polylines = [pts for _, _, pts in world.lanes]
        for a, b in zip(polylines[:-1], polylines[1:]):
            tangent = np.gradient(a[:, :2], axis=0)
            tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
            normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])
            gap = np.abs(np.sum((b[:, :2] - a[:, :2]) * normal, axis=1))
            assert np.var(gap) < 1e-9
