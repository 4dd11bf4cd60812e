import json

import numpy as np
import pytest

from lanekit.autolabel import CameraModel, Trajectory
from lanekit.frames import (
    Lane,
    LaneFrame,
    SchemaError,
    read_camera,
    read_detections,
    read_lane_frames,
    read_trajectory,
    write_camera,
    write_detections,
    write_lane_frames,
    write_trajectory,
)
from lanekit.temporal import EgoPose


def sample_frames():
    cam = CameraModel.level_camera()
    lanes = [Lane(lane_id=0, category=1, points=np.array([[0.0, 5.0, 0.0, 1.0],
                                                          [0.1, 10.0, 0.0, 1.0]]))]
    return [
        LaneFrame(frame_id=0, timestamp_s=0.0, pose=EgoPose.identity(), lanes=lanes, camera=cam),
        LaneFrame(frame_id=1, timestamp_s=0.1,
                  pose=EgoPose.from_parts(np.eye(3), [0.0, 1.0, 0.0]), lanes=lanes, camera=cam),
    ]


class TestLaneFrames:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        write_lane_frames(path, sample_frames(), config={"seed": 3})
        frames, header = read_lane_frames(path)
        assert header["config"] == {"seed": 3}
        assert len(frames) == 2
        assert frames[1].frame_id == 1
        np.testing.assert_allclose(frames[0].lanes[0].points,
                                   sample_frames()[0].lanes[0].points)
        np.testing.assert_allclose(frames[1].pose.position, [0.0, 1.0, 0.0])
        assert frames[0].camera.fx == 1000.0

    def test_write_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_lane_frames(a, sample_frames(), config={"seed": 3})
        write_lane_frames(b, sample_frames(), config={"seed": 3})
        assert a.read_bytes() == b.read_bytes()

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        write_lane_frames(path, sample_frames())
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema_version"] = 99
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(SchemaError, match="schema version"):
            read_lane_frames(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        write_detections(path, [(0, 0.0, [])])
        with pytest.raises(SchemaError, match="kind"):
            read_lane_frames(path)

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        write_lane_frames(path, sample_frames())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        with pytest.raises(SchemaError, match="malformed"):
            read_lane_frames(path)


class TestDetections:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        dets = [(0, 0.0, [(np.array([[480.0, 600.0], [481.0, 550.0]]), 2)]),
                (1, 0.1, [])]
        write_detections(path, dets)
        frames, _ = read_detections(path)
        assert frames[0][0] == 0
        np.testing.assert_allclose(frames[0][2][0][0], [[480.0, 600.0], [481.0, 550.0]])
        assert frames[0][2][0][1] == 2
        assert frames[1][2] == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pixels_rejected(self, tmp_path, bad):
        path = tmp_path / "dets.jsonl"
        write_detections(path, [(0, 0.0, [(np.array([[480.0, 600.0], [481.0, bad]]), 2)])])
        with pytest.raises(SchemaError, match="non-finite"):
            read_detections(path)


class TestTrajectoryCamera:
    def test_trajectory_round_trip(self, tmp_path):
        path = tmp_path / "traj.json"
        traj = Trajectory(np.array([0.0, 0.1]),
                          [EgoPose.identity(), EgoPose.from_parts(np.eye(3), [0, 1, 0])])
        write_trajectory(path, traj)
        loaded = read_trajectory(path)
        assert len(loaded) == 2
        np.testing.assert_allclose(loaded.poses[1].position, [0.0, 1.0, 0.0])

    def test_camera_round_trip(self, tmp_path):
        path = tmp_path / "cam.json"
        cam = CameraModel.level_camera(height_m=1.4, fx=900.0, width=1920, image_height=1080)
        write_camera(path, cam)
        loaded = read_camera(path)
        assert loaded.fx == 900.0
        assert (loaded.width, loaded.height) == (1920, 1080)
        np.testing.assert_allclose(loaded.extrinsic, cam.extrinsic)

        # files without the image size still load, with the default size
        doc = json.loads(path.read_text())
        del doc["width"], doc["height"]
        path.write_text(json.dumps(doc))
        loaded = read_camera(path)
        assert (loaded.width, loaded.height) == (960, 720)

        for bad in (0, -1080, 1080.0, "1080", True, None):
            path.write_text(json.dumps({**doc, "height": bad}))
            with pytest.raises(SchemaError, match="height"):
                read_camera(path)
