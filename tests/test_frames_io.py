import base64
import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lanekit import synth
from lanekit.autolabel import CameraModel, Trajectory
from lanekit.cli import main
from lanekit.frames import (
    SCHEMA_VERSIONS,
    Lane,
    LaneFrame,
    SchemaError,
    _decode_points,
    _dump,
    _encode_points,
    iter_detections,
    iter_lane_frames,
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
        # a version is an int: true, 1.0 and "1" are not version 1, nor 2.0 version 2
        for write, read, version in [(write_lane_frames, read_lane_frames, 99),
                                     (write_lane_frames, read_lane_frames, True),
                                     (write_lane_frames, read_lane_frames, 1.0),
                                     (write_lane_frames, read_lane_frames, "1"),
                                     (write_detections, read_detections, 2.0),
                                     (write_detections, read_detections, True)]:
            write(path, sample_frames() if write is write_lane_frames else [(0, 0.0, [])])
            lines = path.read_text().splitlines()
            header = json.loads(lines[0])
            header["schema_version"] = version
            path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
            with pytest.raises(SchemaError, match=f"schema version {version!r} of"):
                read(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        write_detections(path, [(0, 0.0, [])])
        with pytest.raises(SchemaError, match="kind"):
            read_lane_frames(path)

    @pytest.mark.parametrize("column", [0, 1, 2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_lane_points_rejected(self, tmp_path, bad, column):
        frames = sample_frames()
        frames[1].lanes = [Lane(lane_id=4, category=1, points=frames[1].lanes[0].points.copy())]
        path = tmp_path / "frames.jsonl"
        write_lane_frames(path, frames)
        # json.dumps writes the bare NaN and Infinity tokens that the writer refuses to
        rewrite_record(path, 3, lambda record: record["lanes"][0]["points"][1].__setitem__(column, bad))
        with pytest.raises(SchemaError, match="frame 1 lane 4: non-finite"):
            read_lane_frames(path)

    @pytest.mark.parametrize("points, message", [
        (np.array([[0.0, 5.0, np.nan, 1.0]]), "frame 1 lane 4: non-finite points"),
        (np.array([[0.0, 5.0, 0.0, 1.0], [-np.inf, 6.0, 0.0, 1.0]]), "frame 1 lane 4: non-finite points"),
        (np.ones((2, 3)), r"frame 1 lane 4: points must be an \(n, 4\) array, got shape \(2, 3\)"),
    ])
    def test_writer_refuses_lanes_the_reader_refuses(self, tmp_path, points, message):
        frames = sample_frames()
        frames[1].lanes = [Lane(lane_id=4, category=1, points=np.zeros((1, 4)))]
        frames[1].lanes[0].points = points  # set after the Lane's own check
        with pytest.raises(SchemaError, match=message):
            write_lane_frames(tmp_path / "frames.jsonl", frames)
        assert list(tmp_path.iterdir()) == []

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        write_lane_frames(path, sample_frames())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        with pytest.raises(SchemaError, match="malformed"):
            read_lane_frames(path)


def b64(values) -> str:
    """A points payload written without the writer's checks."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def rewrite_record(path, lineno, edit):
    """Apply `edit` to the JSON object on line `lineno` (1-based) of `path`."""
    lines = path.read_text().splitlines()
    record = json.loads(lines[lineno - 1])
    edit(record)
    lines[lineno - 1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")


class TestStreaming:
    def test_header_checked_on_call_records_on_iteration(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        write_lane_frames(path, sample_frames() + sample_frames(), config={"seed": 3})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        header, frames = iter_lane_frames(path)
        assert header["config"] == {"seed": 3}
        assert [next(frames).frame_id for _ in range(4)] == [0, 1, 0, 1]
        with pytest.raises(SchemaError, match=r"frames\.jsonl:6: malformed record"):
            next(frames)
        with pytest.raises(SchemaError, match="kind"):
            iter_detections(path)

    def test_record_errors_name_file_and_line(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        write_detections(path, [(0, 0.0, []), (1, 0.1, [(np.ones((2, 2)), 1)])])
        rewrite_record(path, 3, lambda record: record["detections"][0].update(points="@@"))
        with pytest.raises(SchemaError, match=r"dets\.jsonl:3: malformed detection record: points payload is not"):
            read_detections(path)
        path = tmp_path / "frames.jsonl"
        write_lane_frames(path, sample_frames())
        rewrite_record(path, 2, lambda record: record.update(frame_id="0"))
        with pytest.raises(SchemaError, match=r"frames\.jsonl:2: malformed lane frame: frame_id must be an int"):
            read_lane_frames(path)

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        write_lane_frames(path, sample_frames())
        before = path.read_bytes()

        def frames_then_failure():
            yield from sample_frames()
            raise RuntimeError("generator failed")

        with pytest.raises(RuntimeError, match="generator failed"):
            write_lane_frames(path, frames_then_failure(), config={"seed": 4})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["frames.jsonl"]


class TestStrictInput:
    @pytest.mark.parametrize("kind", ["lane_frames", "detections", "trajectory", "camera"])
    def test_non_object_document_rejected(self, tmp_path, kind):
        path = tmp_path / "doc.json"
        path.write_text("[1]\n")
        reader = {"lane_frames": read_lane_frames, "detections": read_detections,
                  "trajectory": read_trajectory, "camera": read_camera}[kind]
        with pytest.raises(SchemaError, match="expected a JSON object, got list"):
            reader(path)

    def test_text_that_is_not_utf8_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        write_lane_frames(path, sample_frames())
        data = bytearray(path.read_bytes())
        data[data.rindex(b'"lanes"') + 2] = 0xFF  # inside the last record
        path.write_bytes(bytes(data))
        with pytest.raises(SchemaError, match=r":3: malformed record"):
            read_lane_frames(path)

    @pytest.mark.parametrize("field, value, message", [
        ("frame_id", "0", "frame_id must be an int"),
        ("frame_id", 1.0, "frame_id must be an int"),
        ("frame_id", True, "frame_id must be an int"),
        ("frame_id", None, "frame_id must be an int"),
        ("timestamp_s", float("nan"), "timestamp_s must be a finite number"),
        ("timestamp_s", "0.1", "timestamp_s must be a finite number"),
        ("ego_pose", [float("nan")] * 16, "ego_pose has non-finite entries"),
        ("lane id", "a", "lane id must be an int"),
        ("lane category", 1.5, "lane category must be an int"),
        ("camera fx", float("nan"), "camera fx must be a finite number"),
        ("camera extrinsic", [float("inf")] * 16, "camera extrinsic has non-finite entries"),
        ("lane points", [[10**400, 5.0, 0.0, 1.0], [0.0, 6.0, 0.0, 1.0]], "too large"),
        ("ego_pose", ["1"] * 16, "ego_pose has non-finite entries"),
        ("ego_pose", [True] * 16, "ego_pose has non-finite entries"),
        ("camera extrinsic", ["1"] * 16, "camera extrinsic has non-finite entries"),
        ("camera extrinsic", [True] * 16, "camera extrinsic has non-finite entries"),
        ("lane points", [["1.5", 5.0, 0.0, 1.0], [0.0, 6.0, 0.0, 1.0]], "frame 1 lane 0: lane points must be"),
        ("lane points", [[0.0, 5.0, 0.0, True], [0.0, 6.0, 0.0, 1.0]], "frame 1 lane 0: lane points must be"),
        ("lane points", [[[1.0], 5.0, 0.0, 1.0], [0.0, 6.0, 0.0, 1.0]], "frame 1 lane 0: lane points must be"),
    ])
    def test_lane_frame_field_types_rejected(self, tmp_path, field, value, message):
        path = tmp_path / "frames.jsonl"
        write_lane_frames(path, sample_frames())

        def edit(record):
            if field.startswith("lane "):
                record["lanes"][0][field.split()[1]] = value
            elif field.startswith("camera "):
                record["camera"][field.split()[1]] = value
            else:
                record[field] = value

        rewrite_record(path, 3, edit)
        with pytest.raises(SchemaError, match=message):
            read_lane_frames(path)

    @pytest.mark.parametrize("field, value, message", [
        ("frame_id", False, "frame_id must be an int"),
        ("timestamp_s", None, "timestamp_s must be a finite number"),
        ("category", [1], "detection category must be an int"),
        ("category", float("inf"), "detection category must be an int"),
        pytest.param("points", [[480.0, 600.0], [481.0, 550.0]], "points must be a base64 string, got list",
                     id="points-json-list"),
        pytest.param("points", "480.0,600.0", "points payload is not base64", id="points-not-base64"),
        pytest.param("points", b64(np.ones(3)), "24 bytes is not a whole number of 16-byte rows",
                     id="points-24-bytes"),
        pytest.param("points", b64([[480.0, 600.0], [np.inf, 550.0]]), "non-finite points", id="points-inf"),
    ])
    def test_detection_field_types_rejected(self, tmp_path, field, value, message):
        path = tmp_path / "dets.jsonl"
        write_detections(path, [(0, 0.0, [(np.array([[480.0, 600.0], [481.0, 550.0]]), 2)])])

        def edit(record):
            target = record["detections"][0] if field in ("category", "points") else record
            target[field] = value

        rewrite_record(path, 2, edit)
        with pytest.raises(SchemaError, match=message):
            read_detections(path)


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

    def test_detection_without_points_round_trips(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        write_detections(path, [(0, 0.0, [(np.zeros((0, 2)), 1)])])
        frames, _ = read_detections(path)
        assert frames[0][2][0][0].size == 0 and frames[0][2][0][1] == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pixels_rejected(self, tmp_path, bad):
        path = tmp_path / "dets.jsonl"
        write_detections(path, [(0, 0.0, [(np.array([[480.0, 600.0], [481.0, 550.0]]), 2)])])
        rewrite_record(path, 2, lambda record: record["detections"][0].update(
            points=b64([[480.0, 600.0], [481.0, bad]])))
        with pytest.raises(SchemaError, match="non-finite"):
            read_detections(path)

    @pytest.mark.parametrize("pixels, message", [
        (np.ones((2, 3)), r"must be an \(n, 2\) array, got shape \(2, 3\)"),
        (np.ones(4), r"must be an \(n, 2\) array, got shape \(4,\)"),
        (np.zeros(0), r"must be an \(n, 2\) array, got shape \(0,\)"),
        (np.array([[480.0, np.nan]]), "non-finite points"),
        (np.array([[-np.inf, 600.0]]), "non-finite points"),
    ])
    def test_writer_rejects_bad_pixels_and_leaves_no_file(self, tmp_path, pixels, message):
        good = (np.array([[480.0, 600.0], [481.0, 550.0]]), 2)
        with pytest.raises(SchemaError, match=message):
            write_detections(tmp_path / "dets.jsonl", [(0, 0.0, [good]), (1, 0.1, [good, (pixels, 1)])])
        assert list(tmp_path.iterdir()) == []

    def test_header_carries_each_kinds_version(self, tmp_path):
        write_detections(tmp_path / "dets.jsonl", [])
        write_lane_frames(tmp_path / "frames.jsonl", [])
        for name, kind in [("dets.jsonl", "detections_2d"), ("frames.jsonl", "lane_frames")]:
            header = json.loads((tmp_path / name).read_text().splitlines()[0])
            assert (header["kind"], header["schema_version"]) == (kind, SCHEMA_VERSIONS[kind])
        assert SCHEMA_VERSIONS["detections_2d"] == 2 and SCHEMA_VERSIONS["lane_frames"] == 1


# every float64 bit pattern but the non-finite ones, with the edge values drawn often
EXACT_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7e308, -1.7e308,
     np.finfo(float).max, -np.finfo(float).max])
POINT_ARRAYS = hnp.arrays(float, st.tuples(st.integers(0, 6), st.just(2)), elements=EXACT_FLOATS)


class TestPointPayload:
    @settings(max_examples=200, deadline=None, database=None)
    @given(points=POINT_ARRAYS)
    def test_round_trip_keeps_every_bit(self, points):
        decoded = _decode_points(_encode_points(points, 2), 2)
        assert decoded.shape == points.shape and decoded.dtype == np.float64
        assert decoded.tobytes() == points.tobytes()

    @settings(max_examples=25, deadline=None, database=None)
    @given(frames=st.lists(st.lists(st.tuples(POINT_ARRAYS, st.integers(0, 3)), max_size=3), max_size=3))
    def test_file_round_trip_keeps_every_bit(self, tmp_path_factory, frames):
        path = tmp_path_factory.mktemp("payload") / "dets.jsonl"
        records = [(i, 0.1 * i, dets) for i, dets in enumerate(frames)]
        write_detections(path, records)
        loaded, _ = read_detections(path)
        assert [(f, t, [c for _, c in d]) for f, t, d in loaded] \
            == [(f, t, [c for _, c in d]) for f, t, d in records]
        for (_, _, got), (_, _, want) in zip(loaded, records):
            for (p, _), (q, _) in zip(got, want):
                assert p.shape == q.shape and p.tobytes() == q.tobytes()

    def test_edge_values_round_trip(self):
        points = np.array([[-0.0, 5e-324], [1.7e308, -1.7e308], [np.nextafter(0.0, 1.0), -2.5e-310]])
        assert _decode_points(_encode_points(points, 2), 2).tobytes() == points.tobytes()
        assert _decode_points(_encode_points(np.zeros((0, 2)), 2), 2).shape == (0, 2)
        assert _encode_points(np.zeros((0, 2)), 2) == ""

    def test_payload_is_little_endian_float64_rows(self):
        points = np.array([[1.0, 2.0], [3.0, 4.0]])
        raw = base64.b64decode(_encode_points(points, 2))
        assert raw == np.array([1.0, 2.0, 3.0, 4.0], dtype="<f8").tobytes()
        assert _encode_points(points.astype(">f8"), 2) == _encode_points(points, 2)


class TestSynthDetections:
    def test_decoded_detections_equal_render_2d(self, tmp_path):
        argv = ["synth", str(tmp_path / "scene"), "--frames", "6", "--num-lanes", "3", "--seed", "11",
                "--lane-length", "150", "--pixel-noise", "1.0"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        loaded, header = read_detections(tmp_path / "scene.detections.jsonl")
        config = header["config"]
        world = synth.gen_scene(synth.SceneSpec(
            num_lanes=config["num-lanes"], lane_spacing=config["lane-spacing"], curvature=config["curvature"],
            elevation=(0.0, config["grade"]), frames=config["frames"], speed=config["speed"],
            frame_interval=config["frame-interval"], seed=config["seed"], lane_length=config["lane-length"]))
        cam = CameraModel.level_camera()
        assert [frame_id for frame_id, _, _ in loaded] == list(range(6))
        for frame_id, _, detections in loaded:
            want = synth.render_2d(world, frame_id, cam, pixel_noise_sigma=config["pixel-noise"])
            assert len(detections) == len(want) > 0
            for (got, category), (pixels, want_category) in zip(detections, want):
                assert category == want_category
                assert got.shape == pixels.shape and got.tobytes() == pixels.tobytes()


class TestTrajectoryCamera:
    def test_trajectory_round_trip(self, tmp_path):
        path = tmp_path / "traj.json"
        traj = Trajectory(np.array([0.0, 0.1]),
                          [EgoPose.identity(), EgoPose.from_parts(np.eye(3), [0, 1, 0])])
        write_trajectory(path, traj)
        loaded = read_trajectory(path)
        assert len(loaded) == 2
        np.testing.assert_allclose(loaded.poses[1].position, [0.0, 1.0, 0.0])

    # each edit maps the value that was written to one numpy would still read as it
    @pytest.mark.parametrize("field, edit, message", [
        ("timestamp_s", lambda t: float("nan"), "malformed trajectory: timestamp_s must be a finite number"),
        ("timestamp_s", str, "malformed trajectory: timestamp_s must be a finite number"),
        ("timestamp_s", lambda t: True, "malformed trajectory: timestamp_s must be a finite number"),
        ("pose", lambda p: [float("nan")] * 16, "malformed trajectory: pose has non-finite entries"),
        ("pose", lambda p: list(map(str, p)), "malformed trajectory: pose has non-finite entries"),
        ("pose", lambda p: list(map(bool, p)), "malformed trajectory: pose has non-finite entries"),
        ("schema_version", lambda v: True, "schema version True"),
        ("schema_version", float, "schema version 1.0"),
    ], ids=["timestamp-nan", "timestamp-str", "timestamp-bool", "pose-nan", "pose-str", "pose-bool",
            "version-bool", "version-float"])
    def test_trajectory_field_types_rejected(self, tmp_path, field, edit, message):
        path = tmp_path / "traj.json"
        traj = Trajectory(np.array([0.0, 1.0]),
                          [EgoPose.identity(), EgoPose.from_parts(np.eye(3), [0, 1, 0])])
        write_trajectory(path, traj)
        doc = json.loads(path.read_text())
        target = doc if field == "schema_version" else doc["poses"][1]
        target[field] = edit(target[field])
        path.write_text(json.dumps(doc))  # json writes a float NaN as NaN, which json reads
        with pytest.raises(SchemaError, match=message):
            read_trajectory(path)

    # documents the writers never write, each of which the readers once read
    @pytest.mark.parametrize("kind, edit, message", [
        ("trajectory", lambda d: d.update(poses=""), "poses must be a JSON array, got str"),
        ("trajectory", lambda d: d.update(poses={}), "poses must be a JSON array, got dict"),
        ("trajectory", lambda d: d.update(extra=1), "trajectory has unknown keys ['extra']"),
        ("trajectory", lambda d: d["poses"][1].update(velocity=[0, 1, 0]),
         "pose record has unknown keys ['velocity']"),
        ("camera", lambda d: d.update(k1=0.1), "camera has unknown keys ['k1']"),
    ], ids=["poses-string", "poses-object", "trajectory-key", "pose-key", "camera-key"])
    def test_what_the_writers_never_write_is_refused(self, tmp_path, kind, edit, message):
        path = tmp_path / f"{kind}.json"
        if kind == "trajectory":
            write_trajectory(path, Trajectory(np.array([0.0, 1.0]),
                                              [EgoPose.identity(), EgoPose.from_parts(np.eye(3), [0, 1, 0])]))
        else:
            write_camera(path, CameraModel.level_camera())
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as caught:
            (read_trajectory if kind == "trajectory" else read_camera)(path)
        assert message in str(caught.value)

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

    @pytest.mark.parametrize("row, entries, message", [
        (3, [5.0, 6.0, 7.0, 8.0], "pose bottom row must be (0, 0, 0, 1)"),
        (0, [2.0, 0.0, 0.0, 0.0], "pose rotation is not orthonormal"),
    ], ids=["bottom-row", "scaled-rotation"])
    def test_non_rigid_camera_extrinsic_names_the_file(self, tmp_path, row, entries, message):
        path = tmp_path / "cam.json"
        write_camera(path, CameraModel.level_camera())
        doc = json.loads(path.read_text())
        doc["extrinsic"][4 * row:4 * row + 4] = entries
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as caught:
            read_camera(path)
        assert str(caught.value) == f"{path}: malformed camera file: {message}"


# JSON documents: ints past 2**63, floats including -0.0, subnormals, NaN and infinities, unicode
JSON_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2**63 - 2, 2**80)
    | st.floats() | st.sampled_from([-0.0, 5e-324, -2.2e-308]) | st.text(),
    lambda children: st.lists(children, max_size=5) | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=40)


@settings(max_examples=100, deadline=None, database=None)
@given(JSON_DOCUMENTS)
def test_dump_is_canonical_json_dumps(document):
    assert _dump(document) == json.dumps(document, sort_keys=True, separators=(",", ":"))
