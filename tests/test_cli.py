import json
import re
import shlex
import shutil
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from lanekit import attention, cli, metrics, splines
from lanekit.cli import main
from lanekit.frames import (
    Lane,
    LaneFrame,
    read_detections,
    read_lane_frames,
    write_detections,
    write_lane_frames,
)
from lanekit.losses import LossWeights
from lanekit.temporal import EgoPose, MemoryQueue


def run_synth(tmp_path, prefix="scene", frames=30, extra=()):
    out = tmp_path / prefix
    code = main([
        "synth", str(out), "--frames", str(frames), "--num-lanes", "2",
        "--seed", "7", "--lane-length", "120", *extra,
    ])
    assert code == 0
    return out


class TestSynthCommand:
    def test_outputs_exist(self, tmp_path, capsys):
        out = run_synth(tmp_path)
        for suffix in (".gt.jsonl", ".detections.jsonl", ".trajectory.json", ".camera.json"):
            assert (tmp_path / ("scene" + suffix)).exists()

    def test_byte_identical_across_runs(self, tmp_path):
        run_synth(tmp_path, "a")
        run_synth(tmp_path, "b")
        for suffix in (".gt.jsonl", ".detections.jsonl", ".trajectory.json", ".camera.json"):
            assert (tmp_path / ("a" + suffix)).read_bytes() == (tmp_path / ("b" + suffix)).read_bytes()

    def test_noise_is_seeded(self, tmp_path):
        run_synth(tmp_path, "a", extra=("--pixel-noise", "1.0"))
        run_synth(tmp_path, "b", extra=("--pixel-noise", "1.0"))
        assert (tmp_path / "a.detections.jsonl").read_bytes() \
            == (tmp_path / "b.detections.jsonl").read_bytes()


class TestEvalCommand:
    def test_self_evaluation_perfect(self, tmp_path, capsys):
        out = run_synth(tmp_path)
        gt = str(tmp_path / "scene.gt.jsonl")
        report_path = tmp_path / "report.json"
        code = main(["eval", "--pred", gt, "--gt", gt, "--out", str(report_path)])
        assert code == 0
        payload = capsys.readouterr().out
        report = json.loads(payload.splitlines()[-1])
        assert report["f1"] == 1.0
        assert report["vis_iou"] == 1.0
        assert report["chamfer"]["mean_cd"] == 0.0
        assert report_path.exists()

    def test_table_shows_dash_where_nothing_matched(self):
        acc = metrics.EvalAccumulator()
        acc.add_frame([], [np.column_stack([np.zeros(11), np.arange(11.0), np.zeros(11), np.ones(11)])])
        report = acc.report()
        assert report["vis_iou"] is None and report["chamfer"]["mean_cd"] is None
        headers, values = cli._format_table(report).splitlines()
        assert headers.split()[-2:] == ["Vis-IoU", "CD"] and values.split()[-2:] == ["-", "-"]

    @pytest.mark.parametrize("flag, value", [
        ("--y-step", "0"), ("--y-step", "-2"), ("--y-step", "nan"),
        ("--threshold", "nan"), ("--threshold", "inf"),
        ("--chamfer-threshold", "nan"), ("--chamfer-threshold", "0"), ("--chamfer-threshold", "-0.3"),
        ("--y-max", "-5"), ("--y-max", "0"), ("--y-max", "inf"), ("--y-min", "nan"),
    ])
    def test_invalid_match_config_rejected(self, tmp_path, capsys, flag, value):
        run_synth(tmp_path, frames=3)
        gt = str(tmp_path / "scene.gt.jsonl")
        report_path = tmp_path / "report.json"
        code = main(["eval", "--pred", gt, "--gt", gt, "--out", str(report_path), flag, value])
        assert code == 2
        assert "must be" in json.loads(capsys.readouterr().err)["error"]
        assert not report_path.exists()

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["eval", "--pred", str(tmp_path / "nope.jsonl"),
                     "--gt", str(tmp_path / "nope.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in json.loads(err)


def shifted(frame, frame_id, dx):
    """`frame` under id `frame_id` with every lane moved `dx` m sideways."""
    lanes = [Lane(lane_id=lane.lane_id, category=lane.category, points=lane.points + [dx, 0.0, 0.0, 0.0])
             for lane in frame.lanes]
    return LaneFrame(frame_id=frame_id, timestamp_s=frame.timestamp_s, pose=frame.pose,
                     lanes=lanes, camera=frame.camera)


def report_by_id(pred_path, gt_path):
    """Reference pairing: each prediction frame meets the ground-truth frame of its id,
    in prediction-file order, through a dict by id."""
    gt_by_id = {f.frame_id: f for f in read_lane_frames(gt_path)[0]}
    acc = metrics.EvalAccumulator()
    for pf in read_lane_frames(pred_path)[0]:
        if pf.frame_id in gt_by_id:
            acc.add_frame([l.points for l in pf.lanes], [l.points for l in gt_by_id[pf.frame_id].lanes])
    return acc.report()


class TestEvalPairing:
    """`eval` walks both files in id order; ids that do not strictly ascend exit 2."""

    # Ground-truth frame i is moved 2.0 i m sideways and prediction frame i 2.1 i m,
    # so a prediction paired with another frame's ground truth is off by 2 m or more.
    def write_pair(self, tmp_path, pred_ids, gt_ids):
        run_synth(tmp_path, frames=8)
        base, _ = read_lane_frames(tmp_path / "scene.gt.jsonl")
        write_lane_frames(tmp_path / "pred.jsonl", [shifted(base[i], i, 2.1 * i) for i in pred_ids])
        write_lane_frames(tmp_path / "gt.jsonl", [shifted(base[i], i, 2.0 * i) for i in gt_ids])
        return len(base[0].lanes), ["eval", "--pred", str(tmp_path / "pred.jsonl"),
                                    "--gt", str(tmp_path / "gt.jsonl"), "--out", str(tmp_path / "report.json")]

    @pytest.mark.parametrize("pred_ids, gt_ids", [
        ([0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5]),
        ([0, 1, 3, 7], [0, 1, 2, 3, 4, 5]),
    ], ids=["ascending", "pred-id-missing-from-gt"])
    def test_report_equals_by_id_pairing(self, tmp_path, capsys, pred_ids, gt_ids):
        lanes, argv = self.write_pair(tmp_path, pred_ids, gt_ids)
        assert main(argv) == 0
        report = json.loads((tmp_path / "report.json").read_bytes())
        del report["schema_version"], report["config"]
        assert report == report_by_id(tmp_path / "pred.jsonl", tmp_path / "gt.jsonl")
        assert report["tp"] == lanes * len(set(pred_ids) & set(gt_ids))

    @pytest.mark.parametrize("pred_ids, gt_ids, bad, got", [
        ([3, 0, 5, 1, 4, 2], [0, 1, 2, 3, 4, 5], "pred", "0 after 3"),
        ([0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 3, 4, 5], "gt", "3 after 3"),
        ([0, 1, 2], [0, 1, 2, 3, 5, 4], "gt", "4 after 5"),
    ], ids=["shuffled-pred", "duplicate-gt-id", "gt-unordered-after-last-pred"])
    def test_unordered_ids_exit_2(self, tmp_path, capsys, pred_ids, gt_ids, bad, got):
        _, argv = self.write_pair(tmp_path, pred_ids, gt_ids)
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == (
            f"{tmp_path / (bad + '.jsonl')}: frame ids must strictly ascend for eval, got {got}")
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "report.json.tmp").exists()


@pytest.mark.parametrize("argv", [
    ["eval", "--pred", "{dir}", "--gt", "{dir}"],
    ["masks", "--config", "{dir}"],
])
def test_directory_path_fails_cleanly(tmp_path, capsys, argv):
    code = main([arg.format(dir=tmp_path) for arg in argv])
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().err)


@pytest.mark.parametrize("command", ["eval", "spline", "autolabel"])
def test_directory_out_fails_cleanly(tmp_path, capsys, command):
    run_synth(tmp_path, frames=3)
    out = tmp_path / "out"
    out.mkdir()
    gt = str(tmp_path / "scene.gt.jsonl")
    argv = {
        "eval": ["eval", "--pred", gt, "--gt", gt],
        "spline": ["spline", "--input", gt],
        "autolabel": ["autolabel", "--trajectory", str(tmp_path / "scene.trajectory.json"),
                      "--camera", str(tmp_path / "scene.camera.json"),
                      "--detections", str(tmp_path / "scene.detections.jsonl")],
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    assert "error" in json.loads(capsys.readouterr().err)
    assert out.is_dir() and not any(out.iterdir())
    assert not (tmp_path / "out.tmp").exists()


@pytest.mark.parametrize("document", ["[1]", "3", "null", '"x"'])
def test_non_object_config_rejected(tmp_path, capsys, document):
    config = tmp_path / "config.json"
    config.write_text(document)
    assert main(["masks", "--config", str(config)]) == 2
    assert "expected a JSON object" in json.loads(capsys.readouterr().err)["error"]


def write_prediction_with_x(tmp_path, text):
    """The synthetic ground truth with one lane point's x written as the JSON `text`,
    which the writer itself would refuse: the x written as 1.25 is swapped in the text."""
    run_synth(tmp_path, frames=3)
    lane_frames, _ = read_lane_frames(tmp_path / "scene.gt.jsonl")
    lane_frames[1].lanes[0].points[5, 0] = 1.25
    path = tmp_path / "pred.jsonl"
    write_lane_frames(path, lane_frames)
    path.write_text(path.read_text().replace("[1.25,", f"[{text},", 1))
    return path


# the commands that read a lane file named {pred}, writing {dir}/out.json
LANE_READERS = [
    ["eval", "--pred", "{pred}", "--gt", "{dir}/scene.gt.jsonl", "--out", "{dir}/out.json"],
    ["spline", "--input", "{pred}", "--out", "{dir}/out.json", "--y-start", "0", "--y-end", "100"],
]


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
@pytest.mark.parametrize("argv", LANE_READERS)
def test_non_finite_lane_point_fails_cleanly(tmp_path, capsys, bad, argv):
    pred = write_prediction_with_x(tmp_path, json.dumps(bad))  # a bare Infinity or NaN token
    code = main([arg.format(pred=pred, dir=tmp_path) for arg in argv])
    assert code == 2
    assert "frame 1 lane 0: non-finite lane points" in json.loads(capsys.readouterr().err)["error"]
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("bad", ['"1.5"', "true", "[1.0]"])
@pytest.mark.parametrize("argv", LANE_READERS)
def test_lane_point_that_is_not_a_number_fails_cleanly(tmp_path, capsys, bad, argv):
    pred = write_prediction_with_x(tmp_path, bad)  # no Lane can hold `bad`
    code = main([arg.format(pred=pred, dir=tmp_path) for arg in argv])
    assert code == 2
    assert "frame 1 lane 0: lane points must be JSON numbers" in json.loads(capsys.readouterr().err)["error"]
    assert not (tmp_path / "out.json").exists()


class TestAutolabelCommand:
    def test_pipeline_runs_and_labels_match_gt(self, tmp_path, capsys):
        out = run_synth(tmp_path, frames=60)
        labels = tmp_path / "labels.jsonl"
        code = main([
            "autolabel",
            "--trajectory", str(tmp_path / "scene.trajectory.json"),
            "--camera", str(tmp_path / "scene.camera.json"),
            "--detections", str(tmp_path / "scene.detections.jsonl"),
            "--out", str(labels),
            "--label-range", "100",
        ])
        assert code == 0
        frames, _ = read_lane_frames(labels)
        assert len(frames) == 60
        # mid-sequence frame has both lanes labeled
        mid = frames[30]
        assert len(mid.lanes) == 2

    def test_schema_mismatch_rejected(self, tmp_path, capsys):
        run_synth(tmp_path)
        bad = tmp_path / "scene.trajectory.json"
        doc = json.loads(bad.read_text())
        doc["schema_version"] = 42
        bad.write_text(json.dumps(doc))
        code = main([
            "autolabel",
            "--trajectory", str(bad),
            "--camera", str(tmp_path / "scene.camera.json"),
            "--detections", str(tmp_path / "scene.detections.jsonl"),
            "--out", str(tmp_path / "labels.jsonl"),
        ])
        assert code == 2

    @pytest.mark.parametrize("field, edit", [("timestamp_s", lambda t: float("nan")), ("timestamp_s", str),
                                             ("pose", lambda p: list(map(str, p))),
                                             ("schema_version", lambda v: True)],
                             ids=["timestamp-nan", "timestamp-str", "pose-str", "version-bool"])
    def test_trajectory_that_is_not_finite_numbers_rejected(self, tmp_path, capsys, field, edit):
        run_synth(tmp_path)
        bad = tmp_path / "scene.trajectory.json"
        doc = json.loads(bad.read_text())
        target = doc if field == "schema_version" else doc["poses"][5]
        target[field] = edit(target[field])
        bad.write_text(json.dumps(doc))
        code = main([
            "autolabel",
            "--trajectory", str(bad),
            "--camera", str(tmp_path / "scene.camera.json"),
            "--detections", str(tmp_path / "scene.detections.jsonl"),
            "--out", str(tmp_path / "labels.jsonl"),
        ])
        assert code == 2
        assert "trajectory" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "labels.jsonl").exists()

    @pytest.mark.parametrize("suffix, edit, message", [
        ("trajectory", lambda d: d["poses"][6].update(timestamp_s=d["poses"][5]["timestamp_s"]),
         "malformed trajectory: timestamps must be strictly increasing"),
        ("trajectory", lambda d: d["poses"][5].update(pose=[float("nan")] * 16),
         "malformed trajectory: pose has non-finite entries"),
        ("camera", lambda d: d.update(fx=-1.0), "malformed camera file: focal lengths must be positive"),
        ("camera", lambda d: d["extrinsic"].__setitem__(slice(12, 16), [5.0, 6.0, 7.0, 8.0]),
         "malformed camera file: pose bottom row must be (0, 0, 0, 1)"),
        ("camera", lambda d: d["extrinsic"].__setitem__(0, 2.0),
         "malformed camera file: pose rotation is not orthonormal"),
    ], ids=["repeated-timestamp", "nan-pose", "negative-fx", "extrinsic-bottom-row",
            "extrinsic-not-orthonormal"])
    def test_bad_trajectory_or_camera_names_its_file(self, tmp_path, capsys, suffix, edit, message):
        run_synth(tmp_path)
        bad = tmp_path / f"scene.{suffix}.json"
        doc = json.loads(bad.read_text())
        edit(doc)
        bad.write_text(json.dumps(doc))
        code = main([
            "autolabel",
            "--trajectory", str(tmp_path / "scene.trajectory.json"),
            "--camera", str(tmp_path / "scene.camera.json"),
            "--detections", str(tmp_path / "scene.detections.jsonl"),
            "--out", str(tmp_path / "labels.jsonl"),
        ])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"].startswith(f"{bad}: {message}")
        assert not (tmp_path / "labels.jsonl").exists()

    def test_version_1_detections_rejected(self, tmp_path, capsys):
        run_synth(tmp_path)
        dets_path = tmp_path / "scene.detections.jsonl"
        # the version-1 layout: pixels as JSON lists
        dets_path.write_text('{"config":{},"kind":"detections_2d","schema_version":1}\n'
                             '{"detections":[{"category":1,"points":[[480.0,700.0],[481.0,650.0]]}],'
                             '"frame_id":0,"timestamp_s":0.0}\n')
        code = main([
            "autolabel",
            "--trajectory", str(tmp_path / "scene.trajectory.json"),
            "--camera", str(tmp_path / "scene.camera.json"),
            "--detections", str(dets_path),
            "--out", str(tmp_path / "labels.jsonl"),
        ])
        assert code == 2
        assert "schema version 1 of 'detections_2d' != 2" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "labels.jsonl").exists()

    @pytest.mark.parametrize("frame_id", [30, 99, -1])
    def test_frame_id_without_pose_rejected(self, tmp_path, capsys, frame_id):
        run_synth(tmp_path)  # 30 poses
        dets_path = tmp_path / "scene.detections.jsonl"
        dets, _ = read_detections(dets_path)
        dets[-1] = (frame_id, *dets[-1][1:])
        write_detections(dets_path, dets)
        code = main([
            "autolabel",
            "--trajectory", str(tmp_path / "scene.trajectory.json"),
            "--camera", str(tmp_path / "scene.camera.json"),
            "--detections", str(dets_path),
            "--out", str(tmp_path / "labels.jsonl"),
        ])
        assert code == 2
        assert "frame_id" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "labels.jsonl").exists()

    # a repeated frame would be tracked twice and labelled twice; a swapped pair, out of order
    @pytest.mark.parametrize("order, got", [
        ([*range(6), *range(5, 20)], "5 after 5"),
        ([*range(5), 6, 5, *range(7, 20)], "5 after 6"),
    ], ids=["repeated-frame", "swapped-frames"])
    def test_detection_ids_that_do_not_ascend_rejected(self, tmp_path, capsys, order, got):
        run_synth(tmp_path, frames=20)
        dets_path = tmp_path / "scene.detections.jsonl"
        dets, header = read_detections(dets_path)
        write_detections(dets_path, [dets[i] for i in order], header["config"])
        code = main([
            "autolabel",
            "--trajectory", str(tmp_path / "scene.trajectory.json"),
            "--camera", str(tmp_path / "scene.camera.json"),
            "--detections", str(dets_path),
            "--out", str(tmp_path / "labels.jsonl"),
        ])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == (
            f"{dets_path}: frame ids must strictly ascend for autolabel, got {got}")
        assert not (tmp_path / "labels.jsonl").exists()


class TestMasksCommand:
    def test_reference_config_active_fraction(self, tmp_path, capsys):
        code = main(["masks", "--lanes", "40", "--points", "20"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["active_fraction"] == pytest.approx(0.1225, abs=1e-12)
        assert report["same_line_row_degree"] == 20
        assert report["neighbor_row_degree"] == 78

    def test_with_memory_sparsity(self, tmp_path, capsys):
        code = main(["masks", "--lanes", "40", "--points", "20",
                     "--history", "3", "--keep", "10", "--k-nearest", "10"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["memory_entries"] == 600
        assert report["active_fraction"] <= 0.15

    @pytest.mark.parametrize("argv, line", [
        (["--lanes", "40", "--points", "20", "--history", "3", "--keep", "10", "--k-nearest", "10",
          "--seed", "7"],
         '{"active_fraction": 0.07714285714285714, "lanes": 40, "memory_entries": 600, '
         '"memory_row_degree": 10, "neighbor_row_degree": 78, "points": 20, '
         '"same_line_row_degree": 20, "sparsity": 0.9228571428571428}'),
        (["--lanes", "7", "--points", "9"],
         '{"active_fraction": 0.3333333333333333, "lanes": 7, "memory_entries": 0, '
         '"neighbor_row_degree": 12, "points": 9, "same_line_row_degree": 9, '
         '"sparsity": 0.6666666666666667}'),
        (["--lanes", "1", "--points", "4"],
         '{"active_fraction": 1.0, "lanes": 1, "memory_entries": 0, "neighbor_row_degree": 0, '
         '"points": 4, "same_line_row_degree": 4, "sparsity": 0.0}'),
    ], ids=["40x20-memory", "7x9", "1x4"])
    def test_report_without_dense_masks(self, monkeypatch, capsys, argv, line):
        def no_dense_mask(*args, **kwargs):
            raise AssertionError("lanekit masks built a dense mask")
        monkeypatch.setattr(attention, "index_to_mask", no_dense_mask)
        assert main(["masks", *argv]) == 0
        assert capsys.readouterr().out == line + "\n"

    @pytest.mark.parametrize("keep", [2, 4, 10])
    def test_memory_entries_count_what_the_queue_holds(self, capsys, keep):
        lanes, points, history = 4, 20, 3
        assert main(["masks", "--lanes", str(lanes), "--points", str(points),
                     "--history", str(history), "--keep", str(keep)]) == 0
        queue = MemoryQueue(capacity=history)
        for frame in range(history):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # keep above the lane count warns and keeps every lane
                queue.push_frame(np.zeros((lanes, points, 4)), np.zeros((lanes, points, 8)),
                                 np.arange(lanes, dtype=float), EgoPose.identity(), frame, keep=keep)
        assert json.loads(capsys.readouterr().out)["memory_entries"] == queue.entry_count

    @pytest.mark.parametrize("history, keep", [(-1, -1), (-1, 10), (3, -1)])
    def test_negative_history_or_keep_rejected(self, capsys, history, keep):
        code = main(["masks", "--lanes", "3", "--points", "5",
                     "--history", str(history), "--keep", str(keep)])
        assert code == 2
        flag, value = ("--history", history) if history < 0 else ("--keep", keep)
        assert json.loads(capsys.readouterr().err)["error"] == f"{flag} must be at least 0, got {value}"

    @pytest.mark.parametrize("points", [3, 1, 0, -1])
    def test_too_few_points_names_the_flag(self, capsys, points):
        assert main(["masks", "--lanes", "4", "--points", str(points)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == f"--points must be at least 4, got {points}"

    def test_negative_k_nearest_rejected(self, capsys):
        code = main(["masks", "--lanes", "3", "--points", "5", "--history", "1", "--keep", "2",
                     "--k-nearest", "-2"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "--k-nearest must be at least 0, got -2"


class TestSplineCommand:
    def test_fit_and_resample(self, tmp_path, capsys):
        run_synth(tmp_path)
        out = tmp_path / "fitted.jsonl"
        code = main(["spline", "--input", str(tmp_path / "scene.gt.jsonl"),
                     "--out", str(out), "--control-points", "10",
                     "--y-start", "0", "--y-end", "100"])
        assert code == 0
        frames, header = read_lane_frames(out)
        assert header["config"]["control-points"] == 10
        assert frames[0].lanes[0].points.shape == (100, 4)

    def test_in_place(self, tmp_path, capsys):
        run_synth(tmp_path)
        flags = ["--control-points", "10", "--y-start", "0", "--y-end", "100"]
        fitted = tmp_path / "fitted.jsonl"
        shutil.copy(tmp_path / "scene.gt.jsonl", fitted)
        assert main(["spline", "--input", str(tmp_path / "scene.gt.jsonl"),
                     "--out", str(tmp_path / "expected.jsonl"), *flags]) == 0
        assert main(["spline", "--input", str(fitted), "--out", str(fitted), *flags]) == 0
        assert fitted.read_bytes() == (tmp_path / "expected.jsonl").read_bytes()
        assert not (tmp_path / "fitted.jsonl.tmp").exists()


    def test_lane_short_of_the_last_knot_span_is_skipped(self, tmp_path, capsys):
        # default flags: 20 control points over [3, 103] m; the lanes end 120 m along the road,
        # so in late frames they stop short of the last knot span
        run_synth(tmp_path, frames=40)
        out = tmp_path / "fitted.jsonl"
        assert main(["spline", "--input", str(tmp_path / "scene.gt.jsonl"), "--out", str(out)]) == 0
        cfg = splines.CurveConfig()
        gt_frames, _ = read_lane_frames(tmp_path / "scene.gt.jsonl")
        fitted, _ = read_lane_frames(out)
        assert [f.frame_id for f in fitted] == [f.frame_id for f in gt_frames]
        short = 0
        for gf, ff in zip(gt_frames, fitted):
            want = []
            for lane in gf.lanes:
                y = lane.points[:, 1]
                y = y[(y >= cfg.y_start) & (y <= cfg.y_end)]
                if y.size < cfg.m:
                    continue
                basis = splines.basis_matrix(cfg.m, splines.arg_for_y(y, cfg)).matrix
                if np.linalg.matrix_rank(basis) < cfg.m:
                    short += 1
                    continue
                want.append(lane.lane_id)
            assert [lane.lane_id for lane in ff.lanes] == want
        assert short > 0 and sum(len(f.lanes) for f in fitted) > 0


class TestBoundedMemory:
    """`eval` and `spline` hold one frame at a time, so their peak does not grow with frames."""

    @pytest.mark.parametrize("command", ["eval", "spline"])
    def test_peak_does_not_grow_with_frames(self, tmp_path, capsys, command):
        peaks = []
        for n_frames in (10, 40):
            prefix = tmp_path / f"scene{n_frames}"
            assert main(["synth", str(prefix), "--frames", str(n_frames), "--num-lanes", "3",
                         "--seed", "7", "--lane-length", "100"]) == 0
            gt = f"{prefix}.gt.jsonl"
            argv = {
                "eval": ["eval", "--pred", gt, "--gt", gt, "--out", str(tmp_path / "report.json")],
                "spline": ["spline", "--input", gt, "--out", str(tmp_path / "fitted.jsonl"),
                           "--y-end", "50", "--control-points", "10"],
            }[command]
            if not peaks:
                assert main(argv) == 0  # fill caches outside the measurement
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks


class TestTemporalDemoCommand:
    def test_consistent_stream_zero_loss(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(["temporal-demo", "--frames", "20", "--perturb", "0",
                     "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["total_temporal_loss"] == pytest.approx(0.0, abs=1e-9)

    def test_perturbed_stream_larger_loss(self, tmp_path, capsys):
        code = main(["temporal-demo", "--frames", "30", "--perturb", "0.3",
                     "--occlusion-start", "10", "--occlusion-frames", "10"])
        assert code == 0
        perturbed = json.loads(capsys.readouterr().out)["total_temporal_loss"]
        code = main(["temporal-demo", "--frames", "30", "--perturb", "0"])
        assert code == 0
        clean = json.loads(capsys.readouterr().out)["total_temporal_loss"]
        assert perturbed > clean

    @pytest.mark.parametrize("weights,message", [
        ("[1]", "expected a JSON object, got list"),
        ('{"bogus": 1}', "unknown names ['bogus']"),
        ('{"temporal": "0.5"}', "temporal must be a finite number"),
        ('{"temporal": NaN}', "temporal must be a finite number"),
        ('{"regression": 1e999}', "regression must be a finite number"),
        ('{"regression": 1%s}' % ("0" * 400), "regression must be a finite number"),
        ('{"spatial_smooth": true}', "spatial_smooth must be a finite number"),
    ])
    def test_bad_weights_fail_cleanly(self, tmp_path, capsys, weights, message):
        config = tmp_path / "config.json"
        config.write_text('{"weights": %s}' % weights)
        assert main(["temporal-demo", "--frames", "3", "--config", str(config)]) == 2
        assert message in json.loads(capsys.readouterr().err)["error"]

    def test_weights_from_config(self, tmp_path, capsys):
        traces = {}
        for temporal in (0.1, 2):
            config, out = tmp_path / "config.json", tmp_path / f"trace{temporal}.json"
            config.write_text(json.dumps({"weights": {"temporal": temporal}}))
            assert main(["temporal-demo", "--frames", "8", "--perturb", "0.3", "--occlusion-start", "2",
                         "--config", str(config), "--out", str(out)]) == 0
            traces[temporal] = json.loads(out.read_text())["traces"]
        default = traces[0.1]
        for a, b in zip(default, traces[2]):
            assert b["weighted_total"] - a["weighted_total"] == pytest.approx(1.9 * a["temporal_loss"])
        assert any(t["temporal_loss"] > 0 for t in default)

    def test_runs_past_the_default_lane_length(self, capsys):
        # 402 frames drive 401 m at 1 m a frame: the lane grows past 400 m with --frames
        assert main(["temporal-demo", "--frames", "402"]) == 0
        assert json.loads(capsys.readouterr().out)["frames"] == 402

    @pytest.mark.parametrize("control_points", [4, 100])
    def test_control_point_bounds_run(self, capsys, control_points):
        assert main(["temporal-demo", "--frames", "3", "--grade", "0.1",
                     "--control-points", str(control_points)]) == 0
        assert json.loads(capsys.readouterr().out)["frames"] == 3

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["temporal-demo", "--frames", "15", "--perturb", "0.2",
                         "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """Prefix of a 12-frame, 2-lane synthetic scene with noisy detections."""
    prefix = tmp_path_factory.mktemp("scene") / "scene"
    assert main(["synth", str(prefix), "--frames", "12", "--num-lanes", "2", "--seed", "7",
                 "--lane-length", "120", "--pixel-noise", "0.5"]) == 0
    return str(prefix)


# command: (path arguments, tunable flags, first run's --config, output suffixes); the
# output is "{out}" plus each suffix, and the first suffix's first line embeds the config
RUNS = {
    "synth": (["synth", "{out}"], ["--frames", "5", "--num-lanes", "2", "--curvature", "0", "2e-4"],
              {"seed": 3, "pixel-noise": 0.5, "lane-length": 90},
              [".gt.jsonl", ".detections.jsonl", ".trajectory.json", ".camera.json"]),
    "autolabel": (["autolabel", "--trajectory", "{scene}.trajectory.json", "--camera", "{scene}.camera.json",
                   "--detections", "{scene}.detections.jsonl", "--out", "{out}"],
                  ["--min-hits", "2", "--gate", "0.8"], {"near-range": 20, "label-range": 80}, [""]),
    "eval": (["eval", "--pred", "{scene}.gt.jsonl", "--gt", "{scene}.gt.jsonl", "--out", "{out}"],
             ["--threshold", "1"], {"y-max": 60, "y-step": 1.5}, [""]),
    "spline": (["spline", "--input", "{scene}.gt.jsonl", "--out", "{out}"],
               ["--control-points", "8"], {"y-end": 50, "samples": 30}, [""]),
    "masks": (["masks", "--out", "{out}"], ["--lanes", "6", "--points", "5", "--history", "2"],
              {"keep": 3, "seed": 4}, [""]),
    "temporal-demo": (["temporal-demo", "--out", "{out}"], ["--frames", "8", "--perturb", "0.3"],
                      {"seed": 5, "alpha": 0.25, "occlusion-start": 2,
                       "weights": {"temporal": 2, "regression": 0.5}}, [""]),
}


@pytest.mark.parametrize("command", sorted(RUNS))
def test_recorded_config_reproduces_the_run(tmp_path, capsys, scene, command):
    paths, flags, config, suffixes = RUNS[command]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps(config))

    def argv(out):
        return [arg.format(scene=scene, out=tmp_path / out) for arg in paths]

    assert main(argv("a") + flags + ["--config", str(first)]) == 0
    with open(f"{tmp_path / 'a'}{suffixes[0]}", encoding="utf-8") as fh:
        recorded = json.loads(fh.readline())["config"]
    for key, value in config.items():
        assert recorded[key] == (vars(LossWeights(**value)) if key == "weights" else value)
    second.write_text(json.dumps(recorded))
    assert main(argv("b") + ["--config", str(second)]) == 0
    for suffix in suffixes:
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


def test_temporal_demo_records_its_weights(tmp_path, capsys):
    recorded = []
    for temporal in (0.1, 2):
        config, out = tmp_path / "config.json", tmp_path / f"trace{temporal}.json"
        config.write_text(json.dumps({"weights": {"temporal": temporal}}))
        assert main(["temporal-demo", "--frames", "3", "--config", str(config), "--out", str(out)]) == 0
        recorded.append(json.loads(out.read_text())["config"])
    assert recorded[0] != recorded[1]
    assert recorded[0]["weights"] == vars(LossWeights())
    assert recorded[1]["weights"] == vars(LossWeights(temporal=2))


@pytest.mark.parametrize("argv, config, option", [
    (["temporal-demo"], {"alpha": None}, "alpha"),
    (["temporal-demo"], {"frames": 3, "weights": {"temporal": None}}, "weights"),
    (["synth", "{out}"], {"curvature": {"a": 1}}, "curvature"),
    (["synth", "{out}"], {"curvature": [0.0, "x"]}, "curvature"),
    (["synth", "{out}"], {"num_lanes": 1}, "num_lanes"),
    (["synth", "{out}"], {"seed": 3.7}, "seed"),
    (["synth", "{out}"], {"frames": 10 ** 400, "lane-spacing": 10 ** 400}, "lane-spacing"),
    (["synth", "{out}", "--frames", "2"], {"frames": "x"}, "frames"),
    (["masks"], {"seed": True}, "seed"),
    (["eval", "--pred", "{scene}.gt.jsonl", "--gt", "{scene}.gt.jsonl"], {"out": "report.json"}, "out"),
    (["autolabel", "--near-range", "nan"], None, "--near-range"),
    (["autolabel", "--gate", "nan"], None, "--gate"),
    (["autolabel", "--station-spacing", "0"], None, "--station-spacing must lie in (0, inf)"),
    (["autolabel", "--station-spacing", "-1"], None, "--station-spacing must lie in (0, inf)"),
    (["synth", "{out}", "--pixel-noise", "nan"], None, "--pixel-noise"),
    (["synth", "{out}", "--lane-spacing", "nan"], None, "--lane-spacing"),
    (["synth", "{out}", "--curvature", "0", "inf"], None, "--curvature"),
    (["spline", "--input", "{scene}.gt.jsonl", "--y-end", "inf"], None, "--y-end"),
    (["synth", "{out}", "--num-lanes", "0"], None, "--num-lanes"),
    (["synth", "{out}", "--num-lanes", "-1"], None, "--num-lanes"),
    (["synth", "{out}"], {"num-lanes": 0}, "config key 'num-lanes' must be at least 1"),
    (["synth", "{out}", "--lane-length", "-1"], None, "--lane-length"),
    (["synth", "{out}", "--seed", "-1"], None, "--seed"),
    (["synth", "{out}", "--frames", "0"], None, "--frames"),
    (["synth", "{out}", "--pixel-noise", "-1"], None, "--pixel-noise"),
    (["masks", "--seed", "-1", "--history", "1"], None, "--seed"),
    (["masks", "--lanes", "0"], None, "--lanes"),
    (["temporal-demo", "--keep", "-1"], None, "--keep"),
    (["temporal-demo", "--lanes", "0"], None, "--lanes"),
    (["temporal-demo", "--seed", "-1"], None, "--seed"),
    (["temporal-demo", "--frames", "0"], None, "--frames"),
    (["temporal-demo", "--history", "0"], None, "--history"),
    (["temporal-demo", "--control-points", "3"], None, "--control-points"),
    (["temporal-demo", "--control-points", "101"], None, "--control-points must lie in [4, 100], got 101"),
    (["spline", "--input", "{scene}.gt.jsonl", "--control-points", "3"], None,
     "--control-points must lie in [4, 100], got 3"),
    (["temporal-demo", "--perturb", "-0.5"], None, "--perturb"),
    (["synth", "{out}", "--label-range", "-1"], None, "--label-range must lie in (0, inf)"),
    (["synth", "{out}", "--label-range", "0"], None, "--label-range must lie in (0, inf)"),
    (["synth", "{out}", "--lane-spacing", "0"], None, "--lane-spacing must lie in (0, inf)"),
    (["synth", "{out}", "--speed", "0"], None, "--speed must lie in (0, inf)"),
    (["synth", "{out}", "--frame-interval", "-1"], None, "--frame-interval must lie in (0, inf)"),
    (["synth", "{out}"], {"speed": -2}, "config key 'speed' must lie in (0, inf)"),
    (["temporal-demo", "--alpha", "-1"], None, "--alpha must lie in [0, 1]"),
    (["temporal-demo", "--alpha", "1.5"], None, "--alpha must lie in [0, 1]"),
    (["masks", "--k-nearest", "-1"], None, "--k-nearest must be at least 0"),
    (["masks", "--history", "-1"], None, "--history must be at least 0"),
    (["masks", "--keep", "-1"], None, "--keep must be at least 0"),
    (["synth", "{out}", "--frames", "3", "--num-lanes", "2", "--lane-length", "1"], None,
     "3 frames at 1 m a frame drive 2 m, past the end of the lane: lane length 1 m"),
    (["synth", "{out}", "--frames", "12", "--lane-length", "10.5"], None, "lane length 10.5 m"),
    (["autolabel", "--near-range", "0"], None, "--near-range must lie in (0, inf)"),
    (["autolabel", "--label-range", "-1"], None, "--label-range must lie in (0, inf)"),
    (["autolabel", "--gate", "0"], None, "--gate must lie in (0, inf)"),
    (["autolabel", "--min-hits", "-3"], None, "--min-hits must be at least 1"),
    (["temporal-demo", "--occlusion-start", "-1"], None, "--occlusion-start must be at least 0"),
    (["temporal-demo", "--occlusion-frames", "-5"], None, "--occlusion-frames must be at least 0"),
    (["spline", "--input", "{scene}.gt.jsonl", "--samples", "10"], None,
     "--samples 10: dense sample count must be >= control point count"),
    (["spline", "--input", "{scene}.gt.jsonl", "--y-start", "50", "--y-end", "10"], None,
     "--y-start 50.0, --y-end 10.0"),
    (["eval", "--pred", "{scene}.gt.jsonl", "--gt", "{scene}.gt.jsonl", "--y-step", "0"], None,
     "--y-step 0.0"),
    (["eval", "--pred", "{scene}.gt.jsonl", "--gt", "{scene}.gt.jsonl", "--y-max", "1e300", "--y-step", "1e-300"],
     None, "--y-min 0.0, --y-max 1e+300, --y-step 1e-300, --chamfer-threshold 0.3: grid point count"),
    (["synth", "{out}", "--frames", "3", "--curvature", "0", "0", "1e300"], None,
     "--curvature (0.0, 0.0, 1e+300), --grade 0.0, --lane-length 400.0: curvature polynomial"),
    (["synth", "{out}", "--frames", "3", "--grade", "1e300"], None, "--grade 1e+300"),
    (["temporal-demo", "--grade", "1e300"], None, "--grade 1e+300, --frames 120: elevation polynomial"),
    (["synth", "{out}", "--frames", "3", "--curvature", "0", "0", "1e10"], None,
     "--curvature (0.0, 0.0, 10000000000.0), --grade 0.0, --lane-length 400.0: consecutive trajectory"),
    (["temporal-demo", "--frames", "3", "--grade", "100"], None,
     "--grade 100.0: frame 0: a lane cannot be fitted in y [3, 103] m: need at least 20 samples, got 2"),
    (["temporal-demo", "--frames", "3", "--grade", "1e6"], None, "--grade 1000000.0: frame 0: no lane lies"),
    (["spline", "--input", "{scene}.gt.jsonl", "--samples", "10001"], None,
     "--samples must lie in [4, 10000], got 10001"),
    (["spline", "--input", "{scene}.gt.jsonl", "--control-points", "101"], None,
     "--control-points must lie in [4, 100], got 101"),
    (["synth", "{out}", "--frames", "3", "--num-lanes", "5", "--lane-spacing", "1e308"], None,
     "--num-lanes 5, --lane-spacing 1e+308, "),
    (["synth", "{out}", "--frames", "3", "--speed", "1e-300"], None,
     "--speed 1e-300, --frame-interval 0.1, "),
    (["synth", "{out}", "--frames", "3", "--frame-interval", "1e-300"], None,
     "--speed 10.0, --frame-interval 1e-300, "),
    (["autolabel", "--station-spacing", "1e-300"], None,
     "--station-spacing 1e-300, --label-range 250.0: Maximum allowed size exceeded"),
    (["autolabel", "--label-range", "1e308"], None,
     "--station-spacing 2.0, --label-range 1e+308: Maximum allowed size exceeded"),
], ids=["alpha-null", "weight-null", "curvature-object", "curvature-string", "unknown-key", "seed-float",
        "int-beyond-float", "overridden-entry-checked", "seed-bool", "path-key", "near-range-nan", "gate-nan",
        "station-spacing-zero", "station-spacing-negative", "pixel-noise-nan", "lane-spacing-nan",
        "curvature-inf", "y-end-inf", "synth-no-lanes", "synth-negative-lanes", "config-no-lanes",
        "negative-lane-length", "synth-negative-seed", "synth-no-frames", "negative-pixel-noise",
        "masks-negative-seed", "masks-no-lanes", "negative-keep", "demo-no-lanes", "demo-negative-seed",
        "demo-no-frames", "no-history", "too-few-control-points", "too-many-control-points",
        "spline-too-few-control-points", "negative-perturb",
        "negative-label-range", "zero-label-range", "zero-lane-spacing", "zero-speed",
        "negative-frame-interval", "config-negative-speed", "negative-alpha", "alpha-above-one",
        "negative-k-nearest", "masks-negative-history", "masks-negative-keep", "lane-shorter-than-drive",
        "lane-end-shortens-last-step", "zero-near-range", "autolabel-negative-label-range", "zero-gate",
        "negative-min-hits", "negative-occlusion-start", "negative-occlusion-frames",
        "spline-too-few-samples", "spline-empty-y-range", "eval-zero-y-step", "eval-grid-overflow",
        "synth-curvature-overflow", "synth-grade-overflow", "demo-grade-overflow", "synth-steps-rounded-away",
        "demo-grade-too-few-samples", "demo-grade-no-lane", "spline-too-many-samples",
        "spline-too-many-control-points", "synth-lane-offset-overflow", "synth-speed-steps-rounded-away",
        "synth-frame-interval-steps-rounded-away", "autolabel-stations-beyond-size",
        "autolabel-label-range-beyond-size"])
def test_bad_option_fails_naming_it(tmp_path, capsys, scene, argv, config, option):
    out = str(tmp_path / "out")
    argv = [arg.format(scene=scene, out=out) for arg in argv]
    if argv[0] == "autolabel":
        argv += ["--trajectory", f"{scene}.trajectory.json", "--camera", f"{scene}.camera.json",
                 "--detections", f"{scene}.detections.jsonl"]
    if argv[0] != "synth":
        argv += ["--out", out]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "config.json")]
    assert main(argv) == 2
    assert option in json.loads(capsys.readouterr().err)["error"]
    assert list(tmp_path.iterdir()) == ([tmp_path / "config.json"] if config is not None else [])


# sizes of petabytes, which numpy refuses before it allocates anything
@pytest.mark.parametrize("argv", [
    ["synth", "{out}", "--frames", "2", "--lane-length", "1e15"],
    ["autolabel", "--trajectory", "{scene}.trajectory.json", "--camera", "{scene}.camera.json",
     "--detections", "{scene}.detections.jsonl", "--out", "{out}", "--label-range", "1e15"],
], ids=["synth-lane-length", "autolabel-label-range"])
def test_size_beyond_memory_fails_cleanly(tmp_path, capsys, scene, argv):
    out = str(tmp_path / "out")
    assert main([arg.format(scene=scene, out=out) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert "Unable to allocate" in json.loads(captured.err)["error"]
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def readme_commands():
    """The `lanekit ...` commands of the README's bash blocks, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```bash\n(.*?)```", text, flags=re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("lanekit ")]


def test_readme_commands_resolve():
    commands = readme_commands()
    assert sorted(argv[0] for argv in commands) == sorted(cli.OPTIONS)
    for argv in commands:
        args = cli.build_parser().parse_args(argv)
        assert cli._resolve(args).keys() == cli.OPTIONS[argv[0]].keys()
