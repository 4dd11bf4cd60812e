import json

import pytest

from lanekit.cli import main
from lanekit.frames import read_detections, read_lane_frames, write_detections


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

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["eval", "--pred", str(tmp_path / "nope.jsonl"),
                     "--gt", str(tmp_path / "nope.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in json.loads(err)


@pytest.mark.parametrize("argv", [
    ["eval", "--pred", "{dir}", "--gt", "{dir}"],
    ["masks", "--config", "{dir}"],
])
def test_directory_path_fails_cleanly(tmp_path, capsys, argv):
    code = main([arg.format(dir=tmp_path) for arg in argv])
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().err)


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

    def test_negative_k_nearest_rejected(self, capsys):
        code = main(["masks", "--lanes", "3", "--points", "5", "--history", "1", "--keep", "2",
                     "--k-nearest", "-2"])
        assert code == 2
        assert "k_nearest" in json.loads(capsys.readouterr().err)["error"]


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

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["temporal-demo", "--frames", "15", "--perturb", "0.2",
                         "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()
