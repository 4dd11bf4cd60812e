"""Correctness checks and output fingerprints, computed without lanekit.

The benchmark reads the program's output files itself, so a defect in
lanekit's readers or metrics cannot hide a defect in its outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

import numpy as np

LABEL_ERR_BUDGET_M = 0.15   # acceptance criterion 09 at one pixel of detection noise
LABEL_ERR_EVERY = 10        # criterion 09 scores every tenth frame
_FRAME_ID = re.compile(r'"frame_id":\s*(-?\d+)')


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_lane_frames(path: str, keep=None) -> dict:
    """frame_id -> [(lane id, points (k, 4))] for the frames `keep` accepts."""
    frames = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("kind") != "lane_frames":
            raise ValueError(f"{path}: not a lane_frames file")
        for line in fh:
            if not line.strip():
                continue
            # skip the JSON parse of frames that will be dropped anyway
            found = _FRAME_ID.search(line) if keep is not None else None
            if found and not keep(int(found.group(1))):
                continue
            record = json.loads(line)
            if keep is None or keep(record["frame_id"]):
                frames[record["frame_id"]] = [
                    (lane["id"], np.asarray(lane["points"], dtype=float)) for lane in record["lanes"]
                ]
    return frames


def label_error(labels_path: str, gt_path: str) -> tuple[float, int]:
    """Mean x/z error of the labels against ground truth, as acceptance criterion 09 scores it.

    On every tenth frame each label lane is paired with the ground-truth
    lane of least mean |x| error; the error is then the Euclidean x/z
    distance at the label points inside that lane's y span.  Returns
    (mean error in m, points scored).  Raises ValueError on a scored
    frame without labels.
    """
    keep = lambda frame_id: frame_id % LABEL_ERR_EVERY == 0  # noqa: E731
    labels = read_lane_frames(labels_path, keep)
    gt = read_lane_frames(gt_path, keep)
    errors = []
    for frame_id in sorted(gt):
        lanes = labels.get(frame_id)
        if not lanes:
            raise ValueError(f"frame {frame_id}: no labels")
        truth = [g for _, g in gt[frame_id]]
        for _, pts in lanes:
            best = min(truth, key=lambda g: float(np.mean(np.abs(pts[:, 0] - np.interp(pts[:, 1], g[:, 1], g[:, 0])))))
            inside = (pts[:, 1] >= best[:, 1].min()) & (pts[:, 1] <= best[:, 1].max())
            p = pts[inside]
            gx = np.interp(p[:, 1], best[:, 1], best[:, 0])
            gz = np.interp(p[:, 1], best[:, 1], best[:, 2])
            errors.append(np.sqrt((p[:, 0] - gx) ** 2 + (p[:, 2] - gz) ** 2))
    scored = np.concatenate(errors) if errors else np.zeros(0)
    if scored.size == 0:
        raise ValueError("no label points inside the ground-truth span")
    return float(np.mean(scored)), int(scored.size)


def non_finite_paths(value, path: str = "$") -> list[str]:
    """JSON paths of NaN or infinite numbers; null is allowed."""
    if isinstance(value, float):
        return [] if math.isfinite(value) else [path]
    if isinstance(value, dict):
        return [p for key, item in value.items() for p in non_finite_paths(item, f"{path}.{key}")]
    if isinstance(value, list):
        return [p for i, item in enumerate(value) for p in non_finite_paths(item, f"{path}[{i}]")]
    return []


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def visible_gt_lanes(labels_path: str, gt_path: str, report: dict) -> int:
    """Ground-truth lanes the eval stage scores: frames that have a prediction,
    lanes with at least two visible points on the report's y grid."""
    config = report["config"]
    y_min, y_max, y_step = config["y-min"], config["y-max"], config["y-step"]
    grid = y_min + y_step * np.arange(int(round((y_max - y_min) / y_step)) + 1)
    predicted = set(read_lane_frames(labels_path))
    count = 0
    for frame_id, lanes in read_lane_frames(gt_path, keep=predicted.__contains__).items():
        for _, pts in lanes:
            if pts.ndim != 2 or pts.shape[0] < 2:
                continue
            order = np.argsort(pts[:, 1], kind="stable")
            ys = pts[order, 1]
            v = np.interp(grid, ys, pts[order, 3])
            visible = (grid >= ys[0]) & (grid <= ys[-1]) & (v >= 0.5)
            count += int(np.count_nonzero(visible) >= 2)
    return count


def check_report(report_path: str, labels_path: str, gt_path: str) -> list[str]:
    report = load_json(report_path)
    problems = [f"non-finite {p} in report" for p in non_finite_paths(report)]
    expected = visible_gt_lanes(labels_path, gt_path, report)
    if report["tp"] + report["fn"] != expected:
        problems.append(f"tp + fn = {report['tp'] + report['fn']} but {expected} visible ground-truth lanes")
    return problems


def check_masks(stdout: str, lanes: int, points: int, memory_entries: int, k_nearest: int) -> list[str]:
    """The `masks` report: row degrees m, 2(n-1) and k, and an active fraction
    that only those degrees on every row can produce."""
    report = json.loads(stdout.strip().splitlines()[-1])
    problems = []
    expected = {"same_line_row_degree": points, "neighbor_row_degree": 2 * (lanes - 1),
                "memory_row_degree": k_nearest, "memory_entries": memory_entries}
    for key, value in expected.items():
        if report.get(key) != value:
            problems.append(f"{key} = {report.get(key)}, expected {value}")
    queries = lanes * points
    active = queries * (points + 2 * (lanes - 1) + k_nearest)
    fraction = active / (queries * (queries + memory_entries))
    if not math.isclose(report.get("active_fraction", -1.0), fraction, rel_tol=1e-12):
        problems.append(f"active_fraction = {report.get('active_fraction')}, expected {fraction}")
    return problems
