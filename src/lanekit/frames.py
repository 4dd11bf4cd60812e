"""Stable on-disk formats: JSON-Lines lane frames, 2D detections, and
JSON trajectory / camera files.

Every file starts with (or contains) a header carrying the schema
version and the config that produced it; readers reject version
mismatches.  Serialization is canonical (sorted keys, fixed separators)
so equal inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .autolabel import CameraModel, Trajectory
from .temporal import EgoPose

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Raised for malformed files or schema version mismatches."""


@dataclass
class Lane:
    lane_id: int
    category: int
    points: np.ndarray  # (n, 4) of (x, y, z, v)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 4:
            raise SchemaError("lane points must be an (n, 4) array")


@dataclass
class LaneFrame:
    """One timestamped frame: ego pose, optional camera, labeled lanes."""

    frame_id: int
    timestamp_s: float
    pose: EgoPose
    lanes: list[Lane] = field(default_factory=list)
    camera: CameraModel | None = None


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _camera_to_dict(cam: CameraModel) -> dict:
    return {
        "fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy,
        "width": cam.width, "height": cam.height,
        "extrinsic": np.asarray(cam.extrinsic).ravel().tolist(),
    }


def _camera_from_dict(d: dict) -> CameraModel:
    # files written before the image size was stored take the model's defaults
    size = {key: d[key] for key in ("width", "height") if key in d}
    for key, value in size.items():
        if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
            raise SchemaError(f"camera {key} must be a positive int, got {value!r}")
    return CameraModel(fx=d["fx"], fy=d["fy"], cx=d["cx"], cy=d["cy"],
                       extrinsic=np.array(d["extrinsic"], dtype=float).reshape(4, 4), **size)


def _frame_to_dict(frame: LaneFrame) -> dict:
    d = {
        "frame_id": frame.frame_id,
        "timestamp_s": frame.timestamp_s,
        "ego_pose": np.asarray(frame.pose.matrix).ravel().tolist(),
        "lanes": [
            {"id": lane.lane_id, "category": lane.category, "points": lane.points.tolist()}
            for lane in frame.lanes
        ],
    }
    if frame.camera is not None:
        d["camera"] = _camera_to_dict(frame.camera)
    return d


def _frame_from_dict(d: dict) -> LaneFrame:
    try:
        pose = EgoPose(np.array(d["ego_pose"], dtype=float).reshape(4, 4))
        lanes = [Lane(lane_id=l["id"], category=l["category"], points=np.array(l["points"], dtype=float))
                 for l in d["lanes"]]
        for lane in lanes:
            if not np.isfinite(lane.points).all():
                raise ValueError(f"frame {d['frame_id']} lane {lane.lane_id}: non-finite lane points")
        camera = _camera_from_dict(d["camera"]) if "camera" in d else None
        return LaneFrame(frame_id=d["frame_id"], timestamp_s=d["timestamp_s"],
                         pose=pose, lanes=lanes, camera=camera)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed lane frame: {exc}") from exc


def _write_jsonl(path, kind: str, config: dict, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump({"schema_version": SCHEMA_VERSION, "kind": kind, "config": config}) + "\n")
        for record in records:
            fh.write(_dump(record) + "\n")


def _read_jsonl(path, kind: str):
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise SchemaError(f"{path}: empty file")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: malformed header: {exc}") from exc
        if header.get("schema_version") != SCHEMA_VERSION:
            raise SchemaError(
                f"{path}: schema version {header.get('schema_version')} != {SCHEMA_VERSION}"
            )
        if header.get("kind") != kind:
            raise SchemaError(f"{path}: expected kind {kind!r}, got {header.get('kind')!r}")
        records = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{lineno}: malformed record: {exc}") from exc
    return header, records


def write_lane_frames(path, frames, config: dict | None = None) -> None:
    _write_jsonl(path, "lane_frames", config or {}, (_frame_to_dict(f) for f in frames))


def read_lane_frames(path):
    header, records = _read_jsonl(path, "lane_frames")
    return [_frame_from_dict(r) for r in records], header


def write_detections(path, frames, config: dict | None = None) -> None:
    """frames: iterable of (frame_id, timestamp_s, [(pixels (k, 2), category), ...])."""
    def records():
        for frame_id, timestamp_s, detections in frames:
            yield {
                "frame_id": frame_id,
                "timestamp_s": timestamp_s,
                "detections": [
                    {"category": int(category), "points": np.asarray(px, dtype=float).tolist()}
                    for px, category in detections
                ],
            }
    _write_jsonl(path, "detections_2d", config or {}, records())


def read_detections(path):
    header, records = _read_jsonl(path, "detections_2d")
    frames = []
    try:
        for r in records:
            dets = [(np.array(d["points"], dtype=float), d["category"]) for d in r["detections"]]
            if not all(np.isfinite(points).all() for points, _ in dets):
                raise ValueError(f"frame {r['frame_id']}: non-finite pixel coordinates")
            frames.append((r["frame_id"], r["timestamp_s"], dets))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed detection record: {exc}") from exc
    return frames, header


def write_trajectory(path, traj: Trajectory, config: dict | None = None) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "trajectory",
        "config": config or {},
        "poses": [
            {"timestamp_s": float(t), "pose": np.asarray(p.matrix).ravel().tolist()}
            for t, p in zip(traj.timestamps, traj.poses)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump(doc) + "\n")


def read_trajectory(path) -> Trajectory:
    doc = _read_json(path, "trajectory")
    try:
        stamps = [p["timestamp_s"] for p in doc["poses"]]
        poses = [EgoPose(np.array(p["pose"], dtype=float).reshape(4, 4)) for p in doc["poses"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed trajectory: {exc}") from exc
    return Trajectory(np.array(stamps, dtype=float), poses)


def write_camera(path, cam: CameraModel, config: dict | None = None) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "kind": "camera", "config": config or {}}
    doc.update(_camera_to_dict(cam))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump(doc) + "\n")


def read_camera(path) -> CameraModel:
    doc = _read_json(path, "camera")
    try:
        return _camera_from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed camera file: {exc}") from exc


def _read_json(path, kind: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: malformed JSON: {exc}") from exc
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"{path}: schema version {doc.get('schema_version')} != {SCHEMA_VERSION}")
    if doc.get("kind") != kind:
        raise SchemaError(f"{path}: expected kind {kind!r}, got {doc.get('kind')!r}")
    return doc


def write_json_report(path, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump({"schema_version": SCHEMA_VERSION, **report}) + "\n")
