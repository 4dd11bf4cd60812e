"""Stable on-disk formats: JSON-Lines lane frames, 2D detections, and
JSON trajectory / camera files.

Every file starts with (or contains) a header carrying the schema
version of its kind (`SCHEMA_VERSIONS`) and the config that produced
it; readers reject any other version and any header or document that is
not a JSON object.  Serialization is canonical (sorted keys, fixed
separators) so equal inputs produce byte-identical files.  Writers
refuse what readers refuse: `write_lane_frames` raises SchemaError on
lane points that are not a finite (n, 4) array, which JSON would hold as
bare NaN or Infinity tokens.

Detection files (schema version 2) store each detection's pixels as one
string: the base64 of the little-endian float64 bytes of its (k, 2)
array of (u, v) rows.  Values round-trip bit for bit, and writing and
reading them takes a small fraction of the time of JSON number text,
at the price that pixel values cannot be read in a text editor; the
header, ids, timestamps and categories stay JSON.  `write_detections`
refuses pixels that are not a finite (k, 2) array, and the reader
refuses a payload that is not a string, is not strict base64, is not a
whole number of 16-byte rows or holds a non-finite value.  Version 1
files, which held the pixels as JSON lists, are rejected like any other
version mismatch.

Lane and detection files are read one frame at a time:
`iter_lane_frames` and `iter_detections` check the header eagerly and
return it with an iterator that parses and validates one record per
step, so a caller that does not keep frames holds one frame in memory
whatever the file's length.  `frame_id` is an int in both formats;
`lanekit synth` writes ids in ascending order and `spline` keeps its
input's order.  `lanekit autolabel` needs strictly ascending detection
ids, so it tracks each frame once and writes its labels in that order.
`lanekit eval` pairs prediction and ground-truth frames by id and needs
strictly ascending ids in both files: it walks them together, holding
about one frame of each.  Both commands reject an id that does not
exceed the one before it.  These readers accept any order.  Writers
take iterables, so they too hold one record at a time, and every writer
writes `<path>.tmp` beside the target and renames it over the target
only when the whole file is written: a failed write leaves neither a
partial output nor the temporary file.

There are two file shapes: JSON Lines (lane frames and detections), a
header line and then one record per line, and single JSON documents
(trajectory and camera), whose header keys sit beside the body's.  Each
shape has one writer, `_write_jsonl` or `_write_json`, which puts in
the header that `_header` builds, and one reader, `_jsonl_records` or
`_read_json`, which checks the header and reports whatever a record's
or document's parser rejects as one "malformed <name>" error with the
path, and for JSON Lines the line number.
"""

from __future__ import annotations

import base64
import contextlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .autolabel import CameraModel, Trajectory
from .temporal import EgoPose

# schema version of each file kind, written into every header and checked by every reader;
# detections went to 2 when their pixels became binary payloads
SCHEMA_VERSIONS = {"lane_frames": 1, "detections_2d": 2, "trajectory": 1, "camera": 1, "report": 1}


class SchemaError(ValueError):
    """Raised for malformed files or schema version mismatches."""


# what parsing a decoded record can raise; OverflowError is an int too large for a float
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


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


# no record holds a reference cycle, so the per-list and per-dict cycle check is off
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


# the keys of a JSON document's header, and the keys a camera object may hold
_HEADER_KEYS = {"schema_version", "kind", "config"}
_CAMERA_KEYS = {"fx", "fy", "cx", "cy", "width", "height", "extrinsic"}


def _camera_to_dict(cam: CameraModel) -> dict:
    return {
        "fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy,
        "width": cam.width, "height": cam.height,
        "extrinsic": np.asarray(cam.extrinsic).ravel().tolist(),
    }


def _int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{name} must be an int, got {value!r}")
    return value


def _is_finite(value) -> bool:
    return type(value) is int or (isinstance(value, float) and math.isfinite(value))  # not bool


def _finite(value, name: str):
    if not _is_finite(value):
        raise SchemaError(f"{name} must be a finite number, got {value!r}")
    return value


def _finite_matrix(values, name: str) -> np.ndarray:
    """A 4x4 matrix from a list of 16 row-major finite numbers."""
    if not all(map(_is_finite, values)):
        raise SchemaError(f"{name} has non-finite entries; expected 16 finite numbers")
    return np.array(values, dtype=float).reshape(4, 4)


def _object(value, keys: set, name: str) -> dict:
    """`value` if it is a JSON object with no key but `keys`, the ones the writer writes."""
    if type(value) is not dict:
        raise SchemaError(f"{name} must be a JSON object, got {type(value).__name__}")
    if not value.keys() <= keys:
        raise SchemaError(f"{name} has unknown keys {sorted(value.keys() - keys)}")
    return value


def _array(value, name: str) -> list:
    """`value` if it is a JSON array."""
    if type(value) is not list:
        raise SchemaError(f"{name} must be a JSON array, got {type(value).__name__}")
    return value


def _lane_points(rows, name: str) -> np.ndarray:
    """Rows of JSON numbers, all finite, as an array; np.array alone would take "1.5" and true."""
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {float, int}:
        raise SchemaError(f"{name}: lane points must be JSON numbers")
    points = np.array(rows, dtype=float)
    if not np.isfinite(points).all():
        raise SchemaError(f"{name}: non-finite lane points")
    return points


def _finite_rows(points, columns: int, where: str = "") -> np.ndarray:
    """`points` as a finite (n, columns) float array, as the writers take them;
    a SchemaError prefixed with `where` otherwise."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != columns:
        raise SchemaError(f"{where}points must be an (n, {columns}) array, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise SchemaError(f"{where}non-finite points")
    return points


def _encode_points(points, columns: int) -> str:
    """Base64 of the little-endian float64 bytes of an (n, columns) array, row by row."""
    return base64.b64encode(_finite_rows(points, columns).astype("<f8").tobytes()).decode("ascii")


def _decode_points(text, columns: int) -> np.ndarray:
    """The (n, columns) float64 array of an `_encode_points` payload, bit for bit."""
    if not isinstance(text, str):
        raise SchemaError(f"points must be a base64 string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or text that is not ASCII
        raise SchemaError(f"points payload is not base64: {exc}") from exc
    if len(raw) % (8 * columns):
        raise SchemaError(f"points payload of {len(raw)} bytes is not a whole number of "
                          f"{8 * columns}-byte rows")
    points = np.frombuffer(raw, dtype="<f8").astype(float).reshape(-1, columns)
    if not np.isfinite(points).all():
        raise SchemaError("non-finite points")
    return points


def _camera_from_dict(d: dict) -> CameraModel:
    # files written before the image size was stored take the model's defaults
    size = {key: d[key] for key in ("width", "height") if key in d}
    for key, value in size.items():
        if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
            raise SchemaError(f"camera {key} must be a positive int, got {value!r}")
    return CameraModel(**{key: _finite(d[key], f"camera {key}") for key in ("fx", "fy", "cx", "cy")},
                       extrinsic=_finite_matrix(d["extrinsic"], "camera extrinsic"), **size)


def _frame_to_dict(frame: LaneFrame) -> dict:
    d = {
        "frame_id": frame.frame_id,
        "timestamp_s": frame.timestamp_s,
        "ego_pose": np.asarray(frame.pose.matrix).ravel().tolist(),
        "lanes": [
            {"id": lane.lane_id, "category": lane.category,
             "points": _finite_rows(lane.points, 4, f"frame {frame.frame_id} lane {lane.lane_id}: ").tolist()}
            for lane in frame.lanes
        ],
    }
    if frame.camera is not None:
        d["camera"] = _camera_to_dict(frame.camera)
    return d


def _stamps(record, keys: set, name: str) -> tuple:
    """(frame_id, timestamp_s) of a line-format record that is a JSON object with no key but `keys`."""
    _object(record, keys, name)
    return _int(record["frame_id"], "frame_id"), _finite(record["timestamp_s"], "timestamp_s")


def _frame_from_dict(d: dict) -> LaneFrame:
    frame_id, timestamp_s = _stamps(d, {"frame_id", "timestamp_s", "ego_pose", "lanes", "camera"},
                                    "lane frame")
    pose = EgoPose(_finite_matrix(d["ego_pose"], "ego_pose"))
    lanes = [Lane(lane_id=_int(_object(l, {"id", "category", "points"}, "lane")["id"], "lane id"),
                  category=_int(l["category"], "lane category"),
                  points=_lane_points(l["points"], f"frame {frame_id} lane {l['id']}"))
             for l in _array(d["lanes"], "lanes")]
    camera = None
    if "camera" in d:
        camera = _camera_from_dict(_object(d["camera"], _CAMERA_KEYS, "camera"))
    return LaneFrame(frame_id=frame_id, timestamp_s=timestamp_s,
                     pose=pose, lanes=lanes, camera=camera)


def _detection_frame_from_dict(r: dict):
    frame_id, timestamp_s = _stamps(r, {"frame_id", "timestamp_s", "detections"}, "detection record")
    dets = [(_decode_points(_object(d, {"points", "category"}, "detection")["points"], 2),
             _int(d["category"], "detection category"))
            for d in _array(r["detections"], "detections")]
    return frame_id, timestamp_s, dets


def _write_lines(path, lines) -> None:
    """Write each string of `lines` as one line of `path`, all or nothing.

    The lines go to `<path>.tmp` in the same directory, which replaces
    `path` only once every line is written; on any exception the
    temporary file is removed and `path` is left as it was.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # open() may have failed before creating tmp
            os.remove(tmp)
        raise


def _header(kind: str, config: dict | None) -> dict:
    return {"schema_version": SCHEMA_VERSIONS[kind], "kind": kind, "config": config or {}}


def _write_jsonl(path, kind: str, config: dict | None, records) -> None:
    _write_lines(path, map(_dump, itertools.chain([_header(kind, config)], records)))


def _write_json(path, kind: str, config: dict | None, body: dict) -> None:
    _write_lines(path, [_dump({**_header(kind, config), **body})])


def _check_document(path, doc, kind: str) -> None:
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    if doc.get("kind") != kind:
        raise SchemaError(f"{path}: expected kind {kind!r}, got {doc.get('kind')!r}")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSIONS[kind]:  # 1.0 and true are not 1
        raise SchemaError(f"{path}: schema version {version!r} of {kind!r} "
                          f"!= {SCHEMA_VERSIONS[kind]}")


def _jsonl_records(path, kind: str, parse, name: str):
    """Yield the checked header, then `parse` of each non-blank line's decoded JSON value.

    Lines are read as bytes and decoded one at a time, so text that is
    not UTF-8 is reported at its own line, and so is a record that
    `parse` rejects, as a malformed `name`.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
        if not first:
            raise SchemaError(f"{path}: empty file")
        try:
            header = json.loads(first.decode("utf-8"))
        except ValueError as exc:
            raise SchemaError(f"{path}: malformed header: {exc}") from exc
        _check_document(path, header, kind)
        yield header
        for lineno, raw in enumerate(fh, start=2):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                record = json.loads(line)
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: malformed record: {exc}") from exc
            try:
                parsed = parse(record)
            except _MALFORMED as exc:
                raise SchemaError(f"{path}:{lineno}: malformed {name}: {exc}") from exc
            yield parsed


def _iter_jsonl(path, kind: str, parse, name: str):
    records = _jsonl_records(path, kind, parse, name)
    header = next(records)
    return header, records


def write_lane_frames(path, frames, config: dict | None = None) -> None:
    _write_jsonl(path, "lane_frames", config, (_frame_to_dict(f) for f in frames))


def iter_lane_frames(path):
    """(header, iterator of LaneFrame); the header is checked before this returns.

    The iterator reads, parses and validates one frame per step and
    raises SchemaError at the first malformed line or frame.
    """
    return _iter_jsonl(path, "lane_frames", _frame_from_dict, "lane frame")


def read_lane_frames(path):
    header, frames = iter_lane_frames(path)
    return list(frames), header


def write_detections(path, frames, config: dict | None = None) -> None:
    """frames: iterable of (frame_id, timestamp_s, [(pixels (k, 2), category), ...])."""
    def records():
        for frame_id, timestamp_s, detections in frames:
            yield {
                "frame_id": frame_id,
                "timestamp_s": timestamp_s,
                "detections": [
                    {"category": int(category), "points": _encode_points(px, 2)}
                    for px, category in detections
                ],
            }
    _write_jsonl(path, "detections_2d", config, records())


def iter_detections(path):
    """(header, iterator of (frame_id, timestamp_s, [(pixels, category), ...])), one frame per step."""
    return _iter_jsonl(path, "detections_2d", _detection_frame_from_dict, "detection record")


def read_detections(path):
    header, frames = iter_detections(path)
    return list(frames), header


def write_trajectory(path, traj: Trajectory, config: dict | None = None) -> None:
    _write_json(path, "trajectory", config, {"poses": [
        {"timestamp_s": float(t), "pose": np.asarray(p.matrix).ravel().tolist()}
        for t, p in zip(traj.timestamps, traj.poses)
    ]})


def _trajectory_from_dict(doc: dict) -> Trajectory:
    records = [_object(p, {"timestamp_s", "pose"}, "pose record")
               for p in _array(_object(doc, _HEADER_KEYS | {"poses"}, "trajectory")["poses"], "poses")]
    stamps = [_finite(p["timestamp_s"], "timestamp_s") for p in records]
    poses = [EgoPose(_finite_matrix(p["pose"], "pose")) for p in records]
    return Trajectory(np.array(stamps, dtype=float), poses)


def read_trajectory(path) -> Trajectory:
    return _read_json(path, "trajectory", _trajectory_from_dict, "trajectory")


def write_camera(path, cam: CameraModel, config: dict | None = None) -> None:
    _write_json(path, "camera", config, _camera_to_dict(cam))


def read_camera(path) -> CameraModel:
    return _read_json(path, "camera", lambda doc: _camera_from_dict(
        _object(doc, _HEADER_KEYS | _CAMERA_KEYS, "camera")), "camera file")


def _read_json(path, kind: str, parse, name: str):
    """`parse` of the checked JSON document at `path`; a document that `parse`
    rejects is reported as a malformed `name`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or text that is not UTF-8
            raise SchemaError(f"{path}: malformed JSON: {exc}") from exc
    _check_document(path, doc, kind)
    try:
        return parse(doc)
    except _MALFORMED as exc:
        raise SchemaError(f"{path}: malformed {name}: {exc}") from exc


def write_json_report(path, report: dict) -> None:
    _write_lines(path, [_dump({"schema_version": SCHEMA_VERSIONS["report"], **report})])
