"""Hypothesis fuzzing of the lane, detection, trajectory and camera
readers, of the CLI commands that read them, and of every subcommand's
--config document.

Small valid files from `lanekit synth` are mutated line by line (drop,
duplicate, swap, replace one JSON value) and byte by byte (flip,
truncate), and one detection's base64 pixel payload is swapped for
random text, non-ASCII text, base64 of a byte count that is not whole
(u, v) rows, or base64 of rows that hold NaN or infinity; and one value
of one record, most often a lane point coordinate, is replaced.  Readers may
only raise SchemaError, and a file that a reader accepts must re-encode
through its writer to the same records: equal values of the types the
format names, a number for a number and a bool only for a bool, and a
detection payload's bytes for its bytes.  Trajectory and camera
documents get one value replaced, or one key added to one of their
objects, and what their readers accept must re-encode to the same
document, header config aside.  `eval`, `spline` and
`autolabel` may only return 0 or 2, and a 2 leaves neither the output
nor its temporary file behind.  Config documents draw each known key's
value from the same replacements, sometimes with an unknown key; every
subcommand holds to the same exit contract.
"""

import base64
import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lanekit.autolabel import CameraModel
from lanekit.cli import OPTIONS, main
from lanekit.frames import (
    SchemaError,
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

REPLACEMENTS = ["x", "", [], [1], {}, None, float("nan"), float("inf"), True, 1.5,
                -1, 3, 10**6, 2**63, 10**400]
FUZZ = settings(max_examples=40, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """Prefix of a 3-frame, 2-lane synthetic scene."""
    prefix = tmp_path_factory.mktemp("fuzz") / "scene"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", str(prefix), "--frames", "3", "--num-lanes", "2", "--seed", "7",
                     "--lane-length", "60", "--pixel-noise", "1.0"]) == 0
    return str(prefix)


def _replace_value(data, line: str) -> str:
    """`line` with one JSON value, at a drawn depth, replaced by a drawn value."""
    try:
        doc = json.loads(line)
    except ValueError:
        return line
    parent, key, node = None, None, doc
    for _ in range(data.draw(st.integers(0, 6), label="depth")):
        if not isinstance(node, (dict, list)) or not node:
            break
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    value = data.draw(st.sampled_from(REPLACEMENTS), label="value")
    if parent is None:
        return json.dumps(value)
    parent[key] = value
    return json.dumps(doc)


def mutate(data, text: str) -> bytes:
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(0, 3), label="line edits")):
        if not lines:
            break
        op = data.draw(st.sampled_from(["drop", "duplicate", "swap", "replace"]), label="op")
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = data.draw(st.integers(0, len(lines) - 1), label="other line")
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] = _replace_value(data, lines[i])
    raw = bytearray("".join(line + "\n" for line in lines).encode("utf-8"))
    for _ in range(data.draw(st.integers(0, 2), label="byte flips")):
        if raw:
            raw[data.draw(st.integers(0, len(raw) - 1), label="byte")] ^= data.draw(
                st.integers(1, 255), label="mask")
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw)), label="length")]
    return bytes(raw)


def _read_text(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _records(path) -> list:
    """The records of a JSON-Lines file as its reader splits them (header and
    blank lines left out), each detection payload decoded to its bytes."""
    with open(path, "rb") as fh:
        lines = [raw.decode("utf-8") for raw in fh][1:]
    records = [json.loads(line) for line in lines if line.strip()]
    for record in records:
        for detection in record.get("detections", []):
            detection["points"] = base64.b64decode(detection["points"])
    return records


def _same(got, want) -> bool:
    """Equal decoded JSON, where an int or a float equals an int or a float of
    the same value, and any other value only one of its own type."""
    number = (int, float)
    if type(want) in number:
        return type(got) in number and got == want
    if type(got) is not type(want):
        return False
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_same(got[key], want[key]) for key in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_same, got, want))
    return got == want


WRITERS = {read_lane_frames: write_lane_frames, read_detections: write_detections}


def _assert_readers_raise_only_schema_errors(path, iter_fn, read_fn):
    """Both readers of `path` return or raise SchemaError, and what they
    accept re-encodes through the writer to the records it was read from."""
    try:
        _, records = iter_fn(path)
        for _ in records:
            pass
    except SchemaError:
        pass
    try:
        accepted, header = read_fn(path)
    except SchemaError:
        return
    written = f"{path}.written"
    WRITERS[read_fn](written, accepted, header.get("config"))
    got, want = _records(written), _records(path)
    assert len(got) == len(want) and all(map(_same, got, want)), (got, want)


@FUZZ
@given(data=st.data())
def test_lane_reader_raises_only_schema_errors(scene, data):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "frames.jsonl")
        with open(path, "wb") as fh:
            fh.write(mutate(data, _read_text(scene + ".gt.jsonl")))
        _assert_readers_raise_only_schema_errors(path, iter_lane_frames, read_lane_frames)


@FUZZ
@given(data=st.data())
def test_detection_reader_raises_only_schema_errors(scene, data):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "dets.jsonl")
        with open(path, "wb") as fh:
            fh.write(mutate(data, _read_text(scene + ".detections.jsonl")))
        _assert_readers_raise_only_schema_errors(path, iter_detections, read_detections)


def _leaves(node, path=()):
    """The paths of the values of decoded JSON that are neither objects nor arrays."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(child, path + (key,))
    else:
        yield path


def replace_leaf(data, text: str) -> str:
    """`text` with one drawn record's value at a drawn leaf, most often a lane
    point coordinate, replaced by a drawn value."""
    lines = text.splitlines()
    i = data.draw(st.integers(1, len(lines) - 1), label="record")
    record = json.loads(lines[i])
    *parents, key = data.draw(st.sampled_from(list(_leaves(record))), label="leaf")
    node = record
    for parent in parents:
        node = node[parent]
    node[key] = data.draw(st.sampled_from(REPLACEMENTS), label="value")
    lines[i] = json.dumps(record)
    return "".join(line + "\n" for line in lines)


@FUZZ
@given(data=st.data(), suffix=st.sampled_from([".gt.jsonl", ".detections.jsonl"]))
def test_one_replaced_value_is_refused_or_round_trips(scene, data, suffix):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "records.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(replace_leaf(data, _read_text(scene + suffix)))
        if suffix == ".gt.jsonl":
            _assert_readers_raise_only_schema_errors(path, iter_lane_frames, read_lane_frames)
        else:
            _assert_readers_raise_only_schema_errors(path, iter_detections, read_detections)


def _objects(node):
    """Every JSON object within decoded JSON, `node` included."""
    if isinstance(node, dict):
        yield node
    if isinstance(node, (dict, list)):
        for child in (node.values() if isinstance(node, dict) else node):
            yield from _objects(child)


# a camera file without the image size reads as the model's default size
CAMERA_DEFAULTS = {"width": CameraModel.width, "height": CameraModel.height}
DOCUMENTS = {".trajectory.json": (read_trajectory, write_trajectory, {}),
             ".camera.json": (read_camera, write_camera, CAMERA_DEFAULTS)}


@FUZZ
@given(data=st.data(), suffix=st.sampled_from(sorted(DOCUMENTS)), add_key=st.booleans())
def test_trajectory_and_camera_documents_are_refused_or_round_trip(scene, data, suffix, add_key):
    read, write, defaults = DOCUMENTS[suffix]
    text = _replace_value(data, _read_text(scene + suffix))
    if add_key:
        doc = json.loads(text)
        objects = list(_objects(doc))
        if objects:
            data.draw(st.sampled_from(objects), label="object")[data.draw(
                st.sampled_from(["extra", "poses", "pose", "fx", "width", "config"]), label="key")] = 1
        text = json.dumps(doc)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "document.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            value = read(path)
        except SchemaError:
            return
        written = os.path.join(work, "written.json")
        write(written, value)
        got, want = json.loads(_read_text(written)), {**defaults, **json.loads(text)}
        del got["config"]  # the header config is free-form and not part of the value read
        want.pop("config", None)
        assert _same(got, want), (got, want)


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


# what one detection's points payload is swapped for
PAYLOADS = st.one_of(
    st.text(max_size=24),
    st.text(st.characters(min_codepoint=0x80), min_size=1, max_size=8),
    st.binary(max_size=48).filter(lambda raw: len(raw) % 16).map(_b64),
    st.lists(st.sampled_from([float("nan"), float("inf"), -float("inf"), 480.0]), min_size=1, max_size=4)
    .map(lambda values: _b64(np.array(values + [float("nan")]).repeat(2).tobytes())),
)


def swap_payload(data, text: str) -> str:
    """`text` with the points payload of one drawn detection replaced by a drawn payload."""
    lines = text.splitlines()
    i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if '"points"' in line]), label="record")
    record = json.loads(lines[i])
    detection = data.draw(st.sampled_from(record["detections"]), label="detection")
    detection["points"] = data.draw(PAYLOADS, label="payload")
    lines[i] = json.dumps(record)
    return "".join(line + "\n" for line in lines)


def _run_cli(argv, *outs) -> int:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2)
    for out in outs:
        assert not os.path.exists(out + ".tmp")
        assert os.path.exists(out) == (code == 0)
    if code == 2:
        assert "error" in json.loads(stderr.getvalue())
    return code


@FUZZ
@given(data=st.data(), command=st.sampled_from(["eval-pred", "eval-gt", "spline"]))
def test_lane_commands_exit_cleanly(scene, data, command):
    with tempfile.TemporaryDirectory() as work:
        mutated = os.path.join(work, "frames.jsonl")
        with open(mutated, "wb") as fh:
            fh.write(mutate(data, _read_text(scene + ".gt.jsonl")))
        out = os.path.join(work, "out.json")
        gt = scene + ".gt.jsonl"
        argv = {
            "eval-pred": ["eval", "--pred", mutated, "--gt", gt, "--out", out],
            "eval-gt": ["eval", "--pred", gt, "--gt", mutated, "--out", out],
            "spline": ["spline", "--input", mutated, "--out", out],
        }[command]
        _run_cli(argv, out)


@FUZZ
@given(data=st.data())
def test_autolabel_exits_cleanly(scene, data):
    with tempfile.TemporaryDirectory() as work:
        dets = os.path.join(work, "dets.jsonl")
        with open(dets, "wb") as fh:
            fh.write(mutate(data, _read_text(scene + ".detections.jsonl")))
        out = os.path.join(work, "labels.jsonl")
        _run_cli(["autolabel", "--trajectory", scene + ".trajectory.json",
                  "--camera", scene + ".camera.json", "--detections", dets, "--out", out], out)


@FUZZ
@given(data=st.data())
def test_detection_payloads_fail_cleanly(scene, data):
    with tempfile.TemporaryDirectory() as work:
        dets = os.path.join(work, "dets.jsonl")
        with open(dets, "w", encoding="utf-8") as fh:
            fh.write(swap_payload(data, _read_text(scene + ".detections.jsonl")))
        _assert_readers_raise_only_schema_errors(dets, iter_detections, read_detections)
        out = os.path.join(work, "labels.jsonl")
        _run_cli(["autolabel", "--trajectory", scene + ".trajectory.json",
                  "--camera", scene + ".camera.json", "--detections", dets, "--out", out], out)


# Each subcommand's paths, plus flags for the options that set how much
# work a run does; the drawn config entries for those are checked, then
# overridden.
CONFIG_ARGV = {
    "synth": ["synth", "{work}/out", "--frames", "2", "--num-lanes", "2", "--lane-length", "40"],
    "autolabel": ["autolabel", "--trajectory", "{scene}.trajectory.json", "--camera", "{scene}.camera.json",
                  "--detections", "{scene}.detections.jsonl", "--out", "{work}/out",
                  "--label-range", "40", "--station-spacing", "2"],
    "eval": ["eval", "--pred", "{scene}.gt.jsonl", "--gt", "{scene}.gt.jsonl", "--out", "{work}/out",
             "--y-min", "0", "--y-max", "40", "--y-step", "2"],
    "spline": ["spline", "--input", "{scene}.gt.jsonl", "--out", "{work}/out",
               "--control-points", "6", "--samples", "20"],
    "masks": ["masks", "--out", "{work}/out", "--lanes", "3", "--points", "5", "--history", "1",
              "--keep", "2", "--k-nearest", "3"],
    "temporal-demo": ["temporal-demo", "--out", "{work}/out", "--frames", "3", "--lanes", "2",
                      "--control-points", "6", "--history", "1", "--keep", "2"],
}
CONFIG_OUTS = {"synth": [".gt.jsonl", ".detections.jsonl", ".trajectory.json", ".camera.json"]}
# The replacements, plus small numbers that most options accept, so
# that many runs get past the checks.
NUMBERS = st.sampled_from(REPLACEMENTS) | st.integers(0, 5) | st.floats(0.0, 2.0)
CONFIG_VALUES = (NUMBERS | st.lists(NUMBERS, max_size=3)
                 | st.dictionaries(st.sampled_from(["temporal", "regression", "bogus"]), NUMBERS, max_size=2))


@FUZZ
@given(data=st.data(), command=st.sampled_from(sorted(CONFIG_ARGV)))
def test_config_documents_exit_cleanly(scene, data, command):
    doc = {name: data.draw(CONFIG_VALUES, label=name)
           for name in data.draw(st.sets(st.sampled_from(sorted(OPTIONS[command])), max_size=3), label="keys")}
    unknown = data.draw(st.none() | st.sampled_from(["num_lanes", "bogus", "out"]), label="unknown key")
    if unknown is not None:
        doc[unknown] = 1
    with tempfile.TemporaryDirectory() as work:
        config = os.path.join(work, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = [arg.format(scene=scene, work=work) for arg in CONFIG_ARGV[command]]
        out = os.path.join(work, "out")
        code = _run_cli(argv + ["--config", config], *[out + suffix for suffix in CONFIG_OUTS.get(command, [""])])
        assert code == 2 or unknown is None
