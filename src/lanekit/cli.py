"""Command-line entry point wiring the library into reproducible workflows.

Subcommands:
  synth          generate a synthetic scene (ground truth, trajectory, camera, 2D detections)
  autolabel      trajectory + detections -> per-frame 3D lane labels
  eval           predictions vs ground truth -> metrics report (JSON + table)
  spline         fit lane polylines to control points and resample them
  masks          attention mask statistics and active-fraction report
  temporal-demo  memory queue + moving-average consistency losses over a synthetic sequence

Every subcommand accepts --config pointing at a JSON object that supplies
defaults; explicit flags override file values.  Its keys are the flag
names without the leading "--" and take the flag's type: an int, a
finite number, or (for --curvature) a list of finite numbers, where one
number stands for a one-element list.  `temporal-demo` also reads
"weights", an object of LossWeights fields, which has no flag.  Unknown
keys, values of the wrong type and values outside an option's bounds
exit with code 2.  All runs are deterministic given config and seed, and
every output file embeds the schema version plus the resolved config:
every option's value as used, which given back as --config reproduces
the run.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import attention, frames, losses, metrics, splines, synth
from .autolabel import (CameraModel, LineTracker, build_surface, emit_frame_labels, lift_detections,
                        mature_polylines)
from .frames import Lane, LaneFrame, SchemaError
from .temporal import MemoryQueue


def _fail(message: str) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return 2


def _float(value, name: str) -> float:
    try:
        return float(frames._finite(value, name))
    except OverflowError as exc:  # an int beyond the float range
        raise ValueError(f"{name}: {exc}") from None


def _floats(value, name: str) -> tuple:
    return tuple(_float(v, name) for v in (value if isinstance(value, list) else [value]))


def _weights(value, name: str) -> dict:
    return vars(losses.LossWeights.from_config(value))


# The kinds that have a flag, with their argparse keywords.
_FLAG_KINDS = {frames._int: {"type": int}, _float: {"type": float},
               _floats: {"type": float, "nargs": "*"}}

# Each subcommand's tunable options: name -> (kind, default[, bounds[, help]]).
# A kind checks and converts a flag or config value, naming the option.  Bounds
# are a least value or an interval such as "(0, inf)" or "[0, 1]".
OPTIONS = {
    "synth": {
        "num-lanes": (frames._int, 4, 1),
        "lane-spacing": (_float, 3.5, "(0, inf)"),
        "curvature": (_floats, [0.0, 0.0, 0.0], None,
                      "centerline x(y) polynomial coefficients, low order first"),
        "grade": (_float, 0.0, None, "constant elevation slope dz/dy"),
        "frames": (frames._int, 100, 1),
        "speed": (_float, 10.0, "(0, inf)"),
        "frame-interval": (_float, 0.1, "(0, inf)"),
        "seed": (frames._int, 0, 0),
        "lane-length": (_float, 400.0, 0.5, "centerline length in m, sampled every 0.5 m"),
        "pixel-noise": (_float, 0.0, 0.0),
        "label-range": (_float, 250.0, "(0, inf)"),
    },
    "autolabel": {
        "near-range": (_float, 25.0, "(0, inf)"),
        "label-range": (_float, 250.0, "(0, inf)"),
        "station-spacing": (_float, 2.0, "(0, inf)"),
        "gate": (_float, 1.0, "(0, inf)"),
        "min-hits": (frames._int, 3, 1),
    },
    "eval": {
        "threshold": (_float, 1.5),
        "match-fraction": (_float, 0.75),
        "y-min": (_float, 0.0),
        "y-max": (_float, 100.0),
        "y-step": (_float, 2.0),
        "chamfer-threshold": (_float, 0.3),
    },
    "spline": {
        "control-points": (frames._int, 20, 4),
        "y-start": (_float, 3.0),
        "y-end": (_float, 103.0),
        "samples": (frames._int, 100),
    },
    "masks": {
        "lanes": (frames._int, 40, 1),
        # neighbour tangents come from a cubic spline basis over each lane's points
        "points": (frames._int, 20, 4),
        "history": (frames._int, 0, 0, "memory frames (0 disables memory)"),
        "keep": (frames._int, 10, 0, "lanes kept per memory frame"),
        "k-nearest": (frames._int, 10, 0),
        "seed": (frames._int, 0, 0),
    },
    "temporal-demo": {
        "frames": (frames._int, 120, 1),
        "lanes": (frames._int, 4, 1),
        # CurveConfig needs as many dense samples (100 by default) as control points
        "control-points": (frames._int, 20, "[4, 100]"),
        "grade": (_float, 0.0),
        "alpha": (_float, 0.5, "[0, 1]"),
        "history": (frames._int, 3, 1),
        "keep": (frames._int, 10, 0),
        "occlusion-start": (frames._int, 40, 0),
        "occlusion-frames": (frames._int, 30, 0),
        "perturb": (_float, 0.0, 0.0),
        "seed": (frames._int, 0, 0),
        "weights": (_weights, {}),
    },
}


def _check(option, value, label: str):
    """`value` converted by the option's kind and held to its bounds, if it has any."""
    kind, _, *rest = option
    value = kind(value, label)
    bounds = rest[0] if rest else None
    if isinstance(bounds, str):
        low, high = (float(end) for end in bounds[1:-1].split(","))
        if not ((low <= value if bounds[0] == "[" else low < value)
                and (value <= high if bounds[-1] == "]" else value < high)):
            raise ValueError(f"{label} must lie in {bounds}, got {value!r}")
    elif bounds is not None and not value >= bounds:
        raise ValueError(f"{label} must be at least {bounds}, got {value!r}")
    return value


def _resolve(args) -> dict:
    """Each option of the subcommand: its flag, else its --config entry, else its default.

    Every value is checked by its option's kind and bounds, a
    config entry also when a flag overrides it, and config keys that
    name no option are rejected.  The result, in key order, is what the
    subcommand runs with and records.
    """
    table = OPTIONS[args.command]
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"{args.config}: expected a JSON object, got {type(config).__name__}")
        unknown = sorted(set(config) - set(table))
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {unknown}; known: {sorted(table)}")
    resolved = {}
    for name, option in sorted(table.items()):
        value, label = (config[name], f"config key {name!r}") if name in config else (option[1], name)
        resolved[name] = _check(option, value, label)
        flag = getattr(args, name.replace("-", "_"), None)
        if flag is not None:
            resolved[name] = _check(option, flag, f"--{name}")
    return resolved


def _config(cls, config: dict, **options):
    """`cls` built with each field set to the named option's value.  The class
    owns its rules; a rule that fails names the options it was built from."""
    try:
        return cls(**{field: config[name] for field, name in options.items()})
    except ValueError as exc:
        given = ", ".join(f"--{name} {config[name]}" for name in options.values())
        raise ValueError(f"{given}: {exc}") from None


def cmd_synth(args, config: dict) -> int:
    spec = synth.SceneSpec(
        num_lanes=config["num-lanes"],
        lane_spacing=config["lane-spacing"],
        curvature=config["curvature"],
        elevation=(0.0, config["grade"]),
        frames=config["frames"],
        speed=config["speed"],
        frame_interval=config["frame-interval"],
        seed=config["seed"],
        lane_length=config["lane-length"],
    )
    noise, y_max = config["pixel-noise"], config["label-range"]
    world = synth.gen_scene(spec)
    cam = CameraModel.level_camera()

    frames.write_trajectory(args.out_prefix + ".trajectory.json", world.trajectory, config)
    frames.write_camera(args.out_prefix + ".camera.json", cam, config)

    stamps = world.trajectory.timestamps
    gt_frames = (LaneFrame(frame_id=f, timestamp_s=float(stamps[f]), pose=world.trajectory.poses[f],
                           lanes=[Lane(lane_id=i, category=c, points=p)
                                  for i, c, p in world.lanes_in_frame(f, y_max=y_max)],
                           camera=cam)
                 for f in range(spec.frames))
    det_frames = ((f, float(stamps[f]), synth.render_2d(world, f, cam, pixel_noise_sigma=noise))
                  for f in range(spec.frames))
    frames.write_lane_frames(args.out_prefix + ".gt.jsonl", gt_frames, config)
    frames.write_detections(args.out_prefix + ".detections.jsonl", det_frames, config)
    print(json.dumps({"frames": spec.frames, "lanes": spec.num_lanes,
                      "out_prefix": args.out_prefix}, sort_keys=True))
    return 0


def cmd_autolabel(args, config: dict) -> int:
    near_range, label_range = config["near-range"], config["label-range"]
    traj = frames.read_trajectory(args.trajectory)
    cam = frames.read_camera(args.camera)
    _, det_frames = frames.iter_detections(args.detections)
    surf = build_surface(traj)
    tracker = LineTracker(surf, station_spacing=config["station-spacing"], gate=config["gate"],
                          min_hits=config["min-hits"], lead=label_range + 30.0)
    # Labels need every frame's detections tracked first; keep only what emission needs.
    frame_times = []
    for frame_id, timestamp, detections in det_frames:
        if not 0 <= frame_id < len(traj):
            raise SchemaError(f"detection frame_id {frame_id!r} is not a pose index of the "
                              f"{len(traj)}-pose trajectory")
        tracker.step(lift_detections(detections, cam, traj.poses[frame_id], surf,
                                     near_range=near_range))
        frame_times.append((frame_id, timestamp))

    polylines = mature_polylines(tracker)
    label_frames = (
        LaneFrame(frame_id=frame_id, timestamp_s=timestamp, pose=traj.poses[frame_id],
                  lanes=[Lane(lane_id=i, category=c, points=p) for i, c, p
                         in emit_frame_labels(tracker, traj.poses[frame_id], max_range=label_range,
                                              polylines=polylines)],
                  camera=cam)
        for frame_id, timestamp in frame_times)
    frames.write_lane_frames(args.out, label_frames, config)
    print(json.dumps({"tracks": len(polylines), "frames": len(frame_times),
                      "out": args.out}, sort_keys=True))
    return 0


def _format_table(report: dict) -> str:
    errors = report["errors"]
    headers = ["F1", "Precision", "Recall"]
    values = [f"{report['f1']:.4f}", f"{report['precision']:.4f}", f"{report['recall']:.4f}"]
    for label, entry in errors.items():
        headers.append(f"X-err {label}")
        headers.append(f"Z-err {label}")
        if entry is None:
            values.extend(["-", "-"])
        else:
            values.extend([f"{entry['x_error']:.4f}", f"{entry['z_error']:.4f}"])
    headers.append("Vis-IoU")
    values.append("-" if report["vis_iou"] is None else f"{report['vis_iou']:.4f}")
    headers.append("CD")
    values.append(f"{report['chamfer']['mean_cd']:.4f}")
    widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
    head = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    body = "  ".join(v.ljust(w) for v, w in zip(values, widths))
    return head + "\n" + body


class _Unordered(Exception):
    """Frame ids that do not strictly increase within one file."""


def _ascending(lane_frames):
    """Pass frames on, raising _Unordered at the first whose id does not exceed the last one's."""
    last = None
    for frame in lane_frames:
        if last is not None and frame.frame_id <= last:
            raise _Unordered
        last = frame.frame_id
        yield frame


def _pairs_in_order(pred_path, gt_path):
    """The pairs of `_pairs_by_id`, found by walking both files together.

    Holds one frame of each file at a time.  Raises _Unordered,
    possibly after yielding pairs, when either file's ids do not
    strictly increase; every frame of both files is read and checked.
    """
    _, preds = frames.iter_lane_frames(pred_path)
    _, gts = frames.iter_lane_frames(gt_path)
    gts = _ascending(gts)
    gf = next(gts, None)
    for pf in _ascending(preds):
        while gf is not None and gf.frame_id < pf.frame_id:
            gf = next(gts, None)
        if gf is not None and gf.frame_id == pf.frame_id:
            yield pf, gf
    for _ in gts:  # ground truth past the last prediction is still checked, as by-id pairing does
        pass


def _pairs_by_id(pred_path, gt_path):
    """(prediction, ground truth) frames in prediction-file order, paired by frame id.

    A prediction frame meets the last ground-truth frame with its id and
    is skipped when there is none.  Holds both files in memory.
    """
    pred_frames, _ = frames.read_lane_frames(pred_path)
    gt_frames, _ = frames.read_lane_frames(gt_path)
    gt_by_id = {f.frame_id: f for f in gt_frames}
    return [(pf, gt_by_id[pf.frame_id]) for pf in pred_frames if pf.frame_id in gt_by_id]


def _accumulate(cfg: metrics.MatchConfig, pairs) -> metrics.EvalAccumulator:
    acc = metrics.EvalAccumulator(cfg=cfg)
    for pf, gf in pairs:
        acc.add_frame([l.points for l in pf.lanes], [l.points for l in gf.lanes])
    return acc


def cmd_eval(args, config: dict) -> int:
    cfg = _config(metrics.MatchConfig, config, point_threshold="threshold",
                  match_fraction="match-fraction", y_min="y-min", y_max="y-max", y_step="y-step",
                  chamfer_threshold="chamfer-threshold")
    try:
        acc = _accumulate(cfg, _pairs_in_order(args.pred, args.gt))
    except _Unordered:
        # Start over, dropping the pairs added so far.  Same pairs, added in
        # the same order, so the same report bytes.
        acc = _accumulate(cfg, _pairs_by_id(args.pred, args.gt))
    report = acc.report()
    report["config"] = config
    if args.out:
        frames.write_json_report(args.out, report)
    print(_format_table(report))
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_spline(args, config: dict) -> int:
    cfg = _config(splines.CurveConfig, config, m="control-points", y_start="y-start", y_end="y-end",
                  samples="samples")
    _, in_frames = frames.iter_lane_frames(args.input)
    basis = splines.build_basis(cfg)
    written = 0

    def fitted():
        nonlocal written
        for f in in_frames:
            lanes = []
            for lane in f.lanes:
                pts = lane.points
                keep = (pts[:, 1] >= cfg.y_start) & (pts[:, 1] <= cfg.y_end)
                try:
                    control = splines.fit_control_points(pts[keep], cfg)
                except splines.RankDeficientFit:
                    continue  # e.g. too few samples, or a lane that ends before the last knot span
                lanes.append(Lane(lane_id=lane.lane_id, category=lane.category,
                                  points=splines.evaluate_curve(control, basis)))
            written += 1
            yield LaneFrame(frame_id=f.frame_id, timestamp_s=f.timestamp_s,
                            pose=f.pose, lanes=lanes, camera=f.camera)

    frames.write_lane_frames(args.out, fitted(), config)
    print(json.dumps({"frames": written, "out": args.out}, sort_keys=True))
    return 0


def _canonical_lane_points(n_lanes: int, m_points: int, spacing: float = 3.5,
                           y_start: float = 3.0, y_end: float = 103.0) -> np.ndarray:
    """Straight parallel lane layout used for mask statistics."""
    y = np.linspace(y_start, y_end, m_points)
    pts = np.zeros((n_lanes, m_points, 4))
    for i in range(n_lanes):
        pts[i, :, 0] = (i - (n_lanes - 1) / 2.0) * spacing
        pts[i, :, 1] = y
        pts[i, :, 3] = 1.0
    return pts


def cmd_masks(args, config: dict) -> int:
    n, m, history, keep = config["lanes"], config["points"], config["history"], config["keep"]

    # Row degrees come from the index lists' shapes; no (queries x keys) mask is built.
    pts = _canonical_lane_points(n, m)
    same_degree = attention.same_line_index(n, m).shape[1]
    neighbor_degree = attention.neighbor_line_index(pts).shape[1]
    memory_entries = history * keep * m
    report = {
        "lanes": n,
        "points": m,
        "same_line_row_degree": same_degree,
        "neighbor_row_degree": neighbor_degree,
        "memory_entries": memory_entries,
    }
    memory_degree = 0
    if memory_entries:
        rng = np.random.default_rng(config["seed"])
        mem_pts = rng.uniform(-10, 110, size=(memory_entries, 4))
        memory_degree = attention.memory_index(pts.reshape(-1, 4), mem_pts,
                                               k_nearest=config["k-nearest"]).shape[1]
        report["memory_row_degree"] = memory_degree
    rows = n * m
    report["active_fraction"] = (rows * (same_degree + neighbor_degree + memory_degree)
                                 / (rows * (n * m + memory_entries)))
    report["sparsity"] = 1.0 - report["active_fraction"]
    if args.out:
        frames.write_json_report(args.out, {"report": report, "config": config})
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_temporal_demo(args, config: dict) -> int:
    perturb, occl_start = config["perturb"], config["occlusion-start"]
    weights = losses.LossWeights(**config["weights"])
    curve_cfg = splines.CurveConfig(m=config["control-points"], y_start=3.0, y_end=103.0)
    # the lane covers the drive (1 m a frame), the curves' reach past the last pose and a margin
    spec = synth.SceneSpec(num_lanes=config["lanes"], frames=config["frames"], seed=config["seed"],
                           curvature=(0.0,), elevation=(0.0, config["grade"]),
                           lane_length=max(400.0, config["frames"] + curve_cfg.y_end + 20.0))
    world = synth.gen_scene(spec)
    y_grid = np.linspace(curve_cfg.y_start, curve_cfg.y_end, 51)
    rng = np.random.default_rng(config["seed"])

    queue = MemoryQueue(capacity=config["history"])
    tracker = losses.EmaTracker(y_grid, alpha=config["alpha"])
    traces = []
    for f in range(spec.frames):
        pose = world.trajectory.poses[f]
        lanes = world.lanes_in_frame(f, y_min=curve_cfg.y_start, y_max=curve_cfg.y_end)
        controls = []
        for _, _, pts in lanes:
            control = splines.fit_control_points(pts, curve_cfg)
            if perturb > 0 and occl_start <= f < occl_start + config["occlusion-frames"]:
                control = control.copy()
                control[:, 0] += rng.normal(0.0, perturb)
            controls.append(control)
        controls = np.array(controls)
        cur_x, cur_z, cur_v = losses.resample_curves_on_grid(controls, curve_cfg, y_grid)
        temporal = tracker.step(cur_x, cur_z, cur_v, pose)
        embeddings = np.zeros((controls.shape[0], curve_cfg.m, 8))
        confidences = np.linspace(1.0, 0.5, controls.shape[0])
        queue.push_frame(controls, embeddings, confidences, pose, f,
                         keep=min(config["keep"], controls.shape[0]))
        parallel, smooth, curv = losses.spatial_regularization(controls, curve_cfg)
        breakdown = losses.LossBreakdown(spatial_parallel=parallel, spatial_smooth=smooth,
                                         spatial_curvature=curv, temporal=temporal,
                                         weights=weights)
        traces.append({
            "frame": f,
            "temporal_loss": temporal,
            "spatial_parallel": parallel,
            "spatial_smooth": smooth,
            "spatial_curvature": curv,
            "weighted_total": breakdown.total,
            "memory_frames": len(queue),
            "memory_entries": queue.entry_count,
        })
    if args.out:
        frames.write_json_report(args.out, {"traces": traces, "config": config})
    total = sum(t["temporal_loss"] for t in traces)
    print(json.dumps({"total_temporal_loss": total, "frames": spec.frames}, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lanekit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(command, func, summary):
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", default=None, help="JSON config file with defaults")
        for name, (kind, default, *rest) in OPTIONS[command].items():
            if kind in _FLAG_KINDS:
                p.add_argument("--" + name, **_FLAG_KINDS[kind], help=" ".join([*rest[1:], f"(default {default})"]))
        p.set_defaults(func=func)
        return p

    p = add_command("synth", cmd_synth, "generate a synthetic scene")
    p.add_argument("out_prefix", help="output path prefix for the generated files")

    p = add_command("autolabel", cmd_autolabel, "lift and track detections into 3D labels")
    for path in ("--trajectory", "--camera", "--detections", "--out"):
        p.add_argument(path, required=True)

    p = add_command("eval", cmd_eval, "score predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", default=None)

    p = add_command("spline", cmd_spline, "fit lane polylines to spline control points")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)

    p = add_command("masks", cmd_masks, "attention mask statistics")
    p.add_argument("--out", default=None)

    p = add_command("temporal-demo", cmd_temporal_demo, "memory + consistency losses on a synthetic sequence")
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _resolve(args))
    except (SchemaError, OSError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
