"""Command-line entry point wiring the library into reproducible workflows.

Subcommands:
  synth          generate a synthetic scene (ground truth, trajectory, camera, 2D detections)
  autolabel      trajectory + detections -> per-frame 3D lane labels
  eval           predictions vs ground truth -> metrics report (JSON + table)
  spline         fit lane polylines to control points and resample them
  masks          attention mask statistics and active-fraction report
  temporal-demo  memory queue + moving-average consistency losses over a synthetic sequence

Every subcommand accepts --config pointing at a JSON file that supplies
defaults; explicit flags override file values.  All runs are
deterministic given config and seed, and every output file embeds the
schema version plus the config that produced it.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import attention, frames, losses, metrics, splines, synth
from .autolabel import CameraModel, LineTracker, build_surface, emit_frame_labels, lift_detections
from .frames import Lane, LaneFrame, SchemaError
from .temporal import MemoryQueue


def _fail(message: str) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return 2


class _Options:
    """Resolution order: explicit flag, config-file entry, built-in default."""

    def __init__(self, args):
        self.args = args
        self.config = {}
        if getattr(args, "config", None):
            with open(args.config, "r", encoding="utf-8") as fh:
                self.config = json.load(fh)
            if not isinstance(self.config, dict):
                raise ValueError(f"{args.config}: expected a JSON object, "
                                 f"got {type(self.config).__name__}")
        self.resolved = {}

    def get(self, name, default):
        value = getattr(self.args, name.replace("-", "_"), None)
        if value is None:
            value = self.config.get(name, default)
        if isinstance(default, (list, tuple)) and not isinstance(value, (list, tuple)):
            value = [value]
        self.resolved[name] = value
        return value


def _default_camera() -> CameraModel:
    return CameraModel.level_camera()


def cmd_synth(args) -> int:
    opts = _Options(args)
    spec = synth.SceneSpec(
        num_lanes=int(opts.get("num-lanes", 4)),
        lane_spacing=float(opts.get("lane-spacing", 3.5)),
        curvature=tuple(float(c) for c in opts.get("curvature", (0.0, 0.0, 0.0))),
        elevation=(0.0, float(opts.get("grade", 0.0))),
        frames=int(opts.get("frames", 100)),
        speed=float(opts.get("speed", 10.0)),
        frame_interval=float(opts.get("frame-interval", 0.1)),
        seed=int(opts.get("seed", 0)),
        lane_length=float(opts.get("lane-length", 400.0)),
    )
    noise = float(opts.get("pixel-noise", 0.0))
    y_max = float(opts.get("label-range", 250.0))
    world = synth.gen_scene(spec)
    cam = _default_camera()
    config = dict(sorted(opts.resolved.items()))

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


def cmd_autolabel(args) -> int:
    opts = _Options(args)
    near_range = float(opts.get("near-range", 25.0))
    label_range = float(opts.get("label-range", 250.0))
    station_spacing = float(opts.get("station-spacing", 2.0))
    gate = float(opts.get("gate", 1.0))
    min_hits = int(opts.get("min-hits", 3))

    traj = frames.read_trajectory(args.trajectory)
    cam = frames.read_camera(args.camera)
    _, det_frames = frames.iter_detections(args.detections)
    surf = build_surface(traj)
    tracker = LineTracker(surf, station_spacing=station_spacing, gate=gate,
                          min_hits=min_hits, lead=label_range + 30.0)
    # Labels need every frame's detections tracked first; keep only what emission needs.
    frame_times = []
    for frame_id, timestamp, detections in det_frames:
        if not 0 <= frame_id < len(traj):
            raise SchemaError(f"detection frame_id {frame_id!r} is not a pose index of the "
                              f"{len(traj)}-pose trajectory")
        tracker.step(lift_detections(detections, cam, traj.poses[frame_id], surf,
                                     near_range=near_range))
        frame_times.append((frame_id, timestamp))

    label_frames = (
        LaneFrame(frame_id=frame_id, timestamp_s=timestamp, pose=traj.poses[frame_id],
                  lanes=[Lane(lane_id=i, category=c, points=p) for i, c, p
                         in emit_frame_labels(tracker, traj.poses[frame_id], max_range=label_range)],
                  camera=cam)
        for frame_id, timestamp in frame_times)
    frames.write_lane_frames(args.out, label_frames, dict(sorted(opts.resolved.items())))
    print(json.dumps({"tracks": len(tracker.mature_tracks()), "frames": len(frame_times),
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
    """Pass frames on while their ids strictly increase, reading one frame ahead.

    A frame is yielded only after its successor has been read, so a
    duplicate id raises _Unordered before its first frame is used.
    """
    previous = None
    for frame in lane_frames:
        if previous is not None:
            if frame.frame_id <= previous.frame_id:
                raise _Unordered
            yield previous
        previous = frame
    if previous is not None:
        yield previous


def _pairs_in_order(pred_path, gt_path):
    """The pairs of `_pairs_by_id`, found by walking both files together.

    Holds two frames of each file at a time.  Raises _Unordered,
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


def cmd_eval(args) -> int:
    opts = _Options(args)
    cfg = metrics.MatchConfig(
        point_threshold=float(opts.get("threshold", 1.5)),
        match_fraction=float(opts.get("match-fraction", 0.75)),
        y_min=float(opts.get("y-min", 0.0)),
        y_max=float(opts.get("y-max", 100.0)),
        y_step=float(opts.get("y-step", 2.0)),
        chamfer_threshold=float(opts.get("chamfer-threshold", 0.3)),
    )
    try:
        acc = _accumulate(cfg, _pairs_in_order(args.pred, args.gt))
    except _Unordered:
        # Same pairs, added in the same order, so the same report bytes.
        acc = _accumulate(cfg, _pairs_by_id(args.pred, args.gt))
    report = acc.report()
    report["config"] = dict(sorted(opts.resolved.items()))
    if args.out:
        frames.write_json_report(args.out, report)
    print(_format_table(report))
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_spline(args) -> int:
    opts = _Options(args)
    cfg = splines.CurveConfig(
        m=int(opts.get("control-points", 20)),
        y_start=float(opts.get("y-start", 3.0)),
        y_end=float(opts.get("y-end", 103.0)),
        samples=int(opts.get("samples", 100)),
    )
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
                if np.count_nonzero(keep) < cfg.m:
                    continue
                try:
                    control = splines.fit_control_points(pts[keep], cfg)
                except splines.RankDeficientFit:
                    continue  # e.g. a lane that ends before the last knot span
                lanes.append(Lane(lane_id=lane.lane_id, category=lane.category,
                                  points=splines.evaluate_curve(control, basis)))
            written += 1
            yield LaneFrame(frame_id=f.frame_id, timestamp_s=f.timestamp_s,
                            pose=f.pose, lanes=lanes, camera=f.camera)

    frames.write_lane_frames(args.out, fitted(), dict(sorted(opts.resolved.items())))
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


def cmd_masks(args) -> int:
    opts = _Options(args)
    n = int(opts.get("lanes", 40))
    m = int(opts.get("points", 20))
    history = int(opts.get("history", 0))
    keep = int(opts.get("keep", 10))
    k_nearest = int(opts.get("k-nearest", 10))
    seed = int(opts.get("seed", 0))

    if m < 4:  # neighbour tangents come from a cubic spline basis over each lane's points
        raise ValueError(f"--points must be at least 4, got {m}")
    if history < 0 or keep < 0:
        raise ValueError(f"history and keep must be >= 0, got {history} and {keep}")

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
        rng = np.random.default_rng(seed)
        mem_pts = rng.uniform(-10, 110, size=(memory_entries, 4))
        memory_degree = attention.memory_index(pts.reshape(-1, 4), mem_pts,
                                               k_nearest=k_nearest).shape[1]
        report["memory_row_degree"] = memory_degree
    rows = n * m
    report["active_fraction"] = (rows * (same_degree + neighbor_degree + memory_degree)
                                 / (rows * (n * m + memory_entries)))
    report["sparsity"] = 1.0 - report["active_fraction"]
    if args.out:
        frames.write_json_report(args.out, {"report": report,
                                            "config": dict(sorted(opts.resolved.items()))})
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_temporal_demo(args) -> int:
    opts = _Options(args)
    n_frames = int(opts.get("frames", 120))
    n_lanes = int(opts.get("lanes", 4))
    m = int(opts.get("control-points", 20))
    grade = float(opts.get("grade", 0.0))
    alpha = float(opts.get("alpha", 0.5))
    history = int(opts.get("history", 3))
    keep = int(opts.get("keep", 10))
    occl_start = int(opts.get("occlusion-start", 40))
    occl_frames = int(opts.get("occlusion-frames", 30))
    perturb = float(opts.get("perturb", 0.0))
    seed = int(opts.get("seed", 0))
    weights = losses.LossWeights.from_config(opts.config.get("weights", {}))

    spec = synth.SceneSpec(num_lanes=n_lanes, frames=n_frames, seed=seed,
                           curvature=(0.0,), elevation=(0.0, grade))
    world = synth.gen_scene(spec)
    curve_cfg = splines.CurveConfig(m=m, y_start=3.0, y_end=103.0)
    y_grid = np.linspace(curve_cfg.y_start, curve_cfg.y_end, 51)
    rng = np.random.default_rng(seed)

    queue = MemoryQueue(capacity=history)
    tracker = losses.EmaTracker(y_grid, alpha=alpha)
    traces = []
    for f in range(spec.frames):
        pose = world.trajectory.poses[f]
        lanes = world.lanes_in_frame(f, y_min=curve_cfg.y_start, y_max=curve_cfg.y_end)
        controls = []
        for _, _, pts in lanes:
            control = splines.fit_control_points(pts, curve_cfg)
            if perturb > 0 and occl_start <= f < occl_start + occl_frames:
                control = control.copy()
                control[:, 0] += rng.normal(0.0, perturb)
            controls.append(control)
        controls = np.array(controls)
        cur_x, cur_z, cur_v = losses.resample_curves_on_grid(controls, curve_cfg, y_grid)
        temporal = tracker.step(cur_x, cur_z, cur_v, pose)
        embeddings = np.zeros((controls.shape[0], curve_cfg.m, 8))
        confidences = np.linspace(1.0, 0.5, controls.shape[0])
        queue.push_frame(controls, embeddings, confidences, pose, f,
                         keep=min(keep, controls.shape[0]))
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
        frames.write_json_report(args.out, {"traces": traces,
                                            "config": dict(sorted(opts.resolved.items()))})
    total = sum(t["temporal_loss"] for t in traces)
    print(json.dumps({"total_temporal_loss": total, "frames": spec.frames}, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lanekit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", default=None, help="JSON config file with defaults")

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("out_prefix", help="output path prefix for the generated files")
    add_config(p)
    p.add_argument("--num-lanes", type=int)
    p.add_argument("--lane-spacing", type=float)
    p.add_argument("--curvature", type=float, nargs="*",
                   help="centerline x(y) polynomial coefficients, low order first")
    p.add_argument("--grade", type=float, help="constant elevation slope dz/dy")
    p.add_argument("--frames", type=int)
    p.add_argument("--speed", type=float)
    p.add_argument("--frame-interval", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--lane-length", type=float)
    p.add_argument("--pixel-noise", type=float)
    p.add_argument("--label-range", type=float)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("autolabel", help="lift and track detections into 3D labels")
    add_config(p)
    p.add_argument("--trajectory", required=True)
    p.add_argument("--camera", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--near-range", type=float)
    p.add_argument("--label-range", type=float)
    p.add_argument("--station-spacing", type=float)
    p.add_argument("--gate", type=float)
    p.add_argument("--min-hits", type=int)
    p.set_defaults(func=cmd_autolabel)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    add_config(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--threshold", type=float)
    p.add_argument("--match-fraction", type=float)
    p.add_argument("--y-min", type=float)
    p.add_argument("--y-max", type=float)
    p.add_argument("--y-step", type=float)
    p.add_argument("--chamfer-threshold", type=float)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("spline", help="fit lane polylines to spline control points")
    add_config(p)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--control-points", type=int)
    p.add_argument("--y-start", type=float)
    p.add_argument("--y-end", type=float)
    p.add_argument("--samples", type=int)
    p.set_defaults(func=cmd_spline)

    p = sub.add_parser("masks", help="attention mask statistics")
    add_config(p)
    p.add_argument("--lanes", type=int)
    p.add_argument("--points", type=int)
    p.add_argument("--history", type=int, help="memory frames (0 disables memory)")
    p.add_argument("--keep", type=int, help="lanes kept per memory frame")
    p.add_argument("--k-nearest", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_masks)

    p = sub.add_parser("temporal-demo",
                       help="memory + consistency losses on a synthetic sequence")
    add_config(p)
    p.add_argument("--frames", type=int)
    p.add_argument("--lanes", type=int)
    p.add_argument("--control-points", type=int)
    p.add_argument("--grade", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--history", type=int)
    p.add_argument("--keep", type=int)
    p.add_argument("--occlusion-start", type=int)
    p.add_argument("--occlusion-frames", type=int)
    p.add_argument("--perturb", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_temporal_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, OSError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
