"""In-memory span tracing of lanekit, installed from outside the package.

`install` replaces public lanekit functions and methods with wrappers
that record one span per call: name, start, end, parent span and the
operation id (a CLI stage invocation or a detector frame).  A function
is rebound in every lanekit module that holds it, because callers look
names up in their own module: `lanekit.cli` imports `lift_detections`,
`build_surface` and `emit_frame_labels` by name, and `attention` and
`losses` import `basis_matrix` by name.  Methods are patched on their
class, which every caller shares.

`layer_metrics` turns the recorded spans into the per-layer table.
This module imports lanekit only inside `install`, so the orchestrator
can aggregate spans without importing the package.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# span name -> (module, attribute) of every function or method it wraps
_FUNCTIONS = {
    "frames.read": [("lanekit.frames", "read_lane_frames"), ("lanekit.frames", "read_detections"),
                    ("lanekit.frames", "read_trajectory"), ("lanekit.frames", "read_camera")],
    "frames.write": [("lanekit.frames", "write_lane_frames"), ("lanekit.frames", "write_detections"),
                     ("lanekit.frames", "write_trajectory"), ("lanekit.frames", "write_camera"),
                     ("lanekit.frames", "write_json_report")],
    "synth.gen_scene": [("lanekit.synth", "gen_scene")],
    "synth.render_2d": [("lanekit.synth", "render_2d")],
    "autolabel.build_surface": [("lanekit.autolabel", "build_surface")],
    "autolabel.lift": [("lanekit.autolabel", "lift_detections")],
    "autolabel.emit": [("lanekit.autolabel", "emit_frame_labels")],
    "metrics.match": [("lanekit.metrics", "match_lanes")],
    "metrics.chamfer": [("lanekit.metrics", "unilateral_chamfer")],
    "splines.fit": [("lanekit.splines", "fit_control_points")],
    "splines.basis": [("lanekit.splines", "basis_matrix")],
    "splines.evaluate": [("lanekit.splines", "evaluate_curve")],
    "attention.same_mask": [("lanekit.attention", "same_line_mask")],
    "attention.neighbor_mask": [("lanekit.attention", "neighbor_line_mask")],
    "attention.memory_mask": [("lanekit.attention", "memory_mask")],
    "attention.masked_attention": [("lanekit.attention", "masked_attention")],
    "attention.layer": [("lanekit.attention", "spatio_temporal_layer")],
    "losses.combined": [("lanekit.losses", "combined_loss")],
    "losses.assign": [("lanekit.losses", "assign_proposals")],
    "losses.spatial": [("lanekit.losses", "spatial_regularization")],
}

# span name -> (module, class, method)
_METHODS = {
    "autolabel.track_step": ("lanekit.autolabel", "LineTracker", "step"),
    "temporal.view": ("lanekit.temporal", "MemoryQueue", "view"),
    "temporal.push": ("lanekit.temporal", "MemoryQueue", "push_frame"),
    "losses.ema_step": ("lanekit.losses", "EmaTracker", "step"),
}

LAYERS = ("cli", "frames", "synth", "autolabel", "metrics", "splines", "attention", "temporal", "losses")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Counters run after the span closes; each returns a dict of additive values.
# A counter that cannot read its call raises, so the operation fails rather
# than reporting a zero count.
def _count_read(tracer, args, kwargs, result):
    return {"bytes_read": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _count_write(tracer, args, kwargs, result):
    return {"bytes_written": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _count_lift(tracer, args, kwargs, result):
    rays = sum(len(pixels) for pixels, _ in _arg(args, kwargs, 0, "detections"))
    return {"rays": rays, "points_lifted": sum(len(points) for points, _ in result)}


def _count_track_step(tracer, args, kwargs, result):
    tracker = args[0]
    mature = sum(1 for track in tracker.tracks if track.hits >= tracker.min_hits)
    return {"tracks": len(tracker.tracks), "mature": mature}


def _count_emit(tracer, args, kwargs, result):
    return {"label_points": sum(len(points) for _, _, points in result)}


def _count_chamfer(tracer, args, kwargs, result):
    gt = _arg(args, kwargs, 0, "gt_points")
    pred = _arg(args, kwargs, 1, "pred_points")
    return {"point_pairs": len(gt) * len(pred)}


def _count_basis(tracer, args, kwargs, result):
    import numpy as np

    m = _arg(args, kwargs, 0, "m")
    sample_args = np.ascontiguousarray(np.asarray(_arg(args, kwargs, 1, "sample_args"), dtype=float).ravel())
    order = _arg(args, kwargs, 2, "order", 0)
    key = (m, order, sample_args.tobytes())
    new = key not in tracer.basis_keys
    tracer.basis_keys.add(key)
    return {"distinct": int(new)}


def _count_masked_attention(tracer, args, kwargs, result):
    import numpy as np

    mask = np.asarray(_arg(args, kwargs, 3, "mask"), dtype=bool)
    return {"useful": int(np.count_nonzero(mask)), "dense": int(mask.size)}


def _count_view(tracer, args, kwargs, result):
    return {"entries": len(result)}


_COUNTERS = {
    "frames.read": _count_read,
    "frames.write": _count_write,
    "autolabel.lift": _count_lift,
    "autolabel.track_step": _count_track_step,
    "autolabel.emit": _count_emit,
    "metrics.chamfer": _count_chamfer,
    "splines.basis": _count_basis,
    "attention.masked_attention": _count_masked_attention,
    "temporal.view": _count_view,
}


class Tracer:
    """Span recorder.  Each span is [name, start, end, parent index, op id, counters]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.active = True  # cleared while the benchmark runs its own checks
        self.basis_keys: set = set()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None, tracer.op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                record[5] = counter(tracer, args, kwargs, result)
            return result

        return traced

    def call(self, name: str, op, fn, *args, **kwargs):
        """Run fn as the root span of operation `op`."""
        self.op = op
        try:
            return self.wrap(name, fn)(*args, **kwargs)
        finally:
            self.op = None


def install(tracer: Tracer) -> None:
    """Wrap the traced lanekit names in every module that binds them."""
    import importlib

    for name in ("lanekit", "lanekit.cli"):
        importlib.import_module(name)
    modules = [mod for key, mod in sorted(sys.modules.items())
               if mod is not None and (key == "lanekit" or key.startswith("lanekit."))]
    for span_name, targets in _FUNCTIONS.items():
        for module_name, attr in targets:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            traced = tracer.wrap(span_name, original, _COUNTERS.get(span_name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
    for span_name, (module_name, cls_name, attr) in _METHODS.items():
        cls = getattr(sys.modules.get(module_name), cls_name, None)
        original = getattr(cls, attr, None)
        if original is None:
            continue
        setattr(cls, attr, tracer.wrap(span_name, original, _COUNTERS.get(span_name)))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(span_sets) -> dict:
    """Per-layer totals from the span lists of every traced process of a run.

    Layer metrics that do not run in the workload read 0.  `trace.overhead_s`
    is filled in by the caller, which knows the untraced wall time; the
    caller also checks these names against BENCHMARK.json's `per_layer`.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_time: dict[str, float] = {}
    counts: dict[str, float] = {}
    last_tracker: dict = {}
    for spans in span_sets:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        for index, (name, start, end, parent, op, counter) in enumerate(spans):
            duration = end - start
            total[name] = total.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            self_time[layer] = self_time.get(layer, 0.0) + duration - child_time[index]
            if name == "autolabel.track_step" and counter:
                last_tracker[(id(spans), op)] = counter
            elif counter:
                for key, value in counter.items():
                    counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value

    def t(name):
        return total.get(name, 0.0)

    out = {f"{layer}.self_s": self_time.get(layer, 0.0) for layer in LAYERS}
    out.update({
        "frames.read_s": t("frames.read"),
        "frames.write_s": t("frames.write"),
        "frames.bytes_read": counts.get("frames.read.bytes_read", 0),
        "frames.bytes_written": counts.get("frames.write.bytes_written", 0),
        "synth.gen_scene_s": t("synth.gen_scene"),
        "synth.render_2d_s": t("synth.render_2d"),
        "synth.render_calls": calls.get("synth.render_2d", 0),
        "autolabel.build_surface_s": t("autolabel.build_surface"),
        "autolabel.lift_s": t("autolabel.lift"),
        "autolabel.rays": counts.get("autolabel.lift.rays", 0),
        "autolabel.points_lifted": counts.get("autolabel.lift.points_lifted", 0),
        "autolabel.lift_yield": _ratio(counts.get("autolabel.lift.points_lifted", 0),
                                       counts.get("autolabel.lift.rays", 0)),
        "autolabel.track_step_s": t("autolabel.track_step"),
        "autolabel.tracks_spawned": sum(c["tracks"] for c in last_tracker.values()),
        "autolabel.tracks_mature": sum(c["mature"] for c in last_tracker.values()),
        "autolabel.emit_s": t("autolabel.emit"),
        "autolabel.label_points": counts.get("autolabel.emit.label_points", 0),
        "metrics.match_s": t("metrics.match"),
        "metrics.match_calls": calls.get("metrics.match", 0),
        "metrics.chamfer_s": t("metrics.chamfer"),
        "metrics.chamfer_calls": calls.get("metrics.chamfer", 0),
        "metrics.chamfer_point_pairs": counts.get("metrics.chamfer.point_pairs", 0),
        "splines.fit_s": t("splines.fit"),
        "splines.fit_calls": calls.get("splines.fit", 0),
        "splines.basis_s": t("splines.basis"),
        "splines.basis_calls": calls.get("splines.basis", 0),
        "splines.basis_distinct_ratio": _ratio(counts.get("splines.basis.distinct", 0),
                                               calls.get("splines.basis", 0)),
        "splines.evaluate_s": t("splines.evaluate"),
        "attention.same_mask_s": t("attention.same_mask"),
        "attention.neighbor_mask_s": t("attention.neighbor_mask"),
        "attention.memory_mask_s": t("attention.memory_mask"),
        "attention.masked_attention_s": t("attention.masked_attention"),
        "attention.layer_s": t("attention.layer"),
        "attention.mask_active_fraction": _ratio(counts.get("attention.masked_attention.useful", 0),
                                                 counts.get("attention.masked_attention.dense", 0)),
        "temporal.view_s": t("temporal.view"),
        "temporal.push_s": t("temporal.push"),
        "temporal.memory_entries": counts.get("temporal.view.entries", 0),
        "losses.combined_s": t("losses.combined"),
        "losses.assign_s": t("losses.assign"),
        "losses.spatial_s": t("losses.spatial"),
        "losses.ema_step_s": t("losses.ema_step"),
    })
    return out
