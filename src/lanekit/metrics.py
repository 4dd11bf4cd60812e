"""Lane detection metrics: grid-matched F1, binned x/z errors, visibility
IoU, and chamfer-distance precision/recall.

Both scores pair a frame's lanes one-to-one by the gated assignment
`lanekit.assignment.gated_assignment`, and its pairs are the true
positives.  Lanes are resampled on a uniform longitudinal grid over their
visible extent.  A prediction and a target match pointwise where their
(x, z) distance stays below the point threshold, and a pair is admissible
when enough of the co-visible grid points match.  A pair's cost is its
mean distance over the co-visible grid points, `masked_mean` of
`lanekit.assignment`, the one cost of every lane association.
A frame's lanes are compared as arrays, every (target, prediction) pair
at once.  A range bin's x/z error is the sum of |dx| or |dz| over the
matched pairs' co-visible grid points in the bin, over all frames,
divided by the number of those points.

The chamfer variant skips the grid and scores the lane samples directly.
It is point-to-point: a pair's distance is the mean, over every target
sample, of the 3D distance to the nearest predicted sample, with
visibility ignored, and a pair is admissible when this distance is below
the chamfer threshold (tau).  It is computed exactly in squared form,
taking one square root per target sample rather than one per pair.  The
report's mean chamfer distance is null when no pair matched.

A pair's distance is computed only when it can fall below tau.  Its
lower bound sums the nearest distances of every 8th target sample and
divides by the target's sample count.  The distances are non-negative,
and the subset's are bit-equal to the full computation's at those
samples, so the bound is at most the distance up to rounding of the two
sums, far inside the 1e-9 relative margin it is given.  A pair whose
bound reaches tau could not be admissible, and the gated assignment
never reads an inadmissible pair's cost, so the matches are those of
computing every pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .assignment import gated_assignment, masked_mean


@dataclass(frozen=True)
class MatchConfig:
    """Matching protocol constants.

    1.5 m point threshold and a 75 % matched-point fraction on a 2 m
    grid follow the established uniform-point evaluation convention;
    the 0.3 m chamfer threshold follows the chamfer-based one.
    """

    point_threshold: float = 1.5
    match_fraction: float = 0.75
    y_min: float = 0.0
    y_max: float = 100.0
    y_step: float = 2.0
    chamfer_threshold: float = 0.3
    bins: ClassVar[tuple[tuple[float, float], ...]] = ((0.0, 40.0), (40.0, 100.0), (100.0, 150.0), (150.0, 200.0))

    def __post_init__(self):
        for name in ("point_threshold", "chamfer_threshold", "y_step"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not 0.0 < self.match_fraction <= 1.0:
            raise ValueError("match fraction must lie in (0, 1]")
        if not (math.isfinite(self.y_min) and math.isfinite(self.y_max) and self.y_max > self.y_min):
            raise ValueError(f"y range must be finite with y_max > y_min, "
                             f"got [{self.y_min!r}, {self.y_max!r}]")
        if not math.isfinite((self.y_max - self.y_min) / self.y_step):
            raise ValueError(f"grid point count (y_max - y_min) / y_step must be finite, "
                             f"got ({self.y_max!r} - {self.y_min!r}) / {self.y_step!r}")

    @property
    def y_grid(self) -> np.ndarray:
        count = int(round((self.y_max - self.y_min) / self.y_step)) + 1
        return self.y_min + self.y_step * np.arange(count)


def resample_on_grid(points: np.ndarray, y_grid: np.ndarray):
    """Interpolate a lane polyline onto the grid.

    Returns (x, z, visible); a grid point is visible when it lies within
    the polyline's y span and the interpolated visibility is >= 0.5.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 4 or points.shape[0] < 2:
        empty = np.zeros(y_grid.size)
        return empty, empty.copy(), np.zeros(y_grid.size, dtype=bool)
    order = np.argsort(points[:, 1], kind="stable")
    ys = points[order, 1]
    x = np.interp(y_grid, ys, points[order, 0])
    z = np.interp(y_grid, ys, points[order, 2])
    v = np.interp(y_grid, ys, points[order, 3])
    inside = (y_grid >= ys[0]) & (y_grid <= ys[-1])
    return x, z, inside & (v >= 0.5)


@dataclass
class MatchedPair:
    pred_index: int
    gt_index: int
    abs_dx: np.ndarray       # per co-visible grid point
    abs_dz: np.ndarray
    grid_y: np.ndarray       # y of the co-visible grid points
    iou: float               # kept lanes have two visible grid points, so the union is never empty


@dataclass
class FrameMatch:
    """Outcome of matching one frame: pairs plus unmatched counts."""

    pairs: list[MatchedPair] = field(default_factory=list)
    tp: int = 0
    fp: int = 0
    fn: int = 0


def _kept_on_grid(lanes, grid):
    """Indices, then (lanes, grid) x, z and visibility, of the lanes with two or more visible grid points."""
    rows = [resample_on_grid(l, grid) for l in lanes]
    kept = [k for k, row in enumerate(rows) if row[2].sum() >= 2]
    return (kept, *(np.array([rows[k][i] for k in kept]) for i in range(3)))


def match_lanes(pred_lanes, gt_lanes, cfg: MatchConfig) -> FrameMatch:
    """Grid-based one-to-one lane matching.

    Lanes with fewer than two visible grid points are dropped on both
    sides.  Pairs are admissible when at least `match_fraction` of their
    co-visible grid points lie within the point threshold; assignment
    maximizes admissible matches first, then minimizes mean distance.
    """
    grid = cfg.y_grid
    pred_ids, px, pz, pvis = _kept_on_grid(pred_lanes, grid)
    gt_ids, gx, gz, gvis = _kept_on_grid(gt_lanes, grid)
    if not (pred_ids and gt_ids):
        return FrameMatch(fp=len(pred_ids), fn=len(gt_ids))

    # (targets, predictions, grid) arrays
    dx = px[None] - gx[:, None]
    dz = pz[None] - gz[:, None]
    dist = np.hypot(dx, dz)
    both = gvis[:, None] & pvis[None]
    n_both = both.sum(axis=2)
    matched = np.count_nonzero(both & (dist < cfg.point_threshold), axis=2)
    # a pair with no co-visible point has matched = 0, so it fails any match fraction
    admissible = matched / np.maximum(n_both, 1) >= cfg.match_fraction
    iou = n_both / (gvis[:, None] | pvis[None]).sum(axis=2)

    pairs = []
    for gi, pi in zip(*gated_assignment(masked_mean(dist, both), admissible)):
        on = both[gi, pi]
        pairs.append(MatchedPair(pred_index=pred_ids[pi], gt_index=gt_ids[gi],
                                 abs_dx=np.abs(dx[gi, pi, on]), abs_dz=np.abs(dz[gi, pi, on]),
                                 grid_y=grid[on], iou=float(iou[gi, pi])))
    tp = len(pairs)
    return FrameMatch(pairs, tp, len(pred_ids) - tp, len(gt_ids) - tp)


def f1_score(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """(F1, precision, recall) with zero denominators mapping to 0."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return f1, precision, recall


def vis_iou(match: FrameMatch) -> float | None:
    """Mean visibility IoU over matched pairs; None when there are none."""
    ious = [p.iou for p in match.pairs]
    return float(np.mean(ious)) if ious else None


def unilateral_chamfer(gt_points: np.ndarray, pred_points: np.ndarray) -> float:
    """Point-to-point chamfer: the mean, over every target sample, of the 3D
    distance to the nearest predicted sample.

    Visibility is ignored and no sample is interpolated between; a pair
    counts as a chamfer match only when this distance is below tau
    (`MatchConfig.chamfer_threshold`).  The search runs on squared
    distances, summed per coordinate in x, y, z order as `np.linalg.norm`
    sums them, and the square root is taken only of each target sample's
    minimum.  `sqrt` is correctly rounded and monotone, so the result
    equals the norm-per-pair form bit for bit.
    """
    gt = np.asarray(gt_points, dtype=float)
    pred = np.asarray(pred_points, dtype=float)
    dist = np.subtract.outer(gt[:, 0], pred[:, 0])
    gap = np.subtract.outer(gt[:, 1], pred[:, 1])
    dist *= dist
    gap *= gap
    dist += gap
    np.subtract.outer(gt[:, 2], pred[:, 2], out=gap)
    gap *= gap
    dist += gap
    return float(np.sqrt(dist.min(axis=1)).mean())


# The lower bound's target samples are every this many; lanes 3.5 m apart
# then bound at about 3.5 / 8 m, above tau, so neighbouring lanes are skipped.
_BOUND_STRIDE = 8


def _chamfer_matches(pred_lanes, gt_lanes, tau: float) -> list[float]:
    """Gated one-to-one matching on chamfer distances below tau; returns the
    matched distances in ascending order, the order in which they are summed.
    A pair whose lower bound (module docstring) reaches tau stays at inf."""
    cd = np.full((len(gt_lanes), len(pred_lanes)), np.inf)
    limit = tau * (1.0 + 1e-9)
    for g, gt in enumerate(gt_lanes):
        sparse = gt[::_BOUND_STRIDE]
        for p, pred in enumerate(pred_lanes):
            if unilateral_chamfer(sparse, pred) * len(sparse) / len(gt) < limit:
                cd[g, p] = unilateral_chamfer(gt, pred)
    return sorted(cd[gated_assignment(cd, cd < tau)].tolist())


@dataclass
class EvalAccumulator:
    """Order-independent aggregation over frames: sum counters, divide at the end."""

    cfg: MatchConfig = field(default_factory=MatchConfig)
    tp: int = 0
    fp: int = 0
    fn: int = 0
    bin_sums: dict = field(default_factory=dict)
    iou_sum: float = 0.0
    iou_count: int = 0
    chamfer_tp: int = 0
    chamfer_pred: int = 0
    chamfer_gt: int = 0
    chamfer_sum: float = 0.0

    def add_frame(self, pred_lanes, gt_lanes) -> FrameMatch:
        match = match_lanes(pred_lanes, gt_lanes, self.cfg)
        self.tp += match.tp
        self.fp += match.fp
        self.fn += match.fn
        for pair in match.pairs:
            for key in self.cfg.bins:
                inside = (pair.grid_y >= key[0]) & (pair.grid_y < key[1])
                dx_sum, dz_sum, n = self.bin_sums.get(key, (0.0, 0.0, 0))
                self.bin_sums[key] = (dx_sum + float(pair.abs_dx[inside].sum()),
                                      dz_sum + float(pair.abs_dz[inside].sum()), n + int(inside.sum()))
        self.iou_sum += sum(p.iou for p in match.pairs)
        self.iou_count += len(match.pairs)
        distances = _chamfer_matches(pred_lanes, gt_lanes, self.cfg.chamfer_threshold)
        self.chamfer_tp += len(distances)
        self.chamfer_pred += len(pred_lanes)
        self.chamfer_gt += len(gt_lanes)
        self.chamfer_sum += sum(distances)
        return match

    def report(self) -> dict:
        f1, precision, recall = f1_score(self.tp, self.fp, self.fn)
        bins = {}
        for key in self.cfg.bins:
            dx_sum, dz_sum, n = self.bin_sums.get(key, (0.0, 0.0, 0))
            bins[f"{key[0]:g}-{key[1]:g}m"] = {"x_error": dx_sum / n, "z_error": dz_sum / n} if n else None
        c_f1, c_precision, c_recall = f1_score(self.chamfer_tp, self.chamfer_pred - self.chamfer_tp,
                                               self.chamfer_gt - self.chamfer_tp)
        return {
            "f1": f1,
            "precision": precision,
            "recall": recall,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "errors": bins,
            "vis_iou": self.iou_sum / self.iou_count if self.iou_count else None,
            "chamfer": {
                "precision": c_precision,
                "recall": c_recall,
                "f1": c_f1,
                "mean_cd": self.chamfer_sum / self.chamfer_tp if self.chamfer_tp else None,
            },
        }
