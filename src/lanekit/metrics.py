"""Lane detection metrics: grid-matched F1, binned x/z errors, visibility
IoU, and chamfer-distance precision/recall.

Lanes are resampled on a uniform longitudinal grid over their visible
extent.  A prediction and a target match pointwise where their (x, z)
distance stays below the point threshold; a pair is admissible when
enough of the co-visible grid points match, and a minimum-cost
one-to-one assignment over admissible pairs yields the true positives.
The chamfer variant skips the grid and scores dense polylines directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

_INADMISSIBLE = 1e9


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
    bins: tuple[tuple[float, float], ...] = ((0.0, 40.0), (40.0, 100.0), (100.0, 150.0), (150.0, 200.0))
    chamfer_threshold: float = 0.3

    def __post_init__(self):
        if self.point_threshold <= 0:
            raise ValueError("point threshold must be positive")
        if not 0.0 < self.match_fraction <= 1.0:
            raise ValueError("match fraction must lie in (0, 1]")

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
    iou: float | None


@dataclass
class FrameMatch:
    """Outcome of matching one frame: pairs plus unmatched counts."""

    pairs: list[MatchedPair] = field(default_factory=list)
    tp: int = 0
    fp: int = 0
    fn: int = 0


def match_lanes(pred_lanes, gt_lanes, cfg: MatchConfig) -> FrameMatch:
    """Grid-based one-to-one lane matching.

    Lanes with fewer than two visible grid points are dropped on both
    sides.  Pairs are admissible when at least `match_fraction` of their
    co-visible grid points lie within the point threshold; assignment
    maximizes admissible matches first, then minimizes mean distance.
    """
    grid = cfg.y_grid
    pred = [(k, *resample_on_grid(np.asarray(l, dtype=float), grid)) for k, l in enumerate(pred_lanes)]
    gts = [(k, *resample_on_grid(np.asarray(l, dtype=float), grid)) for k, l in enumerate(gt_lanes)]
    pred = [p for p in pred if p[3].sum() >= 2]
    gts = [g for g in gts if g[3].sum() >= 2]

    result = FrameMatch()
    n_pred, n_gt = len(pred), len(gts)
    if n_pred == 0 or n_gt == 0:
        result.fp = n_pred
        result.fn = n_gt
        return result

    cost = np.full((n_gt, n_pred), _INADMISSIBLE)
    details = {}
    for gi, (_, gx, gz, gvis) in enumerate(gts):
        for pi, (_, px, pz, pvis) in enumerate(pred):
            both = gvis & pvis
            if not both.any():
                continue
            dist = np.hypot(px[both] - gx[both], pz[both] - gz[both])
            matched = np.count_nonzero(dist < cfg.point_threshold)
            if matched / both.sum() < cfg.match_fraction:
                continue
            cost[gi, pi] = dist.mean()
            details[(gi, pi)] = (np.abs(px[both] - gx[both]), np.abs(pz[both] - gz[both]), grid[both])

    rows, cols = linear_sum_assignment(cost)
    for gi, pi in zip(rows, cols):
        if cost[gi, pi] >= _INADMISSIBLE:
            continue
        abs_dx, abs_dz, ys = details[(gi, pi)]
        gvis, pvis = gts[gi][3], pred[pi][3]
        union = np.count_nonzero(gvis | pvis)
        iou = np.count_nonzero(gvis & pvis) / union if union else None
        result.pairs.append(MatchedPair(
            pred_index=pred[pi][0], gt_index=gts[gi][0],
            abs_dx=abs_dx, abs_dz=abs_dz, grid_y=ys, iou=iou,
        ))
    result.tp = len(result.pairs)
    result.fp = n_pred - result.tp
    result.fn = n_gt - result.tp
    return result


def f1_score(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """(F1, precision, recall) with zero denominators mapping to 0."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return f1, precision, recall


def xz_errors(match: FrameMatch, bins=None) -> dict[tuple[float, float], tuple[float, float] | None]:
    """Per-bin mean |dx| and |dz| over matched, co-visible grid points; empty bins are None."""
    if bins is None:
        bins = MatchConfig().bins
    out = {}
    for lo, hi in bins:
        dx_parts, dz_parts = [], []
        for pair in match.pairs:
            inside = (pair.grid_y >= lo) & (pair.grid_y < hi)
            if inside.any():
                dx_parts.append(pair.abs_dx[inside])
                dz_parts.append(pair.abs_dz[inside])
        if dx_parts:
            out[(lo, hi)] = (float(np.concatenate(dx_parts).mean()),
                             float(np.concatenate(dz_parts).mean()))
        else:
            out[(lo, hi)] = None
    return out


def vis_iou(match: FrameMatch) -> float | None:
    """Mean visibility IoU over matched pairs; pairs with empty unions are skipped."""
    ious = [p.iou for p in match.pairs if p.iou is not None]
    return float(np.mean(ious)) if ious else None


def unilateral_chamfer(gt_points: np.ndarray, pred_points: np.ndarray) -> float:
    """Mean distance from each target sample to its nearest predicted point."""
    gt = np.asarray(gt_points, dtype=float)[:, :3]
    pred = np.asarray(pred_points, dtype=float)[:, :3]
    diff = gt[:, None, :] - pred[None, :, :]
    return float(np.linalg.norm(diff, axis=2).min(axis=1).mean())


def _chamfer_matches(pred_lanes, gt_lanes, tau: float) -> list[float]:
    """Greedy one-to-one matching by ascending chamfer distance; returns matched distances."""
    candidates = []
    for gi, gt in enumerate(gt_lanes):
        for pi, pred in enumerate(pred_lanes):
            cd = unilateral_chamfer(gt, pred)
            if cd < tau:
                candidates.append((cd, gi, pi))
    candidates.sort()
    used_gt, used_pred = set(), set()
    distances = []
    for cd, gi, pi in candidates:
        if gi in used_gt or pi in used_pred:
            continue
        used_gt.add(gi)
        used_pred.add(pi)
        distances.append(cd)
    return distances


def chamfer_eval(pred_lanes, gt_lanes, tau: float = 0.3):
    """Chamfer precision/recall over dense polylines.

    Returns (precision, recall, f1, mean chamfer distance over matches).
    """
    n_pred, n_gt = len(pred_lanes), len(gt_lanes)
    if n_pred == 0 or n_gt == 0:
        return 0.0, 0.0, 0.0, 0.0
    distances = _chamfer_matches(pred_lanes, gt_lanes, tau)
    tp = len(distances)
    precision = tp / n_pred
    recall = tp / n_gt
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    mean_cd = float(np.mean(distances)) if distances else 0.0
    return precision, recall, f1, mean_cd


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
        for key, value in xz_errors(match, self.cfg.bins).items():
            if value is None:
                continue
            count = sum(np.count_nonzero((p.grid_y >= key[0]) & (p.grid_y < key[1]))
                        for p in match.pairs)
            dx_sum, dz_sum, n = self.bin_sums.get(key, (0.0, 0.0, 0))
            self.bin_sums[key] = (dx_sum + value[0] * count, dz_sum + value[1] * count, n + count)
        valid = [p for p in match.pairs if p.iou is not None]
        self.iou_sum += sum(p.iou for p in valid)
        self.iou_count += len(valid)
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
            entry = self.bin_sums.get(key)
            label = f"{key[0]:g}-{key[1]:g}m"
            if entry and entry[2] > 0:
                bins[label] = {"x_error": entry[0] / entry[2], "z_error": entry[1] / entry[2]}
            else:
                bins[label] = None
        c_precision = self.chamfer_tp / self.chamfer_pred if self.chamfer_pred else 0.0
        c_recall = self.chamfer_tp / self.chamfer_gt if self.chamfer_gt else 0.0
        c_f1 = 2 * c_precision * c_recall / (c_precision + c_recall) if c_precision + c_recall else 0.0
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
                "mean_cd": self.chamfer_sum / self.chamfer_tp if self.chamfer_tp else 0.0,
            },
        }
