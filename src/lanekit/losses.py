"""Supervised losses and regularizers for spline lane predictions.

Covers proposal-to-target assignment, the L1 regression loss along
visible target points (with its analytic gradient through the linear
basis), binary cross-entropy for visibility, focal classification loss,
spatial regularization (parallelism, height smoothness, curvature
hinge), and the temporal-consistency loss against an exponentially
moving average of past predictions carried along with the ego motion.

Proposals are sampled at a target's y positions through one basis,
built once per target and call; the assignment costs every proposal
against a target in one (samples, m) @ (proposals, m, 4) product.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from .splines import CurveConfig, arg_for_y, basis_matrix
from .temporal import EgoPose, propagate_points

PROB_EPS = 1e-7


@dataclass
class GtLane:
    """Target lane: (x, y, z, v) samples with v in {0, 1}, plus a category index."""

    points: np.ndarray
    category: int = 0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 4:
            raise ValueError("target lane points must be an (n, 4) array")


def _basis_at_y(y, cfg: CurveConfig) -> np.ndarray:
    """Order-0 basis rows at longitudinal positions y, shape (samples, m)."""
    return basis_matrix(cfg.m, arg_for_y(y, cfg), order=0).matrix


def _visible_l1(pred: np.ndarray, gt: GtLane):
    """Visibility-weighted L1 (x, z) gap summed over the target's points.

    `pred` is one proposal's samples (samples, 4) or a stack of them
    (proposals, samples, 4); the result has one value per proposal.
    """
    l1 = np.abs(pred[..., 0] - gt.points[:, 0]) + np.abs(pred[..., 2] - gt.points[:, 2])
    return (gt.points[:, 3] * l1).sum(axis=-1)


def assign_proposals(pred_points, class_probs, gts, cfg: CurveConfig,
                     class_weight: float = 1.0) -> list[tuple[int, int]]:
    """Minimum-cost one-to-one assignment of targets to proposals.

    Cost per pair is the mean visible L1 distance plus
    class_weight * (1 - predicted probability of the target category).
    Returns (gt_index, proposal_index) pairs; proposals left unmatched
    are background.
    """
    pred_points = np.asarray(pred_points, dtype=float)
    class_probs = np.asarray(class_probs, dtype=float)
    n = pred_points.shape[0]
    if len(gts) > n:
        raise ValueError(f"{len(gts)} targets but only {n} proposals")
    if not gts:
        return []
    cost = np.zeros((len(gts), n))
    for g, gt in enumerate(gts):
        samples = _basis_at_y(gt.points[:, 1], cfg) @ pred_points
        total = gt.points[:, 3].sum()
        geometry = 0.0 if total <= 0 else _visible_l1(samples, gt) / total
        cost[g] = geometry + class_weight * (1.0 - class_probs[:, gt.category])
    rows, cols = linear_sum_assignment(cost)
    return sorted(zip(rows.tolist(), cols.tolist()))


def classification_targets(matching, gts, n_proposals: int, n_classes: int) -> np.ndarray:
    """Per-proposal target class indices; unmatched proposals get the background index."""
    targets = np.full(n_proposals, n_classes, dtype=int)
    for g, p in matching:
        targets[p] = gts[g].category
    return targets


def lane_confidence(class_probs) -> np.ndarray:
    """Per-proposal confidence: the highest non-background class probability.

    The background class occupies the last column.
    """
    probs = np.atleast_2d(np.asarray(class_probs, dtype=float))
    if probs.shape[1] < 2:
        raise ValueError("need at least one foreground class plus background")
    return probs[:, :-1].max(axis=1)


def regression_loss(pred_points, gts, matching, cfg: CurveConfig) -> float:
    """Visibility-gated L1 loss on (x, z) at the targets' curve arguments, averaged over proposals."""
    pred_points = np.asarray(pred_points, dtype=float)
    n = pred_points.shape[0]
    if not matching:
        warnings.warn("regression loss over an empty matching is 0")
        return 0.0
    total = 0.0
    for g, p in matching:
        gt = gts[g]
        total += float(_visible_l1(_basis_at_y(gt.points[:, 1], cfg) @ pred_points[p], gt))
    return total / n


def regression_loss_grad(pred_points, gts, matching, cfg: CurveConfig) -> np.ndarray:
    """Exact gradient of regression_loss w.r.t. the control x and z columns.

    For each matched proposal the gradient is B^T (v * sign(residual)) / n,
    with B the basis at the target arguments. Shape (n, m, 2).
    """
    pred_points = np.asarray(pred_points, dtype=float)
    n = pred_points.shape[0]
    grad = np.zeros((n, cfg.m, 2))
    if not matching:
        warnings.warn("regression gradient over an empty matching is 0")
        return grad
    for g, p in matching:
        gt = gts[g]
        basis = _basis_at_y(gt.points[:, 1], cfg)
        pred = basis @ pred_points[p]
        vis = gt.points[:, 3]
        grad[p, :, 0] += basis.T @ (vis * np.sign(pred[:, 0] - gt.points[:, 0]))
        grad[p, :, 1] += basis.T @ (vis * np.sign(pred[:, 2] - gt.points[:, 2]))
    return grad / n


def visibility_loss(pred_points, gts, matching, cfg: CurveConfig, eps: float = PROB_EPS) -> float:
    """Binary cross-entropy between predicted and target visibility, averaged over matched lanes."""
    pred_points = np.asarray(pred_points, dtype=float)
    if not matching:
        return 0.0
    total = 0.0
    for g, p in matching:
        gt = gts[g]
        pred_v = np.clip((_basis_at_y(gt.points[:, 1], cfg) @ pred_points[p])[:, 3], eps, 1.0 - eps)
        v_hat = gt.points[:, 3]
        total += float(-(v_hat * np.log(pred_v) + (1.0 - v_hat) * np.log(1.0 - pred_v)).sum())
    return total / len(matching)


def focal_classification_loss(class_probs, targets, gamma: float = 2.0,
                              eps: float = PROB_EPS) -> float:
    """Focal loss -(1/n) sum_i (1 - p_target)^gamma log(p_target); gamma=0 is cross-entropy."""
    if gamma < 0:
        raise ValueError("focusing parameter must be >= 0")
    probs = np.asarray(class_probs, dtype=float)
    targets = np.asarray(targets, dtype=int)
    n = probs.shape[0]
    if targets.shape[0] != n:
        raise ValueError("one target per proposal required")
    p = np.clip(probs[np.arange(n), targets], eps, 1.0)
    return float(-np.mean((1.0 - p) ** gamma * np.log(p)))


def _weighted_variance(values: np.ndarray, weights: np.ndarray) -> float:
    total = weights.sum()
    if total <= 0:
        return 0.0
    mean = (weights * values).sum() / total
    return float((weights * (values - mean) ** 2).sum() / total)


def spatial_regularization(pred_points, cfg: CurveConfig, samples: int = 100,
                           max_curvature: float = 0.1) -> tuple[float, float, float]:
    """Lane-structure regularizers: (parallelism, height smoothness, curvature hinge).

    parallelism: mean over laterally adjacent lane pairs of the
    visibility-weighted variance of their orthogonal gap along the curve.
    smoothness: mean squared second derivative of z.
    curvature: mean hinge of planar x-y curvature above max_curvature.
    """
    pred_points = np.asarray(pred_points, dtype=float)
    n = pred_points.shape[0]
    if n == 0:
        return 0.0, 0.0, 0.0
    args = np.linspace(0.0, 1.0, samples)
    b0 = basis_matrix(cfg.m, args, order=0).matrix
    b1 = basis_matrix(cfg.m, args, order=1).matrix
    b2 = basis_matrix(cfg.m, args, order=2).matrix

    curves = np.einsum("sm,nmc->nsc", b0, pred_points)
    d1 = np.einsum("sm,nmc->nsc", b1, pred_points)
    d2 = np.einsum("sm,nmc->nsc", b2, pred_points)

    smooth = float(np.mean(d2[:, :, 2] ** 2))

    dx, dy = d1[:, :, 0], d1[:, :, 1]
    ddx, ddy = d2[:, :, 0], d2[:, :, 1]
    speed_sq = dx**2 + dy**2
    kappa = np.abs(dx * ddy - dy * ddx) / np.maximum(speed_sq, 1e-12) ** 1.5
    curv = float(np.mean(np.maximum(0.0, kappa - max_curvature)))

    if n < 2:
        return 0.0, smooth, curv

    order = np.argsort(curves[:, :, 0].mean(axis=1), kind="stable")
    parallel_terms = []
    for a, b in zip(order[:-1], order[1:]):
        tangent = d1[a, :, :2]
        norm = np.linalg.norm(tangent, axis=1, keepdims=True)
        # degenerate tangents fall back to the longitudinal direction
        tangent = np.where(norm > 1e-12, tangent / np.maximum(norm, 1e-12), [0.0, 1.0])
        normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])
        gap = np.abs(np.sum((curves[b, :, :2] - curves[a, :, :2]) * normal, axis=1))
        weights = curves[a, :, 3] * curves[b, :, 3]
        parallel_terms.append(_weighted_variance(gap, weights))
    return float(np.mean(parallel_terms)), smooth, curv


@dataclass
class LossWeights:
    """Scalar weights combining the individual terms into one objective."""

    regression: float = 1.0
    visibility: float = 1.0
    classification: float = 1.0
    spatial_parallel: float = 0.1
    spatial_smooth: float = 0.1
    spatial_curvature: float = 0.1
    temporal: float = 0.1


@dataclass
class LossBreakdown:
    """Individual loss terms plus their weighted total."""

    regression: float = 0.0
    visibility: float = 0.0
    classification: float = 0.0
    spatial_parallel: float = 0.0
    spatial_smooth: float = 0.0
    spatial_curvature: float = 0.0
    temporal: float = 0.0
    weights: LossWeights = field(default_factory=LossWeights)

    @property
    def total(self) -> float:
        w = self.weights
        return (
            w.regression * self.regression
            + w.visibility * self.visibility
            + w.classification * self.classification
            + w.spatial_parallel * self.spatial_parallel
            + w.spatial_smooth * self.spatial_smooth
            + w.spatial_curvature * self.spatial_curvature
            + w.temporal * self.temporal
        )


def combined_loss(pred_points, class_probs, gts, cfg: CurveConfig,
                  weights: LossWeights | None = None, ema_state=None,
                  gamma: float = 2.0, class_weight: float = 1.0,
                  n_classes: int | None = None) -> LossBreakdown:
    """Assign proposals to targets and evaluate every loss term in one pass.

    The temporal term is evaluated against `ema_state` when given (the
    prediction is resampled on the state's grid), otherwise it is 0.
    """
    pred_points = np.asarray(pred_points, dtype=float)
    class_probs = np.asarray(class_probs, dtype=float)
    weights = weights or LossWeights()
    if n_classes is None:
        n_classes = class_probs.shape[1] - 1
    matching = assign_proposals(pred_points, class_probs, gts, cfg, class_weight=class_weight)
    targets = classification_targets(matching, gts, pred_points.shape[0], n_classes)
    parallel, smooth, curvature = spatial_regularization(pred_points, cfg)
    temporal = 0.0
    if ema_state is not None and ema_state.lane_count == pred_points.shape[0]:
        cur_x, cur_z, _ = resample_curves_on_grid(pred_points, cfg, ema_state.y_grid)
        temporal = temporal_consistency_loss(cur_x, cur_z, ema_state)
    return LossBreakdown(
        regression=regression_loss(pred_points, gts, matching, cfg) if matching else 0.0,
        visibility=visibility_loss(pred_points, gts, matching, cfg),
        classification=focal_classification_loss(class_probs, targets, gamma=gamma),
        spatial_parallel=parallel,
        spatial_smooth=smooth,
        spatial_curvature=curvature,
        temporal=temporal,
        weights=weights,
    )


@dataclass
class EmaState:
    """Moving-average lane curves on a fixed y grid, expressed in one ego frame.

    Arrays are (lanes, grid) for x, z, and visibility; `pose` is the ego
    frame the geometry lives in, `alpha` the smoothing factor applied to
    the current prediction.
    """

    y_grid: np.ndarray
    x: np.ndarray
    z: np.ndarray
    v: np.ndarray
    pose: EgoPose
    alpha: float
    lane_ids: np.ndarray = None

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("smoothing factor must lie in [0, 1]")
        if self.lane_ids is None:
            self.lane_ids = np.arange(self.x.shape[0])

    @property
    def lane_count(self) -> int:
        return self.x.shape[0]


def resample_curves_on_grid(pred_points, cfg: CurveConfig, y_grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample predicted curves at the arguments of a y grid; returns (x, z, v) arrays."""
    pred_points = np.asarray(pred_points, dtype=float)
    sampled = np.einsum("sm,nmc->nsc", _basis_at_y(y_grid, cfg), pred_points)
    return sampled[:, :, 0], sampled[:, :, 2], np.clip(sampled[:, :, 3], 0.0, 1.0)


def _propagate_state_grid(state: EmaState, pose: EgoPose):
    """Carry state geometry into `pose`'s frame and re-interpolate onto the y grid.

    Returns (x, z, v, valid) with `valid` marking grid points covered by
    the propagated span.
    """
    grid = state.y_grid
    n = state.lane_count
    x = np.zeros((n, grid.size))
    z = np.zeros((n, grid.size))
    v = np.zeros((n, grid.size))
    valid = np.zeros((n, grid.size), dtype=bool)
    for i in range(n):
        pts = np.column_stack([state.x[i], grid, state.z[i], state.v[i]])
        moved = propagate_points(pts, state.pose, pose)
        order = np.argsort(moved[:, 1], kind="stable")
        ys = moved[order, 1]
        lo, hi = ys[0], ys[-1]
        ok = (grid >= lo) & (grid <= hi)
        valid[i] = ok
        if ok.any():
            x[i, ok] = np.interp(grid[ok], ys, moved[order, 0])
            z[i, ok] = np.interp(grid[ok], ys, moved[order, 2])
            v[i, ok] = np.interp(grid[ok], ys, moved[order, 3])
    return x, z, v, valid


def _blend(valid, alpha: float, current, prior):
    """alpha * current + (1 - alpha) * prior where the prior is valid, else current."""
    return np.where(valid, alpha * current + (1 - alpha) * prior, current)


def ema_update(state, cur_x, cur_z, cur_v, pose: EgoPose, y_grid=None,
               alpha: float = 0.5) -> EmaState:
    """Blend the current prediction into the propagated moving average.

    new = alpha * current + (1 - alpha) * propagated prior, per grid
    point and coordinate; grid points the prior no longer covers take
    the current values.  A missing prior initializes from the current
    prediction.
    """
    cur_x = np.atleast_2d(np.asarray(cur_x, dtype=float))
    cur_z = np.atleast_2d(np.asarray(cur_z, dtype=float))
    cur_v = np.atleast_2d(np.asarray(cur_v, dtype=float))
    if state is None:
        if y_grid is None:
            raise ValueError("a y grid is required to initialize the moving average")
        return EmaState(y_grid=np.asarray(y_grid, dtype=float), x=cur_x.copy(),
                        z=cur_z.copy(), v=cur_v.copy(), pose=pose, alpha=alpha)
    if cur_x.shape != state.x.shape:
        raise ValueError("current prediction must align with the tracked lanes")
    px, pz, pv, valid = _propagate_state_grid(state, pose)
    a = state.alpha
    new_x = _blend(valid, a, cur_x, px)
    new_z = _blend(valid, a, cur_z, pz)
    new_v = _blend(valid, a, cur_v, pv)
    return replace(state, x=new_x, z=new_z, v=np.clip(new_v, 0.0, 1.0), pose=pose)


def temporal_consistency_loss(cur_x, cur_z, state) -> float:
    """Visibility-weighted mean L1 gap between current curves and the moving average.

    Both live on the state's y grid, so the longitudinal component of
    the gap is zero by construction; the integral over the curve
    argument is discretized as the mean over grid samples.
    """
    if state is None or state.lane_count == 0:
        return 0.0
    cur_x = np.atleast_2d(np.asarray(cur_x, dtype=float))
    cur_z = np.atleast_2d(np.asarray(cur_z, dtype=float))
    if cur_x.shape != state.x.shape:
        raise ValueError("current prediction must align with the tracked lanes")
    gap = np.abs(cur_x - state.x) + np.abs(cur_z - state.z)
    per_lane = np.mean(state.v * gap, axis=1)
    return float(np.mean(per_lane))


class EmaTracker:
    """Book-keeping around the moving average: association, loss, update.

    Each step propagates the tracked curves into the new ego frame,
    associates them with the incoming lanes by a gated minimum-cost
    assignment, reports the temporal-consistency loss of the matched
    lanes against the propagated average, and only then blends the new
    prediction in.  Unmatched incoming lanes start new tracks; unmatched
    tracks coast on the propagated geometry.
    """

    def __init__(self, y_grid, alpha: float = 0.5, gate: float = 1.0):
        self.y_grid = np.asarray(y_grid, dtype=float)
        self.alpha = alpha
        self.gate = gate
        self.state: EmaState | None = None
        self._next_id = 0

    def step(self, cur_x, cur_z, cur_v, pose: EgoPose) -> float:
        cur_x = np.atleast_2d(np.asarray(cur_x, dtype=float))
        cur_z = np.atleast_2d(np.asarray(cur_z, dtype=float))
        cur_v = np.atleast_2d(np.asarray(cur_v, dtype=float))
        n_cur = cur_x.shape[0]

        if self.state is None or self.state.lane_count == 0:
            ids = np.arange(self._next_id, self._next_id + n_cur)
            self._next_id += n_cur
            self.state = EmaState(y_grid=self.y_grid, x=cur_x.copy(), z=cur_z.copy(),
                                  v=cur_v.copy(), pose=pose, alpha=self.alpha, lane_ids=ids)
            return 0.0

        px, pz, pv, valid = _propagate_state_grid(self.state, pose)
        n_trk = px.shape[0]
        # Mean (x, z) gap over each track's valid grid points; a track with
        # no valid point is at infinite distance from every lane.
        gap = np.hypot(px[:, None] - cur_x[None], pz[:, None] - cur_z[None])
        covered = valid.sum(axis=1)[:, None]
        dist = np.full((n_trk, n_cur), np.inf)
        np.divide(np.where(valid[:, None], gap, 0.0).sum(axis=2), covered, out=dist, where=covered > 0)
        finite = np.where(np.isfinite(dist), dist, self.gate * 1e6)
        rows, cols = linear_sum_assignment(finite)
        pairs = [(t, c) for t, c in zip(rows, cols) if dist[t, c] <= self.gate]

        loss = 0.0
        for t, c in pairs:
            gap = np.abs(cur_x[c] - px[t]) + np.abs(cur_z[c] - pz[t])
            loss += float(np.mean(np.where(valid[t], pv[t], 0.0) * gap))
        loss = loss / n_cur if n_cur else 0.0

        a = self.alpha
        new_x, new_z, new_v, new_ids = [], [], [], []
        matched_tracks = {t for t, _ in pairs}
        matched_cur = {c for _, c in pairs}
        for t, c in pairs:
            new_x.append(_blend(valid[t], a, cur_x[c], px[t]))
            new_z.append(_blend(valid[t], a, cur_z[c], pz[t]))
            new_v.append(_blend(valid[t], a, cur_v[c], pv[t]))
            new_ids.append(self.state.lane_ids[t])
        for t in range(n_trk):
            if t not in matched_tracks and valid[t].any():
                new_x.append(px[t])
                new_z.append(pz[t])
                new_v.append(np.where(valid[t], pv[t], 0.0))
                new_ids.append(self.state.lane_ids[t])
        for c in range(n_cur):
            if c not in matched_cur:
                new_x.append(cur_x[c].copy())
                new_z.append(cur_z[c].copy())
                new_v.append(cur_v[c].copy())
                new_ids.append(self._next_id)
                self._next_id += 1
        self.state = EmaState(
            y_grid=self.y_grid,
            x=np.array(new_x), z=np.array(new_z),
            v=np.clip(np.array(new_v), 0.0, 1.0),
            pose=pose, alpha=self.alpha, lane_ids=np.array(new_ids),
        )
        return loss
