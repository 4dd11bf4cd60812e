"""Supervised losses and regularizers for spline lane predictions.

Covers proposal-to-target assignment, the L1 regression loss along
visible target points (with its analytic gradient through the linear
basis), binary cross-entropy for visibility, focal classification loss,
spatial regularization (parallelism, height smoothness, curvature
hinge), and the temporal-consistency loss against an exponentially
moving average of past predictions carried along with the ego motion.

Proposals are sampled at a target's y positions through one basis,
built once per target and call; the assignment costs every proposal
against a target in one (samples, m) @ (proposals, m, 4) product, and
`combined_loss` scores its regression and visibility terms on the
matched rows of those products.  The parallelism regularizer works on
all adjacent lane pairs at once, as (pairs, samples) arrays.
Assignments are solved by `lanekit.assignment`; the tracker's
frame-to-frame association uses its gated rule, `gated_assignment`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .assignment import gated_assignment, linear_sum_assignment, masked_mean
from .splines import CurveConfig, arg_for_y, basis_matrix
from .temporal import EgoPose, apply_transform, relative_transform

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


def _assign(pred_points, class_probs, gts, cfg: CurveConfig, class_weight: float):
    """`assign_proposals`, plus the (proposals, samples, 4) samples of every
    proposal at each target's y positions that its costs were built from."""
    pred_points = np.asarray(pred_points, dtype=float)
    class_probs = np.asarray(class_probs, dtype=float)
    n = pred_points.shape[0]
    if len(gts) > n:
        raise ValueError(f"{len(gts)} targets but only {n} proposals")
    if not gts:
        return [], []
    cost = np.zeros((len(gts), n))
    samples = [_basis_at_y(gt.points[:, 1], cfg) @ pred_points for gt in gts]
    for g, gt in enumerate(gts):
        total = gt.points[:, 3].sum()
        geometry = 0.0 if total <= 0 else _visible_l1(samples[g], gt) / total
        cost[g] = geometry + class_weight * (1.0 - class_probs[:, gt.category])
    rows, cols = linear_sum_assignment(cost)
    return sorted(zip(rows.tolist(), cols.tolist())), samples


def assign_proposals(pred_points, class_probs, gts, cfg: CurveConfig,
                     class_weight: float = 1.0) -> list[tuple[int, int]]:
    """Minimum-cost one-to-one assignment of targets to proposals.

    Cost per pair is the mean visible L1 distance plus
    class_weight * (1 - predicted probability of the target category).
    Returns (gt_index, proposal_index) pairs; proposals left unmatched
    are background.
    """
    return _assign(pred_points, class_probs, gts, cfg, class_weight)[0]


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


def _matched_samples(pred_points: np.ndarray, gts, matching, cfg: CurveConfig) -> list:
    """(samples, target) of each matched pair: the proposal sampled at the target's y positions."""
    return [(_basis_at_y(gts[g].points[:, 1], cfg) @ pred_points[p], gts[g]) for g, p in matching]


def _regression(pairs, n: int) -> float:
    """Visible L1 gap summed over (samples, target) pairs, divided by n proposals."""
    return sum(float(_visible_l1(samples, gt)) for samples, gt in pairs) / n


def _visibility(pairs) -> float:
    """Visibility cross-entropy averaged over (samples, target) pairs."""
    total = 0.0
    for samples, gt in pairs:
        pred_v = np.clip(samples[:, 3], PROB_EPS, 1.0 - PROB_EPS)
        v_hat = gt.points[:, 3]
        total += float(-(v_hat * np.log(pred_v) + (1.0 - v_hat) * np.log(1.0 - pred_v)).sum())
    return total / len(pairs)


def regression_loss(pred_points, gts, matching, cfg: CurveConfig) -> float:
    """Visibility-gated L1 loss on (x, z) at the targets' curve arguments, averaged over proposals."""
    pred_points = np.asarray(pred_points, dtype=float)
    if not matching:
        warnings.warn("regression loss over an empty matching is 0")
        return 0.0
    return _regression(_matched_samples(pred_points, gts, matching, cfg), pred_points.shape[0])


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


def visibility_loss(pred_points, gts, matching, cfg: CurveConfig) -> float:
    """Binary cross-entropy between predicted and target visibility, averaged over matched lanes."""
    pred_points = np.asarray(pred_points, dtype=float)
    if not matching:
        return 0.0
    return _visibility(_matched_samples(pred_points, gts, matching, cfg))


def focal_classification_loss(class_probs, targets, gamma: float = 2.0) -> float:
    """Focal loss -(1/n) sum_i (1 - p_target)^gamma log(p_target); gamma=0 is cross-entropy."""
    if gamma < 0:
        raise ValueError("focusing parameter must be >= 0")
    probs = np.asarray(class_probs, dtype=float)
    targets = np.asarray(targets, dtype=int)
    n = probs.shape[0]
    if targets.shape[0] != n:
        raise ValueError("one target per proposal required")
    p = np.clip(probs[np.arange(n), targets], PROB_EPS, 1.0)
    return float(-np.mean((1.0 - p) ** gamma * np.log(p)))


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

    # (pairs, samples) arrays of laterally adjacent lanes a and b
    order = np.argsort(curves[:, :, 0].mean(axis=1), kind="stable")
    a, b = order[:-1], order[1:]
    tangent = d1[a, :, :2]
    norm = np.linalg.norm(tangent, axis=2, keepdims=True)
    # degenerate tangents fall back to the longitudinal direction
    tangent = np.where(norm > 1e-12, tangent / np.maximum(norm, 1e-12), [0.0, 1.0])
    normal = np.stack([tangent[..., 1], -tangent[..., 0]], axis=2)
    gap = np.abs(np.sum((curves[b, :, :2] - curves[a, :, :2]) * normal, axis=2))
    weights = curves[a, :, 3] * curves[b, :, 3]
    # visibility-weighted variance of each pair's gap, 0 for a pair with no weight
    total = weights.sum(axis=1)
    empty = total <= 0
    total[empty] = 1.0
    mean = (weights * gap).sum(axis=1) / total
    variance = (weights * (gap - mean[:, None]) ** 2).sum(axis=1) / total
    variance[empty] = 0.0
    return float(np.mean(variance)), smooth, curv


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
        # terms added left to right in field order; -0.0 + x is x, also for x = -0.0
        total = -0.0
        for f in fields(LossWeights):
            total += getattr(self.weights, f.name) * getattr(self, f.name)
        return total


def combined_loss(pred_points, class_probs, gts, cfg: CurveConfig,
                  weights: LossWeights | None = None, ema_state=None,
                  gamma: float = 2.0, class_weight: float = 1.0) -> LossBreakdown:
    """Assign proposals to targets and evaluate every loss term in one pass.

    The temporal term is evaluated against `ema_state` when given and it
    holds one lane per proposal, otherwise it is 0.  The prediction is
    resampled on the state's grid and compared with the state as stored:
    in the state's own ego frame, with no propagation into the current
    one, and proposal i against state lane i, with no association.
    `EmaTracker.step` does both, and its association does not keep lane
    order: on the seed-7 detector sequence it pairs 12 to 18 of the 20
    proposals with a tracked lane at another index on each of frames 20
    to 27.
    """
    pred_points = np.asarray(pred_points, dtype=float)
    class_probs = np.asarray(class_probs, dtype=float)
    weights = weights or LossWeights()
    matching, samples = _assign(pred_points, class_probs, gts, cfg, class_weight)
    pairs = [(samples[g][p], gts[g]) for g, p in matching]  # the samples the assignment costed
    targets = classification_targets(matching, gts, pred_points.shape[0], class_probs.shape[1] - 1)
    parallel, smooth, curvature = spatial_regularization(pred_points, cfg)
    temporal = 0.0
    if ema_state is not None and ema_state.lane_count == pred_points.shape[0]:
        cur_x, cur_z, _ = resample_curves_on_grid(pred_points, cfg, ema_state.y_grid)
        temporal = temporal_consistency_loss(cur_x, cur_z, ema_state)
    return LossBreakdown(
        regression=_regression(pairs, pred_points.shape[0]) if pairs else 0.0,
        visibility=_visibility(pairs) if pairs else 0.0,
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
    frame the geometry lives in.
    """

    y_grid: np.ndarray
    x: np.ndarray
    z: np.ndarray
    v: np.ndarray
    pose: EgoPose
    lane_ids: np.ndarray = None

    def __post_init__(self):
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

    Every lane's (x, y, z) samples move under one rigid transform.
    Returns (x, z, v, valid) with `valid` marking grid points covered by
    the propagated span of the samples with v > 0; a coasting lane stores
    v = 0 where it is uncovered, so its span shrinks as the ego drives on.
    """
    grid = state.y_grid
    xyz = np.stack([state.x, np.broadcast_to(grid, state.x.shape), state.z], axis=-1)
    moved = apply_transform(relative_transform(state.pose, pose), xyz)
    order = np.argsort(moved[..., 1], axis=1, kind="stable")
    moved = np.take_along_axis(moved, order[..., None], axis=1)
    ys, vs = moved[..., 1], np.take_along_axis(state.v, order, axis=1)
    seen = vs > 0
    valid = ((grid >= np.where(seen, ys, np.inf).min(axis=1, keepdims=True))
             & (grid <= np.where(seen, ys, -np.inf).max(axis=1, keepdims=True)))
    x, z, v = np.zeros_like(ys), np.zeros_like(ys), np.zeros_like(ys)
    for i in np.flatnonzero(valid.any(axis=1)):
        ok = valid[i]
        x[i, ok] = np.interp(grid[ok], ys[i], moved[i, :, 0])
        z[i, ok] = np.interp(grid[ok], ys[i], moved[i, :, 2])
        v[i, ok] = np.interp(grid[ok], ys[i], vs[i])
    return x, z, v, valid


def _blend(valid, alpha: float, current, prior):
    """alpha * current + (1 - alpha) * prior where the prior is valid, else current."""
    return np.where(valid, alpha * current + (1 - alpha) * prior, current)


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
    associates them with the incoming lanes by `gated_assignment`, pairs
    at or below the gate admissible, reports the temporal-consistency
    loss of the matched lanes against the propagated average, and only
    then blends the new prediction in: alpha * current + (1 - alpha) *
    propagated average, per grid point the average still covers, else the
    current value.  Unmatched incoming lanes start new tracks; unmatched
    tracks coast on the propagated geometry, with v = 0 where it no longer
    covers the grid, and are dropped once it covers no grid point.
    """

    def __init__(self, y_grid, alpha: float = 0.5, gate: float = 1.0):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("smoothing factor must lie in [0, 1]")
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
        if self.state is None:  # no tracks yet, at the first pose: every lane starts fresh
            empty = np.zeros((0, self.y_grid.size))
            self.state = EmaState(y_grid=self.y_grid, x=empty, z=empty, v=empty, pose=pose)

        px, pz, pv, valid = _propagate_state_grid(self.state, pose)
        gap = np.hypot(px[:, None] - cur_x[None], pz[:, None] - cur_z[None])
        dist = masked_mean(gap, np.broadcast_to(valid[:, None], gap.shape))
        t, c = gated_assignment(dist, dist <= self.gate)
        # pairs first, then coasting tracks that still cover the grid, then new lanes
        coast = np.setdiff1d(np.flatnonzero(valid.any(axis=1)), t)
        fresh = np.setdiff1d(np.arange(n_cur), c)

        weight = np.where(valid, pv, 0.0)
        gap = np.abs(cur_x[c] - px[t]) + np.abs(cur_z[c] - pz[t])
        # per-pair means added left to right as Python floats; np.sum would add pairwise
        loss = sum(np.mean(weight[t] * gap, axis=1).tolist()) / n_cur if n_cur else 0.0

        a, ids = self.alpha, self.state.lane_ids
        self.state = EmaState(
            y_grid=self.y_grid,
            x=np.concatenate([_blend(valid[t], a, cur_x[c], px[t]), px[coast], cur_x[fresh]]),
            z=np.concatenate([_blend(valid[t], a, cur_z[c], pz[t]), pz[coast], cur_z[fresh]]),
            v=np.clip(np.concatenate([_blend(valid[t], a, cur_v[c], pv[t]), weight[coast], cur_v[fresh]]),
                      0.0, 1.0),
            pose=pose,
            lane_ids=np.concatenate([ids[t], ids[coast], np.arange(self._next_id, self._next_id + fresh.size)]),
        )
        self._next_id += fresh.size
        return loss
