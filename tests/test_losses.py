import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from lanekit.losses import (
    EmaState,
    EmaTracker,
    GtLane,
    LossBreakdown,
    LossWeights,
    assign_proposals,
    classification_targets,
    combined_loss,
    focal_classification_loss,
    regression_loss,
    regression_loss_grad,
    resample_curves_on_grid,
    spatial_regularization,
    temporal_consistency_loss,
    visibility_loss,
)
from lanekit.splines import CurveConfig, arg_for_y, basis_matrix, control_points_from_columns
from lanekit.temporal import EgoPose, propagate_points

CFG = CurveConfig(m=6, y_start=0.0, y_end=100.0, samples=50)


def straight_lane(cfg, x0, z0=0.0, v=1.0):
    return control_points_from_columns(
        cfg, x=np.full(cfg.m, x0), z=np.full(cfg.m, z0), v=np.full(cfg.m, v))


def gt_from_control(control, cfg, n_samples=11, v=None):
    y = np.linspace(cfg.y_start, cfg.y_end, n_samples)
    sampled = basis_matrix(cfg.m, arg_for_y(y, cfg)).matrix @ control
    pts = sampled.copy()
    pts[:, 1] = y
    if v is not None:
        pts[:, 3] = v
    else:
        pts[:, 3] = 1.0
    return GtLane(points=pts, category=1)


def one_hot_probs(n, k_total, hot, p=1.0):
    probs = np.full((n, k_total), (1.0 - p) / (k_total - 1))
    for i, h in enumerate(np.atleast_1d(hot)):
        probs[i] = (1.0 - p) / (k_total - 1)
        probs[i, h] = p
    return probs


class TestAssignment:
    def test_identical_pair_matches_with_zero_geometry_cost(self):
        control = straight_lane(CFG, 1.0)
        gt = gt_from_control(control, CFG)
        matching = assign_proposals(control[None], one_hot_probs(1, 3, 1), [gt], CFG)
        assert matching == [(0, 0)]

    def test_two_lane_identity_matching(self):
        controls = np.stack([straight_lane(CFG, 0.0), straight_lane(CFG, 3.5)])
        gts = [gt_from_control(controls[0], CFG), gt_from_control(controls[1], CFG)]
        matching = assign_proposals(controls, one_hot_probs(2, 3, [1, 1]), gts, CFG)
        assert matching == [(0, 0), (1, 1)]

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            controls = np.stack([straight_lane(CFG, x) for x in rng.uniform(-10, 10, 5)])
            gts = [gt_from_control(straight_lane(CFG, x), CFG) for x in rng.uniform(-10, 10, 5)]
            if trial % 2:
                gts[trial % 5].points[:, 3] = 0.0  # an all-invisible target costs class only
            probs = rng.uniform(0.05, 1.0, (5, 3))
            probs /= probs.sum(axis=1, keepdims=True)

            def pair_cost(g, p):
                gt = gts[g]
                pred = basis_matrix(CFG.m, arg_for_y(gt.points[:, 1], CFG)).matrix @ controls[p]
                l1 = np.abs(pred[:, 0] - gt.points[:, 0]) + np.abs(pred[:, 2] - gt.points[:, 2])
                vis = gt.points[:, 3]
                geometry = (vis * l1).sum() / vis.sum() if vis.sum() > 0 else 0.0
                return geometry + (1.0 - probs[p, gt.category])

            best = min(
                (sum(pair_cost(g, perm[g]) for g in range(5)) for perm in
                 itertools.permutations(range(5))),
            )
            matching = assign_proposals(controls, probs, gts, CFG)
            got = sum(pair_cost(g, p) for g, p in matching)
            assert got == pytest.approx(best, abs=1e-12)

    def test_more_gt_than_proposals_raises(self):
        control = straight_lane(CFG, 0.0)
        gts = [gt_from_control(control, CFG)] * 2
        with pytest.raises(ValueError):
            assign_proposals(control[None], one_hot_probs(1, 3, 1), gts, CFG)

    def test_background_targets_for_unmatched(self):
        controls = np.stack([straight_lane(CFG, 0.0), straight_lane(CFG, 5.0)])
        gts = [gt_from_control(controls[0], CFG)]
        matching = assign_proposals(controls, one_hot_probs(2, 3, [1, 1]), gts, CFG)
        targets = classification_targets(matching, gts, 2, n_classes=2)
        assert targets[matching[0][1]] == 1
        assert set(targets) == {1, 2}  # background index == n_classes


def pair_eval_pred_at(control_points, args, cfg):
    return basis_matrix(cfg.m, args, order=0).matrix @ np.asarray(control_points, dtype=float)


def pair_geometry_cost(control_points, gt, cfg):
    """Mean L1 (x, z) distance over the target's visible points, one pair at a time."""
    args = arg_for_y(gt.points[:, 1], cfg)
    pred = pair_eval_pred_at(control_points, args, cfg)
    vis = gt.points[:, 3]
    l1 = np.abs(pred[:, 0] - gt.points[:, 0]) + np.abs(pred[:, 2] - gt.points[:, 2])
    total = vis.sum()
    if total <= 0:
        return 0.0
    return float((vis * l1).sum() / total)


def pair_cost_matrix(pred_points, class_probs, gts, cfg, class_weight):
    cost = np.zeros((len(gts), pred_points.shape[0]))
    for g, gt in enumerate(gts):
        for p in range(pred_points.shape[0]):
            cost[g, p] = pair_geometry_cost(pred_points[p], gt, cfg)
            cost[g, p] += class_weight * (1.0 - class_probs[p, gt.category])
    return cost


def pair_regression_loss(pred_points, gts, matching, cfg):
    total = 0.0
    for g, p in matching:
        gt = gts[g]
        pred = pair_eval_pred_at(pred_points[p], arg_for_y(gt.points[:, 1], cfg), cfg)
        l1 = np.abs(pred[:, 0] - gt.points[:, 0]) + np.abs(pred[:, 2] - gt.points[:, 2])
        total += float((gt.points[:, 3] * l1).sum())
    return total / pred_points.shape[0]


def pair_regression_grad(pred_points, gts, matching, cfg):
    grad = np.zeros((pred_points.shape[0], cfg.m, 2))
    for g, p in matching:
        gt = gts[g]
        basis = basis_matrix(cfg.m, arg_for_y(gt.points[:, 1], cfg), order=0)
        pred = basis.matrix @ pred_points[p]
        vis = gt.points[:, 3]
        grad[p, :, 0] += basis.matrix.T @ (vis * np.sign(pred[:, 0] - gt.points[:, 0]))
        grad[p, :, 1] += basis.matrix.T @ (vis * np.sign(pred[:, 2] - gt.points[:, 2]))
    return grad / pred_points.shape[0]


def pair_visibility_loss(pred_points, gts, matching, cfg, eps=1e-7):
    total = 0.0
    for g, p in matching:
        gt = gts[g]
        args = arg_for_y(gt.points[:, 1], cfg)
        pred_v = np.clip(pair_eval_pred_at(pred_points[p], args, cfg)[:, 3], eps, 1.0 - eps)
        v_hat = gt.points[:, 3]
        total += float(-(v_hat * np.log(pred_v) + (1.0 - v_hat) * np.log(1.0 - pred_v)).sum())
    return total / len(matching)


def detector_instance(rng, cfg, n_proposals=20, n_targets=4, n_classes=4):
    """Perturbed proposals around partly visible targets, one of them all invisible."""
    controls = np.stack([
        control_points_from_columns(cfg, x=3.5 * lane + rng.normal(0.0, 0.5, cfg.m),
                                    z=rng.normal(0.0, 0.2, cfg.m), v=np.ones(cfg.m))
        for lane in range(n_targets)])
    gts = []
    for control in controls:
        y = np.sort(rng.uniform(cfg.y_start, cfg.y_end, rng.integers(10, 60)))
        pts = basis_matrix(cfg.m, arg_for_y(y, cfg)).matrix @ control
        pts[:, 1] = y
        pts[:, 3] = rng.random(y.size) < 0.7
        gts.append(GtLane(points=pts, category=int(rng.integers(1, n_classes))))
    gts[rng.integers(n_targets)].points[:, 3] = 0.0
    proposals = controls[np.arange(n_proposals) % n_targets].copy()
    proposals[:, :, 0] += rng.normal(0.0, 0.3, (n_proposals, 1))
    proposals[:, :, 2] += rng.normal(0.0, 0.02, (n_proposals, cfg.m))
    proposals[:, :, 3] = rng.uniform(0.05, 0.95, (n_proposals, cfg.m))
    class_probs = rng.dirichlet(np.ones(n_classes + 1), size=n_proposals)
    return proposals, class_probs, gts


class TestOneProductMatchesPairwise:
    """The batched target sampling reproduces the per-pair formulas bit for bit."""

    CFG = CurveConfig(m=20, y_start=3.0, y_end=103.0)

    @pytest.mark.parametrize("class_weight", [0.0, 1.0])
    @pytest.mark.parametrize("seed", [7, 1009])
    def test_cost_matrix_pairs_and_losses(self, monkeypatch, seed, class_weight):
        rng = np.random.default_rng(seed)
        costs = []

        def recording_assignment(cost):
            costs.append(cost.copy())
            return linear_sum_assignment(cost)

        monkeypatch.setattr("lanekit.losses.linear_sum_assignment", recording_assignment)
        for _ in range(5):
            proposals, probs, gts = detector_instance(rng, self.CFG)
            expected_cost = pair_cost_matrix(proposals, probs, gts, self.CFG, class_weight)
            rows, cols = linear_sum_assignment(expected_cost)
            expected = sorted(zip(rows.tolist(), cols.tolist()))

            matching = assign_proposals(proposals, probs, gts, self.CFG, class_weight=class_weight)
            np.testing.assert_array_equal(costs[-1], expected_cost)
            assert matching == expected

            breakdown = combined_loss(proposals, probs, gts, self.CFG, class_weight=class_weight)
            assert breakdown.regression == pair_regression_loss(proposals, gts, expected, self.CFG)
            assert breakdown.visibility == pair_visibility_loss(proposals, gts, expected, self.CFG)
            targets = classification_targets(expected, gts, proposals.shape[0], probs.shape[1] - 1)
            assert breakdown.classification == focal_classification_loss(probs, targets)
            np.testing.assert_array_equal(
                regression_loss_grad(proposals, gts, expected, self.CFG),
                pair_regression_grad(proposals, gts, expected, self.CFG))


class TestRegressionLoss:
    def test_zero_on_exact_prediction(self):
        control = straight_lane(CFG, 2.0)
        gt = gt_from_control(control, CFG)
        assert regression_loss(control[None], [gt], [(0, 0)], CFG) == 0.0

    def test_constant_offset_value(self):
        control = straight_lane(CFG, 0.0)
        gt = gt_from_control(control, CFG, n_samples=9)
        shifted = control.copy()
        shifted[:, 0] += 0.1
        loss = regression_loss(shifted[None], [gt], [(0, 0)], CFG)
        assert loss == pytest.approx(0.1 * 9, abs=1e-9)

    def test_invisible_targets_contribute_nothing(self):
        control = straight_lane(CFG, 0.0)
        gt = gt_from_control(control, CFG, v=np.zeros(11))
        shifted = control.copy()
        shifted[:, 0] += 5.0
        assert regression_loss(shifted[None], [gt], [(0, 0)], CFG) == 0.0

    def test_empty_matching_warns_and_returns_zero(self):
        control = straight_lane(CFG, 0.0)
        with pytest.warns(UserWarning):
            assert regression_loss(control[None], [], [], CFG) == 0.0


class TestRegressionGrad:
    def test_zero_residual_zero_gradient(self):
        control = straight_lane(CFG, 1.0)
        gt = gt_from_control(control, CFG)
        grad = regression_loss_grad(control[None], [gt], [(0, 0)], CFG)
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)

    def test_single_point_unit_residual_equals_basis_row(self):
        control = straight_lane(CFG, 0.0)
        y = np.array([30.0])
        pts = np.array([[1.0, 30.0, 0.0, 1.0]])  # pred is 1.0 below target in x
        gt = GtLane(points=pts, category=0)
        grad = regression_loss_grad(control[None], [gt], [(0, 0)], CFG)
        row = basis_matrix(CFG.m, arg_for_y(y, CFG)).matrix[0]
        np.testing.assert_allclose(grad[0, :, 0], -row, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        cfg = CurveConfig(m=6, y_start=0.0, y_end=100.0, samples=50)
        step = 1e-5
        worst = 0.0
        for _ in range(100):
            control = control_points_from_columns(
                cfg, x=rng.uniform(-5, 5, cfg.m), z=rng.uniform(-1, 1, cfg.m),
                v=rng.uniform(0, 1, cfg.m))
            gt_control = control_points_from_columns(
                cfg, x=rng.uniform(-5, 5, cfg.m), z=rng.uniform(-1, 1, cfg.m),
                v=np.ones(cfg.m))
            gt = gt_from_control(gt_control, cfg, n_samples=9,
                                 v=(rng.uniform(0, 1, 9) > 0.3).astype(float))
            matching = [(0, 0)]
            analytic = regression_loss_grad(control[None], [gt], matching, cfg)
            for col, out_col in ((0, 0), (2, 1)):
                for j in range(cfg.m):
                    plus = control.copy()
                    plus[j, col] += step
                    minus = control.copy()
                    minus[j, col] -= step
                    fd = (regression_loss(plus[None], [gt], matching, cfg)
                          - regression_loss(minus[None], [gt], matching, cfg)) / (2 * step)
                    rel = abs(analytic[0, j, out_col] - fd) / max(abs(fd), 1.0)
                    worst = max(worst, rel)
        assert worst < 1e-5


class TestVisibilityLoss:
    def test_matching_visibility_is_near_zero(self):
        control = straight_lane(CFG, 0.0, v=1.0)
        gt = gt_from_control(control, CFG, n_samples=9)
        loss = visibility_loss(control[None], [gt], [(0, 0)], CFG)
        assert 0.0 <= loss <= 9 * -np.log(1 - 1e-7) + 1e-12

    def test_half_probability_gives_log2_per_point(self):
        control = straight_lane(CFG, 0.0, v=0.5)
        gt = gt_from_control(control, CFG, n_samples=9)
        loss = visibility_loss(control[None], [gt], [(0, 0)], CFG)
        assert loss == pytest.approx(9 * np.log(2), abs=1e-9)

    def test_single_point_value(self):
        control = straight_lane(CFG, 0.0, v=0.9)
        gt = GtLane(points=np.array([[0.0, 50.0, 0.0, 1.0]]), category=0)
        loss = visibility_loss(control[None], [gt], [(0, 0)], CFG)
        assert loss == pytest.approx(-np.log(0.9), abs=1e-9)

    def test_empty_matching(self):
        control = straight_lane(CFG, 0.0)
        assert visibility_loss(control[None], [], [], CFG) == 0.0


class TestFocalLoss:
    def test_perfect_prediction_zero(self):
        probs = one_hot_probs(3, 4, [0, 1, 2], p=1.0)
        assert focal_classification_loss(probs, [0, 1, 2], gamma=2.0) == pytest.approx(0.0, abs=1e-12)

    def test_gamma_zero_reduces_to_cross_entropy(self):
        probs = np.array([[0.5, 0.25, 0.25]])
        loss = focal_classification_loss(probs, [0], gamma=0.0)
        assert loss == pytest.approx(np.log(2), abs=1e-12)

    def test_gamma_two_half_probability(self):
        probs = np.array([[0.5, 0.5]])
        loss = focal_classification_loss(probs, [0], gamma=2.0)
        assert loss == pytest.approx(0.25 * np.log(2), abs=1e-9)

    def test_zero_probability_clamped(self):
        probs = np.array([[0.0, 1.0]])
        loss = focal_classification_loss(probs, [0], gamma=2.0)
        assert np.isfinite(loss)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            focal_classification_loss(np.array([[1.0]]), [0], gamma=-1.0)


def loop_parallel_term(pred_points, cfg, samples=100):
    """The parallelism term as the per-pair loop it was: one weighted variance per adjacent pair."""
    args = np.linspace(0.0, 1.0, samples)
    curves = np.einsum("sm,nmc->nsc", basis_matrix(cfg.m, args, order=0).matrix, pred_points)
    d1 = np.einsum("sm,nmc->nsc", basis_matrix(cfg.m, args, order=1).matrix, pred_points)
    order = np.argsort(curves[:, :, 0].mean(axis=1), kind="stable")
    terms = []
    for a, b in zip(order[:-1], order[1:]):
        tangent = d1[a, :, :2]
        norm = np.linalg.norm(tangent, axis=1, keepdims=True)
        tangent = np.where(norm > 1e-12, tangent / np.maximum(norm, 1e-12), [0.0, 1.0])
        normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])
        gap = np.abs(np.sum((curves[b, :, :2] - curves[a, :, :2]) * normal, axis=1))
        weights = curves[a, :, 3] * curves[b, :, 3]
        total = weights.sum()
        if total <= 0:
            terms.append(0.0)
            continue
        mean = (weights * gap).sum() / total
        terms.append(float((weights * (gap - mean) ** 2).sum() / total))
    return float(np.mean(terms))


class TestSpatialRegularization:
    @pytest.mark.parametrize("lanes", [1, 2, 3, 20])
    @pytest.mark.parametrize("samples", [100, 37])
    def test_parallel_term_equals_pair_loop_bit_for_bit(self, lanes, samples):
        cfg = CurveConfig(m=20, y_start=3.0, y_end=103.0)
        rng = np.random.default_rng(39)
        for trial in range(6):
            controls = np.stack([
                control_points_from_columns(cfg, x=3.5 * lane + rng.normal(0.0, 0.5, cfg.m),
                                            z=rng.normal(0.0, 0.2, cfg.m), v=rng.uniform(0, 1, cfg.m))
                for lane in range(lanes)])
            if trial % 2:  # an invisible lane gives its pairs zero weight
                controls[rng.integers(lanes), :, 3] = 0.0
            if trial == 4:  # a degenerate tangent: every control point of one lane at one place
                controls[0, :, :2] = [1.0, 50.0]
            if trial == 5:  # equal mean x, ordered by the stable sort
                controls[-1] = controls[0]
            parallel, _, _ = spatial_regularization(controls, cfg, samples=samples)
            assert parallel == (loop_parallel_term(controls, cfg, samples=samples) if lanes > 1 else 0.0)

    def test_parallel_straight_lanes_zero(self):
        controls = np.stack([straight_lane(CFG, 0.0), straight_lane(CFG, 3.5)])
        parallel, smooth, curv = spatial_regularization(controls, CFG)
        assert parallel == pytest.approx(0.0, abs=1e-12)
        assert smooth == pytest.approx(0.0, abs=1e-12)
        assert curv == pytest.approx(0.0, abs=1e-12)

    def test_single_lane_parallel_is_zero(self):
        parallel, _, _ = spatial_regularization(straight_lane(CFG, 0.0)[None], CFG)
        assert parallel == 0.0

    def test_widening_gap_equals_sample_variance(self):
        # left lane straight at x=0, right lane's gap grows 3.0 -> 4.0 linearly
        cfg = CFG
        left = straight_lane(cfg, 0.0)
        gap = 3.0 + (cfg.control_y - cfg.y_start) / (cfg.y_end - cfg.y_start)
        right = control_points_from_columns(cfg, x=gap, z=np.zeros(cfg.m), v=np.ones(cfg.m))
        samples = 100
        parallel, _, _ = spatial_regularization(np.stack([left, right]), cfg, samples=samples)
        args = np.linspace(0.0, 1.0, samples)
        sampled_gap = (basis_matrix(cfg.m, args).matrix @ right)[:, 0]
        assert parallel == pytest.approx(np.var(sampled_gap), rel=1e-9)

    def test_translation_invariance_of_parallel_term(self):
        rng = np.random.default_rng(31)
        controls = np.stack([
            control_points_from_columns(CFG, x=rng.uniform(-1, 1, CFG.m) + off,
                                        z=rng.uniform(-0.2, 0.2, CFG.m), v=np.ones(CFG.m))
            for off in (-3.5, 0.0, 3.5)
        ])
        moved = controls.copy()
        moved[:, :, 0] += 12.3
        moved[:, :, 2] += -4.5
        p0, _, _ = spatial_regularization(controls, CFG)
        p1, _, _ = spatial_regularization(moved, CFG)
        assert p0 == pytest.approx(p1, rel=1e-12)

    def test_curvature_hinge_activates(self):
        cfg = CurveConfig(m=6, y_start=0.0, y_end=10.0, samples=50)
        # tight S-shape in a short range gives curvature above 0.1
        x = np.array([0.0, 1.5, -1.5, 1.5, -1.5, 0.0])
        control = control_points_from_columns(cfg, x=x, z=np.zeros(6), v=np.ones(6))
        _, _, curv = spatial_regularization(control[None], cfg, max_curvature=0.1)
        assert curv > 0.0


class TestEmaUpdate:
    """The moving-average blend of a one-lane EmaTracker whose gate admits the 2 m step."""

    GRID = np.linspace(0.0, 100.0, 21)

    def _blended(self, alpha, pose=None):
        """x after a lane at 1 m is followed by the same lane at 3 m, seen from `pose`."""
        tracker = EmaTracker(self.GRID, alpha=alpha, gate=5.0)
        ones = np.ones((1, self.GRID.size))
        tracker.step(ones, 0.0 * ones, ones, EgoPose.identity())
        tracker.step(3.0 * ones, 0.0 * ones, ones, pose or EgoPose.identity())
        assert tracker.state.lane_count == 1
        return tracker.state.x

    def test_alpha_one_takes_current(self):
        np.testing.assert_allclose(self._blended(alpha=1.0), 3.0)

    def test_alpha_zero_keeps_prior(self):
        np.testing.assert_allclose(self._blended(alpha=0.0), 1.0)

    def test_midpoint_blend(self):
        np.testing.assert_allclose(self._blended(alpha=0.5), 2.0)

    def test_propagation_through_ego_motion(self):
        # prior expressed 2 m behind the current frame; straight lane keeps
        # the blend exact after resampling
        x = self._blended(alpha=0.5, pose=EgoPose.from_parts(np.eye(3), [0.0, 2.0, 0.0]))
        covered = self.GRID <= self.GRID[-1] - 2.0
        np.testing.assert_allclose(x[0, covered], 2.0, atol=1e-12)
        np.testing.assert_allclose(x[0, ~covered], 3.0, atol=1e-12)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"smoothing factor must lie in \[0, 1\]"):
            EmaTracker(self.GRID, alpha=alpha)


class TestTemporalConsistency:
    GRID = np.linspace(0.0, 100.0, 26)

    def _state(self, x, z=None, v=1.0):
        z = np.zeros_like(x) if z is None else z
        return EmaState(y_grid=self.GRID, x=x, z=z, v=np.full_like(x, v), pose=EgoPose.identity())

    def test_zero_when_current_equals_average(self):
        x = np.zeros((2, self.GRID.size))
        state = self._state(x)
        assert temporal_consistency_loss(x, np.zeros_like(x), state) == 0.0

    def test_zero_when_average_invisible(self):
        x = np.zeros((1, self.GRID.size))
        state = self._state(x, v=0.0)
        assert temporal_consistency_loss(x + 5.0, np.zeros_like(x), state) == 0.0

    def test_constant_offset_value(self):
        x = np.zeros((1, self.GRID.size))
        state = self._state(x)
        assert temporal_consistency_loss(x + 0.2, np.zeros_like(x), state) \
            == pytest.approx(0.2, abs=1e-12)

    def test_no_state_gives_zero(self):
        assert temporal_consistency_loss(np.zeros((1, 5)), np.zeros((1, 5)), None) == 0.0

    def test_invariant_under_common_translation(self):
        rng = np.random.default_rng(51)
        x = rng.uniform(-3, 3, (2, self.GRID.size))
        z = rng.uniform(-1, 1, (2, self.GRID.size))
        state = self._state(x, z)
        cur_x, cur_z = x + rng.normal(size=x.shape), z + rng.normal(size=z.shape)
        base = temporal_consistency_loss(cur_x, cur_z, state)
        shifted_state = self._state(x + 7.5, z - 2.5)
        shifted = temporal_consistency_loss(cur_x + 7.5, cur_z - 2.5, shifted_state)
        assert shifted == pytest.approx(base, rel=1e-12)


class TestEmaTracker:
    GRID = np.linspace(0.0, 100.0, 26)

    def test_consistent_stream_has_zero_loss(self):
        cfg = CurveConfig(m=6, y_start=0.0, y_end=100.0)
        tracker = EmaTracker(self.GRID, alpha=0.5)
        controls = np.stack([straight_lane(cfg, 0.0), straight_lane(cfg, 3.5)])
        world_x = controls[:, 0, 0]
        total = 0.0
        for f in range(5):
            pose = EgoPose.from_parts(np.eye(3), [0.0, 2.0 * f, 0.0])
            # static world seen from a moving ego: same x, grid-locked y
            cur_x = np.tile(world_x[:, None], (1, self.GRID.size))
            cur_z = np.zeros_like(cur_x)
            cur_v = np.ones_like(cur_x)
            total += tracker.step(cur_x, cur_z, cur_v, pose)
        assert total == pytest.approx(0.0, abs=1e-9)

    def test_ids_stay_stable_and_new_lanes_get_new_ids(self):
        tracker = EmaTracker(self.GRID, alpha=0.5)
        x2 = np.array([[0.0], [3.5]]) @ np.ones((1, self.GRID.size))
        z2 = np.zeros_like(x2)
        v2 = np.ones_like(x2)
        tracker.step(x2, z2, v2, EgoPose.identity())
        first_ids = tracker.state.lane_ids.copy()
        x3 = np.vstack([x2, np.full((1, self.GRID.size), -3.5)])
        tracker.step(x3, np.zeros_like(x3), np.ones_like(x3), EgoPose.identity())
        ids = tracker.state.lane_ids
        assert set(first_ids).issubset(set(ids))
        assert len(ids) == 3

    def test_perturbed_stream_has_larger_loss(self):
        rng = np.random.default_rng(77)
        for_clean, for_noisy = EmaTracker(self.GRID, 0.5), EmaTracker(self.GRID, 0.5)
        clean_total = noisy_total = 0.0
        for f in range(10):
            pose = EgoPose.from_parts(np.eye(3), [0.0, 1.0 * f, 0.0])
            x = np.zeros((1, self.GRID.size))
            z = np.zeros_like(x)
            v = np.ones_like(x)
            clean_total += for_clean.step(x, z, v, pose)
            wobble = x + rng.normal(0, 0.3, size=x.shape)
            noisy_total += for_noisy.step(wobble, z, v, pose)
        assert noisy_total > clean_total

    @pytest.mark.parametrize("travel", [1.0, 4.0, 7.0])
    def test_unfed_lane_leaves_the_state_as_it_leaves_the_grid(self, travel):
        tracker = EmaTracker(self.GRID, alpha=0.5)
        both = np.array([[-1.75], [1.75]]) @ np.ones((1, self.GRID.size))
        tracker.step(both, np.zeros_like(both), np.ones_like(both), EgoPose.identity())
        unfed, fed = tracker.state.lane_ids.tolist()
        one = both[1:]
        present = []
        for f in range(1, int(np.ceil((self.GRID[-1] - self.GRID[0]) / travel)) + 2):
            pose = EgoPose.from_parts(np.eye(3), [0.0, travel * f, 0.0])
            tracker.step(one, np.zeros_like(one), np.ones_like(one), pose)
            present.append(unfed in tracker.state.lane_ids)
        assert present[0]  # it coasts while some of the grid is still covered
        assert tracker.state.lane_ids.tolist() == [fed]


def loop_propagate(state, pose):
    """The state's lanes carried into `pose` one at a time, then re-interpolated onto the grid."""
    grid = state.y_grid
    n = state.lane_count
    x, z, v = np.zeros((n, grid.size)), np.zeros((n, grid.size)), np.zeros((n, grid.size))
    valid = np.zeros((n, grid.size), dtype=bool)
    for i in range(n):
        moved = propagate_points(np.column_stack([state.x[i], grid, state.z[i], state.v[i]]),
                                 state.pose, pose)
        order = np.argsort(moved[:, 1], kind="stable")
        ys = moved[order, 1]
        ok = (grid >= ys[moved[order, 3] > 0].min(initial=np.inf)) & (grid <= ys[moved[order, 3] > 0].max(initial=-np.inf))
        valid[i] = ok
        if ok.any():
            x[i, ok] = np.interp(grid[ok], ys, moved[order, 0])
            z[i, ok] = np.interp(grid[ok], ys, moved[order, 2])
            v[i, ok] = np.interp(grid[ok], ys, moved[order, 3])
    return x, z, v, valid


def loop_tracker_step(tracker, cur_x, cur_z, cur_v, pose):
    """EmaTracker.step with per-lane propagation, the per-(track, lane) distance loop and inline blends."""
    n_cur = cur_x.shape[0]
    if tracker.state is None or tracker.state.lane_count == 0:
        ids = np.arange(tracker._next_id, tracker._next_id + n_cur)
        tracker._next_id += n_cur
        tracker.state = EmaState(y_grid=tracker.y_grid, x=cur_x.copy(), z=cur_z.copy(),
                                 v=cur_v.copy(), pose=pose, lane_ids=ids)
        return 0.0
    px, pz, pv, valid = loop_propagate(tracker.state, pose)
    n_trk = px.shape[0]
    dist = np.full((n_trk, n_cur), np.inf)
    for t in range(n_trk):
        for c in range(n_cur):
            ok = valid[t]
            if not ok.any():
                continue
            dist[t, c] = np.hypot(px[t, ok] - cur_x[c, ok], pz[t, ok] - cur_z[c, ok]).mean()
    rows, cols = linear_sum_assignment(np.where(dist <= tracker.gate, dist, 1e9))
    pairs = [(t, c) for t, c in zip(rows, cols) if dist[t, c] <= tracker.gate]
    loss = 0.0
    for t, c in pairs:
        gap = np.abs(cur_x[c] - px[t]) + np.abs(cur_z[c] - pz[t])
        loss += float(np.mean(np.where(valid[t], pv[t], 0.0) * gap))
    loss = loss / n_cur if n_cur else 0.0
    a = tracker.alpha
    new_x, new_z, new_v, new_ids = [], [], [], []
    for t, c in pairs:
        new_x.append(np.where(valid[t], a * cur_x[c] + (1 - a) * px[t], cur_x[c]))
        new_z.append(np.where(valid[t], a * cur_z[c] + (1 - a) * pz[t], cur_z[c]))
        new_v.append(np.where(valid[t], a * cur_v[c] + (1 - a) * pv[t], cur_v[c]))
        new_ids.append(tracker.state.lane_ids[t])
    for t in range(n_trk):
        if t not in {t for t, _ in pairs} and valid[t].any():
            new_x.append(px[t])
            new_z.append(pz[t])
            new_v.append(np.where(valid[t], pv[t], 0.0))
            new_ids.append(tracker.state.lane_ids[t])
    for c in range(n_cur):
        if c not in {c for _, c in pairs}:
            new_x.append(cur_x[c].copy())
            new_z.append(cur_z[c].copy())
            new_v.append(cur_v[c].copy())
            new_ids.append(tracker._next_id)
            tracker._next_id += 1
    shape = (len(new_x), tracker.y_grid.size)  # (lanes, grid) also when no lane is left
    tracker.state = EmaState(y_grid=tracker.y_grid, x=np.array(new_x).reshape(shape),
                             z=np.array(new_z).reshape(shape),
                             v=np.clip(np.array(new_v).reshape(shape), 0.0, 1.0), pose=pose,
                             lane_ids=np.array(new_ids, dtype=int))
    return loss


class TestEmaTrackerMatchesLoop:
    GRID = np.linspace(0.0, 100.0, 26)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_pairs_and_losses(self, seed):
        rng = np.random.default_rng(seed)
        fast, loop = EmaTracker(self.GRID, 0.5, gate=0.8), EmaTracker(self.GRID, 0.5, gate=0.8)
        offsets = 3.5 * np.arange(-3, 4)
        empty_states = 0
        for f in range(25):
            # lanes come and go, none on some frames, jitter around the gate, and
            # the ego jumps far enough now and then that old tracks lose all valid points
            count = 0 if f % 6 == 5 else rng.integers(1, 6)
            lanes = np.sort(rng.choice(offsets, size=count, replace=False))
            y = 3.0 * f + (150.0 if f % 9 == 8 else 0.0)
            pose = EgoPose.from_parts(np.eye(3), [0.2 * np.sin(f), y, 0.0])
            x = lanes[:, None] + rng.normal(0.0, 0.4, (len(lanes), self.GRID.size))
            z = rng.normal(0.0, 0.05, x.shape)
            v = rng.uniform(size=x.shape)
            got, expected = fast.step(x, z, v, pose), loop_tracker_step(loop, x, z, v, pose)
            assert got == expected
            assert np.array_equal(fast.state.lane_ids, loop.state.lane_ids)
            for field in ("x", "z", "v"):
                assert getattr(fast.state, field).shape == (fast.state.lane_count, self.GRID.size)
                np.testing.assert_array_equal(getattr(fast.state, field), getattr(loop.state, field))
            empty_states += fast.state.lane_count == 0
        assert empty_states > 0


class TestProposalOrderingInvariance:
    def test_losses_invariant_under_proposal_permutation(self):
        rng = np.random.default_rng(42)
        xs = rng.uniform(-10, 10, 4)
        controls = np.stack([straight_lane(CFG, x) for x in xs])
        gts = [gt_from_control(straight_lane(CFG, x + rng.uniform(-0.3, 0.3)), CFG)
               for x in xs[:3]]
        probs = rng.uniform(0.05, 1.0, (4, 3))
        probs /= probs.sum(axis=1, keepdims=True)

        perm = np.array([2, 0, 3, 1])
        matching = assign_proposals(controls, probs, gts, CFG)
        matching_perm = assign_proposals(controls[perm], probs[perm], gts, CFG)

        # the optimal assignment picks the same proposals, so every loss agrees
        assert {(g, perm[p]) for g, p in matching_perm} == set(matching)
        assert regression_loss(controls, gts, matching, CFG) \
            == pytest.approx(regression_loss(controls[perm], gts, matching_perm, CFG), rel=1e-12)
        assert visibility_loss(controls, gts, matching, CFG) \
            == pytest.approx(visibility_loss(controls[perm], gts, matching_perm, CFG), rel=1e-12)
        t = classification_targets(matching, gts, 4, 2)
        t_perm = classification_targets(matching_perm, gts, 4, 2)
        assert focal_classification_loss(probs, t) \
            == pytest.approx(focal_classification_loss(probs[perm], t_perm), rel=1e-12)


class TestCombinedLoss:
    def test_zero_on_perfect_prediction(self):
        controls = np.stack([straight_lane(CFG, 0.0), straight_lane(CFG, 3.5)])
        gts = [gt_from_control(c, CFG) for c in controls]
        probs = one_hot_probs(2, 3, [1, 1], p=1.0)
        breakdown = combined_loss(controls, probs, gts, CFG)
        assert breakdown.regression == 0.0
        assert breakdown.classification == pytest.approx(0.0, abs=1e-12)
        assert breakdown.spatial_parallel == pytest.approx(0.0, abs=1e-12)
        assert breakdown.temporal == 0.0
        assert breakdown.total == pytest.approx(breakdown.weights.visibility
                                                * breakdown.visibility, abs=1e-9)

    @pytest.mark.parametrize("seed", [7, 1009])
    def test_regression_and_visibility_equal_the_standalone_terms(self, seed):
        cfg = CurveConfig(m=20, y_start=3.0, y_end=103.0)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            proposals, probs, gts = detector_instance(rng, cfg)
            matching = assign_proposals(proposals, probs, gts, cfg)
            breakdown = combined_loss(proposals, probs, gts, cfg)
            assert breakdown.regression == regression_loss(proposals, gts, matching, cfg)
            assert breakdown.visibility == visibility_loss(proposals, gts, matching, cfg)
        empty = combined_loss(proposals, probs, [], cfg)
        assert (empty.regression, empty.visibility) == (0.0, 0.0)

    def test_temporal_term_uses_state(self):
        controls = straight_lane(CFG, 0.0)[None]
        gts = [gt_from_control(controls[0], CFG)]
        probs = one_hot_probs(1, 3, [1], p=1.0)
        grid = np.linspace(0.0, 100.0, 21)
        state = EmaState(y_grid=grid, x=np.full((1, 21), 0.4), z=np.zeros((1, 21)),
                         v=np.ones((1, 21)), pose=EgoPose.identity())
        breakdown = combined_loss(controls, probs, gts, CFG, ema_state=state)
        assert breakdown.temporal == pytest.approx(0.4, abs=1e-12)


class TestLossBreakdown:
    def test_total_is_weighted_sum(self):
        weights = LossWeights(regression=2.0, visibility=1.0, classification=0.5,
                              spatial_parallel=0.1, spatial_smooth=0.2,
                              spatial_curvature=0.3, temporal=0.4)
        breakdown = LossBreakdown(regression=1.0, visibility=2.0, classification=3.0,
                                  spatial_parallel=4.0, spatial_smooth=5.0,
                                  spatial_curvature=6.0, temporal=7.0, weights=weights)
        expected = 2.0 + 2.0 + 1.5 + 0.4 + 1.0 + 1.8 + 2.8
        assert breakdown.total == pytest.approx(expected, abs=1e-12)

    def test_total_adds_the_terms_left_to_right(self):
        rng = np.random.default_rng(15)
        for case in range(500):
            w = LossWeights(*(rng.normal(0.0, 10.0, 7) * 10.0 ** rng.integers(-8, 9, 7)).tolist())
            # every term is zero in odd cases, so products are 0.0 or, with a negative weight, -0.0
            terms = np.where(rng.uniform(size=7) < 0.3 + 0.7 * (case % 2), 0.0, rng.exponential(1.0, 7))
            b = LossBreakdown(*terms.tolist(), weights=w)
            written_out = (w.regression * b.regression + w.visibility * b.visibility
                           + w.classification * b.classification + w.spatial_parallel * b.spatial_parallel
                           + w.spatial_smooth * b.spatial_smooth + w.spatial_curvature * b.spatial_curvature
                           + w.temporal * b.temporal)
            assert np.float64(b.total).tobytes() == np.float64(written_out).tobytes()
        negative_zero = LossBreakdown(weights=LossWeights(*[-1.0] * 7)).total
        assert negative_zero == 0.0 and np.signbit(negative_zero)

    def test_all_losses_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(99)
        cfg = CFG
        for _ in range(20):
            control = control_points_from_columns(
                cfg, x=rng.uniform(-5, 5, cfg.m), z=rng.uniform(-1, 1, cfg.m),
                v=rng.uniform(0.01, 0.99, cfg.m))
            gt = gt_from_control(straight_lane(cfg, rng.uniform(-5, 5)), cfg)
            matching = [(0, 0)]
            probs = rng.uniform(0.05, 1.0, (1, 3))
            probs /= probs.sum(axis=1, keepdims=True)
            values = [
                regression_loss(control[None], [gt], matching, cfg),
                visibility_loss(control[None], [gt], matching, cfg),
                focal_classification_loss(probs, [1], gamma=2.0),
                *spatial_regularization(control[None], cfg),
            ]
            assert all(np.isfinite(v) and v >= 0.0 for v in values)
