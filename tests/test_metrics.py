import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from lanekit.assignment import gated_assignment
from lanekit.metrics import (
    EvalAccumulator,
    FrameMatch,
    MatchConfig,
    MatchedPair,
    _chamfer_matches,
    f1_score,
    match_lanes,
    resample_on_grid,
    unilateral_chamfer,
    vis_iou,
)


def lane(x_offset, y_lo=0.0, y_hi=100.0, n=101, z=0.0, v=1.0, x_slope=0.0):
    y = np.linspace(y_lo, y_hi, n)
    x = x_offset + x_slope * y
    return np.column_stack([x, y, np.full_like(y, z), np.full_like(y, v)])


CFG = MatchConfig()


@pytest.mark.parametrize("field, value", [
    ("point_threshold", np.nan), ("point_threshold", np.inf),
    ("chamfer_threshold", np.nan), ("chamfer_threshold", np.inf), ("chamfer_threshold", 0.0),
    ("chamfer_threshold", -0.3),
    ("y_step", 0.0), ("y_step", -2.0), ("y_step", np.nan), ("y_step", np.inf),
    ("y_min", np.nan), ("y_min", -np.inf), ("y_min", 100.0),
    ("y_max", np.nan), ("y_max", np.inf), ("y_max", -5.0), ("y_max", 0.0),
])
def test_match_config_rejects_degenerate_values(field, value):
    with pytest.raises(ValueError, match="must be finite"):
        MatchConfig(**{field: value})


class TestResample:
    def test_grid_points_outside_span_invisible(self):
        x, z, vis = resample_on_grid(lane(0.0, y_lo=20.0, y_hi=60.0), CFG.y_grid)
        grid = CFG.y_grid
        assert vis[(grid >= 20) & (grid <= 60)].all()
        assert not vis[(grid < 20) | (grid > 60)].any()

    def test_low_visibility_masks_points(self):
        pts = lane(0.0)
        pts[pts[:, 1] > 50.0, 3] = 0.0
        _, _, vis = resample_on_grid(pts, CFG.y_grid)
        assert not vis[CFG.y_grid > 52].any()


def loop_match_lanes(pred_lanes, gt_lanes, cfg):
    """Reference matcher: one (target, prediction) pair at a time."""
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

    cost = np.full((n_gt, n_pred), 1e9)
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
        if cost[gi, pi] >= 1e9:
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


def random_frame(rng):
    """Targets and predictions of one random frame: 0-6 lanes a side, 1-60 points a lane,
    partial visibility.  Some frames repeat a target lane, and in 30 % of frames the predictions
    copy the targets exactly, so pair costs tie exactly."""
    def random_lane():
        n = int(rng.integers(1, 61))
        y = np.sort(rng.uniform(-10.0, 120.0, n))
        x = rng.uniform(-8.0, 8.0) + rng.normal(0.0, 0.3, n)
        z = rng.normal(0.0, 0.5) + rng.normal(0.0, 0.2, n)
        v = (rng.uniform(size=n) < rng.uniform(0.3, 1.0)).astype(float)
        return np.column_stack([x, y, z, v])

    gts = [random_lane() for _ in range(rng.integers(0, 7))]
    if gts and rng.uniform() < 0.2:
        gts.insert(int(rng.integers(0, len(gts) + 1)), gts[int(rng.integers(0, len(gts)))].copy())
    if rng.uniform() < 0.3:
        preds = [g.copy() for g in gts]
    else:
        preds = [random_lane() for _ in range(rng.integers(0, 7))]
    return preds, gts


class TestMatchLanes:
    def test_equals_pairwise_loop(self):
        rng = np.random.default_rng(2024)
        seen = {"dropped": 0, "empty": 0, "copied": 0, "repeated": 0, "pairs": 0}
        for frame in range(600):
            cfg = MatchConfig(point_threshold=(0.5, 1.5, 3.0)[frame % 3], y_step=(2.0, 5.0)[frame % 2])
            preds, gts = random_frame(rng)
            got, want = match_lanes(preds, gts, cfg), loop_match_lanes(preds, gts, cfg)
            assert (got.tp, got.fp, got.fn) == (want.tp, want.fp, want.fn)
            assert len(got.pairs) == len(want.pairs)
            for a, b in zip(got.pairs, want.pairs):
                assert (a.pred_index, a.gt_index, a.iou) == (b.pred_index, b.gt_index, b.iou)
                assert type(a.iou) is float and 0.0 < a.iou <= 1.0
                for name in ("abs_dx", "abs_dz", "grid_y"):
                    assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            seen["dropped"] += want.fp + want.fn < len(preds) + len(gts) - 2 * want.tp
            seen["empty"] += not preds or not gts
            seen["copied"] += bool(gts) and all(p is not g and np.array_equal(p, g) for p, g in zip(preds, gts))
            seen["repeated"] += any(np.array_equal(g, h) for g, h in itertools.combinations(gts, 2))
            seen["pairs"] += want.tp
        assert all(count >= 20 for count in seen.values()), seen

    def test_identical_single_lane(self):
        match = match_lanes([lane(0.0)], [lane(0.0)], CFG)
        assert (match.tp, match.fp, match.fn) == (1, 0, 0)

    def test_offset_beyond_threshold_no_match(self):
        match = match_lanes([lane(2.0)], [lane(0.0)], CFG)
        assert (match.tp, match.fp, match.fn) == (0, 1, 1)

    def test_offset_within_threshold_matches(self):
        match = match_lanes([lane(1.0)], [lane(0.0)], CFG)
        assert match.tp == 1

    def test_empty_frames(self):
        match = match_lanes([], [], CFG)
        assert (match.tp, match.fp, match.fn) == (0, 0, 0)
        match = match_lanes([], [lane(0.0)], CFG)
        assert (match.tp, match.fp, match.fn) == (0, 0, 1)

    def test_matches_exhaustive_assignment(self):
        # three predictions, three targets, swap-ambiguous middle pair
        preds = [lane(0.0), lane(0.9), lane(6.0)]
        gts = [lane(0.4), lane(1.1), lane(6.2)]
        cfg = CFG
        match = match_lanes(preds, gts, cfg)
        grid = cfg.y_grid

        def cost(p, g):
            px, pz, pv = resample_on_grid(preds[p], grid)
            gx, gz, gv = resample_on_grid(gts[g], grid)
            both = pv & gv
            d = np.hypot(px[both] - gx[both], pz[both] - gz[both])
            if (d < cfg.point_threshold).sum() / both.sum() < cfg.match_fraction:
                return None
            return d.mean()

        best_count, best_cost = 0, np.inf
        for perm in itertools.permutations(range(3)):
            costs = [cost(p, g) for g, p in enumerate(perm)]
            ok = [c for c in costs if c is not None]
            if len(ok) > best_count or (len(ok) == best_count and sum(ok) < best_cost):
                best_count, best_cost = len(ok), sum(ok)
        assert match.tp == best_count
        got_cost = sum(pair.abs_dx.mean() for pair in match.pairs)  # proxy: same pairs
        assert len(match.pairs) == best_count

    def test_lane_ordering_invariance(self):
        preds = [lane(0.0), lane(3.5), lane(-3.5)]
        gts = [lane(-3.5), lane(0.1), lane(3.4)]
        a = match_lanes(preds, gts, CFG)
        b = match_lanes(preds[::-1], gts[::-1], CFG)
        assert (a.tp, a.fp, a.fn) == (b.tp, b.fp, b.fn)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(4)
        preds = [lane(x + rng.uniform(-1, 1)) for x in (-3.5, 0.0, 3.5)]
        gts = [lane(x) for x in (-3.5, 0.0, 3.5)]
        tps = []
        for threshold in (0.5, 1.0, 1.5, 2.0):
            cfg = MatchConfig(point_threshold=threshold)
            tps.append(match_lanes(preds, gts, cfg).tp)
        assert all(a <= b for a, b in zip(tps, tps[1:]))


class TestF1:
    def test_all_matched(self):
        assert f1_score(3, 0, 0) == (1.0, 1.0, 1.0)

    def test_no_predictions(self):
        f1, p, r = f1_score(0, 0, 2)
        assert (f1, p, r) == (0.0, 0.0, 0.0)

    def test_direct_formula(self):
        f1, p, r = f1_score(2, 1, 1)
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(2 / 3)
        assert f1 == pytest.approx(2 / 3)

    def test_f1_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            tp, fp, fn = rng.integers(0, 10, 3)
            f1, p, r = f1_score(int(tp), int(fp), int(fn))
            assert 0.0 <= f1 <= 1.0
            assert f1 <= min(2 * p, 2 * r) + 1e-12


def frame_errors(pred_lanes, gt_lanes, cfg=CFG):
    """The errors entry of a one-frame report, keyed by bin label."""
    acc = EvalAccumulator(cfg=cfg)
    acc.add_frame(pred_lanes, gt_lanes)
    return acc.report()["errors"]


class TestXZErrors:
    def test_identical_lanes_zero(self):
        for entry in frame_errors([lane(0.0)], [lane(0.0)]).values():
            if entry is not None:
                assert entry == {"x_error": 0.0, "z_error": 0.0}

    def test_constant_offset_everywhere(self):
        errors = frame_errors([lane(0.1)], [lane(0.0)])
        assert errors["0-40m"]["x_error"] == pytest.approx(0.1, abs=1e-12)
        assert errors["40-100m"]["x_error"] == pytest.approx(0.1, abs=1e-12)

    def test_piecewise_offsets_fall_into_bins(self):
        pts = lane(0.0)
        pts[:, 0] = np.where(pts[:, 1] < 40.0, 0.1, 0.3)
        errors = frame_errors([pts], [lane(0.0)])
        assert errors["0-40m"]["x_error"] == pytest.approx(0.1, abs=1e-12)
        assert errors["40-100m"]["x_error"] == pytest.approx(0.3, abs=1e-12)

    def test_empty_bins_absent(self):
        cfg = MatchConfig(y_max=90.0)  # grid never reaches the extended bins
        errors = frame_errors([lane(0.0, y_hi=90.0)], [lane(0.0, y_hi=90.0)], cfg)
        assert errors["100-150m"] is None
        assert errors["150-200m"] is None

    def test_bin_error_is_point_sum_over_count(self):
        rng = np.random.default_rng(11)
        acc = EvalAccumulator()
        sums = {key: [0.0, 0.0, 0] for key in CFG.bins}
        for _ in range(20):
            gts = [lane(x, y_lo=rng.uniform(0, 30), y_hi=rng.uniform(60, 140), z=rng.normal(0, 0.1))
                   for x in (-3.5, 0.0, 3.5)]
            preds = [g + np.column_stack([rng.normal(0, 0.2, (len(g), 3)), np.zeros(len(g))]) for g in gts]
            for pair in acc.add_frame(preds, gts).pairs:
                for key in CFG.bins:
                    inside = (pair.grid_y >= key[0]) & (pair.grid_y < key[1])
                    sums[key][0] += pair.abs_dx[inside].sum()
                    sums[key][1] += pair.abs_dz[inside].sum()
                    sums[key][2] += np.count_nonzero(inside)
        errors = acc.report()["errors"]
        for key, (dx_sum, dz_sum, count) in sums.items():
            entry = errors[f"{key[0]:g}-{key[1]:g}m"]
            if count == 0:
                assert entry is None
            else:
                assert entry == {"x_error": dx_sum / count, "z_error": dz_sum / count}
        assert errors["0-40m"] is not None and errors["100-150m"] is not None


class TestVisIoU:
    def test_identical_visibility(self):
        match = match_lanes([lane(0.0)], [lane(0.0)], CFG)
        assert vis_iou(match) == pytest.approx(1.0)

    def test_worked_example_three_elevenths(self):
        cfg = MatchConfig(y_min=0.0, y_max=100.0, y_step=10.0)
        pred = lane(0.0, y_lo=0.0, y_hi=60.0)
        gt = lane(0.0, y_lo=40.0, y_hi=100.0)
        match = match_lanes([pred], [gt], cfg)
        assert match.tp == 1
        assert vis_iou(match) == pytest.approx(3 / 11, abs=1e-12)

    def test_no_pairs_gives_none(self):
        match = match_lanes([lane(5.0)], [lane(0.0)], CFG)
        assert vis_iou(match) is None


def chamfer_report(pred_lanes, gt_lanes, tau=0.3):
    """The chamfer entry of a one-frame report: precision, recall, f1 and mean_cd."""
    acc = EvalAccumulator(cfg=MatchConfig(chamfer_threshold=tau))
    acc.add_frame(pred_lanes, gt_lanes)
    return acc.report()["chamfer"]


class TestChamfer:
    def test_identical_polylines(self):
        report = chamfer_report([lane(0.0)], [lane(0.0)])
        assert report == {"precision": 1.0, "recall": 1.0, "f1": 1.0, "mean_cd": 0.0}

    def test_one_meter_offset_no_tp(self):
        report = chamfer_report([lane(1.0)], [lane(0.0)], tau=0.3)
        assert (report["precision"], report["recall"], report["f1"]) == (0.0, 0.0, 0.0)

    def test_small_lateral_shift_value(self):
        report = chamfer_report([lane(0.1)], [lane(0.0)], tau=0.3)
        assert report["precision"] == report["recall"] == report["f1"] == 1.0
        assert report["mean_cd"] == pytest.approx(0.1, abs=1e-9)

    def test_unilateral_direction(self):
        # one-sided: from target samples to predicted points; aligned sampling
        short_pred = lane(0.0, y_lo=0.0, y_hi=50.0, n=51)
        full_gt = lane(0.0, n=101)
        assert unilateral_chamfer(full_gt, short_pred) > 1.0
        assert unilateral_chamfer(short_pred, full_gt) == pytest.approx(0.0, abs=1e-12)

    def test_empty_inputs(self):
        assert chamfer_report([], [lane(0.0)]) == {"precision": 0.0, "recall": 0.0, "f1": 0.0, "mean_cd": None}

    def test_gated_assignment_takes_the_cheaper_pair(self):
        preds = [lane(0.05), lane(0.25)]
        gts = [lane(0.0)]
        report = chamfer_report(preds, gts, tau=0.3)
        assert report["recall"] == 1.0
        assert report["precision"] == 0.5
        assert report["mean_cd"] == pytest.approx(0.05, abs=1e-9)


    @pytest.mark.parametrize("reverse_preds", [False, True])
    @pytest.mark.parametrize("reverse_gts", [False, True])
    def test_contested_prediction_keeps_both_pairs(self, reverse_gts, reverse_preds):
        # the closest pair (0.05) would take the only prediction that the -0.05 m target reaches
        gts, preds = [lane(0.0), lane(-0.05)], [lane(0.05), lane(0.19)]
        acc = EvalAccumulator(cfg=MatchConfig(chamfer_threshold=0.2))
        acc.add_frame(preds[::-1] if reverse_preds else preds, gts[::-1] if reverse_gts else gts)
        assert acc.chamfer_tp == 2
        assert acc.report()["chamfer"]["mean_cd"] == pytest.approx((0.1 + 0.19) / 2, abs=1e-9)


def norm_chamfer(gt_points, pred_points):
    """Reference kernel: the (G, P, 3) difference array and one norm per pair."""
    gt = np.asarray(gt_points, dtype=float)[:, :3]
    pred = np.asarray(pred_points, dtype=float)[:, :3]
    diff = gt[:, None, :] - pred[None, :, :]
    return float(np.linalg.norm(diff, axis=2).min(axis=1).mean())


_COORDINATES = st.builds(lambda sign, magnitude: sign * magnitude, st.sampled_from([-1.0, 1.0]),
                         st.floats(min_value=1e-3, max_value=1e4))


@st.composite
def _shared_point_sets(draw):
    """Target and prediction rows drawn from one pool, so points repeat within
    and across the two sets; either set may hold a single point."""
    pool = draw(arrays(np.float64, (draw(st.integers(1, 60)), 4), elements=_COORDINATES))
    rows = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=60)
    return pool[draw(rows)], pool[draw(rows)]


class TestChamferKernel:
    """`unilateral_chamfer` equals the norm-per-pair kernel bit for bit."""

    @settings(max_examples=100, deadline=None, database=None)
    @given(pair=_shared_point_sets(),
           gt=arrays(np.float64, st.tuples(st.integers(1, 60), st.just(4)), elements=_COORDINATES),
           pred=arrays(np.float64, st.tuples(st.integers(1, 60), st.just(4)), elements=_COORDINATES))
    @example(pair=(np.array([[1e-3, 2e4 / 3, -7.0, 1.0]] * 3), np.array([[0.1, 0.2, 0.3, 0.0]])),
             gt=np.array([[1.0, 2.0, 3.0, 1.0]]), pred=np.array([[1.0, 2.0, 3.0, 1.0]]))
    def test_bit_equal_to_norm_kernel(self, pair, gt, pred):
        for target, prediction in (pair, (gt, pred), (gt, pred[:1]), (pred, gt)):
            assert unilateral_chamfer(target, prediction) == norm_chamfer(target, prediction)

    def test_bit_equal_on_lane_shaped_polylines(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            target = lane(rng.normal(0, 3), n=int(rng.integers(2, 120)), z=rng.normal(), x_slope=1e-3)
            predicted = lane(rng.normal(0, 3), y_lo=rng.uniform(0, 50), n=int(rng.integers(1, 60)))
            predicted[:, :3] += rng.normal(0, 0.05, size=(len(predicted), 3))
            assert unilateral_chamfer(target, predicted) == norm_chamfer(target, predicted)


def every_pair_chamfer_matches(pred_lanes, gt_lanes, tau):
    """Reference: every pair's chamfer distance computed, then the gated assignment."""
    cd = np.array([[unilateral_chamfer(gt, pred) for pred in pred_lanes] for gt in gt_lanes])
    cd = cd.reshape(len(gt_lanes), len(pred_lanes))
    return sorted(cd[gated_assignment(cd, cd < tau)].tolist())


def readme_like_frame(rng):
    """Four curved, graded lanes 3.5 m apart sampled every 0.5 m to 250 m, and
    predictions: some near a lane on the same samples, some every 2 m, some short."""
    y = np.arange(0.0, 250.5, 0.5)
    gts = [np.column_stack([k * 3.5 + 5e-4 * y ** 2, y, 0.05 * y, np.ones_like(y)]) for k in range(-2, 2)]
    preds = []
    for gt in gts:
        kind = rng.integers(3)
        pred = gt[::4] if kind == 1 else gt[: int(rng.integers(2, len(gt)))] if kind == 2 else gt
        pred = pred.copy()
        pred[:, :3] += rng.normal(0.0, rng.choice([0.02, 0.1, 0.3]), size=(len(pred), 3))
        preds.append(pred)
    keep = rng.random(len(preds)) < 0.8
    return [p for p, k in zip(preds, keep) if k], gts[: int(rng.integers(1, 5))]


def spaced_target(n, offsets):
    """An n-sample target 100 m apart in y and a prediction on the same samples,
    shifted in x by `offsets` (zero elsewhere), so each sample's nearest distance is its offset."""
    gt = np.zeros((n, 4))
    gt[:, 1] = 100.0 * np.arange(n)
    pred = gt.copy()
    pred[: len(offsets), 0] = offsets
    return gt, pred


class TestChamferBound:
    """`_chamfer_matches` skips pairs by a lower bound and still returns, bit for bit,
    what computing every pair returns."""

    def test_readme_like_frames(self):
        rng = np.random.default_rng(3)
        matched = 0
        for _ in range(30):
            preds, gts = readme_like_frame(rng)
            expected = every_pair_chamfer_matches(preds, gts, 0.3)
            assert _chamfer_matches(preds, gts, 0.3) == expected
            matched += len(expected)
        assert matched > 0

    def test_shuffled_predictions_and_empty_frames(self):
        rng = np.random.default_rng(4)
        preds, gts = readme_like_frame(rng)
        for order in (rng.permutation(len(preds)) for _ in range(5)):
            shuffled = [preds[i] for i in order]
            assert _chamfer_matches(shuffled, gts, 0.3) == every_pair_chamfer_matches(shuffled, gts, 0.3)
        for pred_lanes, gt_lanes in (([], gts), (preds, []), ([], [])):
            assert _chamfer_matches(pred_lanes, gt_lanes, 0.3) == []

    @pytest.mark.parametrize("n", [1, 2, 5, 7, 8])
    def test_target_no_longer_than_the_stride(self, n):
        # the bound is then the first sample's distance over n
        rng = np.random.default_rng(n)
        for _ in range(50):
            gt, pred = spaced_target(n, rng.uniform(0.0, 2.0, n))
            tau = rng.uniform(0.05, 1.0)
            assert _chamfer_matches([pred], [gt], tau) == every_pair_chamfer_matches([pred], [gt], tau)

    def test_distance_within_1e_12_of_tau(self):
        # Only the strided samples are off the prediction, so bound and distance sum the same
        # values in another order and round apart; taus around the distance include ones
        # between the distance and a bound rounded above it, which the margin must admit.
        rng = np.random.default_rng(5)
        bound_above = 0
        for _ in range(300):
            n = int(rng.integers(1, 60))
            gt, pred = spaced_target(n, np.zeros(n))
            pred[::8, 0] = rng.uniform(0.1, 3.0, len(pred[::8]))
            cd = unilateral_chamfer(gt, pred)
            bound = unilateral_chamfer(gt[::8], pred) * len(gt[::8]) / n
            bound_above += bound > cd
            for tau in (cd, np.nextafter(cd, np.inf), np.nextafter(cd, -np.inf), np.nextafter(bound, np.inf),
                         cd + 1e-13, cd - 1e-13, cd + 1e-12, cd - 1e-12):
                tau = float(tau)
                assert _chamfer_matches([pred], [gt], tau) == every_pair_chamfer_matches([pred], [gt], tau)
        assert bound_above > 0


class TestAccumulator:
    def test_self_evaluation_is_perfect(self):
        lanes = [lane(-3.5), lane(0.0), lane(3.5, z=0.2)]
        acc = EvalAccumulator()
        for _ in range(3):
            acc.add_frame(lanes, lanes)
        report = acc.report()
        assert report["f1"] == 1.0
        assert report["vis_iou"] == pytest.approx(1.0)
        assert report["chamfer"]["f1"] == 1.0
        assert report["chamfer"]["mean_cd"] == 0.0
        for entry in report["errors"].values():
            if entry is not None:
                assert entry["x_error"] == 0.0
                assert entry["z_error"] == 0.0

    def test_aggregation_order_independent(self):
        frames = [
            ([lane(0.0)], [lane(0.1)]),
            ([lane(3.5), lane(0.0)], [lane(3.5)]),
            ([], [lane(-3.5)]),
        ]
        a = EvalAccumulator()
        for pred, gt in frames:
            a.add_frame(pred, gt)
        b = EvalAccumulator()
        for pred, gt in frames[::-1]:
            b.add_frame(pred, gt)
        assert a.report() == b.report()
