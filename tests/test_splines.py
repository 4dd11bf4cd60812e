import numpy as np
import pytest

from lanekit.splines import (
    CurveConfig,
    RankDeficientFit,
    arg_for_y,
    basis_matrix,
    build_basis,
    control_points_from_columns,
    evaluate_curve,
    evaluate_segment,
    fit_control_points,
)
from lanekit.splines import _KNOT_SNAP, _segment_weights


def random_control_points(cfg, rng):
    x = rng.uniform(-20.0, 20.0, cfg.m)
    z = rng.uniform(-5.0, 5.0, cfg.m)
    v = rng.uniform(0.0, 1.0, cfg.m)
    return control_points_from_columns(cfg, x, z, v)


def eval_curve_reference(control, s):
    """Independent per-segment oracle: locate the segment, reflect phantom
    support values at the boundaries, evaluate the cubic directly."""
    control = np.asarray(control, dtype=float)
    m = control.shape[0]
    out = np.empty(control.shape[1])
    for col in range(control.shape[1]):
        p = control[:, col]
        padded = np.concatenate([[2 * p[0] - p[1]], p, [2 * p[-1] - p[-2]]])
        t = s * (m - 1)
        k = min(int(np.floor(t)), m - 2)
        local = t - k
        out[col] = evaluate_segment(local, padded[k:k + 4])
    return out


def scatter_fold_basis(m, s, order):
    """Reference build: scatter each of the four support weights with
    np.add.at and fold the reflected end points in entry by entry."""
    s = np.asarray(s, dtype=float)
    t = s * (m - 1)
    near = np.abs(t - np.round(t)) <= _KNOT_SNAP * (m - 1)
    t[near] = np.round(t[near])
    seg = np.minimum(t.astype(int), m - 2)
    w = _segment_weights(t - seg, order, m)
    rows = np.zeros((s.size, m))
    idx = np.arange(s.size)
    for j, offset in enumerate(range(-1, 3)):
        col = seg + offset
        wj = w[:, j]
        inside = (col >= 0) & (col < m)
        np.add.at(rows, (idx[inside], col[inside]), wj[inside])
        left = col == -1
        np.add.at(rows, (idx[left], 0), 2.0 * wj[left])
        np.add.at(rows, (idx[left], 1), -wj[left])
        right = col == m
        np.add.at(rows, (idx[right], m - 1), 2.0 * wj[right])
        np.add.at(rows, (idx[right], m - 2), -wj[right])
    return rows


class TestSegment:
    def test_interpolates_segment_start(self):
        assert evaluate_segment(0.0, (7.0, 1.5, -2.0, 3.0)) == pytest.approx(1.5, abs=1e-15)

    def test_interpolates_segment_end(self):
        assert evaluate_segment(1.0, (7.0, 1.5, -2.0, 3.0)) == pytest.approx(-2.0, abs=1e-15)

    def test_midpoint_third_basis_value(self):
        # direct polynomial evaluation of the third basis function at 0.5
        assert evaluate_segment(0.5, (0.0, 0.0, 1.0, 0.0)) == pytest.approx(0.5625, abs=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            evaluate_segment(1.5, (0, 0, 0, 0))


class TestBasis:
    def test_knot_rows_are_one_hot(self):
        cfg = CurveConfig(m=6, samples=50)
        basis = build_basis(cfg, cfg.knots)
        assert np.array_equal(basis.matrix, np.eye(6))

    def test_rows_sum_to_one(self):
        basis = basis_matrix(9, np.linspace(0.0, 1.0, 257))
        assert np.abs(basis.matrix.sum(axis=1) - 1.0).max() <= 1e-12

    def test_rows_have_at_most_four_nonzeros(self):
        basis = basis_matrix(12, np.linspace(0.0, 1.0, 301))
        assert (np.count_nonzero(basis.matrix, axis=1) <= 4).all()

    def test_interior_midpoint_weights(self):
        # midpoint of the segment between knots 2 and 3 of a 6-point curve
        basis = basis_matrix(6, [(2 + 0.5) / 5])
        expected = np.array([0.0, -0.0625, 0.5625, 0.5625, -0.0625, 0.0])
        np.testing.assert_allclose(basis.matrix[0], expected, atol=1e-15)

    def test_rejects_args_outside_unit_interval(self):
        with pytest.raises(ValueError):
            basis_matrix(6, [1.2])

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            basis_matrix(3, [0.5])

    def test_cache_returns_same_object(self):
        args = np.linspace(0.0, 1.0, 33)
        assert basis_matrix(7, args) is basis_matrix(7, args)

    def test_cache_stays_bounded_and_keeps_recent_entries(self):
        from lanekit.splines import _basis

        size = _basis.cache_info().maxsize
        kept = np.linspace(0.0, 1.0, 17)
        first = basis_matrix(6, kept)
        expected = basis_matrix(6, [0.0]).matrix.copy()
        for i in range(3 * size):
            basis_matrix(6, [i / (3 * size)])
            if i % (size // 2) == 0:
                assert basis_matrix(6, kept) is first  # in use, so never evicted
            assert _basis.cache_info().currsize <= size
        misses = _basis.cache_info().misses
        assert np.array_equal(basis_matrix(6, [0.0]).matrix, expected)
        assert _basis.cache_info().misses == misses + 1  # rebuilt after eviction

    # The five repeated grids of a process: the dense grid at orders 0-2, the
    # moving-average grid and the neighbour-tangent grid (see `splines._basis`).
    GRIDS = [(np.linspace(0.0, 1.0, 100), 0), (np.linspace(0.0, 1.0, 100), 1),
             (np.linspace(0.0, 1.0, 100), 2), (np.linspace(0.0, 1.0, 51), 0),
             (np.linspace(0.0, 1.0, 20), 1)]

    @staticmethod
    def _targets(rng, count):
        return [np.sort(rng.uniform(0.0, 1.0, 60)) for _ in range(count)]

    def test_cache_keeps_grids_across_frames_at_five_targets(self):
        """A detector step's lookup order: between two frames' lookups of a grid
        come both frames' targets and the other grids, 2T + 4 keys."""
        from lanekit.splines import _basis

        dense, ema, tangent = self.GRIDS[:3], self.GRIDS[3], self.GRIDS[4]
        rng = np.random.default_rng(0)
        _basis.cache_clear()
        for _ in range(30):
            targets = [(args, 0) for args in self._targets(rng, 5)]
            # fit, attention, assign_proposals, spatial and temporal terms, regression, visibility, EMA
            for args, order in [*targets, tangent, *targets, *dense, ema, *targets, *targets, ema]:
                basis_matrix(20, args, order=order)
        assert _basis.cache_info().misses == len(self.GRIDS) + 30 * 5  # nothing rebuilt

    def test_cache_keeps_target_hits_within_a_frame_at_eleven_targets(self):
        """Between a target's fit and its last loss lookup come the other
        targets and the five grids, 5 + (T - 1) keys."""
        from lanekit.splines import _basis

        rng = np.random.default_rng(1)
        for args, order in self.GRIDS:  # looked up by the previous frame
            basis_matrix(20, args, order=order)
        misses = _basis.cache_info().misses
        targets = [(args, 0) for args in self._targets(rng, 11)]
        # fit, the grids, assign_proposals, regression_loss, visibility_loss
        for args, order in [*targets, *self.GRIDS, *targets, *targets, *targets]:
            basis_matrix(20, args, order=order)
        assert _basis.cache_info().misses == misses + 11  # nothing rebuilt

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scatter_fold_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            m, order = int(rng.integers(4, 34)), int(rng.integers(0, 3))
            s = rng.uniform(0.0, 1.0, int(rng.integers(0, 301)))
            snapped = rng.random(s.size) < 0.3  # on a knot, or off it by round-off
            s[snapped] = np.clip(rng.integers(0, m, snapped.sum()) / (m - 1)
                                 + rng.choice([0.0, 1e-14, -1e-14], snapped.sum()), 0.0, 1.0)
            ends = rng.random(s.size) < 0.1
            s[ends] = rng.choice([0.0, -0.0, 1.0], ends.sum())
            for args in (s, s[:0]):
                got = basis_matrix(m, args, order=order).matrix
                want = scatter_fold_basis(m, args, order)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (m, order, args.size)

    def _fd_samples(self, m, h, rng, count=200):
        # central differences straddling a knot see the C1 seam, so keep
        # samples clear of segment boundaries by a few steps
        s = rng.uniform(0.01, 0.99, count * 3)
        knots = np.linspace(0.0, 1.0, m)
        far = np.min(np.abs(s[:, None] - knots[None, :]), axis=1) > 4 * h
        return s[far][:count]

    def test_first_derivative_matches_finite_differences(self):
        m, h = 8, 1e-4
        s = self._fd_samples(m, h, np.random.default_rng(11))
        b1 = basis_matrix(m, s, order=1).matrix
        fd = (basis_matrix(m, s + h).matrix - basis_matrix(m, s - h).matrix) / (2 * h)
        rel = np.abs(b1 - fd) / np.maximum(np.abs(fd), 1.0)
        assert rel.max() < 1e-5

    def test_second_derivative_matches_finite_differences(self):
        m, h = 8, 1e-4
        s = self._fd_samples(m, h, np.random.default_rng(12))
        b2 = basis_matrix(m, s, order=2).matrix
        fd = (basis_matrix(m, s + h, order=1).matrix - basis_matrix(m, s - h, order=1).matrix) / (2 * h)
        rel = np.abs(b2 - fd) / np.maximum(np.abs(fd), 1.0)
        assert rel.max() < 1e-5


class TestEvaluateCurve:
    def test_interpolates_control_points(self):
        cfg = CurveConfig(m=7, samples=50)
        rng = np.random.default_rng(0)
        control = random_control_points(cfg, rng)
        sampled = evaluate_curve(control, build_basis(cfg, cfg.knots))
        np.testing.assert_allclose(sampled, control, atol=1e-12)

    def test_collinear_control_points_stay_collinear(self):
        cfg = CurveConfig(m=6, samples=60)
        control = control_points_from_columns(
            cfg, x=np.linspace(-1.0, 2.0, 6), z=np.linspace(0.0, 0.5, 6), v=np.ones(6))
        sampled = evaluate_curve(control, build_basis(cfg))
        # x and z must stay affine in y
        for col in (0, 2):
            fit = np.polyfit(sampled[:, 1], sampled[:, col], 1)
            residual = sampled[:, col] - np.polyval(fit, sampled[:, 1])
            assert np.abs(residual).max() < 1e-10

    def test_matches_per_segment_oracle(self):
        cfg = CurveConfig(m=9, samples=50)
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(20):
            control = random_control_points(cfg, rng)
            s = rng.uniform(0.0, 1.0, 50)
            sampled = evaluate_curve(control, build_basis(cfg, s))
            for i, si in enumerate(s):
                ref = eval_curve_reference(control, si)
                worst = max(worst, np.abs(sampled[i] - ref).max())
        assert worst < 1e-10

    def test_local_support(self):
        cfg = CurveConfig(m=10, samples=400)
        rng = np.random.default_rng(3)
        control = random_control_points(cfg, rng)
        basis = build_basis(cfg)
        base = evaluate_curve(control, basis)
        j = 4
        bumped = control.copy()
        bumped[j, 0] += 1.0
        moved = np.abs(evaluate_curve(bumped, basis)[:, 0] - base[:, 0]) > 0
        support = np.abs(basis.matrix[:, j]) > 0
        assert np.array_equal(moved, support)
        # support spans at most 4 segments around knot j
        s = basis.sample_args[support]
        knots = cfg.knots
        assert s.min() >= knots[max(j - 2, 0)] - 1e-12
        assert s.max() <= knots[min(j + 2, cfg.m - 1)] + 1e-12

    def test_dimension_mismatch_raises(self):
        cfg = CurveConfig(m=6, samples=50)
        with pytest.raises(ValueError):
            evaluate_curve(np.zeros((7, 4)), build_basis(cfg))


class TestArgForY:
    def test_range_endpoints(self):
        cfg = CurveConfig(y_start=5.0, y_end=105.0)
        assert arg_for_y(5.0, cfg) == 0.0
        assert arg_for_y(105.0, cfg) == 1.0
        assert arg_for_y(55.0, cfg) == pytest.approx(0.5, abs=1e-15)

    def test_linear_map_value(self):
        cfg = CurveConfig(y_start=5.0, y_end=105.0)
        assert arg_for_y(30.0, cfg) == pytest.approx(0.25, abs=1e-15)

    def test_rejects_out_of_range(self):
        cfg = CurveConfig(y_start=5.0, y_end=105.0)
        with pytest.raises(ValueError):
            arg_for_y(4.0, cfg)
        with pytest.raises(ValueError):
            arg_for_y(106.0, cfg)


class TestFit:
    def test_round_trip_recovers_control_points(self):
        cfg = CurveConfig(m=8, y_start=0.0, y_end=100.0, samples=64)
        rng = np.random.default_rng(5)
        control = random_control_points(cfg, rng)
        args = np.linspace(0.0, 1.0, 64)
        dense = evaluate_curve(control, build_basis(cfg, args))
        recovered = fit_control_points(dense, cfg)
        np.testing.assert_allclose(recovered, control, atol=1e-9)

    def test_straight_line_gives_collinear_control_points(self):
        cfg = CurveConfig(m=6, y_start=0.0, y_end=100.0, samples=60)
        y = np.linspace(0.0, 100.0, 80)
        dense = np.column_stack([0.3 * y + 1.0, y, 0.01 * y, np.ones_like(y)])
        control = fit_control_points(dense, cfg)
        assert np.abs(np.diff(control[:, 0], 2)).max() < 1e-9
        assert np.abs(np.diff(control[:, 2], 2)).max() < 1e-9

    def test_linear_profile_reproduced_exactly(self):
        cfg = CurveConfig(m=20, y_start=0.0, y_end=100.0, samples=100)
        y = np.linspace(0.0, 100.0, 100)
        x = 0.05 * y - 1.0
        dense = np.column_stack([x, y, np.zeros_like(y), np.ones_like(y)])
        control = fit_control_points(dense, cfg)
        refit = evaluate_curve(control, build_basis(cfg, arg_for_y(y, cfg)))
        assert np.abs(refit[:, 0] - x).max() < 1e-10

    def test_cubic_profile_residual(self):
        # the uniform basis with reflected boundary segments cannot carry
        # arbitrary curvature exactly; the residual scales with the second
        # and third derivatives over the knot spacing, so a gentle cubic
        # stays below the bound while a stronger one shows the scaling
        cfg = CurveConfig(m=20, y_start=0.0, y_end=100.0, samples=100)
        y = np.linspace(0.0, 100.0, 100)
        x = 1e-9 * y**3 + 2e-8 * y**2 + 0.05 * y - 1.0
        dense = np.column_stack([x, y, np.zeros_like(y), np.ones_like(y)])
        control = fit_control_points(dense, cfg)
        refit = evaluate_curve(control, build_basis(cfg, arg_for_y(y, cfg)))
        assert np.abs(refit[:, 0] - x).max() < 1e-6

    def test_fit_residual_shrinks_with_more_control_points(self):
        y = np.linspace(0.0, 100.0, 400)
        x = 1e-5 * y**3 - 2e-3 * y**2 + 0.05 * y
        dense = np.column_stack([x, y, np.zeros_like(y), np.ones_like(y)])
        residuals = []
        for m in (10, 20, 40):
            cfg = CurveConfig(m=m, y_start=0.0, y_end=100.0, samples=400)
            control = fit_control_points(dense, cfg)
            refit = evaluate_curve(control, build_basis(cfg, arg_for_y(y, cfg)))
            residuals.append(np.abs(refit[:, 0] - x).max())
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[1] / residuals[2] > 2.0

    def test_visibility_clamped(self):
        cfg = CurveConfig(m=6, y_start=0.0, y_end=10.0, samples=30)
        y = np.linspace(0.0, 10.0, 40)
        v = np.where(y < 5.0, 1.2, -0.2)  # out of range on purpose
        dense = np.column_stack([np.zeros_like(y), y, np.zeros_like(y), v])
        control = fit_control_points(dense, cfg)
        assert control[:, 3].min() >= 0.0
        assert control[:, 3].max() <= 1.0

    def test_rank_deficient_raises(self):
        cfg = CurveConfig(m=8, y_start=0.0, y_end=100.0, samples=16)
        y = np.repeat([10.0, 50.0], 8)  # only two distinct arguments
        dense = np.column_stack([y * 0, y, y * 0, np.ones_like(y)])
        with pytest.raises(ValueError, match="rank"):
            fit_control_points(dense, cfg)

    def test_too_few_samples_raises(self):
        cfg = CurveConfig(m=8, y_start=0.0, y_end=100.0, samples=16)
        dense = np.zeros((4, 4))
        dense[:, 1] = [0, 30, 60, 100]
        with pytest.raises(ValueError):
            fit_control_points(dense, cfg)

    def test_too_few_samples_is_rank_deficient(self):
        cfg = CurveConfig(m=8, y_start=0.0, y_end=100.0, samples=16)
        dense = np.zeros((7, 4))
        dense[:, 1] = np.linspace(0.0, 100.0, 7)
        with pytest.raises(RankDeficientFit, match="need at least 8 samples, got 7"):
            fit_control_points(dense, cfg)


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            CurveConfig(m=3)
        with pytest.raises(ValueError):
            CurveConfig(y_start=10.0, y_end=5.0)
        with pytest.raises(ValueError):
            CurveConfig(m=20, samples=10)
