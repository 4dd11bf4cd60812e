import tracemalloc

import numpy as np
import pytest

from lanekit.attention import (
    EncodingConfig,
    gather_attention,
    index_to_mask,
    masked_attention,
    memory_index,
    memory_mask,
    neighbor_line_index,
    neighbor_line_mask,
    positional_encoding,
    same_line_index,
    same_line_mask,
    sparsity_ratio,
    spatio_temporal_layer,
)
from lanekit.splines import basis_matrix


def straight_lanes(offsets, m, y_start=0.0, y_end=100.0):
    y = np.linspace(y_start, y_end, m)
    pts = np.zeros((len(offsets), m, 4))
    for i, x in enumerate(offsets):
        pts[i, :, 0] = x
        pts[i, :, 1] = y
        pts[i, :, 3] = 1.0
    return pts


def dense_softmax_reference(q, k, v, mask):
    """Independent dense reference: -inf masking, plain softmax, zero rows when empty."""
    scale = np.sqrt(q.shape[1])
    scores = q @ k.T / scale
    scores[~mask] = -np.inf
    out = np.zeros((q.shape[0], v.shape[1]))
    for r in range(q.shape[0]):
        row = scores[r]
        if not np.isfinite(row).any():
            continue
        e = np.exp(row - row[np.isfinite(row)].max())
        e[~np.isfinite(row)] = 0.0
        out[r] = (e / e.sum()) @ v
    return out


def loop_neighbor_mask(points):
    """The per-query, per-lane argsort loop the index builder replaced."""
    n, m = points.shape[:2]
    tangents = np.einsum("sm,nmc->nsc", basis_matrix(m, np.linspace(0, 1, m), order=1).matrix,
                         points[:, :, :2])
    norms = np.linalg.norm(tangents, axis=2, keepdims=True)
    tangents = np.where(norms > 1e-12, tangents / np.maximum(norms, 1e-12), [0.0, 1.0])
    mask = np.zeros((n * m, n * m), dtype=bool)
    for i in range(n):
        for j in range(m):
            for other in range(n):
                if other == i:
                    continue
                along = np.abs((points[other, :, :2] - points[i, j, :2]) @ tangents[i, j])
                mask[i * m + j, other * m + np.argsort(along, kind="stable")[:2]] = True
    return mask


def sorted_memory_mask(query_points, memory_points, k_nearest):
    """Full stable sort of every distance row, as before the index builder."""
    mask = np.zeros((len(query_points), len(memory_points)), dtype=bool)
    if len(memory_points) <= k_nearest:
        mask[:] = True
        return mask
    dist = np.linalg.norm(query_points[:, None, :3] - memory_points[None, :, :3], axis=2)
    np.put_along_axis(mask, np.argsort(dist, axis=1, kind="stable")[:, :k_nearest], True, axis=1)
    return mask


def brute_memory_index(queries, memory, k):
    """Each query's whole memory ordered by (distance, index), first min(k, entries) kept.

    Distances are summed per coordinate in x, y, z order, as the index
    builder sums them, and a NaN distance reads as the farthest.
    """
    degree = min(k, len(memory))
    if degree in (0, len(memory)):
        return np.broadcast_to(np.arange(degree), (len(queries), degree))
    rows = []
    for query in queries:
        dist = np.zeros(len(memory))
        with np.errstate(invalid="ignore"):
            for axis in range(3):
                gap = query[axis] - memory[:, axis]
                dist += gap * gap
        dist = np.sqrt(dist)
        dist[np.isnan(dist)] = np.inf
        rows.append(np.lexsort((np.arange(len(memory)), dist))[:degree])
    return np.array(rows)


def memory_cases():
    """(queries, memory, k): ties, duplicates, one y, non-finite coordinates and underflow."""
    rng = np.random.default_rng(36)
    lanes = curved_lanes(5, 8, rng).reshape(-1, 4)
    memory = curved_lanes(6, 20, rng).reshape(-1, 4)
    base = np.round(rng.uniform(-5, 5, (30, 4)))
    grid = np.round(rng.uniform(-5, 5, (50, 4)))
    circle = np.zeros((12, 4))  # eight entries 5 m from the origin, four 10 m away
    circle[:8, :2] = [[3, 4], [4, 3], [-3, 4], [4, -3], [5, 0], [0, -5], [-4, -3], [0, 5]]
    circle[8:, :2] = [[6, 8], [-8, 6], [10, 0], [0, -10]]
    one_y = memory.copy()
    one_y[:, 1] = 40.0
    flat_queries = lanes.copy()
    flat_queries[:, 1] = 40.0
    non_finite_queries = lanes.copy()
    non_finite_queries[[0, 3, 7, 11, 20], [1, 0, 2, 1, 1]] = [np.nan, np.inf, -np.inf, np.inf, -np.inf]
    non_finite_memory = memory.copy()
    non_finite_memory[rng.choice(len(memory), 12, replace=False), rng.integers(0, 3, 12)] = \
        np.tile([np.nan, np.inf, -np.inf], 4)
    # the gap from y = 1 to -1e-17 rounds to 1, a tie with y = 2 that the lower index wins
    rounded = np.zeros((6, 4))
    rounded[:, 1] = [-1e-17, 1.5, 2.0, 3.0, 4.0, 5.0]
    # a tie at 3 m between entries 1 and 0, which y orders the other way round, with far
    # entries between them in y
    scattered_tie = np.zeros((6, 4))
    scattered_tie[:, :2] = [[0, 3], [0, -3], [0, 1], [20, -1], [20, 0], [20, 0.5]]
    tiny = np.zeros((40, 4))  # squares of y gaps under 1e-154 underflow
    tiny[:, 1] = 1e-160 * rng.permutation(40)
    tiny[:, 0] = 1e-170 * rng.integers(0, 3, 40)
    return {
        "curved": (lanes, memory, 10),
        "k1": (lanes, memory, 1),
        "ties": (grid, np.concatenate([base, base[::-1], base]), 7),
        "circle": (np.zeros((3, 4)), circle, 5),
        "duplicates": (lanes, np.repeat(memory[:25], 4, axis=0), 6),
        "one_y": (lanes, one_y, 10),
        "one_y_queries_too": (flat_queries, one_y, 10),
        "non_finite_queries": (non_finite_queries, memory, 10),
        "non_finite_memory": (lanes, non_finite_memory, 10),
        "non_finite_both": (non_finite_queries, non_finite_memory, 10),
        "rounded_gap": (np.array([[0.0, 1.0, 0.0, 0.0]]), rounded, 2),
        "scattered_tie": (np.zeros((1, 4)), scattered_tie, 2),
        "underflow": (tiny[::3], tiny, 4),
        "k_equals_entries": (lanes, memory[:10], 10),
        "k_above_entries": (lanes, memory[:7], 10),
        "k0": (lanes, memory, 0),
        "empty": (lanes, memory[:0], 3),
    }


def dense_layer(embeddings, points, memory_embeddings, memory_points, enc, heads, k_nearest):
    """The layer as dense masked attention over (queries x keys) boolean masks."""
    n, m, channels = embeddings.shape
    flat_points = points.reshape(n * m, 4)
    q = embeddings.reshape(n * m, channels) + positional_encoding(flat_points, enc)
    lane = np.repeat(np.arange(n), m)
    q = q + masked_attention(q, q, q, lane[:, None] == lane[None, :], heads=heads)
    q = q + masked_attention(q, q, q, loop_neighbor_mask(points), heads=heads)
    mem_keys = memory_embeddings + positional_encoding(memory_points, enc) \
        if len(memory_points) else np.zeros((0, channels))
    mem = sorted_memory_mask(flat_points, memory_points, k_nearest)
    q = q + masked_attention(q, mem_keys, mem_keys, mem, heads=heads)
    return q.reshape(n, m, channels)


def curved_lanes(n, m, rng, spacing=3.5):
    y = np.linspace(3.0, 103.0, m)
    pts = np.zeros((n, m, 4))
    pts[:, :, 0] = spacing * (np.arange(n)[:, None] - n / 2) + 1e-3 * (y - 40.0) ** 2 \
        + rng.normal(0.0, 0.2, (n, m))
    pts[:, :, 1] = y + rng.normal(0.0, 0.5, (n, m))
    pts[:, :, 2] = rng.normal(0.0, 0.1, (n, m))
    pts[:, :, 3] = rng.uniform(size=(n, m))
    return pts


def neighbor_cases():
    rng = np.random.default_rng(31)
    curved = curved_lanes(6, 9, rng)
    duplicated = curved_lanes(4, 8, rng)
    duplicated[2] = duplicated[1]               # a whole lane repeated: tied queries
    duplicated[3, 4:] = duplicated[3, 3]        # repeated points: tied candidates
    duplicated[0, 2] = duplicated[0, 5]
    degenerate = straight_lanes([-3.5, 0.0, 3.5], m=5)
    degenerate[1, :, :2] = [0.5, 40.0]          # zero tangent on every point of lane 1
    grid = straight_lanes(3.5 * np.arange(5), m=6)  # straight lanes: exact ties in |dy|
    return {"curved": curved, "duplicated": duplicated, "degenerate": degenerate,
            "grid": grid, "single_lane": curved[:1]}


class TestIndexBuilders:
    @pytest.mark.parametrize("case", sorted(neighbor_cases()))
    def test_neighbor_index_equals_loop(self, case):
        pts = neighbor_cases()[case]
        n, m = pts.shape[:2]
        index = neighbor_line_index(pts)
        assert index.shape == (n * m, 2 * (n - 1))
        dense = index_to_mask(index, n * m)
        assert (dense.sum(axis=1) == 2 * (n - 1)).all()  # no repeated keys in a row
        assert np.array_equal(dense, loop_neighbor_mask(pts))
        assert np.array_equal(neighbor_line_mask(pts), dense)

    def test_neighbor_index_chunk_boundaries(self, monkeypatch):
        import lanekit.attention as attention

        pts = neighbor_cases()["curved"]
        whole = neighbor_line_index(pts)
        monkeypatch.setattr(attention, "_CHUNK_ELEMENTS", 7 * 2 * pts.shape[0] * pts.shape[1])
        assert np.array_equal(neighbor_line_index(pts), whole)

    def test_same_line_index(self):
        index = same_line_index(3, 4)
        assert index.shape == (12, 4)
        assert index[5].tolist() == [4, 5, 6, 7]
        assert np.array_equal(index_to_mask(index, 12), same_line_mask(3, 4))

    @pytest.mark.parametrize("entries, k", [(150, 10), (150, 1), (10, 10), (4, 10), (0, 10), (150, 0)])
    def test_memory_index_equals_sort(self, entries, k):
        rng = np.random.default_rng(32)
        queries = curved_lanes(5, 8, rng).reshape(-1, 4)
        memory = rng.uniform(-20, 110, (entries, 4))
        index = memory_index(queries, memory, k_nearest=k)
        assert index.shape == (40, min(k, entries))
        assert np.array_equal(index_to_mask(index, entries), sorted_memory_mask(queries, memory, k))

    def test_memory_index_ties_keep_lower_index(self, monkeypatch):
        import lanekit.attention as attention

        rng = np.random.default_rng(33)
        base = np.round(rng.uniform(-5, 5, (30, 4)))
        memory = np.concatenate([base, base[::-1], base])  # every distance occurs 3+ times
        queries = np.round(rng.uniform(-5, 5, (50, 4)))
        expected = sorted_memory_mask(queries, memory, 7)
        assert np.array_equal(memory_mask(queries, memory, k_nearest=7), expected)
        monkeypatch.setattr(attention, "_CHUNK_ELEMENTS", 3 * len(memory))
        assert np.array_equal(memory_mask(queries, memory, k_nearest=7), expected)

    def test_memory_index_nan_query_takes_lowest_indices(self):
        rng = np.random.default_rng(35)
        queries = rng.uniform(-20, 20, (6, 4))
        queries[2, 1] = np.nan
        memory = rng.uniform(-20, 20, (40, 4))
        index = memory_index(queries, memory, k_nearest=5)
        assert index[2].tolist() == [0, 1, 2, 3, 4]
        assert np.array_equal(index_to_mask(index, 40), sorted_memory_mask(queries, memory, 5))

    def test_memory_index_rows_nearest_first(self):
        rng = np.random.default_rng(34)
        queries = rng.uniform(-20, 20, (20, 4))
        memory = rng.uniform(-20, 20, (80, 4))
        index = memory_index(queries, memory, k_nearest=6)
        dist = np.linalg.norm(memory[index][:, :, :3] - queries[:, None, :3], axis=2)
        assert (np.diff(dist, axis=1) >= 0).all()

    @pytest.mark.parametrize("chunk", [None, 5])
    @pytest.mark.parametrize("case", sorted(memory_cases()))
    def test_memory_index_equals_brute_force(self, monkeypatch, case, chunk):
        import lanekit.attention as attention

        queries, memory, k = memory_cases()[case]
        if chunk is not None:  # one row per chunk
            monkeypatch.setattr(attention, "_CHUNK_ELEMENTS", chunk)
        index = memory_index(queries, memory, k_nearest=k)
        expected = brute_memory_index(queries, memory, k)
        assert index.shape == expected.shape
        assert index.tolist() == expected.tolist()

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            memory_index(np.zeros((2, 4)), np.zeros((5, 4)), k_nearest=-1)


class TestSameLineMask:
    def test_single_lane_all_true(self):
        assert same_line_mask(1, 4).all()

    def test_two_lanes_block_diagonal(self):
        mask = same_line_mask(2, 2)
        expected = np.kron(np.eye(2, dtype=bool), np.ones((2, 2), dtype=bool))
        assert np.array_equal(mask, expected)

    def test_row_degree_at_reference_config(self):
        mask = same_line_mask(40, 20)
        assert (mask.sum(axis=1) == 20).all()

    def test_symmetry(self):
        mask = same_line_mask(5, 3)
        assert np.array_equal(mask, mask.T)


class TestNeighborLineMask:
    def test_straight_lanes_bracket_query_y(self):
        pts = straight_lanes([-3.5, 0.0, 3.5], m=11, y_start=0.0, y_end=100.0)
        mask = neighbor_line_mask(pts)
        # middle lane, point at y=20 (index 2); orthogonal line is constant-y,
        # nearest on each side lane is the same index, then one that brackets
        row = mask[1 * 11 + 2]
        for lane in (0, 2):
            cols = np.flatnonzero(row[lane * 11:(lane + 1) * 11])
            assert cols.tolist() == [1, 2] or cols.tolist() == [2, 3] or cols.tolist() == [1, 3]
            assert 2 in cols  # exact same-y point is nearest
        assert row.sum() == 4

    def test_row_degree_two_per_other_lane(self):
        pts = straight_lanes([-3.5, 3.5], m=7)
        mask = neighbor_line_mask(pts)
        assert (mask.sum(axis=1) == 2).all()

    def test_disjoint_from_same_line(self):
        pts = straight_lanes([-3.5, 0.0, 3.5], m=6)
        assert not (neighbor_line_mask(pts) & same_line_mask(3, 6)).any()

    def test_matches_brute_force_on_curved_lanes(self):
        rng = np.random.default_rng(5)
        m = 9
        y = np.linspace(0.0, 100.0, m)
        pts = np.zeros((2, m, 4))
        for i, base in enumerate((-2.0, 2.0)):
            pts[i, :, 0] = base + 0.002 * (y - 50) ** 2 + rng.normal(0, 0.2, m)
            pts[i, :, 1] = y
            pts[i, :, 3] = 1.0
        mask = neighbor_line_mask(pts)

        from lanekit.splines import basis_matrix
        tangents = np.einsum("sm,nmc->nsc",
                             basis_matrix(m, np.linspace(0, 1, m), order=1).matrix,
                             pts[:, :, :2])
        for i in range(2):
            for j in range(m):
                t = tangents[i, j] / np.linalg.norm(tangents[i, j])
                other = 1 - i
                along = np.abs((pts[other, :, :2] - pts[i, j, :2]) @ t)
                expected = set((other * m + np.argsort(along, kind="stable")[:2]).tolist())
                got = set(np.flatnonzero(mask[i * m + j]).tolist())
                assert got == expected

    def test_rigid_xy_translation_invariance(self):
        rng = np.random.default_rng(8)
        pts = straight_lanes([-3.5, 0.0, 3.5], m=8)
        pts[:, :, 0] += rng.normal(0, 0.3, (3, 8))
        moved = pts.copy()
        moved[:, :, 0] += 11.0
        moved[:, :, 1] += -7.0
        assert np.array_equal(neighbor_line_mask(pts), neighbor_line_mask(moved))

    def test_degenerate_tangent_falls_back(self):
        pts = np.zeros((2, 4, 4))
        pts[0, :, :2] = [1.0, 50.0]  # all points identical: zero tangent
        pts[1, :, 0] = 4.0
        pts[1, :, 1] = [0.0, 30.0, 60.0, 90.0]
        mask = neighbor_line_mask(pts)
        row = mask[0]
        cols = np.flatnonzero(row[4:])
        assert cols.tolist() == [1, 2]  # nearest two in |dy| from y=50


class TestMemoryMask:
    def test_copies_select_themselves(self):
        queries = np.random.default_rng(0).uniform(-10, 10, (12, 4))
        mask = memory_mask(queries, queries.copy(), k_nearest=1)
        assert np.array_equal(mask, np.eye(12, dtype=bool))

    def test_small_memory_fully_selected(self):
        rng = np.random.default_rng(1)
        mask = memory_mask(rng.uniform(size=(5, 4)), rng.uniform(size=(3, 4)), k_nearest=10)
        assert mask.all()

    def test_empty_memory_all_false(self):
        mask = memory_mask(np.zeros((4, 4)), np.zeros((0, 4)), k_nearest=10)
        assert mask.shape == (4, 0)

    def test_matches_exhaustive_sort(self):
        rng = np.random.default_rng(2)
        queries = rng.uniform(-20, 20, (30, 4))
        memory = rng.uniform(-20, 20, (100, 4))
        mask = memory_mask(queries, memory, k_nearest=10)
        assert (mask.sum(axis=1) == 10).all()
        for r in range(30):
            dist = np.linalg.norm(memory[:, :3] - queries[r, :3], axis=1)
            expected = set(np.argsort(dist, kind="stable")[:10].tolist())
            assert set(np.flatnonzero(mask[r]).tolist()) == expected


def loop_positional_encoding(points, cfg):
    """The per-scalar encoding loop: a sin and a cos block for each of x, y, z and v."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    blocks = []
    freqs = 2.0 ** np.arange(cfg.frequencies)
    for scalar, (lo, hi) in enumerate(cfg.ranges):
        u = np.clip((pts[:, scalar] - lo) / (hi - lo), 0.0, 1.0)
        angles = np.pi * u[:, None] * freqs[None, :]
        blocks.append(np.sin(angles))
        blocks.append(np.cos(angles))
    out = np.concatenate(blocks, axis=1)
    return out[0] if np.asarray(points).ndim == 1 else out


class TestPositionalEncoding:
    CFG = EncodingConfig(dim=64)

    @pytest.mark.parametrize("dim", [8, 16, 64, 128])
    def test_equals_per_scalar_loop_bit_for_bit(self, dim):
        rng = np.random.default_rng(37)
        cfg = EncodingConfig(dim=dim, y_range=(3, 103))  # int bounds are read as floats
        points = np.column_stack([rng.uniform(-30, 30, 601), rng.uniform(-10, 220, 601),
                                  rng.normal(0, 4, 601), rng.uniform(-0.2, 1.2, 601)])
        for pts in (points, points[:1], points[0], points[::7]):
            got, want = positional_encoding(pts, cfg), loop_positional_encoding(pts, cfg)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_deterministic(self):
        p = np.array([1.0, 20.0, 0.1, 0.9])
        np.testing.assert_array_equal(positional_encoding(p, self.CFG),
                                      positional_encoding(p, self.CFG))

    def test_output_dimension(self):
        assert positional_encoding(np.zeros(4), self.CFG).shape == (64,)
        assert positional_encoding(np.zeros((5, 4)), self.CFG).shape == (5, 64)

    def test_y_separation_changes_only_y_block(self):
        a = positional_encoding(np.array([0.0, 20.0, 0.0, 1.0]), self.CFG)
        b = positional_encoding(np.array([0.0, 30.0, 0.0, 1.0]), self.CFG)
        per_scalar = self.CFG.dim // 4
        x_block = slice(0, per_scalar)
        y_block = slice(per_scalar, 2 * per_scalar)
        np.testing.assert_array_equal(a[x_block], b[x_block])
        assert np.abs(a[y_block] - b[y_block]).max() > 0.01
        np.testing.assert_array_equal(a[2 * per_scalar:], b[2 * per_scalar:])

    def test_dim_must_be_divisible(self):
        with pytest.raises(ValueError):
            EncodingConfig(dim=30)

    def test_out_of_range_inputs_clamped(self):
        inside = positional_encoding(np.array([25.0, 20.0, 0.0, 1.0]), self.CFG)
        beyond = positional_encoding(np.array([500.0, 20.0, 0.0, 1.0]), self.CFG)
        per_scalar = self.CFG.dim // 4
        np.testing.assert_array_equal(inside[per_scalar:], beyond[per_scalar:])


class TestMaskedAttention:
    def test_single_key_returns_its_value(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(3, 8))
        k = rng.normal(size=(5, 8))
        v = rng.normal(size=(5, 8))
        mask = np.zeros((3, 5), dtype=bool)
        mask[:, 2] = True
        out = masked_attention(q, k, v, mask)
        np.testing.assert_allclose(out, np.tile(v[2], (3, 1)), atol=1e-12)

    def test_identical_keys_give_mean_of_values(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(2, 4))
        k = np.tile(rng.normal(size=(1, 4)), (6, 1))
        v = rng.normal(size=(6, 4))
        out = masked_attention(q, k, v, np.ones((2, 6), dtype=bool))
        np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (2, 1)), atol=1e-12)

    def test_empty_rows_are_zero(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(3, 4))
        out = masked_attention(q, q, q, np.zeros((3, 3), dtype=bool))
        np.testing.assert_array_equal(out, np.zeros((3, 4)))

    def test_matches_dense_reference_small(self):
        rng = np.random.default_rng(6)
        q = rng.normal(size=(4, 8))
        k = rng.normal(size=(4, 8))
        v = rng.normal(size=(4, 8))
        mask = rng.uniform(size=(4, 4)) > 0.4
        np.testing.assert_allclose(masked_attention(q, k, v, mask),
                                   dense_softmax_reference(q, k, v, mask), atol=1e-12)

    def test_matches_dense_reference_64(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(10):
            q = rng.normal(size=(64, 16))
            k = rng.normal(size=(64, 16))
            v = rng.normal(size=(64, 16))
            mask = rng.uniform(size=(64, 64)) > 0.5
            got = masked_attention(q, k, v, mask)
            ref = dense_softmax_reference(q, k, v, mask)
            worst = max(worst, np.abs(got - ref).max())
        assert worst < 1e-9

    def test_output_is_convex_combination_single_head(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            q = rng.normal(size=(10, 6))
            k = rng.normal(size=(12, 6))
            v = rng.normal(size=(12, 6))
            mask = rng.uniform(size=(10, 12)) > 0.3
            out = masked_attention(q, k, v, mask)
            for r in range(10):
                if not mask[r].any():
                    continue
                sub = v[mask[r]]
                assert (out[r] >= sub.min(axis=0) - 1e-12).all()
                assert (out[r] <= sub.max(axis=0) + 1e-12).all()

    def test_multi_head_shape_and_mismatch_errors(self):
        rng = np.random.default_rng(9)
        q = rng.normal(size=(4, 8))
        out = masked_attention(q, q, q, np.ones((4, 4), dtype=bool), heads=2)
        assert out.shape == (4, 8)
        with pytest.raises(ValueError):
            masked_attention(q, q, q, np.ones((4, 4), dtype=bool), heads=3)
        with pytest.raises(ValueError):
            masked_attention(q, q[:2], q, np.ones((4, 4), dtype=bool))


class TestGatherAttention:
    @pytest.mark.parametrize("degree, heads", [(1, 1), (5, 1), (12, 2), (30, 4)])
    def test_matches_dense_reference(self, degree, heads):
        rng = np.random.default_rng(40 + degree)
        q = rng.normal(size=(25, 16))
        k = rng.normal(size=(30, 16))
        v = rng.normal(size=(30, 16))
        index = np.argsort(rng.uniform(size=(25, 30)), axis=1)[:, :degree]
        mask = index_to_mask(index, 30)
        got = gather_attention(q, k, v, index, heads=heads)
        np.testing.assert_allclose(got, masked_attention(q, k, v, mask, heads=heads), rtol=0, atol=1e-12)
        if heads == 1:
            np.testing.assert_allclose(got, dense_softmax_reference(q, k, v, mask), rtol=0, atol=1e-12)

    def test_degree_zero_rows_are_zero(self):
        rng = np.random.default_rng(45)
        q = rng.normal(size=(6, 8))
        index = np.zeros((6, 0), dtype=int)
        got = gather_attention(q, q, q, index, heads=2)
        np.testing.assert_array_equal(got, np.zeros((6, 8)))
        np.testing.assert_array_equal(got, dense_softmax_reference(q, q, q, index_to_mask(index, 6)))
        empty = np.zeros((0, 8))
        np.testing.assert_array_equal(gather_attention(q, empty, empty, index), np.zeros((6, 8)))

    def test_shape_errors(self):
        q = np.zeros((4, 8))
        with pytest.raises(ValueError):
            gather_attention(q, q, q, np.zeros((3, 2), dtype=int))
        with pytest.raises(ValueError):
            gather_attention(q, q, q, np.zeros((4, 2), dtype=int), heads=3)
        with pytest.raises(ValueError):
            gather_attention(q, q[:, :4], q[:, :4], np.zeros((4, 2), dtype=int))


class TestSparsity:
    def test_single_query_only_self(self):
        assert sparsity_ratio(same_line_mask(1, 1), np.zeros((1, 1), dtype=bool)) == 1.0

    def test_reference_config_active_fraction(self):
        pts = straight_lanes(3.5 * (np.arange(40) - 19.5), m=20)
        same = same_line_mask(40, 20)
        neighbor = neighbor_line_mask(pts)
        assert sparsity_ratio(same, neighbor) == pytest.approx(0.1225, abs=1e-12)

    def test_with_memory_stays_sparse(self):
        rng = np.random.default_rng(10)
        pts = straight_lanes(3.5 * (np.arange(40) - 19.5), m=20)
        same = same_line_mask(40, 20)
        neighbor = neighbor_line_mask(pts)
        memory_points = rng.uniform(-70, 170, (3 * 10 * 20, 4))
        mem = memory_mask(pts.reshape(-1, 4), memory_points, k_nearest=10)
        ratio = sparsity_ratio(same, neighbor, mem)
        assert ratio <= 0.15
        exhaustive = (np.count_nonzero(same | neighbor) + np.count_nonzero(mem)) \
            / (800 * (800 + 600))
        assert ratio == pytest.approx(exhaustive, abs=1e-15)


class TestLayer:
    def test_shapes_and_no_memory_graceful(self):
        rng = np.random.default_rng(11)
        n, m, c = 3, 5, 16
        enc = EncodingConfig(dim=c)
        emb = rng.normal(size=(n, m, c))
        pts = straight_lanes([-3.5, 0.0, 3.5], m=m)
        out = spatio_temporal_layer(emb, pts, np.zeros((0, c)), np.zeros((0, 4)), enc)
        assert out.shape == (n, m, c)
        mem_pts = rng.uniform(-5, 105, (20, 4))
        mem_emb = rng.normal(size=(20, c))
        out2 = spatio_temporal_layer(emb, pts, mem_emb, mem_pts, enc, heads=2, k_nearest=4)
        assert out2.shape == (n, m, c)
        assert not np.allclose(out, out2)

    @pytest.mark.parametrize("n, m, entries, heads, k", [
        (5, 8, 120, 2, 10),    # memory larger than k
        (4, 6, 6, 4, 10),      # memory no larger than k
        (3, 5, 0, 1, 10),      # empty memory
        (1, 7, 30, 2, 4),      # a single lane: no neighbour keys
    ])
    def test_matches_dense_layer(self, n, m, entries, heads, k):
        rng = np.random.default_rng(50 + n)
        c = 16
        enc = EncodingConfig(dim=c)
        pts = curved_lanes(n, m, rng)
        emb = rng.normal(size=(n, m, c))
        mem_pts = rng.uniform(-10, 110, (entries, 4))
        mem_emb = rng.normal(size=(entries, c))
        got = spatio_temporal_layer(emb, pts, mem_emb, mem_pts, enc, heads=heads, k_nearest=k)
        ref = dense_layer(emb, pts, mem_emb, mem_pts, enc, heads, k)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10)

    def test_large_layer_builds_no_dense_array(self):
        # 200 lanes x 40 points is 8000 queries: one dense float score
        # matrix alone would be 8000^2 * 8 B = 512 MB.
        rng = np.random.default_rng(60)
        n, m, c = 200, 40, 16
        pts = curved_lanes(n, m, rng)
        emb = rng.normal(size=(n, m, c))
        mem_pts = rng.uniform(-400, 400, (1200, 4))
        mem_emb = rng.normal(size=(1200, c))
        tracemalloc.start()
        try:
            out = spatio_temporal_layer(emb, pts, mem_emb, mem_pts, EncodingConfig(dim=c), heads=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (n, m, c)
        assert np.isfinite(out).all()
        assert peak < 200 * 2**20
