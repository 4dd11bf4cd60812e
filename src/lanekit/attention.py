"""Lane-structured attention: key index lists and a gather-based forward pass.

Queries are lane points on an (n_lanes, m_points) grid, flattened as
lane * m + point.  Three selection rules restrict which keys each query
may attend to: points on its own lane, the two nearest points on every
neighboring lane in the direction orthogonal to the local tangent, and
the nearest entries of the propagated memory.  Together they leave only
a small fraction of the full attention matrix active.

Each rule is built once, as a fixed-degree (queries, degree) index
array (`same_line_index`, `neighbor_line_index`, `memory_index`), and
the layer attends over the gathered keys.  The boolean masks
(`same_line_mask`, `neighbor_line_mask`, `memory_mask`) are dense views
of those index lists, for reports and dense reference checks.

`memory_index` computes distances only inside a y-window of the memory
sorted by y: a query's k-th distance to the 2k entries around it in y
bounds its k-th distance over the whole memory, and any entry within
that distance lies within it in y.  The window is widened by a relative
1e-9 for rounding, so the selection is the whole-memory one bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .splines import basis_matrix


# Upper bound on the elements of one per-chunk temporary (256 KB of float64):
# the neighbour and memory builders and the gathered attention work over
# query chunks of this size, so no (queries x keys) array is ever built and
# the temporaries stay small enough to be reused from cache.
_CHUNK_ELEMENTS = 1 << 15


def _query_chunks(n_queries: int, per_query: int, elements: int):
    """Query slices of elements // per_query rows each (at least one)."""
    step = max(1, elements // max(per_query, 1))
    return (slice(lo, lo + step) for lo in range(0, n_queries, step))


def index_to_mask(index: np.ndarray, n_keys: int) -> np.ndarray:
    """Dense boolean (queries, n_keys) view of a (queries, degree) key index list."""
    mask = np.zeros((index.shape[0], n_keys), dtype=bool)
    np.put_along_axis(mask, index, True, axis=1)
    return mask


def same_line_index(n_lanes: int, m_points: int) -> np.ndarray:
    """(n*m, m) key indices: every point of the query's own lane."""
    if n_lanes < 1 or m_points < 1:
        raise ValueError("lane and point counts must be >= 1")
    lane = np.repeat(np.arange(n_lanes), m_points)
    return lane[:, None] * m_points + np.arange(m_points)


def same_line_mask(n_lanes: int, m_points: int) -> np.ndarray:
    """Boolean (n*m, n*m) mask: query and key belong to the same lane."""
    return index_to_mask(same_line_index(n_lanes, m_points), n_lanes * m_points)


def neighbor_line_index(points: np.ndarray) -> np.ndarray:
    """(n*m, 2(n-1)) key indices: per query, the 2 points of every other
    lane closest to the query's orthogonal line.

    The orthogonal line runs through the query point perpendicular to
    the local x-y tangent, so a candidate's distance to it is the
    magnitude of its offset along the tangent direction.  Degenerate
    tangents fall back to the longitudinal axis.  Ties keep the lower
    point index.  Rows list the other lanes in ascending order, each
    lane's two points nearest first.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 3 or points.shape[2] < 2:
        raise ValueError("points must be (n_lanes, m_points, >=2)")
    n, m = points.shape[:2]
    tangents = np.einsum("sm,nmc->nsc", basis_matrix(m, np.linspace(0, 1, m), order=1).matrix,
                         points[:, :, :2])
    norms = np.linalg.norm(tangents, axis=2, keepdims=True)
    tangents = np.where(norms > 1e-12, tangents / np.maximum(norms, 1e-12), [0.0, 1.0])

    xy = points[:, :, :2].reshape(n * m, 2)
    xy_t = np.ascontiguousarray(xy.T)
    tangents = tangents.reshape(n * m, 1, 2)
    lane_start = np.arange(n)[:, None] * m
    other_lane = np.repeat(np.arange(n), m)[:, None] != np.arange(n)
    index = np.empty((n * m, 2 * (n - 1)), dtype=np.intp)
    for rows in _query_chunks(n * m, 2 * n * m, _CHUNK_ELEMENTS):
        # (chunk, 1, 2) @ (chunk, 2, n*m) gives each query's tangent offsets
        # with the same products and sums as (lane_points - q) @ t per lane.
        offsets = xy_t - xy[rows, :, None]
        along = np.abs(tangents[rows] @ offsets).reshape(-1, n, m)
        nearest = np.argsort(along, axis=2, kind="stable")[:, :, :2] + lane_start
        index[rows] = nearest[other_lane[rows]].reshape(index[rows].shape)
    return index


def neighbor_line_mask(points: np.ndarray) -> np.ndarray:
    """Boolean (n*m, n*m) mask of `neighbor_line_index`."""
    index = neighbor_line_index(points)
    return index_to_mask(index, index.shape[0])


def _distances(queries: np.ndarray, memory: np.ndarray, first: np.ndarray, width: int) -> np.ndarray:
    """(rows, width) 3D distances of (3, rows) query coordinates to the
    memory columns first .. first + width - 1 of each row.

    Summed per coordinate in x, y, z order: the same arithmetic as
    np.linalg.norm over the last axis, without a (rows, width, 3) array.
    A NaN distance reads as inf, which compares as the farthest.
    """
    dist = np.zeros((first.size, width))
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, read as inf below
        for axis in range(3):
            gap = queries[axis, :, None] - sliding_window_view(memory[axis], width)[first]
            gap *= gap
            dist += gap
    np.sqrt(dist, out=dist)
    dist[np.isnan(dist)] = np.inf
    return dist


def memory_index(query_points: np.ndarray, memory_points: np.ndarray,
                 k_nearest: int = 10) -> np.ndarray:
    """(queries, min(k, memory)) memory indices: the k_nearest entries by 3D distance.

    Memory geometry must already be propagated into the query frame.
    Ties keep the lower memory index.  With more than k entries each row
    lists its k nearest first; otherwise every row lists the whole memory
    in index order, so an empty memory yields degree 0 and the attention
    contribution is skipped downstream.

    Distances are computed only inside a y-window of the memory, sorted
    by y once per call.  The k-th smallest distance to the 2k entries
    around a query in y order bounds the query's k-th distance over the
    whole memory.  Widened by a relative 1e-9, and by 1e-150 for squared
    gaps that underflow, it is the half-width B of the window
    [qy - B, qy + B], found with `searchsorted`.  The rule is exact: any
    entry the whole-memory rule could pick has |dy| <= distance <= k-th
    <= B, where the widening covers the rounding of dy and of its square,
    and rounding is monotone, so the window edges keep every such entry;
    the (row, distance, index) selection inside the window is then the
    whole-memory one.  A bound that is not finite, as for a query or near
    entries with a non-finite coordinate, gives a window of the whole
    memory through the same code.  Windows are padded to the widest one
    and worked in row chunks under `_CHUNK_ELEMENTS`.
    """
    if k_nearest < 0:
        raise ValueError(f"k_nearest must be >= 0, got {k_nearest}")
    query_points = np.asarray(query_points, dtype=float).reshape(-1, np.asarray(query_points).shape[-1])
    memory_points = np.asarray(memory_points, dtype=float)
    n_q = query_points.shape[0]
    n_k = memory_points.shape[0]
    degree = min(k_nearest, n_k)
    if degree in (0, n_k):
        return np.broadcast_to(np.arange(degree), (n_q, degree))
    queries = np.ascontiguousarray(query_points[:, :3].T)
    by_y = np.argsort(memory_points[:, 1], kind="stable")  # NaN y sorts last
    memory = np.ascontiguousarray(memory_points[by_y, :3].T)

    near = min(2 * degree, n_k)
    around = np.clip(np.searchsorted(memory[1], queries[1]) - degree, 0, n_k - near)
    bound = np.empty(n_q)
    for rows in _query_chunks(n_q, near, _CHUNK_ELEMENTS):
        dist = _distances(queries[:, rows], memory, around[rows], near)
        bound[rows] = np.partition(dist, degree - 1, axis=1)[:, degree - 1]
    bound = bound * (1.0 + 1e-9) + 1e-150
    finite = np.isfinite(bound)
    half = np.where(finite, bound, 0.0)
    lo = np.where(finite, np.searchsorted(memory[1], queries[1] - half, side="left"), 0)
    hi = np.where(finite, np.searchsorted(memory[1], queries[1] + half, side="right"), n_k)
    width = int((hi - lo).max())
    first = np.minimum(lo, n_k - width)

    index = np.empty((n_q, degree), dtype=np.intp)
    for rows in _query_chunks(n_q, width, _CHUNK_ELEMENTS):
        dist = _distances(queries[:, rows], memory, first[rows], width)
        pick = np.argpartition(dist, degree - 1, axis=1)
        kth = np.take_along_axis(dist, pick[:, degree - 1:degree], axis=1)
        # Every entry within the k-th distance is a candidate.  The `wide`
        # nearest of each row hold all of its candidates, those of the row
        # with the most ties at the k-th distance too (a partition at k may
        # leave a tie past the first `wide`, so ties partition again);
        # ordering them by (distance, index) and keeping the first k lets
        # the lower index win a tie at the k-th distance.
        wide = int((dist <= kth).sum(axis=1).max())
        if wide > degree:
            pick = np.argpartition(dist, wide - 1, axis=1)
        pick = pick[:, :wide]
        entry = by_y[first[rows, None] + pick]
        order = np.lexsort((entry, np.take_along_axis(dist, pick, axis=1)), axis=1)
        index[rows] = np.take_along_axis(entry, order[:, :degree], axis=1)
    return index


def memory_mask(query_points: np.ndarray, memory_points: np.ndarray,
                k_nearest: int = 10) -> np.ndarray:
    """Boolean (queries, memory) mask of `memory_index`."""
    return index_to_mask(memory_index(query_points, memory_points, k_nearest),
                         np.shape(memory_points)[0])


@dataclass(frozen=True)
class EncodingConfig:
    """Sinusoidal positional encoding over the 4 scalars (x, y, z, v).

    `dim` output channels split evenly over the scalars, one sin/cos
    pair per frequency octave, inputs normalized (and clamped) to their
    configured ranges.
    """

    dim: int = 64
    x_range: tuple[float, float] = (-20.0, 20.0)
    y_range: tuple[float, float] = (0.0, 200.0)
    z_range: tuple[float, float] = (-5.0, 5.0)
    v_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if self.dim % 8 != 0:
            raise ValueError("encoding dim must be divisible by 8 (4 scalars x sin/cos)")

    @property
    def frequencies(self) -> int:
        return self.dim // 8

    @property
    def ranges(self) -> tuple[tuple[float, float], ...]:
        return (self.x_range, self.y_range, self.z_range, self.v_range)


def positional_encoding(points: np.ndarray, cfg: EncodingConfig) -> np.ndarray:
    """Deterministic multi-frequency encoding of (x, y, z, v) points to (n, dim)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 4:
        raise ValueError("points must have 4 components (x, y, z, v)")
    lo, hi = np.array(cfg.ranges, dtype=float).T
    u = np.clip((pts - lo) / (hi - lo), 0.0, 1.0)
    # (n, scalar, frequency) angles; per scalar, the sin block then the cos block
    angles = (np.pi * u)[:, :, None] * 2.0 ** np.arange(cfg.frequencies)
    out = np.stack([np.sin(angles), np.cos(angles)], axis=2).reshape(len(pts), cfg.dim)
    return out[0] if np.asarray(points).ndim == 1 else out


def masked_attention(queries: np.ndarray, keys: np.ndarray, values: np.ndarray,
                     mask: np.ndarray, heads: int = 1) -> np.ndarray:
    """Scaled dot-product attention restricted to the masked keys.

    Rows whose mask is entirely false return zeros, so the attention
    contribution degrades gracefully when no keys exist (e.g. an empty
    memory on the first frame).
    """
    queries = np.asarray(queries, dtype=float)
    keys = np.asarray(keys, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    r, c = queries.shape
    if keys.shape != values.shape or keys.shape[1] != c:
        raise ValueError("queries, keys, and values must share the channel dimension")
    if mask.shape != (r, keys.shape[0]):
        raise ValueError(f"mask shape {mask.shape} does not match (queries, keys)")
    if c % heads != 0:
        raise ValueError(f"channels {c} not divisible by {heads} heads")
    if keys.shape[0] == 0:
        return np.zeros_like(queries)

    head_dim = c // heads
    out = np.zeros_like(queries)
    active = mask.any(axis=1)
    for h in range(heads):
        sl = slice(h * head_dim, (h + 1) * head_dim)
        scores = queries[:, sl] @ keys[:, sl].T / np.sqrt(head_dim)
        row_max = np.max(np.where(mask, scores, -np.inf), axis=1, keepdims=True)
        shifted = np.where(mask, scores - np.where(np.isfinite(row_max), row_max, 0.0), 0.0)
        weights = np.where(mask, np.exp(shifted), 0.0)
        sums = weights.sum(axis=1, keepdims=True)
        weights = np.divide(weights, sums, out=np.zeros_like(weights), where=sums > 0)
        out[:, sl] = weights @ values[:, sl]
    out[~active] = 0.0
    return out


def sparsity_ratio(same_line: np.ndarray, neighbor: np.ndarray,
                   memory: np.ndarray | None = None) -> float:
    """Active fraction of the union mask over rows x (current keys + memory keys)."""
    same_line = np.asarray(same_line, dtype=bool)
    neighbor = np.asarray(neighbor, dtype=bool)
    if neighbor.shape != same_line.shape:
        raise ValueError("current-frame masks must share their shape")
    active = np.count_nonzero(same_line | neighbor)
    columns = same_line.shape[1]
    if memory is not None:
        memory = np.asarray(memory, dtype=bool)
        if memory.shape[0] != same_line.shape[0]:
            raise ValueError("memory mask must share the query dimension")
        active += np.count_nonzero(memory)
        columns += memory.shape[1]
    total = same_line.shape[0] * columns
    return active / total if total else 0.0


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return weights / weights.sum(axis=-1, keepdims=True)


def gather_attention(queries: np.ndarray, keys: np.ndarray, values: np.ndarray,
                     index: np.ndarray, heads: int = 1) -> np.ndarray:
    """Scaled dot-product attention of each query over its keys[index[query]].

    The same result as `masked_attention` with `index_to_mask(index,
    len(keys))`, computed on the gathered keys only.  A degree of 0 gives
    zeros.
    """
    queries = np.asarray(queries, dtype=float)
    keys = np.asarray(keys, dtype=float)
    values = np.asarray(values, dtype=float)
    index = np.asarray(index, dtype=np.intp)
    r, c = queries.shape
    if keys.shape != values.shape or keys.shape[1] != c:
        raise ValueError("queries, keys, and values must share the channel dimension")
    if index.ndim != 2 or index.shape[0] != r:
        raise ValueError(f"index shape {index.shape} does not match {r} queries")
    if c % heads != 0:
        raise ValueError(f"channels {c} not divisible by {heads} heads")
    degree = index.shape[1]
    head_dim = c // heads
    out = np.zeros_like(queries)
    if degree == 0:
        return out

    def per_head(x, rows):  # (rows, heads, degree, head_dim)
        return x[index[rows]].reshape(-1, degree, heads, head_dim).transpose(0, 2, 1, 3)

    for rows in _query_chunks(r, 2 * degree * c, _CHUNK_ELEMENTS):
        k = per_head(keys, rows)
        v = k if values is keys else per_head(values, rows)
        q = queries[rows].reshape(-1, heads, head_dim, 1) / np.sqrt(head_dim)
        weights = _softmax((k @ q)[..., 0])
        out[rows] = (weights[:, :, None, :] @ v).reshape(-1, c)
    return out


def _same_line_attention(q: np.ndarray, n: int, m: int, heads: int) -> np.ndarray:
    """Self-attention within each lane, as one (n, heads, m, m) batched product."""
    c = q.shape[1]
    head_dim = c // heads
    qh = q.reshape(n, m, heads, head_dim).transpose(0, 2, 1, 3)
    weights = _softmax(qh @ qh.transpose(0, 1, 3, 2) / np.sqrt(head_dim))
    return (weights @ qh).transpose(0, 2, 1, 3).reshape(n * m, c)


def spatio_temporal_layer(embeddings: np.ndarray, points: np.ndarray,
                          memory_embeddings: np.ndarray, memory_points: np.ndarray,
                          enc: EncodingConfig, heads: int = 1,
                          k_nearest: int = 10) -> np.ndarray:
    """One structured attention layer: same-line, neighbor, then memory attention.

    Each stage attends over its index list (`same_line_index`,
    `neighbor_line_index`, `memory_index`) with a residual add on the
    position-informed queries; output shape equals the (n, m, channels)
    input embedding shape.  No (queries x keys) array is built.
    """
    embeddings = np.asarray(embeddings, dtype=float)
    points = np.asarray(points, dtype=float)
    n, m, channels = embeddings.shape
    if channels % heads != 0:
        raise ValueError(f"channels {channels} not divisible by {heads} heads")
    flat_points = points.reshape(n * m, 4)
    q = embeddings.reshape(n * m, channels) + positional_encoding(flat_points, enc)

    q = q + _same_line_attention(q, n, m, heads)
    q = q + gather_attention(q, q, q, neighbor_line_index(points), heads=heads)

    # an empty memory gives (0, channels) keys and degree-0 rows, which attend to nothing
    memory_points = np.asarray(memory_points, dtype=float).reshape(-1, 4)
    mem_keys = (np.asarray(memory_embeddings, dtype=float).reshape(-1, channels)
                + positional_encoding(memory_points, enc))
    mem = memory_index(flat_points, memory_points, k_nearest=k_nearest)
    q = q + gather_attention(q, mem_keys, mem_keys, mem, heads=heads)
    return q.reshape(n, m, channels)
