"""Minimum-cost one-to-one assignment (the linear sum assignment problem).

A port of the shortest augmenting path solver in Crouse, "On implementing
2D rectangular assignment algorithms", IEEE Trans. Aerospace and
Electronic Systems 52(4), 2016, which is also the algorithm behind
`scipy.optimize.linear_sum_assignment`.  It returns the same pairs as
scipy's, ties included, so lanekit needs only numpy at run time.  It keeps
scipy's order: a matrix with more rows than columns is solved transposed,
the columns still to scan are kept in reverse order and one is removed by
swapping in the last, and among columns of equal reduced cost the last
free one is taken, else the first one.

The matrices here are small (a frame's lanes, a detector's proposals), so
each row's scan runs over Python lists: at 20 x 20 that is several times
faster than a numpy call per scanned row.
"""

from __future__ import annotations

import math

import numpy as np

INADMISSIBLE = 1e9  # above any sum of admissible costs


def linear_sum_assignment(cost_matrix) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of a minimum-cost assignment of a 2-D cost matrix.

    Every row of a wide matrix, or every column of a tall one, is
    assigned; rows come out ascending.  +inf marks a forbidden pair.
    Raises ValueError on NaN or -inf entries and when no assignment
    of finite cost exists.
    """
    cost = np.asarray(cost_matrix, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"expected a matrix (2-D array), got a {cost.ndim} array")
    transpose = cost.shape[1] < cost.shape[0]
    if transpose:
        cost = cost.T
    nr, nc = cost.shape
    if nr == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    if np.isnan(cost).any() or np.isneginf(cost).any():
        raise ValueError("matrix contains invalid numeric entries")

    inf = math.inf
    rows = cost.tolist()
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur in range(nr):
        # Shortest augmenting path from row `cur` to a free column.
        remaining = list(range(nc - 1, -1, -1))
        shortest = [inf] * nc
        seen_rows, seen_cols = [], []
        min_val = 0.0
        i = cur
        sink = -1
        while sink == -1:
            seen_rows.append(i)
            row, ui = rows[i], u[i]
            lowest, index = inf, -1
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest, index = s, it
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()

        # Update the dual variables, then augment along the path.
        u[cur] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break

    if transpose:
        order = sorted(range(nr), key=col4row.__getitem__)
        return np.array([col4row[k] for k in order], dtype=np.intp), np.array(order, dtype=np.intp)
    return np.arange(nr, dtype=np.intp), np.array(col4row, dtype=np.intp)


def gated_assignment(cost, admissible) -> tuple[np.ndarray, np.ndarray]:
    """The admissible (rows, cols) of a minimum-cost assignment, rows ascending.

    This is the gated rule of every lane association: the auto-label
    tracker, the moving average and both eval scores.  Pairs where the
    boolean matrix `admissible` is false cost `INADMISSIBLE`, so as many
    admissible pairs as possible are kept, then the least summed cost.
    """
    rows, cols = linear_sum_assignment(np.where(admissible, cost, INADMISSIBLE))
    kept = admissible[rows, cols]
    return rows[kept], cols[kept]


def masked_mean(values, mask) -> np.ndarray:
    """Mean of `values` over `mask` on the last axis, inf where the mask is empty.

    The cost of every lane association.  Rows of one count are summed together, a
    row each, so each mean is `values[row][mask[row]].sum() / count` bit for bit.
    """
    counts = np.count_nonzero(mask, axis=-1)
    means = np.full(counts.shape, np.inf)
    for count in set(counts[counts > 0].tolist()):
        same = counts == count
        means[same] = values[same][mask[same]].reshape(-1, count).sum(axis=1) / count
    return means
