"""lanekit.assignment against scipy's linear_sum_assignment as the oracle,
and a check that the runtime imports no scipy."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment as scipy_assignment

import lanekit
from lanekit.assignment import INADMISSIBLE, gated_assignment, linear_sum_assignment, masked_mean

# 4 targets x 20 proposals and 20 tracks x 20 lanes are the detector's two solves
DETECTOR_SHAPES = [(4, 20), (20, 20), (20, 4)]
UNIT = st.floats(0.0, 1.0)
ELEMENTS = {
    "uniform": UNIT,
    "ties": st.sampled_from([0.0, 1.0, 2.0]),
    "inf": st.one_of(UNIT, UNIT, st.just(np.inf)),
    "filler": st.one_of(UNIT, st.just(1e6)),
}


@st.composite
def cost_matrices(draw):
    shape = draw(st.one_of(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                           st.sampled_from(DETECTOR_SHAPES)))
    kind = draw(st.sampled_from(sorted(ELEMENTS) + ["repeated"]))
    if kind == "repeated":
        row = draw(arrays(float, (1, shape[1]), elements=ELEMENTS["ties"] | UNIT))
        cost = np.repeat(row, shape[0], axis=0)
    else:
        cost = draw(arrays(float, shape, elements=ELEMENTS[kind]))
    if cost.size and draw(st.integers(0, 9)) == 0:
        flat = draw(st.integers(0, cost.size - 1))
        cost.flat[flat] = draw(st.sampled_from([np.nan, -np.inf]))
    return cost


def solve(solver, cost):
    """(rows, cols) from `solver`, or the ValueError message it raised."""
    try:
        return solver(cost.copy())
    except ValueError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None, database=None)
@given(cost=cost_matrices())
def test_same_pairs_and_errors_as_scipy(cost):
    got, want = solve(linear_sum_assignment, cost), solve(scipy_assignment, cost)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    for g, w in zip(got, want):
        assert g.dtype == np.intp
        assert g.tolist() == w.tolist()


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
def test_empty_matrix_gives_empty_intp_arrays(shape):
    rows, cols = linear_sum_assignment(np.zeros(shape))
    assert rows.dtype == cols.dtype == np.intp
    assert rows.size == cols.size == 0


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_invalid_entries_raise(bad):
    cost = np.ones((3, 4))
    cost[1, 2] = bad
    with pytest.raises(ValueError, match="invalid numeric entries"):
        linear_sum_assignment(cost)


def test_infeasible_matrix_raises():
    cost = np.array([[1.0, np.inf], [2.0, np.inf]])
    with pytest.raises(ValueError, match="infeasible"):
        linear_sum_assignment(cost)
    with pytest.raises(ValueError, match="infeasible"):
        linear_sum_assignment(cost.T)


def test_constant_matrix_gives_identity():
    rows, cols = linear_sum_assignment(np.zeros((4, 6)))
    assert rows.tolist() == cols.tolist() == [0, 1, 2, 3]


def test_tall_matrix_rows_come_out_ascending():
    cost = np.array([[5.0, 0.0], [0.0, 5.0], [1.0, 1.0]])
    rows, cols = linear_sum_assignment(cost)
    assert rows.tolist() == [0, 1] and cols.tolist() == [1, 0]


def test_not_a_matrix_raises():
    with pytest.raises(ValueError, match="2-D"):
        linear_sum_assignment(np.zeros(3))


def test_gate_before_solving_keeps_more_pairs():
    cost = np.array([[0.0, 1.0], [1.0, 1.5]])
    rows, cols = gated_assignment(cost, cost <= 1.0)
    assert list(zip(rows.tolist(), cols.tolist())) == [(0, 1), (1, 0)]
    # solving the raw costs, then dropping pairs outside the gate, keeps only (0, 0)
    rows, cols = linear_sum_assignment(cost)
    assert [(r, c) for r, c in zip(rows.tolist(), cols.tolist()) if cost[r, c] <= 1.0] == [(0, 0)]


@settings(max_examples=300, deadline=None, database=None)
@given(cost=arrays(float, st.tuples(st.integers(0, 7), st.integers(0, 7)), elements=UNIT),
       gate=UNIT)
def test_gated_equals_scipy_on_the_penalised_matrix(cost, gate):
    rows, cols = gated_assignment(cost, cost <= gate)
    want_rows, want_cols = scipy_assignment(np.where(cost <= gate, cost, INADMISSIBLE))
    kept = cost[want_rows, want_cols] <= gate
    assert rows.dtype == cols.dtype == np.intp
    assert rows.tolist() == want_rows[kept].tolist()
    assert cols.tolist() == want_cols[kept].tolist()


# on both sides of numpy's pairwise sum: 8 running sums below 128 terms, halves above
MASKED_COUNTS = [0, 1, 7, 8, 9, 16, 17, 128, 129, 300]


def masked_rows(rng):
    """(3, counts, 320) values and mask, three rows for each count in MASKED_COUNTS, the masked
    entries scattered over the row.  Values are random normal; a quarter are rescaled to
    magnitudes from 1e-12 to 1e12 and some are +0.0 or -0.0.  Unmasked entries are NaN."""
    shape = (3, len(MASKED_COUNTS), 320)
    values = rng.normal(size=shape)
    extreme = rng.random(shape) < 0.25
    values[extreme] = np.copysign(10.0 ** rng.uniform(-12.0, 12.0, int(extreme.sum())), values[extreme])
    zeros = rng.random(shape) < 0.1
    values[zeros] = np.copysign(0.0, rng.normal(size=int(zeros.sum())))
    mask = np.zeros(shape, dtype=bool)
    for row, count in np.ndindex(shape[:2]):
        mask[row, count, rng.choice(shape[2], MASKED_COUNTS[count], replace=False)] = True
    values[~mask] = np.nan
    return values, mask


def test_masked_mean_sums_each_row_as_its_own_sum():
    values, mask = masked_rows(np.random.default_rng(23))
    got = masked_mean(values, mask)
    want = np.full(mask.shape[:2], np.inf)
    for row in np.ndindex(mask.shape[:2]):
        if mask[row].any():
            want[row] = values[row][mask[row]].sum() / np.count_nonzero(mask[row])
    assert got.shape == want.shape and got.dtype == np.float64
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert np.isposinf(got[:, 0]).all() and np.isfinite(got[:, 1:]).all()
    # the zero-filled row sum groups the terms by position and comes out different
    counts = np.count_nonzero(mask, axis=-1)
    zero_filled = np.where(mask, values, 0.0).sum(axis=-1)[:, 1:] / counts[:, 1:]
    assert (zero_filled.view(np.int64) != got[:, 1:].view(np.int64)).any()


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(lanekit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import json, sys, lanekit.cli; "
            "print(json.dumps(sorted(k for k in sys.modules if k.startswith('scipy'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == []
