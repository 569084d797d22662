"""Exact sparse elimination: the reduced form behind nullspaces and the
row-space test read against a precomputed reduction."""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conespec.linalg import (row_in_rowspace, sparse_nullspace, sparse_rank,
                             sparse_rref)

ENTRIES = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def systems(draw):
    """Small sparse rational systems (rows as dicts col -> Fraction); few
    nonzeros per row, so dependent rows and free columns are common."""
    ncols = draw(st.integers(1, 7))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        cols = draw(st.lists(st.integers(0, ncols - 1), max_size=4))
        rows.append({c: draw(ENTRIES) for c in cols})
    return rows, ncols


def _apply(row, v):
    return sum((val * v[c] for c, val in row.items()), Fraction(0))


def _sympy_rank(rows, ncols):
    if not rows:
        return 0
    return sympy.Matrix([[row.get(c, 0) for c in range(ncols)]
                         for row in rows]).rank()


def test_nullspace_back_substitutes_later_pivots():
    # the second row's pivot column 0 meets the earlier pivot at column 1;
    # an unreduced echelon form read back gave [0, -1, 1]
    rows = [{1: Fraction(1), 2: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]
    assert sparse_rref(rows) == {0: {0: 1, 2: -1}, 1: {1: 1, 2: 1}}
    assert sparse_nullspace(rows, 3) == [[1, -1, 1]]


@settings(max_examples=150, deadline=None)
@given(systems())
def test_nullspace_is_killed_by_every_row(system):
    rows, ncols = system
    basis = sparse_nullspace(rows, ncols)
    assert all(_apply(row, v) == 0 for row in rows for v in basis)
    rank = _sympy_rank(rows, ncols)
    assert sparse_rank(rows) == rank
    assert len(basis) == ncols - rank
    if basis:
        assert sympy.Matrix(basis).rank() == len(basis)


@st.composite
def system_and_candidate(draw):
    rows, ncols = draw(systems())
    if rows and draw(st.booleans()):  # a combination of the rows
        cand = {}
        for row in rows:
            f = draw(ENTRIES)
            for c, v in row.items():
                cand[c] = cand.get(c, Fraction(0)) + f * v
    else:
        cols = draw(st.lists(st.integers(0, ncols - 1), max_size=4))
        cand = {c: draw(ENTRIES) for c in cols}
    return rows, cand


@settings(max_examples=150, deadline=None)
@given(system_and_candidate())
def test_row_in_rowspace_matches_rank_comparison(case):
    rows, cand = case
    pivots = sparse_rref(rows)
    want = sparse_rank(rows + [cand]) == sparse_rank(rows)
    assert row_in_rowspace(pivots, cand) == want
