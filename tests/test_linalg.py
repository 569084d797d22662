"""Exact elimination: the integer sparse reduced form behind nullspaces
and ranks, read against the Fraction reference elimination and a
precomputed reduction, and the Bareiss determinant behind det P(z) read
against Fraction Gaussian elimination."""

import json
import pathlib
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conespec.linalg import (det_dense, lagrange_coefficients, poly_eval,
                             sparse_nullspace, sparse_rank, sparse_rref)
from conespec.mode_ode import tensor_mode_system
from linalg_reference import fraction_rref

ENTRIES = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def systems(draw):
    """Small sparse rational systems (rows as dicts col -> Fraction); few
    nonzeros per row, so dependent rows and free columns are common.  Some
    rows are zero, repeat an earlier row or combine two earlier rows."""
    ncols = draw(st.integers(1, 7))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat", "combine")))
        if kind == "zero":
            rows.append({c: Fraction(0) for c in
                         draw(st.lists(st.integers(0, ncols - 1),
                                       max_size=2))})
        elif kind != "fresh" and rows:
            a, b = (draw(st.sampled_from(rows)) for _ in range(2))
            f = draw(ENTRIES) if kind == "combine" else Fraction(0)
            rows.append({c: a.get(c, 0) + f * b.get(c, 0)
                         for c in a.keys() | b.keys()})
        else:
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
    assert sparse_nullspace(sparse_rref(rows), 3) == [[1, -1, 1]]


@settings(max_examples=150, deadline=None)
@given(systems())
def test_nullspace_is_killed_by_every_row(system):
    rows, ncols = system
    basis = sparse_nullspace(sparse_rref(rows), ncols)
    assert all(_apply(row, v) == 0 for row in rows for v in basis)
    rank = _sympy_rank(rows, ncols)
    assert sparse_rank(rows) == rank
    assert len(basis) == ncols - rank
    if basis:
        assert sympy.Matrix(basis).rank() == len(basis)


@settings(max_examples=200, deadline=None)
@given(systems())
def test_integer_rref_matches_fraction_reference(system):
    # the reduced form of a row space is unique, so the integer kernel
    # returns the reference's dict, pivots normalized to 1
    rows, _ = system
    got = sparse_rref(rows)
    assert got == fraction_rref(rows)
    assert all(type(v) is Fraction
               for row in got.values() for v in row.values())
    assert all(row[c] == 1 for c, row in got.items())


def test_rref_refuses_inexact_entries():
    # an inexact entry is refused with its column and value, never
    # rounded or eliminated in float arithmetic
    with pytest.raises(TypeError, match=r"0\.5 at column 0"):
        sparse_rref([{0: 0.5, 1: 1.0}, {1: 0.25}])
    with pytest.raises(TypeError, match=r"0\.25 at column 1"):
        sparse_rref([{0: Fraction(1, 2), 1: 1}, {1: 0.25}])
    with pytest.raises(TypeError, match="column 2"):
        sparse_rank([{2: 0.0}])


def _det_gauss(a):
    """Reference determinant: Gaussian elimination in Fractions."""
    m = [list(map(Fraction, row)) for row in a]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


@st.composite
def square_matrices(draw):
    """Square matrices up to 6 x 6 of small ints and Fractions; zero
    entries are common, and some rows are multiples of others."""
    n = draw(st.integers(0, 6))
    entry = st.one_of(st.integers(-3, 3), ENTRIES)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        f = draw(ENTRIES)
        rows[i] = [f * x for x in rows[j]]
    return rows


@settings(max_examples=200, deadline=None)
@given(square_matrices())
@example([])
@example([[0, 1], [1, 0]])                          # zero leading pivot
@example([[0, 2, 1], [0, 1, 3], [Fraction(1, 2), 1, 1]])
@example([[1, 2, 3], [0, 0, 0], [4, 5, 6]])         # zero row
@example([[1, 2, 3], [2, 4, 6], [1, 0, Fraction(1, 3)]])  # rank 2
@example([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]])
def test_det_dense_matches_fraction_gaussian(a):
    got = det_dense(a)
    assert isinstance(got, Fraction)
    assert got == _det_gauss(a)


def _lagrange_fraction_loop(points):
    """Interpolating polynomial, low degree first, by one Fraction
    multiply-add per (node, coefficient) over the Lagrange basis."""
    xs = [Fraction(x) for x, _ in points]
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, (_, yi)) in enumerate(zip(xs, points)):
        li, denom = [Fraction(1)], Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                li = [a - xj * b for a, b in zip([Fraction(0)] + li,
                                                 li + [Fraction(0)])]
                denom *= xi - xj
        for k, c in enumerate(li):
            coeffs[k] += yi * c / denom
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


RATIONALS = st.one_of(st.integers(-6, 6), st.fractions(
    min_value=-4, max_value=4, max_denominator=7))


@settings(max_examples=200, deadline=None)
@given(st.lists(RATIONALS, min_size=1, max_size=8, unique_by=Fraction)
       .flatmap(lambda xs: st.lists(RATIONALS, min_size=len(xs),
                                    max_size=len(xs))
                .map(lambda ys: list(zip(xs, ys)))))
@example([(Fraction(m), Fraction(0)) for m in range(5)])
@example([(Fraction(m), Fraction(m * m, 3)) for m in range(6)])
def test_lagrange_coefficients_match_fraction_loop(points):
    got = lagrange_coefficients(points)
    assert got == _lagrange_fraction_loop(points)
    assert all(type(c) is Fraction for c in got)


GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_modes.json").read_text())
DET_CELLS = list(dict.fromkeys(  # the golden file may hold an extra cell
    [(c["n"], c["k"], c["j"], Fraction(c["t"])) for c in GOLDEN]
    + [(4, 1, 3, Fraction(1, 5)), (3, 3, 4, Fraction(0))]))


@pytest.mark.parametrize("cell", DET_CELLS,
                         ids=[f"n{n}k{k}j{j}t{t}" for n, k, j, t in DET_CELLS])
def test_det_poly_matches_per_node_fraction_evaluation(cell):
    n, k, j, t = cell
    _, op = tensor_mode_system(n, k, t, j)
    nodes = [Fraction(z) for z in range(op.m_ang * op.order + 1)]
    want = lagrange_coefficients(
        [(z, _det_gauss([[poly_eval(p, z) for p in row] for row in op.P]))
         for z in nodes])
    assert op.det_poly() == want
