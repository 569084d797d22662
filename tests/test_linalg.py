"""Exact elimination: the integer sparse reduced form behind nullspaces
and ranks, read against the Fraction reference elimination and a
precomputed reduction, the integer Bareiss determinant read against
Fraction Gaussian elimination, and the determinant of a polynomial
matrix behind det P(z) and the Gram pencils read against Fraction
evaluation and interpolation."""

import json
import pathlib
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conespec import turan_constants as tc
from conespec.linalg import (det_dense, lagrange_coefficients, poly_det,
                             sparse_nullspace, sparse_rank, sparse_rref)
from conespec.mode_ode import tensor_mode_system
from linalg_reference import (det_gauss, fraction_rref, lagrange_fraction,
                              poly_det_by_interpolation)

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


@st.composite
def square_matrices(draw):
    """Square integer matrices up to 6 x 6 with small entries; zero
    entries are common, and some rows are multiples of others."""
    n = draw(st.integers(0, 6))
    rows = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        f = draw(st.integers(-3, 3))
        rows[i] = [f * x for x in rows[j]]
    return rows


@settings(max_examples=200, deadline=None)
@given(square_matrices())
@example([])
@example([[0, 1], [1, 0]])                          # zero leading pivot
@example([[0, 2, 1], [0, 1, 3], [1, 2, 2]])
@example([[1, 2, 3], [0, 0, 0], [4, 5, 6]])         # zero row
@example([[1, 2, 3], [2, 4, 6], [1, 0, 7]])         # rank 2
@example([[2 ** 70, 3], [5, -(2 ** 80)]])
def test_det_dense_matches_fraction_gaussian(a):
    got = det_dense(a)
    assert type(got) is int
    assert got == det_gauss(a)
    if a:
        # an entry that is not an int is refused, even an integral Fraction
        with pytest.raises(TypeError, match="int entries"):
            det_dense([*a[:-1], [*a[-1][:-1], Fraction(a[-1][-1])]])


@st.composite
def poly_matrices(draw):
    """Square matrices up to 5 x 5 of integer polynomials of degree <= 6
    with coefficients up to 2^100; some entries are zero or constant, and
    some rows are multiples of others."""
    n = draw(st.integers(0, 5))
    coeff = st.one_of(st.integers(-3, 3),
                      st.integers(-(2 ** 100), 2 ** 100))
    rows = [[draw(st.lists(coeff, min_size=1, max_size=7))
             for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        f = draw(st.integers(-3, 3))
        rows[i] = [[f * c for c in p] for p in rows[j]]
    return rows


@settings(max_examples=100, deadline=None)
@given(poly_matrices())
@example([])
@example([[[1, 2], [3]], [[0], [0, 0]]])                # zero row
@example([[[2], [-7]], [[5], [3]]])                     # constant entries
@example([[[1, 0, -4], [2, -1]], [[0, -3], [5, 1, -2 ** 90]]])  # negative leads
@example([[[1, 2], [3, 4], [5]], [[2, 4], [6, 8], [10]],  # rank 2
          [[0, 1], [1], [1, 1, 1]]])
@example([[[-1, 0, 0, 0, 0, 0, -(2 ** 100)]]])
def test_poly_det_matches_fraction_interpolation(rows):
    got = poly_det(rows)
    assert all(type(c) is int for c in got)
    assert got == poly_det_by_interpolation(rows)


@pytest.mark.parametrize("a, b", [(Fraction(1), Fraction(2)),
                                  (Fraction(3, 2), Fraction(2))],
                         ids=["three_interval", "l2l2"])
@pytest.mark.parametrize("n", range(1, 9))
def test_pencil_polynomial_matches_fraction_interpolation(monkeypatch, n,
                                                          a, b):
    # the determinant _pencil_max takes is det(H[0, 1] - lambda H[a, b])
    # times the positive scale that clears the pencil to integers
    seen = []
    monkeypatch.setattr(tc, "poly_det",
                        lambda rows: seen.append(poly_det(rows)) or seen[-1])
    tc._pencil_max.__wrapped__(n, a, b)

    def gram(lo, hi):
        return [[(hi ** (i + j + 1) - lo ** (i + j + 1)) / (i + j + 1)
                 for j in range(n)] for i in range(n)]
    want = poly_det_by_interpolation(
        [[[u, -v] for u, v in zip(r, s)]
         for r, s in zip(gram(Fraction(0), Fraction(1)), gram(a, b))])
    (got,) = seen
    assert len(got) == n + 1 and all(type(c) is int for c in got)
    assert [Fraction(c, got[-1]) for c in got] == [c / want[-1] for c in want]
    assert got[-1] * want[-1] > 0


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
    assert got == lagrange_fraction(points)
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
    assert op.det_poly() == poly_det_by_interpolation(op.P)
