"""The integer polynomial kernels of the mode systems read against the
Fraction code they replaced: Yun's square-free split (also against sympy),
division with remainder, the count of roots on a vertical line against
known roots, compose and combine, the Lagrange basis on rational nodes,
and decompose against a projection per field.  A float coefficient in P
is refused by every entry point."""

import dataclasses
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conespec import polytensor as pt
from conespec.cli import main
from conespec.linalg import (_lagrange_basis, poly_axis_root_count,
                             poly_divmod, poly_mul, poly_shift, poly_sum,
                             poly_squarefree_factors)
from conespec.mode_ode import (EulerOperator, ProbeError, indicial_spectrum,
                               tensor_mode_system)
from field_reference import naive_slice_inner

ZERO = Fraction(0)

# -- Fraction oracles (the kernels as they were before the integer domain) --


def _trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _divmod_oracle(p, q):
    p, q = _trim(p), _trim(q)
    quo = [ZERO] * max(len(p) - len(q) + 1, 1)
    rem = list(p)
    dq = len(q) - 1
    for i in range(len(rem) - 1 - dq, -1, -1):
        c = rem[i + dq] / q[-1]
        if c == 0:
            continue
        quo[i] = c
        for jj, qc in enumerate(q):
            rem[i + jj] -= c * qc
    return _trim(quo), _trim(rem)


def _monic_oracle(p):
    p = _trim(p)
    return p if p[-1] == 0 else [c / p[-1] for c in p]


def _gcd_oracle(p, q):
    a, b = _trim(p), _trim(q)
    while b != [ZERO]:
        a, b = b, _divmod_oracle(a, b)[1]
    return _monic_oracle(a)


def _squarefree_oracle(p):
    p = _monic_oracle(p)
    if len(p) <= 1:
        return []
    g = _gcd_oracle(p, [c * (i + 1) for i, c in enumerate(p[1:])])
    c = _monic_oracle(_divmod_oracle(p, g)[0])
    factors, i = [], 1
    while len(c) > 1:
        d = _gcd_oracle(c, g)
        fi = _monic_oracle(_divmod_oracle(c, d)[0])
        if len(fi) > 1:
            factors.append((fi, i))
        c, g = d, _divmod_oracle(g, d)[0]
        i += 1
    return factors


def _compose_oracle(outer, inner):
    shifted = [[poly_shift(p, -inner.weight) for p in row] for row in outer.P]
    return [[poly_sum(poly_mul(a, inner.P[i][c]) for i, a in enumerate(row))
             for c in range(len(inner.basis))] for row in shifted]


def _combine_oracle(terms):
    _, first = terms[0]
    return [[poly_sum([c * x for x in op.P[r][col]] for c, op in terms)
             for col in range(len(first.basis))]
            for r in range(len(first.target))]


# -- Yun ---------------------------------------------------------------------

RATIONALS = st.one_of(st.integers(-5, 5), st.fractions(
    min_value=-4, max_value=4, max_denominator=6))
FACTORS = st.one_of(
    st.just([ZERO, Fraction(1)]),                               # z
    RATIONALS.map(lambda r: [-Fraction(r), Fraction(1)]),       # z - r
    st.integers(1, 5).map(lambda c: [Fraction(c), ZERO, Fraction(1)]),
    st.just([Fraction(1), Fraction(1), Fraction(1)]))           # z^2 + z + 1


@st.composite
def squarefree_inputs(draw):
    """Products of zero, rational and irreducible quadratic factors to
    multiplicities up to 3, scaled by a nonzero rational (so not monic);
    no factors gives a constant."""
    lead = draw(RATIONALS.filter(lambda r: r != 0))
    p = [Fraction(lead)]
    for factor in draw(st.lists(FACTORS, max_size=4)):
        for _ in range(draw(st.integers(1, 3))):
            p = poly_mul(p, factor)
    return p


def _sympy_squarefree(p):
    z = sympy.Symbol("z")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p)], z, domain="QQ")
    _, factors = poly.sqf_list()
    return {mult: [Fraction(int(c.p), int(c.q))
                   for c in reversed(f.monic().all_coeffs())]
            for f, mult in factors}


@settings(max_examples=200, deadline=None)
@given(squarefree_inputs())
@example([Fraction(3)])                                          # constant
@example([ZERO])                                                 # zero
@example([ZERO, ZERO, ZERO, Fraction(1, 2)])                     # z^3 / 2
@example(poly_mul(  # z (z - 2/3)^2 (2 - 7 z^2 / 3)
    poly_mul([ZERO, Fraction(1)], [Fraction(-2, 3), Fraction(1)]),
    poly_mul([Fraction(-2, 3), Fraction(1)],
             [Fraction(2), ZERO, Fraction(-7, 3)])))
def test_squarefree_factors_match_oracle_and_sympy(p):
    got = poly_squarefree_factors(p)
    assert got == _squarefree_oracle(p)
    assert all(type(c) is Fraction for f, _ in got for c in f)
    if len(_trim(p)) > 1:
        assert {m: f for f, m in got} == _sympy_squarefree(p)


# -- division and the count of roots on a vertical line ---------------------

REAL_PARTS = st.sampled_from([Fraction(-2), ZERO, Fraction(1, 2), Fraction(2),
                              Fraction(7, 3)])
# (roots, monic factor): z - a, or (z - a)^2 + b^2 with roots a +- bi
ROOTED_FACTORS = st.one_of(
    REAL_PARTS.map(lambda a: ({(a, 0)}, [-a, Fraction(1)])),
    st.tuples(REAL_PARTS, st.sampled_from([Fraction(1, 2), Fraction(1),
                                           Fraction(3)])).map(
        lambda ab: ({(ab[0], ab[1]), (ab[0], -ab[1])},
                    [ab[0] ** 2 + ab[1] ** 2, -2 * ab[0], Fraction(1)])))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(ROOTED_FACTORS, st.integers(1, 3)), max_size=4),
       RATIONALS.filter(lambda r: r != 0), REAL_PARTS)
def test_axis_root_count_matches_known_roots(factors, lead, c):
    p, roots = [Fraction(lead)], set()
    for (rs, f), mult in factors:
        roots |= rs
        for _ in range(mult):
            p = poly_mul(p, f)
    assert poly_axis_root_count(p, c) == sum(re == c for re, _ in roots)


@settings(max_examples=150, deadline=None)
@given(st.lists(RATIONALS, min_size=1, max_size=6),
       st.lists(RATIONALS, min_size=1, max_size=4).filter(
           lambda b: any(b)))
def test_poly_divmod_is_division_with_remainder(a, b):
    q, r = poly_divmod(a, b)
    assert poly_sum([poly_mul(q, b), r]) == poly_sum([a])
    assert r == [0] or len(r) < len(poly_sum([b]))


# -- compose and combine -----------------------------------------------------

COEFFS = st.one_of(st.just(0), st.just(ZERO), st.integers(-4, 4),
                   st.fractions(min_value=-3, max_value=3, max_denominator=5))
WEIGHTS = st.one_of(st.integers(-3, 3), st.just(Fraction(1, 2)),
                    st.just(Fraction(-3, 2)))


def _basis(size):
    return pt.oneform_mode_basis(4, 1) if size == 2 else \
        pt.basis_from_elements(4, [pt.sphere_harmonic(4, 1)], ["phi"])


@st.composite
def operators(draw, basis, target):
    P = [[draw(st.lists(COEFFS, min_size=1, max_size=4))
          for _ in range(len(basis))] for _ in range(len(target))]
    return EulerOperator(basis, target, draw(WEIGHTS), 2, P)


@st.composite
def compose_pairs(draw):
    b1, b2, b3 = (_basis(draw(st.integers(1, 2))) for _ in range(3))
    return draw(operators(b2, b3)), draw(operators(b1, b2))


@settings(max_examples=150, deadline=None)
@given(compose_pairs())
def test_compose_matches_fraction_oracle(pair):
    outer, inner = pair
    got = outer.compose(inner)
    assert got.P == _compose_oracle(outer, inner)
    assert all(type(c) is Fraction for row in got.P for p in row for c in p)
    assert got.weight == outer.weight + inner.weight
    assert got.order == outer.order + inner.order


@st.composite
def combine_terms(draw):
    basis, target = _basis(draw(st.integers(1, 2))), _basis(2)
    first = draw(operators(basis, target))
    ops = [first] + [dataclasses.replace(draw(operators(basis, target)),
                                         weight=first.weight)
                     for _ in range(draw(st.integers(0, 2)))]
    return [(draw(COEFFS), op) for op in ops]


@settings(max_examples=100, deadline=None)
@given(combine_terms())
def test_combine_matches_fraction_oracle(terms):
    assert EulerOperator.combine(terms).P == _combine_oracle(terms)


# -- Lagrange basis ----------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.lists(RATIONALS, min_size=1, max_size=8, unique_by=Fraction))
@example([Fraction(-1, 2), Fraction(1, 3), -2])
@example(list(range(-4, 5)))
def test_lagrange_basis_is_kronecker_on_rational_nodes(nodes):
    den, table = _lagrange_basis(tuple(nodes))
    assert all(type(c) is int for row in table for c in row)
    for row in table:
        assert len(row) == len(nodes)
    for i, row in enumerate(table):
        for j, x in enumerate(nodes):
            value = sum(Fraction(c, den) * Fraction(x) ** k
                        for k, c in enumerate(row))
            assert value == (i == j)


# -- projection decompose ----------------------------------------------------

CELLS = [(n, j) for n in range(3, 7) for j in range(5)]


def _solve_oracle(basis, field):
    """The projection onto each element, <<field, T>> / <<T, T>>, from the
    termwise slice inner product, which shares no kernel with
    ``decompose``."""
    return [naive_slice_inner(field, T).get(0, 0)
            / naive_slice_inner(T, T)[0] for T in basis.elements]


@pytest.mark.parametrize("n,j", CELLS, ids=[f"n{n}j{j}" for n, j in CELLS])
def test_decompose_matches_gram_solve(n, j):
    for basis in (pt.tensor_mode_basis(n, j), pt.oneform_mode_basis(n, j)):
        fields = [pt.angular_image(pt.laplacian, T, m)[1]
                  for T in basis.elements for m in (0, Fraction(3, 2))]
        fields.append(fields[0].scaled(Fraction(-2, 7)) + fields[-1])
        for field in fields:
            coeffs, residual = basis.decompose(field)
            assert coeffs == _solve_oracle(basis, field)
            assert not residual.comps


# -- float coefficients ------------------------------------------------------


@pytest.fixture
def float_op():
    """The (4, 1, t = 0, j = 1) system with one float coefficient in P."""
    _, op = tensor_mode_system(4, 1, 0, 1)
    P = [list(row) for row in op.P]
    P[0][0] = [float(c) for c in P[0][0]]
    return dataclasses.replace(op, P=P)


@pytest.mark.parametrize("entry", [
    lambda op: op.det_poly(),
    indicial_spectrum,
    lambda op: op.compose(dataclasses.replace(op, weight=0)),
    lambda op: dataclasses.replace(op, weight=0).compose(op),
    lambda op: EulerOperator.combine([(1, op)]),
], ids=["det_poly", "indicial_spectrum", "compose_outer", "compose_inner",
        "combine"])
def test_float_coefficient_is_a_probe_error(float_op, entry):
    with pytest.raises(ProbeError, match="exact coefficients"):
        entry(float_op)


def test_float_combine_scalar_is_a_probe_error():
    _, op = tensor_mode_system(4, 1, 0, 1)
    with pytest.raises(ProbeError, match="exact coefficients"):
        EulerOperator.combine([(0.5, op)])


def test_float_coefficient_exits_3(float_op, monkeypatch, capsys):
    from conespec import mode_ode

    monkeypatch.setattr(mode_ode, "tensor_mode_system",
                        lambda n, k, t, j: (float_op.basis, float_op))
    assert main(["modes", "--n", "4", "--k", "1", "--j", "1"]) == 3
    assert "exact coefficients" in capsys.readouterr().err
