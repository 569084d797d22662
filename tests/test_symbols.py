import numpy as np
import sympy

from conespec import polytensor as pt
from conespec.symbols import (gauged_reduction_value,
                              linearized_obstruction_symbol,
                              linearized_scalar_symbol)
from conespec.verify import (_two_block_symbol, check_symbol_homogeneity,
                             check_symbol_two_block, check_symbols)


def test_independent_two_block_oracle():
    assert check_symbol_two_block(seed=21, scale=0.15)["passed"]  # 30 draws


def test_pure_trace_example():
    n, k = 4, 1
    xi = np.array([1.0, 0, 0, 0])
    h = np.eye(n)
    got = linearized_obstruction_symbol(n, k, xi, h)
    want = _two_block_symbol(n, k, xi, h)
    assert np.allclose(got, want, atol=1e-12)


def test_lie_directions_annihilated():
    assert check_symbols(seed=22, scale=0.3)["passed"]  # 300 draws


def test_transverse_traceless_reduction():
    n, k = 4, 1
    xi = np.array([1.0, 0, 0, 0])
    h = np.zeros((n, n))
    h[1, 2] = h[2, 1] = 1.0
    got = linearized_obstruction_symbol(n, k, xi, h)
    assert np.allclose(got, -h / 4, atol=1e-14)
    assert np.allclose(got, gauged_reduction_value(n, k, xi, h), atol=1e-14)


def test_scalar_symbol_examples():
    n = 4
    xi = np.array([1.0, 0, 0, 0])
    h = np.zeros((n, n))
    h[1, 2] = h[2, 1] = 1.0
    assert linearized_scalar_symbol(n, xi, h) == 0
    assert linearized_scalar_symbol(n, xi, np.eye(n)) == 3.0


def test_homogeneity_scaling():
    assert check_symbol_homogeneity(seed=23, scale=0.4)["passed"]  # 20 draws


def _symbol_as_operator(n, k, h_const, xs):
    """Turn the symbol (evaluated on sympy covector symbols) into the
    constant-coefficient differential operator and return a callable that
    applies it to a scalar profile times h_const."""
    xi = sympy.symbols(f"k0:{n}")
    hmat = np.array(h_const, dtype=object)
    sym = linearized_obstruction_symbol(n, k, np.array(xi, dtype=object), hmat)

    def apply_to(profile):
        out = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                expr = sympy.expand(sym[i, j])
                acc = 0
                terms = expr.as_ordered_terms() if expr != 0 else []
                for term in terms:
                    coeff = term
                    deriv = profile
                    for a, xsym in enumerate(xi):
                        deg = sympy.degree(term, xsym) if term.has(xsym) else 0
                        if deg:
                            coeff = coeff / xsym ** deg
                            deriv = sympy.diff(deriv, xs[a], deg)
                            coeff = coeff * (-sympy.I) ** deg
                    acc += sympy.simplify(coeff) * deriv
                out[i, j] = sympy.expand(acc)
        return out

    return apply_to


def test_symbol_matches_position_space_operator_on_monomials():
    # dual route: the symbol, read as a polynomial in the covector and
    # converted back to a constant-coefficient operator, agrees with the
    # exact position-space operator on polynomial inputs of degree <= 4
    n, k = 3, 1
    xs = sympy.symbols(f"x0:{n}")
    rng = np.random.default_rng(24)
    h_const = rng.integers(-2, 3, size=(n, n))
    h_const = h_const + h_const.T
    profile = xs[0] ** 2 * xs[1] ** 2 + xs[2] ** 4
    apply_op = _symbol_as_operator(n, k, h_const, xs)
    want = apply_op(profile)

    field = pt.PolyTensor(n, 2)
    for i in range(n):
        for j in range(n):
            if h_const[i, j]:
                field.add_term((i, j), (2, 2, 0), 0, int(h_const[i, j]))
                field.add_term((i, j), (0, 0, 4), 0, int(h_const[i, j]))
    got = pt.bach_lin(field, k)
    for i in range(n):
        for j in range(n):
            comp = got.comps.get((i, j), {})
            gexpr = 0
            for (alpha, gamma), c in comp.items():
                assert gamma == 0  # polynomial output
                mono = sympy.Integer(1)
                for x, a in zip(xs, alpha):
                    mono *= x ** a
                gexpr += sympy.Rational(str(c)) * mono
            assert sympy.expand(gexpr - want[i, j]) == 0


def test_position_operator_annihilates_polynomial_lie_fields():
    # diffeomorphism invariance at the flat metric, position-space route
    rng = np.random.default_rng(25)
    for n, k in [(3, 1), (4, 1), (6, 2)]:
        X = pt.PolyTensor(n, 1)
        for _ in range(4):
            idx = (int(rng.integers(0, n)),)
            alpha = tuple(int(rng.integers(0, 3)) for _ in range(n))
            X.add_term(idx, alpha, 0, int(rng.integers(-3, 4)))
        h = pt.lie_flat(X)
        assert pt.bach_lin(h, k).is_zero()
