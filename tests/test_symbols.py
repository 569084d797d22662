from fractions import Fraction

import numpy as np
import pytest

from conespec import polytensor as pt
from conespec import symbols as sy
from conespec.verify import (_nk_pairs, _two_block_symbol,
                             check_symbol_two_block, check_symbols)
from field_reference import expanded_symbol


def test_independent_two_block_oracle():
    assert check_symbol_two_block(seed=21, scale=0.15)["passed"]  # 30 draws


def test_exact_symbol_at_e1_matches_two_block_oracle():
    rng = np.random.default_rng(26)
    for n, k in _nk_pairs(8):
        xi = np.eye(n)[0]
        h = rng.standard_normal((n, n))
        h = h + h.T
        got = np.tensordot(sy.principal_symbol("bach", n, k).astype(float), h)
        want = _two_block_symbol(n, k, xi, h)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_pure_trace_example():
    n, k = 4, 1
    xi = np.array([1.0, 0, 0, 0])
    h = np.eye(n)
    got = sy.symbol_at("bach", n, xi, h, k)
    want = _two_block_symbol(n, k, xi, h)
    assert np.allclose(got, want, atol=1e-12)


def test_lie_directions_annihilated():
    rec = check_symbols(seed=22, scale=0.3)  # (3, 1) and (4, 1)
    assert rec["passed"]
    assert rec["details"]["nullity"] == {"3,1": 4, "4,1": 5}


def test_transverse_traceless_reduction():
    n, k = 4, 1
    h = np.zeros((n, n), dtype=int)
    h[1, 2] = h[2, 1] = 1
    got = np.tensordot(sy.principal_symbol("bach", n, k), h)
    assert (got == h * Fraction(-1, 4)).all()


def test_scalar_symbol_examples():
    # |xi|^2 tr h - xi.h.xi at xi = e_1
    n = 4
    sym = sy.principal_symbol("scalar", n)
    h = np.zeros((n, n), dtype=int)
    h[1, 2] = h[2, 1] = 1
    assert np.tensordot(sym, h) == 0
    assert np.tensordot(sym, np.eye(n, dtype=int)) == 3


def test_homogeneity_scaling():
    # structural: the reflection depends on xi / |xi| only
    rng = np.random.default_rng(23)
    for n, k in [(3, 1), (5, 1), (6, 2)]:
        xi = rng.standard_normal(n)
        h = rng.standard_normal((n, n))
        h = h + h.T
        lam = 1.7
        a = sy.symbol_at("bach", n, lam * xi, h, k)
        b = sy.symbol_at("bach", n, xi, h, k) * lam ** (2 * (k + 1))
        assert np.allclose(a, b, rtol=1e-12, atol=0)


def test_symbol_matches_position_space_operator_on_monomials():
    # the equivariant evaluation equals the operator applied to
    # hhat (xi . x)^N / N! at non-axis covectors
    rng = np.random.default_rng(24)
    for name, k, xi in [("bach", 1, [2, -1, 1]), ("bach", 1, [0, 1, 0, -2, 1]),
                        ("scalar", 1, [1, 1, 0, 0, -3]),
                        ("gauged", 2, [0, 0, 1, 0, 0, 0])]:
        n = len(xi)
        h = rng.integers(-2, 3, size=(n, n))
        h = h + h.T
        _, order, operator = sy.OPERATORS[name]
        want = expanded_symbol(lambda f: operator(f, k), order(k), xi, h)
        got = sy.symbol_at(name, n, np.array(xi, dtype=float), h, k)
        assert np.allclose(got, want, rtol=0,
                           atol=1e-12 * np.max(np.abs(want)))


def test_odd_order_symbol_carries_its_factor_i():
    # sigma_lie(xi)[v] = i (xi v + v xi)
    n = 4
    xi, v = np.array([1.0, 2, -1, 3]), np.array([0.5, -1, 2, 0])
    got = sy.symbol_at("lie", n, xi, v)
    assert np.allclose(got, 1j * (np.outer(xi, v) + np.outer(v, xi)),
                       rtol=0, atol=1e-13)


def test_symbol_needs_the_operator_order(monkeypatch):
    # an order one too high leaves x_1 in the image: fail, not truncate
    rank, order, operator = sy.OPERATORS["bach"]
    monkeypatch.setitem(sy.OPERATORS, "bach",
                        (rank, lambda k: order(k) + 1, operator))
    sy.principal_symbol.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="keeps x or r"):
            sy.principal_symbol("bach", 4, 1)
    finally:
        monkeypatch.undo()
        sy.principal_symbol.cache_clear()


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
