from fractions import Fraction

import numpy as np
import pytest

from conespec.closed_form import (ParameterError,
                                  essential_linear_gap,
                                  gauge_exceptional_values,
                                  gauge_kernel_rates, modified_typeI_rates,
                                  modified_typeII_matrix,
                                  modified_typeII_roots,
                                  polyharmonic_exceptional_values,
                                  scalar_indicial_polynomial,
                                  scalar_indicial_roots, validate_nk)


def test_rate_examples():
    rp = gauge_kernel_rates(4, "typeI", 1)   # mu = 4: alpha 0, theta 2
    assert (rp.plus, rp.minus) == (2, -2)
    rp = gauge_kernel_rates(4, "typeII", 2)  # nu = 8: beta -1, omega 3
    assert (rp.plus, rp.minus) == (2, -4)
    rp = gauge_kernel_rates(4, "typeII", 0)  # nu = 0 family includes r dr
    assert (rp.plus, rp.minus) == (0, -2)


def test_exceptional_set_examples():
    E = gauge_exceptional_values(4, 3)
    assert all(v == int(v) for v in E.values)
    assert 1 in E
    # n = 4: typeI rates are +-(j+1), so 1 enters via the j=1 upper shift
    assert any("typeI j=1 upper" in p for p in E.provenance[1])
    # duality: v in E iff (2-n) - v in E
    assert all((2 - 4) - v in E for v in E.values)


def test_modified_typeI_example_and_identity():
    plus, minus = modified_typeI_rates(4, 0.1, 1)
    assert abs(plus - 2.0) < 1e-12
    assert abs(minus - (-1.9)) < 1e-12


def test_modified_typeII_quartic_t0():
    rec = modified_typeII_roots(4, 0.0, 2)
    got = sorted(z.real for z in rec["roots"])
    # factorization oracle: det = 2 (z^2 - 4)(z^2 - 16)
    assert np.allclose(got, [-4, -2, 2, 4], atol=1e-9)
    assert {2.0, -4.0} <= {round(z.real, 9) for z in rec["roots"]}


def test_modified_typeII_matrix_display():
    n, t, nu = 4, Fraction(1, 10), 8
    mat = modified_typeII_matrix(n, t, nu)
    assert mat[0][0] == [Fraction(-79, 5), Fraction(-1, 5), 2]
    assert mat[0][1] == [32, -8]
    assert mat[1][0] == [Fraction(39, 10), 1]
    assert mat[1][1] == [Fraction(-79, 5), Fraction(-1, 10), 1]


def test_modified_typeII_matrix_keeps_an_int_t_exact():
    mat = modified_typeII_matrix(4, 0, 8)
    assert all(isinstance(c, (int, Fraction))
               for row in mat for p in row for c in p)
    assert mat[0][0][0] == Fraction(-16)
    assert mat == modified_typeII_matrix(4, Fraction(0), 8)


def test_translation_root_persists():
    # the translation-derived kernel keeps an exact root z = 1 for every t
    for n in (3, 4, 6):
        for t in (0.0, 0.05, -0.1, 0.3):
            roots = modified_typeII_roots(n, t, 1)["roots"]
            assert min(abs(z - 1) for z in roots) < 1e-9


def test_nu_zero_branches():
    rec = modified_typeII_roots(4, 0.0, 0)
    got = sorted(z.real for z in rec["roots"])
    assert np.allclose(got, [-2, 2], atol=1e-12)  # b- and b+ + 2
    assert len(rec["non_geometric"]) == 2


def test_gap_scan():
    rec = essential_linear_gap(4, 0.0, 6)
    assert rec["gamma0"] == 0.0
    labels = {w["label"] for w in rec["witnesses"] if w["distance"] < 1e-12}
    assert "typeII j=0" in labels   # dilation field
    assert "typeII j=2" in labels   # degree-2 conformal field
    rec = essential_linear_gap(4, 0.1, 8)
    assert rec["gamma0"] > 0
    # the rotation family never appears: its order is removed exactly
    assert all("typeI j=1 upper" not in w["label"] for w in rec["witnesses"])
    assert "collisions" in rec
    # the gap shrinks as t -> 0 (the formerly-linear rates move like t)
    small = essential_linear_gap(4, 0.05, 8)["gamma0"]
    assert 0 < small < rec["gamma0"]


def test_polyharmonic_exceptional_rules():
    assert polyharmonic_exceptional_values(4, 1).full_lattice
    E = polyharmonic_exceptional_values(8, 1, window=(-10, 10))
    assert set(range(-10, 11)) - set(E.values) == {-1, -2, -3}
    E = polyharmonic_exceptional_values(6, 1, window=(-10, 10))
    assert set(range(-10, 11)) - set(E.values) == {-1}
    assert polyharmonic_exceptional_values(3, 1).full_lattice
    with pytest.raises(ParameterError):
        polyharmonic_exceptional_values(4, 2)
    with pytest.raises(ParameterError):
        polyharmonic_exceptional_values(5, 1)


def test_scalar_indicial_polynomial_examples():
    poly = scalar_indicial_polynomial(4, 1, 0)
    assert poly == [Fraction(0), Fraction(0), Fraction(-4), Fraction(0),
                    Fraction(1)]  # z^2 (z-2)(z+2)
    assert scalar_indicial_roots(4, 1, 0) == {-2: 1, 0: 2, 2: 1}
    # factorization oracle (z+4)(z-2)(z-4)(z+2) = z^4 - 20 z^2 + 64
    poly = scalar_indicial_polynomial(4, 1, 2)
    assert poly == [Fraction(64), Fraction(0), Fraction(-20), Fraction(0),
                    Fraction(1)]
    assert scalar_indicial_roots(4, 1, 2) == {-4: 1, -2: 1, 2: 1, 4: 1}
    # critical dimension: double root at zero for s = 0
    for (n, k) in [(4, 1), (6, 2), (8, 3)]:
        assert scalar_indicial_roots(n, k, 0)[0] == 2


def test_critical_log_mode_by_symbolic_oracle():
    # the double root at 0 carries the log solution: Delta^2 log r = 0 (n=4)
    import sympy

    xs = sympy.symbols("x0 x1 x2 x3")
    r = sympy.sqrt(sum(x ** 2 for x in xs))
    f = sympy.log(r)
    lap = lambda g: sum(sympy.diff(g, x, 2) for x in xs)
    assert sympy.simplify(lap(lap(f))) == 0
    # simple root 2: r^2 log r is NOT in the kernel
    g = r ** 2 * sympy.log(r)
    assert sympy.simplify(lap(lap(g))) != 0


def test_validate_nk():
    validate_nk(3, 1)
    validate_nk(8, 3)
    for (n, k) in [(3, 2), (5, 1), (4, 2), (7, 1), (6, 0)]:
        with pytest.raises(ParameterError):
            validate_nk(n, k)
