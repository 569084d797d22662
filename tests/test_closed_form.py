from fractions import Fraction

import numpy as np
import pytest

from conespec.closed_form import (ParameterError,
                                  essential_linear_gap,
                                  gauge_exceptional_values,
                                  gauge_kernel_rates, modified_gauge_rates,
                                  modified_kernel_factors,
                                  modified_kernel_polynomial,
                                  modified_typeII_matrix,
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
    # z^2 - (1/10) z - 19/5 = (z - 2)(z + 19/10): both roots exact
    rec = modified_gauge_rates(4, Fraction(1, 10), "typeI", 1)
    assert rec["roots"] == [-1.9, 2.0]
    assert modified_kernel_factors(4, Fraction(1, 10), "typeI", 1) == [
        ([Fraction(19, 10), 1], 1)]


def test_modified_typeII_quartic_t0():
    rec = modified_gauge_rates(4, 0, "typeII", 2)
    # factorization oracle: det = 2 (z^2 - 4)(z^2 - 16), every root exact
    assert rec["roots"] == [-4, -2, 2, 4]
    assert modified_kernel_polynomial(4, 0, "typeII", 2) == [
        128, 0, -40, 0, 2]


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


@pytest.mark.parametrize("call", [
    lambda: modified_typeII_matrix(4, 0.1, 8),
    lambda: modified_gauge_rates(4, 0.1, "typeI", 1),
    lambda: essential_linear_gap(4, 0.0, 6)])
def test_a_float_t_is_refused(call):
    with pytest.raises(ParameterError, match="int or Fraction"):
        call()


def test_translation_root_persists():
    # the translation-derived kernel keeps an exact root z = 1 for every t:
    # it divides out with remainder 0, and the cubic left over has the
    # rational root t - (n - 3)
    for n in (3, 4, 6):
        for t in (0, Fraction(1, 20), Fraction(-1, 10), Fraction(3, 10)):
            roots = modified_gauge_rates(n, t, "typeII", 1)["roots"]
            assert 1 in roots and float(t - (n - 3)) in roots
            factors = modified_kernel_factors(n, t, "typeII", 1)
            assert sum((len(f) - 1) * m for f, m in factors) == 3


def test_nu_zero_branches():
    rec = modified_gauge_rates(4, 0, "typeII", 0)
    assert rec["roots"] == [-2, 2]  # b- and b+ + 2
    assert rec["non_geometric"] == [0, 0]  # z^2: a double root


def test_gap_scan():
    rec = essential_linear_gap(4, 0, 6)
    assert rec["gamma0"] == 0.0
    labels = {label for w in rec["witnesses"] if w["distance"] == 0
              for label in w["labels"]}
    assert "typeII j=0" in labels   # dilation field
    assert "typeII j=2" in labels   # degree-2 conformal field
    rec = essential_linear_gap(4, Fraction(1, 10), 8)
    assert rec["gamma0"] > 0
    # the rotation family never appears: its order is removed exactly
    assert all("typeI j=1 upper" not in w["labels"] for w in rec["witnesses"])
    assert "collisions" in rec
    # the gap shrinks as t -> 0 (the formerly-linear rates move like t)
    small = essential_linear_gap(4, Fraction(1, 20), 8)["gamma0"]
    assert 0 < small < rec["gamma0"]


def test_gap_reports_each_shared_root_once():
    # at n = 3, t = 0 three labels share z = -9 (order -10); sorted
    # neighbours within 1e-9 made that two pairs
    clusters = essential_linear_gap(3, 0)["collisions"]
    at = [c for c in clusters if c["order_re"] == -10]
    assert at == [{"order_re": -10.0, "order_im": 0.0, "labels": [
        "typeI j=9 lower", "typeII j=8", "typeII j=10"]}]
    assert len({(c["order_re"], c["order_im"]) for c in clusters}) \
        == len(clusters)


def test_gap_witnesses_list_each_root_once_with_all_labels():
    # z = 3 (order 2) is shared by three labels; the witnesses listed two
    # of them and cut typeII j=3 off.  Orders -1 and 3 tie at distance 2,
    # and both are listed.
    witnesses = essential_linear_gap(3, 0)["witnesses"]
    assert witnesses[1] == {"order_re": 2.0, "order_im": 0.0, "labels": [
        "typeI j=2 upper", "typeII j=1", "typeII j=3"], "distance": 1.0}
    assert [(w["order_re"], w["distance"]) for w in witnesses] == [
        (1.0, 0.0), (2.0, 1.0), (-1.0, 2.0), (3.0, 2.0)]


def test_gap_report_does_not_follow_float_noise(monkeypatch):
    want = essential_linear_gap(3, 0)
    roots = np.roots

    def nudged(p):
        r = roots(p)
        return r + 1e-15 * np.maximum(1, np.abs(r))
    monkeypatch.setattr(np, "roots", nudged)
    assert essential_linear_gap(3, 0) == want


def test_gap_decides_the_axis_exactly(monkeypatch):
    # gamma0 = 0 comes from the exact factors, not from the float roots
    monkeypatch.setattr(np, "roots", lambda p: np.zeros(len(p) - 1) + 7.5)
    assert essential_linear_gap(4, 0, 6)["gamma0"] == 0.0
    assert essential_linear_gap(4, Fraction(1, 10), 6)["gamma0"] > 0


def test_rigid_roots_divide_out_exactly(monkeypatch):
    from conespec import closed_form as cf
    monkeypatch.setitem(cf.RIGID_ROOTS, ("typeI", 1), 3)
    with pytest.raises(ArithmeticError, match="z = 3"):
        modified_kernel_factors(4, Fraction(1, 10), "typeI", 1)


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
