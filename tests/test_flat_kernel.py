import sys
from fractions import Fraction

import numpy as np
import pytest

from conespec import polytensor as pt
from conespec.closed_form import ParameterError
from conespec.flat_kernel import (QuadraticField, _acol,
                                  constant_profile_system,
                                  degree1_identity_diagnostics, degree1_system,
                                  divergence_free_nullspace,
                                  flow_defect_form, quadratic_flow_defect,
                                  quadratic_flow_error,
                                  quadratic_lie_isomorphism,
                                  quadratic_lie_map_rows)
from conespec.linalg import solve_dense, sparse_rank, sparse_rref
from conespec.verify import _nk_pairs
from linalg_reference import fraction_rref


def field_from_entries(n, entries):
    """QuadraticField with X_i = sum a_{ilm} x_l x_m from entries keyed
    (i, l, m) in any order of l and m; repeated keys add up."""
    coeffs = {}
    for (i, l, m), v in entries.items():
        key = (i, min(l, m), max(l, m))
        coeffs[key] = coeffs.get(key, 0) + v
    return QuadraticField(n, {key: v for key, v in coeffs.items() if v != 0})


def test_mode_preconditions():
    with pytest.raises(ParameterError):
        divergence_free_nullspace(6, 1, "log")  # not the critical dimension
    with pytest.raises(ParameterError):
        divergence_free_nullspace(4, 1, "degree0")  # constant profile there
    with pytest.raises(ParameterError):
        divergence_free_nullspace(6, 1, "n3_degree1")
    with pytest.raises(ParameterError):
        divergence_free_nullspace(4, 0, "degree1")  # trace-free case deferred


def test_degree1_assembly_matches_exact_divergence():
    # the assembled rows are the exact coefficients of delta(|x|^{2k-n} u(x))
    rng = np.random.default_rng(4)
    n, k = 6, 1
    rows, ncols, cols = degree1_system(n, k)
    avals = {key: int(rng.integers(-3, 4)) for key in cols}
    h = pt.PolyTensor(n, 2)
    for (i, j, ell), a in avals.items():
        if a == 0:
            continue
        alpha = tuple(1 if q == ell else 0 for q in range(n))
        h.add_term((i, j), alpha, 2 * k - n, a)
        if i != j:
            h.add_term((j, i), alpha, 2 * k - n, a)
    got = pt.divergence(h)
    # per component j: -(n-2k) |x|^{2k-n-2} sum A x x + |x|^{2k-n} sum A_iji
    want = pt.PolyTensor(n, 1)
    for j in range(n):
        for ell in range(n):
            for m in range(n):
                a = avals.get((min(ell, j), max(ell, j), m), 0)
                if a:
                    alpha = [0] * n
                    alpha[ell] += 1
                    alpha[m] += 1
                    want.add_term((j,), tuple(alpha), 2 * k - n - 2,
                                  -(n - 2 * k) * a)
        for i in range(n):
            a = avals.get((min(i, j), max(i, j), i), 0)
            if a:
                alpha = tuple(0 for _ in range(n))
                want.add_term((j,), alpha, 2 * k - n, a)
    assert (got - want).is_zero()


def test_identity_checks_match_rank_comparison():
    # each check read against the one reduction equals "appending the
    # candidate keeps the rank"
    for (n, k) in _nk_pairs(8):
        rows, _, cols = degree1_system(n, k)
        base = sparse_rank(rows)
        for kind, idx, got in degree1_identity_diagnostics(n, k):
            if kind == "diag":
                p, j = idx
                cand = {_acol(cols, p, j, p): 1}
            else:
                l, j, m = idx
                cand = {_acol(cols, l, j, m): 1, _acol(cols, m, j, l): 1}
            assert got == (sparse_rank(rows + [cand]) == base), (n, k, idx)


def test_suite_reductions_match_fraction_reference():
    # every system the rigidity and Lie suites reduce: the 7 degree-1
    # systems of _nk_pairs(8), the constant profiles and the Lie maps
    pairs = _nk_pairs(8)
    systems = [degree1_system(n, k)[0] for n, k in pairs]
    systems += [constant_profile_system(n)[0] for n in {n for n, _ in pairs}]
    systems += [quadratic_lie_map_rows(n)[0] for n in range(2, 7)]
    for rows in systems:
        assert sparse_rref(rows) == fraction_rref(rows)


def test_lie_rank_against_float_oracle():
    for n in (3, 4, 5):
        rows, ncols, acols, ridx = quadratic_lie_map_rows(n)
        dense = np.zeros((len(rows), ncols))
        for r, row in enumerate(rows):
            for c, v in row.items():
                dense[r, c] = float(v)
        assert np.linalg.matrix_rank(dense) == quadratic_lie_isomorphism(n)["rank"]


def test_lie_map_matches_polytensor():
    rng = np.random.default_rng(8)
    n = 4
    entries = {}
    X = pt.PolyTensor(n, 1)
    for i in range(n):
        for l in range(n):
            for m in range(l, n):
                v = int(rng.integers(-2, 3))
                if v:
                    entries[(i, l, m)] = v
                    alpha = [0] * n
                    alpha[l] += 1
                    alpha[m] += 1
                    X.add_term((i,), tuple(alpha), 0, v)
    qf = field_from_entries(n, entries)
    lie = pt.lie_flat(X)
    for _ in range(5):
        x = rng.standard_normal(n)
        assert np.allclose(lie.evaluate(x), qf.lie_flat_matrix(x), atol=1e-12)


def solve_quadratic_lie(n, linear_tensor_coeffs):
    """Solve L_X g0 = h for a quadratic field X, h with linear components.

    linear_tensor_coeffs: dict (i<=j, m) -> value of the x_m coefficient of
    h_{ij}.  Returns a QuadraticField.
    """
    rows, ncols, acols, row_index = quadratic_lie_map_rows(n)
    dense = [[Fraction(0)] * ncols for _ in range(len(rows))]
    for r, row in enumerate(rows):
        for c, v in row.items():
            dense[r][c] = v
    rhs = [Fraction(0)] * len(rows)
    for (i, j, m), v in linear_tensor_coeffs.items():
        rhs[row_index[(min(i, j), max(i, j), m)]] = Fraction(v)
    sol = solve_dense(dense, rhs)
    coeffs = {key: sol[col] for key, col in acols.items() if sol[col] != 0}
    return QuadraticField(n, coeffs)


def test_solve_quadratic_lie_inverts():
    rng = np.random.default_rng(13)
    n = 3
    target = {}
    h = pt.PolyTensor(n, 2)
    for i in range(n):
        for j in range(i, n):
            for m in range(n):
                v = int(rng.integers(-3, 4))
                if v:
                    target[(i, j, m)] = v
                    alpha = tuple(1 if q == m else 0 for q in range(n))
                    h.add_term((i, j), alpha, 0, v)
                    if i != j:
                        h.add_term((j, i), alpha, 0, v)
    X = solve_quadratic_lie(n, target)
    Xf = pt.PolyTensor(n, 1)
    for (i, l, m), v in X.coeffs.items():
        alpha = [0] * n
        alpha[l] += 1
        alpha[m] += 1
        Xf.add_term((i,), tuple(alpha), 0, v)
    assert (pt.lie_flat(Xf) - h).is_zero()


def test_flow_error_zero_field():
    rec = quadratic_flow_error(QuadraticField.zero(4), [0.1, 0.01, 0.001])
    assert rec["identity_flow"]
    assert all(v == 0.0 for v in rec["errors_by_radius"].values())


def test_flow_error_without_scipy_names_the_test_extra(monkeypatch):
    # the package needs only numpy; scipy comes with the test extra
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.integrate", None)
    with pytest.raises(ImportError, match=r"conespec\[test\]"):
        quadratic_flow_error(QuadraticField.zero(4), [0.1, 0.01, 0.001])


def test_flow_error_single_coefficient_slope():
    X = field_from_entries(3, {(0, 0, 0): 1.0})  # X_1 = x_1^2
    radii = [10 ** e for e in (-1.0, -1.5, -2.0, -2.5, -3.0)]
    rec = quadratic_flow_error(X, radii, rng=np.random.default_rng(1))
    assert rec["slope"] is not None
    assert 1.9 <= rec["slope"] <= 2.1


def test_flow_radii_span_precondition():
    X = field_from_entries(3, {(0, 0, 0): 1.0})
    with pytest.raises(ParameterError):
        quadratic_flow_error(X, [0.1, 0.2])


def test_flow_rejects_large_radii():
    X = field_from_entries(3, {(0, 0, 0): 1.0})
    rec = quadratic_flow_error(X, [10.0, 0.1, 0.01, 0.001],
                               rng=np.random.default_rng(2))
    assert 10.0 in rec["rejected_radii"]


def test_memoized_records_are_fresh_per_call():
    rec = divergence_free_nullspace(4, 1, "degree1")
    want = divergence_free_nullspace(4, 1, "degree1")
    rec["dimension"] = 99
    rec["basis"].append([Fraction(1)])
    assert divergence_free_nullspace(4, 1, "degree1") == want
    assert want["dimension"] == 0 and want["basis"] == []
    lie = quadratic_lie_isomorphism(3)
    lie["invertible"] = False
    assert quadratic_lie_isomorphism(3)["invertible"]


def test_memoized_nullspace_basis_rows_are_fresh(monkeypatch):
    # every expected nullspace is empty, so plant a one-vector basis to see
    # that the rows of a returned basis are copies of the memoized ones
    from conespec import flat_kernel as fk

    monkeypatch.setattr(fk, "sparse_nullspace",
                        lambda pivots, ncols: [[Fraction(1)] * ncols])
    fk._divergence_free_nullspace.cache_clear()
    try:
        rec = divergence_free_nullspace(4, 1, "degree1")
        rec["basis"][0][0] = Fraction(7)
        assert divergence_free_nullspace(4, 1, "degree1")["basis"][0][0] == 1
    finally:
        fk._divergence_free_nullspace.cache_clear()


def test_degree1_system_is_reduced_once(monkeypatch):
    # the degree-1 nullspace and the identity diagnostics read one reduction
    from conespec import flat_kernel as fk
    from conespec.linalg import sparse_rref

    want = degree1_identity_diagnostics(6, 1)
    calls = []

    def counting_rref(rows):
        calls.append(1)
        return sparse_rref(rows)

    monkeypatch.setattr(fk, "sparse_rref", counting_rref)
    fk._divergence_free_nullspace.cache_clear()
    fk._degree1_reduction.cache_clear()
    try:
        assert divergence_free_nullspace(6, 1, "degree1")["dimension"] == 0
        assert degree1_identity_diagnostics(6, 1) == want
        assert len(calls) == 1
    finally:
        fk._divergence_free_nullspace.cache_clear()
        fk._degree1_reduction.cache_clear()


def test_flow_defect_single_coefficient_by_hand():
    # X = x_0^2 d_0: phi_0 = x_0 / (1 - x_0), so (phi^* g0)_00 =
    # (1 - x_0)^-4 = 1 + 4 x_0 + 10 x_0^2 + ..., and L_X g0 = 4 x_0 dx_0^2
    X = QuadraticField(2, {(0, 0, 0): 1})
    low0, low1, quad = quadratic_flow_defect(X)
    assert low0.is_zero() and low1.is_zero()
    assert quad == pt.PolyTensor(2, 2).add_term((0, 0), (2, 0), 0, 10)
    assert flow_defect_form(X) == quad


def test_flow_defect_zero_field_and_float_coefficients():
    assert all(part.is_zero()
               for part in quadratic_flow_defect(QuadraticField.zero(3)))
    with pytest.raises(ParameterError, match="integer"):
        quadratic_flow_defect(QuadraticField(3, {(0, 0, 0): 1.0}))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flow_defect_matches_formula_on_integer_fields(seed):
    X = QuadraticField.random_integer(3, np.random.default_rng(seed))
    low0, low1, quad = quadratic_flow_defect(X)
    assert low0.is_zero() and low1.is_zero()
    assert quad == flow_defect_form(X) and not quad.is_zero()
    transpose = pt.PolyTensor(3, 2, {(b, a): dict(comp) for (a, b), comp
                                     in quad.comps.items()})
    assert quad == transpose


def test_float_flow_converges_to_exact_defect():
    # the DOP853 oracle's sup defect over its four directions tends to the
    # sup of the exact degree-2 form over the same points
    X = QuadraticField(4, {(0, 0, 1): 1, (0, 2, 2): -1, (1, 2, 3): -1,
                           (2, 0, 0): 1, (3, 1, 3): 1})
    quad = flow_defect_form(X)
    radii = [1e-2, 1e-3]
    rec = quadratic_flow_error(X, radii, rng=np.random.default_rng(0))
    dirs = np.random.default_rng(0).standard_normal((4, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    gaps = []
    for r in radii:
        exact = max(float(np.max(np.abs(quad.evaluate(r * d))))
                    for d in dirs)
        gaps.append(abs(rec["errors_by_radius"][r] / exact - 1))
    assert gaps[1] < 0.2 * gaps[0] and gaps[1] < 0.01
