import itertools
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conespec import flat_kernel as fk
from conespec import polytensor as pt
from conespec.closed_form import ParameterError
from conespec.flat_kernel import (QuadraticField, divergence_free_nullspace,
                                  flow_defect_form, operator_rows,
                                  quadratic_flow_defect,
                                  quadratic_flow_error,
                                  quadratic_lie_isomorphism)
from conespec.linalg import sparse_rank, sparse_rref
from conespec.verify import _nk_pairs
from linalg_reference import fraction_rref, solve_dense


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
        divergence_free_nullspace(3, 1, "n3_degree1")  # now mode degree1
    with pytest.raises(ParameterError):
        divergence_free_nullspace(4, 0, "degree1")  # trace-free case deferred


# -- the hand-built rows, kept as oracles for operator_rows -------------------


def _pairs(n):
    return list(itertools.combinations_with_replacement(range(n), 2))


def hand_degree1_rows(n, k):
    """(n-2k) sum_{i,l} A_{ijl} x_i x_l = |x|^2 sum_i A_{iji}, matched
    coefficient by coefficient, on the unknowns A_{ijl} (symmetric in i, j)
    in the column order of ``fk._profile_fields(n, k, "degree1")``."""
    cols = {}
    for c, ((i, j), ell) in enumerate(itertools.product(_pairs(n), range(n))):
        cols[(i, j, ell)] = cols[(j, i, ell)] = c
    rows = []
    for j in range(n):
        for (l, m) in _pairs(n):
            row = {cols[(a, j, b)]: n - 2 * k for a, b in {(l, m), (m, l)}}
            if l == m:
                for i in range(n):
                    row[cols[(i, j, i)]] = row.get(cols[(i, j, i)], 0) - 1
            rows.append({c: v for c, v in row.items() if v})
    return rows


def hand_constant_rows(n):
    """sum_i c_{ij} x_i = 0 on a symmetric constant matrix c."""
    cols = {p: c for c, p in enumerate(_pairs(n))}
    return [{cols[(min(i, j), max(i, j))]: 1}
            for j in range(n) for i in range(n)]


def hand_lie_rows(n):
    """(L_X g0)_{ij} = d_i X_j + d_j X_i, matched at each x_m, on the
    coefficients a_{ilm} in the order of ``fk._coefficient_keys(n)``;
    d_q X_p picks up a factor 2 on the diagonal l = m of a."""
    acols = {key: c for c, key in enumerate(fk._coefficient_keys(n))}
    rows = []
    for (i, j) in _pairs(n):
        for m in range(n):
            row = {}
            for (p, q) in ((i, j), (j, i)):
                col = acols[(p, min(q, m), max(q, m))]
                row[col] = row.get(col, 0) + (2 if q == m else 1)
            rows.append(row)
    return rows


def _lie_rows(n):
    return operator_rows("lie", fk._lie_fields(n))


def _div_rows(n, k, mode):
    return list(operator_rows("div", fk._profile_fields(n, k, mode)).values())


def _assert_same_row_space(hand, read):
    rank = sparse_rank(hand)
    assert sparse_rank(read) == rank
    assert sparse_rank(hand + read) == rank


def test_degree1_assembly_matches_exact_divergence():
    # the rows read off div on r^(2k-n) x_l (e_i . e_j) span the hand rows
    for (n, k) in _nk_pairs(8):
        _assert_same_row_space(hand_degree1_rows(n, k),
                               _div_rows(n, k, "degree1"))


def test_constant_profile_rows_match_hand_rows():
    # degree 0 and log read the same rows, up to the factor gamma
    for (n, k) in _nk_pairs(8):
        mode = "log" if n == 2 * (k + 1) else "degree0"
        _assert_same_row_space(hand_constant_rows(n), _div_rows(n, k, mode))


def test_lie_rows_match_hand_rows():
    for n in range(2, 7):
        _assert_same_row_space(hand_lie_rows(n),
                               list(_lie_rows(n).values()))


def test_rows_keyed_at_one_radial_power_see_the_sphere_relation():
    # x_1^2 r^-2 + x_2^2 r^-2 - r^0 = 0 on R^2: keyed one image at a time
    # the three traces look independent, at one common power they are not
    fields = [pt.PolyTensor(2, 2).add_term((0, 0), (2, 0), -2, 1),
              pt.PolyTensor(2, 2).add_term((1, 1), (0, 2), -2, 1),
              pt.PolyTensor(2, 2).add_term((0, 0), (0, 0), 0, 1)]
    rows = operator_rows("trace", fields)
    assert sparse_rank(list(rows.values())) == 2
    assert {g for _, g, _ in rows} == {-2}


@st.composite
def candidate_sets(draw):
    n = draw(st.integers(2, 4))
    term = st.tuples(st.integers(0, n - 1),
                     st.lists(st.integers(0, 2), min_size=n, max_size=n),
                     st.integers(-3, 2), st.integers(-3, 3).filter(bool))
    fields = []
    for terms in draw(st.lists(st.lists(term, min_size=1, max_size=3),
                               min_size=1, max_size=4)):
        field = pt.PolyTensor(n, 1)
        for i, alpha, gamma, c in terms:
            field.add_term((i,), alpha, gamma, c)
        fields.append(field)
    if draw(st.booleans()):
        # the pieces x_i^2 r^-2 f of the first field f sum to f, a
        # relation through |x|^2 that no single image shows
        fields += [pt.outer(fields[0], pt.PolyTensor(n, 0).add_term(
            (), [2 * (q == i) for q in range(n)], -2, 1)) for i in range(n)]
    return draw(st.sampled_from(("div", "lie", "laplacian"))), fields


@settings(max_examples=40, deadline=None)
@given(candidate_sets(), st.integers(0, 2 ** 32 - 1))
def test_operator_rows_rank_matches_evaluated_images(case, seed):
    # the exact rank equals the numerical rank of the images evaluated at
    # 3 x ncols random points (radii in [1/2, 2], so no image is ill-scaled)
    op, fields = case
    n = fields[0].n
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((3 * len(fields), n))
    points *= (rng.uniform(0.5, 2, len(points))
               / np.linalg.norm(points, axis=1))[:, None]
    images = [pt.apply_operator(op, f) for f in fields]
    values = np.array([np.concatenate([np.ravel(im.evaluate(x))
                                       for x in points]) for im in images])
    rows = list(operator_rows(op, fields).values())
    assert sparse_rank(rows) == np.linalg.matrix_rank(values.T)


def test_suite_reductions_match_fraction_reference():
    # every system the rigidity and Lie suites reduce: the degree-1,
    # degree-0 and log systems of _nk_pairs(8), and the Lie maps
    systems = [_div_rows(n, k, mode) for n, k in _nk_pairs(8)
               for mode in ("degree1",
                            "log" if n == 2 * (k + 1) else "degree0")]
    systems += [list(_lie_rows(n).values()) for n in range(2, 7)]
    for rows in systems:
        assert sparse_rref(rows) == fraction_rref(rows)


def test_lie_rank_against_float_oracle():
    for n in (3, 4, 5):
        rows = list(_lie_rows(n).values())
        dense = np.zeros((len(rows), n * n * (n + 1) // 2))
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
    rows = _lie_rows(n)
    keys = fk._coefficient_keys(n)
    dense = [[Fraction(row.get(c, 0)) for c in range(len(keys))]
             for row in rows.values()]
    rhs = [Fraction(linear_tensor_coeffs.get(
        (min(idx), max(idx), alpha.index(1)), 0)) for idx, _, alpha in rows]
    sol = solve_dense(dense, rhs)
    return QuadraticField(n, {key: v for key, v in zip(keys, sol) if v})


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
    rec = quadratic_flow_error(QuadraticField(4, {}), [0.1, 0.01, 0.001])
    assert rec["identity_flow"]
    assert all(v == 0.0 for v in rec["errors_by_radius"].values())


def test_flow_error_without_scipy_names_the_test_extra(monkeypatch):
    # the package needs only numpy; scipy comes with the test extra
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.integrate", None)
    with pytest.raises(ImportError, match=r"conespec\[test\]"):
        quadratic_flow_error(QuadraticField(4, {}), [0.1, 0.01, 0.001])


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
               for part in quadratic_flow_defect(QuadraticField(3, {})))
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
