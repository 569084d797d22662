import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conespec import polytensor as pt
from conespec.closed_form import (ParameterError, scalar_indicial_polynomial,
                                  scalar_indicial_roots, typeI_eigenvalue,
                                  typeII_eigenvalue)
from conespec.linalg import poly_shift
from conespec.mode_ode import (EulerOperator, ModeSolution, ProbeError,
                               degenerate_scan, divergence_mode_system,
                               empirical_l0, indicial_spectrum,
                               interpolate_in_t, probe_euler,
                               scalar_mode_system, solution_split,
                               tensor_mode_system, three_annulus_verify,
                               triple_bar_norm)
from conespec.verify import check_probed_displays


def synthetic_operator(roots_with_mult):
    """1x1 Euler system with a prescribed exact integer root list (for
    machinery tests with closed-form answers)."""
    poly = [Fraction(1)]
    for z, mult in roots_with_mult:
        for _ in range(mult):
            new = [Fraction(0)] * (len(poly) + 1)
            for i, c in enumerate(poly):
                new[i + 1] += c
                new[i] -= c * Fraction(z)
            poly = new
    basis = pt.basis_from_elements(4, [pt.dr_tensor(4)], ["e"])
    order = len(poly) - 1
    return EulerOperator(basis, basis, Fraction(2), order, [[poly]])


def test_probe_matches_scalar_indicial_polynomial():
    for (n, k, s) in [(4, 1, 0), (4, 1, 2), (6, 1, 1), (6, 2, 0)]:
        basis, op = scalar_mode_system(n, k, s)
        assert op.P[0][0] == scalar_indicial_polynomial(n, k, s)
        spec = indicial_spectrum(op)
        want = scalar_indicial_roots(n, k, s)
        got = {round(r.value.real): r.multiplicity for r in spec.roots}
        assert got == want


def test_probed_gauge_systems_match_displays():
    assert check_probed_displays()["passed"]


def test_displayed_typeI_example_values():
    # n=4, j=1: z^2 - 4 at t=0 and z^2 - z/10 - 19/5 at t=1/10
    basis = pt.basis_from_elements(4, [pt.coclosed_eigenform(4, 1)], ["r psi"])
    op = probe_euler(lambda f: pt.gauge_op(f), basis, 2)
    assert poly_shift(op.P[0][0], Fraction(-1)) == \
        [Fraction(-4), Fraction(0), Fraction(1)]
    op = probe_euler(lambda f: pt.gauge_op_t(f, Fraction(1, 10)), basis, 2)
    assert poly_shift(op.P[0][0], Fraction(-1)) == \
        [Fraction(-19, 5), Fraction(-1, 10), Fraction(1)]


def test_probe_holdout_and_weight():
    basis, op = scalar_mode_system(4, 1, 0)
    assert op.weight == 4
    assert op.order == 4
    # holdout runs inside probe_euler; basis closure violation raises
    bad = pt.basis_from_elements(4, [pt.dr_tensor(4)], ["drdr"])
    with pytest.raises(ProbeError):
        probe_euler(lambda f: pt.gauged_lin(f, 1, Fraction(1, 10)), bad, 4)


def test_probe_rejects_float_coefficients():
    basis = pt.basis_from_elements(4, [pt.sphere_harmonic(4, 1)], ["phi"])
    with pytest.raises(ProbeError, match="float coefficients"):
        probe_euler(lambda f: pt.laplacian(f).scaled(0.1), basis, 2)


def test_integer_t_stays_exact():
    _, op = tensor_mode_system(4, 1, 1, 1)
    assert all(type(c) in (int, Fraction)
               for row in op.P for p in row for c in p)
    assert op.P == tensor_mode_system(4, 1, Fraction(1), 1)[1].P
    # P(z; t) is affine in t, so P(1) = 2 P(1/2) - P(0) entry by entry
    half = tensor_mode_system(4, 1, Fraction(1, 2), 1)[1].P
    zero = tensor_mode_system(4, 1, 0, 1)[1].P
    for r, row in enumerate(op.P):
        for c, p in enumerate(row):
            assert p == [2 * a - b for a, b
                         in zip(half[r][c], zero[r][c], strict=True)]


def _both_systems(n, k, t, j):
    basis, op = tensor_mode_system(n, k, t, j)
    return op, divergence_mode_system(n, t, j, basis)


def _assert_same_system(got, want):
    assert got.P == want.P
    assert (got.weight, got.order) == (want.weight, want.order)
    assert got.basis.labels == want.basis.labels
    assert got.target.labels == want.target.labels


@pytest.mark.parametrize("n,k,j", [(4, 1, 1), (4, 1, 2), (3, 1, 1)])
@pytest.mark.parametrize("t_values", [
    [0, Fraction(1, 20), Fraction(-1, 10), 1],
    [Fraction(1, 20), Fraction(-1, 20), Fraction(1, 3)],
], ids=["with-0", "without-0"])
def test_interpolated_systems_equal_direct_probes(n, k, j, t_values):
    a, b = t_values[:2]
    anchors = _both_systems(n, k, a, j), _both_systems(n, k, b, j)
    for t in t_values[2:]:
        direct = _both_systems(n, k, t, j)
        for i in (0, 1):  # tensor system, divergence system
            got = interpolate_in_t(t, a, anchors[0][i], b, anchors[1][i])
            _assert_same_system(got, direct[i])


@functools.cache
def _anchor_systems(j):
    """(tensor, divergence) systems of (4, 1, j) at t = 0 and t = 1/7."""
    return _both_systems(4, 1, 0, j), _both_systems(4, 1, Fraction(1, 7), j)


@settings(max_examples=5, deadline=None)
@given(j=st.integers(0, 1),
       t=st.fractions(min_value=-1, max_value=1, max_denominator=12))
def test_interpolation_is_exact_at_small_rational_t(j, t):
    at_0, at_b = _anchor_systems(j)
    direct = _both_systems(4, 1, t, j)
    for i in (0, 1):
        got = interpolate_in_t(t, 0, at_0[i], Fraction(1, 7), at_b[i])
        _assert_same_system(got, direct[i])


@pytest.mark.parametrize("change", ["weight", "order", "basis", "float t"])
def test_interpolation_rejects_disagreeing_systems(change):
    (op_a, _), (op_b, _) = _anchor_systems(1)
    t = Fraction(1, 3)
    if change == "weight":
        op_b = dataclasses.replace(op_b, weight=op_b.weight + 1)
    elif change == "order":
        op_b = dataclasses.replace(op_b, order=op_b.order + 1)
    elif change == "basis":
        op_b = _anchor_systems(0)[1][0]
    else:
        t = 1 / 3
    with pytest.raises(ProbeError):
        interpolate_in_t(t, 0, op_a, Fraction(1, 7), op_b)


def test_mode_multiplicities():
    for (n, k) in [(4, 1), (6, 1), (6, 2)]:
        basis, op = tensor_mode_system(n, k, Fraction(1, 10), 2)
        spec = indicial_spectrum(op)
        assert len(basis) == 4
        assert spec.total_multiplicity == 8 * (k + 1)
        assert spec.beta is not None and spec.beta > 0


def test_t0_roots_are_integers():
    for j in (0, 1, 2, 3):
        _, op = tensor_mode_system(4, 1, 0, j)
        spec = indicial_spectrum(op)
        for r in spec.roots:
            assert abs(r.value.imag) < 1e-9
            assert abs(r.value.real - round(r.value.real)) < 1e-8


def test_divfree_directions_match_scalar_roots():
    from conespec.mode_ode import _divergence_free_chain_space

    n, k, j = 4, 1, 2
    basis, op = tensor_mode_system(n, k, Fraction(0), j)
    spec = indicial_spectrum(op)
    div_op = divergence_mode_system(n, Fraction(0), j, basis)
    allowed = set()
    for s in (0, 2, 4):
        allowed.update(scalar_indicial_roots(n, k, s))
    for root in spec.roots:
        inter = _divergence_free_chain_space(op, div_op, root, 1e-9)
        if inter.shape[1]:
            assert min(abs(root.value - z) for z in allowed) < 1e-7


def test_solution_split_examples():
    # roots {2, -2} with unit coefficients: pure sign split
    op = synthetic_operator([(2, 1), (-2, 1)])
    spec = indicial_spectrum(op)
    sol = ModeSolution.from_chain_weights(
        spec, {a: np.ones(spec.roots[a].chain_basis.shape[1])
               for a in range(len(spec.roots))})
    parts = solution_split(sol)
    assert not parts["h_plus"].is_trivial()
    assert not parts["h_minus"].is_trivial()
    assert parts["h_zero"].is_trivial()
    assert not parts["degenerate"]
    assert parts["beta"] == 2

    # a purely imaginary root is degenerate
    from conespec.mode_ode import IndicialSpectrum, RootData

    base = synthetic_operator([(2, 1)])
    root = RootData(1j, 1, np.eye(1, dtype=complex), np.eye(1, dtype=complex))
    spec = IndicialSpectrum(base, [root])
    sol = ModeSolution.from_chain_weights(spec, {0: np.ones(1)})
    assert solution_split(sol)["degenerate"]

    # double root at 0: the log mode lives in the degenerate part
    op = synthetic_operator([(0, 2)])
    spec = indicial_spectrum(op)
    assert spec.roots[0].multiplicity == 2
    sol = ModeSolution.random(spec, np.random.default_rng(0))
    parts = solution_split(sol)
    assert parts["degenerate"]
    prof = sol.family_profile(0)
    assert prof.big_m >= 1  # log power present


def test_split_is_direct_sum_at_radii():
    rng = np.random.default_rng(31)
    _, op = tensor_mode_system(4, 1, Fraction(1, 20), 2)
    spec = indicial_spectrum(op)
    for _ in range(5):
        sol = ModeSolution.random(spec, rng)
        parts = solution_split(sol)
        for _ in range(100):
            r = float(rng.uniform(0.2, 5.0))
            total = sol.profile_values(r)
            summed = (parts["h_plus"].profile_values(r)
                      + parts["h_minus"].profile_values(r)
                      + parts["h_zero"].profile_values(r))
            assert np.max(np.abs(total - summed)) <= 1e-12 * max(
                1.0, float(np.max(np.abs(total))))


def test_chain_space_dimension_equals_multiplicity():
    _, op = tensor_mode_system(4, 1, 0, 2)
    spec = indicial_spectrum(op)
    for root in spec.roots:
        assert root.chain_basis.shape[1] == root.multiplicity


def test_single_mode_growth_ratio_closed_form():
    # single mode r^2: the annulus norms scale by exactly L^2
    op = synthetic_operator([(2, 1)])
    spec = indicial_spectrum(op)
    sol = ModeSolution.from_chain_weights(spec, {0: np.ones(1)})
    L = 3.0
    n1 = triple_bar_norm(sol, 1.0, L)
    n2 = triple_bar_norm(sol, L, L ** 2)
    assert abs(n2 / n1 - L ** 2) < 1e-9
    rec = three_annulus_verify(spec, 0.9, L, trials=50, seed=0)
    assert rec["passed"]


def test_three_annulus_rejects_zero_roots():
    op = synthetic_operator([(0, 1), (2, 1), (-2, 1)])
    spec = indicial_spectrum(op)
    with pytest.raises(ParameterError):
        three_annulus_verify(spec, 0.9, 4.0)


def test_three_annulus_beta_prime_bound():
    op = synthetic_operator([(2, 1), (-2, 1)])
    spec = indicial_spectrum(op)
    with pytest.raises(ParameterError):
        three_annulus_verify(spec, 1.5, 4.0)  # needs beta' < beta/2


def test_three_annulus_dichotomy_with_turan_cross_check():
    _, op = tensor_mode_system(4, 1, 0, 1)
    spec = indicial_spectrum(op)
    beta = spec.beta
    rec = empirical_l0(spec, 0.45 * beta, trials=100, seed=5)
    assert rec["L0"] is not None
    confirm = three_annulus_verify(spec, 0.45 * beta, rec["L0"],
                                   trials=100, seed=5, turan_check=True)
    assert confirm["passed"]
    # growth and decay implications never both fail on the same draw: at the
    # found L0 nothing fails at all, which subsumes the dichotomy
    assert all(v == 0 for v in confirm["failures"].values())


def test_norms_cross_module_consistency():
    # mode-solution norms agree with the exact field norm for a pure mode
    n, k, j = 4, 1, 1
    basis, op = tensor_mode_system(n, k, Fraction(0), j)
    spec = indicial_spectrum(op)
    lambdas = [float(basis.gram[c][c]) * math.pi ** (n // 2)
               for c in range(len(basis))]
    root_idx = next(i for i, r in enumerate(spec.roots)
                    if abs(r.value - 3) < 1e-9)
    root = spec.roots[root_idx]
    vec = root.kernel[:, 0]
    vec = (vec / vec[np.argmax(np.abs(vec))]).real  # real pure-power solution
    table = np.zeros((root.multiplicity, len(basis)), dtype=complex)
    table[0] = vec
    sol = ModeSolution(spec, {root_idx: table})
    field = pt.PolyTensor(n, 2)
    for c, T in enumerate(basis.elements):
        if abs(vec[c]) > 1e-12:
            field = field + T.scaled(Fraction(float(vec[c])).limit_denominator(
                10 ** 10)).radial_scaled(3)
    a, b = 0.7, 2.9
    direct = pt.triple_bar_norm_sq(field, a, b)
    via_gram = triple_bar_norm(sol, a, b, lambdas=lambdas) ** 2
    assert abs(direct - via_gram) < 1e-6 * max(direct, 1e-12)


def test_rates_stay_near_integers_at_small_t():
    # observed (not proved): mode roots at small t stay near the integer
    # asymptotes and the growth-rate floor does not collapse
    worst_offset = 0.0
    betas = []
    for j in range(0, 9):
        _, op = tensor_mode_system(4, 1, Fraction(1, 20), j)
        spec = indicial_spectrum(op)
        betas.append(spec.beta)
        for r in spec.roots:
            if r.classification == "zero":
                continue
            worst_offset = max(worst_offset,
                               abs(r.value.real - round(r.value.real)))
    print(f"max integer offset at t=1/20 over j<=8: {worst_offset:.4f}; "
          f"beta floor {min(betas):.4f}")
    assert worst_offset < 0.25
    # the floor stays positive but is O(t): the formerly-degenerate roots
    # move off the axis by a t-proportional amount
    assert min(betas) > 0
    assert max(betas) > 0.5


def test_low_confidence_flag_on_near_coincident_roots():
    op = synthetic_operator([(0, 1)])
    # z (z - tiny): two distinct roots within 10x the cluster radius
    tiny = Fraction(1, 2_000_000)
    op.P = [[[Fraction(0), -tiny, Fraction(1)]]]
    op.order = 2
    spec = indicial_spectrum(op)
    assert spec.low_confidence
    assert spec.total_multiplicity == 2


def test_degenerate_scan_other_dimension():
    rep = degenerate_scan(6, 1, [Fraction(1, 20)], 2)
    assert rep["findings"] == []
    assert all(s["beta"] > 0 for s in rep["spectra"].values())


def test_degenerate_scan_parallel_matches_serial():
    rep_a = degenerate_scan(4, 1, [0, Fraction(1, 20)], 1, jobs=2)
    rep_b = degenerate_scan(4, 1, [0, Fraction(1, 20)], 1, jobs=1)
    assert rep_a["findings"] == rep_b["findings"]
    assert rep_a["witnesses_t0"] == rep_b["witnesses_t0"]
    assert rep_a["spectra"] == rep_b["spectra"]
    assert rep_a == rep_b


def test_degenerate_scan_matches_per_t_direct_probes():
    from conespec.mode_ode import _divergence_free_chain_space

    n, k, j_max, tol = 4, 1, 1, 1e-9
    tvals = [Fraction(1, 20), 0, Fraction(1, 20), Fraction(-1, 10)]
    want = {"n": n, "k": k, "j_max": j_max,
            "t_values": [float(t) for t in tvals],
            "findings": [], "witnesses_t0": [], "spectra": {}}
    for t in tvals:  # every (t, j) cell probed directly, repeats included
        for j in range(j_max + 1):
            op, div_op = _both_systems(n, k, t, j)
            spec = indicial_spectrum(op)
            want["spectra"][f"t={float(t)},j={j}"] = spec.summary()
            for root in spec.roots:
                if root.classification != "zero":
                    continue
                inter = _divergence_free_chain_space(op, div_op, root, tol)
                dim = inter.shape[1]
                if dim:
                    want["witnesses_t0" if t == 0 else "findings"].append(
                        {"t": float(t), "j": j,
                         "root": {"re": root.value.real, "im": root.value.imag,
                                  "mult": root.multiplicity},
                         "dimension": int(dim)})
    assert degenerate_scan(n, k, tvals, j_max, tol=tol) == want


@pytest.mark.parametrize("t_values,j_max,msg", [
    ([], 1, "at least one t"),
    ([0], -1, "j_max >= 0"),
])
def test_degenerate_scan_parameter_guards(t_values, j_max, msg):
    with pytest.raises(ParameterError, match=msg):
        degenerate_scan(4, 1, t_values, j_max)


@pytest.mark.parametrize("k,j,msg", [(0, 1, "k >= 1"), (1, -1, "j >= 0")])
def test_tensor_mode_system_parameter_guards(k, j, msg):
    with pytest.raises(ParameterError, match=msg):
        tensor_mode_system(4, k, 0, j)


def test_high_dimension_mode_system():
    basis, op = tensor_mode_system(8, 1, Fraction(1, 10), 2)
    spec = indicial_spectrum(op)
    assert len(basis) == 4
    assert spec.total_multiplicity == 16
    assert spec.beta is not None and spec.beta > 0


def test_degenerate_scan_witnesses_and_emptiness():
    rep = degenerate_scan(4, 1, [0, Fraction(1, 20)], 2)
    assert rep["findings"] == []
    js = {w["j"] for w in rep["witnesses_t0"]}
    assert {0, 2} <= js
    # rotations are not degenerate: j=1 contributes no zero-root findings
    assert all(w["j"] != 1 for w in rep["witnesses_t0"])
