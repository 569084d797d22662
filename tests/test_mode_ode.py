import functools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conespec import mode_ode
from conespec import polytensor as pt
from conespec import turan_constants
from conespec.closed_form import (ParameterError, modified_typeI_rates,
                                  scalar_indicial_polynomial,
                                  scalar_indicial_roots, typeI_eigenvalue)
from conespec.linalg import poly_derivative, poly_eval, poly_shift
from conespec.expsum import NumericError, RangeError, three_interval
from conespec.mode_ode import (L0_CANDIDATES, EulerOperator, FloatSystem,
                               ModeSolution, ProbeError, RadialGram,
                               degenerate_scan,
                               divergence_mode_system,
                               draw_kernel_coefficients, empirical_l0,
                               gauge_mode_system, indicial_spectrum,
                               parallel_map, probe_euler,
                               scalar_mode_system, solution_split,
                               tensor_mode_system, three_annulus_verify,
                               triple_bar_norm, turan_l_bound)
from conespec.verify import (_annulus_spectra, _displayed_typeI,
                             check_divfree_spectrum,
                             check_multiplicity, check_probed_displays,
                             check_rates_vs_probes, check_three_annulus)


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


def test_displayed_typeI_example_values():
    # n=4, j=1: z^2 - 4 at t=0 and z^2 - z/10 - 19/5 at t=1/10
    basis = pt.basis_from_elements(4, [pt.coclosed_eigenform(4, 1)], ["r psi"])
    op = probe_euler(lambda f: pt.gauge_op(f), basis, 2)
    assert poly_shift(op.P[0][0], Fraction(-1)) == \
        [Fraction(-4), Fraction(0), Fraction(1)]
    op = probe_euler(lambda f: pt.gauge_op_t(f, Fraction(1, 10)), basis, 2)
    assert poly_shift(op.P[0][0], Fraction(-1)) == \
        [Fraction(-19, 5), Fraction(-1, 10), Fraction(1)]


@pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [3, 4, 6])
def test_coclosed_family_every_degree(n, j):
    # r psi_j is tangential, divergence-free and harmonic component by
    # component, exactly; its probed type-I system is the displayed one
    # after the unit shift, with the closed-form roots
    form = pt.coclosed_eigenform(n, j)
    assert pt.radial_contraction(form).is_zero()
    assert pt.divergence(form).is_zero()
    assert pt.laplacian(form.radial_scaled(j)).is_zero()
    for t in (Fraction(0), Fraction(1, 10), Fraction(-1, 20)):
        _, op = gauge_mode_system(n, "typeI", t, j)
        shifted = poly_shift(op.P[0][0], Fraction(-1))
        assert shifted == _displayed_typeI(n, t, typeI_eigenvalue(n, j))
        got = np.sort(np.roots([float(c) for c in reversed(shifted)]))
        want = np.sort(modified_typeI_rates(n, float(t), j))
        assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_probe_holdout_and_weight():
    basis, op = scalar_mode_system(4, 1, 0)
    assert op.weight == 4
    assert op.order == 4
    # holdout runs inside probe_euler; basis closure violation raises
    bad = pt.basis_from_elements(4, [pt.dr_tensor(4)], ["drdr"])
    with pytest.raises(ProbeError):
        probe_euler(lambda f: pt.gauged_lin(f, 1, Fraction(1, 10)), bad, 4)


def test_probe_rejects_float_coefficients():
    # a float is refused where it would enter a field, before any image
    # reaches the closure test
    basis = pt.basis_from_elements(4, [pt.sphere_harmonic(4, 1)], ["phi"])
    with pytest.raises(ValueError, match="exact data .* got float 0.1"):
        probe_euler(lambda f: pt.laplacian(f).scaled(0.1), basis, 2)
    with pytest.raises(ValueError, match="exact data .* got float 0.5"):
        probe_euler(lambda f: pt.gauge_op_t(f, 0.5),
                    pt.oneform_mode_basis(4, 1), 2)


def _zero_mod_relation(f):
    """r^2 f - (sum_i x_i^2) f: non-empty term by term, zero modulo
    sum_i x_i^2 = r^2."""
    q = pt.PolyTensor(f.n, 0)
    for i in range(f.n):
        q.add_term((), tuple(2 * (a == i) for a in range(f.n)), 0, 1)
    return f.radial_scaled(2) - pt.mul_scalar_field(f, q)


def _phi_basis(n=4, j=1):
    return pt.basis_from_elements(n, [pt.sphere_harmonic(n, j)], ["phi"])


def test_probe_reads_images_zero_modulo_the_relation_as_vanished():
    basis = _phi_basis()
    image = _zero_mod_relation(basis.elements[0])
    assert image.comps and image.is_zero()
    with pytest.raises(ProbeError, match="vanished on every probe"):
        probe_euler(_zero_mod_relation, basis, 2)


def test_probe_judges_homogeneity_on_the_canonical_image():
    basis = _phi_basis()
    # mixed-homogeneity terms that cancel modulo the relation
    op = probe_euler(lambda f: f + _zero_mod_relation(f.radial_scaled(1)),
                     basis, 1)
    assert op.P == [[[1]]] and op.weight == 0
    with pytest.raises(ProbeError, match="not homogeneous"):
        probe_euler(lambda f: f + f.radial_scaled(1), basis, 1)


def test_probe_rejects_image_outside_target_span():
    basis = _phi_basis()
    phi = basis.elements[0]
    with pytest.raises(ProbeError, match="basis not closed"):
        probe_euler(lambda f: pt.mul_scalar_field(f, phi), basis, 1)


def _eval_float_oracle(op, z, derivative):
    """P^(derivative)(z) entry by entry: exact derivative, complex
    coefficients, Horner in Python complex arithmetic."""
    out = np.zeros((len(op.target), len(op.basis)), dtype=complex)
    for r, row in enumerate(op.P):
        for c, p in enumerate(row):
            for _ in range(derivative):
                p = poly_derivative(p)
            out[r, c] = poly_eval([complex(x) for x in p], complex(z))
    return out


@pytest.mark.parametrize("n,k,j,t", [
    (3, 1, 2, Fraction(1, 7)), (4, 1, 3, 0), (5, 1, 0, Fraction(-1, 4)),
    (4, 2, 3, 0), (3, 3, 1, Fraction(1, 20))])
def test_float_system_matches_per_entry_horner(n, k, j, t):
    _, op = tensor_mode_system(n, k, t, j)
    rng = np.random.default_rng(10 * n + j)
    zs = [root.value for root in indicial_spectrum(op).roots]
    zs += list(rng.normal(size=6) * 3 + 1j * rng.normal(size=6))
    for system in (op, divergence_mode_system(n, t, j)):
        fs = FloatSystem(system)
        assert fs.scale == max([1.0] + [
            sum(abs(float(complex(c).real)) + abs(float(complex(c).imag))
                for c in p) for row in system.P for p in row])
        for z in zs:
            for d in range(3):
                assert np.array_equal(fs.eval(z, d),
                                      _eval_float_oracle(system, z, d))


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
    _, op = tensor_mode_system(n, k, t, j)
    return op, divergence_mode_system(n, t, j)


def _direct_systems(n, k, t, j):
    """Oracle: probe gauged_lin and div_t themselves at t."""
    basis = pt.tensor_mode_basis(n, j)
    forms = pt.oneform_mode_basis(n, j)
    return (probe_euler(lambda f: pt.gauged_lin(f, k, t), basis, 2 * (k + 1)),
            probe_euler(lambda f: pt.div_t(f, t), basis, 1, target=forms))


def _assert_same_system(got, want):
    assert got.P == want.P
    assert (got.weight, got.order) == (want.weight, want.order)
    assert got.basis.labels == want.basis.labels
    assert got.target.labels == want.target.labels


@pytest.mark.parametrize("n,k,j", [(4, 1, 1), (4, 1, 2), (3, 1, 1), (3, 2, 1)])
@pytest.mark.parametrize("t_values", [
    [0, Fraction(1, 20), Fraction(-1, 10), 1],
    [Fraction(1, 20), Fraction(-1, 20), Fraction(1, 3)],
], ids=["with-0", "without-0"])
def test_interpolated_systems_equal_direct_probes(n, k, j, t_values):
    # the composed A + t B and div - t i_r equal direct probes at every t
    for t in t_values:
        for got, want in zip(_both_systems(n, k, t, j),
                             _direct_systems(n, k, t, j), strict=True):
            _assert_same_system(got, want)


@settings(max_examples=5, deadline=None)
@given(j=st.integers(0, 1),
       t=st.fractions(min_value=-1, max_value=1, max_denominator=12))
def test_interpolation_is_exact_at_small_rational_t(j, t):
    for got, want in zip(_both_systems(4, 1, t, j),
                         _direct_systems(4, 1, t, j), strict=True):
        _assert_same_system(got, want)


def test_float_t_is_rejected():
    # composition would carry a float t into P silently
    for call in (lambda: tensor_mode_system(4, 1, 0.1, 1),
                 lambda: divergence_mode_system(4, 0.1, 1),
                 lambda: degenerate_scan(4, 1, [0, 0.1], 1)):
        with pytest.raises(ProbeError, match="int or Fraction"):
            call()


@pytest.mark.parametrize("n,j", [(4, 0), (4, 2), (5, 3)])
def test_compose_shifts_by_inner_weight(n, j):
    # P_{A o B}(z) = P_A(z - w_B) P_B(z) is a direct probe of Delta o Delta
    basis = pt.basis_from_elements(n, [pt.sphere_harmonic(n, j)], ["phi"])
    lap = probe_euler(pt.laplacian, basis, 2)
    _assert_same_system(lap.compose(lap),
                        probe_euler(lambda f: pt.laplacian(f, 2), basis, 4))
    other = pt.basis_from_elements(n, [pt.sphere_harmonic(n, j)], ["phi"])
    with pytest.raises(ProbeError, match="compose needs"):
        lap.compose(probe_euler(pt.laplacian, other, 2))


def test_mode_multiplicities():
    # below scale 1 the suite probes only (4, 1); criterion 8 runs all pairs
    rec = check_multiplicity(seed=42, scale=0.02)
    assert rec["passed"]
    assert rec["details"]["multiplicities"] == {"4,1": 16}


def test_t0_roots_are_integers():
    for j in (0, 1, 2, 3):
        _, op = tensor_mode_system(4, 1, 0, j)
        spec = indicial_spectrum(op)
        for r in spec.roots:
            assert abs(r.value.imag) < 1e-9
            assert abs(r.value.real - round(r.value.real)) < 1e-8


def test_solution_split_examples():
    # roots {2, -2} with unit coefficients: pure sign split
    op = synthetic_operator([(2, 1), (-2, 1)])
    spec = indicial_spectrum(op)
    sol = ModeSolution.from_chain_weights(
        spec, {a: np.ones(root.multiplicity)
               for a, root in enumerate(spec.roots)})
    parts = solution_split(sol)
    assert not parts["h_plus"].is_trivial()
    assert not parts["h_minus"].is_trivial()
    assert parts["h_zero"].is_trivial()
    assert not parts["degenerate"]
    assert parts["beta"] == 2

    # a purely imaginary root is degenerate: z^2 + 1 has roots -i and i
    op = synthetic_operator([(0, 1)])
    op.P = [[[Fraction(1), Fraction(0), Fraction(1)]]]
    op.order = 2
    spec = indicial_spectrum(op)
    assert [r.classification for r in spec.roots] == ["zero", "zero"]
    assert np.allclose(sorted(r.value.imag for r in spec.roots), [-1, 1])
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


@pytest.mark.parametrize("make_op", [
    lambda: tensor_mode_system(4, 1, 0, 0)[1],
    lambda: tensor_mode_system(4, 1, 0, 2)[1],
    lambda: synthetic_operator([(0, 2), (1, 1), (-2, 3)]),
], ids=["tensor j=0", "tensor j=2", "synthetic"])
def test_profile_values_match_family_profiles(make_op):
    # every cell has a double root at 0 and a multiple nonzero root, so
    # log powers multiply both constant and exponential terms
    spec = indicial_spectrum(make_op())
    assert any(r.classification == "zero" and r.multiplicity > 1
               for r in spec.roots)
    m_ang = spec.operator.m_ang
    rng = np.random.default_rng(3)
    radii = rng.uniform(0.2, 5.0, 40)
    for sol in (ModeSolution.random(spec, rng),
                ModeSolution.random(spec, rng).restricted({"zero"})):
        got = sol.profile_values(radii)
        assert got.shape == (len(radii), m_ang)
        want = np.array([[sol.family_profile(c)(math.log(r))
                          for c in range(m_ang)] for r in radii])
        assert np.all(np.abs(got - want)
                      <= 1e-12 * np.maximum(1.0, np.abs(want)))
        one = sol.profile_values(float(radii[0]))
        assert one.shape == (m_ang,)
        assert np.array_equal(one, got[0])
    with pytest.raises(ParameterError):
        sol.profile_values([1.0, 0.0])


def test_turan_l_bound_overflow_is_no_bound():
    _, op = tensor_mode_system(4, 1, Fraction(0), 3)
    spec = indicial_spectrum(op)
    assert math.isfinite(turan_l_bound(spec, 0.45 * spec.beta))
    # A(M + d)^(1 / (beta - 2 beta')) leaves the float range
    assert turan_l_bound(spec, 0.49 * spec.beta) is None
    assert turan_l_bound(spec, 0.5 * spec.beta) is None


def test_angular_bases_built_once_per_degree():
    assert pt.tensor_mode_basis(5, 2) is pt.tensor_mode_basis(5, 2)
    assert pt.oneform_mode_basis(5, 2) is pt.oneform_mode_basis(5, 2)
    assert pt.tensor_mode_basis(5, 2) is not pt.tensor_mode_basis(5, 3)
    # every system of one (n, j) shares its families
    basis, _ = tensor_mode_system(4, 1, Fraction(1, 10), 1)
    assert basis is tensor_mode_system(4, 2, 0, 1)[0]


@pytest.mark.parametrize("t", [Fraction(1, 10), Fraction(-1, 20)])
@pytest.mark.parametrize("family", ["typeI", "typeII"])
@pytest.mark.parametrize("n,j", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_gauge_pieces_equal_direct_probe(n, j, family, t):
    # A - t B from the probed gauge_op and radial_contraction o lie_flat
    # equals the probe of gauge_op_t itself
    basis, op = gauge_mode_system(n, family, t, j)
    direct = probe_euler(lambda f: pt.gauge_op_t(f, t), basis, 2)
    assert op.P == direct.P and op.weight == direct.weight


def _count_probes(monkeypatch):
    calls = []
    real = mode_ode.probe_euler

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(mode_ode, "probe_euler", counted)
    return calls


def _clear_mode_memos():
    # the composed A and B hold probes, so they are cleared with the memo
    for memo in (mode_ode._probe, mode_ode._gauged_A, mode_ode._gauged_B):
        memo.cache_clear()


def test_display_suite_probes_each_family_once(monkeypatch):
    _clear_mode_memos()
    calls = _count_probes(monkeypatch)
    assert check_probed_displays()["passed"]
    # 3 n x (2 co-closed + 4 one-form families) x 2 pieces, not one probe
    # per (family, t)
    assert len(calls) == 36
    assert check_rates_vs_probes()["passed"]
    assert len(calls) == 36  # its families are a subset of the displays'


def test_second_degenerate_scan_probes_nothing(monkeypatch):
    first = degenerate_scan(4, 1, [0, Fraction(1, 20)], 2)
    calls = _count_probes(monkeypatch)
    assert degenerate_scan(4, 1, [0, Fraction(1, 20)], 2) == first
    assert calls == []


def test_t_system_leaves_memoized_system_unchanged():
    A = mode_ode._gauged_A(4, 1, 2)
    before = [[list(p) for p in row] for row in A.P]
    _, op = tensor_mode_system(4, 1, Fraction(1, 10), 2)
    assert op.P != before and A.P == before
    # t = 0 hands out the shared memoized system itself
    assert tensor_mode_system(4, 1, 0, 2)[1] is A


def test_second_scalar_system_probes_nothing(monkeypatch):
    # the scalar Laplacian is probed once per (n, s), for every k
    scalar_mode_system(5, 1, 2)
    calls = _count_probes(monkeypatch)
    _, op = scalar_mode_system(5, 3, 2)
    assert calls == [] and op.order == 8
    assert scalar_mode_system(5, 1, 2)[0] is scalar_mode_system(5, 0, 2)[0]


def test_tensor_system_shares_probes_across_k(monkeypatch):
    tensor_mode_system(4, 1, 0, 3)
    calls = _count_probes(monkeypatch)
    tensor_mode_system(4, 2, 0, 3)
    assert calls == []


def test_divergence_system_reuses_the_tensor_probes(monkeypatch):
    # i_r is probed for B at t != 0; divergence_mode_system adds only div
    _clear_mode_memos()
    basis, _ = tensor_mode_system(5, 1, Fraction(1, 10), 1)
    calls = _count_probes(monkeypatch)
    divergence_mode_system(5, Fraction(1, 10), 1)
    assert calls == [basis]
    divergence_mode_system(5, Fraction(-1, 20), 1)
    assert calls == [basis]


def test_divergence_system_after_a_scan_probes_nothing(monkeypatch):
    # the t = 0 constants at j = 0 make the scan build div - t i_r
    out = degenerate_scan(5, 2, [0, Fraction(1, 20)], 0)
    assert out["witnesses_t0"]
    calls = _count_probes(monkeypatch)
    divergence_mode_system(5, Fraction(1, 20), 0)
    assert calls == []


def test_second_divfree_suite_probes_nothing(monkeypatch):
    assert check_divfree_spectrum()["passed"]
    calls = _count_probes(monkeypatch)
    assert check_divfree_spectrum()["passed"]
    assert calls == []


def test_divergence_system_rejects_a_foreign_basis():
    with pytest.raises(ParameterError, match="tensor_mode_basis"):
        divergence_mode_system(4, 0, 1, pt.tensor_mode_basis(4, 2))
    other = pt.basis_from_elements(4, pt.tensor_mode_basis(4, 1).elements)
    with pytest.raises(ParameterError, match="tensor_mode_basis"):
        divergence_mode_system(4, 0, 1, other)


@pytest.mark.parametrize("make_op", [
    lambda: tensor_mode_system(3, 3, 0, 4)[1],
    lambda: tensor_mode_system(6, 3, 0, 1)[1],
    lambda: tensor_mode_system(4, 2, Fraction(1, 7), 3)[1],
    lambda: tensor_mode_system(5, 1, Fraction(-1, 20), 2)[1],
    lambda: scalar_mode_system(4, 1, 1)[1],
], ids=["3-3-4-0", "6-3-1-0", "4-2-3-1/7", "5-1-2--1/20", "scalar-4-1-1"])
def test_chain_columns_sum_to_det_degree(make_op):
    # a root of multiplicity m has exactly m chain vectors, so the chain
    # columns add up to deg det P = m_ang * order
    op = make_op()
    spec = indicial_spectrum(op)
    for root, basis in zip(spec.roots, spec.chain_bases):
        assert basis.shape == (root.multiplicity * op.m_ang,
                               root.multiplicity)
    assert sum(b.shape[1] for b in spec.chain_bases) == op.m_ang * op.order


@pytest.mark.parametrize("t", [Fraction(1, 7), Fraction(-1, 20),
                               Fraction(1, 20), Fraction(-1, 10)])
def test_chain_space_at_a_quintuple_root_has_five_vectors(t):
    # (4, 3, 2): the root z = 2 has multiplicity 5, and a sixth singular
    # value of its chain matrix sits below 1e-9 times the coefficient scale
    # there, so a cutoff-sized chain space had 33 columns, not 32
    _, op = tensor_mode_system(4, 3, t, 2)
    spec = indicial_spectrum(op)
    assert sum(b.shape[1] for b in spec.chain_bases) == 32
    assert op.m_ang * op.order == 32
    for root, basis in zip(spec.roots, spec.chain_bases):
        M = mode_ode._chain_matrix(spec.system, root.value, root.multiplicity)
        s0 = np.linalg.norm(M, 2)
        assert np.linalg.norm(M @ basis, axis=0).max() <= 1e-12 * s0


def test_chain_check_names_a_moved_root():
    spec = indicial_spectrum(synthetic_operator([(2, 1), (-3, 2)]))
    spec.roots[1] = mode_ode.RootData(spec.roots[1].value + 1e-3, 1)
    with pytest.raises(mode_ode.NumericError,
                       match=r"root 2\.001\+0j of multiplicity 1"):
        spec.chain_bases


def test_chain_bases_are_built_only_when_read(monkeypatch):
    calls = []
    real = mode_ode._chain_matrix

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mode_ode, "_chain_matrix", counted)
    _, op = tensor_mode_system(4, 3, Fraction(1, 7), 2)
    indicial_spectrum(op).summary()
    rep = degenerate_scan(5, 1, [Fraction(1, 20), Fraction(-1, 10)], 2)
    assert not any(abs(r["re"]) < 1e-8 for s in rep["spectra"].values()
                   for r in s["roots"])
    assert calls == []


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


def test_gram_overflow_raises_range_error():
    spec = indicial_spectrum(synthetic_operator([(2, 1), (-2, 1)]))
    gram = RadialGram(spec)
    assert gram.gram([0.0, 1.0], [1.0, 2.0]).shape == (2, 2, 2)
    with pytest.raises(RangeError, match=r"e\^\(\(4\+0j\) t\) over "
                       r"\[0\.0, 400\.0\]"):
        gram.gram(0.0, 400.0)


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
    assert check_three_annulus(seed=5, scale=0.5)["passed"]  # 100 draws


def _oracle_annulus(spec, beta_prime, L, sols, slack=1e-9):
    """three_annulus_verify's checks one draw at a time: failure counts
    with the Turan cross-check, and the norms of the nontrivial draws."""
    gram = RadialGram(spec)
    R = math.log(L)
    grams = [gram.gram(i * R, (i + 1) * R) for i in range(3)]

    def norms(sol, count):
        return [math.sqrt(gram.norm_sq(sol, i * R, (i + 1) * R, grams[i]))
                for i in range(count)]

    Lb = L ** beta_prime
    fails = {"growth_implication": 0, "decay_implication": 0,
             "dichotomy": 0, "both_implications": 0,
             "pure_growth": 0, "pure_decay": 0,
             "turan_cross_check": 0}
    seen = []
    for sol in sols:
        if sol.is_trivial():
            continue
        n1, n2, n3 = norms(sol, 3)
        gfail = n2 >= Lb * n1 and not n3 >= Lb * n2 * (1 - slack)
        dfail = n3 <= n2 / Lb and not n2 <= n1 / Lb * (1 + slack)
        fails["growth_implication"] += gfail
        fails["decay_implication"] += dfail
        fails["both_implications"] += gfail and dfail
        fails["dichotomy"] += not (n3 >= Lb * n2 * (1 - slack)
                                   or n2 <= n1 / Lb * (1 + slack))
        hp = sol.restricted({"plus"})
        hm = sol.restricted({"minus"})
        p1, p2 = norms(hp, 2)
        m1, m2 = norms(hm, 2)
        if not hp.is_trivial():
            fails["pure_growth"] += not p2 >= Lb * p1 * (1 - slack)
        if not hm.is_trivial():
            fails["pure_decay"] += not m2 <= m1 / Lb * (1 + slack)
        for part_sol, mode in ((hp, "growth"), (hm, "decay")):
            for c in range(spec.operator.m_ang):
                p = part_sol.family_profile(c)
                if p.terms and not three_interval(p, R, 1, mode)["holds"]:
                    fails["turan_cross_check"] += 1
        seen.append([n1, n2, n3, p1, p2, m1, m2])
    return fails, np.array(seen)


def _batched_norms(spec, L, coeffs):
    """Annulus norms of the whole draws and of their pure parts from the
    batched quadratic forms, in _oracle_annulus's column order."""
    gram = RadialGram(spec)
    R = math.log(L)
    classes = np.array([spec.roots[a].classification for a, _ in gram.index])
    cols = []
    for mask, count in ((None, 3), ("plus", 2), ("minus", 2)):
        z = coeffs if mask is None else coeffs * (classes == mask)[:, None]
        for i in range(count):
            g = gram.gram(i * R, (i + 1) * R)
            cols.append(np.sqrt(np.maximum(
                gram.family_forms(z, g).sum(axis=-1), 0.0)))
    return np.stack(cols, axis=1)


@functools.cache
def _oracle_cells():
    """The criterion-6 spectra and the tensor mode (5, 1, t = 0, j = 1),
    which has three families and a root of multiplicity 3."""
    cells = dict(_annulus_spectra())
    _, op = tensor_mode_system(5, 1, Fraction(0), 1)
    cells["tensor n=5 j=1"] = indicial_spectrum(op)
    return cells


@pytest.mark.parametrize("label", ["tensor j=1", "tensor j=3", "scalar s=1",
                                   "tensor n=5 j=1"])
def test_batched_annulus_matches_per_draw_oracle(label):
    spec = _oracle_cells()[label]
    trials, seed = 30, 42
    beta_prime = 0.45 * spec.beta
    rng = np.random.default_rng(seed)
    sols = [ModeSolution.random(spec, rng, include=("plus", "minus"))
            for _ in range(trials)]
    coeffs = draw_kernel_coefficients(spec, trials,
                                      np.random.default_rng(seed))
    live = [not s.is_trivial() for s in sols]
    scans = {flag: empirical_l0(spec, beta_prime, trials=trials, seed=seed,
                                turan_check=flag)["scan"]
             for flag in (False, True)}
    failing = 0
    for i, L in enumerate(L0_CANDIDATES + (1.01,)):
        want, want_norms = _oracle_annulus(spec, beta_prime, L, sols)
        got_norms = _batched_norms(spec, L, coeffs[live])
        assert np.allclose(got_norms, want_norms, rtol=1e-12, atol=0)
        for flag in (False, True):
            expect = dict(want, turan_cross_check=want["turan_cross_check"]
                          if flag else 0)
            rec = three_annulus_verify(spec, beta_prime, L, trials=trials,
                                       seed=seed, turan_check=flag)
            assert rec["failures"] == expect, (label, L, flag)
            if i < len(scans[flag]):
                assert scans[flag][i] == rec
        failing += any(want.values())
    assert failing  # L = 1.01 fails on every cell: nonzero counts compared


@pytest.mark.parametrize("label", ["scalar s=1", "tensor n=5 j=1"])
def test_batched_turan_check_matches_oracle_when_it_fails(label,
                                                          monkeypatch):
    # The real three-interval constants hold on every draw above; A(M + d)
    # = (M + d) / 4 makes the check fail and ties the count to the index.
    monkeypatch.setattr(turan_constants, "three_interval_constant",
                        lambda index: index / 4)
    spec = _oracle_cells()[label]
    trials, seed = 30, 42
    beta_prime = 0.45 * spec.beta
    rng = np.random.default_rng(seed)
    sols = [ModeSolution.random(spec, rng, include=("plus", "minus"))
            for _ in range(trials)]
    failing = 0
    for L in (1.01, 1.5, 4.0):
        want, _ = _oracle_annulus(spec, beta_prime, L, sols)
        rec = three_annulus_verify(spec, beta_prime, L, trials=trials,
                                   seed=seed, turan_check=True)
        assert rec["failures"] == want, L
        failing += want["turan_cross_check"]
    assert failing


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_kernel_draw_matches_mode_solution_random(seed):
    _, op = tensor_mode_system(5, 1, Fraction(0), 1)
    spec = indicial_spectrum(op)
    gram = RadialGram(spec)
    trials = 25
    rng = np.random.default_rng(seed)
    sols = [ModeSolution.random(spec, rng, include=("plus", "minus"))
            for _ in range(trials)]
    after = rng.standard_normal()
    rng = np.random.default_rng(seed)
    coeffs = draw_kernel_coefficients(spec, trials, rng)
    assert rng.standard_normal() == after  # same share of the stream
    for sol, tab in zip(sols, coeffs):
        want = np.stack([gram.coefficient_vector(sol, c)
                         for c in range(spec.operator.m_ang)], axis=1)
        assert np.array_equal(tab, want)


@pytest.mark.parametrize("roots,beta_prime,trials,msg", [
    ([(0, 1), (2, 1), (-2, 1)], 0.9, 10, "zero-real-part"),
    ([(2, 1), (-2, 1)], 1.0, 10, "beta_prime < beta/2"),
    ([(2, 1), (-2, 1)], 0.9, 0, "trials >= 1"),
])
def test_empirical_l0_validates_like_three_annulus_verify(roots, beta_prime,
                                                          trials, msg):
    spec = indicial_spectrum(synthetic_operator(roots))
    for check in (lambda: three_annulus_verify(spec, beta_prime, 4.0,
                                               trials=trials),
                  lambda: empirical_l0(spec, beta_prime, trials=trials)):
        with pytest.raises(ParameterError, match=msg):
            check()


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
    # the root 3 has multiplicity 3, so a chain column mixes log powers;
    # P(3) vanishes up to roundoff, so any vector is a pure power
    system = FloatSystem(op)
    _, s, vh = np.linalg.svd(system.eval(root.value))
    assert s[0] < 1e-12 * system.scale
    vec = vh[0].conj()
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


def test_near_coincident_roots_of_distinct_factors_stay_apart():
    # z^2 (z - 1e-8): Yun's factors z (multiplicity 2) and z - 1e-8 are
    # coprime, so their roots stay two roots and only the flag is raised
    op = synthetic_operator([(0, 2), (Fraction(1, 10 ** 8), 1)])
    spec = indicial_spectrum(op)
    assert [(r.value, r.multiplicity) for r in spec.roots] == [(0, 2),
                                                               (1e-8, 1)]
    assert spec.low_confidence


def test_low_confidence_reaches_degenerate_scan(monkeypatch):
    real = mode_ode.indicial_spectrum

    def flagged(op):
        spec = real(op)
        spec.low_confidence = True
        return spec

    monkeypatch.setattr(mode_ode, "indicial_spectrum", flagged)
    rep = degenerate_scan(4, 1, [Fraction(1, 20)], 0, jobs=1)
    assert [s["low_confidence"] for s in rep["spectra"].values()] == [True]


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


def test_degenerate_scan_positive_control():
    # at n = 2k the scan must find the divergence-compatible zero roots
    # (4, 2) is known to carry: j = 0 with multiplicity 2 and j = 2 with
    # multiplicity 3, one dimension each
    tvals = [0, Fraction(1, 20)]
    rep = degenerate_scan(4, 2, tvals, 2, jobs=2)
    assert [(f["t"], f["j"], f["root"]["mult"], f["dimension"])
            for f in rep["findings"]] == [(0.05, 0, 2, 1), (0.05, 2, 3, 1)]
    assert all(abs(f["root"]["re"]) < 1e-8 and abs(f["root"]["im"]) < 1e-8
               for f in rep["findings"])
    assert rep == degenerate_scan(4, 2, tvals, 2, jobs=1)


def _worker_pid(_):
    return os.getpid()


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three")
    return x


def _fail_on_one_and_two(x):
    if x == 1:
        raise ParameterError("one")
    if x == 2:
        raise NumericError("two")
    return x


def _live_children():
    return {p.pid for p in multiprocessing.active_children()}


def _run_fresh(code, *args):
    """Runs ``code`` in a fresh interpreter that imports this conespec and
    fails on a ResourceWarning; returns its stdout as JSON."""
    src = os.path.dirname(os.path.dirname(mode_ode.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-W", "error::ResourceWarning",
                           "-c", textwrap.dedent(code), *map(str, args)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    return json.loads(proc.stdout)


def test_parallel_map_keeps_input_order():
    items = list(range(-10, 10))
    assert parallel_map(abs, items, 2) == [abs(x) for x in items]


def test_parallel_map_reuses_its_workers():
    first = set(parallel_map(_worker_pid, range(4), 2))
    second = set(parallel_map(_worker_pid, range(4), 2))
    assert os.getpid() not in first | second
    assert len(first | second) <= 2 and first & second
    assert first | second <= _live_children()


def test_parallel_map_deals_items_round_robin():
    for _ in range(2):
        a, b, *rest = parallel_map(_worker_pid, range(4), 2)
        assert rest == [a, b]
        assert len({a, b, os.getpid()}) == 3


def test_parallel_map_propagates_errors_and_stays_usable():
    with pytest.raises(ValueError, match="three"):
        parallel_map(_fail_on_three, range(6), 2)
    assert parallel_map(_fail_on_three, [0, 1, 2], 2) == [0, 1, 2]


@pytest.mark.parametrize("items, error", [
    (range(6), ParameterError),  # item 1 on worker 1 fails before item 2
    ([0, 0, 2, 1], NumericError),  # item 2 on worker 0 fails before item 1
])
def test_parallel_map_raises_the_lowest_failing_index(items, error):
    pids = parallel_map(_worker_pid, range(2), 2)
    with pytest.raises(Exception) as info:
        parallel_map(_fail_on_one_and_two, items, 2)
    assert info.type is error
    with pytest.raises(error):
        [_fail_on_one_and_two(x) for x in items]
    assert parallel_map(_worker_pid, range(2), 2) == pids
    assert parallel_map(_fail_on_one_and_two, [0, 3], 2) == [0, 3]


def test_parallel_map_dead_worker_raises_and_next_call_recovers():
    out = _run_fresh("""
        import json, os
        from conespec.mode_ode import parallel_map

        def pid(_):
            return os.getpid()

        def die(x):
            if x == 1:
                os._exit(3)
            return x

        before = parallel_map(pid, range(2), 2)
        try:
            parallel_map(die, [0, 1, 2, 3], 2)
            error = None
        except RuntimeError as exc:
            error = str(exc)
        after = parallel_map(pid, range(2), 2)
        print(json.dumps({"before": before, "error": error, "after": after,
                          "abs": parallel_map(abs, [-1, -2, -3], 2)}))
    """)
    assert out["error"] == (f"parallel_map worker {out['before'][1]} died, "
                            f"exit code 3")
    assert not set(out["before"]) & set(out["after"])
    assert out["abs"] == [1, 2, 3]


def test_parallel_map_keeps_each_degree_on_one_warm_worker():
    # the workers' probe misses after two --jobs 2 scans add up to those of
    # one serial scan: no degree is probed twice, on one worker or on two
    code = """
        import json, sys
        from fractions import Fraction
        from conespec import mode_ode

        def misses(_):
            return mode_ode._probe.cache_info().misses

        scans, jobs = map(int, sys.argv[1:])
        for _ in range(scans):
            mode_ode.degenerate_scan(4, 1, [0, Fraction(1, 20)], 1, jobs=jobs)
        print(json.dumps([misses(None)]
                         + mode_ode.parallel_map(misses, range(jobs), jobs)))
    """
    serial, _ = _run_fresh(code, 1, 1)
    parent, *workers = _run_fresh(code, 2, 2)
    assert parent == 0 and all(workers)
    assert sum(workers) == serial


def test_parallel_map_replaces_pool_when_jobs_change():
    old = set(parallel_map(_worker_pid, range(4), 2))
    new = set(parallel_map(_worker_pid, range(6), 3))
    assert not old & new
    assert not old & _live_children()
    parallel_map(_worker_pid, range(4), 2)  # leave the usual workers behind


@pytest.mark.parametrize("jobs", [None, 0, 1, -2])
def test_parallel_map_serial_never_starts_a_pool(monkeypatch, jobs):
    def no_workers(jobs):
        raise AssertionError("workers were started")

    monkeypatch.setattr(mode_ode, "_workers", no_workers)
    assert parallel_map(_worker_pid, range(3), jobs) == [os.getpid()] * 3


def test_degenerate_scan_matches_per_t_direct_probes():
    from conespec.mode_ode import _divergence_free_chain_space

    n, k, j_max = 4, 1, 1
    tvals = [Fraction(1, 20), 0, Fraction(1, 20), Fraction(-1, 10)]
    want = {"n": n, "k": k, "j_max": j_max,
            "t_values": [float(t) for t in tvals],
            "findings": [], "witnesses_t0": [], "spectra": {}}
    for t in tvals:  # every (t, j) cell probed directly, repeats included
        for j in range(j_max + 1):
            op, div_op = _direct_systems(n, k, t, j)
            spec = indicial_spectrum(op)
            systems = FloatSystem(op), FloatSystem(div_op)
            want["spectra"][f"t={float(t)},j={j}"] = spec.summary()
            for root in spec.roots:
                if root.classification != "zero":
                    continue
                inter = _divergence_free_chain_space(*systems, root)
                dim = inter.shape[1]
                if dim:
                    want["witnesses_t0" if t == 0 else "findings"].append(
                        {"t": float(t), "j": j,
                         "root": {"re": root.value.real, "im": root.value.imag,
                                  "mult": root.multiplicity},
                         "dimension": int(dim)})
    assert degenerate_scan(n, k, tvals, j_max) == want


def test_degenerate_scan_builds_one_float_system_per_system(monkeypatch):
    # one FloatSystem per distinct (t, j) spectrum, plus one divergence
    # system for each cell whose spectrum has a zero-real-part root
    built = []

    class Counted(FloatSystem):
        def __init__(self, op):
            built.append(op)
            super().__init__(op)

    monkeypatch.setattr(mode_ode, "FloatSystem", Counted)
    tvals = [0, Fraction(1, 20), Fraction(1, 20), Fraction(-1, 10)]
    out = degenerate_scan(4, 1, tvals, 1)
    with_zero = sum(any(abs(r["re"]) < 1e-8 for r in s["roots"])
                    for s in out["spectra"].values())
    assert 0 < with_zero < len(out["spectra"])
    assert len(built) == len(out["spectra"]) + with_zero


@pytest.mark.parametrize("t_values,j_max,msg", [
    ([], 1, "at least one t"),
    ([0], -1, "j_max >= 0"),
])
def test_degenerate_scan_parameter_guards(t_values, j_max, msg):
    with pytest.raises(ParameterError, match=msg):
        degenerate_scan(4, 1, t_values, j_max)


def test_degenerate_scan_needs_jobs_at_least_one():
    with pytest.raises(ParameterError, match="need jobs >= 1"):
        degenerate_scan(4, 1, [0], 1, jobs=0)


@pytest.mark.parametrize("k,j,msg", [(0, 1, "k >= 1"), (1, -1, "j >= 0")])
def test_tensor_mode_system_parameter_guards(k, j, msg):
    with pytest.raises(ParameterError, match=msg):
        tensor_mode_system(4, k, 0, j)


@pytest.mark.parametrize("call,msg", [
    (lambda: scalar_mode_system(4, -1, 1), "k >= 0"),
    (lambda: scalar_mode_system(4, 1, -1), "j >= 0"),
    (lambda: gauge_mode_system(4, "typeII", Fraction(1, 10), -1), "j >= 0"),
    (lambda: gauge_mode_system(4, "typeI", Fraction(1, 10), 0), "j >= 1"),
    (lambda: gauge_mode_system(4, "typeIII", Fraction(1, 10), 1), "family"),
    (lambda: scalar_mode_system(1, 1, 1), "need n >= 3"),
    (lambda: gauge_mode_system(2, "typeI", Fraction(1, 10), 2), "need n >= 3"),
], ids=["scalar-k", "scalar-j", "typeII-j", "typeI-j", "family", "scalar-n1",
        "typeI-n2"])
def test_mode_system_parameter_guards(call, msg):
    with pytest.raises(ParameterError, match=msg):
        call()

def test_high_dimension_mode_system():
    basis, op = tensor_mode_system(8, 1, Fraction(1, 10), 2)
    spec = indicial_spectrum(op)
    assert len(basis) == 4
    assert spec.total_multiplicity == 16
    assert spec.beta is not None and spec.beta > 0
