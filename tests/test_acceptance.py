"""Acceptance criteria: one test per criterion, each printing a pass line
and enforcing its stated tolerance and runtime budget.  Criteria that
`conespec.verify` states as suites run those suites at scale 1.0, and
criterion 6 at scale 5.0 (1000 draws per spectrum)."""

import time
from fractions import Fraction

import numpy as np

from conespec import verify
from conespec.closed_form import gauge_exceptional_values, gauge_kernel_rates
from conespec.flat_kernel import QuadraticField, quadratic_flow_error
from conespec.mode_ode import degenerate_scan

SEED = 42


def _report(num, label, t0, budget):
    dt = time.time() - t0
    print(f"[PASS] criterion {num}: {label} ({dt:.2f}s, budget {budget}s)")
    assert dt < budget


def _suites_pass(*suites):
    for fn in suites:
        rec = fn(seed=SEED, scale=1.0)
        assert rec["passed"], rec


def test_criterion_1_closed_form_spectral_data():
    t0 = time.time()
    for n in range(3, 9):
        for j in range(1, 11):
            rp = gauge_kernel_rates(n, "typeI", j)
            alpha = Fraction(4 - n, 2)
            theta = Fraction(n - 2 + 2 * j, 2)
            assert rp.plus == alpha + theta and rp.minus == alpha - theta
            assert rp.plus == j + 1 and rp.minus == 3 - n - j
        for j in range(0, 11):
            rp = gauge_kernel_rates(n, "typeII", j)
            beta = Fraction(2 - n, 2)
            omega = Fraction(n - 2 + 2 * j, 2)
            assert rp.plus == beta + omega and rp.minus == beta - omega
            assert rp.plus == j and rp.minus == 2 - n - j
        E = gauge_exceptional_values(n, 10)
        assert all(isinstance(v, int) for v in E.values)
        assert 1 in E
    _report(1, "closed-form rates and exceptional sets, exact", t0, 1.0)


def test_criterion_2_probing_fidelity():
    t0 = time.time()
    _suites_pass(verify.check_probed_displays, verify.check_rotation_rate)
    _report(2, "probed mode systems equal the displayed ODEs exactly",
            t0, 10.0)


def test_criterion_3_divergence_free_rigidity():
    t0 = time.time()
    _suites_pass(verify.check_divfree)
    _report(3, "divergence-free homogeneous profiles vanish (exact)", t0, 10.0)


def test_criterion_4_symbol_checks():
    t0 = time.time()
    _suites_pass(verify.check_symbols)
    _report(4, "symbol gauge invariance and transverse-traceless reduction",
            t0, 60.0)


def test_criterion_5_turan_suite():
    t0 = time.time()
    _suites_pass(verify.check_discrete_sweep, verify.check_integral_sweep,
                 verify.check_three_interval_sweep)
    _report(5, "power-sum inequality sweeps, zero violations", t0, 60.0)


def test_criterion_6_three_annulus():
    t0 = time.time()
    rec = verify.check_three_annulus(seed=SEED, scale=5.0)  # 1000 draws
    assert rec["passed"], rec
    _report(6, "annulus implications, dichotomy and pure-part bounds at "
               "the empirical threshold", t0, 120.0)


def test_criterion_7_degenerate_scan():
    t0 = time.time()
    tvals = [Fraction(1, 20), Fraction(-1, 20), Fraction(1, 10),
             Fraction(-1, 10)]
    rep = degenerate_scan(4, 1, tvals, 6)
    assert rep["findings"] == []
    rep0 = degenerate_scan(4, 1, [0], 2)
    assert any(w["j"] == 0 for w in rep0["witnesses_t0"])
    _report(7, "no divergence-compatible degenerate modes at small t; "
               "constant witness at t=0", t0, 300.0)


def test_criterion_8_companion_size():
    t0 = time.time()
    _suites_pass(verify.check_multiplicity)
    _report(8, "four-family mode systems carry total multiplicity 8(k+1)",
            t0, 120.0)


def test_criterion_9_bootstrap():
    t0 = time.time()
    _suites_pass(verify.check_bootstrap_terminal)
    _report(9, "decay bootstrap terminates at the optimal orders", t0, 5.0)


def test_criterion_10_quadratic_field_facts():
    t0 = time.time()
    _suites_pass(verify.check_lie_iso, verify.check_flow_error)
    # the float oracle of the exact flow suite: the DOP853 pullback defect
    # falls off like r^2
    rng = np.random.default_rng(7)
    radii = [10 ** e for e in (-1.0, -1.5, -2.0, -2.5, -3.0)]
    for _ in range(5):
        rec = quadratic_flow_error(QuadraticField.random(4, rng), radii,
                                   rng=rng)
        assert rec["slope"] is not None and 1.9 <= rec["slope"] <= 2.1, rec
    _report(10, "quadratic Lie isomorphism and flow-error slope 2.0±0.1",
            t0, 60.0)
