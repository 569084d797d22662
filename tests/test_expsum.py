import math

import numpy as np
import pytest
from scipy import integrate

from conespec import turan_constants
from conespec.expsum import (ExpSum, ExpTerm, PreconditionError,
                             RangeError, _abs_sq_grid, draw_budget_expsum,
                             draw_expsum, estimate_turan_constant,
                             eval_expsum, l2_integral, sup_norm_sq,
                             three_interval, three_interval_bound,
                             turan_discrete, turan_integral)

E = math.e


def test_eval_constant_and_circle():
    p = ExpSum([ExpTerm(1, 0)])
    assert eval_expsum(p, 5.0) == 1
    p = ExpSum([ExpTerm(1, 1j)])
    assert abs(eval_expsum(p, math.pi) - (-1)) < 1e-14


def test_eval_power_term():
    # t e^t at t = 1 equals e (direct scalar arithmetic)
    p = ExpSum([ExpTerm(1, 1, power=1)])
    assert abs(eval_expsum(p, 1.0) - E) < 1e-14


def test_eval_overflow_reported():
    p = ExpSum([ExpTerm(1, 500)])
    with pytest.raises(RangeError):
        eval_expsum(p, 5000.0)


def test_normalization_idempotent_and_merging():
    p = ExpSum([ExpTerm(1, 2.0, 1), ExpTerm(2, 2.0, 1), ExpTerm(-3, 2.0, 1)])
    assert p.terms == []  # coefficients cancel
    q = ExpSum([ExpTerm(1, 1.0), ExpTerm(2, 2.0)])
    assert q.normalized().normalized().terms == q.terms
    assert q.d == 2 and q.big_m == 0
    r = ExpSum([ExpTerm(1, 1.0, 2), ExpTerm(1, 1.0, 0), ExpTerm(1, 3.0, 1)])
    assert r.d == 2 and r.big_m == 3


def test_discrete_single_term_example():
    rec = turan_discrete([2], [3], 5)
    assert rec["lhs"] == 9
    assert rec["rhs"] == abs(3 * 2 ** 6) ** 2 == 36864
    assert rec["holds"]
    # holds even with constant 1 for a single exponential
    assert rec["lhs"] <= 1 * rec["rhs"]


def test_discrete_two_term_example():
    # d=2, z=(1,-1), c=(1,1), m=1: S_0 = 2, S_2 = 2, S_3 = 0
    rec = turan_discrete([1, -1], [1, 1], 1)
    assert rec["lhs"] == 4
    assert rec["rhs"] == 4
    assert rec["holds"]


def test_discrete_preconditions():
    with pytest.raises(PreconditionError):
        turan_discrete([0.5], [1], 1)
    with pytest.raises(PreconditionError):
        turan_discrete([], [], 1)
    with pytest.raises(PreconditionError):
        turan_discrete([2], [1], 0)


def test_integral_constant_case():
    p = ExpSum([ExpTerm(1, 0)])
    rec = turan_integral(p, 1.0, 2.0)
    assert abs(rec["lhs"] - 1) < 1e-12
    assert abs(rec["integral"] - 1) < 1e-10
    # bound = A(1) * (b+a)/(b-a)^2 * integral = 3 A(1) >= 1
    assert abs(rec["bound"] - 3 * rec["constant"]) < 1e-9
    assert rec["holds"]


def test_integral_sup_variant_exponential():
    # p = e^t on [0, R] with R = 1: closed-form integral oracle
    p = ExpSum([ExpTerm(1, 1)])
    rec = turan_integral(p, 1.0, 2.0)  # R = b/2 = 1
    sup_sq = rec["sup_form"]["lhs"]
    assert abs(sup_sq - E ** 2) < 1e-9
    tail = (math.exp(4) - math.exp(3)) / 2
    # minimal admissible constant for this instance
    min_const = sup_sq * 1.0 / tail
    assert abs(min_const - 2 / (E ** 2 - E)) < 1e-9
    assert rec["sup_form"]["constant"] >= min_const
    assert rec["sup_form"]["holds"]
    assert rec["l2_form"]["holds"]


def test_integral_preconditions():
    p = ExpSum([ExpTerm(1, -1)])
    with pytest.raises(PreconditionError):
        turan_integral(p, 1.0, 2.0)
    q = ExpSum([ExpTerm(1, 1, power=1)])
    with pytest.raises(PreconditionError):
        turan_integral(q, 1.0, 2.0)
    r = ExpSum([ExpTerm(1, 1)])
    with pytest.raises(PreconditionError):
        turan_integral(r, 2.0, 1.0)
    with pytest.raises(PreconditionError):
        turan_integral(r, 1.0, 1.0 + 1e-12)


def test_three_interval_growth_closed_form():
    p = ExpSum([ExpTerm(1, 1)])
    rec = three_interval(p, 1.0, 1, "growth")
    lhs_oracle = E * (E ** 2 - 1) / 2  # e^{lambda R} int_0^1 e^{2t}
    rhs_oracle = rec["constant"] * (E ** 4 - E ** 2) / 2
    assert abs(rec["lhs"] - lhs_oracle) < 1e-9
    assert abs(rec["rhs"] - rhs_oracle) < 1e-6
    assert rec["holds"]  # e^3 - e <= e^4 - e^2 even with constant 1


def test_three_interval_decay_closed_form():
    p = ExpSum([ExpTerm(1, -1)])
    rec = three_interval(p, 1.0, 1, "decay")
    lhs_oracle = (math.exp(-2) - math.exp(-4)) / 2
    assert abs(rec["lhs"] - lhs_oracle) < 1e-12
    assert rec["holds"]


def test_three_interval_power_term_quadrature_oracle():
    p = ExpSum([ExpTerm(1, 1, power=1)])  # t e^t, M = 1, d = 1
    rec = three_interval(p, 1.0, 2, "growth")
    lo, _ = integrate.quad(lambda t: (t * math.exp(t)) ** 2, 1, 2)
    hi, _ = integrate.quad(lambda t: (t * math.exp(t)) ** 2, 2, 3)
    assert abs(rec["lhs"] - math.exp(1) * lo) < 1e-6 * abs(rec["lhs"])
    assert abs(rec["rhs"] - rec["constant"] * hi) < 1e-6 * abs(rec["rhs"])
    assert rec["params"]["index"] == 2
    assert rec["holds"]


def test_three_interval_mixed_signs_rejected():
    p = ExpSum([ExpTerm(1, 1), ExpTerm(1, -1)])
    with pytest.raises(PreconditionError, match="split"):
        three_interval(p, 1.0, 1, "growth")


def test_closed_form_integral_matches_quadrature():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = draw_expsum(rng, int(rng.integers(1, 4)), powers=2)
        t0, t1 = sorted(rng.uniform(0.1, 3.0, 2))
        if t1 - t0 < 0.05:
            continue
        a = l2_integral(p, t0, t1)
        b, err = integrate.quad(lambda t: abs(eval_expsum(p, t)) ** 2,
                                t0, t1, epsrel=1e-10, epsabs=1e-14, limit=200)
        assert err <= 1e-6 * (abs(b) + 1e-14)
        assert abs(a - b) < 1e-8 * (1 + abs(b))


def test_estimate_constant_single_exponential_is_one():
    assert estimate_turan_constant(1, 500, seed=3) == 1.0


def test_estimate_constant_deterministic_and_positive():
    # The estimate is a max-statistic with a heavy-tailed base ratio, so its
    # cross-seed spread is large (tens of percent at 1e4 trials); what is
    # guaranteed is determinism per seed, positivity, and finiteness.
    a = estimate_turan_constant(2, 10000, seed=7)
    b = estimate_turan_constant(2, 10000, seed=7)
    c = estimate_turan_constant(2, 10000, seed=8)
    assert a == b
    assert 0 < a < np.inf and 0 < c < np.inf
    print(f"cross-seed spread at 1e4 trials: {abs(a - c) / max(a, c):.1%}")


def test_estimate_constant_d3_recorded():
    # larger-d estimates are recorded for the table, not asserted monotone
    a2 = estimate_turan_constant(2, 4000, seed=7)
    a3 = estimate_turan_constant(3, 4000, seed=7)
    print(f"observed discrete ratio estimates: d=2 {a2:.3f}, d=3 {a3:.3f}")
    assert a3 > 0


def test_shift_covariance():
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = draw_expsum(rng, 2, re_range=(0.1, 2.0), powers=1)
        big_r = float(rng.uniform(0.4, 1.5))
        a = three_interval(p, big_r, 2, "growth")
        b = three_interval(p.shift(big_r), big_r, 1, "growth")
        assert a["holds"] == b["holds"]
        assert abs(a["lhs"] - b["lhs"]) < 1e-7 * (1 + abs(a["lhs"]))
        assert abs(a["rhs"] - b["rhs"]) < 1e-7 * (1 + abs(a["rhs"]))


def test_shift_expands_powers_exactly():
    p = ExpSum([ExpTerm(2.0, 1.5, power=2)])
    q = p.shift(0.7)
    for t in (0.0, 0.3, 1.1):
        assert abs(eval_expsum(q, t) - eval_expsum(p, t + 0.7)) < 1e-12 * (
            1 + abs(eval_expsum(p, t + 0.7)))


def test_sup_norm_matches_endpoint_monotone():
    p = ExpSum([ExpTerm(1, 1)])
    assert abs(sup_norm_sq(p, 0.0, 1.0) - E ** 2) < 1e-9


def test_sup_norm_grid_matches_scalar_evaluation():
    rng = np.random.default_rng(4)
    ts = np.linspace(-1.0, 3.0, 101)
    for _ in range(20):
        p = draw_expsum(rng, int(rng.integers(1, 4)), re_range=(-2.0, 2.0),
                        powers=2)
        want = np.array([abs(eval_expsum(p, t)) ** 2 for t in ts])
        assert np.allclose(_abs_sq_grid(p, ts), want, rtol=1e-13, atol=0)


def test_sup_norm_grid_overflow_reported():
    p = ExpSum([ExpTerm(1, 500)])
    with pytest.raises(RangeError):
        sup_norm_sq(p, 0.0, 5000.0)


def test_mirrored_reflects_real_parts():
    p = ExpSum([ExpTerm(2 + 1j, 1.5 + 2j, power=1), ExpTerm(-1, 0.5)])
    q = p.mirrored()
    assert [(t.coeff, t.exponent, t.power) for t in q.terms] == \
        [(2 + 1j, -1.5 + 2j, 1), (-1, -0.5, 0)]
    assert q.mirrored() == p
    assert three_interval(q, 1.0, 1, "decay")["params"]["index"] == 3


def test_three_interval_bound_takes_integral_arrays():
    rng = np.random.default_rng(6)
    p = draw_budget_expsum(rng, 2, 1)
    recs = [three_interval(p, r, 1, "growth") for r in (0.5, 0.5)]
    lo = np.array([l2_integral(p, 0.0, 0.5)] * 2)
    hi = np.array([l2_integral(p, 0.5, 1.0), 1e-300])
    both = three_interval_bound(p.top_powers, lo, hi, 0.5, "growth")
    assert both["holds"].tolist() == [recs[0]["holds"], False]
    assert both["lhs"][0] == recs[0]["lhs"]
    assert both["index"] == recs[0]["params"]["index"] == 3


def test_constant_table_lookup_extrapolates():
    assert turan_constants.discrete_constant(1) == turan_constants.DISCRETE_A[1]
    assert turan_constants.three_interval_constant(50) >= \
        turan_constants.THREE_INTERVAL_A[12]
