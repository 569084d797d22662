import cmath
import math
import tracemalloc

import numpy as np
import pytest
import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from conespec import expsum as es
from conespec import turan_constants, verify
from conespec.closed_form import ParameterError
from conespec.expsum import (ExpSum, ExpTerm, RangeError, TermTable,
                             _abs_sq_grid, draw_expsum, eval_expsum,
                             l2_integral, poly_exp_integrals, sup_norms_sq,
                             three_interval, turan_discrete, turan_integral)

E = math.e


def _sup_norm_sq(p, t0, t1):
    """sup of |p|^2 on [t0, t1]: sup_norms_sq of the one sum p."""
    return float(sup_norms_sq(TermTable.of([p]), [t0], [t1])[0])


def _mirrored(p):
    """Reference decay-form reflection of p, sum c t^b e^{-conj(zeta) t}:
    every real part changes sign, coefficients and powers are kept."""
    return ExpSum([ExpTerm(t.coeff, -t.exponent.conjugate(), t.power)
                   for t in p.terms])


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
    assert ExpSum(ExpSum(q.terms).terms).terms == q.terms
    assert q.d == 2 and q.big_m == 0
    r = ExpSum([ExpTerm(1, 1.0, 2), ExpTerm(1, 1.0, 0), ExpTerm(1, 3.0, 1)])
    assert r.d == 2 and r.big_m == 3
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = draw_expsum(rng, int(rng.integers(1, 4)), powers=2)
        assert ExpSum(p.terms).terms == p.terms


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
    with pytest.raises(ParameterError):
        turan_discrete([0.5], [1], 1)
    with pytest.raises(ParameterError):
        turan_discrete([], [], 1)
    with pytest.raises(ParameterError):
        turan_discrete([2], [1], 0)


def test_integral_constant_case():
    p = ExpSum([ExpTerm(1, 0)])
    rec = turan_integral(p, 1.0, 2.0)
    assert abs(rec["lhs"] - 1) < 1e-12
    assert abs(rec["integral"] - 1) < 1e-10
    # bound = K_1(0; 1, 2) * integral, and K_1(0; 1, 2) = 1/(b - a) = 1
    assert rec["constant"] == 1.0
    assert abs(rec["bound"] - rec["integral"]) < 1e-15
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
    with pytest.raises(ParameterError):
        turan_integral(p, 1.0, 2.0)
    q = ExpSum([ExpTerm(1, 1, power=1)])
    with pytest.raises(ParameterError):
        turan_integral(q, 1.0, 2.0)
    r = ExpSum([ExpTerm(1, 1)])
    with pytest.raises(ParameterError):
        turan_integral(r, 2.0, 1.0)
    with pytest.raises(ParameterError):
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
    with pytest.raises(ParameterError, match="split"):
        three_interval(p, 1.0, 1, "growth")


def test_three_interval_empty_sum_rejected():
    # the batch's checks: the mode is checked before the sum
    with pytest.raises(ParameterError, match="empty sum"):
        three_interval(ExpSum([]), 1.0, 1, "growth")
    with pytest.raises(ParameterError, match="mode must be"):
        three_interval(ExpSum([]), 1.0, 1, "sideways")


def test_closed_form_integral_matches_quadrature():
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(20):
        p = draw_expsum(rng, int(rng.integers(1, 4)), powers=2)
        t0, t1 = sorted(rng.uniform(0.1, 3.0, 2))
        if t1 - t0 >= 0.05:
            cases.append((p, t0, t1))
    # a short interval at the origin (the series' stopping rule) and a
    # power whose closed form cancels just above |w| t = 0.25 (the switch)
    cases += [(ExpSum([ExpTerm(1, 0.5, 4)]), 0.0, 0.01),
              (ExpSum([ExpTerm(1, 0.15, 5)]), 0.0, 1.0)]
    for p, t0, t1 in cases:
        a = l2_integral(p, t0, t1)
        b, err = integrate.quad(lambda t: abs(eval_expsum(p, t)) ** 2,
                                t0, t1, epsrel=1e-12, epsabs=0, limit=200)
        assert err <= 1e-6 * b
        assert abs(a - b) <= 1e-9 * b


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
    assert abs(_sup_norm_sq(p, 0.0, 1.0) - E ** 2) < 1e-9


def test_sup_norm_grid_matches_scalar_evaluation():
    rng = np.random.default_rng(4)
    ts = np.linspace(-1.0, 3.0, 101)
    for _ in range(20):
        p = draw_expsum(rng, int(rng.integers(1, 4)), re_range=(-2.0, 2.0),
                        powers=2)
        want = np.array([abs(eval_expsum(p, t)) ** 2 for t in ts])
        terms = TermTable.of([p]).row_terms()[0]
        assert np.allclose(_abs_sq_grid(terms, ts), want, rtol=1e-13, atol=0)


def test_sup_norm_refines_past_the_sample_grid():
    # a dense scan of the bracket around the best sample: the refine must
    # land on its maximum, well inside the grid's own O(h^2) error
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = draw_expsum(rng, int(rng.integers(1, 4)), re_range=(-2.0, 2.0),
                        powers=2)
        r = float(rng.uniform(1.0, 4.0))
        ts = np.linspace(0.0, r, 2048)
        terms = TermTable.of([p]).row_terms()[0]
        i = int(np.argmax(_abs_sq_grid(terms, ts)))
        dense = _abs_sq_grid(terms, np.linspace(ts[max(i - 1, 0)],
                                                ts[min(i + 1, 2047)], 20001))
        best = dense.max()
        assert abs(_sup_norm_sq(p, 0.0, r) - best) <= 1e-11 * best


def test_sup_norm_refine_evaluates_each_point_once(monkeypatch):
    calls = []
    real = es._eval_terms

    def counted(terms, t):
        calls.append(t)
        return real(terms, t)

    monkeypatch.setattr(es, "_eval_terms", counted)
    _sup_norm_sq(ExpSum([ExpTerm(1, 1j), ExpTerm(0.5, -0.3)]), 0.0, 3.0)
    # two interior points, one per step of 80, the midpoint, the best sample
    assert len(calls) == 84


def test_sup_norm_grid_overflow_reported():
    p = ExpSum([ExpTerm(1, 500)])
    with pytest.raises(RangeError):
        _sup_norm_sq(p, 0.0, 5000.0)


def test_mirrored_reflects_real_parts():
    p = ExpSum([ExpTerm(2 + 1j, 1.5 + 2j, power=1), ExpTerm(-1, 0.5)])
    both = TermTable.of([p]).with_mirrors().sums()
    assert both[0] == p
    q = both[1]
    assert [(t.coeff, t.exponent, t.power) for t in q.terms] == \
        [(2 + 1j, -1.5 + 2j, 1), (-1, -0.5, 0)]
    assert TermTable.of([q]).with_mirrors().sums()[1] == p
    assert three_interval(q, 1.0, 1, "decay")["params"]["index"] == 3


# -- the closed-form constants ----------------------------------------------


def test_discrete_constant_is_exact():
    # T_3(1) = 1 + 2 * 2 + 3 * 4
    assert turan_constants.discrete_constant(3, 1) == 17 ** 2
    assert turan_constants.discrete_constant(1, 9) == 1
    big = turan_constants.discrete_constant(600, 10)
    assert isinstance(big, int) and big > 2 ** 1100


def test_discrete_constant_out_of_float_range_raises():
    # |z| = 1 keeps lhs and rhs finite at d = 600; T_d(m)^2 is not
    z = np.exp(2j * np.pi * np.arange(600) / 600)[None, :]
    with pytest.raises(RangeError, match="constant is not finite"):
        es.turan_discrete_batch(z, np.ones((1, 600)), [1])


def test_discrete_constant_is_checked_before_the_power_array():
    # T_d(m)^2 leaves the float range for every d >= 513; at d = 2000 the
    # (1, d, d) power array alone would take 64 MB
    d = 2000
    z = np.exp(2j * np.pi * np.arange(d) / d)[None, :]
    tracemalloc.start()
    try:
        with pytest.raises(RangeError, match="constant is not finite"):
            es.turan_discrete_batch(z, np.ones((1, d)), [1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_integral_constant_is_the_christoffel_function():
    # K_d(0; 1, 2) at d = 1..4, and the same rows as one array call
    want = [1, 28, 873, 28656]
    got = turan_constants.integral_constant(np.arange(1, 5), 1.0, 2.0)
    assert got.tolist() == want
    a = np.array([1.0, 0.5, 3.0])
    b = np.array([2.0, 4.0, 3.1])
    both = turan_constants.integral_constant(np.array([4, 2, 3]), a, b)
    for k, (d, ak, bk) in enumerate(zip([4, 2, 3], a, b)):
        assert both[k] == turan_constants.integral_constant(d, ak, bk)
    # the sup form's constant: K_d(0; 3/2, 2), 2 at d = 1
    assert turan_constants.sup_constant(1) == 2.0


def test_three_interval_constant_index_2():
    exact = mpmath.mpf(7) + 4 * mpmath.sqrt(3)
    got = turan_constants.three_interval_constant(2)
    assert abs(got / exact - 1) <= 1e-13


def _pencil_mp(n, a, b):
    """The largest eigenvalue of the Gram pencil of 1, t, ..., t^(n-1) on
    [0, 1] against [a, b] at 100 digits, and its eigenvector, by Cholesky
    reduction to a symmetric eigenproblem."""
    with mpmath.workdps(100):
        def gram(lo, hi):
            return mpmath.matrix([[(hi ** (i + j + 1) - lo ** (i + j + 1))
                                   / (i + j + 1) for j in range(n)]
                                  for i in range(n)])

        inv = mpmath.cholesky(gram(mpmath.mpf(a), mpmath.mpf(b))) ** -1
        vals, vecs = mpmath.eigsy(inv * gram(mpmath.mpf(0), mpmath.mpf(1))
                                  * inv.T)
        k = max(range(n), key=lambda i: vals[i])
        q = inv.T * vecs[:, k]
        return vals[k], [float(q[i]) for i in range(n)]


@pytest.mark.parametrize("n", range(1, 11))
def test_pencil_constants_match_mpmath(n):
    # never below the eigenvalue, and within 1e-12 of it
    for got, (a, b) in ((turan_constants.three_interval_constant(n), (1, 2)),
                        (turan_constants.l2l2_constant(n),
                         (mpmath.mpf(3) / 2, 2))):
        want, _ = _pencil_mp(n, a, b)
        assert 0 <= (got - want) / want <= 1e-12


# -- the witnesses that sampled constants failed ----------------------------


def _discrete_witness(z, m):
    """Coefficients c with |S_nu| = 1 for m < nu <= m + d and S_0 as large
    as that allows, the sum of |w_nu| over the weights of
    S_0 = sum w_nu S_nu."""
    z = np.asarray(z, dtype=complex)
    v = z[None, :] ** np.arange(m + 1, m + len(z) + 1)[:, None]
    w = np.linalg.solve(v.T, np.ones(len(z)))
    return np.linalg.solve(v, w.conj() / np.abs(w))


@pytest.mark.parametrize("angles,gap,least", [
    # clustered at one point of the circle: near T_3(1)^2 = 289
    ([0.0, 0.01, 0.02], 0.0099, 288.9),
    # pairwise at least 0.5 apart
    ([0.0, 0.525, 1.05], 0.5, 193.5),
])
def test_discrete_witness_holds(angles, gap, least):
    z = np.exp(1j * np.array(angles))
    assert min(abs(u - v) for i, u in enumerate(z) for v in z[:i]) >= gap
    rec = turan_discrete(z, _discrete_witness(z, 1), 1)
    assert least <= rec["lhs"] / rec["rhs"] <= 289
    assert rec["holds"] and rec["constant"] == 289


def test_integral_witness_holds():
    # exponents {0, +-i/2} on (1, 2) with the extremal coefficients
    # G^-1 1 (G the Gram matrix of the exponentials): |p(0)|^2 /
    # int_1^2 |p|^2 = 1^T G^-1 1 = 796.8, below K_3(0; 1, 2) = 873
    zs = np.array([0.0, 0.5j, -0.5j])
    gram = poly_exp_integrals(0, zs.conj()[:, None] + zs, 1.0, 2.0)
    c = np.linalg.solve(gram, np.ones(3))
    rec = turan_integral(ExpSum([ExpTerm(ck, u) for ck, u in zip(c, zs)]),
                         1.0, 2.0)
    assert 796 < rec["lhs"] / rec["integral"] < 797
    assert rec["holds"] and rec["sup_form"]["holds"]
    assert rec["l2_form"]["holds"]
    assert rec["constant"] == 873


@pytest.mark.parametrize("index", [4, 5])
def test_three_interval_witness_holds(index):
    # q(t) e^{t/1000} with q the pencil's top eigenvector: its ratio sits
    # within 0.1% of the constant
    _, q = _pencil_mp(index, 1, 2)
    p = ExpSum([ExpTerm(qk, 1e-3, k) for k, qk in enumerate(q)])
    rec = three_interval(p, 1.0, 1, "growth")
    assert rec["params"]["index"] == index
    assert rec["holds"]
    assert 0.998 < rec["lhs"] / rec["rhs"] < 1


# -- the array kernel against the closed form in mpmath ---------------------


def _integral_mp(b, w, t0, t1):
    """Integral of t^b e^{w t} over [t0, t1] from the closed-form
    antiderivative in mpmath at 60 digits, plus the digits its terms up to
    b!/|w|^(b+1) cancel when |w| max(|t0|, |t1|) < 1."""
    w, t0, t1 = mpmath.mpc(w), mpmath.mpf(t0), mpmath.mpf(t1)
    if w == 0:
        return (t1 ** (b + 1) - t0 ** (b + 1)) / (b + 1)
    scaled = abs(w) * max(abs(t0), abs(t1))
    with mpmath.workdps(60 + (b + 1) * max(0, int(-mpmath.log10(scaled)) + 1)):
        def anti(t):
            return mpmath.exp(w * t) * mpmath.fsum(
                (-1) ** i * math.perm(b, i) * t ** (b - i) / w ** (i + 1)
                for i in range(b + 1))

        return anti(t1) - anti(t0)


def _abs_integral_mp(b, a, t0, t1):
    """Integral of |t|^b e^{a t} over [t0, t1] (real a), the scale of the
    kernel's error: from J(T) = int_0^T |t|^b e^{a t} dt =
    sign(T) |T|^(b+1)/(b+1) 1F1(b+1; b+2; a T)."""
    def j(t):
        t = mpmath.mpf(t)
        return (mpmath.sign(t) * abs(t) ** (b + 1) / (b + 1)
                * mpmath.hyp1f1(b + 1, b + 2, a * t))

    return float(j(t1) - j(t0))


def _l2_oracle(p, t0, t1):
    """Integral of |p|^2 over [t0, t1], summed pair by pair in mpmath."""
    acc = mpmath.fsum(
        mpmath.mpc(a.coeff * b.coeff.conjugate()) * _integral_mp(
            a.power + b.power, a.exponent + b.exponent.conjugate(), t0, t1)
        for a in p.terms for b in p.terms)
    return max(float(acc.real), 0.0)


@st.composite
def _kernel_entry(draw):
    """(b, w, t0, t1): t0 = 0, t0 < 0 < t1 or [lR, (l + 1)R], with t1 from
    1e-3 to 10, and |w| max(|t0|, |t1|) on both sides of 0.25 and of the
    series switch (b + 1)/2."""
    b = draw(st.integers(0, 10))
    kind = draw(st.sampled_from(["origin", "across", "shell"]))
    if kind == "shell":
        ell = draw(st.integers(1, 3))
        big_r = draw(st.floats(1e-3 / (ell + 1), 10.0 / (ell + 1)))
        t0, t1 = ell * big_r, (ell + 1) * big_r
    else:
        t1 = draw(st.floats(1e-3, 10.0))
        t0 = 0.0 if kind == "origin" else -draw(st.floats(0.01, 1.5)) * t1
    scaled = draw(st.one_of(st.floats(1e-3, 0.2499), st.floats(0.25, 12.0),
                            st.floats(0.8, 1.25).map(
                                lambda f: f * (b + 1) / 2)))
    w = cmath.rect(scaled / max(abs(t0), abs(t1)),
                   draw(st.floats(0.0, 2 * math.pi)))
    return b, w, t0, t1


@settings(max_examples=100, deadline=None)
@given(entries=st.lists(_kernel_entry(), min_size=1, max_size=12))
@example(entries=[(10, 0.3, 0.0, 1.0), (8, 0.27, 0.0, 1.0),
                  (6, 0.26, 0.0, 2.0), (8, 1.0, 0.0, 0.01),
                  (10, -5.5, 0.0, 1.0), (10, 0.3j, -1.0, 1.0),
                  (10, -10.9, 0.0, 1.0), (10, -5.0, 1.0, 2.0)])
def test_kernel_matches_mpmath_closed_form(entries):
    # one kernel call on a mix of powers and of both branches, each entry
    # within 1e-10 of the integral of |t|^b e^{Re(w) t}, and equal to the
    # entry evaluated alone
    b, w, t0, t1 = (np.array(v) for v in zip(*entries))
    got = poly_exp_integrals(b, w, t0, t1)
    for k, (bk, wk, t0k, t1k) in enumerate(entries):
        err = abs(got[k] - complex(_integral_mp(bk, wk, t0k, t1k)))
        assert err <= 1e-10 * _abs_integral_mp(bk, complex(wk).real, t0k,
                                               t1k)
        assert poly_exp_integrals(bk, wk, t0k, t1k) == got[k]


def test_kernel_broadcasts_and_keeps_shape():
    rng = np.random.default_rng(3)
    b = rng.integers(0, 4, (3, 1))
    w = rng.normal(size=4) + 1j * rng.normal(size=4)
    t0 = np.array([[0.0], [0.5], [-1.0]])
    got = poly_exp_integrals(b, w, t0, 2.0)
    assert got.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            want = complex(_integral_mp(int(b[i, 0]), w[j], t0[i, 0], 2.0))
            assert abs(got[i, j] - want) <= 1e-12 * abs(want)


def test_l2_integral_matches_pairwise_oracle():
    rng = np.random.default_rng(8)
    for _ in range(60):
        p = draw_expsum(rng, int(rng.integers(1, 4)), re_range=(-2.0, 2.0),
                        powers=3)
        t0, t1 = sorted(rng.uniform(0.0, 4.0, 2).tolist())
        want = _l2_oracle(p, t0, t1)
        assert abs(l2_integral(p, t0, t1) - want) <= 1e-12 * want
        both = es.l2_integrals(TermTable.of([p, _mirrored(p)]),
                               [[t0, 0.0]] * 2, [[t1, t0]] * 2)
        assert both.shape == (2, 2) and both[0, 0] == l2_integral(p, t0, t1)
        assert both[1, 1] == l2_integral(_mirrored(p), 0.0, t0)


def test_overflowing_integral_raises_range_error():
    p = ExpSum([ExpTerm(1, 400)])
    with pytest.raises(RangeError,
                       match=r"e\^\(\(800\+0j\) t\) over \[0\.0, 10\.0\]"):
        l2_integral(p, 0, 10)
    with pytest.raises(RangeError, match="over"):
        three_interval(p, 5.0, 1, "growth")
    # both take the series; the first term overflows, to inf here and to
    # inf - inf = NaN on the second interval, whose later terms underflow
    # to 0 * inf = NaN, so that no stopping rule could hold
    with pytest.raises(RangeError, match="over"):
        poly_exp_integrals(300, 1e-4, -1e3, 1e3)
    with pytest.raises(RangeError, match="over"):
        poly_exp_integrals(10, 1e-30, 5e29, 1e30)


# -- the batched sweeps against per-instance oracles ------------------------
#
# Each oracle makes the sweep's own draws (the array drawers, batch by
# batch, with the sweep's generator calls) and evaluates every instance on
# its own with the scalar formulas and the single-sum functions.


def _power_sum(z, c, ell):
    """S_ell = sum_j c_j z_j^ell."""
    return sum(cj * zj ** ell for cj, zj in zip(c, z))


def _discrete_sweep_oracle(seed, scale):
    """check_discrete_sweep's instances, each checked with scalar power
    sums; returns (trials, violations) and the draws."""
    rng = np.random.default_rng(seed)
    trials = int(10000 * scale) or 1
    draws = []
    for n in verify._batches(trials):
        for z, c, m in es.draw_discrete_instances(rng, n).values():
            draws += [(list(zi), list(ci), int(mi))
                      for zi, ci, mi in zip(z, c, m)]
    violations = 0
    for z, c, m in draws:
        d = len(z)
        lhs = abs(_power_sum(z, c, 0)) ** 2
        rhs = max(abs(_power_sum(z, c, m + j)) ** 2 for j in range(1, d + 1))
        bound = float(turan_constants.discrete_constant(d, m))
        if rhs != 0 and not lhs <= bound * rhs * (1 + 1e-12):
            violations += 1
    return (trials, violations), draws


def _three_interval_holds(p, big_r, lo, hi, mode):
    tops = p.top_powers
    lam = min(abs(z.real) for z in tops)
    a_c = turan_constants.three_interval_constant(sum(tops.values())
                                                  + len(tops))
    if mode == "growth":
        return math.exp(lam * big_r) * lo <= a_c * hi * (1 + 1e-12)
    return hi <= a_c * math.exp(-lam * big_r) * lo * (1 + 1e-12)


def _three_interval_sweep_oracle(seed, scale):
    """check_three_interval_sweep's instances, each sum and its mirror
    image checked on its own: integrals from l2_integral, verdicts from
    the scalar formulas."""
    rng = np.random.default_rng(seed)
    trials = int(1000 * scale) or 1
    draws = []
    for n in verify._batches(trials):
        d = rng.integers(1, 4, size=n)
        table = es.draw_budget_table(rng, d, rng.integers(0, 6 - d))
        big_r = rng.uniform(0.2, 2.5, size=n)
        ell = rng.integers(1, 4, size=n)
        draws += zip(table.sums(), big_r.tolist(), ell.tolist())
    violations = 0
    for p, big_r, ell in draws:
        if p.big_m + p.d > 5:
            violations += 1
        for q, mode in ((p, "growth"), (_mirrored(p), "decay")):
            lo = l2_integral(q, (ell - 1) * big_r, ell * big_r)
            hi = l2_integral(q, ell * big_r, (ell + 1) * big_r)
            if not _three_interval_holds(q, big_r, lo, hi, mode):
                violations += 1
    return (trials, violations), draws


def _integral_sweep_oracle(seed, scale):
    """As _three_interval_sweep_oracle, for the integral sweep; the draws
    carry each instance's sup of |p|^2 on [0, R]."""
    rng = np.random.default_rng(seed)
    trials = int(1000 * scale) or 1
    draws = []
    for n in verify._batches(trials):
        table = es.draw_expsum_table(rng, rng.integers(1, 4, size=n))
        a = rng.uniform(0.05, 4.0, size=n)
        b = rng.uniform(a + 0.05, 5.0)
        draws += zip(table.sums(), a.tolist(), b.tolist())
    violations = 0
    sups = []
    for p, a, b in draws:
        d = max(p.d, 1)
        big_r = b / 2
        integral = l2_integral(p, a, b)
        tail = l2_integral(p, 1.5 * big_r, b)
        head = l2_integral(p, 0.0, big_r)
        lhs = abs(eval_expsum(p, 0.0)) ** 2
        bound = float(turan_constants.integral_constant(d, a, b)) * integral
        sups.append(_sup_norm_sq(p, 0.0, big_r))
        sup_bound = float(turan_constants.sup_constant(d)) / big_r * tail
        l2_bound = turan_constants.l2l2_constant(d) * tail
        if not (lhs <= bound * (1 + 1e-12)
                and sups[-1] <= sup_bound * (1 + 1e-12)
                and head <= l2_bound * (1 + 1e-12)):
            violations += 1
    return (trials, violations), sups


def _spy(monkeypatch, name):
    """Record the arguments and the result of every call of es.name."""
    calls = []
    real = getattr(es, name)

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(es, name, spy)
    return calls


def _assert_same_discrete_draws(calls, draws):
    """The batches, concatenated per d in call order, hold the oracle's
    draws of that d in draw order, bit for bit."""
    got, want = {}, {}
    for (z, c, m), _ in calls:
        got.setdefault(z.shape[1], []).append((z, c, m))
    for z, c, m in draws:
        want.setdefault(len(z), []).append((z, c, m))
    assert got.keys() == want.keys()
    for d, batches in got.items():
        z, c, m = (np.concatenate(v) for v in zip(*batches))
        assert z.tobytes() == np.array([v[0] for v in want[d]]).tobytes()
        assert c.tobytes() == np.array([v[1] for v in want[d]]).tobytes()
        assert m.tolist() == [v[2] for v in want[d]]


def _assert_same_three_interval_draws(calls, draws):
    """Each batch holds its share of the oracle's draws in draw order,
    growth first, then the mirror images in decay mode."""
    start = 0
    for (table, big_r, ell, modes), _ in calls:
        n = table.rows // 2
        part = draws[start:start + n]
        start += n
        assert [q.terms for q in table.sums()] == (
            [p.terms for p, _, _ in part]
            + [_mirrored(p).terms for p, _, _ in part])
        assert list(big_r) == [r for _, r, _ in part] * 2
        assert list(ell) == [e for _, _, e in part] * 2
        assert list(modes) == ["growth"] * n + ["decay"] * n
    assert start == len(draws)


@pytest.mark.parametrize("seed", range(20))
def test_batched_sweeps_match_per_trial_oracle(monkeypatch, seed):
    discrete = _spy(monkeypatch, "turan_discrete_batch")
    three = _spy(monkeypatch, "three_interval_batch")
    integral = _spy(monkeypatch, "turan_integral_batch")
    rec = verify.check_discrete_sweep(seed=seed, scale=0.2)["details"]
    want, draws = _discrete_sweep_oracle(seed, 0.2)
    assert (rec["trials"], rec["violations"]) == want
    _assert_same_discrete_draws(discrete, draws)
    rec = verify.check_three_interval_sweep(seed=seed, scale=0.2)["details"]
    want, draws = _three_interval_sweep_oracle(seed, 0.2)
    assert (rec["trials"], rec["violations"]) == want
    _assert_same_three_interval_draws(three, draws)
    rec = verify.check_integral_sweep(seed=seed, scale=0.05)["details"]
    want, sups = _integral_sweep_oracle(seed, 0.05)
    assert (rec["trials"], rec["violations"]) == want
    # the batched sup refine gives each instance's one-row sup bit for bit
    got = np.concatenate([out["sup_form"]["lhs"] for _, out in integral])
    assert got.tobytes() == np.array(sups).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_batched_sweeps_count_failures_like_oracle(monkeypatch, seed):
    # constants scaled to 1/100, far below the observed ratios, so that
    # many instances fail (sup_constant reads the scaled
    # integral_constant), and batches of 64 trials, so that failures
    # straddle batches
    for name in ("discrete_constant", "three_interval_constant",
                 "integral_constant", "l2l2_constant"):
        real = getattr(turan_constants, name)
        monkeypatch.setattr(turan_constants, name,
                            lambda *a, real=real: real(*a) / 100)
    monkeypatch.setattr(verify, "BATCH_TRIALS", 64)
    three = _spy(monkeypatch, "three_interval_batch")
    rec = verify.check_discrete_sweep(seed=seed, scale=0.02)["details"]
    want, _ = _discrete_sweep_oracle(seed, 0.02)
    assert (rec["trials"], rec["violations"]) == want
    assert 0 < want[1] < want[0]
    rec = verify.check_three_interval_sweep(seed=seed, scale=0.2)["details"]
    want, draws = _three_interval_sweep_oracle(seed, 0.2)
    assert (rec["trials"], rec["violations"]) == want
    assert 0 < want[1] < 2 * want[0]
    _assert_same_three_interval_draws(three, draws)
    rec = verify.check_integral_sweep(seed=seed, scale=0.1)["details"]
    want, _ = _integral_sweep_oracle(seed, 0.1)
    assert (rec["trials"], rec["violations"]) == want
    assert 0 < want[1] < want[0]


# -- the array drawers ------------------------------------------------------


def _power_sum_one_variate_at_a_time(rng, d):
    m = int(rng.integers(1, 11))
    coin, u, angle = rng.random(d), rng.random(d), rng.random(d)
    re, im = rng.standard_normal(d), rng.standard_normal(d)
    mod = np.where(coin < 0.25, 1.0, 1.0 + 2.0 * u)
    return m, mod, mod * np.exp(2j * math.pi * angle), re + 1j * im


def _expsum_one_variate_at_a_time(rng, d, re_range, powers):
    terms, seen = [], []
    for _ in range(d):
        while True:
            zeta = complex(rng.uniform(*re_range), rng.uniform(-3.0, 3.0))
            if all(abs(zeta - w) >= 0.5 for w in seen):
                break
        seen.append(zeta)
        pmax = 0 if powers is None else int(rng.integers(0, powers + 1))
        for b in range(pmax + 1):
            terms.append(ExpTerm(complex(rng.standard_normal(),
                                         rng.standard_normal()), zeta, b))
    return ExpSum(terms)


def _budget_expsum_one_variate_at_a_time(rng, d, budget):
    p = _expsum_one_variate_at_a_time(rng, d, (0.05, 2.0), None)
    terms = list(p.terms)
    exps = p.distinct_exponents
    for _ in range(budget):
        zeta = exps[int(rng.integers(0, len(exps)))]
        pw = max(t.power for t in terms if t.exponent == zeta) + 1
        terms.append(ExpTerm(complex(rng.standard_normal(),
                                     rng.standard_normal()), zeta, pw))
    return ExpSum(terms)


def _same_table(a, b):
    return a.rows == b.rows and all(
        getattr(a, f).tobytes() == getattr(b, f).tobytes()
        for f in ("coeff", "exponent", "power", "row"))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 6),
       powers=st.one_of(st.none(), st.integers(0, 3)),
       re_range=st.sampled_from([(0.0, 2.0), (0.05, 2.0), (-2.0, 2.0)]),
       budget=st.integers(0, 4))
def test_one_row_draws_are_the_single_instance_draws(seed, d, powers,
                                                     re_range, budget):
    # the one-row case of each array drawer makes the generator calls of a
    # draw made one variate at a time, and gives its instance bit for bit
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    want = _expsum_one_variate_at_a_time(rngs[0], d, re_range, powers)
    assert draw_expsum(rngs[1], d, re_range, powers).terms == want.terms
    assert _same_table(es.draw_expsum_table(rngs[2], [d], re_range, powers),
                       TermTable.of([want]))
    want = _budget_expsum_one_variate_at_a_time(rngs[0], min(d, 4), budget)
    got = es.draw_budget_table(rngs[1], [min(d, 4)], [budget]).sums()[0]
    assert got.terms == want.terms
    assert _same_table(es.draw_budget_table(rngs[2], [min(d, 4)], [budget]),
                       TermTable.of([want]))
    want = _power_sum_one_variate_at_a_time(rngs[0], d)
    for got in (es._draw_power_sum(rngs[1], d),
                es._draw_power_sum(rngs[2], d)):
        assert got[0] == want[0]
        assert all(u.tobytes() == v.tobytes()
                   for u, v in zip(got[1:], want[1:]))
    states = [r.bit_generator.state for r in rngs]
    assert states[0] == states[1] == states[2]


def _assert_table_invariants(table, d, re_range):
    """Row i has d[i] exponents in the drawn box, pairwise at least 0.5
    apart, each with the contiguous powers 0..top, in normalized order;
    returns each row's index M + d."""
    index = []
    for k, terms in enumerate(table.row_terms()):
        assert terms == sorted(terms, key=lambda t: (t[1].real, t[1].imag,
                                                     t[2]))
        powers = {}
        for _, z, b in terms:
            powers.setdefault(z, []).append(b)
        assert len(powers) == d[k]
        assert all(bs == list(range(len(bs))) for bs in powers.values())
        zs = list(powers)
        assert all(abs(u - v) >= 0.5 for i, u in enumerate(zs)
                   for v in zs[:i])
        assert all(re_range[0] <= z.real <= re_range[1]
                   and -3.0 <= z.imag <= 3.0 for z in zs)
        index.append(sum(len(bs) - 1 for bs in powers.values()) + len(zs))
    return index


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40))
def test_drawn_instances_meet_their_invariants(seed, n):
    rng = np.random.default_rng(seed)
    m, mod, z, c = es._power_sums(rng, rng.integers(1, 5, size=n))
    assert m.shape == (n,) and ((1 <= m) & (m <= 10)).all()
    assert ((mod == 1.0) | ((1.0 <= mod) & (mod <= 3.0))).all()
    assert np.allclose(np.abs(z), mod, rtol=1e-15, atol=0)
    for k, (z, c, m) in es.draw_discrete_instances(rng, n).items():
        assert 1 <= k <= 4 and z.shape == c.shape == (len(m), k)
        assert ((1 <= m) & (m <= 10)).all()
        assert ((1 - 1e-12 <= np.abs(z)) & (np.abs(z) <= 3 + 1e-12)).all()
    d = rng.integers(1, 4, size=n)
    table = es.draw_expsum_table(rng, d, powers=2)
    _assert_table_invariants(table, d, (0.0, 2.0))
    budget = rng.integers(0, 6 - d)
    table = es.draw_budget_table(rng, d, budget)
    index = _assert_table_invariants(table, d, (0.05, 2.0))
    assert index == (d + budget).tolist() and max(index) <= 5
    # the table's own bookkeeping agrees with the rows as ExpSums
    sums = table.sums()
    tab_d, tab_m = table.distinct()
    assert tab_d.tolist() == [p.d for p in sums]
    assert tab_m.tolist() == [p.big_m for p in sums]
    assert _same_table(table.with_mirrors(),
                       TermTable.of(sums + [_mirrored(p) for p in sums]))


@settings(max_examples=100, deadline=None)
@given(entries=st.lists(_kernel_entry(), min_size=1, max_size=12))
def test_kernel_is_conjugation_symmetric(entries):
    # l2_integrals evaluates pair (i, j) and takes the conjugate for
    # (j, i): that must be exact, up to the sign of a zero imaginary part
    # (which the real part of c conj(c') times the integral does not see)
    b, w, t0, t1 = (np.array(v) for v in zip(*entries))
    got = poly_exp_integrals(b, w, t0, t1)
    assert (got.conj() == poly_exp_integrals(b, w.conj(), t0, t1)).all()


def test_unplaceable_exponent_raises_numeric_error():
    # on the segment Re = 0, Im in [-3, 3], at most 13 exponents fit 0.5
    # apart: the 14th slot fails its 10000 draws, in a batch as alone
    with pytest.raises(es.NumericError, match="separated exponents"):
        es.draw_expsum_table(np.random.default_rng(0), [2, 14],
                             re_range=(0.0, 0.0))
    with pytest.raises(es.NumericError, match="separated exponents"):
        draw_expsum(np.random.default_rng(0), 14, re_range=(0.0, 0.0))
