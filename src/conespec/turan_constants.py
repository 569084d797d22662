"""Constant tables for the power-sum inequalities.

The inequalities hold with constants depending only on the number of
distinct exponents (plus the power budget for the three-interval form),
but no usable numeric values come with them.  Each table below is the
worst ratio observed over a large randomized sweep multiplied by a safety
factor of 4, one table per inequality form (the forms differ by the
combinatorial factors their derivations introduce, so a single table
would be wrong for all but one of them).

Recompute with ``conespec turan --regenerate-constants`` (or
:func:`regenerate`); every check reports the constant it used.
"""

from __future__ import annotations

import math

SAFETY = 4.0

# Frozen values, monotone-enveloped (index-k sums embed in index k+1), with
# exponent draws separated by at least 0.5 (the integer-spaced indicial
# regime the library checks).  regenerate() at its defaults reproduces all
# but THREE_INTERVAL_A[5..12], which predate the current closed-form
# integral kernel (it gives 137278727.4 against 5.2e24 at index 12); they
# stay because turan_bound and --turan-check read them.
DISCRETE_A = {1: 4.0, 2: 33.898008, 3: 33.898008, 4: 33.898008,
              5: 33.898008, 6: 33.898008, 7: 33.898008, 8: 33.898008,
              9: 33.898008, 10: 33.898008, 11: 33.898008, 12: 33.898008}
INTEGRAL_A = {1: 3.730903, 2: 8.766552, 3: 8.766552}
SUP_A = {1: 7.99863, 2: 505.761589, 3: 505.761589}
L2L2_A = {1: 7.997716, 2: 335.29745, 3: 335.29745}
# The three-interval table grows steeply with the index: its decay form is
# genuinely binding on instances like t^M e^{-lambda t} with small lambda*R,
# whose admissible ratio is exponentially large in the power budget.
THREE_INTERVAL_A = {1: 3.95446, 2: 48.321529, 3: 281.155431, 4: 920.043889,
                    5: 6108.770084, 6: 37761.753941, 7: 466028.29993,
                    8: 27582641.683604, 9: 409953223590.70087,
                    10: 2.5022121479116294e+17, 11: 2.1138853887928316e+19,
                    12: 5.216901489083871e+24}


def _lookup(table, d):
    if d in table:
        return table[d]
    dmax = max(table)
    if d < min(table):
        return table[min(table)]
    # geometric extrapolation beyond the table, floored at ratio 2
    ratio = max(table[dmax] / table[dmax - 1], 2.0) if dmax - 1 in table else 4.0
    return table[dmax] * ratio ** (d - dmax)


def discrete_constant(d):
    return _lookup(DISCRETE_A, d)


def integral_constant(d):
    return _lookup(INTEGRAL_A, d)


def sup_constant(d):
    return _lookup(SUP_A, d)


def l2l2_constant(d):
    return _lookup(L2L2_A, d)


def three_interval_constant(index):
    return _lookup(THREE_INTERVAL_A, index)


# -- regeneration -----------------------------------------------------------


def _estimate_integral_forms(d, trials, seed):
    import numpy as np

    from .expsum import draw_expsum, eval_expsum, l2_integral, sup_norm_sq

    rng = np.random.default_rng(seed)
    worst_int = worst_sup = worst_l2 = 0.0
    for _ in range(trials):
        p = draw_expsum(rng, d)
        a = rng.uniform(0.05, 4.0)
        b = a + rng.uniform(0.05, 5.0 - min(a, 4.0) + 0.05)
        ints = l2_integral(p, a, b)
        if ints > 0:
            lhs = abs(eval_expsum(p, 0.0)) ** 2
            denom = (b / (b - a)) ** (2 * (d - 1)) * (b + a) / (b - a) ** 2 * ints
            if denom > 0:
                worst_int = max(worst_int, lhs / denom)
        big_r = rng.uniform(0.2, 3.0)
        tail = l2_integral(p, 1.5 * big_r, 2.0 * big_r)
        if tail > 0:
            sup_sq = sup_norm_sq(p, 0.0, big_r, samples=256)
            worst_sup = max(worst_sup, sup_sq * big_r / tail)
            head = l2_integral(p, 0.0, big_r)
            worst_l2 = max(worst_l2, head / tail)
    return worst_int, worst_sup, worst_l2


def _estimate_three_interval(index, trials, seed):
    """Worst observed ratio over BOTH the growth and the decay form.

    The two forms share the constant family but random draws stress them
    very differently (a decaying exponential against a rising polynomial
    factor is the binding configuration, and growth-form sampling never
    produces its reflected coefficient profile), so both are sampled.
    """
    import numpy as np

    from .expsum import draw_budget_expsum, l2_integral

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        d = int(rng.integers(1, index + 1))
        p = draw_budget_expsum(rng, d, index - d)
        lam = min(t.exponent.real for t in p.terms)
        if lam <= 0:
            continue
        big_r = rng.uniform(0.2, 2.5)
        ell = int(rng.integers(1, 4))
        lo = l2_integral(p, (ell - 1) * big_r, ell * big_r)
        hi = l2_integral(p, ell * big_r, (ell + 1) * big_r)
        if hi > 0:
            worst = max(worst, math.exp(lam * big_r) * lo / hi)
        pm = p.mirrored()
        lo_m = l2_integral(pm, (ell - 1) * big_r, ell * big_r)
        hi_m = l2_integral(pm, ell * big_r, (ell + 1) * big_r)
        if lo_m > 0:
            worst = max(worst, math.exp(lam * big_r) * hi_m / lo_m)
    return worst


def _envelope(table):
    """Monotone nondecreasing envelope: index-k sums embed in index k+1."""
    out = {}
    best = 0.0
    for d in sorted(table):
        best = max(best, float(table[d]))
        out[d] = round(best, 6)
    return out


def regenerate(seed=20240801, discrete_trials=200000, integral_trials=20000):
    """Recompute all tables over the keys of the frozen ones; returns the
    new dict of dicts (not installed)."""
    from .expsum import estimate_turan_constant

    discrete = {}
    for d in DISCRETE_A:
        est = estimate_turan_constant(d, discrete_trials, seed + d)
        discrete[d] = float(est) * SAFETY
    integral, sup, l2 = {}, {}, {}
    for d in INTEGRAL_A:
        wi, ws, wl = _estimate_integral_forms(d, integral_trials, seed + 100 + d)
        integral[d] = float(wi) * SAFETY
        sup[d] = float(ws) * SAFETY
        l2[d] = float(wl) * SAFETY
    three = {}
    for idx in THREE_INTERVAL_A:
        w = _estimate_three_interval(idx, integral_trials, seed + 200 + idx)
        three[idx] = float(w) * SAFETY
    return {
        "DISCRETE_A": _envelope(discrete),
        "INTEGRAL_A": _envelope(integral),
        "SUP_A": _envelope(sup),
        "L2L2_A": _envelope(l2),
        "THREE_INTERVAL_A": _envelope(three),
    }

