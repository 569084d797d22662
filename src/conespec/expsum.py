"""Exponential sums  sum_j c_j t^b e^{zeta_j t}  and power-sum inequalities.

Carries the discrete power-sum bound, its integral form, the sup-norm and
L^2-L^2 corollaries, and the three-interval growth/decay estimates that
drive the annulus analysis of the mode systems (radial profiles become
exponential sums in t = log r).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import turan_constants
from .closed_form import ParameterError


class RangeError(ArithmeticError):
    """Evaluation left the floating-point range."""


class NumericError(RuntimeError):
    """A randomized draw could not produce a usable instance."""


@dataclass(frozen=True)
class ExpTerm:
    """One term c * t^power * e^{exponent * t}."""

    coeff: complex
    exponent: complex
    power: int = 0

    def __post_init__(self):
        if self.power < 0:
            raise ParameterError("power must be nonnegative")
        if not (cmath.isfinite(complex(self.coeff))
                and cmath.isfinite(complex(self.exponent))):
            raise ParameterError("coefficient and exponent must be finite")


@dataclass
class ExpSum:
    """Finite sum of ExpTerms, normalized on construction."""

    terms: list = field(default_factory=list)

    def __post_init__(self):
        self.terms = _normalize(self.terms)

    def normalized(self):
        return ExpSum(list(self.terms))

    @property
    def distinct_exponents(self):
        return sorted({t.exponent for t in self.terms},
                      key=lambda z: (z.real, z.imag))

    @property
    def d(self):
        return len(self.distinct_exponents)

    @property
    def top_powers(self):
        """Each distinct exponent mapped to the highest power it carries."""
        best = {}
        for t in self.terms:
            best[t.exponent] = max(best.get(t.exponent, 0), t.power)
        return best

    @property
    def big_m(self):
        """Sum over distinct exponents of the maximal power appearing."""
        return sum(self.top_powers.values())

    @property
    def max_power(self):
        return max((t.power for t in self.terms), default=0)

    def shift(self, c):
        """The sum p(t + c), expanded exactly (binomial mixing of powers)."""
        out = []
        for t in self.terms:
            scale = cmath.exp(t.exponent * c)
            for i in range(t.power + 1):
                out.append(ExpTerm(t.coeff * scale * math.comb(t.power, i)
                                   * c ** (t.power - i), t.exponent, i))
        return ExpSum(out)

    def mirrored(self):
        """The decay-form reflection sum c t^b e^{-conj(zeta) t}: every real
        part changes sign and the coefficients and powers are kept."""
        return ExpSum([ExpTerm(t.coeff, -t.exponent.conjugate(), t.power)
                       for t in self.terms])

    def __call__(self, t):
        return eval_expsum(self, t)


def _normalize(terms):
    acc = {}
    for t in terms:
        key = (complex(t.exponent), int(t.power))
        acc[key] = acc.get(key, 0j) + complex(t.coeff)
    out = [ExpTerm(c, z, p) for (z, p), c in acc.items() if c != 0]
    out.sort(key=lambda t: (t.exponent.real, t.exponent.imag, t.power))
    return out


def eval_expsum(p, t):
    """Evaluate sum c t^power e^{exponent t}; overflow raises RangeError."""
    if not math.isfinite(t):
        raise ParameterError("t must be finite")
    acc = 0j
    for term in p.terms:
        try:
            val = term.coeff * cmath.exp(term.exponent * t)
        except OverflowError as exc:
            raise RangeError(f"exp overflow at t={t}") from exc
        if term.power:
            val *= t ** term.power
        acc += val
    if not cmath.isfinite(acc):
        raise RangeError(f"evaluation overflowed at t={t}")
    return acc


# -- closed-form L^2 integrals ----------------------------------------------


def poly_exp_integrals(bpow, w, t0, t1):
    """Integrals of t^bpow e^{w t} over [t0, t1], elementwise on the
    broadcast arrays bpow (nonnegative ints), w (complex), t0 and t1.

    Entries with |w| max(|t0|, |t1|) < (bpow + 1)/2 take the power series
    and the others the closed-form antiderivative.  Below that switch the
    closed form would subtract terms up to bpow!/|w|^(bpow+1) far larger
    than its result; above it the series would cancel like
    e^{2 |w| max(|t0|, |t1|)} when Re w < 0.  A non-finite entry raises
    RangeError naming its interval and exponent.
    """
    args = [np.asarray(a, dtype=dt) for a, dt in
            ((bpow, int), (w, complex), (t0, float), (t1, float))]
    shape = np.broadcast_shapes(*(a.shape for a in args))
    bpow, w, t0, t1 = (np.broadcast_to(a, shape).ravel() for a in args)
    tmax = np.maximum(np.abs(t0), np.abs(t1))
    series = np.abs(w) * tmax < (bpow + 1) / 2
    closed = ~series
    out = np.empty(w.shape, dtype=complex)
    with np.errstate(all="ignore"):
        out[series] = _power_series(bpow[series], w[series], t0[series],
                                    t1[series], tmax[series])
        out[closed] = _closed_form(bpow[closed], w[closed], t0[closed],
                                   t1[closed])
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        i = bad[0]
        raise RangeError(f"integral of t^{bpow[i]} e^({w[i]} t) over "
                         f"[{t0[i]}, {t1[i]}] is not finite")
    return out.reshape(shape)


def _power_series(b, w, t0, t1, tmax):
    """sum_k w^k/k! (t1^(b+k+1) - t0^(b+k+1))/(b+k+1) on the entries still
    running, 16 values of k at a time: the coefficients are running
    products and the sums running sums along k.  An entry stops at the
    first k where the bound |w|^(k+1)/(k+1)! tmax^(b+k+2) on its next
    term is at most 1e-17 times the running sum of |terms|, or, as NaN,
    where that bound is not finite (the next term could not be bounded)."""
    out = np.empty(w.shape, dtype=complex)
    run = np.arange(len(w))
    acc = np.zeros(w.shape, dtype=complex)
    size = np.zeros(w.shape)
    coef = np.ones(w.shape, dtype=complex)
    k = np.arange(16)[:, None]
    while run.size:
        e = b + k + 1
        steps = np.empty((len(k) + 1, run.size), dtype=complex)
        steps[0] = coef
        steps[1:] = w / (k + 1)
        coefs = np.cumprod(steps, axis=0)
        terms = coefs[:-1] * ((t1 ** e - t0 ** e) / e)
        mods = np.abs(terms)
        terms[0] += acc
        mods[0] += size
        sums, sizes = np.cumsum(terms, axis=0), np.cumsum(mods, axis=0)
        bound = np.abs(coefs[1:]) * tmax ** (e + 1)
        lost = ~np.isfinite(bound)
        done = lost | (bound <= 1e-17 * sizes)
        stopped = done.any(axis=0)
        cols = np.flatnonzero(stopped)
        at = done[:, cols].argmax(axis=0)
        out[run[cols]] = np.where(lost[at, cols], np.nan, sums[at, cols])
        keep = ~stopped
        run, b, w, t0, t1, tmax = (a[keep] for a in (run, b, w, t0, t1, tmax))
        acc, size, coef = sums[-1, keep], sizes[-1, keep], coefs[-1, keep]
        k = k + len(k)
    return out


def _closed_form(b, w, t0, t1):
    """F(t1) - F(t0) for the antiderivative
    F(t) = e^{w t} sum_{i <= b} (-1)^i b!/(b-i)! t^(b-i) / w^(i+1),
    with the terms of both ends as one (max(b) + 1, 2, len(b)) array,
    summed in order along i (cumsum), so that the zero terms past an
    entry's own b leave its value as if it were evaluated alone."""
    i = np.arange(int(b.max(initial=0)) + 1)[:, None]
    tpow = b - i
    fall = np.cumprod(np.where(i > 0, tpow + 1.0, 1.0), axis=0)
    coef = np.where(tpow >= 0, (-1.0) ** i * fall / w ** (i + 1), 0)
    t = np.stack([t1, t0])
    terms = coef[:, None] * t ** np.maximum(tpow, 0)[:, None]
    ends = np.exp(w * t) * np.cumsum(terms, axis=0)[-1]
    return ends[0] - ends[1]


def l2_integrals(sums, t0, t1):
    """Integrals of |p(t)|^2 over [t0, t1] for every sum p of ``sums`` in
    one poly_exp_integrals call.

    t0 and t1 have shape (len(sums), k): row i holds k intervals of
    sums[i].  |p|^2 expands into the pair terms
    t^(b+b') e^{(zeta + conj zeta') t}; each row sums its pairs' integrals
    in pair order, and negative roundoff is clipped to 0.
    """
    terms = [t for p in sums for t in p.terms]
    c = np.array([t.coeff for t in terms], dtype=complex)
    z = np.array([t.exponent for t in terms], dtype=complex)
    b = np.array([t.power for t in terms], dtype=int)
    # pair q of sum s is its terms (i, j) = divmod(q, n_s), row by row
    size = np.array([len(p.terms) for p in sums], dtype=int)
    seg = np.repeat(np.arange(len(sums)), size ** 2)
    q = np.arange(len(seg)) - np.repeat(np.cumsum(size ** 2) - size ** 2,
                                        size ** 2)
    first_term = (np.cumsum(size) - size)[seg]
    i, j = np.divmod(q, size[seg]) + first_term
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    vals = ((c[i] * c[j].conj())[:, None] * poly_exp_integrals(
        (b[i] + b[j])[:, None], (z[i] + z[j].conj())[:, None],
        t0[seg], t1[seg])).real
    k = t0.shape[1]
    acc = np.bincount((seg[:, None] * k + np.arange(k)).ravel(),
                      weights=vals.ravel(), minlength=len(sums) * k)
    return np.maximum(acc, 0.0).reshape(len(sums), k)


def l2_integral(p, t0, t1):
    """Integral of |p(t)|^2 over [t0, t1] in closed form (l2_integrals of
    the one sum p on the one interval)."""
    return float(l2_integrals([p], [[t0]], [[t1]])[0, 0])


def _abs_sq_grid(p, ts):
    """|p|^2 at every point of the array ts in one pass; overflow raises
    RangeError as in eval_expsum."""
    acc = np.zeros(len(ts), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for term in p.terms:
            val = term.coeff * np.exp(term.exponent * ts)
            if term.power:
                val *= ts ** term.power
            acc += val
    if not np.isfinite(acc).all():
        raise RangeError(f"evaluation overflowed on [{ts[0]}, {ts[-1]}]")
    return np.abs(acc) ** 2


def sup_norm_sq(p, t0, t1, samples=2048):
    """sup of |p|^2 on [t0, t1]: dense sampling plus golden-section refine.

    The grid is evaluated in one numpy pass; the best sample and the
    refine use eval_expsum, so a maximum at an endpoint keeps its scalar
    value.  Each refine step keeps the surviving interior point's value and
    evaluates one new point."""
    ts = np.linspace(t0, t1, samples)
    vals = _abs_sq_grid(p, ts)
    i = int(np.argmax(vals))
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, samples - 1)]
    gr = (math.sqrt(5) - 1) / 2

    def f(t):
        return -abs(eval_expsum(p, t)) ** 2

    a, b = lo, hi
    c = b - gr * (b - a)
    dd = a + gr * (b - a)
    fc, fd = f(c), f(dd)
    for _ in range(80):
        if fc < fd:
            b, dd, fd = dd, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, dd, fd
            dd = a + gr * (b - a)
            fd = f(dd)
    best = -(f((a + b) / 2))
    return max(best, -f(ts[i]))


# -- power sums and the discrete bound -------------------------------------


def power_sum(z, c, ell):
    """S_ell = sum_j c_j z_j^ell."""
    return sum(cj * zj ** ell for cj, zj in zip(c, z))


def turan_discrete_batch(z, c, m):
    """The discrete power-sum bound on N instances with d terms each.

    z and c have shape (N, d), m shape (N,).  Returns arrays lhs = |S_0|^2
    and rhs = max |S_{m+1..m+d}|^2 (S_ell = sum_j c_j z_j^ell),
    constant_bound = A(d) ((m+d)/d)^{2(d-1)} and holds = lhs <=
    constant_bound * rhs, with the constant A(d).
    """
    z = np.asarray(z, dtype=complex)
    c = np.asarray(c, dtype=complex)
    m = np.asarray(m)
    d = z.shape[1]
    ells = m[:, None] + np.arange(1, d + 1)
    sums = (c[:, None, :] * z[:, None, :] ** ells[:, :, None]).sum(axis=2)
    lhs = np.abs(c.sum(axis=1)) ** 2
    rhs = (np.abs(sums) ** 2).max(axis=1)
    a_d = turan_constants.discrete_constant(d)
    bound = a_d * ((m + d) / d) ** (2 * (d - 1))
    return {"lhs": lhs, "rhs": rhs, "constant": a_d,
            "constant_bound": bound, "holds": lhs <= bound * rhs}


def turan_discrete(z, c, m):
    """Discrete power-sum bound: |S_0|^2 against the next d sums after m.

    The one-instance case of turan_discrete_batch, as a record with lhs,
    rhs, constant, constant_bound, the holds flag and params.  |z_j| >= 1
    is checked up to a roundoff margin of 1e-12.
    """
    z = [complex(v) for v in z]
    c = [complex(v) for v in c]
    d = len(z)
    if d < 1:
        raise ParameterError("empty exponent collection")
    if len(c) != d:
        raise ParameterError("z and c must have equal length")
    if int(m) != m or m < 1:
        raise ParameterError("m must be an integer >= 1")
    m = int(m)
    if any(abs(v) < 1 - 1e-12 for v in z):
        raise ParameterError("all |z_j| must be >= 1")
    return {**_first(turan_discrete_batch([z], [c], [m])),
            "params": {"d": d, "m": m}}


def turan_integral_batch(sums, a, b):
    """turan_integral's record, without params, for every sum of ``sums``
    at once: a and b hold one interval per sum, every interval integral
    comes from one l2_integrals call, and each entry is an array."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    big_r = b / 2
    integral, tail, head = l2_integrals(
        sums, np.stack([a, 1.5 * big_r, np.zeros(len(sums))], axis=1),
        np.stack([b, 2 * big_r, big_r], axis=1)).T
    d = np.array([max(p.d, 1) for p in sums])
    a_d, a_sup, a_l2 = (np.array([table(k) for k in d.tolist()])
                        for table in (turan_constants.integral_constant,
                                      turan_constants.sup_constant,
                                      turan_constants.l2l2_constant))
    lhs = np.array([abs(eval_expsum(p, 0.0)) ** 2 for p in sums])
    bound = a_d * (b / (b - a)) ** (2 * (d - 1)) * (b + a) / (b - a) ** 2 * integral
    sup_sq = np.array([sup_norm_sq(p, 0.0, r)
                       for p, r in zip(sums, big_r.tolist())])
    sup_bound = a_sup / big_r * tail
    l2_bound = a_l2 * tail
    return {
        "lhs": lhs,
        "integral": integral,
        "constant": a_d,
        "bound": bound,
        "holds": lhs <= bound * (1 + 1e-12),
        "sup_form": {"lhs": sup_sq, "bound": sup_bound, "constant": a_sup,
                     "holds": sup_sq <= sup_bound * (1 + 1e-12)},
        "l2_form": {"lhs": head, "bound": l2_bound, "constant": a_l2,
                    "holds": head <= l2_bound * (1 + 1e-12)},
    }


def turan_integral(p, a, b):
    """Integral form of the power-sum bound plus its two interval variants.

    Requires all exponents with nonnegative real part and no powers.
    lhs = |p(0)|^2; bound = A(d) (b/(b-a))^{2(d-1)} (b+a)/(b-a)^2 * int_a^b |p|^2.
    The sup-norm and L^2-L^2 variants are evaluated on [0, R] against
    [3R/2, 2R] with R = b/2.  The one-sum case of turan_integral_batch.
    """
    if not 0 < a < b:
        raise ParameterError("need 0 < a < b")
    if (b - a) / b < 1e-8:
        raise ParameterError("degenerate interval")
    if p.max_power != 0:
        raise ParameterError("integral form needs pure exponentials")
    if any(t.exponent.real < 0 for t in p.terms):
        raise ParameterError("all Re(exponent) must be >= 0")
    rec = _first(turan_integral_batch([p], [a], [b]))
    rec["params"] = {"d": max(p.d, 1), "a": a, "b": b, "R": b / 2}
    return rec


def _first(rec):
    """Entry 0 of every array in a batched record, as Python scalars."""
    if isinstance(rec, dict):
        return {k: _first(v) for k, v in rec.items()}
    return np.ravel(rec)[0].item()


def _three_interval_rate(tops, mode):
    """lambda (the minimal |Re exponent|) and the index M + d of a sum
    with these top powers in this mode."""
    res = [z.real for z in tops]
    if mode == "growth":
        lam = min(res)
        if lam <= 0:
            raise ParameterError(
                "growth mode needs all Re(exponent) > 0; "
                "mixed-sign sums must be split into pure parts first")
    elif mode == "decay":
        lam = min(-x for x in res)
        if lam <= 0:
            raise ParameterError(
                "decay mode needs all Re(exponent) < 0; "
                "mixed-sign sums must be split into pure parts first")
    else:
        raise ParameterError("mode must be 'growth' or 'decay'")
    return lam, sum(tops.values()) + len(tops)


def three_interval_bound(tops, lo, hi, big_r, mode):
    """The three-interval inequality from its interval integrals.

    tops maps each distinct exponent of the sum to its highest power, so
    the index is M + d = sum(tops.values()) + len(tops); lo and hi are the
    integrals of |p|^2 over the lower and the upper interval, floats or
    equal-shape arrays (one entry per sum with these exponents and
    powers).  tops and mode may instead be lists with one entry per entry
    of lo, hi and big_r.  growth: e^{lambda R} lo <= A(M+d) hi; decay:
    hi <= A(M+d) e^{-lambda R} lo, with lambda the minimal |Re exponent|.
    """
    if isinstance(tops, dict):
        lam, index = _three_interval_rate(tops, mode)
        a_c = turan_constants.three_interval_constant(index)
    else:
        lam, index = (np.array(v) for v in zip(
            *map(_three_interval_rate, tops, mode)))
        a_c = np.array([turan_constants.three_interval_constant(i)
                        for i in index.tolist()])
    growth = np.asarray(mode) == "growth"
    lhs = np.where(growth, np.exp(lam * big_r) * lo, hi)
    rhs = np.where(growth, a_c * hi, a_c * np.exp(-lam * big_r) * lo)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "lambda": lam,
        "constant": a_c,
        "holds": lhs <= rhs * (1 + 1e-12),
        "index": index,
    }


def three_interval_batch(sums, big_r, ell, modes):
    """three_interval on every sum of ``sums`` at once: big_r, ell and
    modes hold one entry per sum, every interval integral comes from one
    l2_integrals call, and the record is three_interval_bound's with one
    array entry per sum."""
    big_r = np.asarray(big_r, dtype=float)
    ends = np.asarray(ell)[:, None] + np.arange(-1, 2)
    edges = ends * big_r[:, None]
    lo, hi = l2_integrals(sums, edges[:, :2], edges[:, 1:]).T
    return three_interval_bound([p.top_powers for p in sums], lo, hi, big_r,
                                modes)


def three_interval(p, big_r, ell, mode):
    """Growth/decay comparison of |p|^2 over three consecutive intervals.

    growth: e^{lambda R} int_{(l-1)R}^{lR} <= A(M+d) int_{lR}^{(l+1)R};
    decay is the mirror image.  lambda is the minimal |Re exponent| and must
    be positive with all real parts of one sign (three_interval_bound).
    The one-sum case of three_interval_batch.
    """
    if big_r <= 0:
        raise ParameterError("R must be positive")
    if int(ell) != ell or ell < 1:
        raise ParameterError("l must be an integer >= 1")
    ell = int(ell)
    if not p.terms:
        raise ParameterError("empty sum")
    rec = _first(three_interval_batch([p], [big_r], [ell], [mode]))
    rec["params"] = {"R": big_r, "l": ell, "mode": mode,
                     "index": rec.pop("index")}
    return rec


# -- randomized draws and the constant estimator ---------------------------


def _power_sum_variates(rng, d):
    """The generator calls of one power-sum draw of d terms, in order: m,
    then d each of the unit-modulus coin, the modulus, the angle and the
    coefficients' real and imaginary parts."""
    return (int(rng.integers(1, 11)), rng.random(d), rng.random(d),
            rng.random(d), rng.standard_normal(d), rng.standard_normal(d))


def _power_sum_from(m, coin, u, angle, re, im):
    """(m, |z|, z, c) from the variates, elementwise, so stacked variates
    of many draws give the stacked draws."""
    mod = np.where(coin < 0.25, 1.0, 1.0 + 2.0 * u)
    return m, mod, mod * np.exp(2j * math.pi * angle), re + 1j * im


def _draw_power_sum(rng, d):
    """Random (m, |z|, z, c) of d terms: m in 1..10, and each |z_j| is 1
    with probability 1/4, else uniform in [1, 3]."""
    return _power_sum_from(*_power_sum_variates(rng, d))


def draw_discrete_instances(rng, trials, dmax=4):
    """``trials`` draws of d in 1..dmax, each then of _draw_power_sum(rng,
    d), grouped by d: {d: (z, c, m)} with z and c of shape (count, d) and
    m of shape (count,)."""
    variates = {}
    for _ in range(trials):
        d = int(rng.integers(1, dmax + 1))
        variates.setdefault(d, []).append(_power_sum_variates(rng, d))
    out = {}
    for d, rows in variates.items():
        m, _, z, c = _power_sum_from(*(np.array(v) for v in zip(*rows)))
        out[d] = (z, c, m)
    return out


def estimate_turan_constant(d, trials, seed):
    """Worst observed normalized discrete ratio over random draws.

    ratio = lhs / (((m+d)/d)^{2(d-1)} * rhs); instances with vanishing rhs
    are skipped (and counted); an all-skipped run is an error.
    """
    if d < 1 or trials < 1:
        raise ParameterError("need d >= 1 and trials >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    skipped = 0
    for _ in range(trials):
        m, mod, z, c = _draw_power_sum(rng, d)
        if d == 1:
            # single term: the coefficient cancels exactly
            worst = max(worst, float(mod[0]) ** (-2 * (m + 1)))
            continue
        lhs = abs(power_sum(z, c, 0)) ** 2
        rhs = max(abs(power_sum(z, c, m + j)) ** 2 for j in range(1, d + 1))
        if rhs == 0.0:
            skipped += 1
            continue
        ratio = lhs / (((m + d) / d) ** (2 * (d - 1)) * rhs)
        worst = max(worst, ratio)
    if skipped == trials:
        raise NumericError("all sampled instances degenerate")
    return worst


def draw_expsum(rng, d, re_range=(0.0, 2.0), powers=None):
    """Random ExpSum with d distinct exponents and optional power budget.

    Imaginary parts are uniform in [-3, 3].  Exponents are kept at least
    0.5 apart (the regime of integer-spaced indicial roots these sums come
    from): a nearly coincident pair is the multiplicity case in disguise
    and is drawn via explicit powers instead, keeping observed inequality
    ratios at their stated index.
    """
    terms = []
    seen = []
    for _ in range(d):
        for _attempt in range(10000):
            zeta = complex(rng.uniform(*re_range), rng.uniform(-3.0, 3.0))
            if all(abs(zeta - w) >= 0.5 for w in seen):
                seen.append(zeta)
                break
        else:
            raise NumericError("could not place separated exponents")
        pmax = 0 if powers is None else int(rng.integers(0, powers + 1))
        for b in range(pmax + 1):
            terms.append(ExpTerm(complex(rng.standard_normal(),
                                         rng.standard_normal()), zeta, b))
    return ExpSum(terms)


def draw_budget_expsum(rng, d, budget):
    """Random growth-type ExpSum with d exponents (real parts in [0.05, 2])
    and ``budget`` extra log powers, each raising the top power of a
    uniformly chosen exponent by one; its index M + d is d + budget."""
    p = draw_expsum(rng, d, re_range=(0.05, 2.0))
    terms = list(p.terms)
    exps = p.distinct_exponents
    for _ in range(budget):
        zeta = exps[int(rng.integers(0, len(exps)))]
        pw = max(t.power for t in terms if t.exponent == zeta) + 1
        terms.append(ExpTerm(complex(rng.standard_normal(),
                                     rng.standard_normal()), zeta, pw))
    return ExpSum(terms)
