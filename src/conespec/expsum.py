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


class RangeError(ArithmeticError):
    """Evaluation left the floating-point range."""


class PreconditionError(ValueError):
    """An operation's stated precondition was violated."""


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
            raise PreconditionError("power must be nonnegative")
        if not (cmath.isfinite(complex(self.coeff))
                and cmath.isfinite(complex(self.exponent))):
            raise PreconditionError("coefficient and exponent must be finite")


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
        raise PreconditionError("t must be finite")
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


def _poly_exp_integral(bpow, w, t0, t1):
    """Integral of t^bpow e^{w t} over [t0, t1], complex w allowed.

    Uses the closed-form antiderivative; switches to a series for small |w|
    where the closed form cancels badly.
    """
    w = complex(w)
    if abs(w) * max(abs(t0), abs(t1)) < 0.25:
        # series: sum_k w^k/k! * (t1^{b+k+1}-t0^{b+k+1})/(b+k+1)
        acc = 0j
        term = 1.0 + 0j
        for k in range(0, 60):
            piece = (t1 ** (bpow + k + 1) - t0 ** (bpow + k + 1)) / (bpow + k + 1)
            acc += term * piece
            term *= w / (k + 1)
            if abs(term) * max(abs(t0), abs(t1)) ** (bpow + k + 2) < 1e-18 * (1 + abs(acc)):
                break
        return acc

    def anti(t):
        s = 0j
        fact = 1.0
        tp = t ** bpow
        for i in range(bpow + 1):
            s += ((-1) ** i) * fact * tp / w ** (i + 1)
            if i < bpow:
                fact *= (bpow - i)
                tp = t ** (bpow - i - 1)
        return cmath.exp(w * t) * s

    return anti(t1) - anti(t0)


def l2_integral(p, t0, t1):
    """Integral of |p(t)|^2 over [t0, t1], in closed form.

    Expands |p|^2 into the pair terms t^(b+b') e^{(zeta + conj zeta') t}
    and sums their exact integrals (_poly_exp_integral); negative roundoff
    is clipped to 0.
    """
    acc = 0j
    for a in p.terms:
        for b in p.terms:
            w = a.exponent + b.exponent.conjugate()
            acc += a.coeff * b.coeff.conjugate() * _poly_exp_integral(
                a.power + b.power, w, t0, t1)
    return max(acc.real, 0.0)


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
    value."""
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
    for _ in range(80):
        if f(c) < f(dd):
            b = dd
        else:
            a = c
        c = b - gr * (b - a)
        dd = a + gr * (b - a)
    best = -(f((a + b) / 2))
    return max(best, -f(ts[i]))


# -- power sums and the discrete bound -------------------------------------


def power_sum(z, c, ell):
    """S_ell = sum_j c_j z_j^ell."""
    return sum(cj * zj ** ell for cj, zj in zip(c, z))


def turan_discrete(z, c, m):
    """Discrete power-sum bound: |S_0|^2 against the next d sums after m.

    Returns a record with lhs = |S_0|^2, rhs = max |S_{m+1..m+d}|^2,
    constant_bound = A(d) ((m+d)/d)^{2(d-1)}, and the holds flag.  |z_j| >= 1
    is checked up to a roundoff margin of 1e-12.
    """
    z = [complex(v) for v in z]
    c = [complex(v) for v in c]
    d = len(z)
    if d < 1:
        raise PreconditionError("empty exponent collection")
    if len(c) != d:
        raise PreconditionError("z and c must have equal length")
    if int(m) != m or m < 1:
        raise PreconditionError("m must be an integer >= 1")
    m = int(m)
    if any(abs(v) < 1 - 1e-12 for v in z):
        raise PreconditionError("all |z_j| must be >= 1")
    lhs = abs(power_sum(z, c, 0)) ** 2
    rhs = max(abs(power_sum(z, c, m + j)) ** 2 for j in range(1, d + 1))
    a_d = turan_constants.discrete_constant(d)
    bound = a_d * ((m + d) / d) ** (2 * (d - 1))
    return {
        "lhs": lhs,
        "rhs": rhs,
        "constant": a_d,
        "constant_bound": bound,
        "holds": lhs <= bound * rhs,
        "params": {"d": d, "m": m},
    }


def turan_integral(p, a, b):
    """Integral form of the power-sum bound plus its two interval variants.

    Requires all exponents with nonnegative real part and no powers.
    lhs = |p(0)|^2; bound = A(d) (b/(b-a))^{2(d-1)} (b+a)/(b-a)^2 * int_a^b |p|^2.
    The sup-norm and L^2-L^2 variants are evaluated on [0, R] against
    [3R/2, 2R] with R = b/2.
    """
    if not 0 < a < b:
        raise PreconditionError("need 0 < a < b")
    if (b - a) / b < 1e-8:
        raise PreconditionError("degenerate interval")
    if p.max_power != 0:
        raise PreconditionError("integral form needs pure exponentials")
    if any(t.exponent.real < 0 for t in p.terms):
        raise PreconditionError("all Re(exponent) must be >= 0")
    d = max(p.d, 1)
    big_r = b / 2
    integral = l2_integral(p, a, b)
    lhs = abs(eval_expsum(p, 0.0)) ** 2
    a_d = turan_constants.integral_constant(d)
    bound = a_d * (b / (b - a)) ** (2 * (d - 1)) * (b + a) / (b - a) ** 2 * integral
    tail = l2_integral(p, 1.5 * big_r, 2 * big_r)
    sup_sq = sup_norm_sq(p, 0.0, big_r)
    a_sup = turan_constants.sup_constant(d)
    sup_bound = a_sup / big_r * tail
    head = l2_integral(p, 0.0, big_r)
    a_l2 = turan_constants.l2l2_constant(d)
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
        "params": {"d": d, "a": a, "b": b, "R": big_r},
    }


def three_interval_bound(tops, lo, hi, big_r, mode):
    """The three-interval inequality from its interval integrals.

    tops maps each distinct exponent of the sum to its highest power, so
    the index is M + d = sum(tops.values()) + len(tops); lo and hi are the
    integrals of |p|^2 over the lower and the upper interval, floats or
    equal-shape arrays (one entry per sum with these exponents and
    powers).  growth: e^{lambda R} lo <= A(M+d) hi; decay: hi <= A(M+d)
    e^{-lambda R} lo, with lambda the minimal |Re exponent|.
    """
    res = [z.real for z in tops]
    if mode == "growth":
        lam = min(res)
        if lam <= 0:
            raise PreconditionError(
                "growth mode needs all Re(exponent) > 0; "
                "mixed-sign sums must be split into pure parts first")
    elif mode == "decay":
        lam = min(-x for x in res)
        if lam <= 0:
            raise PreconditionError(
                "decay mode needs all Re(exponent) < 0; "
                "mixed-sign sums must be split into pure parts first")
    else:
        raise PreconditionError("mode must be 'growth' or 'decay'")
    index = sum(tops.values()) + len(tops)
    a_c = turan_constants.three_interval_constant(index)
    if mode == "growth":
        lhs = math.exp(lam * big_r) * lo
        rhs = a_c * hi
    else:
        lhs = hi
        rhs = a_c * math.exp(-lam * big_r) * lo
    return {
        "lhs": lhs,
        "rhs": rhs,
        "lambda": lam,
        "constant": a_c,
        "holds": lhs <= rhs * (1 + 1e-12),
        "index": index,
    }


def three_interval(p, big_r, ell, mode):
    """Growth/decay comparison of |p|^2 over three consecutive intervals.

    growth: e^{lambda R} int_{(l-1)R}^{lR} <= A(M+d) int_{lR}^{(l+1)R};
    decay is the mirror image.  lambda is the minimal |Re exponent| and must
    be positive with all real parts of one sign (three_interval_bound).
    """
    if big_r <= 0:
        raise PreconditionError("R must be positive")
    if int(ell) != ell or ell < 1:
        raise PreconditionError("l must be an integer >= 1")
    ell = int(ell)
    if not p.terms:
        raise PreconditionError("empty sum")
    lo = l2_integral(p, (ell - 1) * big_r, ell * big_r)
    hi = l2_integral(p, ell * big_r, (ell + 1) * big_r)
    rec = three_interval_bound(p.top_powers, lo, hi, big_r, mode)
    rec["params"] = {"R": big_r, "l": ell, "mode": mode,
                     "index": rec.pop("index")}
    return rec


# -- randomized draws and the constant estimator ---------------------------


def _draw_power_sum(rng, d):
    """Random (m, |z|, z, c) of d terms: m in 1..10, and each |z_j| is 1
    with probability 1/4, else uniform in [1, 3]."""
    m = int(rng.integers(1, 11))
    mod = np.where(rng.random(d) < 0.25, 1.0, 1.0 + 2.0 * rng.random(d))
    z = mod * np.exp(2j * math.pi * rng.random(d))
    c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return m, mod, z, c


def draw_discrete_instance(rng, dmax=4):
    """Random (z, c, m) with d in 1..dmax terms (see _draw_power_sum)."""
    d = int(rng.integers(1, dmax + 1))
    m, _, z, c = _draw_power_sum(rng, d)
    return list(z), list(c), m


def estimate_turan_constant(d, trials, seed):
    """Worst observed normalized discrete ratio over random draws.

    ratio = lhs / (((m+d)/d)^{2(d-1)} * rhs); instances with vanishing rhs
    are skipped (and counted); an all-skipped run is an error.
    """
    if d < 1 or trials < 1:
        raise PreconditionError("need d >= 1 and trials >= 1")
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
