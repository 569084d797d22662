"""Exponential sums  sum_j c_j t^b e^{zeta_j t}  and power-sum inequalities.

Carries the discrete power-sum bound, its integral form, the sup-norm and
L^2-L^2 corollaries, and the three-interval growth/decay estimates that
drive the annulus analysis of the mode systems (radial profiles become
exponential sums in t = log r).  Their constants are the closed forms of
turan_constants.

A sum is a row of a TermTable (the terms of many sums as flat arrays),
the one representation of an exponential sum here.  Every inequality
has one batched kernel reading a table; the single-instance functions
take a one-row table and call it.  The random drawers likewise fill a
whole batch as arrays, and a single instance is their one-row case.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import turan_constants
from .closed_form import ParameterError

SUP_SAMPLES = 2048  # sup_norms_sq grid points per row before the refine
TURAN_SLACK = 1e-12  # the relative slack of every Turan inequality's holds
DISCRETE_DMAX = 4  # the discrete sweep's largest number of terms


class RangeError(ArithmeticError):
    """Evaluation left the floating-point range."""


class NumericError(RuntimeError):
    """A randomized draw could not produce a usable instance."""


_NO_TERMS = (np.zeros(0, dtype=complex), np.zeros(0, dtype=complex),
             np.zeros(0, dtype=int), np.zeros(0, dtype=int))


@dataclass(frozen=True, eq=False)
class TermTable:
    """The terms of ``rows`` exponential sums as flat arrays, one entry per
    term: coefficient, exponent, power and the row (sum) it belongs to.
    A single sum is a one-row table.

    Rows are contiguous and in order, and the terms of a row are in
    normalized order (real part, imaginary part, power; like terms keep
    their order and are not merged, since every kernel is linear in the
    terms).  from_parts is the one constructor, and it checks every term.
    """

    coeff: np.ndarray
    exponent: np.ndarray
    power: np.ndarray
    row: np.ndarray
    rows: int

    @classmethod
    def from_parts(cls, parts, rows):
        """The table of the (coeff, exponent, power, row) array quadruples
        of ``parts``, put in row and normalized order.  A negative power
        or a non-finite coefficient or exponent raises ParameterError."""
        c, z, b, r = (np.concatenate(v) for v in zip(_NO_TERMS, *parts))
        if (b < 0).any():
            raise ParameterError("power must be nonnegative")
        if not (np.isfinite(c).all() and np.isfinite(z).all()):
            raise ParameterError("coefficient and exponent must be finite")
        order = np.lexsort((b, z.imag, z.real, r))
        return cls(c[order], z[order], b[order], r[order], rows)

    def sizes(self):
        """The number of terms of each row."""
        return np.bincount(self.row, minlength=self.rows)

    def with_mirrors(self):
        """The rows of this table, then each row's decay-form reflection:
        exponents -conj(zeta), coefficients and powers kept."""
        return TermTable.from_parts(
            [(self.coeff, self.exponent, self.power, self.row),
             (self.coeff, -self.exponent.conj(), self.power,
              self.row + self.rows)], 2 * self.rows)

    def shifted(self, c):
        """Each row p as p(t + c), expanded exactly: a term a t^b e^{zeta t}
        becomes the terms C(b, i) c^(b-i) e^{zeta c} a t^i e^{zeta t} for
        i = 0..b, like terms unmerged (distinct() reads repeated
        exponents)."""
        count = self.power + 1
        src = np.repeat(np.arange(len(count)), count)
        b = self.power[src]
        i = np.arange(len(src)) - np.repeat(np.cumsum(count) - count, count)
        binom = np.array([math.comb(*bi) for bi in zip(b.tolist(),
                                                         i.tolist())],
                         dtype=float)
        coeff = (self.coeff[src] * np.exp(self.exponent[src] * c) * binom
                 * float(c) ** (b - i))
        return TermTable.from_parts(
            [(coeff, self.exponent[src], i, self.row[src])], self.rows)

    def distinct(self):
        """Per row, d (the number of distinct exponents) and M (the sum over
        them of the highest power each carries)."""
        new = np.ones(len(self.row), dtype=bool)
        new[1:] = ((self.row[1:] != self.row[:-1])
                   | (self.exponent[1:] != self.exponent[:-1]))
        last = np.ones(len(self.row), dtype=bool)  # last term of its exponent
        last[:-1] = new[1:]
        d = np.bincount(self.row[new], minlength=self.rows)
        big_m = np.bincount(self.row[last], weights=self.power[last],
                            minlength=self.rows).astype(int)
        return d, big_m

    def row_terms(self):
        """Each row's terms as a list of (coeff, exponent, power) tuples of
        Python numbers, for the scalar evaluation _eval_terms."""
        terms = list(zip(self.coeff.tolist(), self.exponent.tolist(),
                         self.power.tolist()))
        ends = np.cumsum(self.sizes()).tolist()
        return [terms[s:e] for s, e in zip([0] + ends[:-1], ends)]


def _eval_terms(terms, t):
    """sum c t^power e^{exponent t} over (c, exponent, power) tuples, in
    their order, in scalar complex arithmetic; cmath.exp raises
    OverflowError, and the sum may be inf or nan."""
    acc = 0j
    for c, z, b in terms:
        val = c * cmath.exp(z * t)
        if b:
            val *= t ** b
        acc += val
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


def l2_integrals(table, t0, t1):
    """Integrals of |p(t)|^2 over [t0, t1] for every row p of the
    TermTable ``table`` in one poly_exp_integrals call.

    t0 and t1 have shape (table.rows, k): row i holds k intervals of row
    i.  |p|^2 expands into the pair terms t^(b+b') e^{(zeta + conj zeta')
    t}; each row sums its pairs' integrals in pair order, and negative
    roundoff is clipped to 0.
    """
    c, z, b = table.coeff, table.exponent, table.power
    # pair q of row s is its terms (i, j) = divmod(q - pair0, n_s) + term0,
    # row by row
    size = table.sizes()
    seg = np.repeat(np.arange(table.rows), size ** 2)
    pair0 = np.repeat(np.cumsum(size ** 2) - size ** 2, size ** 2)
    term0 = (np.cumsum(size) - size)[seg]
    il, jl = np.divmod(np.arange(len(seg)) - pair0, size[seg])
    i, j = il + term0, jl + term0
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    # the integrals of pair (j, i) are the conjugates of those of (i, j)
    # (poly_exp_integrals is conjugation-symmetric, bit for bit up to the
    # sign of a zero imaginary part), so only the pairs i <= j go through
    # the kernel
    upper = il <= jl
    ints = np.empty((len(seg), t0.shape[1]), dtype=complex)
    ints[upper] = poly_exp_integrals(
        (b[i] + b[j])[upper, None], (z[i] + z[j].conj())[upper, None],
        t0[seg[upper]], t1[seg[upper]])
    mirror = pair0 + jl * size[seg] + il
    ints[~upper] = ints[mirror[~upper]].conj()
    vals = ((c[i] * c[j].conj())[:, None] * ints).real
    k = t0.shape[1]
    acc = np.bincount((seg[:, None] * k + np.arange(k)).ravel(),
                      weights=vals.ravel(), minlength=table.rows * k)
    return np.maximum(acc, 0.0).reshape(table.rows, k)


def _one_row(table):
    """Refuse a table that is not a single sum."""
    if table.rows != 1:
        raise ParameterError(f"needs a one-row TermTable, got "
                             f"{table.rows} rows")


def l2_integral(p, t0, t1):
    """Integral of |p(t)|^2 over [t0, t1] in closed form, for the one-row
    TermTable p (l2_integrals on the one interval)."""
    _one_row(p)
    return float(l2_integrals(p, [[t0]], [[t1]])[0, 0])


def _abs_sq_grid(terms, ts):
    """|p|^2 at every point of the array ts in one numpy pass per term, for
    the row terms of p; overflow raises RangeError as in _abs_sq."""
    acc = np.zeros(len(ts), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for c, z, b in terms:
            val = c * np.exp(z * ts)
            if b:
                val *= ts ** b
            acc += val
    if not np.isfinite(acc).all():
        raise RangeError(f"evaluation overflowed on [{ts[0]}, {ts[-1]}]")
    return np.abs(acc) ** 2


def _abs_sq(terms, t):
    """|p(t)|^2 for the row terms of p in the scalar arithmetic of
    _eval_terms; overflow raises RangeError."""
    try:
        v = abs(_eval_terms(terms, t)) ** 2
    except OverflowError as exc:
        raise RangeError(f"exp overflow at t={t}") from exc
    if not v < math.inf:
        raise RangeError(f"evaluation overflowed at t={t}")
    return v


def _golden_max(terms, lo, hi):
    """The maximum of |p|^2 on [lo, hi] by 80 golden-section steps, for the
    row terms of p: each step keeps the surviving interior point's value
    and evaluates one new point; the result is |p|^2 at the final
    midpoint."""
    gr = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - gr * (b - a)
    dd = a + gr * (b - a)
    fc, fd = _abs_sq(terms, c), _abs_sq(terms, dd)
    for _ in range(80):
        if fc > fd:
            b, dd, fd = dd, c, fc
            c = b - gr * (b - a)
            fc = _abs_sq(terms, c)
        else:
            a, c, fc = c, dd, fd
            dd = a + gr * (b - a)
            fd = _abs_sq(terms, dd)
    return _abs_sq(terms, (a + b) / 2)


def sup_norms_sq(table, t0, t1):
    """sup of |p|^2 on [t0[i], t1[i]] for every row p of ``table``: dense
    sampling plus a golden-section refine around the best sample.

    The grid is evaluated in numpy; the best sample and the refine use the
    scalar arithmetic of _eval_terms, so a maximum at an endpoint keeps
    its scalar value."""
    out = []
    for terms, lo, hi in zip(table.row_terms(), np.ravel(t0).tolist(),
                             np.ravel(t1).tolist()):
        ts = np.linspace(lo, hi, SUP_SAMPLES)
        i = int(np.argmax(_abs_sq_grid(terms, ts)))
        out.append(max(_golden_max(terms, float(ts[max(i - 1, 0)]),
                                   float(ts[min(i + 1, SUP_SAMPLES - 1)])),
                       _abs_sq(terms, float(ts[i]))))
    return np.array(out)


# -- power sums and the discrete bound -------------------------------------


def turan_discrete_batch(z, c, m):
    """The discrete power-sum bound on N instances with d terms each.

    z and c have shape (N, d), m shape (N,).  Returns arrays lhs = |S_0|^2,
    rhs = max |S_{m+1..m+d}|^2 (S_ell = sum_j c_j z_j^ell), constant =
    T_d(m)^2 (turan_constants.discrete_constant, exact until it is made a
    float here) and holds = lhs <= constant * rhs up to TURAN_SLACK.
    A non-finite constant, lhs or rhs raises RangeError naming it; the
    constant is checked before the (N, d, d) power array is made, so it
    fails fast for every d >= 513, where T_d(m)^2 > 4^(d-1) >= 2^1024
    leaves the float range.  The product constant * rhs may overflow to
    inf, which holds.
    """
    z = np.asarray(z, dtype=complex)
    c = np.asarray(c, dtype=complex)
    m = np.asarray(m)
    d = z.shape[1]

    def finite(name, v):
        if not np.isfinite(v).all():
            raise RangeError(f"discrete bound: {name} is not finite "
                             f"at d = {d}")
        return v

    const = finite("constant", _per_key(
        lambda k: _float_or_inf(turan_constants.discrete_constant(d, k)), m))
    ells = m[:, None] + np.arange(1, d + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = (c[:, None, :] * z[:, None, :] ** ells[:, :, None]).sum(axis=2)
        lhs = finite("lhs", np.abs(c.sum(axis=1)) ** 2)
        rhs = finite("rhs", (np.abs(sums) ** 2).max(axis=1))
        holds = lhs <= const * rhs * (1 + TURAN_SLACK)
    return {"lhs": lhs, "rhs": rhs, "constant": const, "holds": holds}


def _float_or_inf(n):
    """The int n as a float, inf when it leaves the float range."""
    try:
        return float(n)
    except OverflowError:
        return math.inf


def _per_key(const, keys):
    """const(k) for every entry k of the int array keys, as an array, with
    one call per distinct k."""
    uniq, at = np.unique(keys, return_inverse=True)
    return np.array([const(k) for k in uniq.tolist()])[at]


def turan_discrete(z, c, m):
    """Discrete power-sum bound: |S_0|^2 against the next d sums after m.

    The one-instance case of turan_discrete_batch, as a record with lhs,
    rhs, constant, the holds flag and params.  |z_j| >= 1 is checked up
    to a roundoff margin of 1e-12.
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


def turan_integral_batch(table, a, b):
    """turan_integral's record, without params, for every row of the
    TermTable ``table`` at once: a and b hold one interval per row, every
    interval integral comes from one l2_integrals call and every sup from
    one sup_norms_sq call, and each entry is an array."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    big_r = b / 2
    integral, tail, head = l2_integrals(
        table, np.stack([a, 1.5 * big_r, np.zeros(table.rows)], axis=1),
        np.stack([b, 2 * big_r, big_r], axis=1)).T
    d = np.maximum(table.distinct()[0], 1)
    a_d = turan_constants.integral_constant(d, a, b)
    a_sup = turan_constants.sup_constant(d)
    a_l2 = _per_key(turan_constants.l2l2_constant, d)
    lhs = np.array([_abs_sq(terms, 0.0) for terms in table.row_terms()])
    bound = a_d * integral
    sup_sq = sup_norms_sq(table, np.zeros(table.rows), big_r)
    sup_bound = a_sup / big_r * tail
    l2_bound = a_l2 * tail
    return {
        "lhs": lhs,
        "integral": integral,
        "constant": a_d,
        "bound": bound,
        "holds": lhs <= bound * (1 + TURAN_SLACK),
        "sup_form": {"lhs": sup_sq, "bound": sup_bound, "constant": a_sup,
                     "holds": sup_sq <= sup_bound * (1 + TURAN_SLACK)},
        "l2_form": {"lhs": head, "bound": l2_bound, "constant": a_l2,
                    "holds": head <= l2_bound * (1 + TURAN_SLACK)},
    }


def turan_integral(p, a, b):
    """Integral form of the power-sum bound plus its two interval variants.

    p is a one-row TermTable with all exponents of nonnegative real part
    and no powers.  lhs = |p(0)|^2; bound = K_d(0; a, b) int_a^b |p|^2,
    with the Legendre Christoffel function K_d
    (turan_constants.integral_constant).  The sup-norm and L^2-L^2
    variants are evaluated on [0, R] against [3R/2, 2R] with R = b/2.
    The one-sum case of turan_integral_batch.
    """
    _one_row(p)
    if not 0 < a < b:
        raise ParameterError("need 0 < a < b")
    if (b - a) / b < 1e-8:
        raise ParameterError("degenerate interval")
    if p.power.any():
        raise ParameterError("integral form needs pure exponentials")
    if (p.exponent.real < 0).any():
        raise ParameterError("all Re(exponent) must be >= 0")
    rec = _first(turan_integral_batch(p, [a], [b]))
    rec["params"] = {"d": max(int(p.distinct()[0][0]), 1), "a": a, "b": b,
                     "R": b / 2}
    return rec


def _first(rec):
    """Entry 0 of every array in a batched record, as Python scalars."""
    if isinstance(rec, dict):
        return {k: _first(v) for k, v in rec.items()}
    return np.ravel(rec)[0].item()


def _mixed_signs(mode):
    sign = ">" if mode == "growth" else "<"
    return ParameterError(
        f"{mode} mode needs all Re(exponent) {sign} 0; "
        "mixed-sign sums must be split into pure parts first")


def _check_modes(modes):
    """The growth flags of ``modes`` (a mode or an array of them)."""
    modes = np.asarray(modes)
    if not np.all((modes == "growth") | (modes == "decay")):
        raise ParameterError("mode must be 'growth' or 'decay'")
    return modes == "growth"


def three_interval_record(lam, index, lo, hi, big_r, growth):
    """The three-interval inequality from the interval integrals lo and hi
    of |p|^2 over the lower and the upper interval, for sums p with rate
    lam (the least |Re exponent|) and integer index M + d, all arrays of
    one entry per sum (big_r and the growth flags may be scalars):
    growth: e^{lambda R} lo <= A(M+d) hi; decay: hi <= A(M+d) e^{-lambda
    R} lo, with A the Gram-pencil constant
    turan_constants.three_interval_constant."""
    a_c = _per_key(turan_constants.three_interval_constant, index)
    lhs = np.where(growth, np.exp(lam * big_r) * lo, hi)
    rhs = np.where(growth, a_c * hi, a_c * np.exp(-lam * big_r) * lo)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "lambda": lam,
        "constant": a_c,
        "holds": lhs <= rhs * (1 + TURAN_SLACK),
        "index": index,
    }


def three_interval_batch(table, big_r, ell, modes):
    """three_interval on every row of the TermTable ``table`` at once:
    big_r, ell and modes hold one entry per row, every interval integral
    comes from one l2_integrals call, and the record is
    three_interval_record's with one array entry per row."""
    growth = _check_modes(modes)
    size = table.sizes()
    if not size.all():
        raise ParameterError("empty sum")
    # each row is sorted by real part: its first term has the least, its
    # last the largest
    last = np.cumsum(size) - 1
    re = table.exponent.real
    lam = np.where(growth, re[last - size + 1], -re[last])
    bad = np.flatnonzero(lam <= 0)
    if bad.size:
        raise _mixed_signs("growth" if growth[bad[0]] else "decay")
    d, big_m = table.distinct()
    big_r = np.asarray(big_r, dtype=float)
    ends = np.asarray(ell)[:, None] + np.arange(-1, 2)
    edges = ends * big_r[:, None]
    lo, hi = l2_integrals(table, edges[:, :2], edges[:, 1:]).T
    return three_interval_record(lam, big_m + d, lo, hi, big_r, growth)


def three_interval(p, big_r, ell, mode):
    """Growth/decay comparison of |p|^2 over three consecutive intervals,
    for the one-row TermTable p.

    growth: e^{lambda R} int_{(l-1)R}^{lR} <= A(M+d) int_{lR}^{(l+1)R};
    decay is the mirror image.  lambda is the minimal |Re exponent| and must
    be positive with all real parts of one sign (three_interval_batch).
    The one-sum case of three_interval_batch.
    """
    _one_row(p)
    if big_r <= 0:
        raise ParameterError("R must be positive")
    if int(ell) != ell or ell < 1:
        raise ParameterError("l must be an integer >= 1")
    ell = int(ell)
    rec = _first(three_interval_batch(p, [big_r], [ell], [mode]))
    rec["params"] = {"R": big_r, "l": ell, "mode": mode,
                     "index": rec.pop("index")}
    return rec


# -- randomized draws -------------------------------------------------------
#
# Each drawer draws a whole batch of instances with one generator call per
# variate (per exponent slot and per budget step where a draw depends on
# the slots before it).  Its one-row case makes exactly the generator
# calls, in order, of a draw made one variate at a time.


def _power_sums(rng, d):
    """(m, |z|, z, c) of len(d) random power sums, sum i of d[i] terms: m
    of shape (len(d),) in 1..10; |z|, z and c flat, sum after sum, with
    each |z_j| 1 with probability 1/4, else uniform in [1, 3].  The
    generator calls, in order: m, then the unit-modulus coin, the modulus,
    the angle and the coefficients' real and imaginary parts."""
    n = int(np.sum(d))
    m = rng.integers(1, 11, size=len(d))
    coin, u, angle = rng.random(n), rng.random(n), rng.random(n)
    re, im = rng.standard_normal(n), rng.standard_normal(n)
    mod = np.where(coin < 0.25, 1.0, 1.0 + 2.0 * u)
    return m, mod, mod * np.exp(2j * math.pi * angle), re + 1j * im


def _draw_power_sum(rng, d):
    """Random (m, |z|, z, c) of d terms: the one-sum case of _power_sums."""
    m, mod, z, c = _power_sums(rng, [d])
    return int(m[0]), mod, z, c


def draw_discrete_instances(rng, trials):
    """``trials`` random power sums, each of d terms with d uniform in
    1..DISCRETE_DMAX, grouped by d: {d: (z, c, m)} with z and c of shape
    (count, d) and m of shape (count,), in draw order within each d."""
    d = rng.integers(1, DISCRETE_DMAX + 1, size=trials)
    m, _, z, c = _power_sums(rng, d)
    first = np.cumsum(d) - d
    out = {}
    for k in np.unique(d).tolist():
        rows = np.flatnonzero(d == k)
        cols = first[rows, None] + np.arange(k)
        out[k] = (z[cols], c[cols], m[rows])
    return out


def _place_exponents(rng, placed, re_range, d):
    """One new exponent for each row of ``placed`` (that row's exponents so
    far, out of d of them): real part uniform in re_range, imaginary part
    in [-3, 3].  Every row draws, then the rows whose draw lies within 0.5
    of one of their earlier exponents draw again, up to 10000 draws in
    all; past them NumericError names d, the slot and the box."""
    out = np.empty(len(placed), dtype=complex)
    todo = np.arange(len(placed))
    draws = 0
    while todo.size:
        if draws == 10000:
            lo, hi = re_range
            raise NumericError(
                f"could not place separated exponents: exponent "
                f"{placed.shape[1] + 1} of d = {d[todo[0]]} found no point "
                f"0.5 from the earlier ones in the box Re in [{lo}, {hi}], "
                "Im in [-3, 3] after 10000 draws")
        draws += 1
        zeta = np.empty(todo.size, dtype=complex)
        zeta.real = rng.uniform(*re_range, size=todo.size)
        zeta.imag = rng.uniform(-3.0, 3.0, size=todo.size)
        ok = (np.abs(zeta[:, None] - placed[todo]) >= 0.5).all(axis=1)
        out[todo[ok]] = zeta[ok]
        todo = todo[~ok]
    return out


def _exponent_slots(rng, d, re_range, powers):
    """The exponents and terms of len(d) random sums, sum i with d[i]
    exponents, placed slot by slot: slot s places exponent s of every sum
    with d > s (_place_exponents), draws its top powers (uniform in
    0..powers; 0 when powers is None, without a draw) and one complex
    standard normal coefficient for each power up to the top.  Returns the
    (len(d), max d) exponent array, +inf past a sum's d, and the terms as
    (coeff, exponent, power, row) array quadruples, one per slot."""
    d = np.asarray(d, dtype=int)
    zs = np.full((len(d), int(d.max(initial=0))), np.inf, dtype=complex)
    parts = []
    for s in range(zs.shape[1]):
        live = np.flatnonzero(d > s)
        zeta = _place_exponents(rng, zs[live, :s], re_range, d[live])
        zs[live, s] = zeta
        count = 1 + (np.zeros(live.size, dtype=int) if powers is None
                     else rng.integers(0, powers + 1, size=live.size))
        first = np.cumsum(count) - count
        total = int(count.sum())
        # re, im of each coefficient in turn: a complex view of the pairs
        coeff = rng.standard_normal(2 * total).view(complex)
        parts.append((coeff, np.repeat(zeta, count),
                      np.arange(total) - np.repeat(first, count),
                      np.repeat(live, count)))
    return zs, parts


def draw_expsum_table(rng, d, re_range=(0.0, 2.0), powers=None):
    """len(d) random sums as a TermTable, row i with d[i] distinct
    exponents and an optional power budget.

    Imaginary parts are uniform in [-3, 3].  Exponents are kept at least
    0.5 apart (the regime of integer-spaced indicial roots these sums come
    from): a nearly coincident pair is the multiplicity case in disguise
    and is drawn via explicit powers instead, keeping observed inequality
    ratios at their stated index.  Each exponent carries the powers 0 to
    a top power uniform in 0..powers (0 when powers is None), each with a
    complex standard normal coefficient.
    """
    _, parts = _exponent_slots(rng, d, re_range, powers)
    return TermTable.from_parts(parts, len(d))


def draw_budget_table(rng, d, budget):
    """len(d) random growth-type sums as a TermTable: row i with d[i]
    exponents (real parts in [0.05, 2], draw_expsum_table) and budget[i]
    extra log powers, each raising the top power of a uniformly chosen
    exponent of its row by one with a new coefficient; the index M + d of
    row i is d[i] + budget[i].  Step k of the budget draws the choices,
    then the coefficients, of every row with budget > k."""
    d = np.asarray(d, dtype=int)
    budget = np.asarray(budget, dtype=int)
    zs, parts = _exponent_slots(rng, d, (0.05, 2.0), None)
    # the choice indexes a row's exponents in normalized order (real part,
    # then imaginary part); the +inf padding sorts last
    order = np.lexsort((zs.imag, zs.real))
    top = np.zeros(zs.shape, dtype=int)
    for k in range(int(budget.max(initial=0))):
        live = np.flatnonzero(budget > k)
        slot = order[live, rng.integers(0, d[live])]
        top[live, slot] += 1
        coeff = rng.standard_normal(2 * live.size).view(complex)
        parts.append((coeff, zs[live, slot], top[live, slot], live))
    return TermTable.from_parts(parts, len(d))

