"""Closed-form growth rates, eigenvalue formulas, and exceptional-value sets.

Ground truth for the mode systems: kernel rates of the gauge operator on
1-forms (plain and t-modified), the integer exceptional sets they generate,
the exceptional set of Laplacian powers on 2-tensors, and the scalar
indicial polynomial of a Laplacian power acting on r^z times a spherical
harmonic.  The t-modified rates are decided on exact kernel polynomials
at an int or Fraction t; their floats are for display only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import (int_gcd, poly_axis_root_count, poly_clear_denominators,
                     poly_divmod, poly_eval, poly_mul, poly_squarefree_factors,
                     poly_sum)


class ParameterError(ValueError):
    pass


def validate_nk(n, k):
    """Admissible (n, k): n = 3 with k = 1, or n even with 1 <= k <= n/2 - 1."""
    if n == 3 and k == 1:
        return
    if n >= 4 and n % 2 == 0 and 1 <= k <= n // 2 - 1:
        return
    raise ParameterError(
        f"invalid pair (n={n}, k={k}): need n=3 with k=1, or even n >= 4 "
        f"with 1 <= k <= n/2 - 1")


def typeI_eigenvalue(n, j):
    """Rough-Laplacian eigenvalue on co-closed sphere 1-forms, degree j >= 1."""
    if j < 1:
        raise ParameterError("type I needs j >= 1")
    return (j + 1) * (j + n - 3)


def typeII_eigenvalue(n, j):
    """Laplacian eigenvalue on sphere functions, degree j >= 0."""
    if j < 0:
        raise ParameterError("type II needs j >= 0")
    return j * (j + n - 2)


@dataclass
class RatePair:
    """Exact solution exponents of one separated gauge-kernel family."""

    plus: Fraction
    minus: Fraction
    family: str  # "typeI" | "typeII"
    j: int
    n: int

    @property
    def shifts(self):
        """Integer shifts feeding the exceptional set.

        Type I contributes orders plus-1/minus-1; type II contributes both
        the base family (orders b-1) and the shifted family (orders b+1).
        """
        if self.family == "typeI":
            return {"a-1": (self.plus - 1, self.minus - 1)}
        return {"b-1": (self.plus - 1, self.minus - 1),
                "b+1": (self.plus + 1, self.minus + 1)}


def gauge_kernel_rates(n, family, j):
    """Exact exponents of separated kernel 1-forms of the gauge operator.

    Type I (co-closed angular part, j >= 1): exponents alpha +- theta with
    alpha = (4-n)/2 and theta^2 = alpha^2 + mu; type II (function-derived,
    j >= 0): beta +- omega with beta = (2-n)/2 and omega^2 = beta^2 + nu.
    Both radicals are exact half-integers, so the values are integers.
    """
    if n < 3:
        raise ParameterError("need n >= 3")
    if family == "typeI":
        mu = typeI_eigenvalue(n, j)
        alpha = Fraction(4 - n, 2)
        theta2 = alpha * alpha + mu
        theta = Fraction(n - 2 + 2 * j, 2)
        if theta * theta != theta2:
            raise ParameterError("non-square discriminant")  # pragma: no cover
        return RatePair(alpha + theta, alpha - theta, "typeI", j, n)
    if family == "typeII":
        nu = typeII_eigenvalue(n, j)
        beta = Fraction(2 - n, 2)
        omega = Fraction(n - 2 + 2 * j, 2)
        if omega * omega != beta * beta + nu:
            raise ParameterError("non-square discriminant")  # pragma: no cover
        return RatePair(beta + omega, beta - omega, "typeII", j, n)
    raise ParameterError("family must be 'typeI' or 'typeII'")


@dataclass
class ExceptionalSet:
    """Sorted integer values with per-value provenance tags."""

    values: list
    provenance: dict
    n: int
    j_max: int | None = None
    k: int | None = None
    window: tuple | None = None
    full_lattice: bool = False

    def __contains__(self, v):
        if self.full_lattice:
            return v == int(v)
        return v in set(self.values)


def gauge_exceptional_values(n, j_max):
    """Integer exceptional values of the gauge operator up to degree j_max.

    The union of the orders in ``RatePair.shifts`` over the type I (j >= 1)
    and type II (j >= 0) families; always contains 1.
    """
    if n < 3 or j_max < 2:
        raise ParameterError("need n >= 3 and j_max >= 2")
    prov = {}

    def tag(value, label):
        v = int(value)
        if Fraction(value) != v:
            raise ParameterError("non-integer exceptional value")  # pragma: no cover
        prov.setdefault(v, []).append(label)

    for family, j_min in (("typeI", 1), ("typeII", 0)):
        for j in range(j_min, j_max + 1):
            rp = gauge_kernel_rates(n, family, j)
            for key, (upper, lower) in rp.shifts.items():
                tag(upper, f"{family} j={j} upper{key[1:]}")
                tag(lower, f"{family} j={j} lower{key[1:]}")
    values = sorted(prov)
    return ExceptionalSet(values=values, provenance=prov, n=n, j_max=j_max)


# The rigid-motion rates, divided out of their kernel polynomials exactly
# for every t: the rotation-derived type I rate z = 2 (growth order 1) and
# the translation-derived type II rate z = 1 (growth order 0), both at j = 1.
RIGID_ROOTS = {("typeI", 1): 2, ("typeII", 1): 1}


def exact_t(t):
    """The one admission check for t, shared with the mode systems: t
    itself when it is an int or a Fraction, else ParameterError."""
    if not isinstance(t, (int, Fraction)):
        raise ParameterError(f"t = {t!r} must be an int or Fraction; the "
                             "rates and mode systems are exact")
    return t


def _exact_t(n, t):
    """t as a Fraction: an int or Fraction with |t| < n/2."""
    if 2 * abs(exact_t(t)) >= n:
        raise ParameterError("need |t| < n/2")
    return Fraction(t)


def modified_typeII_matrix(n, t, nu):
    """Coefficient matrix polynomial (in z, low-order first, Fraction
    entries) of the modified type II system in the displayed (l, u)
    variables."""
    t, nu = _exact_t(n, t), Fraction(nu)
    two = [(-4) * (n - 2 - t / 2 + nu / 4), 2 * (n - 4 - t), 2]
    off1 = [4 * nu, -nu]
    off2 = [n - t, 1]
    last = [-2 * (nu - t), (n - 4 - t), 1]
    return [[two, off1], [off2, last]]


def modified_kernel_polynomial(n, t, family, j):
    """Kernel polynomial of the t-modified gauge operator on one degree-j
    family, exact (Fractions, low order first) for an int or Fraction t.

    Type I (j >= 1): z^2 + (n-4-t) z - (mu - 2t), mu the type I
    eigenvalue.  Type II: the determinant of ``modified_typeII_matrix``;
    at nu = 0 (j = 0) the l equation decouples, and only its geometric
    pair 2z^2 + 2(n-4-t) z - 4(n-2-t/2) is kept (the differential part of
    the angular seed vanishes).
    """
    t = _exact_t(n, t)
    if family == "typeI":
        mu = typeI_eigenvalue(n, j)
        return [-(mu - 2 * t), n - 4 - t, Fraction(1)]
    if family == "typeII":
        mat = modified_typeII_matrix(n, t, typeII_eigenvalue(n, j))
        if j == 0:
            return mat[0][0]
        return poly_sum([poly_mul(mat[0][0], mat[1][1]),
                         [-c for c in poly_mul(mat[0][1], mat[1][0])]])
    raise ParameterError("family must be 'typeI' or 'typeII'")


def modified_kernel_factors(n, t, family, j):
    """Square-free factors (monic, with multiplicities) of the kernel
    polynomial with its rigid root (``RIGID_ROOTS``) divided out exactly;
    a nonzero remainder raises ArithmeticError."""
    p = modified_kernel_polynomial(n, t, family, j)
    rigid = RIGID_ROOTS.get((family, j))
    if rigid is not None:
        p, rem = poly_divmod(p, [-rigid, 1])
        if rem != [0]:
            raise ArithmeticError(f"{family} j={j}: the rigid root "
                                  f"z = {rigid} leaves remainder {rem}")
    return poly_squarefree_factors(p)


def _order(z):
    return (z.real, z.imag)


def _float_roots(f):
    """The roots of the square-free f, as floats for display, sorted.

    A rational root is shown as its exact value.  After clearing
    denominators f's leading coefficient is the lcm D of its
    denominators, and a rational root p/q has q | D, so each float root x
    from np.roots points to one candidate round(x D) / D, which is divided
    out when f vanishes there exactly.  np.roots gives the rest.
    """
    den = math.lcm(*(c.denominator for c in f))
    rest, out = f, []
    for x in np.roots([float(c) for c in reversed(f)]):
        r = Fraction(round(Fraction(x.real) * den), den)
        quo, rem = poly_divmod(rest, [-r, 1])
        if len(rest) > 1 and rem == [0]:
            rest = quo
            out.append(complex(r))
    if len(rest) > 1:
        out += map(complex, np.roots([float(c) for c in reversed(rest)]))
    return sorted(out, key=_order)


def _display_roots(factors):
    return sorted((z for f, mult in factors for z in _float_roots(f) * mult),
                  key=_order)


def modified_gauge_rates(n, t, family, j):
    """Kernel exponents of the t-modified gauge operator on one degree-j
    family, sorted by real then imaginary part, for an int or Fraction t.

    "roots" holds the rigid root, if the family has one, and each root of
    ``modified_kernel_factors`` as often as its multiplicity; at nu = 0
    (type II, j = 0), "non_geometric" holds the spurious branch, the roots
    of the decoupled u equation z^2 + (n-4-t) z + 2t.  The exact factors
    decide everything; the floats are for display.
    """
    roots = _display_roots(modified_kernel_factors(n, t, family, j))
    if (family, j) in RIGID_ROOTS:
        roots = sorted(roots + [complex(RIGID_ROOTS[family, j])], key=_order)
    spur = []
    if family == "typeII" and j == 0:
        spur = _display_roots(poly_squarefree_factors(
            modified_typeII_matrix(n, t, 0)[1][1]))
    return {"roots": roots, "non_geometric": spur}


def _coprime_base(items):
    """Pairwise coprime monic polynomials, each with the labels (and the
    multiplicities) of the items it divides, so that every root of an
    element is a root of exactly the element's labels.

    items are (label, square-free factor, multiplicity).  Each factor f
    splits every element b into g = gcd(b, f), which gains f's label, and
    b / g; what is left of f after all of them is a new element.
    """
    base = []
    for label, f, mult in items:
        out = []
        for b, owners in base:
            g = int_gcd(*map(poly_clear_denominators, (b, f)))
            if len(g) > 1:
                g = [Fraction(c, g[-1]) for c in g]
                out.append((g, {**owners, label: mult}))
                b, f = poly_divmod(b, g)[0], poly_divmod(f, g)[0]
            if len(b) > 1:
                out.append((b, owners))
        if len(f) > 1:
            out.append((f, {label: mult}))
        base = out
    return base


def essential_linear_gap(n, t, j_max=10):
    """Width of the growth-order window around 1 free of non-rigid rates.

    Takes the modified-gauge kernel rates up to degree j_max at an int or
    Fraction t, with the rigid roots (``RIGID_ROOTS``) divided out exactly,
    and returns the largest gamma in (0, 1) such that no remaining rate
    has growth order with real part in [1 - gamma, 1 + gamma] (reported as
    a supremum).  gamma0 = 0 is decided exactly: some remaining factor has
    a root with Re z = 2, by the rational-root test for a linear factor
    and otherwise by ``poly_axis_root_count``.  At t = 0 the gap is 0,
    witnessed by the dilation and the degree-2 conformal field.  The
    "witnesses" are the four roots nearest the window's centre and any
    as near as the fourth, by distance, then order, each with all its
    labels in scan order (type I by j, then type II).

    "collisions" lists one cluster per root that two or more labels
    share, with all of those labels, found by exact gcds: the factors are
    refined into a coprime base, and each base element's roots belong to
    exactly its labels.  Floats are for display only.
    """
    if n < 3:
        raise ParameterError("need n >= 3")
    t = _exact_t(n, t)
    if abs(t) > Fraction(1, 2):
        raise ParameterError("scan restricted to |t| <= 0.5")
    if j_max < 3:
        raise ParameterError("need j_max >= 3")
    labels = ([("typeI", j) for j in range(1, j_max + 1)]
              + [("typeII", j) for j in range(j_max + 1)])
    base = _coprime_base([
        (label, f, mult) for label in labels
        for f, mult in modified_kernel_factors(n, t, *label)])

    orders = {}  # (base element, index of its root) -> float growth order
    rows = {label: [] for label in labels}
    on_axis = False
    for i, (b, owners) in enumerate(base):
        on_axis |= (poly_eval(b, 2) == 0 if len(b) == 2
                    else poly_axis_root_count(b, 2) > 0)
        for k, z in enumerate(_float_roots(b)):
            orders[i, k] = z - 1
            for label, mult in owners.items():
                rows[label] += [(i, k)] * mult
    named = []  # (label of one root, its key), in the scan's order
    for family, j in labels:
        keys = sorted(rows[family, j], key=lambda key: _order(orders[key]))
        if family == "typeI":
            # upper first; at j = 1 only the lower root is left
            named += reversed([(f"typeI j={j} {branch}", key) for branch, key
                               in zip(("lower", "upper"), keys)])
        else:
            named += [(f"typeII j={j}", key) for key in keys]

    labels_at = {}  # root -> the labels that share it, in the scan's order
    for label, key in named:
        labels_at.setdefault(key, {})[label] = None
    distance = {key: abs(orders[key].real - 1.0) for key in labels_at}
    near = sorted(labels_at, key=lambda k: (distance[k], _order(orders[k])))
    witnesses = [{"order_re": orders[key].real, "order_im": orders[key].imag,
                  "labels": list(labels_at[key]), "distance": distance[key]}
                 for key in near if distance[key] <= distance[near[:4][-1]]]
    collisions = [{"order_re": orders[key].real, "order_im": orders[key].imag,
                   "labels": list(labels_at[key])}
                  for key in sorted(labels_at, key=lambda k: _order(orders[k]))
                  if len(base[key[0]][1]) > 1]
    gamma0 = 0.0 if on_axis else min([1.0] + list(distance.values()))
    return {"gamma0": gamma0, "witnesses": witnesses,
            "collisions": collisions, "n": n, "t": t, "j_max": j_max}


def polyharmonic_exceptional_values(n, k, window=(-12, 12)):
    """Exceptional integer growth rates for the (k+1)-st Laplacian power.

    For n > 2(k+1): every integer except -1, -2, ..., 2(k+1) - (n-1).
    For n <= 2(k+1) (the critical dimension n = 2(k+1), and n = 3, k = 1):
    every integer.  Returned truncated to the window.
    """
    validate_nk(n, k)
    lo, hi = window
    if lo > hi:
        raise ParameterError("need window lo <= hi")
    prov = {}
    if n > 2 * (k + 1):
        gap_lo = 2 * (k + 1) - (n - 1)
        excluded = set(range(gap_lo, 0))
        values = [v for v in range(lo, hi + 1) if v not in excluded]
        for v in values:
            prov[v] = ["power-rule"]
        return ExceptionalSet(values=values, provenance=prov, n=n, k=k,
                              window=window, full_lattice=False)
    values = list(range(lo, hi + 1))
    for v in values:
        prov[v] = ["power-rule (full lattice)"]
    return ExceptionalSet(values=values, provenance=prov, n=n, k=k,
                          window=window, full_lattice=True)


def scalar_indicial_polynomial(n, k, s):
    """Indicial polynomial of the (k+1)-st Laplacian power on r^z * (degree-s
    spherical harmonic): product over i <= k of
    (z - 2i)(z - 2i + n - 2) - s(s + n - 2).  Fraction coefficients, low first.
    """
    if s < 0:
        raise ParameterError("need s >= 0")
    poly = [Fraction(1)]
    ev = Fraction(s * (s + n - 2))
    for i in range(k + 1):
        # (z - 2i)(z - 2i + n - 2) - ev
        c0 = Fraction((-2 * i) * (-2 * i + n - 2)) - ev
        c1 = Fraction(2 * (-2 * i) + n - 2)
        poly = poly_mul(poly, [c0, c1, Fraction(1)])
    return poly


def scalar_indicial_roots(n, k, s):
    """Exact integer roots with multiplicity of the scalar indicial polynomial."""
    roots = {}
    for i in range(k + 1):
        for z in (s + 2 * i, 2 - n - s + 2 * i):
            roots[z] = roots.get(z, 0) + 1
    poly = scalar_indicial_polynomial(n, k, s)
    for z in roots:
        if poly_eval(poly, Fraction(z)) != 0:
            raise ArithmeticError("root table inconsistent")  # pragma: no cover
    return dict(sorted(roots.items()))
