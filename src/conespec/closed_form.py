"""Closed-form growth rates, eigenvalue formulas, and exceptional-value sets.

Ground truth for the mode systems: kernel rates of the gauge operator on
1-forms (plain and t-modified), the integer exceptional sets they generate,
the exceptional set of Laplacian powers on 2-tensors, and the scalar
indicial polynomial of a Laplacian power acting on r^z times a spherical
harmonic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .linalg import poly_eval, poly_mul, poly_sum


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


def modified_typeI_rates(n, t, j):
    """Closed-form kernel exponents of the t-modified gauge operator, type I.

    Roots of z^2 + (n-4-t) z - (mu - 2t) with mu the type-I eigenvalue:
    ( -(n-4-t) +- sqrt((n-2+2j)^2 - 2nt + t^2) ) / 2.
    """
    if abs(t) >= n / 2:
        raise ParameterError("need |t| < n/2")
    if j < 1:
        raise ParameterError("type I needs j >= 1")
    disc = (n - 2 + 2 * j) ** 2 - 2 * n * t + t * t
    root = np.sqrt(complex(disc))
    base = -(n - 4 - t)
    return ((base + root) / 2, (base - root) / 2)


def modified_typeII_matrix(n, t, nu):
    """Coefficient matrix polynomial (in z, low-order first) of the modified
    type II system in the displayed (l, u) variables: exact (int and
    Fraction) entries for a t that is not a float, floats for a float t."""
    if not isinstance(t, float):
        t, nu = Fraction(t), Fraction(nu)
    two = [(-4) * (n - 2 - t / 2 + nu / 4), 2 * (n - 4 - t), 2]
    off1 = [4 * nu, -nu]
    off2 = [n - t, 1]
    last = [-2 * (nu - t), (n - 4 - t), 1]
    return [[two, off1], [off2, last]]


def modified_typeII_roots(n, t, j):
    """Kernel exponents of the t-modified gauge operator, type II, degree j.

    For nu > 0: the four roots of the determinant quartic, by np.roots.
    For nu = 0 the function-derived branch decouples; only its two
    geometric roots are returned (the differential part of the angular
    seed vanishes), with the spurious branch listed separately.
    """
    if abs(t) >= n / 2:
        raise ParameterError("need |t| < n/2")
    nu = typeII_eigenvalue(n, j)
    mat = modified_typeII_matrix(n, t, nu)
    if nu == 0:
        # l-equation decouples: 2z^2 + 2(n-4-t)z - 4(n-2-t/2)
        geo = np.roots([2, 2 * (n - 4 - t), -4 * (n - 2 - t / 2)])
        spur = np.roots([1, (n - 4 - t), 2 * t])
        return {"roots": sorted(geo, key=lambda z: z.real),
                "non_geometric": sorted(spur, key=lambda z: z.real)}
    det = poly_sum([poly_mul(mat[0][0], mat[1][1]),
                    [-c for c in poly_mul(mat[0][1], mat[1][0])]])
    roots = np.roots([float(c) for c in reversed(det)])
    return {"roots": sorted(roots, key=lambda z: (z.real, z.imag)),
            "non_geometric": []}


def modified_gauge_rates(n, t, family, j):
    """Kernel exponents of the t-modified gauge operator (both families)."""
    if family == "typeI":
        return {"roots": list(modified_typeI_rates(n, t, j)),
                "non_geometric": []}
    if family == "typeII":
        return modified_typeII_roots(n, t, j)
    raise ParameterError("family must be 'typeI' or 'typeII'")


def essential_linear_gap(n, t, j_max=10):
    """Width of the growth-order window around 1 free of non-rigid rates.

    Scans all modified-gauge kernel rates up to degree j_max, removes the
    rigid-motion families (the rotation-derived rate of exact order 1 and
    the translation-derived rate of exact order 0), and returns the largest
    gamma in (0, 1) such that no remaining rate has growth order with real
    part in [1 - gamma, 1 + gamma] (reported as a supremum).  At t = 0 the
    gap is 0, witnessed by the dilation and the degree-2 conformal field.
    """
    if n < 3:
        raise ParameterError("need n >= 3")
    if abs(t) > 0.5:
        raise ParameterError("scan restricted to |t| <= 0.5")
    if j_max < 3:
        raise ParameterError("need j_max >= 3")
    witnesses = []
    orders = []

    for j in range(1, j_max + 1):
        plus, minus = modified_typeI_rates(n, t, j)
        for root, branch in ((plus, "upper"), (minus, "lower")):
            if j == 1 and branch == "upper":
                continue  # rotation family: order exactly 1 for every t
            orders.append((root - 1, f"typeI j={j} {branch}"))
    for j in range(0, j_max + 1):
        rec = modified_typeII_roots(n, t, j)
        roots = list(rec["roots"])
        if j == 1:
            # translation family: exact root z = 1 (order 0) for every t
            idx = min(range(len(roots)), key=lambda i: abs(roots[i] - 1))
            del roots[idx]
        for root in roots:
            orders.append((root - 1, f"typeII j={j}"))

    gap = 1.0
    near = []
    for order, label in orders:
        dist = abs(complex(order).real - 1.0)
        near.append((dist, label, complex(order)))
        gap = min(gap, dist)
    near.sort(key=lambda rec: rec[0])
    witnesses = [{"order_re": rec[2].real, "order_im": rec[2].imag,
                  "label": rec[1], "distance": rec[0]} for rec in near[:4]]
    # report root collisions instead of asserting a smallness threshold on t
    collisions = []
    vals = sorted(orders, key=lambda rec: (complex(rec[0]).real,
                                           complex(rec[0]).imag))
    for (a, la), (b, lb) in zip(vals, vals[1:]):
        if la != lb and abs(complex(a) - complex(b)) < 1e-9:
            collisions.append({"order_re": complex(a).real,
                               "labels": [la, lb]})
    return {"gamma0": 0.0 if gap < 1e-14 else min(gap, 1.0),
            "witnesses": witnesses, "collisions": collisions,
            "n": n, "t": t, "j_max": j_max}


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
