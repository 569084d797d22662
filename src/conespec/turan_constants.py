"""Closed-form constants of the power-sum inequalities.

Each constant depends only on the number d of distinct exponents (the
index M + d for the three-interval form) and on the intervals, as in
Turan's first main theorem (P. Turan, On a New Method of Analysis and Its
Applications, Wiley 1984).  No constant is sampled or scaled by a safety
factor:

- the discrete constant T_d(m)^2 is the sharp one of that theorem;
- the integral, sup, L^2-L^2 and three-interval constants are the
  confluent limits of their ratios, reached as every exponent tends to 0,
  where an exponential sum of d terms becomes a polynomial of degree
  < d.  That they are the sups over all admissible exponents is a
  conjecture, supported by high-precision searches that never beat them.

The two Gram-pencil eigenvalues are computed exactly, once per process
and size, on first use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .linalg import (det_dense, lagrange_coefficients, poly_derivative,
                     poly_eval)


def discrete_constant(d, m):
    """T_d(m)^2 as an exact int, T_d(m) = sum_{k<d} C(m+k, k) 2^k: the
    sharp constant of |S_0|^2 <= T_d(m)^2 max_{m<nu<=m+d} |S_nu|^2 for
    d terms with every |z_j| >= 1."""
    t = sum(math.comb(m + k, k) << k for k in range(d))
    return t * t


def integral_constant(d, a, b):
    """The Legendre Christoffel function K_d(0; a, b) =
    sum_{k<d} (2k+1)/(b-a) P_k((a+b)/(b-a))^2, elementwise on the
    broadcast arrays d, a and b: the sup of |q(0)|^2 / int_a^b |q|^2 over
    polynomials q of degree < d.  P_k comes from the three-term recurrence
    (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}, one array step per k."""
    d, a, b = np.broadcast_arrays(np.asarray(d), np.asarray(a, dtype=float),
                                  np.asarray(b, dtype=float))
    x = (a + b) / (b - a)
    prev, cur = np.zeros(x.shape), np.ones(x.shape)
    acc = np.zeros(x.shape)
    for k in range(int(d.max(initial=0))):
        acc += np.where(k < d, (2 * k + 1) * cur ** 2, 0.0)
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return acc / (b - a)


def sup_constant(d):
    """K_d(0; 3/2, 2), elementwise on the array d: the sup of
    sup_{[0, 1]} |q|^2 / int_{3/2}^2 |q|^2 over polynomials q of degree
    < d, which is the maximum of K_d(x; 3/2, 2) over x in [0, 1].  That
    sums the squares of P_k(4x - 7), and |P_k(y)| grows with |y| outside
    [-1, 1], so on [0, 1] (y in [-7, -3]) the maximum is at x = 0."""
    return integral_constant(d, 1.5, 2.0)


def l2l2_constant(d):
    """The largest eigenvalue of the Gram pencil of 1, t, ..., t^(d-1) on
    [0, 1] against [3/2, 2]: the sup of int_0^1 |q|^2 / int_{3/2}^2 |q|^2
    over polynomials q of degree < d."""
    return _pencil_max(d, Fraction(3, 2), Fraction(2))


def three_interval_constant(index):
    """The largest eigenvalue of the Gram pencil of 1, t, ..., t^(N-1) on
    [0, 1] against [1, 2], N = index: the sup of int_0^1 |q|^2 /
    int_1^2 |q|^2 over polynomials q of degree < N."""
    return _pencil_max(index, Fraction(1), Fraction(2))


def _gram(n, a, b):
    """The exact Gram matrix of 1, t, ..., t^(n-1) on [a, b]."""
    return [[(b ** (i + j + 1) - a ** (i + j + 1)) / (i + j + 1)
             for j in range(n)] for i in range(n)]


def _float_up(q):
    """The least float >= the Fraction q, as a Fraction."""
    f = float(q)
    return Fraction(f if Fraction(f) >= q else math.nextafter(f, math.inf))


@lru_cache(maxsize=None)
def _pencil_max(n, a, b):
    """The largest root of det(H[0, 1] - lambda H[a, b]), where H[a, b] is
    the Gram matrix of 1, t, ..., t^(n-1) on [a, b], as a float at most
    1e-13 (relative) above it.

    The determinant is a polynomial of degree n in lambda, interpolated
    exactly from det_dense at lambda = 0..n.  Its roots, the pencil's
    eigenvalues, are real and positive, so their sum trace(H[a, b]^-1
    H[0, 1]) is at least the largest.  Newton's method from there
    decreases monotonically to lambda_max; each iterate is rounded up to a
    float, so it stays above.  It stops at the first iterate x where the
    polynomial changes sign, exactly, on [x (1 - 1e-13), x]: that bracket
    holds lambda_max.
    """
    lo, hi = _gram(n, Fraction(0), Fraction(1)), _gram(n, a, b)
    poly = lagrange_coefficients([
        (lam, det_dense([[u - lam * v for u, v in zip(r, s)]
                         for r, s in zip(lo, hi)]))
        for lam in range(n + 1)])
    slope = poly_derivative(poly)
    x = _float_up(-poly[-2] / poly[-1])
    while True:
        top = poly_eval(poly, x)
        if top * poly_eval(poly, x * (1 - Fraction(1, 10 ** 13))) <= 0:
            return float(x)
        nxt = _float_up(x - top / poly_eval(slope, x))
        if nxt >= x:
            raise ArithmeticError(f"pencil of size {n}: Newton's method "
                                  "stalled above the largest root")
        x = nxt
