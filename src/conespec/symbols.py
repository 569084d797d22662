"""Fourier symbols of the linearized obstruction and scalar-curvature
operators at the flat metric.

Substitutions: Laplacian -> -|xi|^2, covariant derivative -> i xi,
divergence -> contraction with i xi, adjoint divergence -> symmetrized
tensor with -(i/2) xi, trace -> matrix trace.  Written against generic
array-likes so both numeric and symbolic inputs flow through.
"""

from __future__ import annotations

import numpy as np

from .closed_form import ParameterError


def _outer(a, b):
    return np.outer(a, b)


def _norm_sq(xi):
    return (np.asarray(xi) * np.asarray(xi)).sum()


def _check_dimension(n):
    if n < 3:
        raise ParameterError("need n >= 3")


def linearized_obstruction_symbol(n, k, xi, hhat):
    """Symbol matrix of the linearized obstruction operator on (xi, hhat).

    Evaluates every term of the flat-metric linearization: the leading
    bilaplacian term, the two Hessian/trace terms, the adjoint-divergence
    term, and the pure-trace terms, then multiplies by (-|xi|^2)^{k-1}.
    """
    _check_dimension(n)
    if k < 1:
        raise ParameterError("need k >= 1")
    xi = np.asarray(xi)
    h = np.asarray(hhat)
    if h.shape != (n, n):
        raise ValueError("hhat must be n x n")
    q = _norm_sq(xi)
    tr = np.trace(h)
    hxi = h @ xi
    xihxi = xi @ hxi
    eye = np.eye(n, dtype=h.dtype) if h.dtype != object else np.eye(n)

    term_lead = -(q * q) * h / (2 * (n - 2))
    term_hess_tr = -(-_outer(xi, xi)) * (-q) * tr / (2 * (n - 1) * (n - 2))
    term_hess_div = -(-_outer(xi, xi)) * (-xihxi) / (2 * (n - 1))
    sym = _outer(xi, hxi) + _outer(hxi, xi)
    term_divstar = -(-q) * sym / (2 * (n - 2))
    term_trace = ((q * q) * tr - q * xihxi) * eye / (2 * (n - 1) * (n - 2))

    out = term_lead + term_hess_tr + term_hess_div + term_divstar + term_trace
    return out * (-q) ** (k - 1)


def linearized_scalar_symbol(n, xi, hhat):
    """Symbol of the linearized scalar curvature: |xi|^2 tr(h) - xi.h.xi."""
    _check_dimension(n)
    xi = np.asarray(xi)
    h = np.asarray(hhat)
    return _norm_sq(xi) * np.trace(h) - xi @ h @ xi


def lie_symbol(xi, v):
    """Symbol of a Lie-derivative direction: i (xi (x) v + v (x) xi)."""
    xi = np.asarray(xi)
    v = np.asarray(v)
    return 1j * (_outer(xi, v) + _outer(v, xi))


def gauged_reduction_value(n, k, xi, hhat):
    """Expected symbol on transverse traceless input:
    -(1/(2(n-2))) (-|xi|^2)^{k+1} hhat."""
    q = _norm_sq(np.asarray(xi))
    return -np.asarray(hhat) * (-q) ** (k + 1) / (2 * (n - 2))
