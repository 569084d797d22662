"""Principal symbols of the flat-metric field operators, read off the
operators: an order-N operator maps hhat (xi . x)^N / N! to the constant
i^-N sigma(xi)[hhat].  ``principal_symbol`` reads it exactly at e_1, and
``symbol_at`` carries it to any xi by O(n) equivariance, so homogeneity
of degree N is structural.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

import numpy as np

from . import polytensor as pt
from .closed_form import ParameterError

# name -> (input rank, order at k, field operator, looked up at each call):
# "bach", "gauged" and "lie" are the polytensor.OPERATORS entries
# bach_lin, gauged_lin (at t = 0) and lie; "scalar", which has no opcode,
# is the linearized scalar curvature div div h - Delta tr h
OPERATORS = {
    "bach": (2, lambda k: 2 * k + 2,
             lambda h, k: pt.apply_operator("bach_lin", h, k=k)),
    "gauged": (2, lambda k: 2 * k + 2,
               lambda h, k: pt.apply_operator("gauged_lin", h, k=k)),
    "scalar": (2, lambda k: 2, lambda h, k: pt.divergence(pt.divergence(h))
               - pt.laplacian(pt.trace2(h))),
    "lie": (1, lambda k: 1, lambda v, k: pt.apply_operator("lie", v)),
}


@lru_cache(maxsize=None)
def principal_symbol(name, n, k=1):
    """Exact principal symbol at xi = e_1 of the named operator, as a
    read-only object array of rationals: the output's axes, then the
    input's, each (a, b) and (b, a) holding half the image of
    e_a e_b + e_b e_a.  For the odd-order "lie" the symbol is i times it."""
    if n < 3:
        raise ParameterError("need n >= 3")
    if k < 1:
        raise ParameterError("need k >= 1")
    rank, order, operator = OPERATORS[name]
    big_n = order(k)
    scale = Fraction((-1) ** (big_n // 2), math.factorial(big_n))
    x1_power, const = ((big_n,) + (0,) * (n - 1), 0), ((0,) * n, 0)
    out = None
    for idx in combinations_with_replacement(range(n), rank):
        cells = set(permutations(idx))
        image = operator(pt.PolyTensor(n, rank, {c: {x1_power: 1}
                                                 for c in cells}), k)
        if out is None:
            out = np.zeros((n,) * (image.rank + rank), dtype=object)
        for out_idx, comp in image.comps.items():
            if set(comp) != {const}:
                raise ArithmeticError(f"{name} is not homogeneous of order "
                                      f"{big_n}: its image keeps x or r")
            for cell in cells:
                out[out_idx + cell] = comp[const] * scale / len(cells)
    out.flags.writeable = False
    return out


def _reflect(tensor, q):
    """The tensor with q applied to every index."""
    for axis in range(tensor.ndim):
        tensor = np.moveaxis(np.tensordot(q, tensor, axes=(1, axis)), 0, axis)
    return tensor


def symbol_at(name, n, xi, hhat, k=1):
    """sigma(xi)[hhat] = |xi|^N Q sigma(e_1)[Q hhat Q] Q in floats, with Q
    the Householder reflection taking e_1 to u = xi / |xi|."""
    rank, order, _ = OPERATORS[name]
    norm = np.linalg.norm(xi)
    v = -np.asarray(xi) / norm if norm else np.zeros(n)
    # v_0 = 1 - u_0, which is |u_perp|^2 / (1 + u_0) without cancellation
    v[0] = 1 + v[0] if v[0] >= 0 else (v[1:] @ v[1:]) / (1 - v[0])
    q = np.eye(n) - 2 / (v @ v) * np.outer(v, v) if v.any() else np.eye(n)
    sym = principal_symbol(name, n, k).astype(float)
    out = _reflect(np.tensordot(sym, _reflect(np.asarray(hhat), q), rank), q)
    return out * norm ** order(k) * (1j if order(k) % 2 else 1)
