"""Termwise references for the PolyTensor algebra, shared by the test
modules: each is written independently of the library's integer kernels."""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from conespec import polytensor as pt


def naive_slice_inner(A, B):
    """Reference slice inner product: form the pointwise product field,
    then integrate each of its terms over the sphere."""
    product = pt.PolyTensor(A.n, 0)
    for idx, compA in A.comps.items():
        for (a1, g1), c1 in compA.items():
            for (a2, g2), c2 in B.comps.get(idx, {}).items():
                product.add_term((), tuple(x + y for x, y in zip(a1, a2)),
                                 g1 + g2, c1 * c2)
    out = {}
    for (alpha, gamma), c in product.comps.get((), {}).items():
        expo = gamma + sum(alpha)
        out[expo] = out.get(expo, 0) + c * pt.sphere_moment_reduced(A.n, alpha)
    return {e: v for e, v in out.items() if v != 0}


def triple_bar_norm_sq(T, a, b):
    """Reference squared annulus norm of a field: the integral over
    (a, b) of r^{-1} <<T, T>> dr, termwise over slice_inner_reduced."""
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    acc = 0.0
    for expo, c in pt.slice_inner_reduced(T, T).items():
        e = float(expo)
        if e == 0:
            acc += float(c) * math.log(b / a)
        else:
            acc += float(c) * (b ** e - a ** e) / e
    return acc * math.pi ** (T.n // 2)


def expanded_symbol(operator, order, xi, hhat):
    """Reference principal symbol at an integer covector xi, by expansion
    in place of equivariance: i^N times the operator (of order N) applied
    to the integer tensor hhat times (xi . x)^N / N!, whose image is
    constant."""
    n = len(xi)
    hhat = np.asarray(hhat)
    field = pt.PolyTensor(n, hhat.ndim)
    for alpha in product(range(order + 1), repeat=n):
        if sum(alpha) == order:
            c = Fraction(math.prod(int(x) ** a for x, a in zip(xi, alpha)),
                         math.prod(map(math.factorial, alpha)))
            for idx in np.ndindex(hhat.shape):
                field.add_term(idx, alpha, 0, c * int(hhat[idx]))
    image = operator(field)
    value = np.zeros((n,) * image.rank, dtype=object)
    for idx, comp in image.comps.items():
        ((alpha, gamma), c), = comp.items()
        assert not any(alpha) and gamma == 0
        value[idx] = c
    return value.astype(complex) * 1j ** order
