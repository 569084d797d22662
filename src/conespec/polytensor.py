"""Exact flat-space tensor calculus on R^n minus the origin.

Fields are covariant tensors whose components are finite sums
``c * x^alpha * r^gamma`` with rational coefficients and rational radial
exponents.  The class is closed under partial differentiation
(``d_i r^gamma = gamma x_i r^(gamma-2)``), contraction, symmetrization and
multiplication by monomials and radial powers, which is enough to apply
every operator used here: divergence, its adjoint, Laplacian powers, the
radial contraction, the modified divergence, Lie derivative of the flat
metric, the gauge operators on 1-forms, the gauged linearized operator on
2-tensors, and the full linearized Bach/obstruction operator.

Rational inputs stay rational throughout, so orthogonality, closure and
nullspace decisions are exact.  PolyTensor itself accepts float
coefficients (``scale_pullback`` and ``evaluate`` use them), but probing and
closure read every operator image through ``angular_image``, which rejects
float coefficients.

Equality and zero-testing canonicalize components modulo the relation
``sum_i x_i^2 = r^2`` (each component is rewritten as ``r^g * P(x)`` with
``P`` not divisible by ``sum x_i^2``, separately per parity class of the
radial exponent).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .linalg import solve_dense

Alpha = tuple  # multi-index over n variables
Key = tuple  # (alpha, gamma)

_ZERO = Fraction(0)


def _fr(x):
    """Exact coercion: ints stay native (fast arithmetic/hashing), strings
    become Fractions, Fractions with unit denominator collapse to int."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, str):
        return _fr(Fraction(x))
    return x  # float fast path


def _merge(comp, key, val):
    old = comp.get(key)
    if old is None:
        comp[key] = val
    else:
        new = old + val
        if new == 0:
            del comp[key]
        else:
            comp[key] = new


class PolyTensor:
    """Covariant tensor field with components sum of c * x^alpha * r^gamma."""

    __slots__ = ("n", "rank", "comps")

    def __init__(self, n, rank, comps=None):
        self.n = n
        self.rank = rank
        self.comps = comps if comps is not None else {}

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, n, rank):
        return cls(n, rank)

    def add_term(self, idx, alpha, gamma, coeff):
        idx = tuple(idx)
        alpha = tuple(alpha)
        gamma = _fr(gamma)
        coeff = _fr(coeff)
        comp = self.comps.setdefault(idx, {})
        key = (alpha, gamma)
        comp[key] = comp.get(key, _ZERO) + coeff
        if comp[key] == 0:
            del comp[key]
            if not comp:
                del self.comps[idx]
        return self

    def copy(self):
        return PolyTensor(self.n, self.rank,
                          {i: dict(c) for i, c in self.comps.items()})

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if self.n != other.n or self.rank != other.rank:
            raise ValueError("shape mismatch")
        out = {i: dict(c) for i, c in self.comps.items()}
        for idx, comp in other.comps.items():
            target = out.setdefault(idx, {})
            for key, c in comp.items():
                _merge(target, key, c)
            if not target:
                del out[idx]
        return PolyTensor(self.n, self.rank, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, s):
        s = _fr(s)
        if s == 0:
            return PolyTensor(self.n, self.rank)
        return PolyTensor(self.n, self.rank, {
            idx: {key: c * s for key, c in comp.items()}
            for idx, comp in self.comps.items()})

    def radial_scaled(self, dgamma):
        """Multiply by r^dgamma."""
        dgamma = _fr(dgamma)
        if dgamma == 0:
            return self.copy()
        return PolyTensor(self.n, self.rank, {
            idx: {(alpha, gamma + dgamma): c
                  for (alpha, gamma), c in comp.items()}
            for idx, comp in self.comps.items()})

    # -- structure ----------------------------------------------------

    def homogeneity(self):
        """Common coordinate homogeneity |alpha| + gamma, or None if mixed."""
        deg = None
        for comp in self.comps.values():
            for (alpha, gamma), _ in comp.items():
                d = sum(alpha) + gamma
                if deg is None:
                    deg = d
                elif deg != d:
                    return None
        return deg

    def is_radially_parallel(self):
        return not self.comps or self.homogeneity() == 0

    def component(self, idx):
        return dict(self.comps.get(tuple(idx), {}))

    # -- canonical form and equality -----------------------------------

    def canonical(self):
        out = PolyTensor(self.n, self.rank)
        for idx, comp in self.comps.items():
            canon = _canonical_component(comp, self.n)
            if canon:
                out.comps[idx] = canon
        return out

    def is_zero(self):
        return not self.canonical().comps

    def __eq__(self, other):
        if not isinstance(other, PolyTensor):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):  # pragma: no cover - identity hashing only
        return id(self)

    # -- evaluation and serialization ----------------------------------

    def evaluate(self, x):
        """Dense numpy array of component values at point x (floats)."""
        import numpy as np

        x = np.asarray(x, dtype=float)
        r = float(np.sqrt((x * x).sum()))
        shape = (self.n,) * self.rank if self.rank else ()
        out = np.zeros(shape)
        for idx, comp in self.comps.items():
            v = 0.0
            for (alpha, gamma), c in comp.items():
                term = float(c)
                for xi, a in zip(x, alpha):
                    if a:
                        term *= xi ** a
                v += term * r ** float(gamma)
            if self.rank:
                out[idx] = v
            else:
                out = v
        return out

    def to_json(self):
        comps = {}
        for idx, comp in sorted(self.comps.items()):
            terms = []
            for (alpha, gamma), c in sorted(comp.items()):
                terms.append({
                    "coeff": str(c) if isinstance(c, Fraction) else c,
                    "alpha": list(alpha),
                    "gamma": str(gamma) if isinstance(gamma, Fraction) else gamma,
                })
            comps[",".join(map(str, idx))] = terms
        return {"n": self.n, "rank": self.rank, "components": comps}

    @classmethod
    def from_json(cls, doc):
        out = cls(doc["n"], doc["rank"])
        for idxs, terms in doc["components"].items():
            idx = tuple(int(t) for t in idxs.split(",")) if idxs else ()
            for t in terms:
                out.add_term(idx, tuple(t["alpha"]), _fr(t["gamma"]),
                             _fr(t["coeff"]))
        return out

    def __repr__(self):  # pragma: no cover
        return f"PolyTensor(n={self.n}, rank={self.rank}, {len(self.comps)} comps)"


# -- canonicalization helpers ------------------------------------------


def _poly_mul(p, q, n):
    out = {}
    for a1, c1 in p.items():
        for a2, c2 in q.items():
            a = tuple(x + y for x, y in zip(a1, a2))
            out[a] = out.get(a, _ZERO) + c1 * c2
            if out[a] == 0:
                del out[a]
    return out


def _q_poly(n):
    return {tuple(2 if j == i else 0 for j in range(n)): Fraction(1)
            for i in range(n)}


def _divide_by_q(p, n):
    """Exact division of polynomial dict p by sum x_i^2; None if not divisible."""
    rem = dict(p)
    quo = {}
    lead = tuple([2] + [0] * (n - 1))
    while rem:
        a = max(rem)  # lex-max monomial
        c = rem[a]
        if a[0] < 2:
            return None
        qa = tuple(x - y for x, y in zip(a, lead))
        quo[qa] = quo.get(qa, _ZERO) + c
        for i in range(n):
            b = tuple(qa[j] + (2 if j == i else 0) for j in range(n))
            rem[b] = rem.get(b, _ZERO) - c
            if rem[b] == 0:
                del rem[b]
    return quo


def _canonical_component(comp, n):
    """Canonical term dict for one component (see module docstring)."""
    classes = {}
    for (alpha, gamma), c in comp.items():
        if c == 0:
            continue
        cls = gamma % 2 if isinstance(gamma, Fraction) else Fraction(gamma) % 2
        classes.setdefault(cls, []).append((alpha, gamma, c))
    out = {}
    for _, terms in sorted(classes.items()):
        gmin = min(t[1] for t in terms)
        poly = {}
        for alpha, gamma, c in terms:
            k = int((gamma - gmin) / 2)
            piece = {alpha: c}
            for _ in range(k):
                piece = _poly_mul(piece, _q_poly(n), n)
            for a, v in piece.items():
                poly[a] = poly.get(a, _ZERO) + v
                if poly[a] == 0:
                    del poly[a]
        g = gmin
        while poly:
            quo = _divide_by_q(poly, n)
            if quo is None:
                break
            poly = quo
            g += 2
        for a, v in poly.items():
            out[(a, g)] = v
    return out


# -- standard fields ----------------------------------------------------


def delta_metric(n):
    """Flat metric delta_ij."""
    g = PolyTensor(n, 2)
    zero = (0,) * n
    for i in range(n):
        g.add_term((i, i), zero, 0, 1)
    return g


def radial_form(n):
    """The 1-form dr, components x_i / r."""
    T = PolyTensor(n, 1)
    for i in range(n):
        alpha = tuple(1 if j == i else 0 for j in range(n))
        T.add_term((i,), alpha, -1, 1)
    return T


def dr_tensor(n):
    """dr (x) dr, components x_i x_j / r^2."""
    T = PolyTensor(n, 2)
    for i in range(n):
        for j in range(n):
            alpha = [0] * n
            alpha[i] += 1
            alpha[j] += 1
            T.add_term((i, j), tuple(alpha), -2, 1)
    return T


def tangential_metric(n):
    """r^2 times the unit-sphere metric pulled back: delta_ij - x_i x_j / r^2."""
    return delta_metric(n) - dr_tensor(n)


def cylindrical_harmonic(n, j):
    """Re((x_1 + i x_2)^j) as an exact harmonic polynomial (rank-0 field)."""
    if n < 2:
        raise ValueError("need n >= 2")
    T = PolyTensor(n, 0)
    if j == 0:
        T.add_term((), (0,) * n, 0, 1)
        return T
    for m in range(0, j + 1, 2):
        alpha = [0] * n
        alpha[0] = j - m
        alpha[1] = m
        sign = Fraction(-1) ** (m // 2)
        T.add_term((), tuple(alpha), 0, sign * math.comb(j, m))
    return T


def sphere_harmonic(n, j):
    """Degree-j spherical harmonic as a homogeneity-0 field (poly / r^j)."""
    return cylindrical_harmonic(n, j).radial_scaled(-j)


def coclosed_eigenform(n, j):
    """A co-closed 1-form eigenfunction on the sphere, radially parallel form.

    Returns r * psi_j as a PolyTensor (pointwise norm constant in r).
    Supported for j = 1, 2; higher modes of this family need more
    coordinate directions than the closed-form checks use.
    """
    T = PolyTensor(n, 1)
    e1 = tuple(1 if k == 0 else 0 for k in range(n))
    e2 = tuple(1 if k == 1 else 0 for k in range(n))
    if j == 1:
        T.add_term((1,), e1, -1, 1)
        T.add_term((0,), e2, -1, -1)
        return T
    if j == 2:
        if n < 3:
            raise ValueError("j=2 eigenform needs n >= 3")
        e3 = [0] * n
        e3[2] = 1
        a1 = tuple(a + b for a, b in zip(e1, e3))
        a2 = tuple(a + b for a, b in zip(e2, e3))
        T.add_term((1,), a1, -2, 1)
        T.add_term((0,), a2, -2, -1)
        return T
    raise ValueError("only j in {1, 2} supported")


# -- differential operators ---------------------------------------------


def partial(T, i):
    """Partial derivative in direction i (same rank)."""
    out = {}
    for idx, comp in T.comps.items():
        nc = {}
        for (alpha, gamma), c in comp.items():
            ai = alpha[i]
            if ai:
                na = alpha[:i] + (ai - 1,) + alpha[i + 1:]
                _merge(nc, (na, gamma), c * ai)
            if gamma != 0:
                na = alpha[:i] + (ai + 1,) + alpha[i + 1:]
                _merge(nc, (na, gamma - 2), c * gamma)
        if nc:
            out[idx] = nc
    return PolyTensor(T.n, T.rank, out)


def gradient(T):
    """nabla T: rank increases by one, derivative index first."""
    out = PolyTensor(T.n, T.rank + 1)
    for i in range(T.n):
        d = partial(T, i)
        for idx, comp in d.comps.items():
            for (alpha, gamma), c in comp.items():
                out.add_term((i,) + idx, alpha, gamma, c)
    return out


def laplacian(T, power=1):
    """Laplacian, applied termwise in closed form.

    Delta(x^a r^g) = sum_i a_i (a_i - 1) x^{a - 2 e_i} r^g
                     + g (2|a| + n + g - 2) x^a r^{g-2},
    where the second piece already absorbs sum_i x_i^2 = r^2.
    """
    n = T.n
    out = T
    for _ in range(power):
        comps = {}
        for idx, comp in out.comps.items():
            nc = {}
            for (alpha, gamma), c in comp.items():
                for i, ai in enumerate(alpha):
                    if ai >= 2:
                        na = alpha[:i] + (ai - 2,) + alpha[i + 1:]
                        _merge(nc, (na, gamma), c * ai * (ai - 1))
                if gamma != 0:
                    w = gamma * (2 * sum(alpha) + n + gamma - 2)
                    if w != 0:
                        _merge(nc, (alpha, gamma - 2), c * w)
            if nc:
                comps[idx] = nc
        out = PolyTensor(n, T.rank, comps)
    return out


def divergence(T):
    """delta h: contract the derivative with the first index."""
    if T.rank < 1:
        raise ValueError("divergence needs rank >= 1")
    out = PolyTensor(T.n, T.rank - 1)
    for i in range(T.n):
        d = partial(T, i)
        for idx, comp in d.comps.items():
            if idx[0] != i:
                continue
            for (alpha, gamma), c in comp.items():
                out.add_term(idx[1:], alpha, gamma, c)
    return out


def trace2(T):
    if T.rank != 2:
        raise ValueError("trace needs rank 2")
    out = PolyTensor(T.n, 0)
    for i in range(T.n):
        comp = T.comps.get((i, i))
        if comp:
            for (alpha, gamma), c in comp.items():
                out.add_term((), alpha, gamma, c)
    return out


def hessian(T):
    if T.rank != 0:
        raise ValueError("hessian needs a scalar")
    out = PolyTensor(T.n, 2)
    for i in range(T.n):
        for j in range(T.n):
            d = partial(partial(T, j), i)
            comp = d.comps.get(())
            if comp:
                for (alpha, gamma), c in comp.items():
                    out.add_term((i, j), alpha, gamma, c)
    return out


def mul_scalar_field(T, S):
    """Multiply a tensor field by a scalar field."""
    if S.rank != 0:
        raise ValueError("second factor must be a scalar field")
    out = PolyTensor(T.n, T.rank)
    scomp = S.comps.get((), {})
    for idx, comp in T.comps.items():
        for (a1, g1), c1 in comp.items():
            for (a2, g2), c2 in scomp.items():
                out.add_term(idx, tuple(x + y for x, y in zip(a1, a2)),
                             g1 + g2, c1 * c2)
    return out


def tensor_outer(A, B):
    """Outer product of two 1-forms."""
    if A.rank != 1 or B.rank != 1:
        raise ValueError("outer product of 1-forms only")
    out = PolyTensor(A.n, 2)
    for (i,), compA in A.comps.items():
        for (j,), compB in B.comps.items():
            for (a1, g1), c1 in compA.items():
                for (a2, g2), c2 in compB.items():
                    out.add_term((i, j), tuple(x + y for x, y in zip(a1, a2)),
                                 g1 + g2, c1 * c2)
    return out


def sym_pair(A, B):
    """Symmetric product A (x) B + B (x) A of two 1-forms."""
    return tensor_outer(A, B) + tensor_outer(B, A)


def lie_flat(xi):
    """Lie derivative of the flat metric along the 1-form/vector xi."""
    if xi.rank != 1:
        raise ValueError("lie derivative needs a 1-form")
    out = PolyTensor(xi.n, 2)
    for i in range(xi.n):
        d = partial(xi, i)
        for idx, comp in d.comps.items():
            j = idx[0]
            for (alpha, gamma), c in comp.items():
                out.add_term((i, j), alpha, gamma, c)
                out.add_term((j, i), alpha, gamma, c)
    return out


def div_star(xi):
    """Adjoint of the divergence: minus half the Lie derivative."""
    return lie_flat(xi).scaled(Fraction(-1, 2))


def radial_contraction(T):
    """Contraction with r^{-1} d/dr in the first slot: (x_i / r^2) T_{i...}."""
    if T.rank < 1:
        raise ValueError("radial contraction needs rank >= 1")
    out = PolyTensor(T.n, T.rank - 1)
    for idx, comp in T.comps.items():
        i = idx[0]
        for (alpha, gamma), c in comp.items():
            newa = list(alpha)
            newa[i] += 1
            out.add_term(idx[1:], tuple(newa), gamma - 2, c)
    return out


def div_t(T, t):
    """Modified divergence: delta h - t * (radial contraction of h)."""
    return divergence(T) - radial_contraction(T).scaled(t)


def gauge_op(xi):
    """The gauge operator on 1-forms: divergence of the Lie derivative."""
    return divergence(lie_flat(xi))


def gauge_op_t(xi, t):
    """Modified gauge operator: modified divergence of the Lie derivative."""
    return div_t(lie_flat(xi), t)


def cnk(n, k):
    """Leading normalization of the extended obstruction expansion."""
    if n % 2 == 0 and k == n // 2 - 1:
        return Fraction(1)
    if n % 2 == 0 and 1 <= k <= n // 2 - 2:
        val = Fraction(1)
        for m in range(1, k + 1):
            val /= (2 * m + 2 - n)
        return val
    return Fraction(1)  # general higher-order system: constant is immaterial


def gauged_lin(h, k, t):
    """Gauged linearized operator on 2-tensors (strictly elliptic reduction).

    (c_{n,k}/(n-2)) Delta^{k-1} ( -1/2 Delta^2 h
        - t/2 Hess(div(i_radial h)) - t Delta div_star(i_radial h) ).
    """
    if h.rank != 2:
        raise ValueError("needs a 2-tensor")
    n = h.n
    t = _fr(t)
    ir = radial_contraction(h)
    core = laplacian(h, 2).scaled(Fraction(-1, 2))
    if t != 0:
        core = core - hessian(divergence(ir)).scaled(t * Fraction(1, 2))
        core = core - laplacian(div_star(ir)).scaled(t)
    out = laplacian(core, k - 1) if k > 1 else core
    return out.scaled(cnk(n, k) / (n - 2))


def bach_lin(h, k=1):
    """Linearized Bach/obstruction operator at the flat metric (no gauge).

    Delta^{k-1} ( -1/(2(n-2)) Delta^2 h - 1/(2(n-1)(n-2)) Hess(Delta tr h)
        - 1/(2(n-1)) Hess(div div h) - 1/(n-2) Delta div_star(div h)
        + 1/(2(n-1)(n-2)) (Delta^2 tr h - Delta div div h) g ).
    """
    if h.rank != 2:
        raise ValueError("needs a 2-tensor")
    n = h.n
    tr = trace2(h)
    dh = divergence(h)
    ddh = divergence(dh)
    core = laplacian(h, 2).scaled(Fraction(-1, 2 * (n - 2)))
    core = core - hessian(laplacian(tr)).scaled(Fraction(1, 2 * (n - 1) * (n - 2)))
    core = core - hessian(ddh).scaled(Fraction(1, 2 * (n - 1)))
    core = core - laplacian(div_star(dh)).scaled(Fraction(1, n - 2))
    trace_part = laplacian(tr, 2) - laplacian(ddh)
    g = delta_metric(n)
    gpart = PolyTensor(n, 2)
    for i in range(n):
        comp = trace_part.comps.get(())
        if comp:
            for (alpha, gamma), c in comp.items():
                gpart.add_term((i, i), alpha, gamma,
                               c * Fraction(1, 2 * (n - 1) * (n - 2)))
    core = core + gpart
    return laplacian(core, k - 1) if k > 1 else core


OPCODES = ("partial", "laplacian", "div", "div_star", "trace", "hessian",
           "i_radial", "delta_t", "lie", "div_lie", "div_lie_t",
           "gauged_lin", "bach_lin")


def apply_operator(op, field, *, t=0, k=1, index=0):
    """Dispatch an opcode to the corresponding exact operator."""
    if op == "partial":
        if not 0 <= index < field.n:
            raise ValueError(f"index {index} out of range for n = {field.n}")
        return partial(field, index)
    if op == "laplacian":
        return laplacian(field)
    if op == "div":
        return divergence(field)
    if op == "div_star":
        return div_star(field)
    if op == "trace":
        return trace2(field)
    if op == "hessian":
        return hessian(field)
    if op == "i_radial":
        return radial_contraction(field)
    if op == "delta_t":
        return div_t(field, t)
    if op == "lie":
        return lie_flat(field)
    if op == "div_lie":
        return gauge_op(field)
    if op == "div_lie_t":
        return gauge_op_t(field, t)
    if op == "gauged_lin":
        return gauged_lin(field, k, t)
    if op == "bach_lin":
        return bach_lin(field, k)
    raise ValueError(f"unknown opcode {op!r}; known: {OPCODES}")


# -- sphere integration --------------------------------------------------


def _half_factorial_rational(a):
    """Gamma(a + 1/2) / sqrt(pi) as a Fraction, for integer a >= 0."""
    out = Fraction(math.factorial(2 * a), 4 ** a * math.factorial(a))
    return out


def sphere_moment_reduced(n, alpha):
    """Moment integral over S^{n-1} of x^alpha divided by pi^floor(n/2).

    Exact rational value; zero when any entry of alpha is odd.
    """
    alpha = tuple(alpha)
    if any(a % 2 for a in alpha):
        return _ZERO
    half = [a // 2 for a in alpha]
    num = Fraction(2)
    for a in half:
        num *= _half_factorial_rational(a)
    s = (n + sum(alpha)) // 2 if (n + sum(alpha)) % 2 == 0 else None
    if s is not None:
        den = Fraction(math.factorial(s - 1))
        # numerator contributed pi^{n/2}; reduced by pi^{n/2}
        return num / den
    # n odd: denominator Gamma(integer + 1/2) = rational * sqrt(pi)
    m = (n + sum(alpha) - 1) // 2
    den = _half_factorial_rational(m)
    # pi^{n/2} / pi^{1/2} = pi^{(n-1)/2}
    return num / den


def sphere_moment(n, alpha):
    """Float value of the moment integral over S^{n-1} of x^alpha."""
    power = n // 2
    return float(sphere_moment_reduced(n, alpha)) * math.pi ** power


def pointwise_inner(A, B):
    """Scalar field sum_I A_I B_I (flat-metric pointwise inner product)."""
    if A.n != B.n or A.rank != B.rank:
        raise ValueError("shape mismatch")
    out = PolyTensor(A.n, 0)
    for idx, compA in A.comps.items():
        compB = B.comps.get(idx)
        if not compB:
            continue
        for (a1, g1), c1 in compA.items():
            for (a2, g2), c2 in compB.items():
                alpha = tuple(x + y for x, y in zip(a1, a2))
                out.add_term((), alpha, g1 + g2, c1 * c2)
    return out


def slice_inner_reduced(A, B):
    """Slice inner product <<A, B>> as dict r-exponent -> Fraction.

    The weighted slice integral (weight r^{-(n-1)}) of the pointwise inner
    product; values are divided by pi^floor(n/2) to stay rational.
    Radially parallel inputs give a single exponent 0.
    """
    s = pointwise_inner(A, B)
    out = {}
    comp = s.comps.get((), {})
    for (alpha, gamma), c in comp.items():
        m = sphere_moment_reduced(A.n, alpha)
        if m == 0:
            continue
        expo = gamma + sum(alpha)
        out[expo] = out.get(expo, _ZERO) + c * m
        if out[expo] == 0:
            del out[expo]
    return out


def slice_inner_value(A, B, r=1.0):
    """Float <<A, B>> at radius r."""
    power = A.n // 2
    acc = 0.0
    for expo, c in slice_inner_reduced(A, B).items():
        acc += float(c) * float(r) ** float(expo)
    return acc * math.pi ** power


def triple_bar_norm_sq(T, a, b):
    """Weighted annulus norm: integral over (a,b) of r^{-1} <<T, T>> dr."""
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    power = T.n // 2
    acc = 0.0
    for expo, c in slice_inner_reduced(T, T).items():
        e = float(expo)
        if e == 0:
            acc += float(c) * math.log(b / a)
        else:
            acc += float(c) * (b ** e - a ** e) / e
    return acc * math.pi ** power


def scale_pullback(T, a, weight=0):
    """Pullback under x -> a x for a covariant rank-q tensor, times a^weight.

    (psi_a^* T)_I(x) = a^rank T_I(a x); weight adds an extra a^weight.
    """
    a = _fr(a)
    out = PolyTensor(T.n, T.rank)
    for idx, comp in T.comps.items():
        for (alpha, gamma), c in comp.items():
            scale = a ** (sum(alpha)) * (a ** int(gamma) if gamma == int(gamma)
                                         else float(a) ** float(gamma))
            out.add_term(idx, alpha, gamma, c * scale * a ** T.rank
                         * (a ** weight if weight else 1))
    return out


# -- angular bases and closure -------------------------------------------


@dataclass
class AngularBasis:
    """Radially parallel basis with its exact Gram matrix.

    Elements have homogeneity-0 components; ``gram`` is the slice inner
    product matrix divided by pi^floor(n/2); ``norms`` is its diagonal.
    """

    n: int
    elements: list
    gram: list
    labels: list

    @property
    def norms(self):
        return [self.gram[i][i] for i in range(len(self.elements))]

    def __len__(self):
        return len(self.elements)

    def decompose(self, angular_field):
        """Exact coefficients of angular_field in this basis, plus the
        canonical residual, whose ``comps`` are empty exactly when the field
        lies in the span."""
        m = len(self.elements)
        rhs = []
        for T in self.elements:
            d = slice_inner_reduced(angular_field, T)
            extra = {e for e in d if e != 0}
            if extra:
                raise ValueError("field is not radially parallel against basis")
            rhs.append(d.get(Fraction(0), _ZERO))
        coeffs = solve_dense(self.gram, rhs)
        recon = PolyTensor(angular_field.n, angular_field.rank)
        for c, T in zip(coeffs, self.elements):
            recon = recon + T.scaled(c)
        return coeffs, (angular_field - recon).canonical()


def _gram(elements):
    m = len(elements)
    g = [[_ZERO] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            d = slice_inner_reduced(elements[i], elements[j])
            if any(e != 0 for e in d):
                raise ValueError("basis element not radially parallel")
            g[i][j] = g[j][i] = d.get(Fraction(0), _ZERO)
    return g


def basis_from_elements(n, elements, labels=None):
    labels = labels or [f"e{i}" for i in range(len(elements))]
    return AngularBasis(n, list(elements), _gram(elements), list(labels))


class ClosureError(ArithmeticError):
    """An operator image that cannot be read exactly in an angular basis."""


_CLOSURE_ROUNDS = 50


def angular_image(apply_fn, element, m):
    """Apply ``apply_fn`` to r^m * element and read the image exactly.

    The image is canonicalized once.  Returns None when it vanishes, else
    ``(weight, angular)`` with image = r^(m - weight) * angular, where
    ``angular`` is canonical.  Raises ClosureError for a float coefficient
    or a non-homogeneous image.
    """
    image = apply_fn(element.radial_scaled(m)).canonical()
    if not image.comps:
        return None
    if not all(isinstance(c, (int, Fraction))
               for comp in image.comps.values() for c in comp.values()):
        raise ClosureError("operator image has float coefficients; probing "
                           "and closure need exact int/Fraction arithmetic")
    deg = image.homogeneity()
    if deg is None:
        raise ClosureError("operator image is not homogeneous")
    return m - deg, image.radial_scaled(-deg)


def closure_basis(seed, apply_fn, probe_degrees=(0, 1, 2)):
    """Invariant angular span of a seed under an exact operator.

    Repeatedly reads the angular image of r^m * element for the probe
    degrees and adds any exactly-independent angular direction until the
    span is closed.
    """
    deg = seed.homogeneity()
    if deg is None:
        raise ClosureError("seed must have pure homogeneity")
    elements = [seed.radial_scaled(-deg).canonical()]
    basis = basis_from_elements(seed.n, elements)
    done = set()
    for _ in range(_CLOSURE_ROUNDS):
        grew = False
        for ei in range(len(elements)):
            for m in probe_degrees:
                if (ei, m) in done:
                    continue
                done.add((ei, m))
                read = angular_image(apply_fn, elements[ei], m)
                if read is None:
                    continue
                _, residual = basis.decompose(read[1])
                if residual.comps:
                    elements.append(residual)
                    basis = basis_from_elements(seed.n, elements)
                    grew = True
        if not grew:
            return basis
    raise ClosureError(f"no closure after {_CLOSURE_ROUNDS} rounds")


def tensor_mode_seed(n, j):
    """Seed phi_j dr (x) dr for the separated 2-tensor expansion."""
    return mul_scalar_field(dr_tensor(n), sphere_harmonic(n, j))


def tangential_traceless_hessian(n, j):
    """Traceless tangential part of r^2 Hess(phi_j), radially parallel.

    Vanishes identically for j <= 1 (the sphere Hessian of a degree-1
    harmonic is pure trace); for j >= 2 this is the fourth angular family.
    """
    phi = sphere_harmonic(n, j)
    H = hessian(phi).radial_scaled(2)  # r^2 Hess(phi), homogeneity 0
    dr = radial_form(n)
    ir = radial_contraction(H).radial_scaled(1)  # unit radial contraction
    s = radial_contraction(radial_contraction(H)).radial_scaled(2)
    proj = H - sym_pair(dr, ir) + mul_scalar_field(dr_tensor(n), s)
    tr = trace2(proj)
    out = proj - mul_scalar_field(tangential_metric(n), tr).scaled(
        Fraction(1, n - 1))
    return out.canonical()


def tensor_mode_basis(n, j):
    """The angular families of the separated 2-tensor expansion at degree j.

    [phi dr(x)dr, (r dphi) boxtimes dr, traceless tangential Hessian,
    phi (g - dr(x)dr)]; the middle families vanish at j = 0 and the
    Hessian family also vanishes at j = 1.
    """
    phi = sphere_harmonic(n, j)
    dr = radial_form(n)
    els = [tensor_mode_seed(n, j)]
    labels = ["phi dr.dr"]
    if j >= 1:
        tau = gradient(phi).radial_scaled(1)
        els.append(sym_pair(tau, dr))
        labels.append("tau boxtimes dr")
    if j >= 2:
        B = tangential_traceless_hessian(n, j)  # already canonical
        if B.comps:
            els.append(B)
            labels.append("traceless tangential")
    els.append(mul_scalar_field(tangential_metric(n), phi))
    labels.append("phi tangential metric")
    return basis_from_elements(n, els, labels)


def oneform_mode_basis(n, j):
    """Radially parallel 1-form pair [phi dr, r d(phi)] for harmonic degree j.

    At j = 0 the differential part vanishes and the basis is [dr] alone.
    """
    phi = sphere_harmonic(n, j)
    el1 = mul_scalar_field(radial_form(n), phi)
    if j == 0:
        return basis_from_elements(n, [el1], ["phi dr"])
    el2 = gradient(phi).radial_scaled(1)  # r * d(phi), radially parallel
    return basis_from_elements(n, [el1, el2], ["phi dr", "r d(phi)"])
