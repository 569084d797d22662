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

Each primitive is stated once: ``partial`` and ``laplacian`` are
closed-form kernels; ``gradient``, ``divergence``, ``trace2``,
``radial_contraction``, ``outer`` (the outer product of two fields of any
ranks, a scalar factor included) and ``lie_flat`` list their image terms
for one private builder, ``_build``, which merges like terms;
``hessian = gradient(gradient(.))``.  Each operator built on them
(``div_star``, ``div_t``, ``gauge_op_t`` and ``gauge_op``, ``gauged_lin``,
``bach_lin``) is stated once, as a plain function of its argument x
over the primitives ``x.ops``, and the table ``OPERATORS`` lists every
operator under its ``apply`` opcode.  Two evaluators read the same
statements: on a field, ``x.ops`` is this module (``apply_operator``, and
the public names called on fields); on a ``mode_ode`` operand it is the
probed pieces, whose sums and compositions give the mode systems.
``PolyTensor.add_term`` is the public one-term constructor for explicit
fields (``from_json``, the standard fields, tests); no operator uses it.

Fields are exact: every coefficient and radial exponent is an ``int`` or
a ``Fraction``, so orthogonality, closure and nullspace decisions are
exact.  A float is refused with a ValueError where it would enter a field:
in ``add_term``, ``scaled``, ``radial_scaled`` and the operators that take
t (``div_t``, ``gauge_op_t``, ``gauged_lin``); ``from_json`` reads a JSON
float by its decimal text (0.1 is 1/10).  Integer input stays native
``int`` through the operators, a ``Fraction`` enters only with a rational
factor (t, c_{n,k}/(n-2), 1/2, a basis norm), and canonical forms store
every integer coefficient as an ``int``.  Only the view ``evaluate``
returns floats.

Equality and zero-testing canonicalize components modulo the relation
``sum_i x_i^2 = r^2`` (each component is rewritten as ``r^g * P(x)`` with
``P`` not divisible by ``sum x_i^2``, separately per parity class of the
radial exponent).  Canonicalization runs on integer numerators over one
common denominator per component.

Probing canonicalizes once per image.  ``angular_image`` hands the
operator's raw output to ``AngularBasis.decompose``, canonicalizing it
first only when it has mixed homogeneity, so that exactly the images whose
canonical form is not homogeneous are rejected.  The slice functionals
integrate over the sphere, where the relation holds, so a raw image gives
the same coefficients as its canonical form; ``decompose`` then merges the
residual image - sum_i c_i T_i into one integer dict and canonicalizes
only that, to decide closure.  Every slice inner product
(``slice_inner_reduced``, every basis norm and cross product, every table
entry) goes through one kernel, ``_slice_inner_exact``, which sums
integer products: the sphere moment of x^beta is a factor depending on n
and |beta| alone times an integer.

Caches, all filled lazily, holding values no caller mutates and bounded
by the degrees and bases in use:

- ``_q_power(n, k)``: the expansion of (sum_i x_i^2)^k used by
  canonicalization;
- ``_odd_factorial_product(alpha)`` and ``_moment_scale(n, s)``: the two
  factors of every exact sphere moment;
- ``tensor_mode_basis(n, j)`` and ``oneform_mode_basis(n, j)``: each
  angular basis with the exact norms of its elements, built once per
  (n, j) and shared by every caller, which must not mutate it;
- ``AngularBasis._functionals``: one table per basis, keyed on the raw
  image terms (idx, alpha, gamma) that reach ``decompose`` (not on
  canonical terms), mapping each to the integer numerators of its slice
  inner products with every element over one denominator, so
  ``decompose`` sums integer products over the field's common denominator.
  With the memoized bases it is filled once per (n, j).

Bases hold the exact norms of their elements: the families of one
degree split a field on the cone into radial, mixed and tangential parts
(as in Cheeger-Tian), so they are orthogonal on the sphere, building a
basis checks it, and ``decompose`` reads each coefficient as a
projection, the element's functional sum over its norm.

``linalg.lagrange_coefficients`` likewise memoizes its Lagrange basis per
node tuple, as one denominator and a table of integer numerators.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import lru_cache

from .closed_form import ParameterError


def _is_int(x):
    """Whether x is an int and not a bool (JSON true/false)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _fr(x):
    """Exact coercion: ints stay native (fast arithmetic/hashing), strings
    become Fractions, Fractions with unit denominator collapse to int;
    anything else, bool included, raises ValueError."""
    if _is_int(x):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, str):
        return _fr(Fraction(x))
    raise ValueError("fields take exact data (int, Fraction or a rational "
                     f"string), got {type(x).__name__} {x!r}")


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
    # the primitives the statements of OPERATORS apply to a field
    ops = sys.modules[__name__]

    def __init__(self, n, rank, comps=None):
        self.n = n
        self.rank = rank
        self.comps = comps if comps is not None else {}

    # -- construction -------------------------------------------------

    def add_term(self, idx, alpha, gamma, coeff):
        """Add coeff * x^alpha * r^gamma to component idx (in place)."""
        idx = tuple(idx)
        alpha = tuple(alpha)
        gamma = _fr(gamma)
        coeff = _fr(coeff)
        comp = self.comps.setdefault(idx, {})
        key = (alpha, gamma)
        comp[key] = comp.get(key, 0) + coeff
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

    __hash__ = None  # equality is by value, and fields are mutable

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
                    "coeff": str(c),
                    "alpha": list(alpha),
                    "gamma": str(gamma) if isinstance(gamma, Fraction) else gamma,
                })
            comps[",".join(map(str, idx))] = terms
        return {"n": self.n, "rank": self.rank, "components": comps}

    @classmethod
    def from_json(cls, doc):
        """Field from a ``to_json`` document; ValueError names the first
        missing or invalid key.  A JSON float ``coeff`` or ``gamma`` is read
        exactly by its decimal text (0.1 is 1/10)."""
        if not isinstance(doc, dict):
            raise ValueError("field document must be a JSON object with keys "
                             "'n', 'rank' and 'components'")
        for key in ("n", "rank", "components"):
            if key not in doc:
                raise ValueError(f"field document is missing key {key!r}")
        n, rank, components = doc["n"], doc["rank"], doc["components"]
        if not _is_int(n) or n < 1:
            raise ValueError(f"invalid 'n': {n!r} (need an integer >= 1)")
        if not _is_int(rank) or rank < 0:
            raise ValueError(f"invalid 'rank': {rank!r} (need an integer >= 0)")
        if not isinstance(components, dict):
            raise ValueError("invalid 'components': need an object mapping "
                             "comma-separated indices to term lists")
        out = cls(n, rank)
        for idxs, terms in components.items():
            try:
                idx = tuple(int(i) for i in idxs.split(",")) if idxs else ()
                if len(idx) != rank or not all(0 <= i < n for i in idx):
                    raise ValueError
                for t in terms:
                    alpha = tuple(t["alpha"])
                    if len(alpha) != n or not all(
                            _is_int(a) and a >= 0 for a in alpha):
                        raise ValueError
                    out.add_term(idx, alpha, *(
                        str(v) if isinstance(v, float) else v
                        for v in (t["gamma"], t["coeff"])))
            except (KeyError, TypeError, ValueError, ZeroDivisionError):
                raise ValueError(
                    f"invalid components[{idxs!r}]: need a rank-{rank} index "
                    f"and terms {{'coeff', 'alpha' (n = {n} entries), "
                    "'gamma'}") from None
        return out

    def __repr__(self):  # pragma: no cover
        return f"PolyTensor(n={self.n}, rank={self.rank}, {len(self.comps)} comps)"


# -- canonicalization helpers ------------------------------------------


@lru_cache(maxsize=None)
def _q_power(n, k):
    """(sum_i x_i^2)^k as a tuple of (alpha, int coefficient) pairs,
    memoized per (n, k)."""
    out = {(0,) * n: 1}
    for _ in range(k):
        nxt = {}
        for a, c in out.items():
            for i in range(n):
                b = a[:i] + (a[i] + 2,) + a[i + 1:]
                nxt[b] = nxt.get(b, 0) + c
        out = nxt
    return tuple(out.items())


def _divide_by_q(p, n):
    """Exact division of polynomial dict p by sum x_i^2; None if not divisible."""
    rem = dict(p)
    quo = {}
    while rem:
        a = max(rem)  # lex-max monomial
        c = rem[a]
        if a[0] < 2:
            return None
        qa = (a[0] - 2,) + a[1:]
        quo[qa] = quo.get(qa, 0) + c
        for i in range(n):
            b = qa[:i] + (qa[i] + 2,) + qa[i + 1:]
            _merge(rem, b, -c)
    return quo


def _canonical_component(comp, n):
    """Canonical term dict for one component (see module docstring).

    Works on integer numerators over the common denominator ``den`` of the
    component's Fraction coefficients and divides once per output term.
    """
    classes = {}
    den = 1
    for (alpha, gamma), c in comp.items():
        if c == 0:
            continue
        if type(c) is Fraction:
            den = math.lcm(den, c.denominator)
        classes.setdefault(gamma % 2, []).append((alpha, gamma, c))
    out = {}
    for _, terms in sorted(classes.items()):
        gmin = min(t[1] for t in terms)
        poly = {}
        for alpha, gamma, c in terms:
            if type(c) is Fraction:
                c = c.numerator * (den // c.denominator)
            elif den != 1:
                c = c * den
            k = int((gamma - gmin) // 2)
            if k == 0:
                _merge(poly, alpha, c)
                continue
            for b, v in _q_power(n, k):
                _merge(poly, tuple(x + y for x, y in zip(alpha, b)), c * v)
        g = gmin
        while poly:
            quo = _divide_by_q(poly, n)
            if quo is None:
                break
            poly = quo
            g += 2
        for a, v in poly.items():
            out[(a, g)] = _over(v, den)
    return out


def _over(v, den):
    """The integer v over den, kept as an int when exact."""
    if den == 1:
        return v
    q, r = divmod(v, den)
    return q if r == 0 else Fraction(v, den)


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
    dr = radial_form(n)
    return outer(dr, dr)


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
    """A co-closed 1-form eigenfunction of degree j >= 1 on the sphere, in
    radially parallel form (pointwise norm constant in r):

        r psi_j = r^(-j) Re(z^(j-1) x_3 dz - z^j dx_3),  z = x_1 + i x_2.

    It is tangential (x . r psi_j = r^(-j) (Re(z^j x_3) - Re(z^j) x_3) = 0)
    and divergence-free, with harmonic polynomial components over r^j.
    """
    if n < 3 or j < 1:
        raise ValueError("needs n >= 3 and j >= 1")
    T = PolyTensor(n, 1)
    # component i is Re(i^q z^m) x_3^e over r^j
    for i, q, m, e in ((0, 0, j - 1, 1), (1, 1, j - 1, 1), (2, 2, j, 0)):
        for p in range(m + 1):
            real = (1, 0, -1, 0)[(p + q) % 4]  # Re(i^(p+q))
            if real:
                alpha = (m - p, p, e) + (0,) * (n - 3)
                T.add_term((i,), alpha, -j, real * math.comb(m, p))
    return T


# -- differential operators ---------------------------------------------


def _build(n, rank, terms):
    """Field from (idx, (alpha, gamma), coeff) terms, like terms merged."""
    comps = {}
    for idx, key, c in terms:
        _merge(comps.setdefault(idx, {}), key, c)
    return PolyTensor(n, rank, {idx: comp for idx, comp in comps.items()
                                if comp})


def _partial_component(comp, i):
    """d_i of one component's term dict, like terms merged."""
    out = {}
    for (alpha, gamma), c in comp.items():
        ai = alpha[i]
        if ai:
            na = alpha[:i] + (ai - 1,) + alpha[i + 1:]
            _merge(out, (na, gamma), c * ai)
        if gamma != 0:
            na = alpha[:i] + (ai + 1,) + alpha[i + 1:]
            _merge(out, (na, gamma - 2), c * gamma)
    return out


def partial(T, i):
    """Partial derivative in direction i (same rank)."""
    if not 0 <= i < T.n:
        raise ValueError(f"index {i} out of range for n = {T.n}")
    return PolyTensor(T.n, T.rank, {
        idx: nc for idx, comp in T.comps.items()
        if (nc := _partial_component(comp, i))})


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


def gradient(T):
    """nabla T: rank increases by one, derivative index first."""
    return _build(T.n, T.rank + 1, (
        ((i,) + idx, key, c)
        for i in range(T.n) for idx, comp in partial(T, i).comps.items()
        for key, c in comp.items()))


def divergence(T):
    """delta h: contract the derivative with the first index."""
    if T.rank < 1:
        raise ValueError("divergence needs rank >= 1")
    return _build(T.n, T.rank - 1, (
        (idx[1:], key, c) for i in range(T.n)
        for idx, comp in T.comps.items() if idx[0] == i
        for key, c in _partial_component(comp, i).items()))


def trace2(T):
    if T.rank != 2:
        raise ValueError("trace needs rank 2")
    return _build(T.n, 0, (
        ((), key, c) for i in range(T.n)
        for key, c in T.comps.get((i, i), {}).items()))


def hessian(T):
    """Hess T = nabla nabla T of a scalar field."""
    if T.rank != 0:
        raise ValueError("hessian needs a scalar")
    return gradient(gradient(T))


def outer(A, B):
    """Outer product A (x) B: the field whose component (i..., j...) is
    A_i... B_j..., of rank A.rank + B.rank."""
    if A.n != B.n:
        raise ValueError(f"outer product needs one n, got n = {A.n} and "
                         f"n = {B.n}")
    return _build(A.n, A.rank + B.rank, (
        (i + j, (tuple(x + y for x, y in zip(a1, a2)), _fr(g1 + g2)),
         _fr(c1 * c2))
        for i, compA in A.comps.items() for j, compB in B.comps.items()
        for (a1, g1), c1 in compA.items() for (a2, g2), c2 in compB.items()))


def lie_flat(xi):
    """Lie derivative of the flat metric along the 1-form/vector xi:
    nabla xi plus its transpose."""
    if xi.rank != 1:
        raise ValueError("lie derivative needs a 1-form")
    return _build(xi.n, 2, (
        (out_idx, key, c) for (i, j), comp in gradient(xi).comps.items()
        for key, c in comp.items() for out_idx in ((i, j), (j, i))))


def radial_contraction(T):
    """Contraction with r^{-1} d/dr in the first slot: (x_i / r^2) T_{i...}."""
    if T.rank < 1:
        raise ValueError("radial contraction needs rank >= 1")
    return _build(T.n, T.rank - 1, (
        (idx[1:], (alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:], gamma - 2), c)
        for idx, comp in T.comps.items() for i in idx[:1]
        for (alpha, gamma), c in comp.items()))


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


# -- the operator table -------------------------------------------------------


def _two_tensor(h, k):
    if h.rank != 2:
        raise ValueError("needs a 2-tensor")
    if k < 1:
        raise ParameterError(f"need k >= 1, got k = {k}")
    if h.n < 3:
        raise ParameterError(f"needs n >= 3 (divides by n - 2), "
                             f"got n = {h.n}")


def div_star(xi):
    """Adjoint of the divergence: minus half the Lie derivative."""
    return xi.ops.lie_flat(xi).scaled(Fraction(-1, 2))


def div_t(T, t):
    """Modified divergence: delta h - t * (radial contraction of h)."""
    o = T.ops
    out = o.divergence(T)
    return out - o.radial_contraction(T).scaled(t) if _fr(t) else out


def gauge_op_t(xi, t):
    """Modified gauge operator: modified divergence of the Lie derivative."""
    return div_t(xi.ops.lie_flat(xi), t)


def gauge_op(xi):
    """The gauge operator on 1-forms: gauge_op_t at t = 0, the divergence
    of the Lie derivative."""
    return gauge_op_t(xi, 0)


def gauged_lin(h, k, t):
    """Gauged linearized operator on 2-tensors (strictly elliptic reduction).

    (c_{n,k}/(n-2)) Delta^{k-1} ( -1/2 Delta^2 h
        - t/2 Hess(div(i_radial h)) - t Delta div_star(i_radial h) ).

    With t = p/q and div_star = -lie/2 this is evaluated as
    -c_{n,k}/(2q(n-2)) Delta^{k-1} ( q Delta^2 h + p Hess(div(i_radial h))
    - p Delta lie(i_radial h) ), so integer input stays integer until the
    one final scaling.
    """
    _two_tensor(h, k)
    o, t = h.ops, _fr(t)
    core = o.laplacian(h, 2).scaled(t.denominator)
    if t:
        ir = o.radial_contraction(h)
        core = core + (o.hessian(o.divergence(ir))
                       - o.laplacian(o.lie_flat(ir))).scaled(t.numerator)
    return o.laplacian(core, k - 1).scaled(
        -cnk(h.n, k) / (2 * t.denominator * (h.n - 2)))


def bach_lin(h, k=1):
    """Linearized Bach/obstruction operator at the flat metric (no gauge).

    Delta^{k-1} ( -1/(2(n-2)) Delta^2 h - 1/(2(n-1)(n-2)) Hess(Delta tr h)
        - 1/(2(n-1)) Hess(div div h) - 1/(n-2) Delta div_star(div h)
        + 1/(2(n-1)(n-2)) (Delta^2 tr h - Delta div div h) g ).
    """
    _two_tensor(h, k)
    o, n = h.ops, h.n
    tr = o.trace2(h)
    dh = o.divergence(h)
    ddh = o.divergence(dh)
    core = o.laplacian(h, 2).scaled(Fraction(-1, 2 * (n - 2)))
    core = core - o.hessian(o.laplacian(tr)).scaled(
        Fraction(1, 2 * (n - 1) * (n - 2)))
    core = core - o.hessian(ddh).scaled(Fraction(1, 2 * (n - 1)))
    core = core - o.laplacian(div_star(dh)).scaled(Fraction(1, n - 2))
    trace_part = (o.laplacian(tr, 2) - o.laplacian(ddh)).scaled(
        Fraction(1, 2 * (n - 1) * (n - 2)))
    core = core + o.outer(o.delta_metric(n), trace_part)
    return o.laplacian(core, k - 1)


# The operators, keyed by their ``apply`` opcodes.  Each is stated once,
# above, as a plain function of its argument x over the primitives
# ``x.ops``.  Two evaluators read the table: a field's ops are this
# module's functions (``apply_operator`` and the public names above), and
# a ``mode_ode`` operand's are its probed pieces.
OPERATORS = {
    "partial": lambda x, t, k, index: x.ops.partial(x, index),
    "laplacian": lambda x, t, k, index: x.ops.laplacian(x),
    "div": lambda x, t, k, index: x.ops.divergence(x),
    "div_star": lambda x, t, k, index: div_star(x),
    "trace": lambda x, t, k, index: x.ops.trace2(x),
    "hessian": lambda x, t, k, index: x.ops.hessian(x),
    "i_radial": lambda x, t, k, index: x.ops.radial_contraction(x),
    "delta_t": lambda x, t, k, index: div_t(x, t),
    "lie": lambda x, t, k, index: x.ops.lie_flat(x),
    "div_lie": lambda x, t, k, index: gauge_op(x),
    "div_lie_t": lambda x, t, k, index: gauge_op_t(x, t),
    "gauged_lin": lambda x, t, k, index: gauged_lin(x, k, t),
    "bach_lin": lambda x, t, k, index: bach_lin(x, k),
}
OPCODES = tuple(OPERATORS)


def apply_operator(op, field, *, t=0, k=1, index=0):
    """The table's operator ``op`` evaluated on a field."""
    if op not in OPERATORS:
        raise ValueError(f"unknown opcode {op!r}; known: {OPCODES}")
    return OPERATORS[op](field, t, k, index)


# -- sphere integration --------------------------------------------------


def _half_factorial_rational(a):
    """Gamma(a + 1/2) / sqrt(pi) as a Fraction, for integer a >= 0."""
    out = Fraction(math.factorial(2 * a), 4 ** a * math.factorial(a))
    return out


def sphere_moment_reduced(n, alpha):
    """Moment integral over S^{n-1} of x^alpha divided by pi^floor(n/2).

    Exact rational value; zero when any entry of alpha is odd.
    """
    odd = _odd_factorial_product(tuple(alpha))
    return _moment_scale(n, sum(alpha)) * odd if odd else 0


@lru_cache(maxsize=None)
def _odd_factorial_product(alpha):
    """prod_i (alpha_i - 1)!!, the integer part of the sphere moment of
    x^alpha; 0 when any entry of alpha is odd.  Memoized on alpha."""
    out = 1
    for a in alpha:
        if a % 2:
            return 0
        out *= math.prod(range(a - 1, 0, -2))
    return out


@lru_cache(maxsize=None)
def _moment_scale(n, s):
    """The factor of the reduced sphere moment of x^alpha that depends on
    n and s = |alpha| alone (s even): with Gamma(b + 1/2) / sqrt(pi) =
    (2b - 1)!! / 2^b, the moment is _moment_scale(n, s) times
    _odd_factorial_product(alpha).  Memoized on (n, s)."""
    num = Fraction(2, 2 ** (s // 2))
    if (n + s) % 2 == 0:
        # numerator contributed pi^{n/2}; reduced by pi^{n/2}
        return num / math.factorial((n + s) // 2 - 1)
    # n odd: denominator Gamma(integer + 1/2) = rational * sqrt(pi), and
    # pi^{n/2} / pi^{1/2} = pi^{(n-1)/2}
    return num / _half_factorial_rational((n + s - 1) // 2)


def slice_inner_reduced(A, B):
    """Slice inner product <<A, B>> as dict r-exponent -> Fraction.

    The weighted slice integral (weight r^{-(n-1)}) of the pointwise inner
    product: the sum over matching terms of c1 c2 moment(alpha1 + alpha2)
    at exponent gamma1 + gamma2 + |alpha1| + |alpha2|.  Values are divided
    by pi^floor(n/2) to stay rational.  Radially parallel inputs give a
    single exponent 0.
    """
    if A.n != B.n or A.rank != B.rank:
        raise ValueError("shape mismatch")
    return _slice_inner_exact(A.n, _integer_form(A), _integer_form(B))


# -- angular bases and closure -------------------------------------------


class ClosureError(ArithmeticError):
    """An operator image that cannot be read exactly in an angular basis,
    or elements that do not make one."""


@dataclass
class AngularBasis:
    """Radially parallel, mutually orthogonal basis with its exact norms.

    Elements have homogeneity-0 components; ``norms`` holds each element's
    squared slice norm divided by pi^floor(n/2).  Building a basis checks
    the invariant once: a non-parallel element raises ValueError, and a
    nonzero cross product of two elements, or a zero norm, raises
    ClosureError naming the families.  ``decompose`` builds its table of
    the slice functionals of the image terms it meets (``_functionals``)
    lazily, as integers over one denominator.
    """

    n: int
    elements: list
    labels: list
    norms: list = dataclass_field(init=False)
    # image term (idx, alpha, gamma) -> ((r-exponent, den), numerators), the
    # term's functional against every element being numerator / den; ()
    # when it vanishes against every element
    _functionals: dict = dataclass_field(default_factory=dict, init=False,
                                         repr=False, compare=False)
    # per element (den, comps): the element is comps / den, comps integer
    _integer: list = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(T.is_radially_parallel() for T in self.elements):
            raise ValueError("basis element not radially parallel")
        self._integer = [_integer_form(T) for T in self.elements]
        self.norms = []
        for i, (a, label) in enumerate(zip(self._integer, self.labels,
                                           strict=True)):
            for b, other in zip(self._integer[:i], self.labels):
                if _slice_inner_exact(self.n, a, b):
                    raise ClosureError(f"angular families {other!r} and "
                                       f"{label!r} are not orthogonal")
            norm = _slice_inner_exact(self.n, a, a).get(0)
            if not norm:
                raise ClosureError(f"angular family {label!r} has zero norm")
            self.norms.append(norm)

    def __len__(self):
        return len(self.elements)

    def _functional(self, idx, alpha, gamma):
        """The table entry of one image term, computed on first use; the
        elements are radially parallel, so each functional has the one
        r-exponent gamma + |alpha|."""
        expo = gamma + sum(alpha)
        term = (1, {idx: {(alpha, gamma): 1}})
        vals = [_slice_inner_exact(self.n, term, T).get(expo, 0)
                for T in self._integer]
        if not any(vals):
            return ()
        den = math.lcm(*(v.denominator for v in vals))
        return (expo, den), tuple(v.numerator * (den // v.denominator)
                                  for v in vals)

    def decompose(self, angular_field):
        """Exact coefficients of angular_field in this basis, plus the
        canonical residual, whose ``comps`` are empty exactly when the field
        lies in the span.

        The field need not be canonical: the slice functionals integrate
        over the sphere, where sum_i x_i^2 = r^2 holds, so every
        representative of a field gives the same coefficients.  Its
        int/Fraction coefficients are put over one common denominator, and
        the field's functional against each element is summed as integer
        dot products with the table numerators, one sum per table
        denominator.  The basis is orthogonal, so each coefficient is that
        sum divided by the element's norm, one Fraction per element.  The
        residual field - sum_i c_i T_i is merged term by term into one dict
        of integer numerators over one common denominator and canonicalized
        once.
        """
        table = self._functionals
        fden = math.lcm(*(c.denominator for comp in angular_field.comps.values()
                          for c in comp.values()))
        sums = {}
        for idx, comp in angular_field.comps.items():
            for (alpha, gamma), c in comp.items():
                key = (idx, alpha, gamma)
                entry = table.get(key)
                if entry is None:
                    entry = table[key] = self._functional(idx, alpha, gamma)
                if not entry:
                    continue
                group, nums = entry
                cn = c.numerator * (fden // c.denominator)
                acc = sums.get(group)
                sums[group] = ([cn * v for v in nums] if acc is None else
                               [a + cn * v for a, v in zip(acc, nums)])
        by_expo = {}
        for (expo, den), acc in sums.items():
            by_expo.setdefault(expo, []).append((den, acc))
        rhs, rden = [0] * len(self.elements), 1
        for expo, parts in by_expo.items():
            lcd = math.lcm(*(den for den, _ in parts))
            nums = [sum(acc[i] * (lcd // den) for den, acc in parts)
                    for i in range(len(rhs))]
            if expo != 0:
                if any(nums):
                    raise ValueError(
                        "field is not radially parallel against basis")
            else:
                rhs, rden = nums, lcd
        den = rden * fden
        coeffs = [Fraction(v * norm.denominator, den * norm.numerator)
                  for v, norm in zip(rhs, self.norms)]
        # L * residual in integers, L the common denominator of the field
        # and of every c_i T_i
        L = math.lcm(fden, *(c.denominator * den for c, (den, _) in
                             zip(coeffs, self._integer)))
        residual = {idx: {key: c.numerator * (L // c.denominator)
                          for key, c in comp.items()}
                    for idx, comp in angular_field.comps.items()}
        for c, (den, comps) in zip(coeffs, self._integer):
            if c == 0:
                continue
            f = -c.numerator * (L // (c.denominator * den))
            for idx, comp in comps.items():
                target = residual.setdefault(idx, {})
                for key, v in comp.items():
                    _merge(target, key, f * v)
        residual = PolyTensor(angular_field.n, angular_field.rank,
                              residual).canonical()
        return coeffs, PolyTensor(residual.n, residual.rank, {
            idx: {key: _over(v, L) for key, v in comp.items()}
            for idx, comp in residual.comps.items()})


def _integer_form(T):
    """(den, comps) with T = comps / den: T's int/Fraction coefficients as
    integer numerators over their common denominator."""
    den = math.lcm(*(c.denominator for comp in T.comps.values()
                     for c in comp.values()))
    return den, {idx: {key: c.numerator * (den // c.denominator)
                       for key, c in comp.items()}
                 for idx, comp in T.comps.items()}


def _slice_inner_exact(n, A, B):
    """The one slice inner product kernel, behind ``slice_inner_reduced``,
    the basis norms and cross products and the ``decompose`` tables, on
    two fields given by ``_integer_form``: each moment is
    _moment_scale(n, |beta|) times the integer
    _odd_factorial_product(beta), so the integer products are summed per
    (r-exponent, |beta|) and each sum is scaled once."""
    (den_a, comps_a), (den_b, comps_b) = A, B
    parts = {}
    for idx, comp_a in comps_a.items():
        comp_b = comps_b.get(idx)
        if not comp_b:
            continue
        for (a1, g1), c1 in comp_a.items():
            d1 = g1 + sum(a1)
            for (a2, g2), c2 in comp_b.items():
                beta = tuple(x + y for x, y in zip(a1, a2))
                odd = _odd_factorial_product(beta)
                if odd:
                    key = (d1 + g2 + sum(a2), sum(beta))
                    parts[key] = parts.get(key, 0) + c1 * c2 * odd
    out = {}
    for (expo, s), v in parts.items():
        if v:
            _merge(out, expo, _moment_scale(n, s) * v)
    den = den_a * den_b
    return {expo: v / den for expo, v in out.items()}


def basis_from_elements(n, elements, labels=None):
    """The AngularBasis of ``elements``, labelled e0, e1, ... by default."""
    labels = labels or [f"e{i}" for i in range(len(elements))]
    return AngularBasis(n, list(elements), list(labels))


def angular_image(apply_fn, element, m):
    """Apply ``apply_fn`` to r^m * element and read the image exactly.

    Returns None when the image has no terms (an empty image has no
    homogeneity, so it takes the canonical path), else ``(weight, angular)``
    with image = r^(m - weight) * angular.  ``angular`` is the operator's
    raw output, not canonicalized: its terms may still be rewritten by
    sum_i x_i^2 = r^2, and it may even vanish modulo that relation, which
    ``AngularBasis.decompose`` reads as all-zero coefficients with an empty
    residual.  Raises ClosureError for a non-homogeneous image; a raw
    image with mixed homogeneity is canonicalized first and checked again,
    so exactly the images whose canonical form has mixed homogeneity are
    rejected (and one that is zero modulo the relation returns None).
    """
    image = apply_fn(element.radial_scaled(m))
    deg = image.homogeneity()
    if deg is None:
        image = image.canonical()
        if not image.comps:
            return None
        deg = image.homogeneity()
        if deg is None:
            raise ClosureError("operator image is not homogeneous")
    return m - deg, image.radial_scaled(-deg)


def tensor_mode_seed(n, j):
    """Seed phi_j dr (x) dr for the separated 2-tensor expansion."""
    return outer(dr_tensor(n), sphere_harmonic(n, j))


def tangential_traceless_hessian(n, j):
    """Traceless tangential part of r^2 Hess(phi_j), radially parallel.

    With P = Re(x_1 + i x_2)^j, phi_j = P r^-j, Pi = delta - x(x)x / r^2
    and c = j (j - 1) / (n - 1), Pi (r^2 Hess phi_j) Pi minus its trace
    part is, by Euler's relation x . grad P = j P and Delta P = 0,

        r^(2-j) Hess P - (j - 1) r^-j (x (x) grad P + grad P (x) x)
            + (j (j - 1) - c) r^(-j-2) P x (x) x + c r^-j P delta,

    built here as one field from the gradient and Hessian of P and
    canonicalized once.  Vanishes identically for j <= 1 (the sphere
    Hessian of a degree-1 harmonic is pure trace); for j >= 2 this is the
    fourth angular family.
    """
    if j <= 1:
        return PolyTensor(n, 2)
    P = cylindrical_harmonic(n, j)
    grad = gradient(P)
    c = _fr(Fraction(j * (j - 1), n - 1))
    cxx = _fr(j * (j - 1) - c)
    units = [tuple(int(a == b) for b in range(n)) for a in range(n)]

    def shift(alpha, a):
        return tuple(x + y for x, y in zip(alpha, units[a]))

    terms = [(idx, (alpha, gamma + 2 - j), v)
             for idx, comp in gradient(grad).comps.items()
             for (alpha, gamma), v in comp.items()]
    terms += [(pair, (shift(alpha, a), gamma - j), (1 - j) * v)
              for (i,), comp in grad.comps.items()
              for (alpha, gamma), v in comp.items()
              for a in range(n) for pair in ((a, i), (i, a))]
    for (alpha, gamma), v in P.comps.get((), {}).items():
        terms += [((a, b), (shift(shift(alpha, a), b), gamma - j - 2),
                   cxx * v) for a in range(n) for b in range(n)]
        terms += [((a, a), (alpha, gamma - j), c * v) for a in range(n)]
    return _build(n, 2, terms).canonical()


@lru_cache(maxsize=None)
def tensor_mode_basis(n, j):
    """The angular families of the separated 2-tensor expansion at degree j.

    [phi dr(x)dr, (r dphi) boxtimes dr, traceless tangential Hessian,
    phi (g - dr(x)dr)]; the middle families vanish at j = 0 and the
    Hessian family also vanishes at j = 1.  Memoized per (n, j): every
    caller shares the returned basis and must not mutate it.
    """
    phi = sphere_harmonic(n, j)
    dr = radial_form(n)
    els = [tensor_mode_seed(n, j)]
    labels = ["phi dr.dr"]
    if j >= 1:
        tau = gradient(phi).radial_scaled(1)
        els.append(outer(tau, dr) + outer(dr, tau))
        labels.append("tau boxtimes dr")
    if j >= 2:
        B = tangential_traceless_hessian(n, j)  # already canonical
        if B.comps:
            els.append(B)
            labels.append("traceless tangential")
    els.append(outer(tangential_metric(n), phi))
    labels.append("phi tangential metric")
    return basis_from_elements(n, els, labels)


@lru_cache(maxsize=None)
def oneform_mode_basis(n, j):
    """Radially parallel 1-form pair [phi dr, r d(phi)] for harmonic degree j.

    At j = 0 the differential part vanishes and the basis is [dr] alone.
    Memoized per (n, j): every caller shares the returned basis and must
    not mutate it.
    """
    phi = sphere_harmonic(n, j)
    el1 = outer(radial_form(n), phi)
    if j == 0:
        return basis_from_elements(n, [el1], ["phi dr"])
    el2 = gradient(phi).radial_scaled(1)  # r * d(phi), radially parallel
    return basis_from_elements(n, [el1, el2], ["phi dr", "r d(phi)"])
