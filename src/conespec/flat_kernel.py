"""Finite-dimensional linear algebra for the divergence-free rigidity facts.

Exact nullspaces showing that homogeneous divergence-free candidates at the
two critical degrees (and the log profile in the critical dimension)
vanish; the quadratic-vector-field/linear-2-tensor Lie isomorphism; and
the time-1 flow pullback defect of a quadratic field, which is quadratic
in the radius: exactly, by degree, on integer fields, and numerically
(DOP853) as a float oracle.  The rigidity systems are read off the
operator table: ``operator_rows`` applies ``polytensor.OPERATORS["div"]``
or ``["lie"]`` to one candidate field per unknown and keys the images at
one common radial power per class, so no row is written by hand.  The
nullspaces and Lie-map ranks are computed once per process.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import polytensor as pt
from .closed_form import ParameterError, validate_nk
from .linalg import sparse_nullspace, sparse_rank, sparse_rref

MODES = ("degree0", "degree1", "log")


def operator_rows(op, fields):
    """Sparse rows of the table operator ``op`` on one field per unknown,
    column c holding the image of ``fields[c]``; integer fields give
    integer rows.

    Every image is keyed at one common radial power per class of the
    exponent mod 2, the least over all images, its higher-power terms
    lifted by |x|^2 = sum_i x_i^2; so a combination of the fields has a
    zero image exactly when it meets every row.  (Images canonicalized
    one by one could hide a relation through |x|^2.)  Rows are keyed by
    (component, radial power, monomial); a condition met under several
    keys, as the (i, j) and (j, i) components of a symmetric image are,
    is kept once, under its first key.
    """
    images = [pt.apply_operator(op, f) for f in fields]
    base = {}
    for image in images:
        for comp in image.comps.values():
            for _, gamma in comp:
                base[gamma % 2] = min(gamma, base.get(gamma % 2, gamma))
    rows = {}
    for col, image in enumerate(images):
        for idx, comp in image.comps.items():
            for (alpha, gamma), c in comp.items():
                g = base[gamma % 2]
                # the lift by |x|^(gamma - g), skipped when there is none
                lifted = ((alpha, 1),) if gamma == g else (
                    (tuple(map(int.__add__, alpha, b)), v)
                    for b, v in pt._q_power(len(alpha), (gamma - g) // 2))
                for beta, v in lifted:
                    row = rows.setdefault((idx, g, beta), {})
                    row[col] = row.get(col, 0) + c * v
    distinct = {}
    for key, row in rows.items():
        row = {col: v for col, v in row.items() if v}
        if row:
            distinct.setdefault(tuple(sorted(row.items())), (key, row))
    return dict(distinct.values())


def _profile_fields(n, k, mode):
    """One symmetric 2-tensor per unknown of a profile, i <= j:
    r^(2k-n) x_l (e_i . e_j) for the degree-1 coefficients A_ijl, and
    r^(2(k+1)-n) (e_i . e_j) for the constant c_ij of degree 0 and log."""
    if mode == "degree1":
        gamma = 2 * k - n
        monomials = [tuple(int(q == ell) for q in range(n))
                     for ell in range(n)]
    else:
        # d_i log|x| = x_i |x|^-2 is the gamma -> 0 limit of
        # d_i |x|^gamma / gamma, so the rows of log|x| c are those of
        # |x|^gamma c at any fixed gamma != 0, up to the factor gamma
        gamma = 2 * (k + 1) - n if mode == "degree0" else 2
        monomials = [(0,) * n]
    return [pt.PolyTensor(n, 2, {idx: {(alpha, gamma): 1}
                                 for idx in sorted({(i, j), (j, i)})})
            for i, j in itertools.combinations_with_replacement(range(n), 2)
            for alpha in monomials]


def divergence_free_nullspace(n, k, mode):
    """Exact nullspace of the divergence condition on one homogeneous profile.

    degree0: |x|^{2(k+1)-n} c with constant symmetric c (n != 2(k+1));
    degree1: |x|^{2(k+1)-n} u(x/|x|^2) with linear u;
    log:     log|x| c in the critical dimension n = 2(k+1).
    The rows are ``operator_rows`` of the table's ``div`` on the profile's
    candidate fields.  The expected dimension is 0 in every mode.  The
    nullspace is computed once per (n, k, mode) and process; every call
    returns a new record.
    """
    validate_nk(n, k)
    if mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}")
    if mode == "log" and n != 2 * (k + 1):
        raise ParameterError("log profile only occurs when n = 2(k+1)")
    if mode == "degree0" and n == 2 * (k + 1):
        raise ParameterError(
            "degree0 profile is constant when n = 2(k+1); use mode='log'")
    ncols, basis = _divergence_free_nullspace(n, k, mode)
    return {
        "mode": mode, "n": n, "k": k,
        "unknowns": ncols,
        "dimension": len(basis),
        "basis": [list(v) for v in basis],
    }


@lru_cache(maxsize=None)
def _divergence_free_nullspace(n, k, mode):
    """(unknowns, nullspace basis as tuples) of a validated profile."""
    fields = _profile_fields(n, k, mode)
    pivots = sparse_rref(list(operator_rows("div", fields).values()))
    return len(fields), tuple(
        tuple(v) for v in sparse_nullspace(pivots, len(fields)))


# -- quadratic vector fields ------------------------------------------------


def _coefficient_keys(n):
    """The keys (i, l, m), l <= m, of a quadratic field's coefficients."""
    return [(i, l, m) for i in range(n) for l, m in
            itertools.combinations_with_replacement(range(n), 2)]


@dataclass
class QuadraticField:
    """Vector field with components X_i = sum_{l<=m} a_{ilm} x_l x_m."""

    n: int
    coeffs: dict  # (i, l<=m) -> float/Fraction

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def random_integer(cls, n, rng):
        """Nonzero field with integer coefficients drawn uniformly from
        [-3, 3] (exact input for ``quadratic_flow_defect``)."""
        while True:
            coeffs = {key: int(rng.integers(-3, 4))
                      for key in _coefficient_keys(n)}
            coeffs = {key: v for key, v in coeffs.items() if v}
            if coeffs:
                return cls(n, coeffs)

    @classmethod
    def random(cls, n, rng, scale=1.0):
        coeffs = {key: float(rng.standard_normal())
                  for key in _coefficient_keys(n)}
        norm = math.sqrt(sum(v * v for v in coeffs.values()))
        return cls(n, {k: scale * v / norm for k, v in coeffs.items()})

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(self.n)
        for (i, l, m), v in self.coeffs.items():
            out[i] += float(v) * x[l] * x[m]
        return out

    def jacobian(self, x):
        x = np.asarray(x, dtype=float)
        jac = np.zeros((self.n, self.n))
        for (i, l, m), v in self.coeffs.items():
            jac[i, l] += float(v) * x[m]
            jac[i, m] += float(v) * x[l]
        return jac

    def lie_flat_matrix(self, x):
        """(L_X g0)_{ij}(x) = d_i X_j + d_j X_i (exact, linear in x)."""
        jac = self.jacobian(x)
        return jac + jac.T

    def bound_constant(self):
        """sup over the unit sphere of |X| (coarse coefficient bound)."""
        return sum(abs(float(v)) for v in self.coeffs.values())


def quadratic_lie_isomorphism(n):
    """Exact rank of the Lie map X -> L_X g0 from quadratic fields to
    linear 2-tensors, the ``operator_rows`` of the table's ``lie`` on the
    fields x_l x_m e_i.  Both spaces have dimension n^2 (n+1) / 2, so the
    map is invertible when its rank is full.  The rank is computed once
    per n and process; every call returns a new record."""
    if n < 2:
        raise ParameterError("need n >= 2")
    ncols, rank = _lie_map_rank(n)
    return {
        "n": n,
        "dimension": ncols,
        "rank": rank,
        "invertible": rank == ncols,
        "nullspace_dimension": ncols - rank,
    }


def _lie_fields(n):
    """The fields x_l x_m e_i, one per coefficient a_ilm (l <= m)."""
    return [_integer_field(QuadraticField(n, {key: 1}))
            for key in _coefficient_keys(n)]


@lru_cache(maxsize=None)
def _lie_map_rank(n):
    fields = _lie_fields(n)
    return len(fields), sparse_rank(list(operator_rows("lie", fields).values()))


# -- exact flow defect --------------------------------------------------------


def _integer_field(x_field):
    """The field as a rank-1 PolyTensor, refusing non-integer coefficients."""
    n = x_field.n
    X = pt.PolyTensor(n, 1)
    for (i, ell, m), a in x_field.coeffs.items():
        if not isinstance(a, int):
            raise ParameterError("the exact flow defect needs integer "
                                 f"coefficients, got {a!r}")
        alpha = [0] * n
        alpha[ell] += 1
        alpha[m] += 1
        X.add_term((i,), alpha, 0, a)
    return X


def quadratic_flow_defect(x_field):
    """Degree-0, -1 and -2 parts of the time-1 flow pullback defect
    phi^* g0 - g0 - L_X g0 of a quadratic field with integer coefficients.

    The flow's Taylor terms come from the Picard recursion on the bilinear
    form Q of the field (X(y) = Q(y, y)): c_0 = x and
    (p + 1) c_{p+1} = sum_{a+b=p} Q(c_a, c_b), so c_p is homogeneous of
    degree p + 1 and the time-1 map is phi = sum_p c_p.  c_0, c_1 and c_2
    fix D phi, and so the defect, through degree 2.  The recursion runs on
    the integer numerators N_p = 2^p p! c_p,
    N_{p+1} = sum_a C(p, a) 2Q(N_a, N_{p-a}), and the degree-d part of
    the pullback on 2^d d! times it.  Returns three symmetric rank-2
    PolyTensors, one per degree.
    """
    X = _integer_field(x_field)
    n = X.n

    def twice_q(u, v):
        out = [pt.PolyTensor(n, 0) for _ in range(n)]
        for (i, ell, m), a in x_field.coeffs.items():
            out[i] = out[i] + (pt.mul_scalar_field(u[ell], v[m])
                               + pt.mul_scalar_field(u[m], v[ell])).scaled(a)
        return out

    nums = [[pt.PolyTensor(n, 0).add_term(
        (), [int(q == i) for q in range(n)], 0, 1) for i in range(n)]]
    for p in range(2):
        acc = [pt.PolyTensor(n, 0) for _ in range(n)]
        for a in range(p + 1):
            acc = [s + q.scaled(math.comb(p, a)) for s, q in
                   zip(acc, twice_q(nums[a], nums[p - a]))]
        nums.append(acc)
    dnum = [[pt.gradient(comp) for comp in num] for num in nums]

    # g0 and L_X g0, each at the scale 2^d d! of its degree
    subtract = (pt.delta_metric(n), pt.lie_flat(X).scaled(2))
    parts = []
    for d in range(3):
        part = subtract[d].scaled(-1) if d < 2 else pt.PolyTensor(n, 2)
        for p in range(d + 1):
            for i in range(n):
                part = part + pt.tensor_outer(dnum[p][i], dnum[d - p][i]
                                              ).scaled(math.comb(d, p))
        parts.append(part.scaled(Fraction(1, 2 ** d * math.factorial(d))))
    return parts


def flow_defect_form(x_field):
    """The degree-2 form DX^T DX + (D(DX X) + D(DX X)^T) / 2 of the flow
    pullback defect of a field with integer coefficients: the sum over i
    of dX_i (x) dX_i plus half the flat Lie derivative along
    nabla_X X."""
    X = _integer_field(x_field)
    form = pt.PolyTensor(X.n, 2)
    nabla_x_x = pt.PolyTensor(X.n, 1)
    for (i,), comp in X.comps.items():
        Xi = pt.PolyTensor(X.n, 0, {(): dict(comp)})
        dXi = pt.gradient(Xi)
        form = form + pt.tensor_outer(dXi, dXi)
        nabla_x_x = nabla_x_x + pt.mul_scalar_field(pt.partial(X, i), Xi)
    return form + pt.lie_flat(nabla_x_x).scaled(Fraction(1, 2))


def quadratic_flow_error(x_field, radii, *, rng=None):
    """Slope of the time-1 flow pullback defect against the radius.

    Integrates the flow of a quadratic field (DOP853, rtol 1e-12) from four
    random points on each sphere of the given radii, differentiates the
    flow map by central differences (step 1e-5 times the radius), and
    compares the pullback metric with g0 + L_X g0.  The sup defect per
    radius scales like r^2; the log-log slope is returned along with
    per-radius errors.  Needs scipy, from the ``test`` extra.
    """
    try:
        from scipy.integrate import solve_ivp
    except ImportError as exc:
        raise ImportError("quadratic_flow_error needs scipy: pip install "
                          "'conespec[test]'") from exc

    n = x_field.n
    radii = sorted(float(r) for r in radii)
    if len(radii) >= 2 and radii[-1] / radii[0] < 10:
        raise ParameterError("radii should span at least one decade")
    c_bound = x_field.bound_constant()
    usable = [r for r in radii if c_bound == 0 or r < 1.0 / (2.0 * c_bound)]
    rejected = [r for r in radii if r not in usable]
    rng = np.random.default_rng(0) if rng is None else rng

    if not x_field.coeffs:
        return {"slope": None, "errors_by_radius": {r: 0.0 for r in usable},
                "rejected_radii": rejected, "identity_flow": True}

    dirs = rng.standard_normal((4, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    def rhs(_, y):
        pts = y.reshape(-1, n)
        return np.stack([x_field(p) for p in pts]).ravel()

    errors = {}
    for r in usable:
        h = r * 1e-5
        worst = 0.0
        for d in dirs:
            p = r * d
            batch = [p]
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                batch.extend([p + e, p - e])
            y0 = np.stack(batch).ravel()
            sol = solve_ivp(rhs, (0.0, 1.0), y0, rtol=1e-12, atol=1e-14,
                            method="DOP853", dense_output=False)
            if not sol.success:
                raise ArithmeticError(f"flow escaped at radius {r}")
            pts = sol.y[:, -1].reshape(-1, n)
            jac = np.zeros((n, n))
            for i in range(n):
                jac[:, i] = (pts[1 + 2 * i] - pts[2 + 2 * i]) / (2 * h)
            pullback = jac.T @ jac
            defect = pullback - np.eye(n) - x_field.lie_flat_matrix(p)
            worst = max(worst, float(np.max(np.abs(defect))))
        errors[r] = worst
    rs = np.array(sorted(errors))
    es = np.array([errors[r] for r in rs])
    slope = None
    if len(rs) >= 2 and np.all(es > 0):
        slope = float(np.polyfit(np.log(rs), np.log(es), 1)[0])
    return {"slope": slope, "errors_by_radius": errors,
            "rejected_radii": rejected, "identity_flow": False}
