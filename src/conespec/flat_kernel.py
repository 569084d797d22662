"""Finite-dimensional linear algebra for the divergence-free rigidity facts.

Exact nullspaces showing that homogeneous divergence-free candidates at the
two critical degrees (and the log profile in the critical dimension, and
the n = 3 degree-1 profile) vanish; the quadratic-vector-field/linear-
2-tensor Lie isomorphism; and the time-1 flow pullback defect of a
quadratic field, which is quadratic in the radius: exactly, by degree, on
integer fields, and numerically (DOP853) as a float oracle.  The
degree-1 reductions, nullspaces and Lie-map ranks are computed once per
process.
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
from .linalg import (row_in_rowspace, sparse_nullspace, sparse_rank,
                     sparse_rref)

MODES = ("degree0", "degree1", "log", "n3_degree1")


def _sym_pairs(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def _a_index(n):
    """Index map for A_{ijl}, symmetric in (i, j): ((i<=j), l) -> column."""
    cols = {}
    for (i, j) in _sym_pairs(n):
        for ell in range(n):
            cols[(i, j, ell)] = len(cols)
    return cols


def _acol(cols, i, j, ell):
    return cols[(min(i, j), max(i, j), ell)]


def degree1_system(n, k):
    """Rows of the exact divergence condition on the degree-1 profile.

    Unknowns A_{ijl} (symmetric in i, j); for each fixed j the quadratic
    identity (n-2k) sum_{i,l} A_{ijl} x_i x_l = |x|^2 sum_i A_{iji}
    is matched coefficient by coefficient.
    """
    cols = _a_index(n)
    factor = n - 2 * k
    rows = []
    for j in range(n):
        for (l, m) in _sym_pairs(n):
            if l == m:
                row = {_acol(cols, l, j, l): factor}
                for i in range(n):
                    c = _acol(cols, i, j, i)
                    row[c] = row.get(c, 0) - 1
            else:
                row = {_acol(cols, l, j, m): factor,
                       _acol(cols, m, j, l): factor}
            rows.append({c: v for c, v in row.items() if v != 0})
    return rows, len(cols), cols


def constant_profile_system(n):
    """Rows for sum_i c_{ij} x_i = 0 on a symmetric constant matrix c."""
    pairs = _sym_pairs(n)
    cols = {p: i for i, p in enumerate(pairs)}
    rows = []
    for j in range(n):
        for i in range(n):
            key = (min(i, j), max(i, j))
            rows.append({cols[key]: 1})
    return rows, len(cols), cols


def divergence_free_nullspace(n, k, mode):
    """Exact nullspace of the divergence condition on one homogeneous profile.

    degree0: |x|^{2(k+1)-n} c with constant symmetric c (n != 2(k+1));
    degree1: |x|^{2(k+1)-n} u(x/|x|^2) with linear u;
    log:     log|x| c in the critical dimension n = 2(k+1);
    n3_degree1: the unit-sphere linear profile at n = 3.
    The expected dimension is 0 in every mode.  The nullspace is computed
    once per (n, k, mode) and process; every call returns a new record.
    """
    validate_nk(n, k)
    if mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}")
    if mode == "log" and n != 2 * (k + 1):
        raise ParameterError("log profile only occurs when n = 2(k+1)")
    if mode == "degree0" and n == 2 * (k + 1):
        raise ParameterError(
            "degree0 profile is constant when n = 2(k+1); use mode='log'")
    if mode == "n3_degree1" and n != 3:
        raise ParameterError("n3_degree1 requires n = 3")
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
    if mode in ("degree0", "log"):
        rows, ncols, _ = constant_profile_system(n)
        pivots = sparse_rref(rows)
    elif mode == "degree1":
        ncols, _, pivots = _degree1_reduction(n, k)
    else:  # n3_degree1 is the degree-1 matching with n - 2k = 1 (n = 3)
        ncols, _, pivots = _degree1_reduction(3, 1)
    return ncols, tuple(tuple(v) for v in sparse_nullspace(pivots, ncols))


@lru_cache(maxsize=None)
def _degree1_reduction(n, k):
    """(unknowns, column map, sparse_rref pivots) of ``degree1_system``,
    reduced once per (n, k) and process and shared by the degree-1
    nullspace and the identity diagnostics; callers only read it."""
    rows, ncols, cols = degree1_system(n, k)
    return ncols, cols, sparse_rref(rows)


def degree1_identity_diagnostics(n, k):
    """Check that the degree-1 system forces the two classical identities.

    Verifies that the rows 'A_{pjp} = 0' and 'A_{ljm} + A_{mjl} = 0' lie in
    the row space of the assembled system for sampled indices.  Every
    candidate is read against the one reduction of the system that the
    degree-1 nullspace also reads.
    """
    _, cols, pivots = _degree1_reduction(n, k)
    checks = []
    for p in range(min(n, 3)):
        for j in range(min(n, 3)):
            cand = {_acol(cols, p, j, p): 1}
            checks.append(("diag", (p, j),
                           row_in_rowspace(pivots, cand)))
    for (l, j, m) in itertools.islice(
            ((l, j, m) for l in range(n) for j in range(n)
             for m in range(n) if l != m), 6):
        cand = {_acol(cols, l, j, m): 1, _acol(cols, m, j, l): 1}
        checks.append(("antisym", (l, j, m),
                       row_in_rowspace(pivots, cand)))
    return checks


# -- quadratic vector fields ------------------------------------------------


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
            coeffs = {(i, l, m): int(rng.integers(-3, 4))
                      for i in range(n) for (l, m) in _sym_pairs(n)}
            coeffs = {key: v for key, v in coeffs.items() if v}
            if coeffs:
                return cls(n, coeffs)

    @classmethod
    def random(cls, n, rng, scale=1.0):
        coeffs = {}
        for i in range(n):
            for (l, m) in _sym_pairs(n):
                coeffs[(i, l, m)] = float(rng.standard_normal())
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


def quadratic_lie_map_rows(n):
    """Sparse rows of X -> L_X g0 from quadratic-field to linear-2-tensor
    coordinates; both spaces have dimension n^2 (n+1) / 2."""
    pairs = _sym_pairs(n)
    acols = {}
    for i in range(n):
        for (l, m) in pairs:
            acols[(i, l, m)] = len(acols)
    rows = []
    row_index = {}
    for (i, j) in pairs:
        for m in range(n):
            row_index[(i, j, m)] = len(row_index)
            rows.append({})
    # (L_X g0)_{ij} = 2 sum_m (a_{ijm} + a_{jim}) x_m  (a symmetric in last two)
    for (i, j) in pairs:
        for m in range(n):
            row = rows[row_index[(i, j, m)]]
            for (p, q) in ((i, j), (j, i)):
                key = (p, min(q, m), max(q, m))
                col = acols[key]
                # d_q X_p picks up a factor 2 on the diagonal l = m of a
                weight = 2 if q == m else 1
                row[col] = row.get(col, 0) + weight
    return rows, len(acols), acols, row_index


def quadratic_lie_isomorphism(n):
    """Exact rank of the Lie map from quadratic fields to linear 2-tensors,
    computed once per n and process; every call returns a new record."""
    if n < 2:
        raise ParameterError("need n >= 2")
    nrows, ncols, rank = _lie_map_rank(n)
    return {
        "n": n,
        "dimension": ncols,
        "rank": rank,
        "invertible": rank == ncols and nrows == ncols,
        "nullspace_dimension": ncols - rank,
    }


@lru_cache(maxsize=None)
def _lie_map_rank(n):
    rows, ncols, _, _ = quadratic_lie_map_rows(n)
    return len(rows), ncols, sparse_rank(rows)


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
