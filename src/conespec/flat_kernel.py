"""Finite-dimensional linear algebra for the divergence-free rigidity facts.

Exact nullspaces showing that homogeneous divergence-free candidates at the
two critical degrees (and the log profile in the critical dimension, and
the n = 3 degree-1 profile) vanish; the quadratic-vector-field/linear-
2-tensor Lie isomorphism; and the numeric time-1 flow pullback error of a
quadratic field, whose defect is quadratic in the radius.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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
    factor = Fraction(n - 2 * k)
    rows = []
    for j in range(n):
        for (l, m) in _sym_pairs(n):
            row = {}
            if l == m:
                row[_acol(cols, l, j, l)] = row.get(_acol(cols, l, j, l), Fraction(0)) + factor
                for i in range(n):
                    c = _acol(cols, i, j, i)
                    row[c] = row.get(c, Fraction(0)) - 1
            else:
                c1 = _acol(cols, l, j, m)
                c2 = _acol(cols, m, j, l)
                row[c1] = row.get(c1, Fraction(0)) + factor
                row[c2] = row.get(c2, Fraction(0)) + factor
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
            rows.append({cols[key]: Fraction(1)})
    return rows, len(cols), cols


def divergence_free_nullspace(n, k, mode):
    """Exact nullspace of the divergence condition on one homogeneous profile.

    degree0: |x|^{2(k+1)-n} c with constant symmetric c (n != 2(k+1));
    degree1: |x|^{2(k+1)-n} u(x/|x|^2) with linear u;
    log:     log|x| c in the critical dimension n = 2(k+1);
    n3_degree1: the unit-sphere linear profile at n = 3.
    The expected dimension is 0 in every mode.
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

    if mode in ("degree0", "log"):
        rows, ncols, cols = constant_profile_system(n)
    elif mode == "degree1":
        rows, ncols, cols = degree1_system(n, k)
    else:  # n3_degree1 is the degree-1 matching with n - 2k = 1 (n = 3)
        rows, ncols, cols = degree1_system(3, 1)
    basis = sparse_nullspace(rows, ncols)
    return {
        "mode": mode, "n": n, "k": k,
        "unknowns": ncols,
        "dimension": len(basis),
        "basis": basis,
    }


def degree1_identity_diagnostics(n, k):
    """Check that the degree-1 system forces the two classical identities.

    Verifies that the rows 'A_{pjp} = 0' and 'A_{ljm} + A_{mjl} = 0' lie in
    the row space of the assembled system for sampled indices.  The
    system is reduced once and every candidate is read against it.
    """
    rows, _, cols = degree1_system(n, k)
    pivots = sparse_rref(rows)
    checks = []
    for p in range(min(n, 3)):
        for j in range(min(n, 3)):
            cand = {_acol(cols, p, j, p): Fraction(1)}
            checks.append(("diag", (p, j),
                           row_in_rowspace(pivots, cand)))
    for (l, j, m) in itertools.islice(
            ((l, j, m) for l in range(n) for j in range(n)
             for m in range(n) if l != m), 6):
        cand = {}
        c1 = _acol(cols, l, j, m)
        c2 = _acol(cols, m, j, l)
        cand[c1] = cand.get(c1, Fraction(0)) + 1
        cand[c2] = cand.get(c2, Fraction(0)) + 1
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
    def from_entries(cls, n, entries):
        coeffs = {}
        for (i, l, m), v in entries.items():
            coeffs[(i, min(l, m), max(l, m))] = coeffs.get(
                (i, min(l, m), max(l, m)), 0) + v
        return cls(n, {k: v for k, v in coeffs.items() if v != 0})

    @classmethod
    def random(cls, n, rng, scale=1.0):
        coeffs = {}
        for i in range(n):
            for (l, m) in _sym_pairs(n):
                coeffs[(i, l, m)] = float(rng.standard_normal())
        f = cls(n, coeffs)
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
                weight = Fraction(2) if q == m else Fraction(1)
                row[col] = row.get(col, Fraction(0)) + weight
    return rows, len(acols), acols, row_index


def quadratic_lie_isomorphism(n):
    """Exact rank of the Lie map from quadratic fields to linear 2-tensors."""
    if n < 2:
        raise ParameterError("need n >= 2")
    rows, ncols, acols, row_index = quadratic_lie_map_rows(n)
    rank = sparse_rank(rows)
    return {
        "n": n,
        "dimension": ncols,
        "rank": rank,
        "invertible": rank == ncols and len(rows) == ncols,
        "nullspace_dimension": ncols - rank,
    }


def quadratic_flow_error(x_field, radii, *, rng=None):
    """Slope of the time-1 flow pullback defect against the radius.

    Integrates the flow of a quadratic field (DOP853, rtol 1e-12) from four
    random points on each sphere of the given radii, differentiates the
    flow map by central differences (step 1e-5 times the radius), and
    compares the pullback metric with g0 + L_X g0.  The sup defect per
    radius scales like r^2; the log-log slope is returned along with
    per-radius errors.
    """
    from scipy.integrate import solve_ivp

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
