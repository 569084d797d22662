"""Separated-variable mode systems: probing, indicial spectra, annulus checks.

The exact operators act on radially parallel angular bases; applying one to
r^m times a basis element returns r^{m-w} times an angular combination, so
the matrix indicial polynomial P(z) is read off exactly by polynomial
interpolation over enough probe degrees.  Spectra, growth/decay splits,
the three-annulus inequalities and the degenerate-solution scan all live
on top of that data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

import numpy as np

from . import polytensor as pt
from .closed_form import ParameterError
from .expsum import ExpSum, ExpTerm, _poly_exp_integral, three_interval
from .linalg import (det_dense, lagrange_coefficients, poly_derivative,
                     poly_eval, poly_trim)
from .polytensor import AngularBasis, ClosureError


class ProbeError(ClosureError):
    pass


@dataclass
class EulerOperator:
    """Matrix indicial polynomial of an operator on a closed angular basis.

    Acting on e^{zs} v (s = log r) yields e^{(z-w)s} P(z) v; entries of P
    are Fraction coefficient lists (low order first).
    """

    basis: AngularBasis
    target: AngularBasis
    weight: Fraction
    order: int
    P: list

    @property
    def m_ang(self):
        return len(self.basis)

    @property
    def square(self):
        return len(self.basis) == len(self.target)

    def eval_float(self, z, derivative=0):
        """Complex matrix P^{(derivative)}(z)."""
        rows = len(self.target)
        cols = len(self.basis)
        out = np.zeros((rows, cols), dtype=complex)
        for r in range(rows):
            for c in range(cols):
                p = self.P[r][c]
                for _ in range(derivative):
                    p = poly_derivative(p)
                out[r, c] = complex(poly_eval([complex(x) for x in p], complex(z)))
        return out

    def eval_exact(self, z):
        return [[poly_eval(self.P[r][c], Fraction(z))
                 for c in range(len(self.basis))]
                for r in range(len(self.target))]

    def det_poly(self):
        """Exact determinant polynomial by evaluation-interpolation."""
        if not self.square:
            raise ProbeError("determinant needs a square system")
        deg = self.m_ang * self.order
        pts = []
        for m in range(deg + 1):
            z = Fraction(m)
            pts.append((z, det_dense(self.eval_exact(z))))
        return lagrange_coefficients(pts)


def probe_euler(apply_fn, basis, order, *, target=None, probe_degrees=None,
                holdout=True):
    """Recover the exact Euler matrix polynomial of an operator by probing.

    apply_fn maps a PolyTensor to a PolyTensor; the basis (and target
    basis, when the operator changes rank) must be closed under it.
    Probes at order+1 distinct rational degrees, interpolates each matrix
    entry, and verifies one held-out degree.
    """
    target = target or basis
    degrees = list(probe_degrees) if probe_degrees is not None else \
        [Fraction(m) for m in range(order + 1)]
    if len(set(degrees)) < order + 1:
        raise ProbeError("need at least order+1 distinct probe degrees")
    extra = max(degrees) + 1 if holdout else None

    def column(m, ci):
        try:
            read = pt.angular_image(apply_fn, basis.elements[ci], m)
        except ClosureError as exc:
            raise ProbeError(str(exc)) from exc
        if read is None:
            return [Fraction(0)] * len(target), None
        w, ang = read
        try:
            coeffs, residual = target.decompose(ang)
        except ValueError as exc:
            raise ProbeError(f"image outside target span: {exc}") from exc
        if residual.comps:
            raise ProbeError(
                "basis not closed under the operator; extend with "
                "closure_basis before probing")
        return coeffs, w

    weight = None
    samples = {}
    for m in degrees:
        cols = []
        for ci in range(len(basis)):
            coeffs, w = column(m, ci)
            if w is not None:
                if weight is None:
                    weight = w
                elif w != weight:
                    raise ProbeError("inconsistent operator weight")
            cols.append(coeffs)
        samples[m] = cols
    if weight is None:
        raise ProbeError("operator vanished on every probe")
    P = []
    for r in range(len(target)):
        row = []
        for c in range(len(basis)):
            pts = [(Fraction(m), samples[m][c][r]) for m in degrees]
            row.append(lagrange_coefficients(pts))
        P.append(row)
    op = EulerOperator(basis, target, weight, order, P)
    if holdout:
        cols, _ = zip(*[column(extra, ci) for ci in range(len(basis))])
        for r in range(len(target)):
            for c in range(len(basis)):
                want = cols[c][r]
                got = poly_eval(P[r][c], Fraction(extra))
                if want != got:
                    raise ProbeError("holdout probe mismatch; raise the order")
    return op


# -- spectra ---------------------------------------------------------------


@dataclass
class RootData:
    value: complex
    multiplicity: int
    kernel: np.ndarray  # geometric kernel vectors, columns
    chain_basis: np.ndarray  # solution-chain basis, shape (mult*m_ang, dim)

    @property
    def classification(self):
        if abs(self.value.real) < 1e-8:
            return "zero"
        return "plus" if self.value.real > 0 else "minus"


@dataclass
class IndicialSpectrum:
    operator: EulerOperator
    roots: list
    low_confidence: bool = False

    @property
    def total_multiplicity(self):
        return sum(r.multiplicity for r in self.roots)

    def partition(self):
        out = {"plus": [], "minus": [], "zero": []}
        for i, r in enumerate(self.roots):
            out[r.classification].append(i)
        return out

    @property
    def beta(self):
        vals = [abs(r.value.real) for r in self.roots
                if r.classification != "zero"]
        return min(vals) if vals else None

    def summary(self):
        return {
            "roots": [{"re": r.value.real, "im": r.value.imag,
                       "mult": r.multiplicity} for r in self.roots],
            "beta": self.beta,
            "total_multiplicity": self.total_multiplicity,
            "m_ang": self.operator.m_ang,
            "order": self.operator.order,
        }


def _nullspace_float(mat, rtol=1e-8, scale=None):
    """SVD nullspace with the cutoff tied to a natural problem scale.

    The scale floor matters when the evaluated matrix is (near) identically
    zero: thresholding against its own largest singular value would then
    keep pure roundoff and report an empty kernel.
    """
    u, s, vh = np.linalg.svd(mat)
    if s.size == 0:
        return np.eye(mat.shape[1], dtype=complex)
    base = max(s[0], scale if scale is not None else 0.0, 1e-300)
    cutoff = rtol * base
    rank = int((s > cutoff).sum())
    return vh[rank:].conj().T


def _operator_scale(op):
    """Coefficient magnitude of a probed system (threshold reference)."""
    worst = 1.0
    for row in op.P:
        for p in row:
            worst = max(worst, sum(abs(float(complex(c).real))
                                   + abs(float(complex(c).imag)) for c in p))
    return worst


def _chain_matrix(op, zeta, mult):
    """Log-power chain condition of op at a root zeta of multiplicity mult.

    Vectors stack (u_0, ..., u_{mult-1}); block (m, m+i) is
    C(m+i, i) P^(i)(zeta), so block row m reads
    sum_i C(m+i, i) P^(i)(zeta) u_{m+i} = 0.
    """
    m_ang = op.m_ang
    rows = len(op.target)
    big = np.zeros((mult * rows, mult * m_ang), dtype=complex)
    for i in range(mult):
        deriv = op.eval_float(zeta, derivative=i)
        for m in range(mult - i):
            col = (m + i) * m_ang
            big[m * rows:(m + 1) * rows, col:col + m_ang] = \
                math.comb(m + i, i) * deriv
    return big


def _chain_space(op, zeta, mult, rtol=1e-9):
    """Basis of log-power solution chains at a root."""
    return _nullspace_float(_chain_matrix(op, zeta, mult), rtol=rtol,
                            scale=_operator_scale(op))


def indicial_spectrum(op, cluster_radius=1e-7):
    """Roots with multiplicities and kernel data of a square mode system.

    Multiplicities come from the exact square-free factorization of the
    exact determinant; the float roots of each (well-conditioned) distinct-
    root factor are then deduplicated at the cluster radius, flagging any
    ambiguous near-coincidence.
    """
    from .linalg import poly_squarefree_factors

    det = op.det_poly()
    if all(c == 0 for c in det):
        raise ProbeError("identically singular system")
    root_list = []
    for factor, mult in poly_squarefree_factors(det):
        coeffs = [complex(c) for c in reversed(factor)]
        for z in np.roots(coeffs):
            root_list.append((complex(z), mult))
    # merge identical roots found in different factors (adds multiplicities)
    merged = []
    low_confidence = False
    for z, mult in sorted(root_list, key=lambda t: (t[0].real, t[0].imag)):
        for rec in merged:
            if abs(rec[0] - z) <= cluster_radius:
                rec[1] += mult
                break
        else:
            merged.append([z, mult])
    for a in range(len(merged)):
        for b in range(a + 1, len(merged)):
            gap = abs(merged[a][0] - merged[b][0])
            if cluster_radius < gap <= 10 * cluster_radius:
                low_confidence = True
    out = []
    scale = _operator_scale(op)
    for z, mult in merged:
        center = complex(z)
        if abs(center.imag) < 1e-10:
            center = complex(center.real, 0.0)
        kernel = _nullspace_float(op.eval_float(center), scale=scale)
        chains = _chain_space(op, center, mult)
        out.append(RootData(center, mult, kernel, chains))
    out.sort(key=lambda r: (r.value.real, r.value.imag))
    return IndicialSpectrum(op, out, low_confidence)


# -- mode solutions ---------------------------------------------------------


@dataclass
class ModeSolution:
    """Kernel element of one mode system: coefficients d_{a, b, c}.

    a indexes roots of the spectrum, b the log power (below the root
    multiplicity), c the angular family.
    """

    spectrum: IndicialSpectrum
    tables: dict  # root index -> complex array (mult, m_ang)

    @classmethod
    def from_chain_weights(cls, spectrum, weights):
        """Combine chain bases with the given per-root weight vectors."""
        tables = {}
        m_ang = spectrum.operator.m_ang
        for a, w in weights.items():
            root = spectrum.roots[a]
            vec = root.chain_basis @ np.asarray(w, dtype=complex)
            tables[a] = vec.reshape(root.multiplicity, m_ang)
        return cls(spectrum, tables)

    @classmethod
    def random(cls, spectrum, rng, include=("plus", "minus", "zero")):
        weights = {}
        for a, root in enumerate(spectrum.roots):
            if root.classification not in include:
                continue
            dim = root.chain_basis.shape[1]
            if dim == 0:
                continue
            weights[a] = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return cls.from_chain_weights(spectrum, weights)

    def restricted(self, classes):
        tables = {a: tab for a, tab in self.tables.items()
                  if self.spectrum.roots[a].classification in classes}
        return ModeSolution(self.spectrum, tables)

    def family_profile(self, c):
        """Radial profile of family c as an ExpSum in t = log r."""
        terms = []
        for a, tab in self.tables.items():
            zeta = self.spectrum.roots[a].value
            for b in range(tab.shape[0]):
                if tab[b, c] != 0:
                    terms.append(ExpTerm(complex(tab[b, c]), zeta, b))
        return ExpSum(terms)

    def profile_values(self, r):
        """Vector of family profile values at radius r."""
        t = math.log(r)
        return np.array([self.family_profile(c)(t)
                         for c in range(self.spectrum.operator.m_ang)])

    def is_trivial(self, tol=1e-14):
        return all(np.max(np.abs(tab)) < tol for tab in self.tables.values())


def solution_split(sol):
    """Growth/decay/degenerate decomposition of a mode solution."""
    spec = sol.spectrum
    return {
        "h_plus": sol.restricted({"plus"}),
        "h_minus": sol.restricted({"minus"}),
        "h_zero": sol.restricted({"zero"}),
        "beta": spec.beta,
        "degenerate": bool(sol.tables) and all(
            spec.roots[a].classification == "zero" for a in sol.tables)
        and not sol.is_trivial(),
    }


# -- weighted annulus norms --------------------------------------------------


class RadialGram:
    """Gram matrices of the chain basis functions t^b e^{zeta t} on intervals."""

    def __init__(self, spectrum, lambdas=None):
        self.spectrum = spectrum
        m_ang = spectrum.operator.m_ang
        self.lambdas = ([1.0] * m_ang if lambdas is None
                        else [float(x) for x in lambdas])
        self.index = []
        for a, root in enumerate(spectrum.roots):
            for b in range(root.multiplicity):
                self.index.append((a, b))

    def gram(self, t0, t1):
        k = len(self.index)
        g = np.zeros((k, k), dtype=complex)
        for i, (a, b) in enumerate(self.index):
            za = self.spectrum.roots[a].value
            for j, (a2, b2) in enumerate(self.index):
                zb = self.spectrum.roots[a2].value
                g[i, j] = _poly_exp_integral(b + b2, za + zb.conjugate(), t0, t1)
        return g

    def coefficient_vector(self, sol, c):
        v = np.zeros(len(self.index), dtype=complex)
        for i, (a, b) in enumerate(self.index):
            tab = sol.tables.get(a)
            if tab is not None:
                v[i] = tab[b, c]
        return v

    def norm_sq(self, sol, t0, t1, gram=None):
        g = self.gram(t0, t1) if gram is None else gram
        total = 0.0
        for c in range(self.spectrum.operator.m_ang):
            v = self.coefficient_vector(sol, c)
            total += self.lambdas[c] * float(np.real(v @ (g @ v.conj())))
        return max(total, 0.0)


def triple_bar_norm(sol, a, b, lambdas=None):
    """Weighted annulus norm of a mode solution over (a, b)."""
    if not 0 < a < b:
        raise ParameterError("need 0 < a < b")
    gram = RadialGram(sol.spectrum, lambdas)
    return math.sqrt(gram.norm_sq(sol, math.log(a), math.log(b)))


# -- three annulus verification ----------------------------------------------


def three_annulus_verify(spectrum, beta_prime, L, a=1.0, trials=200, seed=0,
                         *, lambdas=None, allow_zero_roots=False,
                         turan_check=False, slack=1e-9):
    """Check the annulus growth/decay implications on random kernel draws.

    For each draw: evaluates the weighted norms on the three annuli
    (a, La), (La, L^2 a), (L^2 a, L^3 a); tests the growth and decay
    implications, their dichotomy, and the pure growth/decay part
    inequalities.  Returns failure counts (failures at small L are data,
    not errors).
    """
    part = spectrum.partition()
    if part["zero"] and not allow_zero_roots:
        raise ParameterError(
            "spectrum has zero-real-part roots; the annulus dichotomy "
            "requires the degenerate part to vanish")
    beta = spectrum.beta
    if beta is None or not 0 < beta_prime < beta / 2:
        raise ParameterError("need 0 < beta_prime < beta/2")
    if L <= 1:
        raise ParameterError("need L > 1")
    rng = np.random.default_rng(seed)
    gram = RadialGram(spectrum, lambdas)
    t0 = math.log(a)
    R = math.log(L)
    g1 = gram.gram(t0, t0 + R)
    g2 = gram.gram(t0 + R, t0 + 2 * R)
    g3 = gram.gram(t0 + 2 * R, t0 + 3 * R)
    Lb = L ** beta_prime
    fails = {"growth_implication": 0, "decay_implication": 0,
             "dichotomy": 0, "both_implications": 0,
             "pure_growth": 0, "pure_decay": 0,
             "turan_cross_check": 0}
    for _ in range(trials):
        sol = ModeSolution.random(spectrum, rng, include=("plus", "minus"))
        if sol.is_trivial():
            continue
        n1 = math.sqrt(gram.norm_sq(sol, t0, t0 + R, g1))
        n2 = math.sqrt(gram.norm_sq(sol, t0 + R, t0 + 2 * R, g2))
        n3 = math.sqrt(gram.norm_sq(sol, t0 + 2 * R, t0 + 3 * R, g3))
        gfail = dfail = False
        if n2 >= Lb * n1 and not n3 >= Lb * n2 * (1 - slack):
            gfail = True
            fails["growth_implication"] += 1
        if n3 <= n2 / Lb and not n2 <= n1 / Lb * (1 + slack):
            dfail = True
            fails["decay_implication"] += 1
        if gfail and dfail:
            fails["both_implications"] += 1
        if not (n3 >= Lb * n2 * (1 - slack) or n2 <= n1 / Lb * (1 + slack)):
            fails["dichotomy"] += 1
        hp = sol.restricted({"plus"})
        hm = sol.restricted({"minus"})
        if not hp.is_trivial():
            p1 = math.sqrt(gram.norm_sq(hp, t0, t0 + R, g1))
            p2 = math.sqrt(gram.norm_sq(hp, t0 + R, t0 + 2 * R, g2))
            if not p2 >= Lb * p1 * (1 - slack):
                fails["pure_growth"] += 1
        if not hm.is_trivial():
            m1 = math.sqrt(gram.norm_sq(hm, t0, t0 + R, g1))
            m2 = math.sqrt(gram.norm_sq(hm, t0 + R, t0 + 2 * R, g2))
            if not m2 <= m1 / Lb * (1 + slack):
                fails["pure_decay"] += 1
        if turan_check:
            for part_sol, mode in ((hp, "growth"), (hm, "decay")):
                for c in range(spectrum.operator.m_ang):
                    p = part_sol.family_profile(c)
                    if not p.terms:
                        continue
                    rec = three_interval(p, R, 1, mode)
                    if not rec["holds"]:
                        fails["turan_cross_check"] += 1
    return {"L": L, "beta": beta, "beta_prime": beta_prime,
            "trials": trials, "failures": fails,
            "passed": all(v == 0 for v in fails.values())}


def empirical_l0(spectrum, beta_prime, trials=200, seed=0,
                 candidates=(1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0,
                             24.0, 32.0), **kw):
    """Smallest candidate L at which every draw passes all annulus checks."""
    results = []
    for L in candidates:
        rec = three_annulus_verify(spectrum, beta_prime, L,
                                   trials=trials, seed=seed, **kw)
        results.append(rec)
        if rec["passed"]:
            return {"L0": L, "scan": results,
                    "turan_bound": turan_l_bound(spectrum, beta_prime)}
    return {"L0": None, "scan": results,
            "turan_bound": turan_l_bound(spectrum, beta_prime)}


def turan_l_bound(spectrum, beta_prime):
    """Three-interval-constant bound on L0: A(index)^{1/(beta - 2 beta')}."""
    from . import turan_constants

    beta = spectrum.beta
    if beta is None or beta - 2 * beta_prime <= 0:
        return None
    part = spectrum.partition()
    worst = 1.0
    for sign in ("plus", "minus"):
        idx_roots = part[sign]
        if not idx_roots:
            continue
        d = len(idx_roots)
        M = sum(spectrum.roots[a].multiplicity - 1 for a in idx_roots)
        a_c = turan_constants.three_interval_constant(M + d)
        worst = max(worst, a_c ** (1.0 / (beta - 2 * beta_prime)))
    return worst


# -- standard mode systems ----------------------------------------------------


def tensor_mode_system(n, k, t, j):
    """Angular family basis and probed system of the gauged linearized
    operator; the probe's exact residual check certifies closure."""
    if n < 3:
        raise ParameterError("need n >= 3 (the operator carries 1/(n - 2))")
    if k < 1:
        raise ParameterError("need k >= 1 (the operator is Delta^(k-1) of "
                             "a fourth-order core)")
    if j < 0:
        raise ParameterError("need harmonic degree j >= 0")
    basis = pt.tensor_mode_basis(n, j)
    order = 2 * (k + 1)
    apply_fn = lambda f: pt.gauged_lin(f, k, t)
    op = probe_euler(apply_fn, basis, order)
    return basis, op


def scalar_mode_system(n, k, s):
    """Scalar Laplacian-power system on a single degree-s harmonic."""
    basis = pt.basis_from_elements(n, [pt.sphere_harmonic(n, s)], ["phi"])
    op = probe_euler(lambda f: pt.laplacian(f, k + 1), basis, 2 * (k + 1))
    return basis, op


def divergence_mode_system(n, t, j, basis):
    """Probed modified-divergence system from 2-tensor modes to 1-forms."""
    target = pt.oneform_mode_basis(n, j)
    apply_fn = lambda f: pt.div_t(f, t)
    return probe_euler(apply_fn, basis, 1, target=target)


def interpolate_in_t(t, a, op_a, b, op_b):
    """Exact system at t of an operator affine in t, from those at a != b.

    Both scanned operators are affine in t (gauged_lin = A + t B and
    div_t = div - t i_radial) and a probed P is linear in the operator, so
    P(t) = P(a) + (t - a)/(b - a) (P(b) - P(a)) entry by entry; the result
    equals a direct probe at t.  Raises ProbeError for a float t or when
    the two systems differ in basis, target, weight or order.
    """
    if not isinstance(t, (int, Fraction)):
        raise ProbeError("t must be an int or Fraction; the interpolated "
                         "system is exact")
    for name in ("basis", "target"):
        if _basis_key(getattr(op_a, name)) != _basis_key(getattr(op_b, name)):
            raise ProbeError(
                f"systems at t = {a} and t = {b} differ in {name}")
    if (op_a.weight, op_a.order) != (op_b.weight, op_b.order):
        raise ProbeError(f"systems at t = {a} and t = {b} differ in weight "
                         "or order")
    s = (Fraction(t) - a) / (b - a)
    P = [[poly_trim([ca + s * (cb - ca) for ca, cb
                     in zip_longest(pa, pb, fillvalue=Fraction(0))])
          for pa, pb in zip(row_a, row_b)]
         for row_a, row_b in zip(op_a.P, op_b.P)]
    return EulerOperator(op_a.basis, op_a.target, op_a.weight, op_a.order, P)


def _basis_key(basis):
    """Exact structural identity of an angular basis (equal constructions
    compare equal without canonicalizing anything)."""
    return (basis.n, basis.labels, basis.gram,
            [(T.rank, T.comps) for T in basis.elements])


def _scan_one_mode(task):
    """Spectra and divergence-compatible zero-root hits of one degree j at
    every distinct t, from direct probes at no more than two of them."""
    n, k, j, t_values, tol = task
    distinct = list(dict.fromkeys(t_values))
    anchors = sorted(distinct, key=lambda t: t != 0)[:2]  # t = 0 is cheapest
    probed = {}
    for t in anchors:
        basis, op = tensor_mode_system(n, k, t, j)
        probed[t] = (op, divergence_mode_system(n, t, j, basis))
    a, b = anchors[0], anchors[-1]
    cells = {}
    for t in distinct:
        if t in probed:
            op, div_op = probed[t]
        else:
            op, div_op = [interpolate_in_t(t, a, sys_a, b, sys_b)
                          for sys_a, sys_b in zip(probed[a], probed[b])]
        spec = indicial_spectrum(op)
        hits = []
        for root in spec.roots:
            if root.classification != "zero":
                continue
            inter = _divergence_free_chain_space(op, div_op, root, tol)
            if inter.shape[1]:
                hits.append({"t": float(t), "j": j,
                             "root": {"re": root.value.real,
                                      "im": root.value.imag,
                                      "mult": root.multiplicity},
                             "dimension": int(inter.shape[1])})
        cells[t] = (spec.summary(), hits)
    return cells


def degenerate_scan(n, k, t_values, j_max, *, tol=1e-9, jobs=1):
    """Scan for mode kernel elements supported on zero-real-part roots that
    also satisfy the modified divergence constraint.

    At t = 0 constants are genuine witnesses (reported separately); for
    small t != 0 the expected finding count is zero.  Both operators are
    affine in t, so each degree j probes its tensor and divergence systems
    directly at two anchors only (t = 0 first when listed, being the
    cheapest probe, then the first other t) and every other t gets its
    exact system from ``interpolate_in_t``.  The degrees are independent
    and run on a worker pool when jobs > 1; the report lists (t, j) cells
    in t-major order, repeated t values included.
    """
    t_values = list(t_values)
    if not t_values:
        raise ParameterError("need at least one t value")
    if j_max < 0:
        raise ParameterError("need j_max >= 0")
    tasks = [(n, k, j, t_values, tol) for j in range(j_max + 1)]
    per_j = parallel_map(_scan_one_mode, tasks, jobs)
    findings = []
    witnesses_t0 = []
    spectra = {}
    for t in t_values:
        for j, cells in enumerate(per_j):
            summary, hits = cells[t]
            spectra[(float(t), j)] = summary
            for rec in hits:
                (witnesses_t0 if t == 0 else findings).append(rec)
    return {"n": n, "k": k, "j_max": j_max,
            "t_values": [float(t) for t in t_values],
            "findings": findings, "witnesses_t0": witnesses_t0,
            "spectra": {f"t={t},j={j}": s for (t, j), s in spectra.items()}}


def parallel_map(fn, items, jobs=1):
    """[fn(x) for x in items], on a pool of ``jobs`` processes when jobs > 1.

    The pool uses the default start method and keeps the input order.
    """
    if not jobs or jobs <= 1:
        return [fn(x) for x in items]
    from multiprocessing import Pool

    with Pool(jobs) as pool:
        return pool.map(fn, items)


def _divergence_free_chain_space(op, div_op, root, tol):
    """Chain vectors killed by both the mode system and the divergence system."""
    big = np.vstack([_chain_matrix(o, root.value, root.multiplicity)
                     for o in (op, div_op)])
    scale = max(_operator_scale(op), _operator_scale(div_op))
    return _nullspace_float(big / scale, rtol=tol, scale=1.0)
