"""Separated-variable mode systems: probing, indicial spectra, annulus checks.

The exact operators act on radially parallel angular bases; applying one to
r^m times a basis element returns r^{m-w} times an angular combination, so
the matrix indicial polynomial P(z) is read off exactly by polynomial
interpolation over enough probe degrees.  The standard mode systems are the
second evaluator of ``polytensor.OPERATORS``, the table that states each
operator once: a statement applied to ``_Words`` yields its words, sums of
probed pieces of order <= 2 (Laplacian, Hessian, divergence, flat Lie
derivative, radial contraction, and the divergence and radial contraction
of a Lie derivative).  One rule evaluates a sum of words: each word's
pieces are composed innermost first, with P_{A o B}(z) = P_A(z - w_B)
P_B(z), and the words' systems are summed with their coefficients.
Every operator is affine in t, P(z; t) = A(z) + t B(z), with A and B
memoized.  One memo (``_probe``), keyed by piece, (n, j) and source family,
probes each piece once per process and shares it across k, t, the tensor,
scalar, divergence and gauge systems and the scan.  Spectra, growth/decay
splits, the three-annulus inequalities and the degenerate-solution scan all
live on top of that data.  A spectrum's roots carry exact multiplicities;
the chain basis of a root of multiplicity m, built on first read, is m
singular vectors, and KERNEL_CUTOFF checks it.  The spectrum's
``chain_rows`` state the one row layout of a kernel element, (root, log
power) in root order with each row's root value and class: a ModeSolution
is one (K, m_ang) coefficient array in it, RadialGram's matrices and the
annulus draws use it, and the annulus Turan cross-check reads its rates and
indices from it in one array pass.
"""

from __future__ import annotations

import atexit
import math
import os
import signal
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import zip_longest

import numpy as np

from . import polytensor as pt
from .closed_form import ParameterError, exact_t
from .expsum import (NumericError, RangeError, poly_exp_integrals,
                     three_interval_record)
from .linalg import (det_dense, lagrange_coefficients, poly_derivative,
                     poly_eval, poly_squarefree_factors, poly_trim)
from .polytensor import AngularBasis, ClosureError


class ProbeError(ClosureError):
    pass


@dataclass
class EulerOperator:
    """Matrix indicial polynomial of an operator on a closed angular basis.

    Acting on e^{zs} v (s = log r) yields e^{(z-w)s} P(z) v; entries of P
    are Fraction coefficient lists (low order first).  The exact kernels
    (``det_poly``, ``compose``, ``combine``) clear P to integer numerators
    over one denominator and refuse any other coefficient type.
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

    def det_poly(self):
        """Exact determinant polynomial by evaluation-interpolation.

        P's denominators are cleared once by their lcm D; the integer
        entries are evaluated by Horner at z = 0, ..., m_ang * order, each
        integer determinant is taken by ``det_dense``, and the integer
        values are interpolated with D^m_ang folded into the one Fraction
        made per coefficient.  A coefficient of P that is not an int or
        Fraction raises ProbeError.
        """
        if not self.square:
            raise ProbeError("determinant needs a square system")
        D, Q = _cleared(self.P)
        pts = [(z, det_dense([[poly_eval(p, z) for p in row]
                              for row in Q]).numerator)
               for z in range(self.m_ang * self.order + 1)]
        return lagrange_coefficients(pts, scale=D ** self.m_ang)

    def compose(self, inner):
        """The system of self o inner: P(z) = P_self(z - w_inner) P_inner(z),
        with weights and orders added.

        Both P are cleared to integers once.  For w_inner = a/b and d the
        largest degree in P_self, each entry p of P_self becomes the
        integer polynomial b^d p(z - a/b) (Horner in steps of b z - a), the
        matrix product runs on integers, and each output coefficient is one
        Fraction over the product of the three scales.  A coefficient that
        is not an int or Fraction raises ProbeError.
        """
        if self.basis is not inner.target:
            raise ProbeError("compose needs the outer system's basis to be "
                             "the inner system's target")
        d_out, outer = _cleared(self.P)
        d_in, Q = _cleared(inner.P)
        a, b = inner.weight.numerator, inner.weight.denominator
        d = max(len(p) for row in outer for p in row) - 1
        outer = [[_scaled_shift(p, a, b, d) for p in row] for row in outer]
        den = d_out * b ** d * d_in
        P = []
        for row in outer:
            out = []
            for c in range(len(inner.basis)):
                acc = [0] * (d + max(len(q[c]) for q in Q))
                for p, q in zip(row, (q[c] for q in Q)):
                    for i, x in enumerate(p):
                        if x:
                            for j, y in enumerate(q):
                                acc[i + j] += x * y
                out.append(_as_fractions(acc, den))
            P.append(out)
        return EulerOperator(inner.basis, self.target,
                             self.weight + inner.weight,
                             self.order + inner.order, P)

    @staticmethod
    def combine(terms):
        """The system of sum c * op over (c, op) in terms, whose systems
        share basis, target and weight; its order is the largest.  Each
        term is cleared to integers and the sum is taken over the lcm of
        the term denominators; a coefficient that is not an int or
        Fraction raises ProbeError."""
        (_, first), *rest = terms
        for _, op in rest:
            if op.basis is not first.basis or op.target is not first.target \
                    or op.weight != first.weight:
                raise ProbeError("combined systems differ in basis, target "
                                 "or weight")
        parts = []
        for c, op in terms:
            _require_exact([c])
            D, Q = _cleared(op.P)
            parts.append((c.numerator, c.denominator * D, Q))
        den = math.lcm(*(d for _, d, _ in parts))
        scales = [c * (den // d) for c, d, _ in parts]
        P = [[_as_fractions([sum(c * x for c, x in zip(scales, xs))
                             for xs in zip_longest(*(Q[r][col]
                                                     for _, _, Q in parts),
                                                   fillvalue=0)], den)
              for col in range(len(first.basis))]
             for r in range(len(first.target))]
        return EulerOperator(first.basis, first.target, first.weight,
                             max(op.order for _, op in terms), P)


def _require_exact(coeffs):
    for c in coeffs:
        if not isinstance(c, (int, Fraction)):
            raise ProbeError("mode systems need exact coefficients (int or "
                             f"Fraction), got {type(c).__name__} {c!r}")


def _cleared(P):
    """(D, Q) with P = Q / D: the coefficient lists of P as integer
    numerators over the lcm D of their denominators."""
    coeffs = [c for row in P for p in row for c in p]
    _require_exact(coeffs)
    D = math.lcm(*(c.denominator for c in coeffs))
    return D, [[[c.numerator * (D // c.denominator) for c in p] for p in row]
               for row in P]


def _scaled_shift(p, a, b, d):
    """The integer coefficients of b^d p(z - a/b), for an integer
    polynomial p of degree <= d: Horner's rule with the step
    G <- G (b z - a) + p_k b^(d - k)."""
    out = [0] * (d + 1)
    for k in range(d, -1, -1):
        for i in range(d, 0, -1):
            out[i] = b * out[i - 1] - a * out[i]
        out[0] = -a * out[0] + (p[k] * b ** (d - k) if k < len(p) else 0)
    return out


def _as_fractions(nums, den):
    """Integer numerators over den as a Fraction coefficient list, trimmed
    of high zeros."""
    return [Fraction(v, den) for v in poly_trim(nums)]


def probe_euler(apply_fn, basis, order, *, target=None, probe_degrees=None,
                holdout=True):
    """Recover the exact Euler matrix polynomial of an operator by probing.

    apply_fn maps a PolyTensor to a PolyTensor; the basis (and target
    basis, when the operator changes rank) must be closed under it.
    Probes at order+1 distinct rational degrees, interpolates each matrix
    entry, and verifies one held-out degree.  Each image is decomposed as
    the operator returns it; only the residual is canonicalized, and an
    image with all-zero coefficients and an empty residual counts as
    vanished.
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
            raise ProbeError("basis not closed under the operator")
        if not any(coeffs):  # the raw image is zero modulo sum x_i^2 = r^2
            return coeffs, None
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

    @property
    def classification(self):
        if abs(self.value.real) < 1e-8:
            return "zero"
        return "plus" if self.value.real > 0 else "minus"


@dataclass(frozen=True, eq=False)
class ChainRows:
    """The row layout of a kernel element's coefficients: row i is the log
    power ``power[i]`` of root ``root[i]``, the roots in spectrum order and
    the powers 0, ..., mult - 1 of each; row i carries the value ``zeta[i]``
    and the class ``classes[i]`` ("plus", "minus" or "zero") of its root."""

    root: np.ndarray
    power: np.ndarray
    zeta: np.ndarray
    classes: np.ndarray


@dataclass
class IndicialSpectrum:
    """Roots of a square mode system with their exact multiplicities, the
    FloatSystem of the system (``system``) and, built on first read, the
    solution-chain basis of every root (``chain_bases``) and the row
    layout of its kernel elements (``chain_rows``)."""

    operator: EulerOperator
    roots: list
    low_confidence: bool
    system: FloatSystem = field(repr=False, compare=False)

    @cached_property
    def chain_rows(self):
        """The ChainRows of this spectrum's kernel elements, one row per
        chain dimension (total_multiplicity rows)."""
        mults = [r.multiplicity for r in self.roots]
        root = np.repeat(np.arange(len(mults)), mults)
        first = np.cumsum([0] + mults)[:-1]
        return ChainRows(
            root, np.arange(len(root)) - np.repeat(first, mults),
            np.array([r.value for r in self.roots], dtype=complex)[root],
            np.array([r.classification for r in self.roots], dtype=str)[root])

    @cached_property
    def chain_bases(self):
        """Per root, a (mult * m_ang, mult) basis of its log-power
        solution chains: a regular matrix polynomial has as many chain
        dimensions at a root as its multiplicity in det P, so these are the
        mult right singular vectors of the chain matrix with the smallest
        singular values.  NumericError when the largest of those exceeds
        KERNEL_CUTOFF times the larger of the largest one and the scale."""
        bases = []
        for root in self.roots:
            mult = root.multiplicity
            _, s, vh = np.linalg.svd(_chain_matrix(self.system, root.value,
                                                   mult))
            bound = KERNEL_CUTOFF * max(s[0], self.system.scale)
            if s[-mult] > bound:
                raise NumericError(
                    f"chain space at root {root.value:.6g} of multiplicity "
                    f"{mult}: singular value {s[-mult]:.3e} exceeds the "
                    f"kernel bound {bound:.3e}")
            bases.append(vh[-mult:].conj().T)
        return bases

    @property
    def total_multiplicity(self):
        return sum(r.multiplicity for r in self.roots)

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
            "low_confidence": self.low_confidence,
        }


class FloatSystem:
    """Float view of one probed system for root work: its coefficient
    scale (the largest sum of |coefficient| over one entry of P, at least
    1) and the coefficient arrays of P and its derivatives.

    Each derivative is taken exactly, then converted once into a float
    array of shape (rows, cols, length), low order first and zero padded;
    the arrays and the scale are built on first use.  ``eval`` runs
    Horner's rule on all entries at once in real arithmetic, with the
    operations of Python's complex ``acc * z + c`` on a real c (real part
    ar zr - ai zi + c, imaginary part ar zi + ai zr + 0.0), so it equals
    per-entry Horner bit for bit; a complex array product may fuse
    multiply-adds.  Made once per spectrum (``IndicialSpectrum.system``)
    or scan call, not stored on the EulerOperator, whose P a caller may
    replace.
    """

    def __init__(self, op):
        self.op = op
        self._exact = op.P  # P^(d) for d = len(self._arrays)
        self._arrays = []

    @cached_property
    def scale(self):
        return max([1.0] + [sum(abs(float(c)) for c in p)
                            for row in self.op.P for p in row])

    def eval(self, z, derivative=0):
        """Complex matrix P^{(derivative)}(z)."""
        while len(self._arrays) <= derivative:
            P = self._exact
            arr = np.zeros((len(P), len(P[0]), max(len(p) for row in P
                                                    for p in row)))
            for r, row in enumerate(P):
                for c, p in enumerate(row):
                    arr[r, c, :len(p)] = [float(x) for x in p]
            self._arrays.append(arr)
            self._exact = [[poly_derivative(p) for p in row] for row in P]
        arr = self._arrays[derivative]
        zr, zi = float(z.real), float(z.imag)
        re = np.zeros(arr.shape[:2])
        im = np.zeros(arr.shape[:2])
        for k in range(arr.shape[2] - 1, -1, -1):
            re, im = re * zr - im * zi + arr[:, :, k], re * zi + im * zr + 0.0
        out = np.empty(arr.shape[:2], dtype=complex)
        out.real = re
        out.imag = im
        return out


def _chain_matrix(system, zeta, mult):
    """Log-power chain condition of a FloatSystem at a root zeta of
    multiplicity mult.

    Vectors stack (u_0, ..., u_{mult-1}); block (m, m+i) is
    C(m+i, i) P^(i)(zeta), so block row m reads
    sum_i C(m+i, i) P^(i)(zeta) u_{m+i} = 0.
    """
    m_ang = system.op.m_ang
    rows = len(system.op.target)
    big = np.zeros((mult * rows, mult * m_ang), dtype=complex)
    for i in range(mult):
        deriv = system.eval(zeta, derivative=i)
        for m in range(mult - i):
            col = (m + i) * m_ang
            big[m * rows:(m + 1) * rows, col:col + m_ang] = \
                math.comb(m + i, i) * deriv
    return big


# Two float roots closer than this make a spectrum low-confidence.
LOW_CONFIDENCE_GAP = 1e-6

# The float-kernel cutoff, relative to the larger of the largest singular
# value and the coefficient scale: it checks every chain space and bounds
# the scan's joint kernel.  ANNULUS_SLACK is the relative slack of every
# three-annulus inequality.
KERNEL_CUTOFF = 1e-9
ANNULUS_SLACK = 1e-9


def indicial_spectrum(op):
    """Roots with multiplicities of a square mode system.

    The exact determinant is split by Yun's square-free factorization into
    factors that are square-free and pairwise coprime, so each exact root
    is a simple root of exactly one factor, whose exponent in the
    factorization is its multiplicity.  np.roots of each factor therefore
    lists every root once, and no roots are merged.  The spectrum is
    flagged low_confidence when two float roots lie within
    LOW_CONFIDENCE_GAP of each other; its chain bases are built only when
    read.  A coefficient of P that is not an int or Fraction raises
    ProbeError, and a factor with a coefficient past the float range
    raises RangeError.
    """
    det = op.det_poly()
    if all(c == 0 for c in det):
        raise ProbeError("identically singular system")
    out = []
    for factor, mult in poly_squarefree_factors(det):
        try:
            coeffs = [complex(c) for c in reversed(factor)]
        except OverflowError:
            raise RangeError(f"a degree-{len(factor) - 1} factor of det P "
                             "has a coefficient past the float range") \
                from None
        for z in np.roots(coeffs):
            center = complex(z)
            if abs(center.imag) < 1e-10:
                center = complex(center.real, 0.0)
            out.append(RootData(center, mult))
    out.sort(key=lambda r: (r.value.real, r.value.imag))
    low_confidence = any(abs(a.value - b.value) <= LOW_CONFIDENCE_GAP
                         for i, a in enumerate(out) for b in out[i + 1:])
    return IndicialSpectrum(op, out, low_confidence, FloatSystem(op))


# -- mode solutions ---------------------------------------------------------


# A mode solution whose coefficients are all below this is trivial.
ZERO_COEFF = 1e-14


@dataclass
class ModeSolution:
    """Kernel element of one mode system: its coefficients d_{a, b, c} as
    one complex (K, m_ang) array ``coeffs``, rows (root a, log power b) in
    the spectrum's chain_rows layout and columns the angular families c.
    """

    spectrum: IndicialSpectrum
    coeffs: np.ndarray

    @classmethod
    def random(cls, spectrum, rng, include=("plus", "minus", "zero")):
        """The one-draw case of draw_kernel_coefficients."""
        return cls(spectrum,
                   draw_kernel_coefficients(spectrum, 1, rng, include)[0])

    def restricted(self, classes):
        """The part on the roots of the given classes: other rows are 0."""
        keep = np.isin(self.spectrum.chain_rows.classes, list(classes))
        return ModeSolution(self.spectrum,
                            np.where(keep[:, None], self.coeffs, 0))

    def profile_values(self, r):
        """Family profile values sum_i coeffs[i, c] t^b_i e^{zeta_i t}
        (t = log r) over the rows with a nonzero entry: shape (m_ang,) at a
        scalar radius r, (len(r), m_ang) at an array of radii.  Raises
        RangeError when a value leaves the float range."""
        r = np.asarray(r, dtype=float)
        if not np.all(r > 0):
            raise ParameterError("need radii r > 0")
        t = np.log(r)
        rows = self.spectrum.chain_rows
        out = np.zeros(t.shape + (self.coeffs.shape[1],), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in np.flatnonzero(self.coeffs.any(axis=1)).tolist():
                term = t ** int(rows.power[i]) * np.exp(rows.zeta[i] * t)
                out += term[..., None] * self.coeffs[i]
        if not np.all(np.isfinite(out)):
            raise RangeError("profile values overflowed")
        return out

    def is_trivial(self):
        """Every coefficient is below ZERO_COEFF in modulus."""
        return bool(np.all(np.abs(self.coeffs) < ZERO_COEFF))


def solution_split(sol):
    """Growth/decay/degenerate decomposition of a mode solution; it is
    degenerate when it is nontrivial and every nonzero row sits on a
    zero-real-part root."""
    classes = sol.spectrum.chain_rows.classes
    return {
        "h_plus": sol.restricted({"plus"}),
        "h_minus": sol.restricted({"minus"}),
        "h_zero": sol.restricted({"zero"}),
        "beta": sol.spectrum.beta,
        "degenerate": not sol.is_trivial() and bool(
            np.all(classes[sol.coeffs.any(axis=1)] == "zero")),
    }


# -- annulus norms -----------------------------------------------------------


class RadialGram:
    """Gram matrices of the chain basis functions t^b e^{zeta t} on
    intervals, rows and columns in the spectrum's chain_rows layout."""

    def __init__(self, spectrum):
        self.spectrum = spectrum

    def gram(self, t0, t1):
        """Gram matrix (K, K) of the basis on [t0, t1], or a stack of them
        (..., K, K) for arrays of interval ends, in one
        poly_exp_integrals call."""
        rows = self.spectrum.chain_rows
        return poly_exp_integrals(np.add.outer(rows.power, rows.power),
                                  np.add.outer(rows.zeta, rows.zeta.conj()),
                                  np.asarray(t0, dtype=float)[..., None, None],
                                  np.asarray(t1, dtype=float)[..., None, None])

    def family_forms(self, coeffs, g):
        """Squared norms of every family profile of a stack of (..., K,
        m_ang) coefficient tensors on the interval of the Gram matrix g:
        the real parts of v^T g conj(v), shape (..., m_ang)."""
        return (np.matmul(g, coeffs.conj()) * coeffs).sum(axis=-2).real

    def norm_sq(self, sol, t0, t1, gram=None):
        """Squared norm of one solution, its family profiles' squared
        norms summed family by family: the per-draw counterpart of
        family_forms."""
        g = self.gram(t0, t1) if gram is None else gram
        total = 0.0
        for c in range(self.spectrum.operator.m_ang):
            v = sol.coeffs[:, c]
            total += float(np.real(v @ (g @ v.conj())))
        return max(total, 0.0)


# -- three annulus verification ----------------------------------------------


def draw_kernel_coefficients(spectrum, trials, rng, include=("plus", "minus")):
    """Coefficients of ``trials`` random kernel elements on the roots whose
    class is in ``include``, shape (trials, K, m_ang) in the chain_rows
    layout (the rows of other roots stay 0).

    Each chain basis (``spectrum.chain_bases``) has as many columns as its
    root's multiplicity, and draw i weights it by a complex standard normal
    vector.  One standard_normal((trials, 2 * sum mult)) call reads the
    generator stream root by root, mult real parts then mult imaginary
    parts, so the one-draw case (ModeSolution.random) reads it as
    per-root calls would.
    """
    rows = spectrum.chain_rows
    roots = [a for a, root in enumerate(spectrum.roots)
             if root.classification in include]
    mults = [spectrum.roots[a].multiplicity for a in roots]
    raw = rng.standard_normal((trials, 2 * sum(mults)))
    m_ang = spectrum.operator.m_ang
    out = np.zeros((trials, len(rows.root), m_ang), dtype=complex)
    col = 0
    for a, dim in zip(roots, mults):
        w = raw[:, col:col + dim] + 1j * raw[:, col + dim:col + 2 * dim]
        col += 2 * dim
        vec = np.matmul(spectrum.chain_bases[a], w[:, :, None])[:, :, 0]
        out[:, rows.root == a] = vec.reshape(trials, dim, m_ang)
    return out


def _trivial(coeffs):
    """Per draw: every coefficient is below ZERO_COEFF (is_trivial)."""
    return (np.abs(coeffs) < ZERO_COEFF).all(axis=(1, 2))


def _annulus_draws(spectrum, beta_prime, Ls, trials, seed, turan_check):
    """Validate the annulus inputs, draw the nontrivial kernel elements
    and split them into pure parts, once for every L of one call.

    Returns the drawn coefficients and, for the growth ("plus") and decay
    ("minus") roots, (mode, part, live, turan): the part's coefficients,
    the draws it is nontrivial in and, with turan_check, the (draw,
    family) profiles that have a term (a boolean (draws, m_ang) mask) with
    the rate lambda and index M + d of each.  These are read from the rows
    with a nonzero coefficient: lambda is their least |Re zeta|, and M + d
    sums, over their roots, one plus the top log power.
    """
    if "zero" in spectrum.chain_rows.classes:
        raise ParameterError(
            "spectrum has zero-real-part roots; the annulus dichotomy "
            "requires the degenerate part to vanish")
    beta = spectrum.beta
    if beta is None or not 0 < beta_prime < beta / 2:
        raise ParameterError("need 0 < beta_prime < beta/2")
    if any(L <= 1 for L in Ls):
        raise ParameterError("need L > 1")
    if trials < 1:
        raise ParameterError("need trials >= 1")
    coeffs = draw_kernel_coefficients(spectrum, trials,
                                      np.random.default_rng(seed))
    coeffs = coeffs[~_trivial(coeffs)]
    rows = spectrum.chain_rows
    first = np.flatnonzero(np.diff(rows.root, prepend=-1))  # root starts
    parts = []
    for sign, mode in (("plus", "growth"), ("minus", "decay")):
        part = coeffs * (rows.classes == sign)[:, None]
        turan = None
        if turan_check:
            present = part != 0
            on = present.any(axis=1)
            lam = np.where(present, np.abs(rows.zeta.real)[:, None],
                           np.inf).min(axis=1)
            index = np.maximum.reduceat(
                present * (rows.power + 1)[:, None], first, axis=1).sum(axis=1)
            turan = (on, lam[on], index[on])
        parts.append((mode, part, ~_trivial(part), turan))
    return coeffs, parts


def _annulus_record(gram, coeffs, parts, beta_prime, L, trials):
    """three_annulus_verify's record at one L for the drawn coefficients
    and pure parts of _annulus_draws.  The Turan cross-check puts every
    (draw, family) profile of both parts through one
    expsum.three_interval_record call on [0, R] against [R, 2R]."""
    R = math.log(L)
    grams = gram.gram(np.arange(3) * R, np.arange(1, 4) * R)

    def norms(forms):
        return np.sqrt(np.maximum(forms.sum(axis=-1), 0.0))

    Lb = L ** beta_prime
    n1, n2, n3 = (norms(gram.family_forms(coeffs, g)) for g in grams)
    grows = n3 >= Lb * n2 * (1 - ANNULUS_SLACK)
    decays = n2 <= n1 / Lb * (1 + ANNULUS_SLACK)
    gfail = (n2 >= Lb * n1) & ~grows
    dfail = (n3 <= n2 / Lb) & ~decays
    fails = {"growth_implication": int(gfail.sum()),
             "decay_implication": int(dfail.sum()),
             "dichotomy": int((~(grows | decays)).sum()),
             "both_implications": int((gfail & dfail).sum()),
             "pure_growth": 0, "pure_decay": 0,
             "turan_cross_check": 0}
    checks = []
    for mode, part, live, turan in parts:
        lo, hi = (gram.family_forms(part, g) for g in grams[:2])
        p1, p2 = norms(lo), norms(hi)
        if mode == "growth":
            holds = p2 >= Lb * p1 * (1 - ANNULUS_SLACK)
        else:
            holds = p2 <= p1 / Lb * (1 + ANNULUS_SLACK)
        fails["pure_" + mode] = int((live & ~holds).sum())
        if turan is not None:
            on, lam, index = turan
            checks.append((lam, index, lo[on], hi[on],
                           np.full(len(lam), mode == "growth")))
    if checks:
        lam, index, lo, hi, growth = (np.concatenate(v) for v in zip(*checks))
        rec = three_interval_record(lam, index, np.maximum(lo, 0.0),
                                    np.maximum(hi, 0.0), R, growth)
        fails["turan_cross_check"] = int(np.count_nonzero(~rec["holds"]))
    return {"L": L, "beta": gram.spectrum.beta, "beta_prime": beta_prime,
            "trials": trials, "failures": fails,
            "passed": all(v == 0 for v in fails.values())}


def three_annulus_verify(spectrum, beta_prime, L, trials=200, seed=0, *,
                         turan_check=False):
    """Check the annulus growth/decay implications on random kernel draws.

    For each draw of a kernel element from the growth and decay roots
    (draw_kernel_coefficients; draws with every coefficient below
    ZERO_COEFF are skipped): evaluates the annulus norms on (1, L),
    (L, L^2) and (L^2, L^3); tests the growth and decay implications,
    their dichotomy, and the pure growth/decay part inequalities, each
    up to the relative ANNULUS_SLACK.  With ``turan_check`` every family
    profile of the pure parts also meets expsum's three-interval bound.  All draws are evaluated together:
    every norm and interval integral is a quadratic form on the
    RadialGram matrices of the three annuli.  The spectrum must have no
    zero-real-part roots.  Returns failure counts (failures at small L are
    data, not errors).
    """
    coeffs, parts = _annulus_draws(spectrum, beta_prime, [L], trials, seed,
                                   turan_check)
    return _annulus_record(RadialGram(spectrum), coeffs, parts, beta_prime,
                           L, trials)


# The L values empirical_l0 tries, in increasing order.
L0_CANDIDATES = (1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)


def empirical_l0(spectrum, beta_prime, trials=200, seed=0, *,
                 turan_check=False):
    """Smallest of L0_CANDIDATES at which every draw passes all annulus
    checks of three_annulus_verify.  The draws and their pure parts are
    made once and shared by every L (as three_annulus_verify with the same
    seed at each L); only the Gram matrices change with L."""
    coeffs, parts = _annulus_draws(spectrum, beta_prime, L0_CANDIDATES,
                                   trials, seed, turan_check)
    gram = RadialGram(spectrum)
    results = []
    L0 = None
    for L in L0_CANDIDATES:
        rec = _annulus_record(gram, coeffs, parts, beta_prime, L, trials)
        results.append(rec)
        if rec["passed"]:
            L0 = L
            break
    return {"L0": L0, "scan": results,
            "turan_bound": turan_l_bound(spectrum, beta_prime)}


def turan_l_bound(spectrum, beta_prime):
    """Three-interval-constant bound on L0: A(index)^{1/(beta - 2 beta')},
    worst over the signs, where the index M + d of a sign is its number of
    chain rows.

    None means no finite bound: when beta - 2 beta' <= 0, and when the
    power leaves the float range (beta' close to beta/2).
    """
    from . import turan_constants

    beta = spectrum.beta
    if beta is None or beta - 2 * beta_prime <= 0:
        return None
    classes = spectrum.chain_rows.classes
    worst = 1.0
    for sign in ("plus", "minus"):
        index = int(np.count_nonzero(classes == sign))
        if not index:
            continue
        a_c = turan_constants.three_interval_constant(index)
        try:
            worst = max(worst, a_c ** (1.0 / (beta - 2 * beta_prime)))
        except OverflowError:
            return None
    return worst


# -- standard mode systems ----------------------------------------------------


@lru_cache(maxsize=None)
def _family(kind, n, j):
    """The degree-j angular families of one kind: "tensor" (2-tensors),
    "forms" (the 1-form pair), "phi" (the harmonic phi_j) or "psi" (the
    co-closed r psi_j); every mode system resolves its degree here, so
    the bounds on n and j are checked here."""
    if n < 3:
        raise ParameterError("need n >= 3")
    if j < 0:
        raise ParameterError("need harmonic degree j >= 0")
    if kind == "tensor":
        return pt.tensor_mode_basis(n, j)
    if kind == "forms":
        return pt.oneform_mode_basis(n, j)
    if kind == "phi":
        return pt.basis_from_elements(n, [pt.sphere_harmonic(n, j)], ["phi"])
    if j < 1:
        raise ParameterError("the co-closed (typeI) family needs j >= 1")
    return pt.basis_from_elements(n, [pt.coclosed_eigenform(n, j)], ["r psi"])


# The family routing: each probed piece, a tuple of polytensor primitives
# applied innermost last, has an order (its system has degree <= order in
# z) and maps a source family kind to a target kind.  lie_flat maps the
# co-closed family out of every basis here, so the divergence and the
# radial contraction of a Lie derivative are probed whole.
_ROUTES = {
    ("laplacian",): (2, {"tensor": "tensor", "phi": "phi"}),
    ("hessian",): (2, {"phi": "tensor"}),
    ("divergence",): (1, {"tensor": "forms", "forms": "phi"}),
    ("lie_flat",): (1, {"forms": "tensor"}),
    ("radial_contraction",): (0, {"tensor": "forms"}),
    ("divergence", "lie_flat"): (2, {"forms": "forms", "psi": "psi"}),
    ("radial_contraction", "lie_flat"): (1, {"forms": "forms",
                                             "psi": "psi"}),
}


@lru_cache(maxsize=None)
def _probe(piece, n, j, source):
    """The system of one piece from the degree-j ``source`` families and
    the kind of family it ends in, probed once per process (forked
    workers keep their own memo) and shared by every mode system and
    every k, so callers must not mutate it."""
    order, routes = _ROUTES.get(piece, (0, {}))
    if source not in routes:
        raise ProbeError(f"no mode system for {' o '.join(piece)} on the "
                         f"{source!r} families")
    return probe_euler(
        lambda T: reduce(lambda x, name: getattr(pt, name)(x),
                         reversed(piece), T),
        _family(source, n, j), order,
        target=_family(routes[source], n, j)), routes[source]


class _Pieces:
    """The primitives on mode-side operands: ``x.ops.name(x, power=1)``
    applies the polytensor primitive ``name`` power times.  A word lists
    its probed pieces innermost first, and a lie_flat takes the
    divergence or radial contraction applied right after it into its
    piece."""

    def __getattr__(self, name):
        def apply(word, _):
            fused = (name,) + word[-1] if word else ()
            return word[:-1] + (fused,) if fused in _ROUTES else \
                word + ((name,),)
        return lambda x, power=1: _Words(
            [(reduce(apply, range(power), w), c) for w, c in x.items()], x.n)


class _Words(dict):
    """The mode-side operand of a table statement: word -> coefficient, a
    word being the probed pieces applied to the source families.  Its
    ``ops`` are the pieces (``_Pieces``); ``n`` and ``rank`` are the
    source's, which a statement may read."""

    ops = _Pieces()

    def __init__(self, items, n, rank=None):
        super().__init__((w, c) for w, c in items if c)
        self.n, self.rank = n, rank

    def __add__(self, other):
        return _Words([(w, self.get(w, 0) + other.get(w, 0))
                       for w in {**self, **other}], self.n)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c):
        return _Words([(w, v * c) for w, v in self.items()], self.n)


def _word(word, n, j, family):
    """The system of one word from the degree-j ``family``: its pieces,
    each probed through ``_probe``, composed innermost first."""
    op, family = _probe(word[0], n, j, family)
    for piece in word[1:]:
        outer, family = _probe(piece, n, j, family)
        op = outer.compose(op)
    return op


@lru_cache(maxsize=None)
def _part(op, n, k, j, source, power):
    """The t^power part (power 0 or 1) of the system of the table
    operator ``op`` on the degree-j ``source`` families, memoized per
    (op, n, k, j, source): the sum of its words' systems, each composed
    plainly by ``_word``, or the word's own system when the part is a
    single word with coefficient 1.  Every statement is affine in t, so
    its t^1 part is its words at t = 1 less those at t = 0."""
    rank = _family(source, n, j).elements[0].rank

    def at(t):
        return pt.OPERATORS[op](_Words({(): 1}.items(), n, rank), t, k, 0)

    words = at(1) - at(0) if power else at(0)
    terms = [(c, _word(w, n, j, source)) for w, c in words.items()]
    (c, first), *rest = terms
    return first if not rest and c == 1 else EulerOperator.combine(terms)


def _affine_system(op, n, k, t, j, source):
    """P = A + t B of the table operator ``op`` from its memoized parts;
    at t = 0 the memoized A itself, shared with every caller, who must
    not mutate it."""
    A = _part(op, n, k, j, source, 0)
    return A if exact_t(t) == 0 else EulerOperator.combine(
        [(1, A), (t, _part(op, n, k, j, source, 1))])


def tensor_mode_system(n, k, t, j):
    """Angular families and exact system P(z; t) = A(z) + t B(z) of the
    table's gauged linearized operator ("gauged_lin") at degree j.  A and
    B are composed once per (n, k, j) from pieces on the degree-j
    2-tensor, 1-form and phi_j families, each probed once per (n, j) and
    process (``_probe``) and shared across k and with the other mode
    systems.  At t = 0 only the Laplacian is probed and the returned
    system is the memoized A itself, shared with every caller, who must
    not mutate it."""
    op = _affine_system("gauged_lin", n, k, t, j, "tensor")
    return op.basis, op


def gauge_mode_system(n, family, t, j):
    """Basis and exact system A - t B of the modified gauge operator
    gauge_op_t = div_t o lie_flat (the table's "div_lie_t") on one
    degree-j 1-form family: "typeI", the co-closed r psi_j (j >= 1), or
    "typeII", the pair [phi dr, r d(phi)].  A is the probed
    divergence o lie_flat, B the probed radial_contraction o lie_flat."""
    if family not in ("typeI", "typeII"):
        raise ParameterError("family must be 'typeI' or 'typeII'")
    kind = "psi" if family == "typeI" else "forms"
    op = _affine_system("div_lie_t", n, 1, t, j, kind)
    return op.basis, op


def scalar_mode_system(n, k, s):
    """Scalar Laplacian-power system on a single degree-s harmonic: the
    (k + 1)-fold composite of the table's Laplacian, probed once."""
    if k < 0:
        raise ParameterError("need k >= 0 (the system is Delta^(k+1))")
    lap = _affine_system("laplacian", n, 1, 0, s, "phi")
    return lap.basis, reduce(EulerOperator.compose, [lap] * (k + 1))


def divergence_mode_system(n, t, j, basis=None):
    """Modified-divergence system div - t i_r (the table's "delta_t")
    from the degree-j 2-tensor families, ``tensor_mode_basis(n, j)``, to
    the degree-j 1-form pair.  A ``basis`` given must be those
    families."""
    if basis is not None and basis is not _family("tensor", n, j):
        raise ParameterError("basis must be tensor_mode_basis(n, j), the "
                             "degree-j 2-tensor families")
    return _affine_system("delta_t", n, 1, t, j, "tensor")


def _scan_one_mode(task):
    """Spectra and divergence-compatible zero-root hits of one degree j at
    every distinct t, each from A + t B; div - t i_r is built only at a t
    whose spectrum has a zero-real-part root, and the float view of
    A + t B is the spectrum's own.  Every piece comes from the per-process
    memos, so a warm worker or a later scan of the same (n, j) probes
    nothing."""
    n, k, j, t_values = task
    cells = {}
    for t in dict.fromkeys(t_values):
        spec = indicial_spectrum(_affine_system("gauged_lin", n, k, t, j,
                                                 "tensor"))
        zeros = [root for root in spec.roots
                 if root.classification == "zero"]
        if zeros:
            div_system = FloatSystem(divergence_mode_system(n, t, j))
        hits = []
        for root in zeros:
            inter = _divergence_free_chain_space(spec.system, div_system,
                                                 root)
            if inter.shape[1]:
                hits.append({"t": float(t), "j": j,
                             "root": {"re": root.value.real,
                                      "im": root.value.imag,
                                      "mult": root.multiplicity},
                             "dimension": int(inter.shape[1])})
        cells[t] = (spec.summary(), hits)
    return cells


def degenerate_scan(n, k, t_values, j_max, *, jobs=1):
    """Scan for mode kernel elements supported on zero-real-part roots that
    also satisfy the modified divergence constraint.

    At t = 0 constants are genuine witnesses (reported separately); for
    small t != 0 the expected finding count is zero.  Both operators are
    affine in t: every listed t (an int or Fraction) gets the exact
    systems A + t B and div - t i_r from the pieces that
    ``tensor_mode_system`` and ``divergence_mode_system`` share, probed
    once per (n, j) and process, so a later scan probes nothing.  The
    degrees are independent; with jobs > 1 ``parallel_map`` deals degree j
    to forked worker j mod jobs, which keeps that degree and its memo for
    every later scan in the process.  The report lists (t, j) cells in
    t-major order, repeated t values included.
    """
    t_values = list(t_values)
    if not t_values:
        raise ParameterError("need at least one t value")
    if j_max < 0:
        raise ParameterError("need j_max >= 0")
    if jobs < 1:
        raise ParameterError(f"need jobs >= 1, got {jobs}")
    for t in t_values:
        exact_t(t)
    tasks = [(n, k, j, t_values) for j in range(j_max + 1)]
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
    """[fn(x) for x in items], on ``jobs`` forked workers when jobs > 1.

    Items are dealt round-robin: item i goes to worker i mod jobs, which
    gets its whole share as one message and returns its results as one;
    the results keep the input order.  The first call with jobs > 1 forks
    the workers and later calls with the same jobs reuse them, so a worker
    keeps its positions from call to call (the same degrees j of a scan,
    the same suites of ``verify-all``) and finds its memo caches warm.  The
    workers see module state as of that first use, not later changes in
    the caller.  A call with another jobs value replaces them; they are
    ended at interpreter exit.

    An exception in fn is raised as the serial loop would raise it: the
    one at the lowest failing index, with its own type, and the workers
    stay usable.  A worker that dies raises RuntimeError naming its pid and
    exit code.  A call that ends without every reply (a dead worker, an
    interrupt) ends all the workers, so the next call forks fresh ones.
    """
    items = list(items)
    if not jobs or jobs <= 1:
        return [fn(x) for x in items]
    workers = _workers(jobs)
    try:
        for w, (proc, conn) in enumerate(workers):
            _talk(proc, conn.send, (fn, items[w::jobs]))
        replies = [_talk(proc, conn.recv) for proc, conn in workers]
    except BaseException:
        _close_workers()
        raise
    failed = [(w + jobs * len(done), exc)
              for w, (done, exc) in enumerate(replies) if exc is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    results = [None] * len(items)
    for w, (done, _) in enumerate(replies):
        results[w::jobs] = done
    return results


def _talk(proc, call, *args):
    """conn.send(...) or conn.recv() with a worker; one that has died
    raises RuntimeError instead of blocking."""
    try:
        return call(*args)
    except (EOFError, OSError):
        proc.join(1)
        raise RuntimeError(f"parallel_map worker {proc.pid} died, exit code "
                           f"{proc.exitcode}") from None


def _serve(conn):
    """A worker: runs fn over each share it is sent, in order, and replies
    (results, None), or (the results before the first error, the error)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C is the parent's
    while True:
        try:
            fn, share = conn.recv()
        except EOFError:  # the parent closed its end
            return
        done = []
        try:
            for x in share:
                done.append(fn(x))
            reply = (done, None)
        except BaseException as exc:  # SystemExit too: the parent raises it
            reply = (done, exc)
        try:
            conn.send(reply)
        except Exception as exc:  # a result or the error does not pickle
            conn.send(([], RuntimeError(f"parallel_map worker cannot send "
                                        f"its reply: {exc!r}")))


# os.getpid() -> (jobs, [(Process, Connection)]).  A forked child inherits
# its parent's entry and leaves it alone: it neither reuses nor ends workers
# it did not start.
_WORKERS = {}


def _workers(jobs):
    held = _WORKERS.get(os.getpid())
    if held is not None and held[0] == jobs:
        return held[1]
    _close_workers()
    import multiprocessing

    # fork, so the workers start with the caller's memos and module state
    ctx = multiprocessing.get_context("fork")
    workers = []
    _WORKERS[os.getpid()] = (jobs, workers)
    try:
        for _ in range(jobs):
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(child,), daemon=True)
            proc.start()
            child.close()
            workers.append((proc, conn))
    except BaseException:
        _close_workers()
        raise
    # after multiprocessing's own exit hook, so this one runs first
    atexit.unregister(_close_workers)
    atexit.register(_close_workers)
    return workers


def _close_workers():
    _, workers = _WORKERS.pop(os.getpid(), (0, ()))
    for proc, conn in workers:
        proc.terminate()
        conn.close()
    for proc, _ in workers:
        proc.join()


def _divergence_free_chain_space(system, div_system, root):
    """Chain vectors killed by both the mode system and the divergence
    system, given as FloatSystems: the singular directions of the stacked
    chain matrices whose singular value is at most KERNEL_CUTOFF times the
    largest of the largest one and both coefficient scales."""
    big = np.vstack([_chain_matrix(s, root.value, root.multiplicity)
                     for s in (system, div_system)])
    _, s, vh = np.linalg.svd(big)
    bound = KERNEL_CUTOFF * max(s[0], system.scale, div_system.scale)
    return vh[int((s > bound).sum()):].conj().T
