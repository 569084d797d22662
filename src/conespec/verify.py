"""Invariant suites behind the verify-all command.

Each suite re-checks one block of the library's stated invariants at a
configurable trial scale and returns a pass/fail record; the CLI runs all
of them and exits nonzero on any failure.  This is the one place these
invariants are stated: the tests run every suite by name, and an
acceptance criterion that a suite states calls that suite at scale 1.0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import combinations

import numpy as np

from . import bootstrap as bs
from . import closed_form as cf
from . import expsum as es
from . import flat_kernel as fk
from . import mode_ode as mo
from . import polytensor as pt
from . import symbols as sy
from .linalg import poly_eval, poly_mul, poly_shift, sparse_rank


def _suite(name):
    def deco(fn):
        fn.suite_name = name
        SUITES.append(fn)
        return fn
    return deco


SUITES = []


def _result(fn, passed, **details):
    return {"name": fn.suite_name, "passed": bool(passed), "details": details}


# -- expsum ------------------------------------------------------------------


# The Turan sweeps draw and evaluate up to BATCH_TRIALS instances at a
# time as arrays; the cap bounds the batch arrays.
BATCH_TRIALS = 256


def _batches(trials):
    return [min(BATCH_TRIALS, trials - s)
            for s in range(0, trials, BATCH_TRIALS)]


@_suite("expsum.discrete_inequality_sweep")
def check_discrete_sweep(seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    trials = int(10000 * scale) or 1
    violations = 0
    for n in _batches(trials):
        for z, c, m in es.draw_discrete_instances(rng, n).values():
            rec = es.turan_discrete_batch(z, c, m)
            violations += int(np.count_nonzero(~rec["holds"]
                                               & (rec["rhs"] != 0)))
    return _result(check_discrete_sweep, violations == 0,
                   trials=trials, violations=violations)


@_suite("expsum.integral_inequality_sweep")
def check_integral_sweep(seed=1, scale=1.0):
    rng = np.random.default_rng(seed)
    trials = int(1000 * scale) or 1
    violations = 0
    for n in _batches(trials):
        table = es.draw_expsum_table(rng, rng.integers(1, 4, size=n))
        a = rng.uniform(0.05, 4.0, size=n)
        b = rng.uniform(a + 0.05, 5.0)
        rec = es.turan_integral_batch(table, a, b)
        holds = (rec["holds"] & rec["sup_form"]["holds"]
                 & rec["l2_form"]["holds"])
        violations += int(np.count_nonzero(~holds))
    return _result(check_integral_sweep, violations == 0,
                   trials=trials, violations=violations)


@_suite("expsum.three_interval_sweep")
def check_three_interval_sweep(seed=2, scale=1.0):
    rng = np.random.default_rng(seed)
    trials = int(1000 * scale) or 1
    violations = 0
    for n in _batches(trials):
        d = rng.integers(1, 4, size=n)
        table = es.draw_budget_table(rng, d, rng.integers(0, 6 - d))
        big_r = rng.uniform(0.2, 2.5, size=n)
        ell = rng.integers(1, 4, size=n)
        # the power budget keeps the index <= 5
        d, big_m = table.distinct()
        violations += int(np.count_nonzero(big_m + d > 5))
        rec = es.three_interval_batch(table.with_mirrors(),
                                      np.tile(big_r, 2), np.tile(ell, 2),
                                      np.repeat(["growth", "decay"], n))
        violations += int(np.count_nonzero(~rec["holds"]))
    return _result(check_three_interval_sweep, violations == 0,
                   trials=trials, violations=violations)


@_suite("expsum.shift_covariance")
def check_shift_covariance(seed=3, scale=1.0):
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(int(100 * scale) or 1):
        d = int(rng.integers(1, 4))
        p = es.draw_expsum(rng, d, re_range=(0.05, 2.0), powers=1)
        big_r = float(rng.uniform(0.3, 2.0))
        a = es.three_interval(p, big_r, 2, "growth")
        b = es.three_interval(p.shift(big_r), big_r, 1, "growth")
        ok &= a["holds"] == b["holds"]
        ok &= abs(a["lhs"] - b["lhs"]) <= 1e-8 * (1 + abs(a["lhs"]))
    return _result(check_shift_covariance, ok)


# -- closed-form spectral data ----------------------------------------------


@_suite("closed_form.rate_relations_exact")
def check_rate_relations(seed=0, scale=1.0):
    ok = True
    for n in range(3, 9):
        for j in range(1, 11):
            rp = cf.gauge_kernel_rates(n, "typeI", j)
            alpha = Fraction(4 - n, 2)
            mu = cf.typeI_eigenvalue(n, j)
            ok &= (rp.plus - alpha) ** 2 == alpha * alpha + mu
            ok &= (rp.minus - alpha) ** 2 == alpha * alpha + mu
            ok &= rp.plus + rp.minus == 2 * alpha
        for j in range(0, 11):
            rp = cf.gauge_kernel_rates(n, "typeII", j)
            beta = Fraction(2 - n, 2)
            nu = cf.typeII_eigenvalue(n, j)
            ok &= (rp.plus - beta) ** 2 == beta * beta + nu
            ok &= rp.plus + rp.minus == 2 * beta
        E = cf.gauge_exceptional_values(n, 10)
        ok &= all(v == int(v) for v in E.values)
        ok &= 1 in E
        ok &= all((2 - n) - v in E for v in E.values)
    return _result(check_rate_relations, ok)


def _monic_from_roots(roots):
    return reduce(poly_mul, ([-r, 1] for r in roots), [Fraction(1)])


@_suite("closed_form.modified_rates_match_base_at_t0")
def check_modified_at_zero(seed=0, scale=1.0):
    """At t = 0 the exact factors, times the rigid root's, are the product
    of z - r over the base rates r: plus and minus for type I, b+-
    and b+- + 2 for type II (b+ + 2 and b- at nu = 0)."""
    ok = True
    for n in (3, 4, 5, 6, 8):
        for family, j_min in (("typeI", 1), ("typeII", 0)):
            for j in range(j_min, 8):
                rp = cf.gauge_kernel_rates(n, family, j)
                want = [rp.plus, rp.minus]
                if family == "typeII":
                    want = ([rp.plus + 2, rp.minus] if j == 0
                            else want + [rp.plus + 2, rp.minus + 2])
                got = [Fraction(1)]
                if (family, j) in cf.RIGID_ROOTS:
                    got = [-cf.RIGID_ROOTS[family, j], 1]
                for f, mult in cf.modified_kernel_factors(n, 0, family, j):
                    got = reduce(poly_mul, [f] * mult, got)
                ok &= got == _monic_from_roots(want)
    return _result(check_modified_at_zero, ok)


@_suite("closed_form.rotation_rate_identity")
def check_rotation_rate(seed=0, scale=1.0):
    """The rotation root z = 2 of the type I j = 1 polynomial q(z; t), as
    a polynomial in t: q's coefficients are affine in t (checked at a
    third t), so q(2; t) = q(2; 0) + t (q(2; 1) - q(2; 0)), and both
    terms vanish."""
    ok = True
    root = cf.RIGID_ROOTS["typeI", 1]
    for n in (3, 4, 5, 6, 8):
        q0, q1, q3 = (cf.modified_kernel_polynomial(n, t, "typeI", 1)
                      for t in (0, 1, Fraction(-1, 3)))
        slope = [b - a for a, b in zip(q0, q1)]
        ok &= q3 == [a - c / 3 for a, c in zip(q0, slope)]
        ok &= poly_eval(q0, root) == 0 and poly_eval(slope, root) == 0
    return _result(check_rotation_rate, ok)


@_suite("closed_form.rates_match_probed_spectra")
def check_rates_vs_probes(seed=0, scale=1.0):
    """Dual route: the determinant of each probed gauge system is a
    nonzero multiple of the closed-form kernel polynomial after the unit
    frame shift, det P(z) = c K(z + 1), exactly."""
    ok = True
    for n in (4, 6):
        for t in (Fraction(1, 10), Fraction(-1, 20)):
            for family, j in (("typeII", 1), ("typeII", 2), ("typeI", 2)):
                _, op = mo.gauge_mode_system(n, family, t, j)
                det = op.det_poly()
                closed = poly_shift(
                    cf.modified_kernel_polynomial(n, t, family, j), 1)
                c = det[-1] / closed[-1]
                ok &= c != 0 and det == [c * x for x in closed]
    return _result(check_rates_vs_probes, ok)


@_suite("closed_form.exceptional_rules")
def check_exceptional_rules(seed=0, scale=1.0):
    ok = True
    ok &= cf.polyharmonic_exceptional_values(4, 1).full_lattice
    ok &= cf.polyharmonic_exceptional_values(6, 2).full_lattice
    E = cf.polyharmonic_exceptional_values(8, 1, window=(-8, 8))
    ok &= set(range(-8, 9)) - set(E.values) == {-1, -2, -3}
    E = cf.polyharmonic_exceptional_values(6, 1, window=(-8, 8))
    ok &= set(range(-8, 9)) - set(E.values) == {-1}
    E = cf.polyharmonic_exceptional_values(8, 2, window=(-8, 8))
    ok &= set(range(-8, 9)) - set(E.values) == {-1}
    return _result(check_exceptional_rules, ok)


@_suite("closed_form.scalar_roots_kill_fields")
def check_scalar_roots(seed=0, scale=1.0):
    ok = True
    for (n, k, s) in [(4, 1, 0), (4, 1, 2), (6, 1, 1), (6, 2, 0), (8, 1, 2)]:
        phi = pt.sphere_harmonic(n, s)
        for z, mult in cf.scalar_indicial_roots(n, k, s).items():
            field = phi.radial_scaled(z)
            ok &= pt.laplacian(field, k + 1).is_zero()
    return _result(check_scalar_roots, ok)


# -- flat kernel --------------------------------------------------------------


def _nk_pairs(nmax=8):
    pairs = [(3, 1)]
    for n in range(4, nmax + 1, 2):
        pairs.extend((n, k) for k in range(1, n // 2))
    return pairs


@_suite("flat_kernel.divergence_free_rigidity")
def check_divfree(seed=0, scale=1.0):
    ok = True
    dims = {}
    for (n, k) in _nk_pairs(8):
        modes = ["degree1"]
        if n == 2 * (k + 1):
            modes.append("log")
        else:
            modes.append("degree0")
        for mode in modes:
            rec = fk.divergence_free_nullspace(n, k, mode)
            dims[f"{n},{k},{mode}"] = rec["dimension"]
            ok &= rec["dimension"] == 0
            if mode == "degree1":  # A_ij^l x_l, symmetric in ij
                ok &= rec["unknowns"] == n * n * (n + 1) // 2
    return _result(check_divfree, ok, dimensions=dims)


@_suite("flat_kernel.quadratic_lie_isomorphism")
def check_lie_iso(seed=0, scale=1.0):
    ok = True
    recs = {}
    for n in range(2, 7):
        rec = fk.quadratic_lie_isomorphism(n)
        recs[n] = rec
        ok &= rec["invertible"] and rec["dimension"] == n * n * (n + 1) // 2
        ok &= rec["nullspace_dimension"] == 0
    return _result(check_lie_iso, ok, ranks={n: r["rank"] for n, r in recs.items()})


@_suite("flat_kernel.flow_error_quadratic")
def check_flow_error(seed=7, scale=1.0):
    """The time-1 flow pullback defect of small-integer quadratic fields,
    exactly: no degree-0 or degree-1 part, and a nonzero degree-2 part
    equal to DX^T DX + (D(DX X) + D(DX X)^T) / 2, so the defect is
    quadratic in the radius."""
    rng = np.random.default_rng(seed)
    ok = True
    terms = []
    for _ in range(max(1, int(5 * min(scale, 1.0)))):
        X = fk.QuadraticField.random_integer(4, rng)
        low0, low1, quad = fk.quadratic_flow_defect(X)
        ok &= low0.is_zero() and low1.is_zero()
        ok &= quad == fk.flow_defect_form(X)
        terms.append(sum(len(comp) for comp in quad.comps.values()))
        ok &= terms[-1] > 0
    return _result(check_flow_error, ok, degree2_terms=terms)


# -- symbols -------------------------------------------------------------------


def _integral(sym):
    """(d sym as int64, d) for the lcm d of the symbol's denominators."""
    d = math.lcm(*(Fraction(v).denominator for v in sym.flat))
    return (sym * d).astype(np.int64), d


def _rank(matrix):
    return sparse_rank({c: int(v) for c, v in enumerate(row) if v}
                       for row in matrix)


@_suite("symbols.gauge_invariance_and_reduction")
def check_symbols(seed=11, scale=1.0):
    """Exact at xi = e_1, which decides every xi != 0 by O(n) equivariance,
    on a prefix of ``_nk_pairs(8)`` by scale: the ungauged symbol's kernel
    is exactly the Lie directions e_1 v + v e_1 plus the conformal one
    (nullity n + 1), which the scalar-curvature symbol kills too; on
    transverse traceless input the symbol is -(1/(2(n-2))) (-1)^(k+1)
    times the identity; and the gauged symbol has full rank (elliptic)."""
    pairs = _nk_pairs(8)
    ok, nullity = True, {}
    for n, k in pairs[:max(1, int(len(pairs) * scale))]:
        bach, d_bach = _integral(sy.principal_symbol("bach", n, k))
        gauged, lie, scalar = (_integral(sy.principal_symbol(name, n, k))[0]
                               for name in ("gauged", "lie", "scalar"))
        eye = np.eye(n, dtype=np.int64)
        pure_gauge = np.concatenate([lie, eye[..., None]], axis=2)
        ok &= not (np.tensordot(bach, pure_gauge).any()
                   or np.tensordot(scalar, lie).any())
        dim = n * (n + 1) // 2
        nullity[f"{n},{k}"] = dim - _rank(bach.reshape(n * n, -1))
        ok &= _rank(pure_gauge.reshape(n * n, -1)) == n + 1
        ok &= nullity[f"{n},{k}"] == n + 1
        ok &= _rank(gauged.reshape(n * n, -1)) == dim
        tt = np.stack([np.outer(eye[a], eye[b]) + np.outer(eye[b], eye[a])
                       for a, b in combinations(range(1, n), 2)]
                      + [np.outer(eye[a], eye[a]) - np.outer(eye[1], eye[1])
                         for a in range(2, n)], axis=-1)
        ok &= np.array_equal(np.tensordot(bach, tt), d_bach * tt * Fraction(
            -(-1) ** (k + 1), 2 * (n - 2)))
    return _result(check_symbols, ok, nullity=nullity)


def _two_block_symbol(n, k, xi, h):
    """The obstruction symbol re-derived from its two sub-blocks: the
    Ricci/scalar-curvature block (-q) A'(h) and the Bianchi block
    xi xi R'(h) / (2(n-1)), times the Laplacian-power factor (-q)^(k-1)."""
    q = float(xi @ xi)
    tr = np.trace(h)
    hxi = h @ xi
    rprime = q * tr - xi @ hxi
    ric = 0.5 * q * h + 0.5 * np.outer(xi, xi) * tr \
        - 0.5 * (np.outer(xi, hxi) + np.outer(hxi, xi))
    aprime = (ric - rprime * np.eye(n) / (2 * (n - 1))) / (n - 2)
    return ((-q) * aprime
            + np.outer(xi, xi) * rprime / (2 * (n - 1))) * (-q) ** (k - 1)


@_suite("symbols.two_block_assembly")
def check_symbol_two_block(seed=13, scale=1.0):
    """Independent re-derivation: the symbol assembled from its Ricci and
    scalar-curvature sub-blocks equals the exact symbol at e_1 carried to
    a random xi by O(n) equivariance (``symbols.symbol_at``).  The draws
    take (n, k) from a prefix of the pairs with n <= 8 by scale, so a
    small scale reads few exact symbols."""
    rng = np.random.default_rng(seed)
    pairs = [(n, k) for n in range(3, 9) for k in range(1, max(2, n // 2))]
    pairs = pairs[:max(1, int(len(pairs) * scale))]
    worst = 0.0
    for _ in range(int(200 * scale) or 1):
        n, k = pairs[rng.integers(len(pairs))]
        xi = rng.standard_normal(n)
        h = rng.standard_normal((n, n))
        h = h + h.T
        want = _two_block_symbol(n, k, xi, h)
        got = sy.symbol_at("bach", n, xi, h, k)
        scalefac = max(1.0, float(np.max(np.abs(want))))
        worst = max(worst, float(np.max(np.abs(got - want))) / scalefac)
    return _result(check_symbol_two_block, worst < 1e-12, worst=worst)


# -- polytensor ----------------------------------------------------------------


@_suite("polytensor.polar_gauge_formula")
def check_polar_formula(seed=0, scale=1.0):
    ok = True
    for n in (3, 4, 6):
        for j in (1, 2):
            nu = cf.typeII_eigenvalue(n, j)
            phi = pt.sphere_harmonic(n, j)
            phidr = pt.mul_scalar_field(pt.radial_form(n), phi)
            dphi = pt.gradient(phi)
            for m in (0, 1, 3):
                # radial piece a(r) = r^m against the two-block polar formula
                a = Fraction(m)
                out = pt.gauge_op(phidr.radial_scaled(m))
                dr_part = phidr.radial_scaled(m - 2).scaled(
                    2 * a * (a - 1) + 2 * (n - 1) * a - (nu + 2 * (n - 1)))
                tan_part = dphi.radial_scaled(m - 1).scaled(a + (n + 1))
                ok &= (out - dr_part - tan_part).is_zero()
                # tangential piece: input r^{m+1} d(phi), i.e. c(r) = r^{m+1}
                c = Fraction(m + 1)
                out = pt.gauge_op(dphi.radial_scaled(m + 1))
                dr_part = phidr.radial_scaled(m - 2).scaled(-nu * c + 4 * nu)
                tan_part = dphi.radial_scaled(m - 1).scaled(
                    c * (c - 1) + (n - 3) * c - 2 * nu)
                ok &= (out - dr_part - tan_part).is_zero()
    return _result(check_polar_formula, ok)


@_suite("polytensor.kernel_elements_exact")
def check_kernel_elements(seed=0, scale=1.0):
    ok = True
    for n in (3, 4, 6):
        rot = pt.coclosed_eigenform(n, 1)  # r psi_1, radially parallel
        # type I family at both exponents (measured in the psi variable)
        for a in (2, 2 - n):
            ok &= pt.gauge_op(rot.radial_scaled(a - 1)).is_zero()
        # rotation duals are killed by the modified operator too
        ok &= pt.gauge_op_t(rot.radial_scaled(1), Fraction(1, 7)).is_zero()
        phi = pt.sphere_harmonic(n, 2)
        phidr = pt.mul_scalar_field(pt.radial_form(n), phi)
        dphi = pt.gradient(phi)
        bp, bm = 2, -n
        # gradient family and decaying family
        ok &= pt.gauge_op(dphi.radial_scaled(bp) +
                          phidr.radial_scaled(bp - 1).scaled(bp)).is_zero()
        ok &= pt.gauge_op(dphi.radial_scaled(bm) +
                          phidr.radial_scaled(bm - 1).scaled(bm)).is_zero()
        # second family at exponent b+2 with the derived coefficient pair
        for b in (bp, bm):
            l0 = (b - 2) * (b + n - 2)
            u0 = b + n + 2
            xi = (phidr.radial_scaled(b + 1).scaled(l0)
                  + dphi.radial_scaled(b + 2).scaled(u0))
            ok &= pt.gauge_op(xi).is_zero()
        # dilation and conformal degree-2 fields
        rdr = pt.radial_form(n).radial_scaled(1)
        ok &= (pt.lie_flat(rdr) - pt.delta_metric(n).scaled(2)).is_zero()
        ok &= pt.gauge_op(rdr).is_zero()
        sph2 = (phidr.radial_scaled(1).scaled(2) + dphi.radial_scaled(2))
        ok &= pt.gauge_op(sph2).is_zero()
        # translations stay in the kernel of the modified operator
        for i in range(n):
            dxi = pt.PolyTensor(n, 1)
            dxi.add_term((i,), (0,) * n, 0, 1)
            ok &= pt.gauge_op_t(dxi, Fraction(1, 9)).is_zero()
    return _result(check_kernel_elements, ok)


@_suite("polytensor.sphere_moment_recursion")
def check_moment_recursion(seed=0, scale=1.0):
    ok = True
    from itertools import product as iproduct
    for n in (3, 4, 5):
        for alpha in iproduct(range(0, 9, 2), repeat=min(n, 3)):
            if sum(alpha) > 8:
                continue
            full = alpha + (0,) * (n - len(alpha))
            base = pt.sphere_moment_reduced(n, full)
            for i in range(n):
                bumped = list(full)
                bumped[i] += 2
                lhs = pt.sphere_moment_reduced(n, tuple(bumped))
                rhs = Fraction(full[i] + 1, n + sum(full)) * base
                ok &= lhs == rhs
    return _result(check_moment_recursion, ok)


@_suite("polytensor.radially_parallel_inner_products")
def check_parallel_inner(seed=0, scale=1.0):
    ok = True
    for n in (3, 4, 6):
        for j in (0, 1, 2):
            # building a basis checks that its families are radially
            # parallel and orthogonal within the degree; distinct degrees
            # are orthogonal too
            basis = pt.tensor_mode_basis(n, j)
            other = pt.tensor_mode_basis(n, j + 1)
            for a in basis.elements:
                for b in other.elements:
                    d = pt.slice_inner_reduced(a, b)
                    ok &= all(v == 0 for v in d.values())
    return _result(check_parallel_inner, ok)


# -- mode systems --------------------------------------------------------------


@_suite("mode_ode.probed_systems_match_displays")
def check_probed_displays(seed=0, scale=1.0):
    ok = True
    for n in (3, 4, 6):
        for t in (Fraction(0), Fraction(1, 10), Fraction(-1, 20)):
            for j in (1, 2):
                _, op = mo.gauge_mode_system(n, "typeI", t, j)
                got = poly_shift(op.P[0][0], Fraction(-1))
                ok &= got == cf.modified_kernel_polynomial(n, t, "typeI", j)
            for j in (0, 1, 2, 3):
                nu = cf.typeII_eigenvalue(n, j)
                _, op = mo.gauge_mode_system(n, "typeII", t, j)
                disp = cf.modified_typeII_matrix(n, t, nu)
                if j == 0:
                    got = poly_shift(op.P[0][0], Fraction(-1))
                    ok &= got == disp[0][0]
                else:
                    for r in range(2):
                        for c in range(2):
                            got = poly_shift(op.P[r][c], Fraction(-1))
                            want = disp[r][c]
                            ok &= got == want
    return _result(check_probed_displays, ok)


@_suite("mode_ode.multiplicity_and_beta")
def check_multiplicity(seed=0, scale=1.0):
    ok = True
    recs = {}
    pairs = [(4, 1), (6, 1), (6, 2)]  # cheapest probe first
    for (n, k) in pairs[:int(len(pairs) * scale) or 1]:
        basis, op = mo.tensor_mode_system(n, k, Fraction(1, 10), 2)
        spec = mo.indicial_spectrum(op)
        recs[f"{n},{k}"] = spec.total_multiplicity
        ok &= len(basis) == 4
        ok &= spec.total_multiplicity == 8 * (k + 1)
        ok &= spec.total_multiplicity == len(basis) * op.order
        ok &= spec.beta is not None and spec.beta > 0
    return _result(check_multiplicity, ok, multiplicities=recs)


@_suite("mode_ode.divfree_spectrum_matches_scalar_roots")
def check_divfree_spectrum(seed=0, scale=1.0):
    """At t = 0 every root is an integer: each float root lies within 1e-7
    of an integer z0 with det P(z0) = 0 exactly, and each root with a
    divergence-free chain is a scalar indicial root of degree j or j +- 2."""
    ok = True
    for (n, k, j) in [(4, 1, 2), (6, 1, 1)]:
        _, op = mo.tensor_mode_system(n, k, Fraction(0), j)
        spec = mo.indicial_spectrum(op)
        det = op.det_poly()
        for root in spec.roots:
            z0 = round(root.value.real)
            ok &= abs(root.value - z0) < 1e-7 and poly_eval(det, z0) == 0
        div_op = mo.divergence_mode_system(n, Fraction(0), j)
        allowed = set()
        for s in (j - 2, j, j + 2):
            if s >= 0:
                allowed.update(cf.scalar_indicial_roots(n, k, s))
        div_system = mo.FloatSystem(div_op)
        for root in spec.roots:
            inter = mo._divergence_free_chain_space(spec.system, div_system,
                                                    root)
            if inter.shape[1] > 0:
                near = min(allowed, key=lambda z: abs(root.value - z))
                ok &= abs(root.value - near) < 1e-7
    return _result(check_divfree_spectrum, ok)


@_suite("mode_ode.split_direct_sum")
def check_split(seed=31, scale=1.0):
    rng = np.random.default_rng(seed)
    basis, op = mo.tensor_mode_system(4, 1, Fraction(1, 20), 2)
    spec = mo.indicial_spectrum(op)
    ok = True
    for _ in range(10):
        sol = mo.ModeSolution.random(spec, rng)
        parts = mo.solution_split(sol)
        r = rng.uniform(0.2, 5.0, 100)
        total = sol.profile_values(r)
        summed = (parts["h_plus"].profile_values(r)
                  + parts["h_minus"].profile_values(r)
                  + parts["h_zero"].profile_values(r))
        ok &= bool(np.all(np.max(np.abs(total - summed), axis=1) < 1e-12
                          * np.maximum(1.0, np.max(np.abs(total), axis=1))))
    return _result(check_split, ok)


def _annulus_spectra():
    """The gauged tensor modes (4, 1, t = 0) at j = 1 and 3, and the scalar
    power mode (4, 1, s = 1)."""
    for j in (1, 3):
        _, op = mo.tensor_mode_system(4, 1, Fraction(0), j)
        yield f"tensor j={j}", mo.indicial_spectrum(op)
    _, op = mo.scalar_mode_system(4, 1, 1)
    yield "scalar s=1", mo.indicial_spectrum(op)


@_suite("mode_ode.three_annulus_dichotomy")
def check_three_annulus(seed=33, scale=1.0):
    trials = int(200 * scale) or 10
    ok = True
    spectra = {}
    for label, spec in _annulus_spectra():
        beta_prime = 0.45 * spec.beta
        rec = mo.empirical_l0(spec, beta_prime, trials=trials, seed=seed)
        entry = {"L0": rec["L0"], "turan_bound": rec["turan_bound"]}
        if rec["L0"] is None:
            ok = False
        else:
            confirm = mo.three_annulus_verify(spec, beta_prime, rec["L0"],
                                              trials=trials, seed=seed,
                                              turan_check=True)
            ok &= confirm["passed"]
            entry["failures"] = confirm["failures"]
        spectra[label] = entry
    return _result(check_three_annulus, ok, spectra=spectra)


@_suite("mode_ode.degenerate_scan_small")
def check_degenerate_small(seed=0, scale=1.0):
    rep = mo.degenerate_scan(4, 1, [0, Fraction(1, 20)], 2)
    ok = not rep["findings"]
    ok &= any(w["j"] == 0 for w in rep["witnesses_t0"])
    ok &= any(w["j"] == 2 for w in rep["witnesses_t0"])
    # rotations are not degenerate: j = 1 gives no constant witness
    ok &= all(w["j"] != 1 for w in rep["witnesses_t0"])
    # every scanned mode keeps a positive growth-rate floor
    ok &= all(s["beta"] is not None and s["beta"] > 0
              for s in rep["spectra"].values())
    return _result(check_degenerate_small, ok,
                   witnesses=len(rep["witnesses_t0"]))


# -- bootstrap -----------------------------------------------------------------


@_suite("bootstrap.terminal_orders")
def check_bootstrap_terminal(seed=0, scale=1.0):
    ok = True
    for (n, k) in _nk_pairs(10):
        terminal = n - 2 * k
        beta0 = 0.1
        while beta0 < terminal - 1e-9:
            st = bs.bootstrap_infinity(n, k, beta0)
            ok &= st.order == terminal
            nsteps = sum(1 for h in st.history
                         if h["mechanism"] == "remainder gain")
            bound = math.ceil(math.log2(terminal / beta0)) + len(st.barriers)
            ok &= nsteps <= bound + 1
            beta0 = round(beta0 + 0.1, 10)
        for sigma0 in (0.1, 0.3, 0.5, 0.9, 1.3, 1.7):
            ok &= bs.bootstrap_origin(n, k, sigma0).order == 2.0
    return _result(check_bootstrap_terminal, ok)


@_suite("bootstrap.barrier_mechanisms_verified")
def check_barrier_mechanisms(seed=0, scale=1.0):
    ok = True
    for (n, k) in _nk_pairs(8):
        for st in (bs.bootstrap_infinity(n, k, 0.3),
                   bs.bootstrap_origin(n, k, 0.4)):
            for h in st.history:
                chk = h["check"]
                if chk is None:
                    continue
                if chk["op"] == "divergence_free_nullspace":
                    ok &= fk.divergence_free_nullspace(
                        chk["n"], chk["k"], chk["mode"])["dimension"] == 0
                elif chk["op"] == "quadratic_lie_isomorphism":
                    ok &= fk.quadratic_lie_isomorphism(chk["n"])["invertible"]
                else:
                    ok = False
    return _result(check_barrier_mechanisms, ok)
