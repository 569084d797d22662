import json
import math
from fractions import Fraction

import numpy as np
import pytest

from conespec import polytensor as pt
from field_reference import naive_slice_inner, triple_bar_norm_sq


def random_field(rng, n, rank, nterms=4):
    T = pt.PolyTensor(n, rank)
    for _ in range(nterms):
        idx = tuple(int(rng.integers(0, n)) for _ in range(rank))
        alpha = tuple(int(rng.integers(0, 3)) for _ in range(n))
        T.add_term(idx, alpha, int(rng.integers(-3, 4)),
                   int(rng.integers(-5, 6)))
    return T


def test_partial_matches_symbolic_oracle():
    import sympy

    n = 3
    xs = sympy.symbols(f"x0:{n}")
    r = sympy.sqrt(sum(x ** 2 for x in xs))
    rng = np.random.default_rng(2)
    for _ in range(10):
        T = random_field(rng, n, 0)
        expr = 0
        for (alpha, gamma), c in T.comps.get((), {}).items():
            mono = sympy.Integer(1)
            for x, a in zip(xs, alpha):
                mono *= x ** a
            expr += int(c) * mono * r ** int(gamma)
        for i in range(n):
            got = pt.partial(T, i)
            gexpr = 0
            for (alpha, gamma), c in got.comps.get((), {}).items():
                mono = sympy.Integer(1)
                for x, a in zip(xs, alpha):
                    mono *= x ** a
                frac = sympy.Rational(str(c)) if isinstance(c, Fraction) else c
                gexpr += frac * mono * r ** int(gamma)
            assert sympy.simplify(gexpr - sympy.diff(expr, xs[i])) == 0


def test_divergence_of_inverse_square_profile():
    # delta(|x|^{-2} c) has j-component -2 |x|^{-4} sum_i c_ij x_i
    n = 4
    rng = np.random.default_rng(3)
    c = rng.integers(-3, 4, size=(n, n))
    c = c + c.T
    h = pt.PolyTensor(n, 2)
    for i in range(n):
        for j in range(n):
            if c[i, j]:
                h.add_term((i, j), (0,) * n, -2, int(c[i, j]))
    got = pt.divergence(h)
    want = pt.PolyTensor(n, 1)
    for j in range(n):
        for i in range(n):
            if c[i, j]:
                alpha = tuple(1 if a == i else 0 for a in range(n))
                want.add_term((j,), alpha, -4, -2 * int(c[i, j]))
    assert (got - want).is_zero()


def _sphere_moment(n, alpha):
    """Float moment integral over S^{n-1} of x^alpha."""
    return float(pt.sphere_moment_reduced(n, alpha)) * math.pi ** (n // 2)


def test_sphere_moments():
    assert abs(_sphere_moment(3, (0, 0, 0)) - 4 * math.pi) < 1e-12
    assert abs(_sphere_moment(4, (2, 0, 0, 0)) - math.pi ** 2 / 2) < 1e-12
    assert _sphere_moment(5, (1, 2, 0, 0, 0)) == 0.0


def test_sphere_moment_monte_carlo_oracle():
    rng = np.random.default_rng(17)
    n = 4
    pts = rng.standard_normal((1_000_000, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    vals = pts[:, 0] ** 2
    area = 2 * math.pi ** (n / 2) / math.gamma(n / 2)
    est = vals.mean() * area
    sigma = vals.std() * area / math.sqrt(len(vals))
    assert abs(_sphere_moment(n, (2, 0, 0, 0)) - est) < 3 * sigma


def test_slice_inner_products():
    n = 4
    drdr = pt.dr_tensor(n)
    # <<dr.dr, dr.dr>> = vol(S^{n-1}), independent of r
    d = pt.slice_inner_reduced(drdr, drdr)
    assert set(d) == {0}
    vol = 2 * math.pi ** (n / 2) / math.gamma(n / 2)
    assert abs(float(d[0]) * math.pi ** (n // 2) - vol) < 1e-12
    # radial/tangential orthogonality
    assert pt.slice_inner_reduced(drdr, pt.tangential_metric(n)) == {}


def test_dilation_field_is_conformal():
    n = 5
    rdr = pt.radial_form(n).radial_scaled(1)
    assert (pt.lie_flat(rdr) - pt.delta_metric(n).scaled(2)).is_zero()


# (n, m) for the radial fields r^m dr and r^m dr (x) dr below
RADIAL = [(n, m) for n in (3, 4, 6) for m in (Fraction(-3, 2), 0, 2, 5)]


def test_modified_divergence_identity_exact():
    # div_t (r^m dr (x) dr) = (m + n - 1 - t) r^(m-1) dr, by hand
    t = Fraction(3, 7)
    for n, m in RADIAL:
        h = pt.dr_tensor(n).radial_scaled(m)
        want = pt.radial_form(n).radial_scaled(m - 1).scaled(m + n - 1 - t)
        assert pt.div_t(h, t) == want


def test_gauge_is_composition():
    # div_t o lie on r^m dr, by hand: lie(r^m dr) = 2 r^(m-1) (delta +
    # (m - 1) dr (x) dr), whose divergence is 2 (m - 1)(m + n - 1) r^(m-2) dr
    # and whose radial contraction is 2 m r^(m-2) dr
    t = Fraction(3, 7)
    for n, m in RADIAL:
        xi = pt.radial_form(n).radial_scaled(m)
        dr = pt.radial_form(n).radial_scaled(m - 2)
        div_lie = 2 * (m - 1) * (m + n - 1)
        assert pt.gauge_op(xi) == dr.scaled(div_lie)
        assert pt.gauge_op_t(xi, t) == dr.scaled(div_lie - 2 * m * t)


def test_apply_operator_dispatch():
    n = 3
    xi = pt.radial_form(n).radial_scaled(1)
    out = pt.apply_operator("lie", xi)
    assert (out - pt.delta_metric(n).scaled(2)).is_zero()
    h = pt.delta_metric(n)
    assert pt.apply_operator("trace", h).comps[()] == {((0,) * n, 0): 3}
    with pytest.raises(ValueError):
        pt.apply_operator("unknown", h)


def test_gauged_lin_reduces_to_laplacian_power_at_t0():
    rng = np.random.default_rng(12)
    for (n, k) in [(4, 1), (6, 2)]:
        h = random_field(rng, n, 2)
        got = pt.gauged_lin(h, k, 0)
        want = pt.laplacian(h, k + 1).scaled(
            -pt.cnk(n, k) / (2 * (n - 2)))
        assert (got - want).is_zero()


def test_fields_refuse_floats_and_closure_rejects_mixed_images():
    seed = pt.tensor_mode_seed(4, 1)
    for make, value in [
            (lambda: pt.PolyTensor(4, 2).add_term((0, 0), (0,) * 4, 0, 0.1),
             0.1),
            (lambda: seed.scaled(0.1), 0.1),
            (lambda: seed.radial_scaled(0.5), 0.5),
            (lambda: pt.gauged_lin(seed, 1, 0.5), 0.5),
            (lambda: pt.apply_operator("delta_t", seed, t=0.5), 0.5)]:
        with pytest.raises(ValueError, match=f"exact data .* float {value}"):
            make()
    with pytest.raises(pt.ClosureError, match="not homogeneous"):
        pt.angular_image(lambda f: f + f.radial_scaled(1), seed, 0)


def _traceless_hessian_oracle(n, j):
    """Pi (r^2 Hess phi_j) Pi minus its trace part, by general field
    algebra: project with dr, then subtract the tangential trace."""
    phi = pt.sphere_harmonic(n, j)
    H = pt.hessian(phi).radial_scaled(2)
    dr = pt.radial_form(n)
    ir = pt.radial_contraction(H).radial_scaled(1)
    s = pt.radial_contraction(pt.radial_contraction(H)).radial_scaled(2)
    proj = H - pt.sym_pair(dr, ir) + pt.mul_scalar_field(pt.dr_tensor(n), s)
    tr = pt.trace2(proj)
    return (proj - pt.mul_scalar_field(pt.tangential_metric(n), tr).scaled(
        Fraction(1, n - 1))).canonical()


@pytest.mark.parametrize("n", range(3, 9))
def test_closed_form_hessian_family_matches_field_algebra(n):
    for j in range(7):
        got = pt.tangential_traceless_hessian(n, j)
        assert got.comps == _traceless_hessian_oracle(n, j).comps
        assert got.comps == got.canonical().comps


def _zero_mod_relation(f):
    """r^2 f - (sum_i x_i^2) f: non-empty term by term, zero modulo
    sum_i x_i^2 = r^2."""
    q = pt.PolyTensor(f.n, 0)
    for i in range(f.n):
        q.add_term((), tuple(2 * (a == i) for a in range(f.n)), 0, 1)
    return f.radial_scaled(2) - pt.mul_scalar_field(f, q)


@pytest.mark.parametrize("n,j", [(3, 2), (4, 3), (6, 2)])
def test_decompose_reads_non_canonical_fields(n, j):
    basis = pt.tensor_mode_basis(n, j)
    coeffs = [Fraction(i + 1, 3) for i in range(len(basis))]
    field = pt.PolyTensor(n, 2)
    for c, T in zip(coeffs, basis.elements):
        field = field + T.scaled(c)
    noise = _zero_mod_relation(pt.laplacian(field).radial_scaled(2))
    assert noise.comps and noise.is_zero()
    got, residual = basis.decompose(field + noise)
    assert got == coeffs and not residual.comps
    got, residual = basis.decompose(noise)
    assert not any(got) and not residual.comps
    off = pt.mul_scalar_field(pt.dr_tensor(n), pt.sphere_harmonic(n, j + 1))
    got, residual = basis.decompose(field + noise + off)
    assert got == coeffs and residual == off
    assert all(type(c) in (int, Fraction) and (type(c) is int
                                               or c.denominator != 1)
               for comp in residual.comps.values() for c in comp.values())


def test_exact_slice_inner_matches_general_path():
    rng = np.random.default_rng(5)
    for n, rank in [(3, 0), (4, 1), (4, 2), (5, 2)]:
        for _ in range(5):
            A = random_field(rng, n, rank).scaled(Fraction(2, 7))
            B = random_field(rng, n, rank) + random_field(
                rng, n, rank).scaled(Fraction(-3, 5))
            got = pt._slice_inner_exact(n, pt._integer_form(A),
                                        pt._integer_form(B))
            assert got == pt.slice_inner_reduced(A, B)
            assert got == naive_slice_inner(A, B)


def test_tensor_mode_basis_families():
    for n in (4, 6):
        assert len(pt.tensor_mode_basis(n, 0)) == 2
        assert len(pt.tensor_mode_basis(n, 1)) == 3   # Hessian family vanishes
        assert len(pt.tensor_mode_basis(n, 2)) == 4
        assert pt.tangential_traceless_hessian(n, 1).is_zero()
        basis = pt.tensor_mode_basis(n, 2)
        for el in basis.elements:
            assert el.is_radially_parallel()
        # the families are orthogonal, so the Gram matrix is diagonal and
        # positive definite exactly when every norm is positive
        assert len(basis.norms) == len(basis)
        assert all(norm > 0 for norm in basis.norms)


MODE_BASES = {"tensor": (pt.tensor_mode_basis, pt.dr_tensor),
              "oneform": (pt.oneform_mode_basis, pt.radial_form)}


@pytest.mark.parametrize("j", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [3, 4, 6])
@pytest.mark.parametrize("kind", sorted(MODE_BASES))
def test_decompose_reads_combinations_exactly(kind, n, j):
    make, radial = MODE_BASES[kind]
    shared = make(n, j)
    basis = pt.basis_from_elements(n, shared.elements, shared.labels)
    rng = np.random.default_rng(100 * n + j)
    coeffs = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
              for _ in basis.elements]
    field = pt.PolyTensor(n, shared.elements[0].rank)
    for c, T in zip(coeffs, basis.elements):
        field = field + T.scaled(c)
    # the same family at harmonic degree j + 1 is orthogonal to the basis
    off = pt.mul_scalar_field(radial(n), pt.sphere_harmonic(n, j + 1))
    for _ in range(2):  # the first pass fills the tables, the second reads
        got, residual = basis.decompose(field)
        assert got == coeffs
        assert not residual.comps
        got, residual = basis.decompose(field + off)
        assert got == coeffs
        assert residual.comps and residual == off
        for bad in (field.radial_scaled(1),
                    field + basis.elements[0].radial_scaled(-1)):
            with pytest.raises(ValueError, match="not radially parallel"):
                basis.decompose(bad)


def test_angular_basis_rejects_non_parallel_elements():
    el = pt.tensor_mode_seed(4, 1)
    with pytest.raises(ValueError, match="not radially parallel"):
        pt.AngularBasis(4, [el.radial_scaled(1)], ["r phi dr.dr"])


def test_basis_refuses_non_orthogonal_families():
    n, j = 4, 1
    phi = pt.sphere_harmonic(n, j)
    pair = [pt.tensor_mode_seed(n, j),
            pt.mul_scalar_field(pt.delta_metric(n), phi)]
    with pytest.raises(pt.ClosureError,
                       match="'phi dr.dr' and 'phi delta' are not orthogonal"):
        pt.basis_from_elements(n, pair, ["phi dr.dr", "phi delta"])
    with pytest.raises(pt.ClosureError, match="'zero' has zero norm"):
        pt.basis_from_elements(n, [pt.PolyTensor(n, 2)], ["zero"])


@pytest.mark.parametrize("n", range(3, 9))
def test_every_family_basis_is_orthogonal(n):
    # building a basis raises ClosureError on a nonzero cross product
    from conespec.mode_ode import _family

    for j in range(7):
        # the co-closed family "psi" starts at j = 1
        for kind in ("tensor", "forms", "phi") + ("psi",) * (j > 0):
            basis = _family(kind, n, j)
            assert len(basis.norms) == len(basis)
            assert all(norm > 0 for norm in basis.norms)


def test_triple_bar_closed_forms():
    n = 4
    c = pt.delta_metric(n)
    L = 3.0
    norm_c = float(pt.slice_inner_reduced(c, c)[0]) * math.pi ** (n // 2)
    assert abs(triple_bar_norm_sq(c, 1.0, L) - norm_c * math.log(L)) < 1e-10
    h = pt.dr_tensor(n).radial_scaled(2)  # r^2 times a unit parallel tensor
    ratio = triple_bar_norm_sq(h, L, L * L) / triple_bar_norm_sq(h, 1.0, L)
    assert abs(ratio - L ** 4) < 1e-8 * L ** 4


def test_triple_bar_scale_invariance():
    # <<h, h>> = c r^e gives |||h|||^2 on (a, a L) = a^e |||h|||^2 on (1, L)
    n = 4
    h = pt.tensor_mode_seed(n, 2).radial_scaled(Fraction(3, 2))
    (e,) = pt.slice_inner_reduced(h, h)
    assert e == 3
    L = 4.0
    rhs = triple_bar_norm_sq(h, 1.0, L)
    for a in (0.5, 2.0, 7.0):
        lhs = triple_bar_norm_sq(h, a, a * L)
        assert abs(lhs - a ** e * rhs) < 1e-9 * abs(a ** e * rhs)


def test_canonicalization_and_equality():
    n = 3
    # sum x_i^2 r^{-2} == 1
    a = pt.PolyTensor(n, 0)
    for i in range(n):
        alpha = tuple(2 if j == i else 0 for j in range(n))
        a.add_term((), alpha, -2, 1)
    b = pt.PolyTensor(n, 0)
    b.add_term((), (0,) * n, 0, 1)
    assert a == b
    assert (a - b).is_zero()
    assert not (a + b).is_zero()


def test_serialization_round_trip():
    rng = np.random.default_rng(15)
    T = random_field(rng, 4, 2)
    doc = json.loads(json.dumps(T.to_json()))
    back = pt.PolyTensor.from_json(doc)
    assert (T - back).is_zero()
