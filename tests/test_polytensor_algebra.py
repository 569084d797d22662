"""Property tests for the exact PolyTensor algebra: canonical form,
slice inner products, the exactness of the operators and their agreement
with per-term references."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conespec import polytensor as pt
from field_reference import naive_slice_inner

COEFFS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
GAMMAS = st.integers(-4, 2)


@st.composite
def fields(draw, n=None, rank=None, max_terms=5, gammas=GAMMAS):
    n = draw(st.integers(3, 4)) if n is None else n
    rank = draw(st.integers(0, 2)) if rank is None else rank
    T = pt.PolyTensor(n, rank)
    for _ in range(draw(st.integers(0, max_terms))):
        idx = tuple(draw(st.integers(0, n - 1)) for _ in range(rank))
        alpha = tuple(draw(st.integers(0, 3)) for _ in range(n))
        T.add_term(idx, alpha, draw(gammas), draw(COEFFS))
    return T


@st.composite
def field_pairs(draw):
    n = draw(st.integers(3, 4))
    rank = draw(st.integers(0, 2))
    return draw(fields(n, rank)), draw(fields(n, rank))


def _exact(T):
    return all(type(c) in (int, Fraction)
               for comp in T.comps.values() for c in comp.values())


@settings(max_examples=60, deadline=None)
@given(fields())
def test_canonical_is_idempotent(T):
    once = T.canonical()
    assert once.canonical().comps == once.comps


@settings(max_examples=60, deadline=None)
@given(fields(), st.data())
def test_canonical_ignores_representation(T, data):
    """c x^alpha r^gamma and c x^alpha (sum_i x_i^2)^j r^(gamma - 2j) are
    the same field, so they share one canonical form."""
    terms = [(idx, key, c) for idx, comp in T.comps.items()
             for key, c in comp.items()]
    if not terms:
        return
    idx, (alpha, gamma), c = data.draw(st.sampled_from(terms))
    other = T.copy()
    other.add_term(idx, alpha, gamma, -c)
    pieces = [(alpha, gamma)]
    for _ in range(data.draw(st.integers(1, 2))):
        pieces = [(a[:i] + (a[i] + 2,) + a[i + 1:], g - 2)
                  for a, g in pieces for i in range(T.n)]
    for a, g in pieces:
        other.add_term(idx, a, g, c)
    assert other.canonical().comps == T.canonical().comps


@settings(max_examples=60, deadline=None)
@given(field_pairs())
def test_slice_inner_is_symmetric_and_matches_reference(pair):
    A, B = pair
    got = pt.slice_inner_reduced(A, B)
    assert got == pt.slice_inner_reduced(B, A)
    assert got == naive_slice_inner(A, B)


@settings(max_examples=40, deadline=None)
@given(fields(rank=2, max_terms=3), st.sampled_from(
    [0, 1, -2, Fraction(1, 20), Fraction(-3, 7)]), st.integers(1, 2))
def test_operators_on_exact_input_stay_exact(h, t, k):
    images = [pt.apply_operator(op, h, t=t, k=k)
              for op in ("laplacian", "div", "trace", "i_radial", "delta_t",
                         "gauged_lin", "bach_lin")]
    xi = pt.divergence(h)
    images += [pt.apply_operator(op, xi, t=t)
               for op in ("div_star", "lie", "div_lie_t")]
    images.append(pt.hessian(pt.trace2(h)))
    for image in images:
        assert _exact(image)
        assert _exact(image.canonical())


# -- per-term references: every image term re-inserted through add_term ------


def _ref_derivative(T, rank, place):
    """Sum over i of partial(T, i), each term re-inserted at the index
    place(i, idx), or dropped where place returns None."""
    out = pt.PolyTensor(T.n, rank)
    for i in range(T.n):
        for idx, comp in pt.partial(T, i).comps.items():
            target = place(i, idx)
            if target is not None:
                for (alpha, gamma), c in comp.items():
                    out.add_term(target, alpha, gamma, c)
    return out


def _ref_gradient(T):
    return _ref_derivative(T, T.rank + 1, lambda i, idx: (i,) + idx)


def _ref_divergence(T):
    return _ref_derivative(T, T.rank - 1,
                           lambda i, idx: idx[1:] if idx[0] == i else None)


def _ref_hessian(T):
    out = pt.PolyTensor(T.n, 2)
    for i in range(T.n):
        for j in range(T.n):
            d = pt.partial(pt.partial(T, j), i)
            for (alpha, gamma), c in d.comps.get((), {}).items():
                out.add_term((i, j), alpha, gamma, c)
    return out


def _ref_lie_flat(xi):
    out = pt.PolyTensor(xi.n, 2)
    for i in range(xi.n):
        for (j,), comp in pt.partial(xi, i).comps.items():
            for (alpha, gamma), c in comp.items():
                out.add_term((i, j), alpha, gamma, c)
                out.add_term((j, i), alpha, gamma, c)
    return out


def _ref_trace2(T):
    out = pt.PolyTensor(T.n, 0)
    for i in range(T.n):
        for (alpha, gamma), c in T.comps.get((i, i), {}).items():
            out.add_term((), alpha, gamma, c)
    return out


def _ref_radial_contraction(T):
    out = pt.PolyTensor(T.n, T.rank - 1)
    for idx, comp in T.comps.items():
        for (alpha, gamma), c in comp.items():
            bumped = list(alpha)
            bumped[idx[0]] += 1
            out.add_term(idx[1:], bumped, gamma - 2, c)
    return out


def _ref_products(A, B, rank, place):
    out = pt.PolyTensor(A.n, rank)
    for idx1, comp1 in A.comps.items():
        for idx2, comp2 in B.comps.items():
            for (a1, g1), c1 in comp1.items():
                for (a2, g2), c2 in comp2.items():
                    out.add_term(place(idx1, idx2),
                                 [x + y for x, y in zip(a1, a2)],
                                 g1 + g2, c1 * c2)
    return out


def _ref_mul_scalar_field(T, S):
    return _ref_products(T, S, T.rank, lambda idx, _: idx)


def _ref_tensor_outer(A, B):
    return _ref_products(A, B, 2, lambda idx1, idx2: idx1 + idx2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_operators_match_per_term_reference(data):
    """Each term-wise operator equals the same sum formed one image term at
    a time, term dicts and serialized coefficient types included."""
    n = data.draw(st.integers(3, 4))
    gammas = st.one_of(GAMMAS, st.builds(Fraction, st.integers(-7, 7),
                                         st.just(3)))
    T0, T1, T2, T3, S0, S1 = (data.draw(fields(n, rank, gammas=gammas))
                              for rank in (0, 1, 2, 3, 0, 1))
    pairs = [(pt.gradient(T), _ref_gradient(T)) for T in (T0, T1, T2)]
    pairs += [(pt.divergence(T), _ref_divergence(T)) for T in (T1, T2, T3)]
    pairs += [(pt.radial_contraction(T), _ref_radial_contraction(T))
              for T in (T1, T2, T3)]
    pairs += [(pt.mul_scalar_field(T, S0), _ref_mul_scalar_field(T, S0))
              for T in (T0, T1, T2)]
    pairs += [(pt.hessian(T0), _ref_hessian(T0)),
              (pt.lie_flat(T1), _ref_lie_flat(T1)),
              (pt.trace2(T2), _ref_trace2(T2)),
              (pt.tensor_outer(T1, S1), _ref_tensor_outer(T1, S1))]
    for got, want in pairs:
        assert got.rank == want.rank
        assert got.comps == want.comps
        assert got.to_json() == want.to_json()


def test_cancelled_component_is_dropped():
    h = pt.PolyTensor(3, 2)
    h.add_term((0, 0), (1, 0, 0), 0, 1)
    h.add_term((1, 1), (1, 0, 0), 0, -1)
    assert pt.trace2(h).comps == {}
