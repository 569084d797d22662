"""Property tests for the exact PolyTensor algebra: canonical form,
slice inner products and the exactness of the operators."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conespec import polytensor as pt

COEFFS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def fields(draw, n=None, rank=None, max_terms=5):
    n = draw(st.integers(3, 4)) if n is None else n
    rank = draw(st.integers(0, 2)) if rank is None else rank
    T = pt.PolyTensor(n, rank)
    for _ in range(draw(st.integers(0, max_terms))):
        idx = tuple(draw(st.integers(0, n - 1)) for _ in range(rank))
        alpha = tuple(draw(st.integers(0, 3)) for _ in range(n))
        T.add_term(idx, alpha, draw(st.integers(-4, 2)), draw(COEFFS))
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


def _naive_slice_inner(A, B):
    """Reference: form the pointwise product field, then integrate each of
    its terms over the sphere."""
    product = pt.PolyTensor(A.n, 0)
    for idx, compA in A.comps.items():
        for (a1, g1), c1 in compA.items():
            for (a2, g2), c2 in B.comps.get(idx, {}).items():
                product.add_term((), tuple(x + y for x, y in zip(a1, a2)),
                                 g1 + g2, c1 * c2)
    out = {}
    for (alpha, gamma), c in product.comps.get((), {}).items():
        expo = gamma + sum(alpha)
        out[expo] = out.get(expo, 0) + c * pt.sphere_moment_reduced(A.n, alpha)
    return {e: v for e, v in out.items() if v != 0}


@settings(max_examples=60, deadline=None)
@given(field_pairs())
def test_slice_inner_is_symmetric_and_matches_reference(pair):
    A, B = pair
    got = pt.slice_inner_reduced(A, B)
    assert got == pt.slice_inner_reduced(B, A)
    assert got == _naive_slice_inner(A, B)


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
