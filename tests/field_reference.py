"""Termwise references for the PolyTensor algebra, shared by the test
modules: each is written independently of the library's integer kernels."""

from conespec import polytensor as pt


def naive_slice_inner(A, B):
    """Reference slice inner product: form the pointwise product field,
    then integrate each of its terms over the sphere."""
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
