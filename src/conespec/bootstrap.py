"""Exponent-arithmetic engine for the decay-improvement inductions.

Pure bookkeeping at the level the decay statements live at: each pass
doubles the field order through the quadratic remainder of the gauged
equation (the remainder law, stated once in ``remainder_field_order``), the
expansion can only stall at integer exceptional degrees, and each such
barrier is removed by a finite-dimensional rigidity fact (divergence-free
homogeneous profiles vanish at the two critical degrees; linear profiles
are Lie derivatives and are flowed away near the origin).  The terminal
orders are n - 2k at infinity and 2 at an isolated singular point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .closed_form import ParameterError, validate_nk


def remainder_field_order(order):
    """The remainder law, stated once: one pass doubles the field order.

    A field of order ``order`` (|h| = O(r^{-order}) at infinity, O(r^{order})
    at the origin) has a quadratic remainder that, once the (k+1)-st
    Laplacian power is inverted, is a field of twice that order; the terms
    with more factors of h are smaller still.  ``_induct`` takes each next
    order from here, and ``remainder_order`` builds the source order on it.
    """
    return 2 * order


def remainder_order(k, h_order, regime="infinity"):
    """Order of the source produced by the quadratic remainder.

    At infinity, |h| = O(r^{-h_order}) makes the (k+1)-st Laplacian power of
    h a O(r^{-(2 h_order + 2(k+1))}) source; the origin regime mirrors the
    sign.  The doubling is ``remainder_field_order``'s; the inverted
    Laplacian power adds the 2(k+1).
    """
    if h_order <= 0:
        raise ParameterError("need h_order > 0")
    if regime == "infinity":
        return remainder_field_order(h_order) + 2 * (k + 1)
    if regime == "origin":
        return remainder_field_order(h_order) - 2 * (k + 1)
    raise ParameterError("regime must be 'infinity' or 'origin'")


@dataclass
class DecayState:
    """Current decay order plus the audit trail of the induction."""

    regime: str
    n: int
    k: int
    order: float
    strict: bool = False
    terminal: float = 0.0
    barriers: list = field(default_factory=list)
    history: list = field(default_factory=list)

    def log(self, order, mechanism, detail="", check=None):
        self.history.append({
            "step": len(self.history),
            "order": float(order),
            "strict": self.strict,
            "mechanism": mechanism,
            "detail": detail,
            "check": check,
        })


def _integer_barriers_infinity(n, k):
    """Integer decay orders in (0, n-2k), each as (order, mechanism, detail,
    check)."""
    terminal = n - 2 * k
    barriers = []
    for d in range(1, terminal):
        if n > 2 * (k + 1) and d == n - 2 * (k + 1):
            mechanism = "divergence-free kill (constant profile)"
            check = {"op": "divergence_free_nullspace", "mode": "degree0",
                     "n": n, "k": k}
        elif d == n - 2 * k - 1:
            mechanism = "divergence-free kill (degree-1 profile)"
            check = {"op": "divergence_free_nullspace", "mode": "degree1",
                     "n": n, "k": k}
        else:
            mechanism = "nonexceptional degree (no homogeneous solution)"
            check = None
        barriers.append((d, mechanism, "integer barrier crossed", check))
    return barriers


def _induct(regime, n, k, start, name, terminal, barriers, *, begun, past,
            attained, closing=None):
    """The decay induction shared by both regimes.

    From a finite ``start`` > 0 (the parameter ``name``), each pass takes
    the order to ``remainder_field_order`` of it (the remainder law: twice
    the order), capped at ``terminal``; every barrier (order, mechanism,
    detail, check) with current <= order < next is crossed and logged on
    the way.  On the terminal pass the optional ``closing`` record
    (mechanism, detail, check) is logged before the terminal one.  A
    finite positive order doubles per pass, so even the smallest positive
    double reaches any terminal order in about 1,080 passes.
    """
    validate_nk(n, k)
    if not 0 < start < math.inf:
        raise ParameterError(f"need finite {name} > 0")
    state = DecayState(regime, n, k, float(start), terminal=terminal)
    if start >= terminal:
        state.order = terminal
        state.log(terminal, "terminal", past)
        return state
    state.log(start, "start", begun)
    while True:
        nxt = min(remainder_field_order(state.order), terminal)
        for d, mechanism, detail, check in barriers:
            if state.order <= d < nxt:
                state.barriers.append((d, mechanism))
                state.log(d, mechanism, detail, check)
        if nxt == terminal:
            if closing:
                state.log(terminal, *closing)
            state.order = terminal
            state.strict = False
            state.log(terminal, "terminal", attained)
            return state
        state.order = nxt
        state.strict = True
        state.log(nxt, "remainder gain",
                  "source order doubles the field order")


def bootstrap_infinity(n, k, beta0):
    """Iterate the decay order at infinity from beta0 to exactly n - 2k.

    Each pass doubles the order via the remainder gain; integer barriers
    in the path are crossed by the recorded rigidity mechanism.  In the
    critical dimension the log profile is excluded at the terminal step.
    """
    closing = None
    if n == 2 * (k + 1):
        closing = ("log-profile kill (critical dimension)",
                   "divergence-free log profile vanishes",
                   {"op": "divergence_free_nullspace", "mode": "log",
                    "n": n, "k": k})
    return _induct("infinity", n, k, beta0, "beta0", n - 2 * k,
                   _integer_barriers_infinity(n, k),
                   begun="initial decay order",
                   past="already at or past the optimal order",
                   attained="optimal order attained", closing=closing)


def bootstrap_origin(n, k, sigma0):
    """Iterate the vanishing order at an isolated point from sigma0 to 2.

    The only barrier is the linear degree, removed by writing the linear
    profile as the Lie derivative of a quadratic field and pulling back by
    its time-1 flow (error quadratic in the radius).
    """
    lie = (1, "Lie pullback subtraction",
           "linear profile = Lie derivative of a quadratic field; "
           "time-1 flow pullback leaves a quadratic error",
           {"op": "quadratic_lie_isomorphism", "n": n})
    return _induct("origin", n, k, sigma0, "sigma0", 2.0, [lie],
                   begun="initial vanishing order",
                   past="already at or past quadratic order",
                   attained="quadratic order attained")


def regularity_ladder(n, k, eps=None):
    """Integrability-exponent ladder for the smoothness endgame.

    Chooses p = infinity when k = 1 and p = (1 - eps) n / (2(k-1)) with
    0 < eps < 1/(2k-1) otherwise, verifies 0 < 2k - 1 - n/p <= 1, and
    emits the chain of claimed memberships with each step's mechanism.
    """
    validate_nk(n, k)
    if k == 1:
        p = math.inf
        gap = 1.0
        eps_used = None
    else:
        eps_used = eps if eps is not None else 1.0 / (2 * (2 * k - 1))
        if not 0 < eps_used < 1.0 / (2 * k - 1):
            raise ParameterError(
                f"eps must lie in (0, {1.0 / (2 * k - 1):.6g})")
        p = (1 - eps_used) * n / (2 * (k - 1))
        gap = 2 * k - 1 - n / p
    if not 0 < gap <= 1:
        raise ParameterError("integrability gap left (0, 1]")  # pragma: no cover
    steps = [
        {"claim": "Ric in W^{2k,p}",
         "mechanism": "weak solution of the flat Laplacian-power equation "
                      "with L^p source"},
        {"claim": "Ric in C^{1,alpha}",
         "mechanism": "Sobolev embedding with alpha < 2k - 1 - n/p"},
        {"claim": "g in C^{2,alpha}",
         "mechanism": "elliptic regularity for the metric equation in "
                      "harmonic coordinates"},
        {"claim": "g in C^{3,alpha}",
         "mechanism": "Ricci regularity upgrade in harmonic coordinates"},
        {"claim": "Ric in W^{2k+1,p}",
         "mechanism": "differentiated source stays in L^p"},
        {"claim": "Ric in C^{2,alpha}",
         "mechanism": "Sobolev embedding"},
        {"claim": "g in C^{4,alpha}",
         "mechanism": "elliptic regularity; iterate to smoothness"},
    ]
    return {"n": n, "k": k, "p": p, "eps": eps_used, "gap": gap,
            "alpha_max": gap, "steps": steps}
