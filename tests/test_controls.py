"""Mutation controls for verify-all.

Each mutant is one monkeypatch that makes a library function or constant
wrong.  A mutant lists the suites that must fail under it at
``verify-all --seed 42 --scale 0.02``; a suite fails when it reports FAIL
or raises an error that verify-all reports with exit code 3.  A mutant
that lists none is a known survivor: every suite passes under it, so it
carries a witness (library output that the mutant changes, which shows
the mutant is wrong) and the ROADMAP stage that is to kill it.  Once a
suite kills a survivor, its test fails and the entry must move.  A suite
that no mutant kills is on EXEMPT, with its reason and ROADMAP stage.

The memo caches are cleared around every mutant, so every suite reads
the mutant and no later test reads its results.
"""

import dataclasses
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
import pytest

from conespec import bootstrap as bs
from conespec import closed_form as cf
from conespec import expsum as es
from conespec import flat_kernel as fk
from conespec import linalg
from conespec import mode_ode as mo
from conespec import polytensor as pt
from conespec import turan_constants as tc
from conespec import verify
from conespec.linalg import poly_shift, poly_trim

SEED = 42
SCALE = 0.02


@dataclass(frozen=True)
class Mutant:
    patch: Callable  # patch(monkeypatch)
    kills: tuple = ()
    witness: Callable = None  # survivors only
    stage: str = ""  # survivors only: why none kills it, and what will


def _wrap(mp, module, name, mutate):
    """Replace module.name by mutate(original, *args)."""
    original = getattr(module, name)
    mp.setattr(module, name, lambda *a, **kw: mutate(original, *a, **kw))


def _set(module, name, value):
    return lambda mp: mp.setattr(module, name, value)


# -- bootstrap --------------------------------------------------------------


def _constant_barrier_one_order_up(mp):
    _wrap(mp, bs, "_integer_barriers_infinity", lambda f, n, k: [
        (d + 1 if d == n - 2 * (k + 1) else d, *rest)
        for d, *rest in f(n, k)])


def _barriers_ignored(mp):
    original = bs._induct
    mp.setattr(bs, "_induct", lambda *a, **kw: original(*a[:6], [], **kw))


def _barriers(n, k):
    return lambda: bs.bootstrap_infinity(n, k, 0.3).barriers


# -- expsum and the Turan constants -----------------------------------------


def _shift_without_binomial_mixing(mp):
    def shifted(self, c):
        return es.TermTable.from_parts(
            [(self.coeff * np.exp(self.exponent * c), self.exponent,
              self.power, self.row)], self.rows)
    mp.setattr(es.TermTable, "shifted", shifted)


def _turan_constants_times_100(mp):
    for name in ("discrete_constant", "integral_constant", "sup_constant",
                 "l2l2_constant", "three_interval_constant"):
        _wrap(mp, tc, name, lambda f, *a: f(*a) * 100)


def _turan_constants():
    return [float(c) for c in (
        tc.discrete_constant(2, 3), tc.integral_constant(2, 0.5, 1.0),
        tc.sup_constant(2), tc.l2l2_constant(2),
        tc.three_interval_constant(2))]


# -- closed forms -----------------------------------------------------------


def _largest_gauge_value_dropped(mp):
    _wrap(mp, cf, "gauge_exceptional_values", lambda f, n, j_max:
          dataclasses.replace(E := f(n, j_max), values=E.values[:-1]))


def _typeI_rates_t_flipped(mp):
    # the roots of z^2 + (n-4-t) z - (mu - 2t) with -2nt read as +2nt in
    # the discriminant: the polynomial q(z - t; -t)
    _wrap(mp, cf, "modified_kernel_polynomial", lambda f, n, t, family, j:
          poly_shift(f(n, -t, family, j), -t) if family == "typeI"
          else f(n, t, family, j))


def _largest_typeII_root_dropped(mp):
    # the type II polynomial rebuilt from its float roots less the largest
    def dropped(original, n, t, family, j):
        p = original(n, t, family, j)
        if family != "typeII":
            return p
        roots = sorted(np.roots([float(c) for c in reversed(p)]),
                       key=lambda z: (z.real, z.imag))[:-1]
        return [p[-1] * Fraction(c) for c in reversed(np.poly(roots).real)]
    _wrap(mp, cf, "modified_kernel_polynomial", dropped)


def _polyharmonic_gap_too_wide(mp):
    # for n > 2(k+1) the excluded gap also takes 2(k+1) - n
    def wider(original, n, k, **kw):
        E = original(n, k, **kw)
        return dataclasses.replace(E, values=[
            v for v in E.values if E.full_lattice or v != 2 * (k + 1) - n])
    _wrap(mp, cf, "polyharmonic_exceptional_values", wider)


def _scalar_roots_off_by_one(mp):
    _wrap(mp, cf, "scalar_indicial_roots", lambda f, n, k, s: {
        z + 1: mult for z, mult in f(n, k, s).items()})


# -- flat kernel ------------------------------------------------------------


def _last_row_dropped(system):
    # the reader's rows lose their last one on the system that
    # system(op, fields) picks out
    def patch(mp):
        def drop(f, op, fields):
            rows = f(op, fields)
            if system(op, fields):
                del rows[list(rows)[-1]]
            return rows
        _wrap(mp, fk, "operator_rows", drop)
    return patch


def _constant_profile(op, fields):
    return op == "div" and not any(
        any(alpha) for f in fields for comp in f.comps.values()
        for alpha, _ in comp)


def _degree1_factor_n(mp):
    # the homogeneity factor n - 2k of the degree-1 condition read as n:
    # the degree-1 candidates at radial power -n, the k = 0 case
    _wrap(mp, fk, "_profile_fields", lambda f, n, k, mode: f(
        n, 0 if mode == "degree1" else k, mode))


def _flow_form_without_lie_term(mp):
    def no_lie(x_field):
        X = fk._integer_field(x_field)
        form = pt.PolyTensor(X.n, 2)
        for comp in X.comps.values():
            dXi = pt.gradient(pt.PolyTensor(X.n, 0, {(): dict(comp)}))
            form = form + pt.outer(dXi, dXi)
        return form
    mp.setattr(fk, "flow_defect_form", no_lie)


# -- symbols ----------------------------------------------------------------


def _symbol_one_power_too_many(mp):
    _wrap(mp, pt, "bach_lin", lambda f, h, k=1: pt.laplacian(f(h, k)))


def _bach_hess_trace_without_laplacian(mp):
    # -1/(2(n-1)(n-2)) Hess(tr h) in place of Hess(Delta tr h): tr h_B =
    # 2/r^2 is harmonic on R^4, but its Hessian is not 0
    def changed(original, h, k=1):
        tr = pt.trace2(h)
        diff = pt.hessian(pt.laplacian(tr)) - pt.hessian(tr)
        return original(h, k) + pt.laplacian(diff, k - 1).scaled(
            Fraction(1, 2 * (h.n - 1) * (h.n - 2)))
    _wrap(mp, pt, "bach_lin", changed)


def _bach_hess_div_div_doubled(mp):
    # -1/(n-1) Hess(div div h) in place of -1/(2(n-1)) Hess(div div h);
    # the term vanishes on h_B and h_1, not on the gauge-shifted h_B
    def doubled(original, h, k=1):
        hess = pt.hessian(pt.divergence(pt.divergence(h)))
        return original(h, k) - pt.laplacian(hess, k - 1).scaled(
            Fraction(1, 2 * (h.n - 1)))
    _wrap(mp, pt, "bach_lin", doubled)


def _symbol_divstar_sign(mp):
    # adds the adjoint-divergence term back twice: its sign flipped
    def flipped(original, h, k=1):
        twice = pt.laplacian(pt.div_star(pt.divergence(h)), k)
        return original(h, k) + twice.scaled(Fraction(2, h.n - 2))
    _wrap(mp, pt, "bach_lin", flipped)


# -- linalg -----------------------------------------------------------------


def _poly_det_unbalanced_digits(mp):
    # poly_det reading each base-2^s digit as d = v & mask, in [0, 2^s):
    # a negative coefficient reads as itself plus 2^s, and the next one as
    # itself minus 1
    def unbalanced(rows):
        s = (2 * math.prod(sum(abs(c) for p in row for c in p)
                           for row in rows)).bit_length()
        v = linalg.det_dense([[sum(c << s * i for i, c in enumerate(p))
                               for p in row] for row in rows])
        degree = sum(max(len(p) for p in row) - 1 for row in rows)
        return poly_trim([v >> s * i & (1 << s) - 1
                          for i in range(degree + 1)])
    for module in (linalg, mo, tc):
        mp.setattr(module, "poly_det", unbalanced)


# -- polytensor -------------------------------------------------------------


def _lie_flat_without_transpose(mp):
    mp.setattr(pt, "lie_flat", lambda xi: pt.gradient(xi).scaled(2))


# The three statements below are read by the fields and by the mode
# systems alike, so each mutant reaches both.


def _gauge_op_through_div_star(mp):
    # gauge_op is gauge_op_t at t = 0, and the gauge mode systems read it
    mp.setattr(pt, "gauge_op_t", lambda xi, t: pt.div_t(pt.div_star(xi), t))


def _div_t_sign(mp):
    mp.setattr(pt, "div_t", lambda T, t: T.ops.divergence(T)
               + T.ops.radial_contraction(T).scaled(t))


def _gauged_lin_t_sign(mp):
    _wrap(mp, pt, "gauged_lin", lambda f, h, k, t: f(h, k, -Fraction(t)))


def _gauged_lin_at_t():
    return pt.gauged_lin(pt.tensor_mode_seed(4, 2), 1, Fraction(1, 10))


def _moment_double_factorial_off(mp):
    # (alpha_1 + 1)!! in place of (alpha_1 - 1)!!
    _wrap(mp, pt, "_odd_factorial_product", lambda f, alpha: f(
        (alpha[0] + 2, *alpha[1:])))


def _tensor_basis_family_dropped(mp):
    def dropped(original, n, j):
        basis = original(n, j)
        return pt.basis_from_elements(n, basis.elements[:-1],
                                      basis.labels[:-1])
    _wrap(mp, pt, "tensor_mode_basis", dropped)


# -- mode systems -----------------------------------------------------------


def _indicial_root_moved(mp):
    def moved(original, op):
        spec = original(op)
        first, *rest = spec.roots
        roots = [mo.RootData(first.value + 1e-3, first.multiplicity), *rest]
        return dataclasses.replace(spec, roots=roots)
    _wrap(mp, mo, "indicial_spectrum", moved)


def _l0_always_1_25(mp):
    _wrap(mp, mo, "empirical_l0", lambda f, *a, **kw: {**f(*a, **kw),
                                                       "L0": 1.25})


def _annulus_failures_below_l0():
    _, op = mo.tensor_mode_system(4, 1, Fraction(0), 1)
    spec = mo.indicial_spectrum(op)
    return mo.three_annulus_verify(spec, 0.45 * spec.beta, 1.01,
                                   trials=10)["failures"]


def _split_minus_takes_plus(mp):
    _wrap(mp, mo, "solution_split", lambda f, sol: {
        **f(sol), "h_minus": sol.restricted({"plus", "minus"})})


BARRIER_STAGE = ("barrier_mechanisms_verified checks only the barrier "
                 "records present; direction 8 stage 2 derives the barrier "
                 "list from the exact spectra")
LOOSE_STAGE = ("an upper-bound sweep cannot see a bound that is too loose; "
               "direction 11 stage 3 gives each sweep an attained ratio")

MUTANTS = {
    "remainder law: a pass multiplies the order by 1.5": Mutant(
        _set(bs, "remainder_field_order", lambda order: 1.5 * order),
        witness=lambda: bs.bootstrap_infinity(4, 1, 0.3).history,
        stage="no suite reads the law; direction 22 gives it an "
              "oracle that does not restate it"),
    "no integer barriers at infinity": Mutant(
        _set(bs, "_integer_barriers_infinity", lambda n, k: []),
        witness=_barriers(8, 1), stage=BARRIER_STAGE),
    "constant-profile barrier one order up": Mutant(
        _constant_barrier_one_order_up, witness=_barriers(8, 1),
        stage=BARRIER_STAGE),
    "the induction ignores every barrier": Mutant(
        _barriers_ignored, witness=_barriers(8, 1), stage=BARRIER_STAGE),
    "T_d(m)^2 four times too small": Mutant(
        lambda mp: _wrap(mp, tc, "discrete_constant",
                         lambda f, d, m: f(d, m) // 4),
        kills=("expsum.discrete_inequality_sweep",)),
    "integral constant four times too small": Mutant(
        lambda mp: _wrap(mp, tc, "integral_constant",
                         lambda f, d, a, b: f(d, a, b) / 4),
        kills=("expsum.integral_inequality_sweep",)),
    "three-interval constant 100 times too small": Mutant(
        lambda mp: _wrap(mp, tc, "three_interval_constant",
                         lambda f, index: f(index) / 100),
        kills=("expsum.three_interval_sweep",)),
    "TermTable.shifted without binomial mixing": Mutant(
        _shift_without_binomial_mixing, kills=("expsum.shift_covariance",)),
    "every Turan constant x 100": Mutant(
        _turan_constants_times_100, witness=_turan_constants,
        stage=LOOSE_STAGE),
    "TURAN_SLACK = 10": Mutant(
        _set(es, "TURAN_SLACK", 10), witness=lambda: es.TURAN_SLACK,
        stage=LOOSE_STAGE),
    "ANNULUS_SLACK = 10": Mutant(
        _set(mo, "ANNULUS_SLACK", 10), witness=_annulus_failures_below_l0,
        stage=LOOSE_STAGE),
    "largest gauge exceptional value dropped": Mutant(
        _largest_gauge_value_dropped,
        kills=("closed_form.rate_relations_exact",)),
    "type I rates with the t-term of the discriminant flipped": Mutant(
        _typeI_rates_t_flipped,
        kills=("closed_form.rotation_rate_identity",
               "closed_form.rates_match_probed_spectra",
               "mode_ode.probed_systems_match_displays")),
    "largest type II root dropped": Mutant(
        _largest_typeII_root_dropped,
        kills=("closed_form.modified_rates_match_base_at_t0",
               "closed_form.rates_match_probed_spectra")),
    "rotation root divided out as z = 3": Mutant(
        lambda mp: mp.setitem(cf.RIGID_ROOTS, ("typeI", 1), 3),
        kills=("closed_form.modified_rates_match_base_at_t0",
               "closed_form.rotation_rate_identity")),
    "polyharmonic gap one too wide": Mutant(
        _polyharmonic_gap_too_wide, kills=("closed_form.exceptional_rules",)),
    "scalar indicial roots off by one": Mutant(
        _scalar_roots_off_by_one,
        kills=("closed_form.scalar_roots_kill_fields",
               "mode_ode.divfree_spectrum_matches_scalar_roots")),
    "constant-profile divergence loses its last row": Mutant(
        _last_row_dropped(_constant_profile),
        kills=("flat_kernel.divergence_free_rigidity",
               "bootstrap.barrier_mechanisms_verified")),
    "degree-1 divergence factor n in place of n - 2k": Mutant(
        _degree1_factor_n,
        kills=("flat_kernel.divergence_free_rigidity",
               "bootstrap.barrier_mechanisms_verified")),
    "quadratic Lie map loses its last row": Mutant(
        _last_row_dropped(lambda op, fields: op == "lie"),
        kills=("flat_kernel.quadratic_lie_isomorphism",)),
    "flow defect form without its Lie term": Mutant(
        _flow_form_without_lie_term,
        kills=("flat_kernel.flow_error_quadratic",)),
    "obstruction symbol with one Laplacian power too many": Mutant(
        _symbol_one_power_too_many,
        kills=("symbols.gauge_invariance_and_reduction",
               "symbols.two_block_assembly")),
    "bach_lin's Hess(div div h) coefficient doubled": Mutant(
        _bach_hess_div_div_doubled,
        kills=("symbols.gauge_invariance_and_reduction",
               "symbols.two_block_assembly",
               "polytensor.ale_witnesses")),
    "obstruction symbol's adjoint-divergence sign flipped": Mutant(
        _symbol_divstar_sign,
        kills=("symbols.gauge_invariance_and_reduction",
               "symbols.two_block_assembly")),
    "bach_lin's Hess(Delta tr h) term without its Laplacian": Mutant(
        _bach_hess_trace_without_laplacian,
        kills=("symbols.gauge_invariance_and_reduction",
               "symbols.two_block_assembly",
               "polytensor.ale_witnesses")),
    "poly_det reads unbalanced digits": Mutant(
        _poly_det_unbalanced_digits,
        kills=("expsum.integral_inequality_sweep",
               "expsum.three_interval_sweep",
               "expsum.shift_covariance",
               "closed_form.rates_match_probed_spectra",
               "mode_ode.divfree_spectrum_matches_scalar_roots",
               "mode_ode.split_direct_sum",
               "mode_ode.three_annulus_dichotomy")),
    "lie_flat without the transpose": Mutant(
        _lie_flat_without_transpose,
        kills=("closed_form.rates_match_probed_spectra",
               "flat_kernel.flow_error_quadratic",
               "polytensor.polar_gauge_formula",
               "polytensor.kernel_elements_exact",
               "mode_ode.probed_systems_match_displays",
               "mode_ode.multiplicity_and_beta",
               "mode_ode.split_direct_sum",
               "mode_ode.degenerate_scan_small")),
    "gauge_op through div_star": Mutant(
        _gauge_op_through_div_star,
        kills=("polytensor.polar_gauge_formula",
               "mode_ode.probed_systems_match_displays")),
    "div_t's t-term sign flipped": Mutant(
        _div_t_sign,
        kills=("closed_form.rates_match_probed_spectra",
               "mode_ode.probed_systems_match_displays")),
    "gauged_lin's t-term sign flipped": Mutant(
        _gauged_lin_t_sign, witness=_gauged_lin_at_t,
        stage="gauged_lin and tensor_mode_system read one statement, so a "
              "wrong t-term is wrong in both and direction 20's kernel "
              "fields cannot see it; direction 2 does, since the flipped "
              "det P at (4, 1, 2), t = 1/10 is not divisible by the "
              "closed-form K(z + 2; t)"),
    "sphere moments with a wrong double factorial": Mutant(
        _moment_double_factorial_off,
        kills=("polytensor.sphere_moment_recursion",
               "polytensor.radially_parallel_inner_products",
               "mode_ode.probed_systems_match_displays")),
    "tensor_mode_basis loses its last family": Mutant(
        _tensor_basis_family_dropped,
        kills=("mode_ode.multiplicity_and_beta",
               "mode_ode.divfree_spectrum_matches_scalar_roots",
               "mode_ode.split_direct_sum",
               "mode_ode.three_annulus_dichotomy",
               "mode_ode.degenerate_scan_small")),
    "an indicial root moved by 1e-3": Mutant(
        _indicial_root_moved,
        kills=("mode_ode.divfree_spectrum_matches_scalar_roots",
               "mode_ode.split_direct_sum",
               "mode_ode.three_annulus_dichotomy")),
    "empirical L0 always 1.25": Mutant(
        _l0_always_1_25, kills=("mode_ode.three_annulus_dichotomy",)),
    "solution_split puts growth rows in h_minus": Mutant(
        _split_minus_takes_plus, kills=("mode_ode.split_direct_sum",)),
}

EXEMPT = {
    "bootstrap.terminal_orders":
        "checks that an induction capped at its terminal order ends there; "
        "direction 8 stage 4 replaces it with a decaying solution at the "
        "optimal rate",
}


def clear_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("conespec"):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def failing(names):
    """The suites among ``names`` that fail at SEED and SCALE."""
    out = []
    for fn in verify.SUITES:
        if fn.suite_name in names:
            try:
                passed = fn(seed=SEED, scale=SCALE)["passed"]
            except (es.NumericError, ArithmeticError):
                passed = False
            if not passed:
                out.append(fn.suite_name)
    return out


@pytest.fixture
def mutate(monkeypatch):
    clear_caches()
    yield lambda mutant: mutant.patch(monkeypatch)
    monkeypatch.undo()
    clear_caches()


ALL = [fn.suite_name for fn in verify.SUITES]
KILLERS = [name for name, m in MUTANTS.items() if m.kills]
SURVIVORS = [name for name, m in MUTANTS.items() if not m.kills]


@pytest.mark.parametrize("name", KILLERS)
def test_mutant_is_killed(mutate, name):
    mutant = MUTANTS[name]
    assert set(mutant.kills) <= set(ALL)
    mutate(mutant)
    assert failing(mutant.kills) == [s for s in ALL if s in mutant.kills]


@pytest.mark.parametrize("name", SURVIVORS)
def test_known_survivor(mutate, name):
    mutant = MUTANTS[name]
    assert mutant.stage and mutant.witness
    before = mutant.witness()
    mutate(mutant)
    assert mutant.witness() != before  # the mutant is wrong
    # when a suite starts failing here, list it in the mutant's kills
    assert failing(ALL) == []


def test_every_suite_is_killed_or_exempt():
    killed = {s for m in MUTANTS.values() for s in m.kills}
    assert not killed & set(EXEMPT)  # a killed suite leaves EXEMPT
    assert sorted(set(ALL) - killed) == sorted(EXEMPT)
