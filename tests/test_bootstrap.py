import json
import math
import pathlib

import pytest

from conespec import bootstrap
from conespec.bootstrap import (bootstrap_infinity, bootstrap_origin,
                                regularity_ladder, remainder_order)
from conespec.closed_form import ParameterError


def orders(state):
    return [h["order"] for h in state.history]


def test_remainder_order_examples():
    assert remainder_order(1, 0.3) == pytest.approx(4.6)
    assert remainder_order(2, 0.5) == pytest.approx(7.0)
    assert remainder_order(1, 0.5, regime="origin") == pytest.approx(-3.0)
    with pytest.raises(ParameterError):
        remainder_order(1, 0.0)


def test_remainder_law_is_load_bearing(monkeypatch):
    # the law is stated once: a pass that multiplies the order by 1.5 in
    # place of 2 changes both the induction and the source order
    monkeypatch.setattr(bootstrap, "remainder_field_order",
                        lambda order: 1.5 * order)
    assert orders(bootstrap_infinity(4, 1, 0.3)) == pytest.approx(
        [0.3, 0.45, 0.675, 1.0, 1.0125, 1.51875, 2.0, 2.0])
    assert remainder_order(1, 0.3) == pytest.approx(4.45)


def test_infinity_path_n4_k1():
    st = bootstrap_infinity(4, 1, 0.3)
    assert st.order == 2
    assert orders(st) == [0.3, 0.6, 1.0, 1.2, 2.0, 2.0]
    mechs = [h["mechanism"] for h in st.history]
    assert "divergence-free kill (degree-1 profile)" in mechs
    assert "log-profile kill (critical dimension)" in mechs


def test_infinity_terminal_values():
    assert bootstrap_infinity(6, 1, 0.5).order == 4
    st = bootstrap_infinity(6, 2, 0.4)
    assert st.order == 2
    assert any(h["mechanism"] == "log-profile kill (critical dimension)"
               for h in st.history)
    # already past the optimal order: immediate return
    st = bootstrap_infinity(4, 1, 3.0)
    assert st.order == 2 and len(st.history) == 1


def test_infinity_barrier_inventory_n8():
    st = bootstrap_infinity(8, 1, 0.3)
    assert st.order == 6
    kinds = {b[0]: b[1] for b in st.barriers}
    assert kinds[4].startswith("divergence-free kill (constant")
    assert kinds[5].startswith("divergence-free kill (degree-1")
    assert kinds[1].startswith("nonexceptional")


def test_origin_paths():
    st = bootstrap_origin(4, 1, 0.5)
    assert st.order == 2.0
    assert any(h["mechanism"] == "Lie pullback subtraction"
               for h in st.history)
    assert bootstrap_origin(6, 2, 0.3).order == 2.0
    st = bootstrap_origin(4, 1, 3.0)
    assert st.order == 2.0 and len(st.history) == 1  # already past target


@pytest.mark.parametrize("run,start", [(bootstrap_infinity, 1e-60),
                                       (bootstrap_origin, 5e-324)])
def test_tiny_start_reaches_terminal(run, start):
    # no pass limit: ceil(log2(2 / start)) doublings reach the terminal 2,
    # all but the last logged as a gain (5e-324 = 2^-1074 needs 1075)
    st = run(4, 1, start)
    assert st.order == st.terminal == 2
    gains = sum(h["mechanism"] == "remainder gain" for h in st.history)
    assert gains == math.ceil(-math.log2(start))


def test_ladder_examples():
    rec = regularity_ladder(4, 1)
    assert rec["p"] == math.inf
    assert rec["gap"] == 1.0
    rec = regularity_ladder(8, 2)
    assert rec["p"] == pytest.approx((1 - rec["eps"]) * 4)
    assert 0 < rec["gap"] <= 1
    assert len(rec["steps"]) == 7
    with pytest.raises(ParameterError):
        regularity_ladder(8, 3, eps=0.5)  # 0.5 >= 1/(2k-1) = 1/5


def test_ladder_gap_in_range_over_eps():
    for eps in (0.01, 0.05, 0.15):
        rec = regularity_ladder(8, 2, eps=eps)
        assert 0 < rec["gap"] <= 1


def test_invalid_parameters():
    with pytest.raises(ParameterError):
        bootstrap_infinity(5, 1, 0.3)
    with pytest.raises(ParameterError):
        bootstrap_infinity(4, 1, -0.1)
    with pytest.raises(ParameterError):
        bootstrap_origin(4, 1, 0.0)


GOLDEN = json.loads((pathlib.Path(__file__).parent / "data"
                     / "golden_bootstrap.json").read_text())


@pytest.mark.parametrize("rec", GOLDEN,
                         ids=[f"{r['regime']}-n{r['n']}k{r['k']}-{r['start']}"
                              for r in GOLDEN])
def test_induction_matches_golden(rec):
    # regenerate with tests/data/make_golden_bootstrap.py only when a change
    # to either induction is intended; the JSON text comparison also pins
    # the int terminal at infinity against the float one at the origin
    run = bootstrap_infinity if rec["regime"] == "infinity" else \
        bootstrap_origin
    st = run(rec["n"], rec["k"], rec["start"])
    got = {"regime": st.regime, "n": st.n, "k": st.k, "start": rec["start"],
           "terminal": st.terminal, "final_order": st.order,
           "barriers": st.barriers, "history": st.history}
    assert json.dumps(got) == json.dumps(rec)
