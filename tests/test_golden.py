"""Golden exact P(z): probed tensor mode systems must match a checked-in
fixture entry for entry (regenerate with tests/data/make_golden_modes.py
only when a change to P(z) is intended)."""

import json
import pathlib
from fractions import Fraction

import pytest

from conespec.mode_ode import tensor_mode_system

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_modes.json").read_text())


@pytest.mark.parametrize("cell", GOLDEN,
                         ids=[f"n{c['n']}k{c['k']}t{c['t']}j{c['j']}"
                              for c in GOLDEN])
def test_probed_system_matches_golden(cell):
    t = Fraction(cell["t"])
    if t.denominator == 1:
        t = int(t)  # integer t goes through the int path, as in the fixture
    _, op = tensor_mode_system(cell["n"], cell["k"], t, cell["j"])
    assert str(op.weight) == cell["weight"]
    assert op.order == cell["order"]
    assert [[[str(c) for c in entry] for entry in row] for row in op.P] \
        == cell["P"]
