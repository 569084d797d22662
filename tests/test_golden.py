"""Golden outputs: probed tensor mode systems must match a checked-in
fixture entry for entry (regenerate with tests/data/make_golden_modes.py
only when a change to P(z) is intended), the annulus records and kernel
draws must match golden_annulus.json exactly (regenerate with
tests/data/make_golden_annulus.py only when a change to them is
intended), and every ``apply`` opcode must reproduce golden_apply.json
(regenerate with tests/data/make_golden_apply.py only when a change to
an operator's output is intended)."""

import importlib.util
import json
import pathlib
from fractions import Fraction

import pytest

from conespec.mode_ode import tensor_mode_system

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_modes.json").read_text())
GOLDEN_ANNULUS = json.loads((DATA / "golden_annulus.json").read_text())
GOLDEN_APPLY = json.loads((DATA / "golden_apply.json").read_text())


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


def _generator(name):
    """A fixture's generator module, so the test rebuilds each record
    exactly as the fixture was written."""
    spec = importlib.util.spec_from_file_location(name, DATA / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _generator("make_golden_annulus")
GEN_APPLY = _generator("make_golden_apply")


@pytest.mark.parametrize("rec", GOLDEN_ANNULUS["annulus"],
                         ids=[f"{r['cell']} seed={r['seed']}"
                              for r in GOLDEN_ANNULUS["annulus"]])
def test_annulus_records_match_golden(rec):
    got = GEN.annulus_record(rec["cell"], tuple(rec["system"]), rec["seed"])
    assert json.dumps(got) == json.dumps(rec)


@pytest.mark.parametrize("rec", GOLDEN_ANNULUS["random"],
                         ids=[" ".join(map(str, r["system"]))
                              + f" seed={r['seed']}"
                              for r in GOLDEN_ANNULUS["random"]])
def test_mode_solution_random_matches_golden(rec):
    assert GEN.random_record(tuple(rec["system"][1:]), rec["seed"]) == rec


@pytest.mark.parametrize("op", sorted({r["op"]
                                       for r in GOLDEN_APPLY["records"]}))
def test_apply_matches_golden(op):
    assert GOLDEN_APPLY["fields"] == GEN_APPLY.FIELDS
    for rec in GOLDEN_APPLY["records"]:
        if rec["op"] == op:
            got = GEN_APPLY.record(op, rec["field"], rec["k"], rec["t"])
            assert got == rec
