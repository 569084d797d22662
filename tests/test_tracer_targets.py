"""The benchmark tracer (perfbench/tracer.py) binds library names and call
arguments; a refactor that renames one breaks traced benchmark runs only.
These tests import the tracer as it is and check its bindings."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(modname, attr):
    owner = importlib.import_module("conespec." + modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_target_resolves(tracer):
    for modname, attr in tracer.TARGETS:
        assert callable(_resolve(modname, attr)), (modname, attr)


def test_bound_hooks_keep_the_parameters_the_tracer_reads(tracer):
    # the argument names each hook of Tracer._call / Tracer._after reads
    wanted = {tracer.PROBE: {"basis", "order", "probe_degrees", "holdout"},
              tracer.SCAN: {"n", "k", "t_values", "j_max", "jobs"},
              "mode_ode.tensor_mode_system": {"n", "k", "j"},
              "mode_ode.scalar_mode_system": {"n", "k", "s"}}
    assert set(tracer.BOUND_ARGS) == set(wanted)
    for name in tracer.BOUND_ARGS:
        params = inspect.signature(_resolve(*name.split(".", 1))).parameters
        assert wanted[name] <= set(params), name

