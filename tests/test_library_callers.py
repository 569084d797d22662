"""The library keeps only what it runs (ROADMAP aim 2: no unused
functions): every function, method and class that ``src/conespec``
defines is reached from library code outside ``__init__.py``, or is
allowlisted here with its reason.

The scan is by name: a definition counts as reached when its bare name
occurs in the library as a name, an attribute or an identifier string
(such as an opcode looked up in a table).  Dunder methods are reached by
the language, and ``@_suite`` functions by ``verify.SUITES``."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "conespec"
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


ALLOWED = {f"{modname}.{attr}": "perfbench/tracer.py wraps it by name"
           for modname, attr in _tracer_targets()}
ALLOWED["bootstrap.remainder_order"] = "public API that README documents"
ALLOWED["polytensor.PolyTensor.evaluate"] = (
    "the float view of a field, the oracle direction 25 plans on")


def _is_suite(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "_suite" for d in node.decorator_list)


def _definitions(body, prefix):
    """(qualified name, bare name) of every function, method and class
    defined in ``body``, nested ones included, less the exempt ones."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not dunder and not _is_suite(node):
                yield name, node.name
            yield from _definitions(node.body, name)


def _uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value


def _scan():
    """Every exempt-free definition of the library, qualified name to bare
    name, and every name the library uses outside __init__.py."""
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.update(_definitions(tree.body, path.stem))
        used.update(_uses(tree))
    return defined, used


def test_every_library_definition_is_reached():
    defined, used = _scan()
    unreached = sorted(q for q, bare in defined.items()
                       if bare not in used and q not in ALLOWED)
    assert unreached == [], (
        "defined in src/conespec but reached only from tests or exports: "
        + ", ".join(unreached))


def test_every_allowlisted_name_is_defined():
    defined, _ = _scan()
    assert sorted(set(ALLOWED) - set(defined)) == []
