"""The library keeps only what it runs (ROADMAP aim 2: no unused
functions): every function, method and class that ``src/conespec``
defines is reached from library code outside ``__init__.py``, or is
allowlisted here with its reason.

The scan is by name: a function or class counts as reached when its bare
name occurs in the library as a name, an attribute or an identifier
string (such as an opcode looked up in a table).  A method (a ``def``
inside a class) counts as reached only through an attribute access
``<expr>.name`` or an identifier string: a bare local name does not reach
it, and neither does an attribute of ``rng``, ``np``, ``math`` or
``cmath``.  Dunder methods are reached by the language, and ``@_suite``
functions by ``verify.SUITES``."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "conespec"
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
# modules and generators whose attributes are never library methods
FOREIGN = {"rng", "np", "math", "cmath"}


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


def _definitions(body, prefix, in_class=False):
    """(qualified name, (bare name, is a method)) of every function,
    method and class defined in ``body``, nested ones included, less the
    exempt ones."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            is_class = isinstance(node, ast.ClassDef)
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not dunder and not _is_suite(node):
                yield name, (node.name, in_class and not is_class)
            yield from _definitions(node.body, name, is_class)


def _uses(tree):
    """(name, reaches methods) of every name, attribute and identifier
    string in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            base = node.value
            yield node.attr, not (isinstance(base, ast.Name)
                                  and base.id in FOREIGN)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, True


def _scan():
    """Every exempt-free definition of the library, qualified name to
    (bare name, is a method), and the names the library uses outside
    __init__.py: all of them, and those that reach methods."""
    defined, used, method_used = {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.update(_definitions(tree.body, path.stem))
        for name, reaches_methods in _uses(tree):
            used.add(name)
            if reaches_methods:
                method_used.add(name)
    return defined, used, method_used


def test_every_library_definition_is_reached():
    defined, used, method_used = _scan()
    unreached = sorted(
        q for q, (bare, is_method) in defined.items()
        if bare not in (method_used if is_method else used)
        and q not in ALLOWED)
    assert unreached == [], (
        "defined in src/conespec but reached only from tests or exports: "
        + ", ".join(unreached))


def test_every_allowlisted_name_is_defined():
    defined, _, _ = _scan()
    assert sorted(set(ALLOWED) - set(defined)) == []
