"""The library keeps only what it runs (ROADMAP aim 2: no unused
functions): every function, method and class that ``src/conespec``
defines is reached from library code outside ``__init__.py``, or is
allowlisted here with its reason.

The scan is by name: a function or class counts as reached when its bare
name occurs in the library as a name, an attribute or an identifier
string (such as an opcode looked up in a table).  A method (a ``def``
inside a class K) counts as reached only through an attribute access
``<base>.name`` whose base can be K: ``self`` or ``cls`` inside K, a
base that ends in the name K (``K.name``, ``mo.K.name``), or any other
base that is neither a class name nor one of ``rng``, ``np``, ``math``
and ``cmath`` (a duck-typed call such as ``x.ops.outer``).  A bare local
name or an identifier string does not reach a method; no library
``getattr`` looks one up by string.  Dunder methods are reached by the
language, and ``@_suite`` functions by ``verify.SUITES``."""

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


def _definitions(body, prefix, owner=None):
    """(qualified name, (bare name, the class of a method or None)) of
    every function, method and class defined in ``body``, nested ones
    included, less the exempt ones."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            is_class = isinstance(node, ast.ClassDef)
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not dunder and not _is_suite(node):
                yield name, (node.name, None if is_class else owner)
            yield from _definitions(node.body, name,
                                    node.name if is_class else None)


def _last_name(node):
    """The name an attribute base ends in, or None."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _uses(node, classes, names, methods, owner=None):
    """Add to ``names`` the names that ``node`` uses, and to ``methods``
    the (class, method) pairs it reaches, with class None for a
    duck-typed access; ``owner`` is the innermost enclosing class and
    ``classes`` every class name."""
    if isinstance(node, ast.ClassDef):
        owner = node.name
    elif isinstance(node, ast.Name):
        names.add(node.id)
    elif isinstance(node, ast.Attribute):
        names.add(node.attr)
        base = _last_name(node.value)
        if base in ("self", "cls") and owner is not None:
            methods.add((owner, node.attr))
        elif base in classes:
            methods.add((base, node.attr))
        elif base not in FOREIGN:
            methods.add((None, node.attr))
    elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
          and node.value.isidentifier()):
        names.add(node.value)
    for child in ast.iter_child_nodes(node):
        _uses(child, classes, names, methods, owner)


def _library():
    """The library's modules outside __init__.py, stem to source."""
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))
            if path.name != "__init__.py"}


def _unreached(modules):
    """The qualified names of the definitions in ``modules`` (stem to
    source) that nothing in them reaches and ALLOWED does not name."""
    trees = {stem: ast.parse(text) for stem, text in modules.items()}
    defined = {}
    for stem, tree in trees.items():
        defined.update(_definitions(tree.body, stem))
    classes = {node.name for tree in trees.values()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    names, methods = set(), set()
    for tree in trees.values():
        _uses(tree, classes, names, methods)
    return sorted(
        q for q, (bare, owner) in defined.items()
        if not (bare in names if owner is None
                else {(owner, bare), (None, bare)} & methods)
        and q not in ALLOWED)


def test_every_library_definition_is_reached():
    unreached = _unreached(_library())
    assert unreached == [], (
        "defined in src/conespec but reached only from tests or exports: "
        + ", ".join(unreached))


def test_every_allowlisted_name_is_defined():
    defined = {q for stem, text in _library().items()
               for q, _ in _definitions(ast.parse(text).body, stem)}
    assert sorted(set(ALLOWED) - defined) == []


SYNTHETIC = """
class K:
    def name(self):
        return self.inner()

    def inner(self):
        return 0

    def duck(self):
        return 0

    def by_string(self):
        return 0


class Other:
    def name(self):
        return 1


def caller(x):
    assert isinstance(x, K)
    return Other.name(x) + x.ops.duck() + len("by_string")
"""


def test_a_method_is_reached_only_through_a_base_that_can_be_its_class():
    # K.name is reached only as Other.name, and K.by_string only as a
    # string; K.inner through self inside K, K.duck through a duck-typed
    # base
    assert _unreached({"synthetic": SYNTHETIC}) == [
        "synthetic.K.by_string", "synthetic.K.name", "synthetic.caller"]
