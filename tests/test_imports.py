"""Every name a module under ``src/sphtrop`` imports is read somewhere in it,
and no import there is made inside a function; every private function, class
or method there is read somewhere in ``src/sphtrop``, and so is every public
one, except a short list of public names kept on purpose; ``__all__`` lists
exactly the names the package imports; every name that the benchmark
tracer wraps is defined in the package."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import sphtrop

SRC = Path(__file__).resolve().parent.parent / "src" / "sphtrop"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def loaded_names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def annotations(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, ast.arg):
        return [node.annotation] if node.annotation else []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns] if node.returns else []
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    return []


def unused_imports(source: str) -> list[str]:
    """Names bound by imports (``__future__`` aside) that are never loaded.

    A name counts as read when it is loaded anywhere in the module,
    annotations included, or when it heads an attribute chain.  With
    ``from __future__ import annotations`` the annotations are still parsed
    as expressions, so they are seen here.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = loaded_names(tree)
    for node in ast.walk(tree):
        # a quoted annotation such as -> "Cone" reads the names inside it
        for ann in annotations(node):
            for sub in ast.walk(ann):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    read |= loaded_names(ast.parse(sub.value, mode="eval"))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read]


def test_scan_finds_an_unused_name_and_counts_annotations():
    source = ("from __future__ import annotations\n"
              "from fractions import Fraction\n"
              "from typing import Sequence\n"
              "from typing import Iterable\n"
              "import math, os\n"
              "def f(x: Sequence) -> int:\n"
              "    return math.floor(x[0])\n"
              "def g(x: \"Iterable[int]\"): pass\n")
    assert unused_imports(source) == ["Fraction (line 2)", "os (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imports_in_functions(source: str) -> list[str]:
    """Imports made inside a function or method.

    Every module imports at the top, so its dependencies are all seen
    there, and an import cycle fails on import instead of hiding behind a
    call that makes it lazily.
    """
    found = {}
    # ast.walk goes breadth first, so an inner function names its imports
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update((sub.lineno, node.name) for sub in ast.walk(node)
                         if isinstance(sub, (ast.Import, ast.ImportFrom)))
    return [f"{name} (line {line})" for line, name in sorted(found.items())]


def test_scan_finds_each_import_inside_a_function():
    source = ("import json\n"
              "from .a import b\n"
              "def f():\n"
              "    from .jsonio import dumps\n"
              "    return dumps\n"
              "class C:\n"
              "    import os\n"
              "    def m(self):\n"
              "        import math\n"
              "        def inner():\n"
              "            import re\n"
              "async def g():\n"
              "    import sys\n")
    assert imports_in_functions(source) == [
        "f (line 4)", "m (line 9)", "inner (line 11)", "g (line 13)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    assert imports_in_functions(path.read_text()) == []


def test_star_import_gives_exactly_the_names_init_imports():
    """``__all__`` lists every name ``sphtrop/__init__.py`` imports and
    nothing else, so a name deleted from a module but left in ``__all__``
    fails here rather than in a user's ``from sphtrop import *``."""
    exec("from sphtrop import *", {})
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(sphtrop.__all__) == sorted(imported)


def is_private(name: str) -> bool:
    """``_``-prefixed but not a dunder."""
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def is_public(name: str) -> bool:
    return not name.startswith("_")


def definitions(tree: ast.Module, keep=is_private) -> list[tuple[str, int]]:
    """Module-level functions and classes, and methods of module-level
    classes, whose names ``keep`` accepts."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and keep(node.name):
            defs.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            defs += [(sub.name, sub.lineno) for sub in node.body
                     if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and keep(sub.name)]
    return defs


def unread_definitions(sources: dict[str, str], keep=is_private) -> list[str]:
    """Definitions (private ones by default) that no module in ``sources``
    reads.

    A name counts as read when it is loaded, read as an attribute (so a
    method called as ``self._m()`` counts) or imported by name, so a name
    that the package's ``__init__`` re-exports counts too.  The scan is by
    name only, across all modules at once.
    """
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read: set[str] = set()
    for tree in trees.values():
        read |= loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return [f"{name}: {d} (line {line})" for name, tree in trees.items()
            for d, line in definitions(tree, keep) if d not in read]


def test_private_scan_finds_an_unread_helper():
    helpers = ("def _used(): pass\n"
               "def _dead(): pass\n"
               "class _Kept:\n"
               "    def __init__(self): self._m()\n"
               "    def _m(self): pass\n"
               "    def _stale(self): pass\n"
               "class _Gone: pass\n")
    user = "from helpers import _used, _Kept\n_used()\n"
    assert unread_definitions({"helpers": helpers, "user": user}) == [
        "helpers: _dead (line 2)", "helpers: _stale (line 6)",
        "helpers: _Gone (line 7)"]


def test_no_unread_private_definitions():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_definitions(sources) == []


def test_public_scan_finds_an_unread_function_class_and_method():
    helpers = ("def used(): pass\n"
               "def dead(): pass\n"
               "class Kept:\n"
               "    def __init__(self): pass\n"
               "    def read(self): pass\n"
               "    def stale(self): self._private()\n"
               "    def _private(self): pass\n"
               "class Gone: pass\n"
               "def exported(): pass\n")
    user = ("from helpers import used, Kept\n"
            "Kept().read()\n")
    init = "from .helpers import exported\n__all__ = ['exported']\n"
    assert unread_definitions({"helpers": helpers, "user": user,
                               "__init__": init}, is_public) == [
        "helpers: dead (line 2)", "helpers: stale (line 6)",
        "helpers: Gone (line 8)"]


# Public names that no module under src/sphtrop reads, each kept on purpose.
UNREAD_PUBLIC = {
    "examples.py: all_fans":
        "every builtin fan with its expected strata, for the tests to walk",
    "jsonio.py: complex_from_json":
        "reader paired with complex_to_json; the benchmark tracer wraps it",
    "polyhedra.py: dual":
        "the dual cone, part of the Cone interface for callers",
    "puiseux.py: initial_form_substitution":
        "the substitution definition that criterion 5 compares with "
        "initial_form",
    "spherical.py: maximal_cones":
        "criterion 7 and the troposphere oracle walk the maximal cones",
}


def test_every_unread_public_definition_is_listed():
    """Nothing public is unread unless it is listed with a reason above, and
    nothing listed there is read or gone."""
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    unread = [entry.rpartition(" (line ")[0]
              for entry in unread_definitions(sources, is_public)]
    assert sorted(unread) == sorted(UNREAD_PUBLIC)


def unbounded_memos(source: str) -> list[str]:
    """Memoised functions that may grow without a fixed bound.

    An ``lru_cache`` must take as its ``maxsize`` an upper-case name bound
    at module level (assigned or imported); a bare ``lru_cache``, a number
    or ``None`` fails.  ``functools.cache`` is unbounded, so it is allowed
    only on a function with no parameters, which holds one entry.
    """
    tree = ast.parse(source)
    constants = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            constants |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                             ast.Name):
            constants.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            constants |= {a.asname or a.name for a in node.names}
    constants = {name for name in constants if name.isupper()}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            func = call.func if call else dec
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if name == "lru_cache":
                size = None
                if call and call.args:
                    size = call.args[0]
                elif call:
                    size = next((k.value for k in call.keywords
                                 if k.arg == "maxsize"), None)
                bounded = (isinstance(size, ast.Name)
                           and size.id in constants)
            elif name == "cache":
                a = node.args
                bounded = not (a.posonlyargs or a.args or a.vararg
                               or a.kwonlyargs or a.kwarg)
            else:
                continue
            if not bounded:
                found.append((dec.lineno, node.name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_memo_scan_finds_each_unbounded_memo():
    source = ("import functools\n"
              "from functools import cache, lru_cache\n"
              "from .polyhedra import CONE_CACHE_SIZE\n"
              "SIZE = 8\n"
              "size = 8\n"
              "@lru_cache(maxsize=SIZE)\n"
              "def ok(x): pass\n"
              "@functools.lru_cache(CONE_CACHE_SIZE)\n"
              "def ok_imported(x): pass\n"
              "@functools.cache\n"
              "def ok_no_parameters(): pass\n"
              "@lru_cache(maxsize=None)\n"
              "def unbounded(x): pass\n"
              "@lru_cache\n"
              "def default_size(x): pass\n"
              "@lru_cache()\n"
              "def default_size_called(x): pass\n"
              "@lru_cache(maxsize=64)\n"
              "def literal(x): pass\n"
              "@lru_cache(maxsize=size)\n"
              "def lower_case(x): pass\n"
              "def outer():\n"
              "    LOCAL = 4\n"
              "    @lru_cache(maxsize=LOCAL)\n"
              "    def inner(x): pass\n"
              "@cache\n"
              "def cached(x): pass\n"
              "@functools.cache\n"
              "def cached_keywords(*, x): pass\n")
    assert unbounded_memos(source) == [
        "unbounded (line 12)", "default_size (line 14)",
        "default_size_called (line 16)", "literal (line 18)",
        "lower_case (line 20)", "inner (line 24)", "cached (line 26)",
        "cached_keywords (line 28)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_memo_is_bounded(path):
    assert unbounded_memos(path.read_text()) == []


def test_every_name_the_benchmark_tracer_wraps_resolves():
    """Each (module, attribute) of ``perfbench/tracer.py``'s ``SPANNED`` and
    ``COUNTED`` tables is defined in the package, looked up as the tracer
    does: a "Class.method" name in the class ``__dict__``.  So deleting or
    renaming a wrapped name fails here, not only in a traced benchmark run.
    The tracer is loaded from its file and nothing in it is changed."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", SRC.parents[1] / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wrapped = [(module, attr) for table in (tracer.SPANNED, tracer.COUNTED)
               for module, attrs in table.values() for attr in attrs]
    missing = []
    for module, attr in wrapped:
        home = importlib.import_module(f"sphtrop.{module}")
        owner, _, name = attr.rpartition(".")
        scope = vars(getattr(home, owner)) if owner else vars(home)
        if scope.get(name) is None:
            missing.append(f"{module}.{attr}")
    assert wrapped and missing == []
