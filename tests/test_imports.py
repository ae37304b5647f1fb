"""Every name a module under ``src/sphtrop`` imports is read somewhere in it,
and every private function, class or method there is read somewhere in
``src/sphtrop``."""

import ast
from pathlib import Path

import pytest

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


def private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """``_``-prefixed module-level functions and classes, and ``_``-prefixed
    methods of module-level classes that are not dunders."""
    def is_private(node):
        name = node.name
        return name.startswith("_") and not (name.startswith("__")
                                             and name.endswith("__"))
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and is_private(node):
            defs.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            defs += [(sub.name, sub.lineno) for sub in node.body
                     if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and is_private(sub)]
    return defs


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """Private definitions that no module in ``sources`` reads.

    A name counts as read when it is loaded, read as an attribute (so a
    method called as ``self._m()`` counts) or imported by name.  The scan
    is by name only, across all modules at once.
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
            for d, line in private_definitions(tree) if d not in read]


def test_private_scan_finds_an_unread_helper():
    helpers = ("def _used(): pass\n"
               "def _dead(): pass\n"
               "class _Kept:\n"
               "    def __init__(self): self._m()\n"
               "    def _m(self): pass\n"
               "    def _stale(self): pass\n"
               "class _Gone: pass\n")
    user = "from helpers import _used, _Kept\n_used()\n"
    assert unread_private_definitions({"helpers": helpers, "user": user}) == [
        "helpers: _dead (line 2)", "helpers: _stale (line 6)",
        "helpers: _Gone (line 7)"]


def test_no_unread_private_definitions():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_private_definitions(sources) == []
