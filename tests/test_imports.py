"""Every name a module under ``src/sphtrop`` imports is read somewhere in it."""

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
