"""List the statements of ``src/sphtrop`` that no tier-1 test executes.

Usage, from the repository root::

    python tests/tools/unexecuted_lines.py [pytest arguments]

The pytest arguments default to the tier-1 run (``-q
--continue-on-collection-errors``).  Tier-1 runs in a child process with a
``sys.settrace`` line tracer installed by a generated ``sitecustomize``
module, so every Python process that the tests start (``python -m
sphtrop.cli`` included) is traced too; each writes the lines it ran in
``src/sphtrop`` to a file when it exits.  A statement counts as executed
when a line of its own text ran, or, for a compound statement, when any
statement inside it did.  ``nonlocal`` and ``global`` are declarations,
which a line tracer never sees, so they are skipped, and so are string
statements (docstrings).  Only the outermost unexecuted statement of a
block is listed.

Needs nothing beyond the standard library and the tier-1 test
dependencies.  The traced run takes several minutes, so it is not part of
tier-1; CI runs it on one leg with ``--hypothesis-seed=0``, which fixes
the examples ``hypothesis`` draws, the one thing that could change from
run to run.  Exits 1 when it lists any statement, else 0.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "sphtrop"

TRACER = '''\
import atexit, os, sys

_PACKAGE = os.environ["UNEXECUTED_LINES_PACKAGE"] + os.sep
_OUT = os.environ["UNEXECUTED_LINES_OUT"]
_hits = set()


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(_PACKAGE) else None


def _dump():
    path = os.path.join(_OUT, f"{os.getpid()}.lines")
    with open(path, "a") as out:
        out.writelines(f"{name}\\t{line}\\n" for name, line in _hits)


sys.settrace(_call)
atexit.register(_dump)
'''


def traced_lines(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer; its exit code and the lines run per file."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sitecustomize.py").write_text(TRACER)
        out = Path(tmp, "lines")
        out.mkdir()
        env = dict(os.environ, UNEXECUTED_LINES_PACKAGE=str(PACKAGE),
                   UNEXECUTED_LINES_OUT=str(out), PYTHONPATH=os.pathsep.join(
                       filter(None, [tmp, str(ROOT / "src"),
                                     os.environ.get("PYTHONPATH")])))
        rc = subprocess.run([sys.executable, "-m", "pytest", *pytest_args],
                            cwd=ROOT, env=env).returncode
        hits: dict[str, set[int]] = {}
        for path in out.iterdir():
            for entry in path.read_text().splitlines():
                name, line = entry.split("\t")
                hits.setdefault(name, set()).add(int(line))
    return rc, hits


def _is_skipped(node: ast.stmt) -> bool:
    return isinstance(node, (ast.Nonlocal, ast.Global)) or (
        isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str))


def _blocks(node: ast.AST) -> list[list[ast.stmt]]:
    return [getattr(node, f) for f in ("body", "orelse", "finalbody")
            if isinstance(getattr(node, f, None), list)] + [
        h.body for h in getattr(node, "handlers", ())]


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement's own text: up to its body, if it has one."""
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    last = body[0].lineno - 1 if isinstance(body, list) and body else (
        node.end_lineno)
    return range(first, max(first, last) + 1)


def ran(node: ast.stmt, hit: set[int]) -> bool:
    return any(line in hit for line in _own_lines(node)) or any(
        ran(s, hit) for block in _blocks(node) for s in block
        if not _is_skipped(s))


def unexecuted(statements: list[ast.stmt], hit: set[int]):
    """The outermost statements of a block that did not run."""
    for node in statements:
        if _is_skipped(node):
            continue
        if not ran(node, hit):
            yield node
        else:
            for block in _blocks(node):
                yield from unexecuted(block, hit)


def main(argv: list[str]) -> int:
    rc, hits = traced_lines(argv or ["-q", "--continue-on-collection-errors"])
    print(f"pytest exited {rc}")
    listed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in unexecuted(ast.parse(source).body,
                                hits.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{node.lineno}: "
                  f"{lines[node.lineno - 1].strip()}")
            listed += 1
    print(f"{listed} unexecuted statement(s)")
    return 1 if listed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
