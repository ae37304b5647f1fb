"""List the functions and methods of ``src/sphtrop`` that nothing reaches.

Usage, from the repository root::

    python tests/tools/reached_functions.py

"Reached" means called by one of the runs that stand for what the package
is for, not by its unit tests:
- the three benchmark workloads, ``perfbench/run.py --seconds 1 --trace 0``
  on seeds 1 and 4242;
- the acceptance gate, ``tests/test_acceptance.py``;
- every line of ``README.md`` that starts with ``sphtrop ``, in order, from
  one empty directory, through ``cli.main``.

Each run is a child process with a ``sys.setprofile`` hook installed by a
generated ``sitecustomize`` module, so nothing in the library or under
``perfbench/`` is patched; each writes the code objects of ``src/sphtrop``
that were called to a file when it exits.  A function or method defined
anywhere in a module (nested ones included, lambdas not) counts as reached
when its code object was called in any run.  A run that fails is reported
and makes the script exit 1; otherwise it exits 0, whatever it lists.

Needs nothing beyond the standard library and the tier-1 test
dependencies.  It takes one to two minutes, so it is a tool to run by hand,
not part of tier-1.
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
WORKLOADS = ("cli_corpus", "toric_arrangement", "hypersurface")
SEEDS = (1, 4242)

PROFILER = '''\
import atexit, os, sys

_PACKAGE = os.environ["REACHED_FUNCTIONS_PACKAGE"] + os.sep
_OUT = os.environ["REACHED_FUNCTIONS_OUT"]
_seen = set()
_called = set()


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_PACKAGE):
                _called.add((code.co_filename, code.co_firstlineno))


def _dump():
    path = os.path.join(_OUT, f"{os.getpid()}.calls")
    with open(path, "a") as out:
        out.writelines(f"{name}\\t{line}\\n" for name, line in _called)


sys.setprofile(_profile)
atexit.register(_dump)
'''

# Runs each README line given on standard input through cli.main.
README_RUNNER = '''\
import shlex, sys
from sphtrop.cli import main
for line in sys.stdin.read().splitlines():
    if main(shlex.split(line)[1:]) != 0:
        sys.exit(f"exit code not 0: {line}")
'''


def runs() -> list[tuple[str, list[str], str | None]]:
    """(label, command, standard input) of every run."""
    out = [(f"{w} seed {s}",
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", w, "--seed", str(s), "--seconds", "1",
             "--trace", "0"], None)
           for w in WORKLOADS for s in SEEDS]
    out.append(("tests/test_acceptance.py",
                [sys.executable, "-m", "pytest", "-q", "-p",
                 "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")],
                None))
    readme = [line for line in (ROOT / "README.md").read_text().splitlines()
              if line.startswith("sphtrop ")]
    out.append((f"{len(readme)} README lines",
                [sys.executable, "-c", README_RUNNER], "\n".join(readme)))
    return out


def called_code(tmp: str) -> tuple[list[str], dict[str, set[int]]]:
    """Run everything under the profiler; the failed runs and, per file, the
    first lines of the code objects that were called."""
    Path(tmp, "sitecustomize.py").write_text(PROFILER)
    out = Path(tmp, "calls")
    out.mkdir()
    env = dict(os.environ, REACHED_FUNCTIONS_PACKAGE=str(PACKAGE),
               REACHED_FUNCTIONS_OUT=str(out), PYTHONPATH=os.pathsep.join(
                   filter(None, [tmp, str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])))
    workdir = Path(tmp, "work")
    workdir.mkdir()
    failed = []
    for label, command, stdin in runs():
        print(f"running {label}", file=sys.stderr, flush=True)
        cwd = workdir if stdin is not None else ROOT
        result = subprocess.run(command, cwd=cwd, env=env, input=stdin,
                                text=True, stdout=subprocess.PIPE)
        if result.returncode != 0 or '"correct": false' in result.stdout:
            failed.append(label)
    calls: dict[str, set[int]] = {}
    for path in out.iterdir():
        for entry in path.read_text().splitlines():
            name, line = entry.split("\t")
            calls.setdefault(name, set()).add(int(line))
    return failed, calls


def functions(tree: ast.AST, prefix: str = ""):
    """(qualified name, first line) of every function or method under a
    node; the first line is that of its first decorator, as in its code
    object's ``co_firstlineno``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno
                                         for d in node.decorator_list])
            yield prefix + node.name, first
            yield from functions(node, f"{prefix}{node.name}.<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from functions(node, f"{prefix}{node.name}.")
        else:
            yield from functions(node, prefix)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        failed, calls = called_code(tmp)
    listed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        called = calls.get(str(path), set())
        for name, line in functions(ast.parse(path.read_text())):
            if line not in called:
                print(f"{path.relative_to(ROOT)}:{line}: {name}")
                listed += 1
    print(f"{listed} function(s) reached by none of the runs")
    for label in failed:
        print(f"failed: {label}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
