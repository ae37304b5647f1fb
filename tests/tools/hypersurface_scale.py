"""Time ``fundthm.trop_hypersurface`` on random polynomials at scale.

Usage, from the repository root::

    python tests/tools/hypersurface_scale.py [--src DIR] [--grid]
    python tests/tools/hypersurface_scale.py --print M N

The first form times every size in ``SIZES``, each in a fresh Python
process, so every complex is built with a cold memo; ``--src`` times the
``sphtrop`` package under another source directory (default: this
checkout's ``src``).  Each line gives the variables, terms, exponent bound,
cells, seconds and the process's peak resident memory; a size that the
library refuses gives its ``InputError`` message and the seconds until the
refusal instead, and the later sizes still run.  With ``--grid`` each line
also gives the seconds that ``cx.contains`` and ``f.initial_form`` take
over the weights {-1, 0, 1}^M, the grid of the benchmark's ``hypersurface``
workload, once the complex cx is built: the least of ``GRID_PASSES``
passes over the grid.  It then gives the other two stages of that
workload's pass: ``ValuedPolynomial.parse`` of the polynomial's text, and
``extended_trop_sets(f)`` with the memo of complexes emptied before each
call, so that every orbit's complex, the torus's included, is built
again; each is the least of ``GRID_PASSES`` runs.  The second form
prints the polynomial of M variables and N terms, for example to pass it
to ``sphtrop poly hypersurface --ordinary --poly``.

The polynomials are the first of ``random.Random(3)`` from the generator
of the benchmark's ``hypersurface`` workload, with the least exponent bound
d >= 2 that leaves at least 2N monomials, (d + 1)^M >= 2N.  Needs nothing
beyond the standard library.
"""

from __future__ import annotations

import argparse
import itertools
import os
import random
import resource
import subprocess
import sys
import time
import timeit
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# (variables, terms): the scale sizes of the hypersurface pass, then the
# largest polynomials that ``MAX_COMPLEX_TERMS`` admits, then the sizes where
# the sweep bound comes near or refuses.
SIZES = [(4, 24), (5, 32), (6, 30), (6, 40), (3, 96), (4, 96), (5, 96),
         (6, 64), (7, 40)]


def degree(m: int, n: int) -> int:
    d = 2
    while (d + 1) ** m < 2 * n:
        d += 1
    return d


def polynomial_text(m: int, n: int) -> str:
    """The benchmark generator's polynomial of m variables and n terms."""
    rng = random.Random(3)
    monomials = set()
    while len(monomials) < n:
        monomials.add(tuple(rng.randint(0, degree(m, n)) for _ in range(m)))
    terms = []
    for u in sorted(monomials):
        coeff = rng.choice((-3, -2, -1, 1, 2, 3))
        exponent = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        terms.append(f"{coeff}*t^({exponent})" + "".join(
            f"*x{i + 1}^{a}" for i, a in enumerate(u) if a))
    return " + ".join(terms)


# Passes over the grid per test; the least time is reported, the one least
# disturbed by other processes.
GRID_PASSES = 5


def time_grid(text: str, f, cx) -> str:
    """Seconds of ``cx.contains`` and of ``f.initial_form`` over the grid,
    of parsing ``text`` and of a cold ``extended_trop_sets(f)``."""
    from sphtrop import fundthm
    from sphtrop.puiseux import ValuedPolynomial

    grid = list(itertools.product((Fraction(-1), Fraction(0), Fraction(1)),
                                  repeat=f.nvars))
    seconds = [min(timeit.repeat(lambda: [test(w) for w in grid],
                                 number=1, repeat=GRID_PASSES))
               for test in (cx.contains, f.initial_form)]
    parse = min(timeit.repeat(lambda: ValuedPolynomial.parse(
        text, nvars=f.nvars, laurent=False), number=1, repeat=GRID_PASSES))
    orbits = min(timeit.repeat(lambda: fundthm.extended_trop_sets(f),
                               setup=fundthm._complex_of.cache_clear,
                               number=1, repeat=GRID_PASSES))
    return (f" grid={len(grid)} contains={seconds[0]:.4f} s "
            f"initial_form={seconds[1]:.4f} s parse={parse:.4f} s "
            f"cold_extended_trop_sets={orbits:.4f} s")


def time_one(m: int, n: int, grid: bool = False) -> str:
    from sphtrop.fundthm import trop_hypersurface
    from sphtrop.linalg import InputError
    from sphtrop.puiseux import ValuedPolynomial

    text = polynomial_text(m, n)
    f = ValuedPolynomial.parse(text, nvars=m, laurent=False)
    size = f"m={m} terms={n} degree={degree(m, n)}"
    start = time.perf_counter()
    try:
        cx = trop_hypersurface(f)
    except InputError as err:
        return (f"{size} refused after {time.perf_counter() - start:.3f} s: "
                f"{err}")
    seconds = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    line = f"{size} cells={len(cx.cells)} {seconds:.3f} s {peak_mb:.1f} MB"
    return line + time_grid(text, f, cx) if grid else line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source directory holding the sphtrop package")
    parser.add_argument("--print", nargs=2, type=int, metavar=("M", "N"),
                        help="print the polynomial of M variables, N terms")
    parser.add_argument("--grid", action="store_true",
                        help="also time cx.contains and f.initial_form over "
                             "the weights {-1, 0, 1}^M, the parse and a cold "
                             "extended_trop_sets")
    parser.add_argument("--one", nargs=2, type=int, metavar=("M", "N"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.print:
        print(polynomial_text(*args.print))
        return 0
    if args.one:
        print(time_one(*args.one, grid=args.grid), flush=True)
        return 0
    env = dict(os.environ, PYTHONPATH=args.src)
    for m, n in SIZES:
        subprocess.run([sys.executable, __file__, "--one", str(m), str(n)]
                       + ["--grid"] * args.grid, env=env, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
