"""Exact rational linear algebra: row reduction, kernels, solving, and
coordinates in a chart (one Gram solve shared by ``project_off``).

All matrices are lists/tuples of row vectors whose entries are
``fractions.Fraction``.  Nothing here is numerically approximate, and
``rational_from_input`` keeps it so at the input boundary.
``primitive_ints`` is the bridge to integer rows, for callers that run on
``int`` arithmetic and convert back to ``Fraction`` at their boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


class InputError(ValueError):
    """Malformed input data, reported with a one-line message on load."""


def rational_from_input(x) -> Fraction:
    """An exact rational from input: an int, or a string "p", "p/q" or "0.5".

    Floats are refused: a JSON number such as 1e5000 arrives as an inexact
    or infinite float.  So is exponent notation, since "1e999999999" would
    build a billion-digit integer.
    """
    try:
        if type(x) is int or type(x) is str and not set(x) & {"e", "E"}:
            return Fraction(x)
    except (ValueError, ZeroDivisionError):
        pass
    raise InputError(f"expected an exact rational such as 3, \"-1/2\" or "
                     f"\"0.25\" (no floats, no exponents), got {x!r}")


def vec(entries: Iterable) -> Vector:
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def vadd(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c: Fraction, u: Sequence[Fraction]) -> Vector:
    return tuple(c * a for a in u)


def vneg(u: Sequence[Fraction]) -> Vector:
    return tuple(-a for a in u)


def is_zero_vec(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


def primitive_ints(u: Sequence, fix_sign: bool = False) -> tuple[int, ...]:
    """The primitive integer vector on the ray of a rational vector.

    Entries may be ``int`` or ``Fraction``.  The scaling factor is positive,
    so ray directions are preserved; with ``fix_sign`` the first nonzero
    entry is additionally made positive.  The zero vector stays zero.
    """
    den = lcm(*(a.denominator for a in u))
    ints = [a.numerator * (den // a.denominator) for a in u]
    g = gcd(*ints)
    if g == 0:
        return tuple(ints)
    if fix_sign and next(n for n in ints if n) < 0:
        g = -g
    return tuple(n // g for n in ints)


def primitive(u: Sequence[Fraction], fix_sign: bool = False) -> Vector:
    """Scale a nonzero rational vector to a primitive integer vector.

    The scaling factor is positive, so ray directions are preserved.  With
    ``fix_sign`` the first nonzero entry is additionally made positive
    (canonical form for lines and hyperplane normals).
    """
    return tuple(Fraction(n) for n in primitive_ints(vec(u), fix_sign))


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[0])


def kernel_basis(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Vector]:
    """Basis of {x : Rx = 0}, deterministic: free columns in increasing order."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(primitive(v, fix_sign=True))
    return basis


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vector | None:
    """One solution of Rx = b, or None if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs, strict=True)]
    red, pivots = rref(aug)
    sol = [Fraction(0)] * ncols
    for row, pc in zip(red, pivots):
        if pc == ncols:
            return None
        sol[pc] = row[ncols]
    return tuple(sol)


def project_to_chart(chart: Sequence[Vector], x: Sequence) -> Vector:
    """Coordinates in the chart of the component of x in span(chart)."""
    x = vec(x)
    if not chart:
        return ()
    gram = [[dot(b1, b2) for b2 in chart] for b1 in chart]
    coords = solve(gram, [dot(b, x) for b in chart])
    assert coords is not None
    return coords


def embed_from_chart(chart: Sequence[Vector], value: Sequence) -> Vector:
    dim = len(chart[0]) if chart else 0
    v = vec([0] * dim)
    for c, b in zip(value, chart, strict=True):
        v = vadd(v, vscale(Fraction(c), b))
    return v


def project_off(v: Sequence[Fraction], basis: Sequence[Vector]) -> Vector:
    """Component of v orthogonal to span(basis), w.r.t. the standard form."""
    v = vec(v)
    if not basis:
        return v
    return vsub(v, embed_from_chart(basis, project_to_chart(basis, v)))
