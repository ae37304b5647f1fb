"""Exact rational linear algebra: row reduction, kernels, orthogonal parts,
and coordinates in a chart (one ``rref`` for any number of vectors).

Vectors are tuples of exact rationals: ``int`` or ``fractions.Fraction``,
which compare and hash alike.  Rows of cones and cells are primitive
integer vectors (``IntVector``, made by ``primitive``), and a rational
point is tested against them in ``int``s after ``clear_denominators``
scales it by one positive common denominator.  Row reduction is
fraction-free: ``rref`` clears a pivot column with ``eliminate``, the
cross-multiply-and-divide-by-the-gcd step that ``polyhedra._dd`` sweeps
with, and returns primitive ``int`` rows; ``orthogonal_parts`` projects
off a span by the same step.  ``Fraction`` enters only where input is
read (``rational_from_input``, ``vec``), in the chart coordinates of one
point (``project_to_chart`` divides ``chart_coordinates`` by its scale),
and in report text (``fraction_rows``).
Nothing here is numerically approximate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]


class InputError(ValueError):
    """Malformed input data, reported with a one-line message on load."""


# Largest rank, ambient dimension or variable count read from input.  The
# double-description sweep starts from an identity matrix of that size, so
# an unchecked rank of 10**9 would exhaust memory before any vector is read.
MAX_DIM = 64


def rational_from_input(x) -> Fraction:
    """An exact rational from input: an int, or a string "p", "p/q" or "0.5".

    Floats are refused: a JSON number such as 1e5000 arrives as an inexact
    or infinite float.  So is exponent notation, since "1e999999999" would
    build a billion-digit integer, and "_", which only Python >= 3.11 reads.
    """
    try:
        if type(x) is int or type(x) is str and not set(x) & {"e", "E", "_"}:
            return Fraction(x)
    except (ValueError, ZeroDivisionError):
        pass
    raise InputError(f"expected an exact rational such as 3, \"-1/2\" or "
                     f"\"0.25\" (no floats, no exponents), got {x!r}")


_EXACT = frozenset((int, Fraction))


def _refuse_inexact(entries: Sequence) -> None:
    """The one rule for exact input: an entry that is not an ``int`` or
    ``Fraction`` (a float, a string, a ``bool``) raises ``ValueError``."""
    if not set(map(type, entries)) <= _EXACT:
        raise ValueError(f"expected exact rationals, got {entries!r}")


def vec(entries: Iterable) -> Vector:
    """The entries as ``Fraction``s, after ``_refuse_inexact``."""
    entries = tuple(entries)
    _refuse_inexact(entries)
    return tuple(map(Fraction, entries))


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(map(mul, u, v))


def vneg(u: Sequence[Fraction]) -> Vector:
    return tuple(-a for a in u)


def clear_denominators(u: Sequence) -> tuple[IntVector, int]:
    """``(den * u, den)`` with ``den`` the lcm of the entries' denominators.

    Entries pass ``_refuse_inexact``, and each denominator is read once;
    the scaled entries are ``int``s.  A test ``c . u >= r`` on an ``int``
    row ``c`` is then ``c . (den * u) >= r * den``, as den > 0.
    """
    _refuse_inexact(u)
    ds = [a.denominator for a in u]
    den = lcm(*ds)
    return tuple([a.numerator * (den // d) for a, d in zip(u, ds)]), den


def primitive(u: Sequence, fix_sign: bool = False) -> IntVector:
    """The primitive integer vector on the ray of a rational vector.

    Entries may be ``int`` or ``Fraction``.  The scaling factor is positive,
    so ray directions are preserved; with ``fix_sign`` the first nonzero
    entry is additionally made positive.  The zero vector stays zero.
    The gcd is taken first: only a ``Fraction`` entry makes it raise
    ``TypeError``, and only then are the denominators cleared.  A row
    already primitive (gcd 1, or 0) with no sign to flip is returned as is.
    """
    try:
        g, ints = gcd(*u), u
    except TypeError:
        ints, _ = clear_denominators(u)
        g = gcd(*ints)
    if fix_sign and g and next(n for n in ints if n) < 0:
        g = -g
    return tuple(ints) if g == 0 or g == 1 else tuple(n // g for n in ints)


def fraction_rows(rows: Iterable[Sequence]) -> tuple[Vector, ...]:
    """Rows as ``Fraction`` tuples, in the repr that report text prints."""
    return tuple(tuple(map(Fraction, r)) for r in rows)


def eliminate(u: IntVector, s: int, l0: IntVector, v0: int) -> IntVector:
    """Primitive positive multiple of u - (s / v0) * l0, for v0 != 0.

    A linear form with value s on u and v0 on l0 vanishes on the result:
    a constraint row in ``polyhedra._dd``, the pivot column in ``rref``.
    The cross-multiplied form |v0| * u - sign(v0) * s * l0 keeps the
    direction of u and is divided by its gcd; u is primitive already, so
    s == 0 returns it unchanged.
    """
    if s == 0:
        return u
    if v0 < 0:
        v0, s = -v0, -s
    w = [v0 * x - s * y for x, y in zip(u, l0)]
    g = gcd(*w)
    return tuple(x // g for x in w) if g > 1 else tuple(w)


def rref(rows: Sequence[Sequence]) -> tuple[list[IntVector], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Fraction-free: the rows are scaled to primitive ``int`` rows, each
    pivot row's sign is made positive at its pivot, and the pivot column
    is cleared from every other row by ``eliminate``.  The pivots are those
    of the usual reduced form, and each returned row is its reduced row
    (pivot 1) times a positive rational: the primitive ``int`` row whose
    pivot is positive.
    """
    mat = [primitive(r) for r in rows]
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
        if mat[r][c] < 0:
            mat[r] = tuple(-x for x in mat[r])
        p, pv = mat[r], mat[r][c]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                mat[i] = eliminate(mat[i], mat[i][c], p, pv)
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def kernel_basis(rows: Sequence[Sequence], ncols: int) -> list[IntVector]:
    """Basis of {x : Rx = 0}, deterministic: free columns in increasing order.

    The pivot entries' lcm scales each vector to ``int``s before ``primitive``.
    """
    red, pivots = rref(rows)
    scale = lcm(*(row[pc] for row, pc in zip(red, pivots)))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = scale
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc] * (scale // row[pc])
        basis.append(primitive(v, fix_sign=True))
    return basis


def chart_coordinates(chart: Sequence[IntVector], vectors: Sequence[Sequence]
                      ) -> tuple[list[IntVector], int]:
    """Chart coordinates of the vectors' parts in span(chart), as ``int``
    rows over one positive scale, by one ``rref`` of [Gram(chart) |
    chart.x_j]: its row with pivot p at column c gives coordinate c of x_j
    as entry n + j over p.  A dependent chart's free coordinates are 0."""
    n = len(chart)
    red, pivots = rref([[dot(b, c) for c in (*chart, *vectors)]
                        for b in chart])
    scale = lcm(*(row[c] for row, c in zip(red, pivots)))
    coords = [[0] * n for _ in vectors]
    for row, c in zip(red, pivots):
        for j, x in enumerate(coords):
            x[c] = row[n + j] * (scale // row[c])
    return [tuple(x) for x in coords], scale


def project_to_chart(chart: Sequence[IntVector], x: Sequence) -> Vector:
    """Coordinates in the chart of the component of x in span(chart)."""
    (coords,), scale = chart_coordinates(chart, [x])
    return tuple(Fraction(a, scale) for a in coords)


def embed_from_chart(chart: Sequence[IntVector], value: Sequence) -> Vector:
    """The point sum_k value[k] * chart[k]: ``int``s for ``int`` values."""
    if len(value) != len(chart):
        raise ValueError("dimension mismatch")
    return tuple(sum(map(mul, value, column)) for column in zip(*chart))


def orthogonal_parts(vectors: Iterable[Sequence], basis: Iterable[Sequence]
                     ) -> list[IntVector]:
    """Primitive positive multiples of the vectors' parts orthogonal to
    span(basis), by fraction-free Gram-Schmidt: each basis vector left in
    turn makes the rest of the basis and the vectors orthogonal to it, by
    one ``eliminate`` each (the form x.q is u.q on u and q.q on q)."""
    rest = [primitive(b) for b in basis]
    parts = [primitive(v) for v in vectors]
    while rest:
        q = rest.pop()
        if any(q):
            qq = dot(q, q)
            rest = [eliminate(u, dot(u, q), q, qq) for u in rest]
            parts = [eliminate(u, dot(u, q), q, qq) for u in parts]
    return parts
