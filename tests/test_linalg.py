from fractions import Fraction as F
from math import gcd, lcm
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphtrop.linalg import (
    InputError,
    IntVector,
    Vector,
    chart_coordinates,
    dot,
    embed_from_chart,
    kernel_basis,
    orthogonal_parts,
    primitive,
    project_to_chart,
    rational_from_input,
    rref,
    vec,
)


# Vector sum and scalar multiple in exact arithmetic, for the oracles here
# and in other test modules.
def vadd(u: Sequence, v: Sequence) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vscale(c, u: Sequence) -> Vector:
    return tuple(c * a for a in u)


def test_primitive_scales_and_fixes_sign():
    assert primitive(vec([F(2, 3), F(4, 3)])) == vec([1, 2])
    assert primitive(vec([-2, 4])) == vec([-1, 2])
    assert primitive(vec([-2, 4]), fix_sign=True) == vec([1, -2])
    assert primitive(vec([0, 0])) == vec([0, 0])


def test_rref_and_rank():
    rows, pivots = rref([vec([1, 2, 3]), vec([2, 4, 6]), vec([0, 1, 1])])
    assert pivots == [0, 1]
    assert rows == [vec([1, 0, 1]), vec([0, 1, 1])]
    assert len(rref([vec([1, 1]), vec([1, -1])])[0]) == 2


def test_kernel_basis_deterministic():
    # kernel of (1, 1): free column 1, basis vector with positive lead
    assert kernel_basis([vec([1, 1])], 2) == [vec([1, -1])]
    assert kernel_basis([], 2) == [vec([1, 0]), vec([0, 1])]
    k = kernel_basis([vec([1, 2, 3])], 3)
    assert len(k) == 2 and all(dot(vec([1, 2, 3]), b) == 0 for b in k)


# The former ``solve`` and ``project_to_chart``, kept verbatim (renamed) as
# the oracle of ``chart_coordinates``: one Gram solve per vector, which
# divides in ``Fraction``s once per coordinate.
def solve(rows: Sequence[Sequence], rhs: Sequence) -> Vector | None:
    """One solution of Rx = b, or None if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs, strict=True)]
    red, pivots = rref(aug)
    sol = [F(0)] * ncols
    for row, pc in zip(red, pivots):
        if pc == ncols:
            return None
        sol[pc] = F(row[ncols], row[pc])
    return tuple(sol)


def gram_project_to_chart(chart: Sequence[IntVector], x: Sequence) -> Vector:
    """Coordinates in the chart of the component of x in span(chart)."""
    if not chart:
        return ()
    gram = [[dot(b1, b2) for b2 in chart] for b1 in chart]
    coords = solve(gram, [dot(b, x) for b in chart])
    assert coords is not None
    return coords


# The former ``vsub`` and ``project_off``, kept verbatim as the oracle of
# ``orthogonal_parts``: one Gram solve in ``Fraction``s per vector.
def vsub(u: Sequence[F], v: Sequence[F]) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def project_off(v: Sequence[F], basis: Sequence[IntVector]) -> Vector:
    """Component of v orthogonal to span(basis), w.r.t. the standard form."""
    v = tuple(v)
    if not basis:
        return v
    return vsub(v, embed_from_chart(basis, gram_project_to_chart(basis, v)))


def test_orthogonal_parts():
    assert orthogonal_parts([(3, 1), (2, 2)], [(1, 1)]) == [(1, -1), (0, 0)]
    assert orthogonal_parts([(3, 1), (F(1, 2), F(1, 2))], []) == [(3, 1),
                                                                   (1, 1)]
    assert project_off(vec([3, 1]), [vec([1, 1])]) == vec([1, -1])


def vectors(dim):
    return st.tuples(*[st.integers(-3, 3)] * dim).map(vec)


ENTRIES = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def dependent_bases(draw, dim):
    """1-5 vectors, often with zeros, multiples and integer combinations of
    two others among them."""
    basis = draw(st.lists(vectors(dim), min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, len(basis) - 1)), draw(st.integers(-2, 2))
        basis.append(tuple(j * x + y for x, y in zip(basis[i], basis[-1])))
    return draw(st.permutations(basis))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.tuples(
    st.lists(st.one_of(vectors(d), st.tuples(*[ENTRIES] * d)), max_size=3),
    dependent_bases(d))))
def test_property_chart_coordinates_are_the_gram_solve(system):
    """One ``rref`` for all vectors, even on a dependent chart, whose free
    coordinates are 0 as the Gram solve leaves them."""
    vs, chart = system
    coords, scale = chart_coordinates(chart, vs)
    assert scale > 0 and len(coords) == len(vs)
    for v, c in zip(vs, coords, strict=True):
        assert all(type(x) is int for x in c)
        assert project_to_chart(chart, v) == gram_project_to_chart(chart, v)
        assert tuple(F(x, scale) for x in c) == gram_project_to_chart(chart, v)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.tuples(
    st.lists(vectors(d), min_size=1, max_size=3), dependent_bases(d))))
def test_property_orthogonal_parts_are_the_primitive_project_off(system):
    vs, basis = system
    parts = orthogonal_parts(vs, basis)
    for v, w in zip(vs, parts, strict=True):
        assert w == primitive(project_off(v, basis))
        assert all(type(x) is int for x in w)
        assert all(dot(w, b) == 0 for b in basis)
        assert vsub(v, project_off(v, basis)) == embed_from_chart(
            basis, project_to_chart(basis, v))


def test_rational_from_input_accepts_exact_forms():
    assert rational_from_input(3) == 3
    assert rational_from_input("-1/2") == F(-1, 2)
    assert rational_from_input(" 0.25 ") == F(1, 4)


@pytest.mark.parametrize("x", [0.5, float("inf"), True, None, "inf", "nan",
                               "1/0", "", [1]])
def test_rational_from_input_rejects_inexact_and_malformed(x):
    with pytest.raises(InputError, match="exact rational"):
        rational_from_input(x)


@pytest.mark.parametrize("x", ["1e5", "2E-3", "1.5e2"])
def test_rational_from_input_rejects_exponent_notation(x):
    # refused before Fraction sees it, so a huge exponent costs nothing
    with pytest.raises(InputError, match="no exponents"):
        rational_from_input(x)


# ``rref`` as it was before it went fraction-free, kept verbatim (renamed)
# as an oracle: it lifts every row to ``Fraction`` and divides by the pivot.
def fraction_rref(rows: Sequence[Sequence[F]]
                  ) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(vec(r)) for r in rows]
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


def fraction_kernel_basis(rows, ncols):
    """The former ``kernel_basis``, on the oracle."""
    red, pivots = fraction_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(primitive(v, fix_sign=True))
    return basis


@st.composite
def matrices(draw):
    """0-4 rows of 1-5 rational entries, -3..3 over denominators 1-3."""
    ncols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[ENTRIES] * ncols), max_size=4))
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_property_rref_scales_the_fraction_rref(case):
    rows, _ = case
    red, pivots = rref(rows)
    expected, expected_pivots = fraction_rref(rows)
    assert pivots == expected_pivots
    assert red == [primitive(row) for row in expected]
    for row, pc in zip(red, pivots):
        assert all(type(x) is int for x in row) and row[pc] > 0


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_property_kernel_agrees_with_the_fraction_rref(case):
    rows, ncols = case
    assert kernel_basis(rows, ncols) == fraction_kernel_basis(rows, ncols)


# The former ``primitive``, kept as an oracle: it always clears the
# denominators (the lcm of 1s on an int row) before dividing by the gcd.
def lcm_primitive(u, fix_sign=False):
    den = lcm(*(a.denominator for a in u))
    ints = [a.numerator * (den // a.denominator) for a in u]
    g = gcd(*ints)
    if g == 0:
        return tuple(ints)
    if fix_sign and next(n for n in ints if n) < 0:
        g = -g
    return tuple(n // g for n in ints)


INT_OR_FRACTION = st.one_of(st.integers(-50, 50),
                            st.builds(F, st.integers(-50, 50),
                                      st.integers(1, 12)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.integers(-50, 50), max_size=6),
                 st.lists(INT_OR_FRACTION, max_size=6)),
       st.booleans())
def test_property_primitive_is_the_lcm_then_gcd_row(row, fix_sign):
    for u in (row, tuple(row)):
        got = primitive(u, fix_sign=fix_sign)
        assert got == lcm_primitive(u, fix_sign=fix_sign)
        assert type(got) is tuple and all(type(a) is int for a in got)


# The former ``embed_from_chart``, kept verbatim as an oracle: one
# ``Fraction`` vadd/vscale pass per chart vector.
def loop_embed_from_chart(chart: Sequence[IntVector], value: Sequence
                          ) -> Vector:
    dim = len(chart[0]) if chart else 0
    v = vec([0] * dim)
    for c, b in zip(value, chart, strict=True):
        v = vadd(v, vscale(F(c), b))
    return v


@st.composite
def charts_and_values(draw):
    """0-3 integer chart vectors of one length 1-4, and as many int, or
    int-or-Fraction, values."""
    dim = draw(st.integers(1, 4))
    chart = draw(st.lists(st.tuples(*[st.integers(-50, 50)] * dim),
                          max_size=3))
    entry = draw(st.sampled_from([st.integers(-50, 50), INT_OR_FRACTION]))
    value = draw(st.lists(entry, min_size=len(chart), max_size=len(chart)))
    return chart, value


@settings(max_examples=300, deadline=None)
@given(charts_and_values())
def test_property_embed_from_chart_is_the_loop(case):
    chart, value = case
    got = embed_from_chart(chart, value)
    assert got == loop_embed_from_chart(chart, value)
    assert type(got) is tuple
    if all(type(c) is int for c in value):
        assert all(type(x) is int for x in got)
    elif chart:
        assert all(type(x) is F for x in got)


def test_embed_from_chart_rejects_a_length_mismatch():
    with pytest.raises(ValueError):
        embed_from_chart([(1, 0), (0, 1)], [1])
    with pytest.raises(ValueError):
        embed_from_chart([], [F(1, 2)])
