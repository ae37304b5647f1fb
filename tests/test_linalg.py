from fractions import Fraction as F
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphtrop.linalg import (
    InputError,
    Vector,
    dot,
    embed_from_chart,
    kernel_basis,
    primitive,
    project_off,
    project_to_chart,
    rank,
    rational_from_input,
    rref,
    solve,
    vec,
    vsub,
)


def test_primitive_scales_and_fixes_sign():
    assert primitive(vec([F(2, 3), F(4, 3)])) == vec([1, 2])
    assert primitive(vec([-2, 4])) == vec([-1, 2])
    assert primitive(vec([-2, 4]), fix_sign=True) == vec([1, -2])
    assert primitive(vec([0, 0])) == vec([0, 0])


def test_rref_and_rank():
    rows, pivots = rref([vec([1, 2, 3]), vec([2, 4, 6]), vec([0, 1, 1])])
    assert pivots == [0, 1]
    assert rows == [vec([1, 0, 1]), vec([0, 1, 1])]
    assert rank([vec([1, 1]), vec([1, -1])]) == 2


def test_kernel_basis_deterministic():
    # kernel of (1, 1): free column 1, basis vector with positive lead
    assert kernel_basis([vec([1, 1])], 2) == [vec([1, -1])]
    assert kernel_basis([], 2) == [vec([1, 0]), vec([0, 1])]
    k = kernel_basis([vec([1, 2, 3])], 3)
    assert len(k) == 2 and all(dot(vec([1, 2, 3]), b) == 0 for b in k)


def test_solve():
    assert solve([vec([2, 0]), vec([0, 4])], [F(2), F(2)]) == vec([1, F(1, 2)])
    assert solve([vec([1, 1]), vec([1, 1])], [F(1), F(2)]) is None


def test_project_off():
    v = project_off(vec([3, 1]), [vec([1, 1])])
    assert dot(v, vec([1, 1])) == 0
    assert v == vec([1, -1])
    assert project_off(vec([3, 1]), []) == vec([3, 1])


def vectors(dim):
    return st.tuples(*[st.integers(-3, 3)] * dim).map(vec)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    vectors(d), st.lists(vectors(d), min_size=1, max_size=3))))
def test_property_project_off_shares_the_chart_solve(system):
    v, basis = system
    w = project_off(v, basis)
    assert all(dot(w, b) == 0 for b in basis)
    assert vsub(v, w) == embed_from_chart(basis, project_to_chart(basis, v))


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


def fraction_solve(rows, rhs) -> Vector | None:
    """The former ``solve``, on the oracle."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs, strict=True)]
    red, pivots = fraction_rref(aug)
    sol = [F(0)] * ncols
    for row, pc in zip(red, pivots):
        if pc == ncols:
            return None
        sol[pc] = row[ncols]
    return tuple(sol)


ENTRIES = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


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
@given(matrices(), st.lists(ENTRIES, min_size=4, max_size=4))
def test_property_kernel_and_solve_agree_with_the_fraction_rref(case, rhs):
    rows, ncols = case
    assert kernel_basis(rows, ncols) == fraction_kernel_basis(rows, ncols)
    rhs = rhs[:len(rows)]
    assert solve(rows, rhs) == fraction_solve(rows, rhs)
