from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphtrop.linalg import (
    InputError,
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
