from fractions import Fraction as F

import pytest

from sphtrop.fundthm import (
    WitnessPoint,
    check_equivalence,
    extended_trop_sets,
    membership_set1,
    membership_set2,
    trop_hypersurface,
)
from sphtrop.puiseux import INF, PuiseuxScalar, ValuedPolynomial

LINE = ValuedPolynomial.parse("x1 + x2 + 1", laurent=False)
E3 = ValuedPolynomial.parse(
    "2*t + (t^-1 + 3*t^3)*x1 + (7 - t^1000)*x2 - 6*x1^2 + 4*t^-2*x1*x2")


def test_tropical_line_has_three_rays():
    cx = trop_hypersurface(LINE)
    assert len(cx.cells) == 3
    assert cx.contains((F(0), F(0)))
    assert cx.contains((F(-3), F(-3)))
    assert cx.contains((F(0), F(5)))
    assert not cx.contains((F(1), F(2)))


def test_cell_constraints_are_primitive_int_rows():
    for f in (LINE, E3):
        for cell in trop_hypersurface(f).cells:
            for coeffs, rhs in cell.equalities + cell.inequalities:
                assert all(type(x) is int for x in (*coeffs, rhs))


def test_single_term_is_empty():
    cx = trop_hypersurface(ValuedPolynomial.parse("x1*x2", laurent=False))
    assert cx.is_empty_set()


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        trop_hypersurface(ValuedPolynomial.zero(2, laurent=False))


def test_e3_memberships():
    assert membership_set1(E3, (F(-2), F(0)))
    assert membership_set2(E3, (F(-2), F(0)))
    assert not membership_set1(E3, (F(0), F(2)))
    assert not membership_set2(E3, (F(0), F(2)))


def test_extended_sets_of_the_line():
    sets = extended_trop_sets(LINE)
    assert len(sets[frozenset()].cells) == 3
    # x1 -> inf leaves x2 + 1: one point w2 = 0
    assert sets[frozenset({0})].contains((F(0),))
    assert not sets[frozenset({0})].contains((F(1),))
    # both infinite leaves the constant 1: empty
    assert sets[frozenset({0, 1})].is_empty_set()


def test_extended_membership_consistency():
    for w in [(INF, F(0)), (F(0), INF), (INF, INF), (F(0), F(0))]:
        assert membership_set1(LINE, w) == membership_set2(LINE, w)


def test_whole_stratum_when_restriction_vanishes():
    f = ValuedPolynomial.parse("x1*x2 + x1", laurent=False)
    sets = extended_trop_sets(f)
    assert sets[frozenset({0})].contains((F(17),))


def test_witness_check():
    t = PuiseuxScalar.t_power(1)
    witness = WitnessPoint((t, -PuiseuxScalar.rational(1) - t))
    report = check_equivalence(LINE, samples=[(F(0), F(0)), (F(2), F(2))],
                               witnesses=[witness])
    assert report.ok
    assert report.witnesses[0].valuations == (F(1), F(0))
    assert report.samples[0].in_complex
    assert not report.samples[1].in_complex


def test_nonzero_witness_coordinates_required():
    with pytest.raises(ValueError):
        WitnessPoint((PuiseuxScalar.zero(),))


def test_report_json():
    report = check_equivalence(LINE, samples=[(INF, F(0))])
    data = report.to_json()
    assert data["ok"] and data["samples"][0]["weight"] == ["inf", "0"]
