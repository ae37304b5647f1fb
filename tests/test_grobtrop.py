from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings

from sphtrop import grobtrop
from sphtrop.examples import all_fans, blowup_a4, e3_polynomial
from sphtrop.fundthm import membership_set2
from sphtrop.grobtrop import (
    compare_tropicalizations,
    grobner_tropicalize_embedding,
)
from sphtrop.polyhedra import Cone
from sphtrop.puiseux import INF, ResiduePolynomial, ValuedPolynomial
from sphtrop.spherical import ColoredCone, ColoredFan, ValidationReport
from sphtrop.troposphere import (ExtendedTrop, stratum_key,
                                 tropicalize_embedding)
from test_polyhedra import dd_is_face_of
from test_puiseux import fraction_term_weight, polynomials_and_weights, q_min
from test_spherical import data_and_collections


def fraction_graded_initial_form(f, v):
    """The class of f in its least graded piece under the extended weight v,
    from per-term ``Fraction`` sums: the grade (the least term weight), the
    representative (the terms of that grade; f itself when every term has
    infinite weight), the infinity summand (the terms of infinite weight)
    and the residue (the leading coefficients of the terms of that grade)."""
    weights = [fraction_term_weight(u, c, v) for u, c in f.terms]
    grade = q_min(weights)
    finite_min = {u: c for (u, c), x in zip(f.terms, weights)
                  if x is not INF and x == grade}
    infinite = {u: c for (u, c), x in zip(f.terms, weights) if x is INF}
    rep = f if grade is INF else ValuedPolynomial.from_dict(
        f.nvars, finite_min, laurent=f.laurent)
    residue = ResiduePolynomial.from_dict(f.nvars, {
        u: c.leading_coefficient() for u, c in finite_min.items()})
    return (grade, rep,
            ValuedPolynomial.from_dict(f.nvars, infinite, laurent=f.laurent),
            residue)


def is_unit_class(grade, residue):
    """Whether the class generates its graded piece: a finite grade and a
    monomial residue."""
    return grade is not INF and residue.is_monomial()


class TestGradedInitialForm:
    """The oracle's split on hand cases, and set (2) deciding as it does."""

    def test_finite_weight_matches_initial_form(self):
        f = e3_polynomial()
        for w in [(F(-2), F(0)), (F(0), F(2)), (F(1), F(1))]:
            grade, rep, infinite, residue = fraction_graded_initial_form(f, w)
            assert grade == f.trop_eval(w)
            assert residue == f.initial_form(w)
            assert rep.trop_eval(w) == grade
            assert infinite.is_zero()
            assert membership_set2(f, w) == (not is_unit_class(grade, residue))

    def test_infinite_entry_splits_summands(self):
        f = ValuedPolynomial.parse("x1 + x2", laurent=False)
        grade, rep, infinite, residue = fraction_graded_initial_form(
            f, (INF, F(0)))
        assert grade == 0
        assert str(rep) == "x2"
        assert str(infinite) == "x1"
        assert is_unit_class(grade, residue)
        assert not membership_set2(f, (INF, F(0)))

    def test_all_terms_infinite(self):
        f = ValuedPolynomial.parse("x1*x2", laurent=False)
        grade, rep, _, residue = fraction_graded_initial_form(f, (INF, F(0)))
        assert grade is INF
        assert rep == f
        assert residue.is_zero()
        assert not is_unit_class(grade, residue)
        assert membership_set2(f, (INF, F(0)))


@settings(max_examples=1000, deadline=None)
@given(polynomials_and_weights())
@example((ValuedPolynomial.parse("x1 + t*x2 + 1", laurent=False),
          [(F(0), F(0))]))
@example((ValuedPolynomial.zero(2, laurent=False), [(F(1), F(2))]))
def test_property_membership_set2_is_the_graded_unit_test(case):
    """Set (2) holds exactly when the class of f in its least graded piece
    is not a unit, and that class is the tropical value and initial form."""
    f, weights = case
    for w in weights:
        grade, _, _, residue = fraction_graded_initial_form(f, w)
        assert membership_set2(f, w) == (not is_unit_class(grade, residue))
        assert grade == f.trop_eval(w)
        assert residue == f.initial_form(w)


class TestGrobnerTrop:
    def test_agrees_with_facewise_on_corpus(self):
        for name, datum, fan, _ in all_fans():
            fw = tropicalize_embedding(datum, fan)
            gr = grobner_tropicalize_embedding(datum, fan)
            report = compare_tropicalizations(fw, gr)
            assert report.equal, (name, report.mismatches)
            assert fw == gr

    def test_trivial_fan_gives_valuation_cone(self):
        datum, _ = blowup_a4()
        fan = ColoredFan((ColoredCone(Cone.zero(2)),))
        t = grobner_tropicalize_embedding(datum, fan)
        (s,) = t.strata.values()
        assert s.valuation_cone_image == datum.valuation_cone

    def test_invalid_fan_rejected(self):
        datum, _ = blowup_a4()
        fan = ColoredFan((ColoredCone(Cone.from_generators([(1, 0)], 2)),))
        with pytest.raises(ValueError):
            grobner_tropicalize_embedding(datum, fan)


class TestComparison:
    def make(self):
        datum, fan = blowup_a4()
        return tropicalize_embedding(datum, fan)

    def test_deleted_stratum_reported(self):
        a = self.make()
        keep = [s for k, s in a.strata.items() if s.quotient_dim > 0]
        b = ExtendedTrop(a.ambient_rank, {s.key: s for s in keep},
                         {s.key: a.adjacency[s.key] for s in keep})
        report = compare_tropicalizations(a, b)
        assert not report.equal
        assert any("only on the left" in m for m in report.mismatches)

    def test_relabeled_colors_reported(self):
        from sphtrop.examples import table1_datum, table1_fans
        datum = table1_datum()
        a = tropicalize_embedding(datum, table1_fans()["A2"][0])
        b = tropicalize_embedding(datum, table1_fans()["Bl0A2"][0])
        report = compare_tropicalizations(a, b)
        assert not report.equal

    def test_rank_mismatch_raises(self):
        a = self.make()
        from sphtrop.examples import table1_datum, table1_fans
        fan, _ = table1_fans()["P2"]
        b = tropicalize_embedding(table1_datum(), fan)
        with pytest.raises(ValueError):
            compare_tropicalizations(a, b)

    def test_report_json(self):
        a = self.make()
        data = compare_tropicalizations(a, a).to_json()
        assert data["equal"] and data["strata_checked"] == 4


def former_adjacency(datum, fan):
    """The Groebner route's adjacency loop before its dimension pre-filter,
    with each face test made by one double-description sweep
    (``dd_is_face_of``) instead of the route's ``Cone.is_face_of``."""
    adjacency = {}
    for a in fan.cones:
        below = set()
        for b in fan.cones:
            if not dd_is_face_of(b.cone, a.cone):
                continue
            inherited = frozenset(
                name for name in a.colors
                if b.cone.contains(datum.color(name).rho))
            if inherited == b.colors:
                below.add(stratum_key(b))
        adjacency[stratum_key(a)] = frozenset(below)
    return adjacency


@settings(max_examples=150, deadline=None)
@given(data_and_collections())
def test_property_adjacency_is_the_former_loop(case):
    """On any collection, fan or not, with the route's validation skipped."""
    datum, fan = case
    with mock.patch.object(grobtrop, "validate_colored_fan",
                           lambda datum, fan: ValidationReport(ok=True)):
        trop = grobner_tropicalize_embedding(datum, fan)
    assert trop.adjacency == former_adjacency(datum, fan)
