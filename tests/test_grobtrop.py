from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings

from sphtrop import grobtrop, puiseux
from sphtrop.examples import all_fans, blowup_a4, e3_polynomial
from sphtrop.grobtrop import (
    compare_tropicalizations,
    graded_initial_form,
    grobner_tropicalize_embedding,
)
from sphtrop.polyhedra import Cone
from sphtrop.puiseux import INF, ValuedPolynomial
from sphtrop.spherical import ColoredCone, ColoredFan, ValidationReport
from sphtrop.troposphere import (ExtendedTrop, stratum_key,
                                 tropicalize_embedding)
from test_polyhedra import dd_is_face_of
from test_puiseux import (fraction_initial_form, fraction_term_weight,
                          polynomials_and_weights, q_min)
from test_spherical import data_and_collections


class TestGradedInitialForm:
    def test_finite_weight_matches_initial_form(self):
        f = e3_polynomial()
        for w in [(F(-2), F(0)), (F(0), F(2)), (F(1), F(1))]:
            g = graded_initial_form(f, w)
            assert g.grade == f.trop_eval(w)
            assert g.residue == f.initial_form(w)
            assert g.representative.trop_eval(w) == g.grade
            assert g.infinite_part.is_zero()

    def test_infinite_entry_splits_summands(self):
        f = ValuedPolynomial.parse("x1 + x2", laurent=False)
        g = graded_initial_form(f, (INF, F(0)))
        assert g.grade == 0
        assert str(g.representative) == "x2"
        assert str(g.infinite_part) == "x1"
        assert g.is_unit_class()

    def test_all_terms_infinite(self):
        f = ValuedPolynomial.parse("x1*x2", laurent=False)
        g = graded_initial_form(f, (INF, F(0)))
        assert g.grade is INF
        assert g.representative == f
        assert g.residue.is_zero()
        assert not g.is_unit_class()


def test_graded_initial_form_computes_the_term_weights_once():
    parse = lambda text: ValuedPolynomial.parse(text, laurent=False)
    for f, w in [(parse("x1 + t*x2 + 1"), (F(0), F(0))),
                 (parse("x1 + x2"), (INF, F(0))),
                 (parse("x1*x2"), (INF, F(0))),
                 (ValuedPolynomial.zero(2, laurent=False), (F(1), F(2)))]:
        with mock.patch.object(puiseux, "_term_weights",
                               wraps=puiseux._term_weights) as spy:
            g = graded_initial_form(f, w)
        assert spy.call_count == 1
        assert g.grade == f.trop_eval(w)
        assert g.residue == f.initial_form(w)


def fraction_graded_initial_form(f, v):
    """The grade, representative, infinite part and residue of f under v,
    from per-term ``Fraction`` sums."""
    weights = [fraction_term_weight(u, c, v) for u, c in f.terms]
    grade = q_min(weights)
    finite_min = {u: c for (u, c), x in zip(f.terms, weights)
                  if x is not INF and x == grade}
    infinite = {u: c for (u, c), x in zip(f.terms, weights) if x is INF}
    rep = f if grade is INF else ValuedPolynomial.from_dict(
        f.nvars, finite_min, laurent=f.laurent)
    return (grade, rep,
            ValuedPolynomial.from_dict(f.nvars, infinite, laurent=f.laurent),
            fraction_initial_form(f, v))


@settings(max_examples=150, deadline=None)
@given(polynomials_and_weights())
def test_property_graded_initial_form_agrees_with_fraction_sums(case):
    f, weights = case
    for v in weights:
        g = graded_initial_form(f, v)
        assert (g.grade, g.representative, g.infinite_part, g.residue) == \
            fraction_graded_initial_form(f, v)


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
