from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphtrop.puiseux import (
    INF,
    PuiseuxScalar,
    ResiduePolynomial,
    ValuedPolynomial,
    is_finite,
    parse_weight,
    q_min,
)

E3 = ("2*t + (t^-1 + 3*t^3)*x1 + (7 - t^1000)*x2 - 6*x1^2"
      " + 4*t^-2*x1*x2")


def scalar(text):
    f = ValuedPolynomial.parse(text, nvars=1)
    return f.terms[0][1]


class TestScalar:
    def test_arithmetic_and_valuation(self):
        a = scalar("t^-1 + 3*t^3")
        assert a.valuation() == F(-1)
        assert a.leading_coefficient() == 1
        assert (a - a) == PuiseuxScalar.zero()
        assert PuiseuxScalar.zero().valuation() is INF
        b = PuiseuxScalar.t_power(F(1, 2))
        assert (b * b).valuation() == 1

    def test_fractional_exponents(self):
        c = scalar("t^(1/2) + t")
        assert c.valuation() == F(1, 2)
        assert (c * c).valuation() == 1

    def test_constant_residue(self):
        assert scalar("7 - t^1000").constant_residue() == 7
        assert scalar("t + 2*t^2").constant_residue() == 0
        with pytest.raises(ValueError):
            scalar("t^-1").constant_residue()

    def test_negative_power_raises(self):
        with pytest.raises(ValueError):
            scalar("t") ** -1


class TestTropEval:
    def test_e3_values(self):
        f = ValuedPolynomial.parse(E3)
        assert f.trop_eval((F(-2), F(0))) == -4
        assert f.trop_eval((F(0), F(2))) == -1
        assert f.trop_eval((F(1), F(1))) == 0

    def test_infinite_entries(self):
        f = ValuedPolynomial.parse("x1 + x2 + 1", laurent=False)
        assert f.trop_eval((INF, F(3))) == 0
        g = ValuedPolynomial.parse("x1*x2", laurent=False)
        assert g.trop_eval((INF, F(0))) is INF

    def test_laurent_rejects_infinite_weight(self):
        f = ValuedPolynomial.parse("x1^-1 + x2")
        with pytest.raises(ValueError):
            f.trop_eval((INF, F(0)))


class TestInitialForm:
    def test_e3_initial_forms(self):
        f = ValuedPolynomial.parse(E3)
        assert str(f.initial_form((F(-2), F(0)))) == "-6*x1^2 + 4*x1*x2"
        assert str(f.initial_form((F(0), F(2)))) == "x1"
        assert str(f.initial_form((F(1), F(1)))) == "4*x1*x2 + x1"

    def test_substitution_definition_agrees(self):
        f = ValuedPolynomial.parse(E3)
        for w in [(F(-2), F(0)), (F(0), F(2)), (F(1), F(1)), (F(1, 2), F(3))]:
            assert f.initial_form(w) == f.initial_form_substitution(w)

    def test_monomial_detection(self):
        f = ValuedPolynomial.parse(E3)
        assert f.initial_form((F(0), F(2))).is_monomial()
        assert not f.initial_form((F(-2), F(0))).is_monomial()


class TestOrbitRestriction:
    def test_restrict(self):
        f = ValuedPolynomial.parse("x1 + x2 + 1", laurent=False)
        g = f.restrict_to_orbit({0})
        assert g.nvars == 1 and len(g.terms) == 2
        h = f.restrict_to_orbit({0, 1})
        assert h.nvars == 0 and len(h.terms) == 1

    def test_restrict_to_zero(self):
        f = ValuedPolynomial.parse("x1*x2 + x1", laurent=False)
        assert f.restrict_to_orbit({0}).is_zero()

    def test_laurent_cannot_restrict(self):
        f = ValuedPolynomial.parse("x1^-1 + x2")
        with pytest.raises(ValueError):
            f.restrict_to_orbit({0})


class TestEvaluate:
    def test_witness_evaluation(self):
        f = ValuedPolynomial.parse("x1 + x2 + 1", laurent=False)
        t = PuiseuxScalar.t_power(1)
        val = f.evaluate((t, -PuiseuxScalar.rational(1) - t))
        assert not val

    def test_laurent_evaluation_preserves_vanishing(self):
        # negative exponents are cleared by a monomial shift, so only the
        # vanishing locus is meaningful
        f = ValuedPolynomial.parse("x1^-1 - 1")
        assert not f.evaluate((PuiseuxScalar.rational(1),))
        assert f.evaluate((PuiseuxScalar.rational(2),))


class TestParsing:
    def test_round_trip_via_str(self):
        f = ValuedPolynomial.parse(E3)
        assert ValuedPolynomial.parse(str(f)) == f

    def test_ordinary_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            ValuedPolynomial.parse("x1^-1", laurent=False)

    def test_parse_weight(self):
        assert parse_weight("(-2,0)") == (F(-2), F(0))
        assert parse_weight("1/2, inf") == (F(1, 2), INF)
        assert not is_finite(parse_weight("inf")[0])
        with pytest.raises(ValueError):
            parse_weight("1,2", nvars=3)


# -- oracles: the per-term Fraction sums the term-weight helper replaced ----


def fraction_term_weight(u, c, w):
    total = c.valuation()
    for ui, wi in zip(u, w, strict=True):
        if wi is INF:
            if ui != 0:
                return INF
        else:
            total = total + ui * wi
    return total


def fraction_initial_form(f, w):
    best = q_min(fraction_term_weight(u, c, w) for u, c in f.terms)
    if best is INF:
        return ResiduePolynomial.zero(f.nvars)
    return ResiduePolynomial.from_dict(f.nvars, {
        u: c.leading_coefficient()
        for u, c in f.terms if fraction_term_weight(u, c, w) == best})


RATIONALS = st.builds(F, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def polynomials_and_weights(draw):
    """A polynomial with fractional valuations and weights, some with ties.

    Ordinary polynomials get weights with infinite entries; Laurent ones
    get finite weights.  Each weight is also moved along one coordinate
    so that two chosen terms weigh the same, which makes initial forms
    with several terms common.
    """
    laurent = draw(st.booleans())
    m = draw(st.integers(1, 3))
    low = -2 if laurent else 0
    exponents = draw(st.lists(st.tuples(*[st.integers(low, 3)] * m),
                              min_size=1, max_size=6, unique=True))
    coeffs = {u: PuiseuxScalar.from_terms(
                  [(v, draw(st.sampled_from((-2, -1, 1, 3)))), (v + 2, 1)])
              for u, v in zip(exponents, draw(st.lists(
                  RATIONALS, min_size=len(exponents),
                  max_size=len(exponents))))}
    f = ValuedPolynomial.from_dict(m, coeffs, laurent=laurent)
    entry = RATIONALS if laurent else st.one_of(RATIONALS, st.just(INF))
    weights = draw(st.lists(st.tuples(*[entry] * m), min_size=1, max_size=3))
    for w in list(weights):
        (ui, ci), (uj, cj) = draw(st.lists(st.sampled_from(f.terms),
                                           min_size=2, max_size=2))
        k = next((k for k in range(m)
                  if w[k] is not INF and ui[k] != uj[k]), None)
        if k is None:
            continue
        rest = sum((b - a) * x for i, (a, b, x) in enumerate(zip(ui, uj, w))
                   if i != k and x is not INF)
        tied = list(w)
        tied[k] = (cj.valuation() - ci.valuation() + rest) / (ui[k] - uj[k])
        weights.append(tuple(tied))
    return f, weights


@settings(max_examples=200, deadline=None)
@given(polynomials_and_weights())
def test_property_term_weights_agree_with_fraction_sums(case):
    f, weights = case
    for w in weights:
        expected = [fraction_term_weight(u, c, w) for u, c in f.terms]
        assert [f.term_weight(u, c, w) for u, c in f.terms] == expected
        assert f.trop_eval(w) == q_min(expected)
        assert f.initial_form(w) == fraction_initial_form(f, w)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(RATIONALS, st.integers(-3, 3)), max_size=4),
       st.integers(0, 12))
def test_property_power_is_repeated_product(terms, n):
    s = PuiseuxScalar.from_terms(terms)
    product = PuiseuxScalar.rational(1)
    for _ in range(n):
        product = product * s
    assert s ** n == product
