import itertools
import re
from fractions import Fraction
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphtrop.linalg import MAX_DIM, InputError, rational_from_input
from sphtrop.puiseux import (
    INF,
    PuiseuxScalar,
    ResiduePolynomial,
    ValuedPolynomial,
    _term_weights,
    parse_weight,
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

    @pytest.mark.parametrize("a, b, message", [
        (PuiseuxScalar.from_terms([(k, 1) for k in range(300)]),
         PuiseuxScalar.from_terms([(k, 1) for k in range(300)]),
         "a product of Puiseux scalars with 300 x 300 terms exceeds the "
         "bound of 65536 term pairs"),
        (PuiseuxScalar.rational(2 ** 35000),
         PuiseuxScalar.rational(2 ** 35001),
         "a product of Puiseux scalars whose largest coefficients have "
         "70005 bits together exceeds the bound of 65536 bits"),
    ], ids=["term-pairs", "coefficient-bits"])
    def test_a_product_past_a_bound_raises_input_error(self, a, b, message):
        """``*`` is the one product of scalars, and it carries both bounds,
        so a library product is refused as a power or a witness is."""
        with pytest.raises(InputError, match=f"^{message}$"):
            a * b


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
        with pytest.raises(ValueError,
                           match="^orbit restriction requires ordinary mode$"):
            f.restrict_to_orbit({0})

    @pytest.mark.parametrize("laurent", [True, False],
                             ids=["laurent", "ordinary"])
    @pytest.mark.parametrize("sigma", [(), set(), frozenset()])
    def test_the_torus_restriction_is_the_polynomial_itself(self, laurent,
                                                            sigma):
        """The torus is an orbit in either mode, where f is its own
        restriction: the object itself, with its integer form."""
        f = ValuedPolynomial.parse("x1 + t*x2 + 1", laurent=laurent)
        assert f.restrict_to_orbit(sigma) is f


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
        # trailing whitespace is skipped; the zero polynomial prints as "0"
        for text, printed in (("x1 + 1 ", "x1 + 1"), ("x1 - x1", "0")):
            f = ValuedPolynomial.parse(text)
            assert str(f) == printed
            assert ValuedPolynomial.parse(str(f), nvars=f.nvars) == f

    def test_ordinary_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            ValuedPolynomial.parse("x1^-1", laurent=False)

    def test_parse_weight(self):
        assert parse_weight("(-2,0)", 2) == (F(-2), F(0))
        assert parse_weight("1/2, inf", 2) == (F(1, 2), INF)
        assert parse_weight("inf", 1)[0] is INF
        with pytest.raises(ValueError):
            parse_weight("1,2", nvars=3)
        with pytest.raises(InputError, match="exact rational"):
            parse_weight("1_0", 1)


# -- oracles: the per-term Fraction sums the term-weight helper replaced ----


def q_min(values):
    best = INF
    for v in values:
        if v is INF:
            continue
        if best is INF or v < best:
            best = v
    return best


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
# One term: its residue alone, or the zero form where it weighs infinity.
@example((ValuedPolynomial.parse("-2*t^(1/2)*x1*x2 + 3*t*x1*x2",
                                 laurent=False),
          [(F(1), F(-3, 2)), (INF, F(0))]))
# The minimal terms x1^2 and 1 have x1 between them in term order.
@example((ValuedPolynomial.parse("x1^2 + (t + t^3)*x1 - 5", laurent=False),
          [(F(0),)]))
def test_property_term_weights_agree_with_fraction_sums(case):
    f, weights = case
    for w in weights:
        expected = [fraction_term_weight(u, c, w) for u, c in f.terms]
        xs, d = _term_weights(f.weight_forms, w)
        assert [INF if x is None else Fraction(x, d) for x in xs] == expected
        value = f.trop_eval(w)
        assert value is INF or type(value) is Fraction
        assert value == q_min(expected)
        assert f.initial_form(w) == fraction_initial_form(f, w)


# The former ``restrict_to_orbit``, kept verbatim as an oracle: it built the
# restriction through ``from_dict``, which checks and sorts every term again.
def from_dict_restriction(self, sigma):
    if self.laurent:
        raise ValueError("orbit restriction requires ordinary mode")
    sigma = frozenset(sigma)
    if any(i < 0 or i >= self.nvars for i in sigma):
        raise ValueError("orbit index out of range")
    keep = [i for i in range(self.nvars) if i not in sigma]
    # Kept exponents vanish on sigma, so dropping it keeps them distinct.
    coeffs = {tuple(u[i] for i in keep): c for u, c in self.terms
              if not any(u[i] for i in sigma)}
    return ValuedPolynomial.from_dict(len(keep), coeffs, laurent=False)


@st.composite
def ordinary_polynomials(draw):
    """Ordinary polynomials in 1-4 variables, many terms on the boundary."""
    m = draw(st.integers(1, 4))
    exponents = draw(st.lists(st.tuples(*[st.integers(0, 2)] * m),
                              min_size=1, max_size=8, unique=True))
    return ValuedPolynomial.from_dict(m, {
        u: PuiseuxScalar.from_terms([(draw(RATIONALS), c), (5, 1)])
        for u, c in zip(exponents, draw(st.lists(
            st.sampled_from((-2, -1, 1, 3)), min_size=len(exponents),
            max_size=len(exponents))))}, laurent=False)


@settings(max_examples=200, deadline=None)
@given(ordinary_polynomials())
def test_property_restriction_is_the_from_dict_one(f):
    """On every orbit the restriction equals the one built through
    ``from_dict``, with its terms in the same order and the same integer
    form."""
    for k in range(f.nvars + 1):
        for sigma in itertools.combinations(range(f.nvars), k):
            got, want = f.restrict_to_orbit(sigma), from_dict_restriction(
                f, sigma)
            assert got == want
            assert [u for u, _ in got.terms] == [u for u, _ in want.terms]
            assert got.weight_forms == want.weight_forms


def test_scaled_terms_are_computed_once_and_are_no_part_of_equality():
    text = "t^(1/2)*x1 + (1/3)*t^(-2/3)*x2 + 1"
    f, g = (ValuedPolynomial.parse(text, nvars=2) for _ in range(2))
    before = (hash(f), repr(f))
    forms = f.weight_forms
    assert forms == ((((6, 0), 3), ((0, 6), -4), ((0, 0), 0)), 6)
    f.trop_eval((F(1), F(2)))
    f.initial_form((F(1), F(2)))
    assert f.weight_forms is forms
    assert "weight_forms" not in vars(g)
    assert f == g and (hash(f), repr(f)) == before == (hash(g), repr(g))


def test_term_weight_checks_the_weight_as_trop_eval_does():
    """initial_form, the other door onto the term weights, refuses a weight
    with the message of trop_eval."""
    f = ValuedPolynomial.parse("x1 + x2^-1 + 1", nvars=2)
    for bad in ((INF, F(0)), (F(0),)):
        with pytest.raises(ValueError) as raised:
            f.trop_eval(bad)
        with pytest.raises(ValueError, match=re.escape(str(raised.value))):
            f.initial_form(bad)


def test_infinity_orders_above_every_rational_and_absorbs_sums():
    for q in (F(-3), F(0), F(7, 2)):
        assert q < INF and not INF < q
        assert INF <= INF and not INF <= q
        assert sorted([INF, q]) == [q, INF]
        assert INF + q is INF and q + INF is INF
    with pytest.raises(ArithmeticError):
        -INF


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(RATIONALS, st.integers(-3, 3)), max_size=4),
       st.integers(0, 12))
def test_property_power_is_repeated_product(terms, n):
    s = PuiseuxScalar.from_terms(terms)
    product = PuiseuxScalar.rational(1)
    for _ in range(n):
        product = product * s
    assert s ** n == product


@st.composite
def laurent_polynomials(draw):
    """Laurent polynomials in 1-3 variables whose coefficients have 1-3 terms."""
    m = draw(st.integers(1, 3))
    exponents = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * m),
                              min_size=1, max_size=5, unique=True))
    nonzero = RATIONALS.filter(bool)
    coeffs = {u: PuiseuxScalar.from_terms(draw(st.lists(
                  st.tuples(RATIONALS, nonzero), min_size=1, max_size=3)))
              for u in exponents}
    return ValuedPolynomial.from_dict(m, coeffs), m


@settings(max_examples=300, deadline=None)
@given(laurent_polynomials())
def test_property_text_round_trips(case):
    f, m = case
    assert ValuedPolynomial.parse(str(f), nvars=m) == f


# -- oracle: the parser as it was before it built one dict of monomials -----
#
# It built a polynomial for every factor, product and partial sum, with the
# arithmetic below, which the library no longer has.  The methods and the
# parser are verbatim, with the class renamed OldPolynomial, the parser
# OldParser and _parse_polynomial old_parse_polynomial.  The tokenizer and
# the variable count are verbatim copies too, so that a fault in the
# library's own _tokenize or _max_var_index makes the two parsers differ.

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z]\w*|\^|\*|\+|-|\(|\))")


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def _max_var_index(tokens: list[str]) -> int:
    best = 0
    for tok in tokens:
        m = re.fullmatch(r"x(\d+)", tok)
        if m:
            best = max(best, int(m.group(1)))
    if best > MAX_DIM:
        raise InputError(f"variable x{best} exceeds the limit of {MAX_DIM} "
                         "variables")
    return best


class OldPolynomial(ValuedPolynomial):
    def coeff_dict(self) -> dict[tuple[int, ...], PuiseuxScalar]:
        return dict(self.terms)

    def __add__(self, other: "OldPolynomial") -> "OldPolynomial":
        acc = self.coeff_dict()
        for u, c in other.terms:
            acc[u] = acc.get(u, PuiseuxScalar.zero()) + c
        return OldPolynomial.from_dict(
            self.nvars, acc, self.laurent and other.laurent)

    def __neg__(self) -> "OldPolynomial":
        return OldPolynomial(
            self.nvars, self.laurent, tuple((u, -c) for u, c in self.terms))

    def __sub__(self, other: "OldPolynomial") -> "OldPolynomial":
        return self + (-other)

    def __mul__(self, other: "OldPolynomial") -> "OldPolynomial":
        acc: dict[tuple[int, ...], PuiseuxScalar] = {}
        for u, c in self.terms:
            for v, d in other.terms:
                w = tuple(a + b for a, b in zip(u, v))
                acc[w] = acc.get(w, PuiseuxScalar.zero()) + c * d
        return OldPolynomial.from_dict(
            self.nvars, acc, self.laurent and other.laurent)


class OldParser:
    """Recursive descent for sums of products of rationals, t-powers, and vars."""

    def __init__(self, tokens: list[str], nvars: int):
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.take()
        if got != tok:
            raise ValueError(f"expected {tok!r}, got {got!r}")

    def parse_expr(self) -> OldPolynomial:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        node = self.parse_term()
        if sign < 0:
            node = -node
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term(self) -> OldPolynomial:
        node = self.parse_factor()
        while self.peek() == "*":
            self.take()
            node = node * self.parse_factor()
        return node

    def parse_factor(self) -> OldPolynomial:
        tok = self.peek()
        if tok == "(":
            self.take()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok == "-":
            self.take()
            return -self.parse_factor()
        tok = self.take()
        if tok is None:
            raise ValueError("unexpected end of input")
        if re.fullmatch(r"\d+/\d+|\d+", tok):
            return self._const(PuiseuxScalar.rational(
                rational_from_input(tok)))
        if tok == "t":
            e = self._maybe_exponent()
            return self._const(PuiseuxScalar.t_power(e))
        m = re.fullmatch(r"x(\d+)", tok)
        if m:
            idx = int(m.group(1)) - 1
            if idx < 0 or idx >= self.nvars:
                raise ValueError(f"variable {tok} out of range")
            e = self._maybe_exponent()
            if e.denominator != 1:
                raise ValueError("variable exponents must be integers")
            u = tuple(int(e) if i == idx else 0 for i in range(self.nvars))
            return OldPolynomial.from_dict(
                self.nvars, {u: PuiseuxScalar.rational(1)})
        raise ValueError(f"unexpected token {tok!r}")

    def _maybe_exponent(self) -> Fraction:
        if self.peek() != "^":
            return Fraction(1)
        self.take()
        neg = False
        if self.peek() == "(":
            self.take()
            if self.peek() == "-":
                self.take()
                neg = True
            val = rational_from_input(self.take())
            self.expect(")")
        else:
            if self.peek() == "-":
                self.take()
                neg = True
            val = rational_from_input(self.take())
        return -val if neg else val

    def _const(self, s: PuiseuxScalar) -> OldPolynomial:
        u = (0,) * self.nvars
        return OldPolynomial.from_dict(self.nvars, {u: s})


def old_parse_polynomial(text: str, nvars: int | None, laurent: bool
                         ) -> OldPolynomial:
    tokens = _tokenize(text)
    if nvars is None:
        nvars = _max_var_index(tokens)
    parser = OldParser(tokens, nvars)
    poly = parser.parse_expr()
    if parser.peek() is not None:
        raise ValueError(f"trailing input at {parser.peek()!r}")
    if not laurent:
        poly = OldPolynomial.from_dict(poly.nvars, poly.coeff_dict(), laurent=False)
    return poly


# Text for the parser property.  Any text will do, since both parsers read
# the same one; these pieces make the interesting cases common: rationals
# and zero, t to fractional and negative powers, x1..x3 to negative powers
# (refused in ordinary mode unless they cancel), every exponent spelling,
# and an x4 that is out of range whenever nvars is given as 3 or less.
T_EXPONENTS = ("", "^2", "^-1", "^0", "^(1/2)", "^-3/2", "^(-2/3)", "^5/4")
X_EXPONENTS = ("", "", "^2", "^0", "^(3)", "^-1", "^(-2)")
NUMBERS = st.sampled_from(("0", "1", "2", "3", "1/2", "7/3", "10"))
T_POWERS = st.sampled_from(T_EXPONENTS).map(lambda e: "t" + e)
X_POWERS = st.builds(lambda i, e: f"x{i}{e}",
                     st.sampled_from((1, 1, 2, 2, 3, 3, 4)),
                     st.sampled_from(X_EXPONENTS))
MONOMIALS = st.builds(lambda c, t, x, y: f"{c}*{t}*{x}*{y}",
                      NUMBERS, T_POWERS, X_POWERS, X_POWERS)
SUMS = st.lists(st.tuples(st.sampled_from(("+", "-")), MONOMIALS),
                min_size=2, max_size=5).map(
    lambda terms: "(" + " ".join(op + " " + m for op, m in terms) + ")")
ATOMS = st.one_of(NUMBERS, T_POWERS, X_POWERS, MONOMIALS, SUMS)


def _grow(inner):
    signed = st.tuples(st.sampled_from(("+", "-")), inner)
    return st.one_of(
        inner.map(lambda a: f"({a})"),
        st.builds(lambda n, a: "-" * n + a, st.integers(1, 5), inner),
        # unary minus chains inside a product, where no sum absorbs them
        st.builds(lambda a, n, b: f"{a}*{'-' * n}{b}", inner,
                  st.integers(1, 5), st.one_of(inner, inner.map("({})".format))),
        st.builds(lambda a, rest: a + "".join(f" {op} {b}" for op, b in rest),
                  inner, st.lists(signed, min_size=1, max_size=4)),
        st.lists(inner.map(lambda a: f"({a})"), min_size=2, max_size=3)
        .map("*".join),
        st.builds(lambda a, b: f"{a}*{b}", inner, inner),
        st.builds(lambda a, b: f"{a} + {b} - ({b})", inner, inner),  # cancels
        st.builds(lambda a, b: f"{a} + 0*{b}", inner, inner))


EXPRESSIONS = st.recursive(ATOMS, _grow, max_leaves=20)
# Stray tokens; one in five texts has one in place of one of its characters.
STRAY = ("(", ")", "*", "+", "-", "^", "t^", "x0", "1/0", "x1^(", "x1^1/2",
         "?", "")


@st.composite
def parser_inputs(draw):
    text = draw(EXPRESSIONS)
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(STRAY)) + text[at + 1:]
    nvars = draw(st.sampled_from((None, None, None, 4, 4, 3, 1)))
    return text, nvars, draw(st.booleans())


def _outcome(parse, text, nvars, laurent):
    try:
        f = parse(text, nvars, laurent)
    except Exception as e:
        return type(e), str(e)
    return ValuedPolynomial(f.nvars, f.laurent, f.terms)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(parser_inputs())
def test_property_parser_agrees_with_the_old_parser(case):
    text, nvars, laurent = case
    assert (_outcome(ValuedPolynomial.parse, text, nvars, laurent)
            == _outcome(old_parse_polynomial, text, nvars, laurent))


LINE = ValuedPolynomial.parse("x1 + x2 + 1", laurent=False)
ONE = PuiseuxScalar.rational(1)


@pytest.mark.parametrize("call, message", [
    (lambda: ValuedPolynomial.from_dict(2, {(1,): ONE}),
     "exponent vector length mismatch"),
    (lambda: LINE.initial_form_substitution((INF, F(0))),
     "substitution form requires a finite weight"),
    (lambda: LINE.restrict_to_orbit({2}), "orbit index out of range"),
    (lambda: LINE.evaluate((ONE,)), "point length mismatch"),
    (lambda: LINE.evaluate((ONE, PuiseuxScalar.zero())),
     "torus point must have nonzero coordinates"),
    (lambda: LINE.evaluate((0.5, ONE)),
     "point coordinates must be Puiseux scalars"),
    (lambda: ValuedPolynomial.from_dict(1, {(1,): 0.5}),
     "coefficients must be Puiseux scalars"),
    (lambda: ValuedPolynomial.from_dict(1, {(1,): "1/2"}),
     "coefficients must be Puiseux scalars"),
    (lambda: ValuedPolynomial.from_dict(1, {(1,): F(1, 2)}),
     "coefficients must be Puiseux scalars"),
    (lambda: ValuedPolynomial.from_dict(1, {(1,): F(0)}),
     "coefficients must be Puiseux scalars"),
], ids=["from-dict-exponent-length", "substitution-infinite-weight",
        "orbit-index-out-of-range", "evaluate-point-length",
        "evaluate-zero-coordinate", "evaluate-float-coordinate",
        "from-dict-float-coefficient", "from-dict-str-coefficient",
        "from-dict-fraction-coefficient",
        "from-dict-zero-fraction-coefficient"])
def test_a_refused_input_raises_its_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("sigma", [{True}, {1.0}, {"1"}, {None}, {-1}, {2},
                                   {0, 5}],
                         ids=["bool", "float", "str", "none", "negative",
                              "past-the-end", "one-of-two"])
def test_an_orbit_index_that_is_not_an_int_in_range_is_refused(sigma):
    """A bool is not read as 1, and a float or a str raises the same
    ``ValueError`` as an index out of range, not a ``TypeError``."""
    with pytest.raises(ValueError, match="orbit index out of range"):
        LINE.restrict_to_orbit(sigma)


@pytest.mark.parametrize("call", [
    lambda x: PuiseuxScalar.rational(x),
    lambda x: PuiseuxScalar.t_power(x),
    lambda x: PuiseuxScalar.t_power(F(1, 2), x),
    lambda x: PuiseuxScalar.from_terms([(x, 3)]),
    lambda x: PuiseuxScalar.from_terms([(1, x)]),
    lambda x: ResiduePolynomial.from_dict(1, {(1,): x}),
], ids=["rational", "t_power-exponent", "t_power-coeff",
        "from_terms-exponent", "from_terms-coeff", "residue-from_dict-coeff"])
@pytest.mark.parametrize("x", [F(1, 2), 0.1, "1/2", True],
                         ids=["exact", "float", "str", "bool"])
def test_a_scalar_entry_must_be_exact(call, x):
    """A float is not read as the rational of its binary value, a string is
    not parsed and a bool is not read as 1: every constructor of a scalar
    takes ``int`` and ``Fraction`` entries only."""
    if type(x) is F:
        assert call(x)
    else:
        with pytest.raises(ValueError, match="expected exact rationals"):
            call(x)
