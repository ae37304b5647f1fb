"""Finite-support Puiseux scalars, valued polynomials, and initial forms.

Coefficients live in Q((t^(1/n))) restricted to finite support; the base
field is Q.  Tropical evaluation and initial forms follow the min-plus
convention, with infinity handled explicitly: an infinite weight entry
sends every monomial with a nonzero exponent there to infinity.
This module alone turns a polynomial into integers, once, as its
``weight_forms``, which checks each exponent's length once per polynomial;
term weights, initial forms and the hypersurface cells read that form.
Each weight clears its own denominators once and takes its products with
the exponents inline, so ``trop_eval`` builds one ``Fraction`` (its
minimum) and ``initial_form`` picks the minimal terms by ``int`` comparison.
A polynomial's terms are sorted by decreasing exponent, collected and
nonzero, and values built from them keep that order without a new sort:
the residue of an initial form is read off the minimal terms in order,
and an orbit restriction drops coordinates that are 0 on every kept term.
Text is parsed in one pass into one dict of monomials t^e x^u: a sum adds
into it, a product pairs the terms of its factors (at most
``MAX_TERM_PAIRS`` pairs over all products; with a single monomial no two
keys meet, so nothing is collected), parentheses nest at most
``MAX_NESTING`` deep, and one ``ValuedPolynomial`` is built at the end, each
coefficient from its sorted terms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, total_ordering
from operator import add, mul
from typing import Iterable, Mapping, Sequence

from .linalg import (
    MAX_DIM,
    InputError,
    clear_denominators,
    rational_from_input,
)


@total_ordering
class _Infinity:
    """The point at infinity in Q-bar, a comparable singleton: nothing is
    above it, it equals itself alone, and its repr is the ``inf`` that JSON
    and the CLI print."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("cannot negate infinity")

    def __repr__(self):
        return "inf"


INF = _Infinity()

ExtendedRational = Fraction | _Infinity
ExtendedWeight = tuple[ExtendedRational, ...]


@dataclass(frozen=True)
class PuiseuxScalar:
    """A finite sum of rational powers of t with rational coefficients.

    Terms are stored sorted by strictly increasing exponent with no zero
    coefficients; the zero scalar is the empty tuple.
    """

    terms: tuple[tuple[Fraction, Fraction], ...] = ()

    @classmethod
    def from_terms(cls, terms: Iterable[tuple] ) -> "PuiseuxScalar":
        return cls(tuple(sorted(_collect(
            (Fraction(e), Fraction(c)) for e, c in terms).items())))

    @classmethod
    def zero(cls) -> "PuiseuxScalar":
        return cls()

    @classmethod
    def rational(cls, q) -> "PuiseuxScalar":
        return cls.from_terms([(Fraction(0), Fraction(q))])

    @classmethod
    def t_power(cls, exponent, coeff=1) -> "PuiseuxScalar":
        return cls.from_terms([(Fraction(exponent), Fraction(coeff))])

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "PuiseuxScalar") -> "PuiseuxScalar":
        return PuiseuxScalar.from_terms(self.terms + other.terms)

    def __neg__(self) -> "PuiseuxScalar":
        return PuiseuxScalar(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "PuiseuxScalar") -> "PuiseuxScalar":
        return self + (-other)

    def __mul__(self, other: "PuiseuxScalar") -> "PuiseuxScalar":
        return PuiseuxScalar.from_terms(
            (e1 + e2, c1 * c2)
            for e1, c1 in self.terms for e2, c2 in other.terms)

    def __pow__(self, n: int) -> "PuiseuxScalar":
        """Repeated squaring; each product is bounded by ``MAX_TERM_PAIRS``."""
        if n < 0:
            raise ValueError("negative powers of Puiseux scalars are not finite-support")
        out, base = PuiseuxScalar.rational(1), self
        while n:
            if n & 1:
                out = _bounded_product(out, base)
            n >>= 1
            if n:
                base = _bounded_product(base, base)
        return out

    def valuation(self) -> ExtendedRational:
        """Least exponent with nonzero coefficient; infinity for zero."""
        return self.terms[0][0] if self.terms else INF

    def leading_coefficient(self) -> Fraction:
        """Residue of t^(-v(s)) * s, i.e. the coefficient at the valuation."""
        return self.terms[0][1] if self.terms else Fraction(0)

    def constant_residue(self) -> Fraction:
        """Image in the residue field of an element of the valuation ring."""
        if self.terms and self.terms[0][0] < 0:
            raise ValueError("scalar has negative valuation, not in the valuation ring")
        for e, c in self.terms:
            if e == 0:
                return c
        return Fraction(0)

    def shift(self, exponent) -> "PuiseuxScalar":
        d = Fraction(exponent)
        return PuiseuxScalar(tuple((e + d, c) for e, c in self.terms))

    def __str__(self) -> str:
        return _signed_sum(
            _term(str(c), "t" if e == 1 else f"t^{_exp_str(e)}" if e else "")
            for e, c in self.terms)


# Most term pairs of one product in a power or witness evaluation (where
# (1 + t)^n has n + 1 terms), and of all the products in one parse.
MAX_TERM_PAIRS = 2 ** 16
# Most bits (numerator plus denominator) that the largest coefficients of
# the two factors of such a product may have together: 2^n has one term but
# n + 1 bits, so a power of a constant is unbounded work too.
MAX_COEFF_BITS = 2 ** 16


def _bounded_product(a: PuiseuxScalar, b: PuiseuxScalar) -> PuiseuxScalar:
    m, n = len(a.terms), len(b.terms)
    if m * n > MAX_TERM_PAIRS:
        raise InputError(f"a product of Puiseux scalars with {m} x {n} terms "
                         f"exceeds the bound of {MAX_TERM_PAIRS} term pairs")
    bits = sum(max((c.numerator.bit_length() + c.denominator.bit_length()
                    for _, c in s.terms), default=0) for s in (a, b))
    if bits > MAX_COEFF_BITS:
        raise InputError(
            f"a product of Puiseux scalars whose largest coefficients have "
            f"{bits} bits together exceeds the bound of {MAX_COEFF_BITS} bits")
    return a * b


WeightForms = tuple[tuple[tuple[tuple[int, ...], int], ...], int]


def _term_weights(forms: WeightForms, w: ExtendedWeight
                  ) -> tuple[list[int | None], int]:
    """v(a) + u.w for every term, as ``int``s over one denominator.

    Returns the numerators and their common denominator ``den * dv``: w's
    finite entries are cleared once to ``W / den``, so each term weight is
    ``V * den + U . W`` for the term's pair (U, V), products inline.  A
    term with a nonzero exponent at an infinite entry of w weighs infinity,
    ``None``; only a w with an infinite entry is scanned for such terms.
    """
    pairs, dv = forms
    inf_at = [i for i, x in enumerate(w) if x is INF]
    W, den = clear_denominators([0 if x is INF else x for x in w])
    return [None if inf_at and any(U[i] for i in inf_at)
            else V * den + sum(map(mul, U, W))
            for U, V in pairs], den * dv


def _exp_str(e: Fraction) -> str:
    if e.denominator == 1:
        return str(e.numerator)
    return f"({e.numerator}/{e.denominator})"


def _term(cs: str, name: str) -> str:
    """The text of a coefficient, given as text, times a monomial name."""
    if not name:
        return cs
    return name if cs == "1" else f"-{name}" if cs == "-1" else f"{cs}*{name}"


def _monomial(u: tuple[int, ...]) -> str:
    """The text of x^u, such as x1^2*x2; empty for the constant monomial."""
    return "*".join(f"x{i+1}" if p == 1 else f"x{i+1}^{p}"
                    for i, p in enumerate(u) if p != 0)


def _signed_sum(pieces: Iterable[str]) -> str:
    """Pieces joined by " + ", or by " - " in place of a piece's leading
    minus sign; "0" for no pieces.  A parenthesised coefficient is never
    negated outside its parentheses, so no piece starts with "-("."""
    pieces = list(pieces)
    if not pieces:
        return "0"
    out = pieces[0]
    for p in pieces[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


@dataclass(frozen=True)
class ResiduePolynomial:
    """A polynomial over the residue field Q (image of an initial form)."""

    nvars: int
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    @classmethod
    def from_dict(cls, nvars: int, coeffs: Mapping[tuple[int, ...], Fraction]
                  ) -> "ResiduePolynomial":
        items = tuple(sorted(
            ((u, Fraction(c)) for u, c in coeffs.items() if c != 0),
            key=lambda t: t[0], reverse=True))
        return cls(nvars, items)

    @classmethod
    def zero(cls, nvars: int) -> "ResiduePolynomial":
        return cls(nvars, ())

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __str__(self) -> str:
        return _signed_sum(_term(str(c), _monomial(u)) for u, c in self.terms)


@dataclass(frozen=True)
class ValuedPolynomial:
    """A (Laurent) polynomial in x1..xm with Puiseux-scalar coefficients."""

    nvars: int
    laurent: bool
    terms: tuple[tuple[tuple[int, ...], PuiseuxScalar], ...]

    @classmethod
    def from_dict(cls, nvars: int, coeffs: Mapping[tuple[int, ...], PuiseuxScalar],
                  laurent: bool = True) -> "ValuedPolynomial":
        items = []
        for u, c in coeffs.items():
            if any(type(e) is not int for e in u):
                raise InputError(f"exponents must be integers, got {u!r}")
            if len(u) != nvars:
                raise ValueError("exponent vector length mismatch")
            if not laurent and any(e < 0 for e in u):
                raise ValueError("negative exponent in ordinary mode")
            if c:
                items.append((u, c))
        return cls(nvars, laurent, tuple(sorted(items, key=lambda t: t[0], reverse=True)))

    @classmethod
    def zero(cls, nvars: int, laurent: bool = True) -> "ValuedPolynomial":
        return cls(nvars, laurent, ())

    def is_zero(self) -> bool:
        return not self.terms

    # -- tropical semantics -------------------------------------------

    @cached_property
    def weight_forms(self) -> WeightForms:
        """Per term the ``int`` pair (dv u, dv v(a)), and dv, the lcm of the
        valuations' denominators: the term weighs (dv u . w + dv v(a)) / dv.
        The one integer form of f, read by the term weights and the cells
        of ``fundthm.trop_hypersurface``; no part of ``==`` or ``hash``."""
        if any(len(u) != self.nvars for u, _ in self.terms):
            raise ValueError("dimension mismatch")  # built without from_dict
        V, dv = clear_denominators([c.valuation() for _, c in self.terms])
        return tuple((tuple(dv * a for a in u), v)
                     for (u, _), v in zip(self.terms, V)), dv

    def term_weights(self, w: Sequence[ExtendedRational]
                     ) -> list[ExtendedRational]:
        """Each term's v(a_u) + u.w, with the conventions of ``trop_eval``."""
        xs, d = _term_weights(self.weight_forms, self._check_weight(w))
        return [INF if x is None else Fraction(x, d) for x in xs]

    def _check_weight(self, w: Sequence[ExtendedRational]) -> ExtendedWeight:
        w = tuple(w)
        if len(w) != self.nvars:
            raise ValueError("weight length mismatch")
        if self.laurent and any(x is INF for x in w):
            raise ValueError("infinite weight entry on a Laurent polynomial")
        return w

    def trop_eval(self, w: Sequence[ExtendedRational]) -> ExtendedRational:
        """min over terms of v(a_u) + u.w, with the infinity conventions."""
        xs, d = _term_weights(self.weight_forms, self._check_weight(w))
        best = min((x for x in xs if x is not None), default=None)
        return INF if best is None else Fraction(best, d)

    def initial_form(self, w: Sequence[ExtendedRational]) -> ResiduePolynomial:
        """Sum of residues of the weight-minimal terms; zero if the min is infinite."""
        w = self._check_weight(w)
        best = self.trop_eval(w)
        if best is INF:
            return ResiduePolynomial.zero(self.nvars)
        xs, d = _term_weights(self.weight_forms, w)
        best = best.numerator * (d // best.denominator)
        # The terms are sorted and their leading coefficients are nonzero.
        return ResiduePolynomial(self.nvars, tuple(
            (u, c.leading_coefficient())
            for (u, c), x in zip(self.terms, xs) if x == best))

    def initial_form_substitution(self, w: Sequence[Fraction]) -> ResiduePolynomial:
        """Residue of t^(-W) f(t^w1 x1, ..., t^wm xm); finite weights only."""
        w = self._check_weight(w)
        if any(x is INF for x in w):
            raise ValueError("substitution form requires a finite weight")
        best = self.trop_eval(w)
        coeffs = {}
        for u, c in self.terms:
            shifted = c.shift(sum(ui * wi for ui, wi in zip(u, w)) - best)
            coeffs[u] = shifted.constant_residue()
        return ResiduePolynomial.from_dict(self.nvars, coeffs)

    def restrict_to_orbit(self, sigma: Iterable[int]) -> "ValuedPolynomial":
        """Drop terms with positive exponent on sigma (0-based) and reindex.

        Models restriction to the torus orbit where the sigma coordinates
        vanish; only defined in ordinary mode.
        """
        if self.laurent:
            raise ValueError("orbit restriction requires ordinary mode")
        sigma = frozenset(sigma)
        if any(type(i) is not int or not 0 <= i < self.nvars for i in sigma):
            raise ValueError(f"orbit index out of range: expected ints in "
                             f"range({self.nvars}), got {set(sigma)!r}")
        keep = [i for i in range(self.nvars) if i not in sigma]
        # Kept exponents vanish on sigma, so dropping it keeps them distinct
        # and in the same decreasing order.
        return ValuedPolynomial(len(keep), False, tuple(
            (tuple(u[i] for i in keep), c) for u, c in self.terms
            if not any(u[i] for i in sigma)))

    def evaluate(self, point: Sequence[PuiseuxScalar]) -> PuiseuxScalar:
        """Exact evaluation at a torus point (all coordinates nonzero).

        For Laurent input the polynomial is first multiplied by a monomial
        clearing negative exponents, which does not change vanishing.  No
        product of scalars, powers included, may form more than
        ``MAX_TERM_PAIRS`` term pairs; ``InputError`` is raised instead.
        """
        point = list(point)
        if len(point) != self.nvars:
            raise ValueError("point length mismatch")
        if any(not p for p in point):
            raise ValueError("torus point must have nonzero coordinates")
        shift = [min(0, min((u[i] for u, _ in self.terms), default=0))
                 for i in range(self.nvars)]
        total = PuiseuxScalar.zero()
        for u, c in self.terms:
            val = c
            for i, p in enumerate(point):
                val = _bounded_product(val, p ** (u[i] - shift[i]))
            total = total + val
        return total

    def __str__(self) -> str:
        parts = []
        for u, c in self.terms:
            cs = str(c)
            if "+" in cs or " - " in cs:
                cs = f"({cs})"
            parts.append(_term(cs, _monomial(u)))
        return _signed_sum(parts)

    @classmethod
    def parse(cls, text: str, nvars: int | None = None,
              laurent: bool = True) -> "ValuedPolynomial":
        tokens = _tokenize(text)
        if nvars is None:
            nvars = _max_var_index(tokens)
        parser = _Parser(tokens, nvars)
        monomials = parser.parse_expr()
        if parser.peek() is not None:
            raise ValueError(f"trailing input at {parser.peek()!r}")
        coeffs: dict[tuple[int, ...], list] = {}
        for (u, e), c in monomials.items():
            coeffs.setdefault(u, []).append((e, c))
        # The monomials are collected: each sorted list is a canonical scalar.
        return cls.from_dict(nvars, {
            u: PuiseuxScalar(tuple(sorted(ts))) for u, ts in coeffs.items()},
            laurent)


# -- parsing --------------------------------------------------------------

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


# Deepest nesting of parentheses in polynomial text: the parser recurses
# once per level.
MAX_NESTING = 64

# A parsed expression: the nonzero rational coefficient of t^e x^u under
# the key (u, e), since a finite-support Puiseux polynomial is a finite
# Q-combination of such monomials.  Every e and coefficient is a
# ``Fraction``, so a parsed scalar needs no conversion.
_Monomials = dict[tuple[tuple[int, ...], Fraction], Fraction]
_ZERO = Fraction(0)
_ONE = {1: Fraction(1), -1: Fraction(-1)}


def _collect(pairs: Iterable[tuple]) -> _Monomials:
    """Sum the coefficients of equal keys and drop the zero ones."""
    acc: _Monomials = {}
    for k, c in pairs:
        acc[k] = acc[k] + c if k in acc else c
    return {k: c for k, c in acc.items() if c}


class _Parser:
    """Recursive descent for sums of products of rationals, t-powers, and vars."""

    def __init__(self, tokens: list[str], nvars: int):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.pairs = 0
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

    def parse_expr(self) -> _Monomials:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        terms = [(sign, self.parse_term())]
        while self.peek() in ("+", "-"):
            terms.append((1 if self.take() == "+" else -1, self.parse_term()))
        return _collect((k, s * c) for s, term in terms for k, c in term.items())

    def parse_term(self) -> _Monomials:
        node = self.parse_factor()
        while self.peek() == "*":
            self.take()
            factor = self.parse_factor()
            self.pairs += len(node) * len(factor)
            if self.pairs > MAX_TERM_PAIRS:
                raise InputError(f"the products in one polynomial form over "
                                 f"{MAX_TERM_PAIRS} term pairs")
            pairs = (((tuple(map(add, u, v)), e + f if e and f else e or f),
                      c * d)
                     for (u, e), c in node.items()
                     for (v, f), d in factor.items())
            # Times one monomial, no two keys meet and no coefficient is 0.
            node = (dict(pairs) if len(node) == 1 or len(factor) == 1
                    else _collect(pairs))
        return node

    def parse_factor(self) -> _Monomials:
        """A factor after a chain of unary minus signs, taken in a loop."""
        sign = 1
        while self.peek() == "-":
            self.take()
            sign = -sign
        zero = (0,) * self.nvars
        tok = self.take()
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise InputError(f"parentheses nested over {MAX_NESTING} deep")
            self.depth += 1
            node = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return {k: sign * c for k, c in node.items()}
        if tok is None:
            raise ValueError("unexpected end of input")
        if tok[0].isdecimal():  # the tokenizer's numbers start with \d
            q = rational_from_input(tok)
            return {(zero, _ZERO): q if sign > 0 else -q} if q else {}
        if tok == "t":
            return {(zero, self._maybe_exponent()): _ONE[sign]}
        m = re.fullmatch(r"x(\d+)", tok)
        if m:
            idx = int(m.group(1)) - 1
            if idx < 0 or idx >= self.nvars:
                raise ValueError(f"variable {tok} out of range")
            e = self._maybe_exponent()
            if e.denominator != 1:
                raise ValueError("variable exponents must be integers")
            u = tuple(int(e) if i == idx else 0 for i in range(self.nvars))
            return {(u, _ZERO): _ONE[sign]}
        raise ValueError(f"unexpected token {tok!r}")

    def _maybe_exponent(self) -> Fraction:
        """An optional "^q", "^-q", "^(q)" or "^(-q)"; 1 when absent."""
        if self.peek() != "^":
            return Fraction(1)
        self.take()
        paren = self.peek() == "("
        if paren:
            self.take()
        neg = self.peek() == "-"
        if neg:
            self.take()
        val = rational_from_input(self.take())
        if paren:
            self.expect(")")
        return -val if neg else val


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


def parse_weight(text: str, nvars: int | None = None) -> ExtendedWeight:
    """Parse a weight like "(-2,0)", "1/2,inf" into Fractions and INF."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    entries = [e.strip() for e in body.split(",")] if body else []
    out = []
    for e in entries:
        if e.lower() in ("inf", "infinity", "oo", "∞"):
            out.append(INF)
        else:
            out.append(rational_from_input(e))
    if nvars is not None and len(out) != nvars:
        raise ValueError("weight length mismatch")
    return tuple(out)
