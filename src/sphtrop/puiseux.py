"""Finite-support Puiseux scalars, valued polynomials, and initial forms.

Coefficients live in Q((t^(1/n))) restricted to finite support; the base
field is Q.  Tropical evaluation and initial forms follow the min-plus
convention, with infinity handled explicitly: an infinite weight entry
sends every monomial with a nonzero exponent there to infinity.
Term weights clear the denominators of the weight once and compare
``int`` dot products; each finite term weight costs one ``Fraction``.
Text is parsed in one pass into one dict of monomials t^e x^u: a sum adds
into it, a product pairs the terms of its factors (at most
``MAX_TERM_PAIRS`` pairs over all products), parentheses nest at most
``MAX_NESTING`` deep, and one ``ValuedPolynomial`` is built at the end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from .linalg import (
    MAX_DIM,
    InputError,
    clear_denominators,
    dot,
    rational_from_input,
)


class _Infinity:
    """The point at infinity in Q-bar, a comparable singleton."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

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


def is_finite(x) -> bool:
    return x is not INF


def q_min(values: Iterable[ExtendedRational]) -> ExtendedRational:
    best: ExtendedRational = INF
    for v in values:
        if v is INF:
            continue
        if best is INF or v < best:
            best = v
    return best


@dataclass(frozen=True)
class PuiseuxScalar:
    """A finite sum of rational powers of t with rational coefficients.

    Terms are stored sorted by strictly increasing exponent with no zero
    coefficients; the zero scalar is the empty tuple.
    """

    terms: tuple[tuple[Fraction, Fraction], ...] = ()

    @classmethod
    def from_terms(cls, terms: Iterable[tuple] ) -> "PuiseuxScalar":
        acc: dict[Fraction, Fraction] = {}
        for e, c in terms:
            e, c = Fraction(e), Fraction(c)
            acc[e] = acc.get(e, Fraction(0)) + c
        return cls(tuple(sorted((e, c) for e, c in acc.items() if c != 0)))

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


def _term_weights(terms: Iterable[tuple[tuple[int, ...], PuiseuxScalar]],
                  w: ExtendedWeight) -> list[ExtendedRational]:
    """v(c) + u.w for every term (u, c), with the infinity convention.

    The finite entries of w are scaled once to ``int``s over a common
    denominator, so each finite term weight is one ``int`` dot product and
    one ``Fraction``.  A term with a nonzero exponent at an infinite entry
    weighs infinity.
    """
    inf_at = [i for i, x in enumerate(w) if x is INF]
    W, den = clear_denominators([0 if x is INF else x for x in w])
    out: list[ExtendedRational] = []
    for u, c in terms:
        if any(u[i] for i in inf_at):
            out.append(INF)
        else:
            v = c.valuation()
            out.append(Fraction(v.numerator * den + v.denominator * dot(u, W),
                                v.denominator * den))
    return out


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

    def term_weight(self, u: tuple[int, ...], c: PuiseuxScalar,
                    w: Sequence[ExtendedRational]) -> ExtendedRational:
        return _term_weights(((u, c),), tuple(w))[0]

    def _check_weight(self, w: Sequence[ExtendedRational]) -> ExtendedWeight:
        w = tuple(w)
        if len(w) != self.nvars:
            raise ValueError("weight length mismatch")
        if self.laurent and any(x is INF for x in w):
            raise ValueError("infinite weight entry on a Laurent polynomial")
        return w

    def trop_eval(self, w: Sequence[ExtendedRational]) -> ExtendedRational:
        """min over terms of v(a_u) + u.w, with the infinity conventions."""
        w = self._check_weight(w)
        return q_min(_term_weights(self.terms, w))

    def initial_form(self, w: Sequence[ExtendedRational]) -> ResiduePolynomial:
        """Sum of residues of the weight-minimal terms; zero if the min is infinite."""
        w = self._check_weight(w)
        best = self.trop_eval(w)
        if best is INF:
            return ResiduePolynomial.zero(self.nvars)
        coeffs = {
            u: c.leading_coefficient()
            for (u, c), x in zip(self.terms, _term_weights(self.terms, w))
            if x == best}
        return ResiduePolynomial.from_dict(self.nvars, coeffs)

    def initial_form_substitution(self, w: Sequence[Fraction]) -> ResiduePolynomial:
        """Residue of t^(-W) f(t^w1 x1, ..., t^wm xm); finite weights only."""
        w = self._check_weight(w)
        if any(x is INF for x in w):
            raise ValueError("substitution form requires a finite weight")
        best = self.trop_eval(w)
        if best is INF:
            return ResiduePolynomial.zero(self.nvars)
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
        if any(i < 0 or i >= self.nvars for i in sigma):
            raise ValueError("orbit index out of range")
        keep = [i for i in range(self.nvars) if i not in sigma]
        # Kept exponents vanish on sigma, so dropping it keeps them distinct.
        coeffs = {tuple(u[i] for i in keep): c for u, c in self.terms
                  if not any(u[i] for i in sigma)}
        return ValuedPolynomial.from_dict(len(keep), coeffs, laurent=False)

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
        return _parse_polynomial(text, nvars, laurent)


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
# Q-combination of such monomials.
_Monomials = dict[tuple[tuple[int, ...], Fraction], Fraction]


def _collect(pairs: Iterable[tuple]) -> _Monomials:
    """Sum the coefficients of equal keys and drop the zero ones."""
    acc: _Monomials = {}
    for k, c in pairs:
        acc[k] = acc.get(k, 0) + c
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
            node = _collect(((tuple(map(add, u, v)), e + f), c * d)
                            for (u, e), c in node.items()
                            for (v, f), d in factor.items())
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
        if re.fullmatch(r"\d+/\d+|\d+", tok):
            return _collect([((zero, 0), sign * rational_from_input(tok))])
        if tok == "t":
            return {(zero, self._maybe_exponent()): sign}
        m = re.fullmatch(r"x(\d+)", tok)
        if m:
            idx = int(m.group(1)) - 1
            if idx < 0 or idx >= self.nvars:
                raise ValueError(f"variable {tok} out of range")
            e = self._maybe_exponent()
            if e.denominator != 1:
                raise ValueError("variable exponents must be integers")
            u = tuple(int(e) if i == idx else 0 for i in range(self.nvars))
            return {(u, 0): sign}
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


def _parse_polynomial(text: str, nvars: int | None, laurent: bool
                      ) -> ValuedPolynomial:
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
    return ValuedPolynomial.from_dict(nvars, {
        u: PuiseuxScalar.from_terms(ts) for u, ts in coeffs.items()}, laurent)


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
