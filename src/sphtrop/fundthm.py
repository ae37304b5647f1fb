"""Tropical hypersurfaces and fundamental-theorem set comparisons.

For a hypersurface V(f) the three sets of the fundamental theorem are
checked against each other: the min-attained-twice locus (a polyhedral
complex), the initial-form criterion, and coordinatewise valuations of
user-supplied witness points.  Only principal ideals are handled; for
those the initial ideal is generated by the initial form of f.

Both sides run on integers.  A weight is scaled once by the lcm of its
denominators, so every cell test compares ``int`` dot products of the
primitive cell rows; a polynomial's valuations are scaled once by the lcm
of theirs, so every cell row is built from ``int``s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import IntVector, Vector, clear_denominators, dot, primitive, vec
from .polyhedra import affine_feasible
from .puiseux import (
    INF,
    ExtendedRational,
    PuiseuxScalar,
    ValuedPolynomial,
    is_finite,
)

Constraint = tuple[IntVector, int]  # coeffs . w  (rel)  rhs


def canonical_constraint(coeffs: Sequence, rhs, fix_sign: bool = False
                         ) -> Constraint:
    """The constraint scaled by a positive rational to primitive integers."""
    row = primitive((*coeffs, rhs), fix_sign=fix_sign)
    return row[:-1], row[-1]


@dataclass(frozen=True)
class Cell:
    """An affine polyhedron {w : Aw = a, Bw >= b} in weight space."""

    dim: int
    equalities: tuple[Constraint, ...]
    inequalities: tuple[Constraint, ...]

    def contains(self, w: Sequence[Fraction]) -> bool:
        return self._contains_scaled(*clear_denominators(w))

    def _contains_scaled(self, W: IntVector, den: int) -> bool:
        """Whether ``W / den`` lies in the cell, for ``W`` and ``den > 0`` ints."""
        return (all(dot(c, W) == r * den for c, r in self.equalities)
                and all(dot(c, W) >= r * den for c, r in self.inequalities))

    def is_empty(self) -> bool:
        return not affine_feasible(
            list(self.equalities), list(self.inequalities), [], self.dim)


@dataclass(frozen=True)
class TropicalComplex:
    """A finite union of affine cells; the empty union is the empty set."""

    ambient_dim: int
    cells: tuple[Cell, ...]

    @classmethod
    def empty(cls, dim: int) -> "TropicalComplex":
        return cls(dim, ())

    @classmethod
    def whole_space(cls, dim: int) -> "TropicalComplex":
        return cls(dim, (Cell(dim, (), ()),))

    def contains(self, w: Sequence[Fraction]) -> bool:
        W, den = clear_denominators(vec(w))
        if len(W) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        return any(cell._contains_scaled(W, den) for cell in self.cells)

    def is_empty_set(self) -> bool:
        return not self.cells


def trop_hypersurface(f: ValuedPolynomial) -> TropicalComplex:
    """The locus where the minimum of v(a_u) + u.w is attained at least twice.

    One cell per pair of terms achieving a common minimum; empty cells are
    pruned by exact feasibility on the double-description sweep.  The
    valuations are scaled once by the lcm ``D`` of their denominators, so
    every row ``(D (u_i - u_j), D (v_j - v_i))`` is built in ``int``s; the
    positive factor ``D`` is divided out again by ``canonical_constraint``.
    """
    if f.is_zero():
        raise ValueError("tropical hypersurface of the zero polynomial")
    vals, D = clear_denominators([c.valuation() for _, c in f.terms])
    terms = [(tuple(D * a for a in u), v) for (u, _), v in zip(f.terms, vals)]
    m, n = f.nvars, len(terms)
    # row[i][k]: term k weighs at least term i; row[j][i] gives pair (i, j)'s
    # equation.  Each is built once and shared by the cells that use it.
    row = [[canonical_constraint([a - b for a, b in zip(uk, ui)], ci - ck)
            if k != i else None for k, (uk, ck) in enumerate(terms)]
           for i, (ui, ci) in enumerate(terms)]
    cells: list[Cell] = []
    seen = set()
    for i in range(n):
        for j in range(i + 1, n):
            eq = canonical_constraint(*row[j][i], fix_sign=True)
            ineqs = tuple(sorted(
                row[i][k] for k in range(n) if k not in (i, j)))
            cell = Cell(m, (eq,), ineqs)
            key = (cell.equalities, cell.inequalities)
            if key in seen:
                continue
            seen.add(key)
            if not cell.is_empty():
                cells.append(cell)
    return TropicalComplex(m, tuple(cells))


def membership_set2(f: ValuedPolynomial, w: Sequence[ExtendedRational]) -> bool:
    """Initial-ideal criterion for a principal ideal.

    The initial ideal of (f) is generated by in_w(f); it contains a
    (unit) monomial exactly when in_w(f) is a nonzero monomial.
    """
    form = f.initial_form(w)
    return not form.is_monomial()


def extended_trop_sets(f: ValuedPolynomial
                       ) -> dict[frozenset[int], TropicalComplex]:
    """Per-orbit tropical sets of the extended theorem (0-based orbit indices).

    A zero restriction means the hypersurface contains the whole orbit, so
    the full stratum is returned; a monomial restriction has empty locus.
    """
    if f.laurent:
        raise ValueError("extended sets require ordinary mode")
    m = f.nvars
    out: dict[frozenset[int], TropicalComplex] = {}
    for mask in range(1 << m):
        sigma = frozenset(i for i in range(m) if mask >> i & 1)
        g = f.restrict_to_orbit(sigma)
        if g.is_zero():
            out[sigma] = TropicalComplex.whole_space(m - len(sigma))
        elif len(g.terms) == 1:
            out[sigma] = TropicalComplex.empty(m - len(sigma))
        else:
            out[sigma] = trop_hypersurface(g)
    return out


def membership_set1(f: ValuedPolynomial, w: Sequence[ExtendedRational]) -> bool:
    """Membership of an extended weight in set (1) of the fundamental theorem."""
    w = tuple(w)
    if all(is_finite(x) for x in w):
        return trop_hypersurface(f).contains(w)
    if f.laurent:
        raise ValueError("infinite weight entry on a Laurent polynomial")
    sigma = frozenset(i for i, x in enumerate(w) if x is INF)
    finite = tuple(x for x in w if x is not INF)
    g = f.restrict_to_orbit(sigma)
    if g.is_zero():
        return True
    if len(g.terms) == 1:
        return False
    return trop_hypersurface(g).contains(finite)


@dataclass(frozen=True)
class WitnessPoint:
    """A torus point with finite-support Puiseux coordinates."""

    coordinates: tuple[PuiseuxScalar, ...]

    def __post_init__(self):
        if any(not c for c in self.coordinates):
            raise ValueError("witness coordinates must be nonzero")

    def valuations(self) -> Vector:
        return tuple(c.valuation() for c in self.coordinates)


@dataclass
class SampleVerdict:
    weight: tuple
    in_complex: bool
    in_initial_set: bool

    @property
    def consistent(self) -> bool:
        return self.in_complex == self.in_initial_set


@dataclass
class WitnessVerdict:
    valuations: tuple
    residual_zero: bool
    in_complex: bool

    @property
    def consistent(self) -> bool:
        return self.residual_zero and self.in_complex


@dataclass
class EquivalenceReport:
    samples: list[SampleVerdict] = field(default_factory=list)
    witnesses: list[WitnessVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (all(s.consistent for s in self.samples)
                and all(w.consistent for w in self.witnesses))

    def to_json(self) -> dict:
        from .jsonio import weight_to_json
        return {
            "samples": [
                {"weight": weight_to_json(s.weight),
                 "set1": s.in_complex, "set2": s.in_initial_set,
                 "consistent": s.consistent}
                for s in self.samples],
            "witnesses": [
                {"valuations": weight_to_json(w.valuations),
                 "residual_zero": w.residual_zero,
                 "in_complex": w.in_complex}
                for w in self.witnesses],
            "ok": self.ok,
        }


def check_equivalence(f: ValuedPolynomial,
                      samples: Iterable[Sequence[ExtendedRational]] = (),
                      witnesses: Iterable[WitnessPoint] = ()
                      ) -> EquivalenceReport:
    """Cross-check fundamental-theorem sets on samples and witness points.

    The complex of f is built at most once, when a finite sample or a
    witness first needs it; samples with infinite entries go through
    ``membership_set1``, which restricts f to their orbit.
    """
    complex_finite = None

    def in_complex(w: Vector) -> bool:
        nonlocal complex_finite
        if complex_finite is None:
            complex_finite = trop_hypersurface(f)
        return complex_finite.contains(w)

    report = EquivalenceReport()
    for w in samples:
        w = tuple(w)
        report.samples.append(SampleVerdict(
            weight=w,
            in_complex=(in_complex(w) if all(map(is_finite, w))
                        else membership_set1(f, w)),
            in_initial_set=membership_set2(f, w)))
    for p in witnesses:
        value = f.evaluate(p.coordinates)
        vv = p.valuations()
        report.witnesses.append(WitnessVerdict(
            valuations=vv,
            residual_zero=not value,
            in_complex=not f.is_zero() and in_complex(vv)))
    return report
