"""Tropical hypersurfaces and fundamental-theorem set comparisons.

For a hypersurface V(f) the three sets of the fundamental theorem are
checked against each other: the min-attained-twice locus (a polyhedral
complex), the initial-form criterion, and coordinatewise valuations of
user-supplied witness points.  Only principal ideals are handled; for
those the initial ideal is generated by the initial form of f.

Both sides run on integers.  A cell row is one primitive ``int`` tuple
(c, r) read off ``ValuedPolynomial.weight_forms``; this module scales no
valuation.  ``TropicalComplex.contains`` clears w once to W / den.  An
orbit's set is ``trop_hypersurface`` of f's restriction there, with term
rows (U, V), the zero polynomial's whole space two zero rows: w is in it
when the least ``dot`` of a row with (W, den) is attained twice.  Only a
loaded or hand-built one tests each cell row h by ``dot`` (length checked):
h . (W, -den) is 0 for an equation, >= 0 else.  Reports print ``str``s.

A nonzero complex depends only on the number of variables and the tropical
polynomial, the ``int`` pairs (dv u, dv v(a)) of the terms: residues do
not enter it.  Each is built once and kept in an LRU cache of at most
``COMPLEX_CACHE_SIZE`` complexes, shared by a polynomial's orbits, samples
and witnesses; a ``TropicalComplex`` is frozen, so sharing one is safe.
A complex takes one feasibility sweep per polynomial, over the region
{(w, s) : s <= V_k + U_k.w for all k} under the graph of the tropical
polynomial: cell (i, j) is nonempty exactly when terms i and j are tight
together at one of its vertices (minimal faces, when the Newton polytope is
not full-dimensional), whose tight sets are the maximal cells of the
regular subdivision of the Newton polytope.  A polynomial with one term has
no pair of terms, so it takes no sweep.  A polynomial of more than
``MAX_COMPLEX_TERMS`` terms raises ``InputError`` before the memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Sequence

from .linalg import (InputError, IntVector, Vector, clear_denominators, dot,
                     primitive)
from .polyhedra import affine_feasible
from .puiseux import INF, ExtendedRational, PuiseuxScalar, ValuedPolynomial


@dataclass(frozen=True)
class Cell:
    """An affine polyhedron {w : Aw = a, Bw >= b} in weight space, each
    row one primitive ``int`` tuple (c_1, ..., c_m, r): c.w = r or >= r."""

    equalities: tuple[IntVector, ...]
    inequalities: tuple[IntVector, ...]


@dataclass(frozen=True)
class TropicalComplex:
    """A finite union of affine cells; the empty union is the empty set.
    A built complex is tested by its ``terms`` rows (min attained twice;
    not in ``==`` or ``hash``), a loaded or hand-built one cell by cell."""

    ambient_dim: int
    cells: tuple[Cell, ...]
    terms: tuple[IntVector, ...] = field(default=(), compare=False)

    def contains(self, w: Sequence[Fraction]) -> bool:
        W, den = clear_denominators(w)
        if len(W) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        if self.terms:
            x = (*W, den)
            vals = [dot(h, x) for h in self.terms]
            return vals.count(min(vals)) > 1
        x = (*W, -den)
        return any(all(dot(h, x) == 0 for h in cell.equalities)
                   and all(dot(h, x) >= 0 for h in cell.inequalities)
                   for cell in self.cells)


def trop_hypersurface(f: ValuedPolynomial) -> TropicalComplex:
    """The locus where the minimum of v(a_u) + u.w is attained at least twice.

    One cell per pair of terms achieving a common minimum; empty cells are
    pruned by exact feasibility, one double-description sweep in all.  The
    zero polynomial vanishes everywhere, so its complex, not memoised, is the
    whole space: one cell without rows, and two zero term rows.

    Otherwise memoised on ``f.nvars`` and the pairs (dv u, dv v(a)) of
    ``f.weight_forms``, all that the complex depends on: dv is left out,
    since scaling every (u, v(a)) by one positive factor moves no cell.  So
    polynomials that differ in their residues, or by such a factor
    (``t*x1^2 + 1`` and ``t^(1/2)*x1 + 1``), share one object; at most
    ``COMPLEX_CACHE_SIZE`` are kept.
    """
    if f.is_zero():
        return TropicalComplex(f.nvars, (Cell((), ()),),
                               ((0,) * (f.nvars + 1),) * 2)
    if len(f.terms) > MAX_COMPLEX_TERMS:
        raise InputError(f"expected at most {MAX_COMPLEX_TERMS} terms in a "
                         f"tropical hypersurface, got {len(f.terms)}")
    return _complex_of(f.nvars, f.weight_forms[0])


# Bound on the distinct tropical polynomials whose complexes are kept; it
# covers the 2^m orbits of one polynomial up to m = 5.
COMPLEX_CACHE_SIZE = 32
# Most terms of a polynomial whose complex is built: one sweep of n rows in
# m + 2 coordinates, with up to n(n-1)/2 cells of n - 2 rows.
MAX_COMPLEX_TERMS = 96


@lru_cache(maxsize=COMPLEX_CACHE_SIZE)
def _complex_of(m: int, pairs: tuple[tuple[IntVector, int], ...]
                ) -> TropicalComplex:
    """The complex of a nonzero tropical polynomial in m variables, read off
    the ``int`` pairs (U, V) of its terms, in decreasing order of U; each
    distinct cell (i, j) is kept, in first-seen order, when terms i and j
    are tight together in some mask of one ``affine_feasible`` sweep of the
    region under the graph, s <= V_k + U_k.w for all k."""
    n = len(pairs)
    # row[i][k]: term k weighs at least term i.  For i < j the first nonzero
    # entry of U_i - U_j is positive, so row[j][i] is pair (i, j)'s equation
    # with its sign fixed.  Each row is built once and shared by its cells.
    row = [[primitive((*[a - b for a, b in zip(uk, ui)], ci - ck))
            if k != i else None for k, (uk, ck) in enumerate(pairs)]
           for i, (ui, ci) in enumerate(pairs)]
    # Bit j of tight[i]: terms i and j are minimal together at some vertex.
    # A single term has no pair, so it takes no sweep.
    masks = (affine_feasible((), [(*u, -1, -c) for u, c in pairs], m + 1)
             if n > 1 else ())
    tight = [reduce(int.__or__, (s for s in masks if s >> i & 1), 0)
             for i in range(n - 1)]
    cells = dict.fromkeys(
        Cell((row[j][i],), tuple(sorted(
            row[i][k] for k in range(n) if k not in (i, j))))
        for i in range(n) for j in range(i + 1, n) if tight[i] >> j & 1)
    return TropicalComplex(m, tuple(cells), tuple((*u, c) for u, c in pairs))


def membership_set2(f: ValuedPolynomial, w: Sequence[ExtendedRational]) -> bool:
    """Initial-ideal criterion for a principal ideal.

    The initial ideal of (f) is generated by in_w(f); it contains a
    (unit) monomial exactly when in_w(f) is a nonzero monomial.  For an
    extended weight this is the graded-piece unit test: in_w(f) is the class
    of f in its least graded piece, since terms at an infinite weight entry
    fall into the infinity summand, and an all-infinite grade gives the zero
    residue, which is never a unit.
    """
    form = f.initial_form(w)
    return not form.is_monomial()


def extended_trop_sets(f: ValuedPolynomial
                       ) -> dict[frozenset[int], TropicalComplex]:
    """Per-orbit tropical sets of the extended theorem (0-based orbit indices)."""
    if f.laurent:
        raise ValueError("extended sets require ordinary mode")
    m = f.nvars
    sigmas = (frozenset(i for i in range(m) if mask >> i & 1)
              for mask in range(1 << m))
    return {sigma: trop_hypersurface(f.restrict_to_orbit(sigma))
            for sigma in sigmas}


def membership_set1(f: ValuedPolynomial, w: Sequence[ExtendedRational]) -> bool:
    """Membership of an extended weight in set (1) of the fundamental theorem."""
    w = f._check_weight(w)
    sigma = frozenset(i for i, x in enumerate(w) if x is INF)
    finite = tuple(x for x in w if x is not INF)
    return trop_hypersurface(f.restrict_to_orbit(sigma)).contains(finite)


@dataclass(frozen=True)
class WitnessPoint:
    """A torus point with finite-support Puiseux coordinates."""

    coordinates: tuple[PuiseuxScalar, ...]

    def __post_init__(self):
        if any(not isinstance(c, PuiseuxScalar) for c in self.coordinates):
            raise ValueError("witness coordinates must be Puiseux scalars")
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
        return {
            "samples": [
                {"weight": list(map(str, s.weight)),
                 "set1": s.in_complex, "set2": s.in_initial_set,
                 "consistent": s.consistent}
                for s in self.samples],
            "witnesses": [
                {"valuations": list(map(str, w.valuations)),
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

    Samples and the valuations of witnesses alike go through
    ``membership_set1``, which restricts f to the orbit of a weight's
    infinite entries; a witness's valuations are finite, so its orbit is the
    torus.
    """
    report = EquivalenceReport()
    for w in samples:
        w = tuple(w)
        report.samples.append(SampleVerdict(
            weight=w, in_complex=membership_set1(f, w),
            in_initial_set=membership_set2(f, w)))
    for p in witnesses:
        value = f.evaluate(p.coordinates)
        vv = p.valuations()
        report.witnesses.append(WitnessVerdict(
            valuations=vv, residual_zero=not value,
            in_complex=membership_set1(f, vv)))
    return report
