"""Exact polyhedral cones over the rationals.

Cones carry both descriptions: generators (extreme rays plus a lineality
basis) and a facet/equation system.  Conversion between the two uses a
double description sweep with the combinatorial adjacency test, entirely
in exact arithmetic, so equality of cones is decidable and deterministic.

The sweep (``_dd``) is fraction-free: it scales every row to a primitive
integer row (``linalg.primitive``, gcd first), checks the row's length once
and takes its products inline, updates rays and lineality vectors with
``linalg.eliminate`` (cross-multiplication followed by division by the
gcd), and returns primitive ``int`` vectors, each ray with its tight set
as an ``int`` mask.
It is the one place that decides zero patterns.  ``linalg.rref`` reduces
with the same step.  Every ``Cone`` is built by ``Cone.from_generators``
from one V -> H sweep, in canonical form: facets primitive modulo the
span, rays modulo the lineality space (``linalg.orthogonal_parts``),
lineality and equations the primitive reduced rows of ``rref``.  All
four are ``int`` tuples; input rows may hold ``Fraction`` entries.  The
dataclass compares and hashes only ``canonical_key()``, that is (dim,
rays, lineality).  The cone keeps the incidence (bit i of
``incidence[k]`` is set when facet k is zero on ray i), read off the
sweep's masks.  Construction is memoised on the ambient dimension and the
set of nonzero input generators in an LRU cache of at most
``CONE_CACHE_SIZE`` entries; a hit returns the same immutable ``Cone``.
``from_inequalities`` keeps no cache of its own: one keyed on inequality
systems raised the peak memory of the toric-arrangement benchmark by
about 13% for little gain.  It is called less instead: ``faces`` and
``is_face_of`` read faces off the stored incidence (a face is spanned by
the lineality space and the rays tight on some facets) by bitmask work
alone, and ``intersect`` returns a cone that lies inside the other, by
exact dot products, without a sweep.

``affine_feasible`` decides an affine system of equations and weak
inequalities from the same sweep's masks, so ``_dd`` is the one algorithm;
it sweeps each row (c, r) as it is, as c.x + r t with t <= 0, and returns
the tight sets of the rays with t < 0, which also tell which rows can hold
with equality (``fundthm._complex_of`` reads its cells off them).

``quotient_chart`` fixes the canonical basis of the orthogonal complement of
a span.  Coordinates in such a chart come from one routine,
``linalg.chart_coordinates`` (one ``rref`` for all vectors): a cone's
generators through ``troposphere.Stratum.of``, one point through
``linalg.project_to_chart``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import mul
from typing import Iterable, Sequence

from .linalg import (
    InputError,
    IntVector,
    dot,
    eliminate,
    kernel_basis,
    orthogonal_parts,
    primitive,
    rref,
    vneg,
)


# Most rays a sweep keeps after any step: the cone over 30 points of the
# moment curve in rank 10 has 25300 facets, and its sweep runs for minutes.
MAX_SWEEP_RAYS = 4096


def _dd(equations: Sequence[Sequence], inequalities: Sequence[Sequence],
        dim: int) -> tuple[list[IntVector], list[tuple[IntVector, int]]]:
    """Generators of {x : e.x = 0 for e in equations, a.x >= 0 for a in inequalities}.

    Returns (lineality basis, [(ray, mask), ...]); rays are extreme modulo
    the lineality space, and bit i of a ray's ``int`` mask is set when
    inequality i is zero on it.  Fraction-free: every row is scaled to a
    primitive integer row and every new vector comes from ``eliminate``, so
    every result is a primitive ``int`` vector.  ``cut`` checks each row's
    length once; the products are then taken inline, not by ``dot``.  A
    step raises ``InputError`` as it keeps ray ``MAX_SWEEP_RAYS + 1`` from an
    adjacent pair; a cut of the lineality space adds one ray, at most
    ``dim`` times, so a sweep never holds more than ``MAX_SWEEP_RAYS + dim``.
    """
    lin = [(0,) * i + (1,) + (0,) * (dim - 1 - i) for i in range(dim)]
    rays: list[tuple[IntVector, int]] = []

    def cut(a: IntVector) -> tuple[IntVector, int] | None:
        """Trade the first basis vector l0 with a.l0 = v0 != 0 for the row's
        kernel in the basis and return (l0, v0); None if there is none."""
        nonlocal lin
        if len(a) != dim:
            raise ValueError("dimension mismatch")
        vals = [sum(map(mul, a, l)) for l in lin]
        for j, (l0, v0) in enumerate(zip(lin, vals)):
            if v0:
                lin = lin[:j] + [eliminate(l, v, l0, v0)
                                 for l, v in zip(lin[j + 1:], vals[j + 1:])]
                return l0, v0
        return None

    for e in map(primitive, equations):
        cut(e)
    base = len(lin)

    for idx, a in enumerate(map(primitive, inequalities)):
        if pivot := cut(a):
            # a cuts the lineality space: one lineality generator becomes a ray.
            l0, v0 = pivot
            rays = [(eliminate(r, sum(map(mul, a, r)), l0, v0), t | 1 << idx)
                    for r, t in rays]
            rays.append((l0 if v0 > 0 else vneg(l0), (1 << idx) - 1))
        else:
            pos, zero, neg = [], [], []
            for k, (r, tight) in enumerate(rays):
                s = sum(map(mul, a, r))
                if s > 0:
                    pos.append((k, r, tight, s))
                elif s < 0:
                    neg.append((k, r, tight, s))
                else:
                    zero.append((r, tight | 1 << idx))
            kept = [(r, t) for _, r, t, _ in pos] + zero
            # Adjacent rays share at least base - len(lin) - 2 tight rows
            # (Fukuda & Prodon 1996), also on a cone that is not
            # full-dimensional: its implicit equalities are tight on both.
            bound = base - len(lin) - 2
            for kp, rp, tp, sp in pos:
                for kn, rn, tn, sn in neg:
                    common = tp & tn
                    if common.bit_count() < bound:
                        continue
                    for k, (_, t) in enumerate(rays):
                        if common & t == common and k != kp and k != kn:
                            break  # not adjacent
                    else:
                        if any(w := eliminate(rn, sn, rp, sp)):
                            kept.append((w, common | 1 << idx))
                            if len(kept) > MAX_SWEEP_RAYS:
                                raise InputError(
                                    f"expected at most {MAX_SWEEP_RAYS} rays "
                                    f"in a double-description sweep, got "
                                    f"{len(kept)}")
            rays = kept

    return lin, rays


@dataclass(frozen=True, slots=True)
class Cone:
    """A rational convex polyhedral cone, equal on ``canonical_key()``."""

    ambient_dim: int
    rays: tuple[IntVector, ...]
    lineality: tuple[IntVector, ...]
    inequalities: tuple[IntVector, ...] = field(compare=False)
    equations: tuple[IntVector, ...] = field(compare=False)
    incidence: tuple[int, ...] = field(compare=False)

    # -- construction -------------------------------------------------

    @classmethod
    def from_generators(cls, generators: Iterable[Sequence], ambient_dim: int
                        ) -> "Cone":
        gens = [tuple(g) for g in generators]
        if any(len(g) != ambient_dim for g in gens):
            raise ValueError("generator dimension mismatch")
        return _cone_from_generators(
            ambient_dim, frozenset(g for g in gens if any(g)))

    @classmethod
    def from_inequalities(cls, inequalities: Iterable[Sequence],
                          ambient_dim: int,
                          equations: Iterable[Sequence] = ()) -> "Cone":
        lin, rays = _dd(equations, inequalities, ambient_dim)
        gens = [r for r, _ in rays] + lin + [vneg(l) for l in lin]
        return cls.from_generators(gens, ambient_dim)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Cone":
        return cls.from_generators([], ambient_dim)

    @classmethod
    def full_space(cls, ambient_dim: int) -> "Cone":
        return cls.from_inequalities([], ambient_dim)

    # -- queries -------------------------------------------------------

    @property
    def generators(self) -> tuple[IntVector, ...]:
        return self.rays + self.lineality + tuple(vneg(l) for l in self.lineality)

    def dim(self) -> int:
        return self.ambient_dim - len(self.equations)

    def is_strictly_convex(self) -> bool:
        return not self.lineality

    def contains(self, v: Sequence) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        return (all(dot(e, v) == 0 for e in self.equations)
                and all(dot(a, v) >= 0 for a in self.inequalities))

    def relint_contains(self, v: Sequence) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        return (all(dot(e, v) == 0 for e in self.equations)
                and all(dot(a, v) > 0 for a in self.inequalities))

    def relint_point(self) -> IntVector:
        """A point in the relative interior (sum of the extreme rays)."""
        return tuple(map(sum, zip((0,) * self.ambient_dim, *self.rays)))

    def dual(self) -> "Cone":
        return Cone.from_inequalities(self.generators, self.ambient_dim)

    def intersect(self, other: "Cone") -> "Cone":
        """The intersection; a cone inside the other is returned as it is."""
        if other.contains_cone(self):
            return self
        if self.contains_cone(other):
            return other
        return Cone.from_inequalities(
            self.inequalities + other.inequalities, self.ambient_dim,
            self.equations + other.equations)

    def faces(self) -> list["Cone"]:
        """All faces of the cone, including itself and its minimal face.

        A face is spanned by the lineality space and the rays tight on some
        set of facets.  Those ray sets are the full set closed under
        intersection with the facets' incidence masks, so no face needs a
        sweep or a dot product; each is built once by ``from_generators``.
        """
        sets = {(1 << len(self.rays)) - 1}
        for column in self.incidence:
            sets |= {s & column for s in sets}
        lin = self.lineality + tuple(vneg(l) for l in self.lineality)
        return sorted((Cone.from_generators(
            [r for i, r in enumerate(self.rays) if s >> i & 1] + list(lin),
            self.ambient_dim) for s in sets), key=Cone.canonical_key)

    def is_face_of(self, other: "Cone") -> bool:
        """True iff self is a face of other, decided on ray sets alone.

        A face of other has other's lineality rows and a set S of other's
        rays (both canonical, so tuples compare), and S is every ray tight
        on all facets tight on S.
        """
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("dimension mismatch")
        s = sum(1 << i for i, r in enumerate(other.rays) if r in self.rays)
        if self.lineality != other.lineality or s.bit_count() != len(self.rays):
            return False
        closure = (1 << len(other.rays)) - 1
        for column in other.incidence:
            if s & column == s:
                closure &= column
        return closure == s

    def contains_cone(self, other: "Cone") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("dimension mismatch")
        return all(self.contains(g) for g in other.generators)

    def canonical_key(self):
        return (self.ambient_dim, self.rays, self.lineality)


# Bound on the distinct generator sets whose cones are kept for reuse.
CONE_CACHE_SIZE = 1024


@lru_cache(maxsize=CONE_CACHE_SIZE)
def _cone_from_generators(ambient_dim: int, gens: frozenset[tuple]) -> Cone:
    """The canonical cone spanned by nonzero generators, shared per input set.

    The dual's rays, each positive on a generator and so nonzero off the
    equations, give the facets.  The lineality space, the minimal face, is
    spanned by the generators zero on every facet (set in every mask).  A
    non-extreme generator lies inside a face of dimension >= 2 modulo
    lineality, whose extreme rays are generators tight on more facets."""
    dlin, drays = _dd([], list(gens), ambient_dim)
    equations = tuple(rref(dlin)[0])
    # Facet -> mask of the generators zero on it, kept by the projection.
    zeros = dict(zip(orthogonal_parts((r for r, _ in drays), equations),
                     (m for _, m in drays)))
    ineqs = tuple(sorted(zeros))
    lin = reduce(int.__and__, zeros.values(), -1)
    lin_rows = tuple(rref([g for i, g in enumerate(gens) if lin >> i & 1])[0])
    tight = {r: sum(1 << k for k, a in enumerate(ineqs) if zeros[a] >> i & 1)
             for i, r in enumerate(orthogonal_parts(gens, lin_rows)) if any(r)}
    rays = tuple(sorted(r for r, t in tight.items()
                        if not any(t & u == t != u for u in tight.values())))
    incidence = tuple(sum(1 << i for i, r in enumerate(rays)
                          if tight[r] >> k & 1) for k in range(len(ineqs)))
    return Cone(ambient_dim, rays, lin_rows, ineqs, equations, incidence)


# -- quotient charts ----------------------------------------------------

def quotient_chart(subspace_gens: Sequence[Sequence], ambient_dim: int
                   ) -> tuple[IntVector, ...]:
    """Deterministic ordered basis of the orthogonal complement of the span.

    Obtained from the reduced row echelon kernel with free coordinates in
    increasing order, so identical inputs always yield the same chart.
    """
    gens = list(subspace_gens)
    for g in gens:
        if len(g) != ambient_dim:
            raise ValueError("dimension mismatch")
    return tuple(kernel_basis(gens, ambient_dim))


# -- affine feasibility --------------------------------------------------

def affine_feasible(equalities: Sequence[Sequence],
                    inequalities: Sequence[Sequence], dim: int) -> list[int]:
    """Exact feasibility of {x : A x = a, B x >= b} over the rationals.

    A row (c_1, ..., c_dim, r), for c.x = r or c.x >= r, is swept as it is,
    as the homogenization c.x + r t with one more coordinate t <= 0: x / -t
    is a point of the system wherever t < 0.  Returns the tight sets of the
    rays with t < 0 (bit i for inequality i), empty exactly when the system
    is infeasible.  The lineality space lies in t = 0, so inequalities can
    hold with equality together exactly when one mask holds them all.  t <= 0
    is swept first, so no ray with t > 0 is carried through the other rows.
    """
    _, rays = _dd(equalities, [(0,) * dim + (-1,), *inequalities], dim + 1)
    return [t >> 1 for _, t in rays if not t & 1]
