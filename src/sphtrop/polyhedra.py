"""Exact polyhedral cones over the rationals.

Cones carry both descriptions: generators (extreme rays plus a lineality
basis) and a facet/equation system.  Conversion between the two uses a
double description sweep with the combinatorial adjacency test, entirely
in exact arithmetic, so equality of cones is decidable and deterministic.

The sweep (``_dd``) is fraction-free: it scales every row to a primitive
integer row, updates rays and lineality vectors with ``linalg.eliminate``
(cross-multiplication followed by division by the gcd), and returns
primitive ``int`` vectors.  ``linalg.rref`` reduces with the same step.
Every ``Cone`` is built by ``Cone.from_generators`` from one V -> H sweep
and the ray-facet incidence, in canonical form: facets primitive modulo
the span, rays modulo the lineality space (``linalg.orthogonal_parts``),
lineality and equations the primitive reduced rows of ``rref``.  That
key decides ``==`` and ``hash``.  All four are ``int`` tuples; input rows
may hold ``Fraction`` entries.  The cone keeps the incidence: bit i of
``incidence[k]`` is set when facet k is zero on ray i.  Nothing else
computes it.  Construction is memoised on the ambient dimension and the
set of nonzero input generators in an LRU cache of at most
``CONE_CACHE_SIZE`` entries; a hit returns the same immutable ``Cone``.
``from_inequalities`` keeps no cache of its own: one keyed on inequality
systems raised the peak memory of the toric-arrangement benchmark by
about 13% for little gain.  It is called less instead: ``faces`` and
``is_face_of`` read faces off the stored incidence (a face is spanned by
the lineality space and the rays tight on some facets) by bitmask work
alone, and ``intersect`` returns a cone that lies inside the other, by
exact dot products, without a sweep.

``affine_feasible`` decides an affine system of equations, weak and strict
inequalities on the same sweep, so ``_dd`` is the one polyhedral algorithm.

``quotient_chart`` fixes the canonical basis of the orthogonal complement of
a span.  Coordinates in such a chart come from one routine,
``linalg.chart_coordinates`` (one ``rref`` for all vectors): a cone's
generators through ``troposphere.Stratum.of``, one point through
``linalg.project_to_chart``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .linalg import (
    IntVector,
    dot,
    eliminate,
    is_zero_vec,
    kernel_basis,
    orthogonal_parts,
    primitive,
    rref,
    vneg,
)


def _dd(equations: Sequence[Sequence], inequalities: Sequence[Sequence],
        dim: int) -> tuple[list[IntVector], list[IntVector]]:
    """Generators of {x : e.x = 0 for e in equations, a.x >= 0 for a in inequalities}.

    Returns (lineality basis, extreme rays).  Rays are extreme modulo the
    lineality space.  The sweep is fraction-free: every row is scaled to a
    primitive integer row, and every new vector comes from
    ``linalg.eliminate`` (cross-multiplication, then division by the gcd),
    so every result is a primitive ``int`` vector.
    """
    lin = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays: list[tuple[tuple[int, ...], frozenset[int]]] = []

    def cut(vals: list[int], j: int) -> list[tuple[int, ...]]:
        """The lineality basis with lin[j] traded for the row's kernel."""
        l0, v0 = lin[j], vals[j]
        return [eliminate(l, v, l0, v0)
                for i, (l, v) in enumerate(zip(lin, vals)) if i != j]

    for e in map(primitive, equations):
        vals = [dot(e, l) for l in lin]
        j = next((i for i, v in enumerate(vals) if v), None)
        if j is not None:
            lin = cut(vals, j)

    for idx, a in enumerate(map(primitive, inequalities)):
        vals = [dot(a, l) for l in lin]
        j = next((i for i, v in enumerate(vals) if v), None)
        if j is not None:
            # a cuts the lineality space: one lineality generator becomes a ray.
            l0, v0 = lin[j], vals[j]
            lin = cut(vals, j)
            rays = [(eliminate(r, dot(a, r), l0, v0), tight | {idx})
                    for r, tight in rays]
            newray = l0 if v0 > 0 else tuple(-x for x in l0)
            rays.append((newray, frozenset(range(idx))))
            continue
        pos, zero, neg = [], [], []
        for k, (r, tight) in enumerate(rays):
            s = dot(a, r)
            if s > 0:
                pos.append((k, r, tight, s))
            elif s < 0:
                neg.append((k, r, tight, s))
            else:
                zero.append((r, tight | {idx}))
        kept = [(r, t) for _, r, t, _ in pos] + zero
        for kp, rp, tp, sp in pos:
            for kn, rn, tn, sn in neg:
                common = tp & tn
                adjacent = not any(
                    common <= t for k, (_, t) in enumerate(rays)
                    if k != kp and k != kn)
                if not adjacent:
                    continue
                w = eliminate(rn, sn, rp, sp)
                if any(w):
                    kept.append((w, common | {idx}))
        rays = kept

    return lin, [r for r, _ in rays]


class Cone:
    """A rational convex polyhedral cone, immutable after construction."""

    __slots__ = ("ambient_dim", "rays", "lineality", "inequalities",
                 "equations", "incidence", "_key")

    def __init__(self, ambient_dim: int, rays, lineality, inequalities,
                 equations, incidence):
        self.ambient_dim = ambient_dim
        self.rays: tuple[IntVector, ...] = rays
        self.lineality: tuple[IntVector, ...] = lineality
        self.inequalities: tuple[IntVector, ...] = inequalities
        self.equations: tuple[IntVector, ...] = equations
        self.incidence: tuple[int, ...] = incidence
        self._key = (ambient_dim, self.rays, self.lineality)

    # -- construction -------------------------------------------------

    @classmethod
    def from_generators(cls, generators: Iterable[Sequence], ambient_dim: int
                        ) -> "Cone":
        gens = [tuple(g) for g in generators]
        if any(len(g) != ambient_dim for g in gens):
            raise ValueError("generator dimension mismatch")
        return _cone_from_generators(
            ambient_dim, frozenset(g for g in gens if not is_zero_vec(g)))

    @classmethod
    def from_inequalities(cls, inequalities: Iterable[Sequence],
                          ambient_dim: int,
                          equations: Iterable[Sequence] = ()) -> "Cone":
        ineqs = [tuple(a) for a in inequalities]
        eqs = [tuple(e) for e in equations]
        if any(len(row) != ambient_dim for row in ineqs + eqs):
            raise ValueError("inequality dimension mismatch")
        lin, rays = _dd(eqs, ineqs, ambient_dim)
        gens = list(rays) + list(lin) + [vneg(l) for l in lin]
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
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cone):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return (f"Cone(dim={self.ambient_dim}, rays={list(self.rays)}, "
                f"lineality={list(self.lineality)})")


# Bound on the distinct generator sets whose cones are kept for reuse.
CONE_CACHE_SIZE = 1024


@lru_cache(maxsize=CONE_CACHE_SIZE)
def _cone_from_generators(ambient_dim: int, gens: frozenset[tuple]) -> Cone:
    """The canonical cone spanned by nonzero generators, shared per input set.

    The dual's rays, each positive on a generator and so nonzero off the
    equations, give the facets; the kernel of both is the lineality space.
    A non-extreme generator lies inside a face of dimension >= 2 modulo
    lineality, whose extreme rays are generators tight on more facets."""
    dlin, drays = _dd([], list(gens), ambient_dim)
    equations = tuple(rref(dlin)[0])
    ineqs = tuple(sorted(set(orthogonal_parts(drays, equations))))
    lin_rows = tuple(rref(kernel_basis(equations + ineqs, ambient_dim))[0])
    tight = {r: frozenset(i for i, a in enumerate(ineqs) if dot(a, r) == 0)
             for r in orthogonal_parts(gens, lin_rows) if any(r)}
    rays = tuple(sorted(r for r, t in tight.items()
                        if not any(t < u for u in tight.values())))
    incidence = tuple(sum(1 << i for i, r in enumerate(rays) if k in tight[r])
                      for k in range(len(ineqs)))
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

def affine_feasible(equalities: Sequence[tuple[Sequence, Fraction]],
                    weak: Sequence[tuple[Sequence, Fraction]],
                    strict: Sequence[tuple[Sequence, Fraction]],
                    dim: int) -> bool:
    """Exact feasibility of {x : A x = a, B x >= b, C x > c} over the rationals.

    Constraints are (coefficient vector, rhs) pairs.  The system is
    homogenized with one more coordinate s >= 0: a row (c, r) becomes
    c.x - r s = 0 or >= 0.  It is feasible exactly when s and every strict
    row are positive on some extreme ray of that cone: all of them are
    nonnegative on the cone, so the sum of the rays is then one witness.
    """
    def homogenize(rows):
        return [(*c, -r) for c, r in rows]

    positive = homogenize(strict) + [(0,) * dim + (1,)]
    _, rays = _dd(homogenize(equalities), homogenize(weak) + positive,
                  dim + 1)
    return all(any(dot(f, r) > 0 for r in rays) for f in positive)
