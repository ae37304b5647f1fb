"""Exact polyhedral cones over the rationals.

Cones carry both descriptions: generators (extreme rays plus a lineality
basis) and a facet/equation system.  Conversion between the two uses a
double description sweep with the combinatorial adjacency test, entirely
in exact arithmetic, so equality of cones is decidable and deterministic.

The sweep (``_dd``) is fraction-free: it scales every row to a primitive
integer row, updates rays and lineality vectors by cross-multiplication
followed by division by the gcd, and returns ``Fraction`` vectors.  Every
``Cone`` is built by ``Cone.from_generators``, which puts the sweep's output
into canonical form: rays sorted and primitive modulo the lineality space,
lineality as primitive reduced-row-echelon rows.  That canonical key decides
``==`` and ``hash``.  Construction is memoised on the ambient dimension and
the set of nonzero input generators in a module-level LRU cache of at most
``CONE_CACHE_SIZE`` entries; a hit returns the same immutable ``Cone``
object.  ``from_inequalities`` keeps no cache of its own: keying one on
inequality systems raised the peak memory of the toric-arrangement
benchmark by about 13% for little gain, as its cones end in the cache above.
It is called less instead: ``faces`` and ``is_face_of`` read faces off the
ray-facet incidence sets (a face is spanned by the lineality space and the
rays tight on some facets), and ``intersect`` returns a cone that lies inside
the other, by exact dot products, without a sweep.

``affine_feasible`` decides an affine system of equations, weak and strict
inequalities on the same sweep, so ``_dd`` is the one polyhedral algorithm.

``quotient_chart`` fixes the canonical basis of the orthogonal complement of
a span; coordinates in such a chart come from ``linalg.project_to_chart``,
and ``troposphere.Stratum.of`` is the one place a cone is projected into one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .linalg import (
    Vector,
    dot,
    is_zero_vec,
    kernel_basis,
    primitive,
    primitive_ints,
    project_off,
    rref,
    vadd,
    vec,
    vneg,
)


def _idot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _toward_zero(u: tuple[int, ...], s: int, l0: tuple[int, ...], v0: int
                 ) -> tuple[int, ...]:
    """Primitive positive multiple of u - (s / v0) * l0.

    A row with value s on u and v0 != 0 on l0 vanishes on the result.  The
    cross-multiplied form |v0| * u - sign(v0) * s * l0 keeps the direction
    of u; u is primitive already, so s == 0 returns it unchanged.
    """
    if s == 0:
        return u
    if v0 < 0:
        v0, s = -v0, -s
    w = [v0 * x - s * y for x, y in zip(u, l0)]
    g = gcd(*w)
    return tuple(x // g for x in w) if g > 1 else tuple(w)


def _dd(equations: Sequence[Vector], inequalities: Sequence[Vector], dim: int
        ) -> tuple[list[Vector], list[Vector]]:
    """Generators of {x : e.x = 0 for e in equations, a.x >= 0 for a in inequalities}.

    Returns (lineality basis, extreme rays).  Rays are extreme modulo the
    lineality space.  The sweep is fraction-free: every row is scaled to a
    primitive integer row, new vectors come from cross-multiplication and
    are divided by their gcd, and ``Fraction`` appears only in the result.
    """
    lin = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays: list[tuple[tuple[int, ...], frozenset[int]]] = []

    def cut(vals: list[int], j: int) -> list[tuple[int, ...]]:
        """The lineality basis with lin[j] traded for the row's kernel."""
        l0, v0 = lin[j], vals[j]
        return [_toward_zero(l, v, l0, v0)
                for i, (l, v) in enumerate(zip(lin, vals)) if i != j]

    for e in map(primitive_ints, equations):
        vals = [_idot(e, l) for l in lin]
        j = next((i for i, v in enumerate(vals) if v), None)
        if j is not None:
            lin = cut(vals, j)

    for idx, a in enumerate(map(primitive_ints, inequalities)):
        vals = [_idot(a, l) for l in lin]
        j = next((i for i, v in enumerate(vals) if v), None)
        if j is not None:
            # a cuts the lineality space: one lineality generator becomes a ray.
            l0, v0 = lin[j], vals[j]
            lin = cut(vals, j)
            rays = [(_toward_zero(r, _idot(a, r), l0, v0), tight | {idx})
                    for r, tight in rays]
            newray = l0 if v0 > 0 else tuple(-x for x in l0)
            rays.append((newray, frozenset(range(idx))))
            continue
        pos, zero, neg = [], [], []
        for k, (r, tight) in enumerate(rays):
            s = _idot(a, r)
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
                w = [sp * y - sn * x for x, y in zip(rp, rn)]
                g = gcd(*w)
                if g == 0:
                    continue
                kept.append((tuple(x // g for x in w), common | {idx}))
        rays = kept

    return ([tuple(map(Fraction, primitive_ints(l, fix_sign=True)))
             for l in lin],
            [tuple(map(Fraction, r)) for r, _ in rays])


class Cone:
    """A rational convex polyhedral cone, immutable after construction."""

    __slots__ = ("ambient_dim", "rays", "lineality", "inequalities",
                 "equations", "_key")

    def __init__(self, ambient_dim: int, rays, lineality, inequalities,
                 equations):
        self.ambient_dim = ambient_dim
        self.rays: tuple[Vector, ...] = rays
        self.lineality: tuple[Vector, ...] = lineality
        self.inequalities: tuple[Vector, ...] = inequalities
        self.equations: tuple[Vector, ...] = equations
        self._key = (ambient_dim, self.rays, self.lineality)

    # -- construction -------------------------------------------------

    @classmethod
    def from_generators(cls, generators: Iterable[Sequence], ambient_dim: int
                        ) -> "Cone":
        gens = [vec(g) for g in generators]
        for g in gens:
            if len(g) != ambient_dim:
                raise ValueError("generator dimension mismatch")
        return _cone_from_generators(
            ambient_dim, frozenset(g for g in gens if not is_zero_vec(g)))

    @classmethod
    def from_inequalities(cls, inequalities: Iterable[Sequence],
                          ambient_dim: int,
                          equations: Iterable[Sequence] = ()) -> "Cone":
        ineqs = [vec(a) for a in inequalities]
        eqs = [vec(e) for e in equations]
        for row in ineqs + eqs:
            if len(row) != ambient_dim:
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
    def generators(self) -> tuple[Vector, ...]:
        return self.rays + self.lineality + tuple(vneg(l) for l in self.lineality)

    def dim(self) -> int:
        return self.ambient_dim - len(self.equations)

    def is_strictly_convex(self) -> bool:
        return not self.lineality

    def contains(self, v: Sequence) -> bool:
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        return (all(dot(e, v) == 0 for e in self.equations)
                and all(dot(a, v) >= 0 for a in self.inequalities))

    def relint_contains(self, v: Sequence) -> bool:
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        return (all(dot(e, v) == 0 for e in self.equations)
                and all(dot(a, v) > 0 for a in self.inequalities))

    def relint_point(self) -> Vector:
        """A point in the relative interior (sum of the extreme rays)."""
        p = vec([0] * self.ambient_dim)
        for r in self.rays:
            p = vadd(p, r)
        return p

    def dual(self) -> "Cone":
        return Cone.from_inequalities(self.generators, self.ambient_dim)

    def intersect(self, other: "Cone") -> "Cone":
        """The intersection; a cone inside the other is returned as it is."""
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("dimension mismatch")
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
        intersection with each facet's tight set, so no face needs a sweep.
        """
        sets = {frozenset(range(len(self.rays)))}
        for a in self.inequalities:
            tight = frozenset(i for i, r in enumerate(self.rays)
                              if dot(a, r) == 0)
            sets |= {s & tight for s in sets}
        lin = self.lineality + tuple(vneg(l) for l in self.lineality)
        return sorted((Cone.from_generators(
            [self.rays[i] for i in s] + list(lin), self.ambient_dim)
            for s in sets), key=Cone.canonical_key)

    def is_face_of(self, other: "Cone") -> bool:
        """True iff self is a face of other.

        The least face of other containing self is spanned by the generators
        of other that are tight on every facet tight on self.
        """
        if not other.contains_cone(self):
            return False
        tight = [a for a in other.inequalities
                 if all(dot(a, g) == 0 for g in self.generators)]
        face = [g for g in other.generators
                if all(dot(a, g) == 0 for a in tight)]
        return Cone.from_generators(face, self.ambient_dim) == self

    def contains_cone(self, other: "Cone") -> bool:
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
def _cone_from_generators(ambient_dim: int, gens: frozenset[Vector]) -> Cone:
    """The canonical cone spanned by nonzero generators, shared per input set."""
    # V -> H: the dual cone's generators are our facets and span equations.
    dlin, drays = _dd([], list(gens), ambient_dim)
    equations = tuple(primitive(e, fix_sign=True) for e in rref(dlin)[0])
    ineqs = tuple(sorted(
        a for a in {primitive(project_off(r, equations)) for r in drays}
        if not is_zero_vec(a)))
    # H -> V again for a canonical generator description.
    lin, rays = _dd(equations, ineqs, ambient_dim)
    lin_rows = tuple(primitive(r, fix_sign=True)
                     for r in rref(lin)[0]) if lin else ()
    canon_rays = tuple(sorted(
        {primitive(project_off(r, lin_rows)) for r in rays}))
    return Cone(ambient_dim, canon_rays, lin_rows, ineqs, equations)


# -- quotient charts ----------------------------------------------------

def quotient_chart(subspace_gens: Sequence[Sequence], ambient_dim: int
                   ) -> tuple[Vector, ...]:
    """Deterministic ordered basis of the orthogonal complement of the span.

    Obtained from the reduced row echelon kernel with free coordinates in
    increasing order, so identical inputs always yield the same chart.
    """
    gens = [vec(g) for g in subspace_gens]
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
        return [vec((*c, -r)) for c, r in rows]

    positive = homogenize(strict) + [vec((0,) * dim + (1,))]
    _, rays = _dd(homogenize(equalities), homogenize(weak) + positive,
                  dim + 1)
    return all(any(dot(f, r) > 0 for r in rays) for f in positive)
