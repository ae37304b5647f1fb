"""Extended tropicalization of a spherical embedding.

The tropicalization of an embedding with colored fan Sigma is the disjoint
union, over all colored faces tau, of the image V_tau of the valuation cone
in the quotient N_Q / span(tau).  Strata shared by several maximal cones are
glued by identifying equal colored faces.  Points of a stratum are stored in
a canonical chart on tau-perp, and evaluation against lattice functionals
recovers the extended (rational or infinite) semigroup homomorphism.

``Stratum.of`` is the one builder of V_tau: it fixes the chart of a face and
projects the valuation cone into it.  Both the face-wise construction here and
the Groebner-side one in ``grobtrop`` build their strata with it; they differ
only in how they traverse the faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .linalg import (IntVector, Vector, dot, embed_from_chart,
                     project_to_chart, vec)
from .polyhedra import Cone, quotient_chart
from .puiseux import INF, ExtendedRational
from .spherical import (
    ColoredCone,
    ColoredFan,
    SphericalDatum,
    colored_faces,
    relint_meets_valuation_cone,
    validate_colored_fan,
)

StratumKey = tuple


def stratum_key(face: ColoredCone) -> StratumKey:
    return (face.cone.canonical_key(), tuple(sorted(face.colors)))


def stratum_valuation_cone(datum: SphericalDatum, tau: Cone) -> Cone:
    """Image of the valuation cone in the canonical chart modulo span(tau)."""
    if not relint_meets_valuation_cone(datum, tau):
        raise ValueError("face interior does not meet the valuation cone")
    return Stratum.of(datum, ColoredCone(tau)).valuation_cone_image


@dataclass(frozen=True)
class Stratum:
    """One piece V_tau of the extended tropicalization."""

    face: ColoredCone
    chart: tuple[IntVector, ...]
    valuation_cone_image: Cone

    def __post_init__(self):
        if self.valuation_cone_image.ambient_dim != len(self.chart):
            raise ValueError("valuation-cone image does not live in the "
                             "stratum chart")

    @classmethod
    def of(cls, datum: SphericalDatum, face: ColoredCone) -> "Stratum":
        """V_tau: the valuation cone in the canonical chart modulo span(tau)."""
        chart = quotient_chart(face.cone.generators, datum.rank)
        return cls(face, chart, Cone.from_generators(
            [project_to_chart(chart, g)
             for g in datum.valuation_cone.generators], len(chart)))

    @property
    def labels(self) -> frozenset[str]:
        return self.face.colors

    @property
    def key(self) -> StratumKey:
        return stratum_key(self.face)

    @property
    def quotient_dim(self) -> int:
        return len(self.chart)

    def point(self, value: Sequence) -> "ExtendedPoint":
        return ExtendedPoint(self, vec(value))


@dataclass(frozen=True)
class ExtendedPoint:
    stratum: Stratum
    value: Vector

    def __post_init__(self):
        if len(self.value) != self.stratum.quotient_dim:
            raise ValueError("point dimension does not match the stratum chart")

    @property
    def stratum_key(self) -> StratumKey:
        return self.stratum.key


class ExtendedTrop:
    """Glued strata of an embedding, keyed by colored face."""

    def __init__(self, ambient_rank: int, strata: Sequence[Stratum],
                 adjacency: Mapping[StratumKey, frozenset[StratumKey]]):
        self.ambient_rank = ambient_rank
        self.strata: dict[StratumKey, Stratum] = {s.key: s for s in strata}
        self.adjacency = {k: frozenset(v) for k, v in adjacency.items()}

    def stratum_of_face(self, tau: Cone) -> Stratum:
        for s in self.strata.values():
            if s.face.cone == tau:
                return s
        raise KeyError("no stratum with the given face")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtendedTrop):
            return NotImplemented
        return (self.ambient_rank == other.ambient_rank
                and self.strata == other.strata
                and self.adjacency == other.adjacency)

    def __repr__(self):
        dims = sorted((s.quotient_dim for s in self.strata.values()),
                      reverse=True)
        return f"ExtendedTrop(rank={self.ambient_rank}, stratum_dims={dims})"


def tropicalize_embedding(datum: SphericalDatum, fan: ColoredFan
                          ) -> ExtendedTrop:
    """One stratum per distinct colored face across all maximal cones.

    Faces shared by several cones are glued, i.e. contribute one stratum.
    The faces below a colored face are the colored faces of its maximal
    cone that it contains.
    """
    report = validate_colored_fan(datum, fan)
    if not report.ok:
        raise ValueError(f"invalid colored fan: {report.failures}")
    strata: dict[StratumKey, Stratum] = {}
    face_of: dict[StratumKey, frozenset[StratumKey]] = {}
    for cc in fan.maximal_cones():
        faces = colored_faces(datum, cc)
        for f in faces:
            key = stratum_key(f)
            if key not in strata:
                strata[key] = Stratum.of(datum, f)
            sub = frozenset(stratum_key(g) for g in faces
                            if f.cone.contains_cone(g.cone))
            face_of[key] = face_of.get(key, frozenset()) | sub
    return ExtendedTrop(datum.rank, list(strata.values()), face_of)


def evaluate_point(p: ExtendedPoint, u: Sequence) -> ExtendedRational:
    """The extended homomorphism at a character u in the dual of the cone.

    Returns infinity off tau-perp, otherwise the pairing of u with any
    representative of the chart value.
    """
    u = vec(u)
    tau = p.stratum.face.cone
    for r in tau.rays:
        if dot(u, r) < 0:
            raise ValueError("functional is negative on the face")
    for l in tau.lineality:
        if dot(u, l) != 0:
            raise ValueError("functional is nonzero on the face lineality")
    if any(dot(u, r) != 0 for r in tau.rays):
        return INF
    rep = embed_from_chart(p.stratum.chart, p.value)
    return dot(u, rep)


def limit_point(trop: ExtendedTrop, w: Sequence, tau: Cone) -> ExtendedPoint:
    """Limit of w + n*r (r interior to tau) in the tau-stratum."""
    s = trop.stratum_of_face(tau)
    return s.point(project_to_chart(s.chart, vec(w)))


def contains_point(trop: ExtendedTrop, p: ExtendedPoint) -> bool:
    if p.stratum_key not in trop.strata:
        raise KeyError("unknown stratum")
    s = trop.strata[p.stratum_key]
    return s.valuation_cone_image.contains(p.value)


@dataclass(frozen=True)
class TropSubset:
    """A per-stratum family of polyhedral sets inside an ExtendedTrop."""

    trop: ExtendedTrop
    sets: Mapping[StratumKey, object]

    def is_empty(self) -> bool:
        return all(s.is_empty_set() for s in self.sets.values())


def assemble_subvariety_trop(trop: ExtendedTrop,
                             per_stratum_sets: Mapping[StratumKey, object]
                             ) -> TropSubset:
    """Tag user- or fundthm-supplied polyhedral sets onto the strata.

    Each set must live inside the stratum's valuation cone; containment is
    checked exactly, cell by cell.
    """
    from .polyhedra import affine_feasible

    tagged = {}
    for key, cx in per_stratum_sets.items():
        if key not in trop.strata:
            raise KeyError(f"unknown stratum key {key!r}")
        s = trop.strata[key]
        if cx.ambient_dim != s.quotient_dim:
            raise ValueError("set dimension does not match the stratum")
        cone = s.valuation_cone_image
        halfspaces = ([(h, 0) for h in cone.inequalities]
                      + [(e, 0) for e in cone.equations]
                      + [(tuple(-x for x in e), 0) for e in cone.equations])
        for cell in cx.cells:
            for coeffs, rhs in halfspaces:
                escapes = affine_feasible(
                    list(cell.equalities), list(cell.inequalities),
                    [(tuple(-c for c in coeffs), -rhs)], cx.ambient_dim)
                if escapes:
                    raise ValueError(
                        "set escapes the stratum's valuation cone")
        tagged[key] = cx
    return TropSubset(trop, tagged)
