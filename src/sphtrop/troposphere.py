"""Extended tropicalization of a spherical embedding.

The tropicalization of an embedding with colored fan Sigma is the disjoint
union, over all colored faces tau, of the image V_tau of the valuation cone
in the quotient N_Q / span(tau).  A valid fan is closed under colored faces,
so each member's own colored faces give its strata and the faces below it;
equal colored faces of several members are glued into one stratum.  Points
of a stratum are stored in a canonical chart on tau-perp, and evaluation
against lattice functionals recovers the extended (rational or infinite)
semigroup homomorphism.

``Stratum.of`` is the one builder of V_tau: it fixes the chart of a face and
projects the valuation cone into it by one integer ``rref``
(``linalg.chart_coordinates``).  Both routes, the
face-wise one here and the Groebner-side one in ``grobtrop``, build their
strata with it; they differ only in how they traverse the faces.  V_tau
depends only on V and span(tau), which the face's canonical equations fix,
so the chart and the image are built once per (V, equations) pair in an LRU
memo of at most ``polyhedra.CONE_CACHE_SIZE`` entries, ``_quotient_image``;
faces that share a span share one image cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .linalg import (DomainError, IntVector, Vector, chart_coordinates, dot,
                     kernel_basis, project_to_chart, vec)
from .polyhedra import CONE_CACHE_SIZE, Cone, quotient_chart
from .puiseux import INF, ExtendedRational
from .spherical import (
    ColoredCone,
    ColoredFan,
    SphericalDatum,
    colored_faces,
    validate_colored_fan,
)

StratumKey = tuple


def stratum_key(face: ColoredCone) -> StratumKey:
    return (face.cone.canonical_key(), tuple(sorted(face.colors)))


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
        """V_tau: the valuation cone in the canonical chart modulo span(tau).

        ``chart_coordinates`` projects all of V's generators by one ``rref``;
        its common positive scale leaves the cone they span unchanged."""
        if face.cone.ambient_dim != datum.rank:
            raise ValueError("dimension mismatch")
        return cls(face, *_quotient_image(datum.valuation_cone,
                                          face.cone.equations))

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


@lru_cache(maxsize=CONE_CACHE_SIZE)
def _quotient_image(valuation_cone: Cone, equations: tuple[IntVector, ...]
                    ) -> tuple[tuple[IntVector, ...], Cone]:
    """The chart of the span cut out by the equations, and V's image in it.

    The span is the kernel of the equations; ``quotient_chart`` reads only
    its row space, so the chart is the one a face's generators give."""
    rank = valuation_cone.ambient_dim
    chart = quotient_chart(kernel_basis(equations, rank), rank)
    gens, _ = chart_coordinates(chart, valuation_cone.generators)
    return chart, Cone.from_generators(gens, len(chart))


@dataclass(frozen=True)
class ExtendedPoint:
    stratum: Stratum
    value: Vector

    def __post_init__(self):
        if len(self.value) != self.stratum.quotient_dim:
            raise ValueError("point dimension does not match the stratum chart")


@dataclass
class ExtendedTrop:
    """Glued strata keyed by colored face; ``==`` compares all three fields."""

    ambient_rank: int
    strata: dict[StratumKey, Stratum]
    adjacency: Mapping[StratumKey, frozenset[StratumKey]]

    def stratum_of_face(self, tau: Cone) -> Stratum:
        for s in self.strata.values():
            if s.face.cone == tau:
                return s
        raise KeyError("no stratum with the given face")


def tropicalize_embedding(datum: SphericalDatum, fan: ColoredFan
                          ) -> ExtendedTrop:
    """One stratum per distinct colored face of the fan's members.

    Faces shared by several members are glued, i.e. contribute one stratum.
    A valid fan is closed under colored faces, so the faces below a member
    are its own colored faces.
    """
    report = validate_colored_fan(datum, fan)
    if not report.ok:
        raise DomainError(f"invalid colored fan: {report.failures}")
    strata: dict[StratumKey, Stratum] = {}
    face_of: dict[StratumKey, frozenset[StratumKey]] = {}
    for cc in fan.cones:
        faces = colored_faces(datum, cc)
        for f in faces:
            key = stratum_key(f)
            if key not in strata:
                strata[key] = Stratum.of(datum, f)
        face_of[stratum_key(cc)] = frozenset(map(stratum_key, faces))
    return ExtendedTrop(datum.rank, strata, face_of)


def evaluate_point(p: ExtendedPoint, u: Sequence) -> ExtendedRational:
    """The extended homomorphism at a character u in the dual of the cone.

    Returns infinity off tau-perp, otherwise the pairing of u with the
    representative sum_k value[k] chart[k] of the chart value.
    """
    u = vec(u)
    tau = p.stratum.face.cone
    pairings = [dot(u, r) for r in tau.rays]
    if any(x < 0 for x in pairings):
        raise ValueError("functional is negative on the face")
    for l in tau.lineality:
        if dot(u, l) != 0:
            raise ValueError("functional is nonzero on the face lineality")
    if any(pairings):
        return INF
    return sum(x * dot(u, c) for x, c in zip(p.value, p.stratum.chart))


def limit_point(trop: ExtendedTrop, w: Sequence, tau: Cone) -> ExtendedPoint:
    """Limit of w + n*r (r interior to tau) in the tau-stratum."""
    s, w = trop.stratum_of_face(tau), vec(w)
    if len(w) != trop.ambient_rank:
        raise ValueError("dimension mismatch")
    return s.point(project_to_chart(s.chart, w))


def contains_point(trop: ExtendedTrop, p: ExtendedPoint) -> bool:
    if p.stratum.key not in trop.strata:
        raise KeyError("unknown stratum")
    s = trop.strata[p.stratum.key]
    return s.valuation_cone_image.contains(p.value)
