"""The Groebner-side tropicalization of an embedding, and its comparison.

The extended tropicalization of the embedding is computed stratum by
stratum from the fan members and compared, as a stratified set, against the
face-wise construction.  The graded-piece unit test of a polynomial under
an extended weight is ``fundthm.membership_set2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import DomainError, fraction_rows
from .spherical import ColoredFan, SphericalDatum, validate_colored_fan
from .troposphere import ExtendedTrop, Stratum, StratumKey, stratum_key


def grobner_tropicalize_embedding(datum: SphericalDatum, fan: ColoredFan
                                  ) -> ExtendedTrop:
    """Stratified set of extended valuations finite exactly on tau-perp.

    Enumerates the colored faces directly as fan members (a valid fan is
    face-closed), so this shares no traversal code with the face-wise
    construction; per face the admissible set is the projected valuation
    cone, the union-over-Borel-subgroups closure, built by ``Stratum.of``.
    """
    report = validate_colored_fan(datum, fan)
    if not report.ok:
        raise DomainError(f"invalid colored fan: {report.failures}")

    strata = {stratum_key(cc): Stratum.of(datum, cc) for cc in fan.cones}

    # Adjacency from the pairwise polyhedral face relation plus the color
    # inheritance rule, independent of the recursive face enumeration.
    adjacency: dict[StratumKey, frozenset[StratumKey]] = {}
    for a in fan.cones:
        below = set()
        for b in fan.cones:
            if not b.cone.is_face_of(a.cone):
                continue
            inherited = frozenset(
                name for name in a.colors
                if b.cone.contains(datum.color(name).rho))
            if inherited == b.colors:
                below.add(stratum_key(b))
        adjacency[stratum_key(a)] = frozenset(below)
    return ExtendedTrop(datum.rank, strata, adjacency)


@dataclass
class ComparisonReport:
    mismatches: list[str] = field(default_factory=list)
    strata_checked: int = 0

    @property
    def equal(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {"equal": self.equal, "strata_checked": self.strata_checked,
                "mismatches": list(self.mismatches)}


def _shown(key: StratumKey) -> str:
    """A stratum key as report text, its cone rows printed as ``Fraction``s."""
    (dim, rays, lineality), colors = key
    return str(((dim, fraction_rows(rays), fraction_rows(lineality)), colors))


def compare_tropicalizations(a: ExtendedTrop, b: ExtendedTrop
                             ) -> ComparisonReport:
    """Stratum-by-stratum equality of two extended tropicalizations; each
    loop runs over its keys in sorted order, so the report does not depend
    on string hashing."""
    if a.ambient_rank != b.ambient_rank:
        raise DomainError(f"ambient ranks differ: {a.ambient_rank} on the "
                          f"left, {b.ambient_rank} on the right")
    report = ComparisonReport()
    for key in sorted(a.strata.keys() - b.strata.keys()):
        report.mismatches.append(f"stratum only on the left: {_shown(key)}")
    for key in sorted(b.strata.keys() - a.strata.keys()):
        report.mismatches.append(f"stratum only on the right: {_shown(key)}")
    for key in sorted(a.strata.keys() & b.strata.keys()):
        report.strata_checked += 1
        if (a.strata[key].valuation_cone_image
                != b.strata[key].valuation_cone_image):
            report.mismatches.append(
                f"valuation-cone images differ at {_shown(key)}")
        if a.adjacency.get(key) != b.adjacency.get(key):
            report.mismatches.append(f"adjacency differs at {_shown(key)}")
    return report
