"""Valuation-graded initial forms and the Groebner-side tropicalization.

For a weight v (possibly with infinite entries) the coordinate ring splits
into graded pieces by valuation level, with an extra v = infinity summand
for embeddings.  The Groebner-side extended tropicalization of the embedding
itself is computed stratum by stratum from the fan members and compared,
as a stratified set, against the face-wise construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .linalg import fraction_rows
from .puiseux import (
    INF,
    ExtendedRational,
    ExtendedWeight,
    ResiduePolynomial,
    ValuedPolynomial,
)
from .spherical import ColoredFan, SphericalDatum, validate_colored_fan
from .troposphere import ExtendedTrop, Stratum, StratumKey, stratum_key


@dataclass(frozen=True)
class GradedInitialForm:
    """The class of f in its minimal graded piece under a weight valuation."""

    weight: ExtendedWeight
    grade: ExtendedRational
    representative: ValuedPolynomial
    infinite_part: ValuedPolynomial
    residue: ResiduePolynomial

    def is_unit_class(self) -> bool:
        """Whether the class generates its graded piece, i.e. is a monomial."""
        return self.grade is not INF and self.residue.is_monomial()


def graded_initial_form(f: ValuedPolynomial, v: Sequence[ExtendedRational]
                        ) -> GradedInitialForm:
    """Split f by grade: minimal finite-grade part plus the v=inf summand.

    The grade of f is its tropical value; terms of strictly larger grade
    vanish in the quotient, and terms of infinite grade live in the extra
    summand.  For finite v the residue agrees with the ordinary initial
    form of f.  One pass of term weights gives all of it: the grade is the
    least finite weight, and the residue is read off the grade-minimal terms.
    """
    v = tuple(v)
    weights = f.term_weights(v)
    grade = min(weights, default=INF)
    finite_min = {}
    infinite = {}
    for (u, c), w in zip(f.terms, weights):
        if w is INF:
            infinite[u] = c
        elif w == grade:
            finite_min[u] = c
    if grade is INF:
        rep = f
    else:
        rep = ValuedPolynomial.from_dict(f.nvars, finite_min, laurent=f.laurent)
    return GradedInitialForm(
        weight=v,
        grade=grade,
        representative=rep,
        infinite_part=ValuedPolynomial.from_dict(f.nvars, infinite,
                                                 laurent=f.laurent),
        residue=ResiduePolynomial.from_dict(f.nvars, {
            u: c.leading_coefficient() for u, c in finite_min.items()}))


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
        raise ValueError(f"invalid colored fan: {report.failures}")

    strata = [Stratum.of(datum, cc) for cc in fan.cones]

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
        raise ValueError("ambient ranks differ")
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
