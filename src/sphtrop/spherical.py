"""Spherical data, colored cones, colored faces, and colored fans.

A SphericalDatum is the combinatorial shadow of a spherical homogeneous
space: rank, valuation cone, and a palette of named colors with their
images in N_Q.  Colors are identified by name; several colors may share
the same image vector.  A fan's validity depends on nothing but the datum
and the fan, the key of ``_validate_fan``, an LRU memo of at most
``FAN_CACHE_SIZE`` verdicts (errors are not cached); ``validate_colored_fan``
copies its verdict to a fresh report on every call; strict convexity is
reported, never a failure.  In the same way a colored cone's verdict and its
colored faces depend only on the datum and the colored cone: both are built
once per entry of one LRU memo, ``_cone_record``, of at most
``polyhedra.CONE_CACHE_SIZE`` entries (every key holds a cone of that memo),
and ``validate_colored_cone`` and ``colored_faces`` copy them to a fresh
report or list.  A cone of the wrong rank raises before the memo.

The fan's overlap pass reads the signs of every member's facet and
equation rows on one index of the distinct generators of all members
(``_separated``).  A pair that some row separates (>= 0 on one member,
<= 0 on the other, nonzero on a generator of either) has disjoint relative
interiors and skips the sweep; every other pair runs the intersect and
relative-interior-point test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .linalg import DomainError, Vector, dot, fraction_rows, vec
from .polyhedra import CONE_CACHE_SIZE, Cone


@dataclass(frozen=True)
class Color:
    name: str
    rho: Vector

    def __post_init__(self):
        object.__setattr__(self, "rho", vec(self.rho))


@dataclass(frozen=True)
class SphericalDatum:
    rank: int
    valuation_cone: Cone
    palette: tuple[Color, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "palette", tuple(self.palette))
        if self.valuation_cone.ambient_dim != self.rank:
            raise ValueError("valuation cone ambient dimension must equal the rank")
        if len(self._by_name) != len(self.palette):
            raise ValueError("color names must be unique")
        for c in self.palette:
            if len(c.rho) != self.rank:
                raise ValueError(f"color {c.name} has wrong dimension")

    @cached_property
    def _by_name(self) -> dict[str, Color]:
        """The palette indexed by name; no part of ``==`` or ``hash``."""
        return {c.name: c for c in self.palette}

    def color(self, name: str) -> Color:
        if name not in self._by_name:
            raise KeyError(f"unknown color {name!r}")
        return self._by_name[name]


@dataclass(frozen=True)
class ColoredCone:
    cone: Cone
    colors: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "colors", frozenset(self.colors))


@dataclass(frozen=True)
class ColoredFan:
    cones: tuple[ColoredCone, ...]

    def __post_init__(self):
        object.__setattr__(self, "cones", tuple(self.cones))

    def maximal_cones(self) -> list[ColoredCone]:
        # a strict container may share the dimension (half-plane, quadrant)
        return [cc for cc in self.cones
                if not any(o.cone != cc.cone and o.cone.contains_cone(cc.cone)
                           for o in self.cones)]


def _separated(cones: list[Cone]) -> list[int]:
    """Bit j of entry i is set when some facet or equation row h of a member
    separates members i and j.

    Each member is a mask over one index of the distinct generators of all
    members (rays, lineality vectors and their negatives).  Per row, a
    member is in class 0, 1 or 2 when h is zero on all its generators,
    >= 0 and not all zero, or <= 0 and not all zero, and in class 3 (mixed)
    otherwise.  Two members of different classes, neither mixed, are
    separated: h > 0 or h < 0 on the relative interior of one and the
    opposite weak sign on the other.
    """
    index: dict[tuple, int] = {}
    gens = []
    for cone in cones:
        mask = 0
        for g in cone.generators:
            mask |= 1 << index.setdefault(g, len(index))
        gens.append(mask)
    apart = [0] * len(cones)
    for h in dict.fromkeys(r for cone in cones
                           for r in cone.inequalities + cone.equations):
        pos = neg = 0
        for bit, g in enumerate(index):
            s = dot(h, g)
            if s > 0:
                pos |= 1 << bit
            elif s < 0:
                neg |= 1 << bit
        side = [bool(g & pos) | bool(g & neg) << 1 for g in gens]
        members = [0] * 4
        for i, k in enumerate(side):
            members[k] |= 1 << i
        definite = members[0] | members[1] | members[2]
        for i, k in enumerate(side):
            if k != 3:
                apart[i] |= definite ^ members[k]
    return apart


@dataclass
class ValidationReport:
    ok: bool
    failures: list[str] = field(default_factory=list)
    strictly_convex: bool | None = None

    def to_json(self) -> dict:
        return {"ok": self.ok, "failures": list(self.failures),
                "strictly_convex": self.strictly_convex}


def relint_meets_valuation_cone(datum: SphericalDatum, cone: Cone) -> bool:
    """Exact test of relint(sigma) meeting V, without linear programming.

    A relative-interior point of sigma cap V, when one exists, lies in
    relint(sigma) exactly when the intersection does; the sum of the
    extreme rays of sigma cap V is such a point.
    """
    meet = cone.intersect(datum.valuation_cone)
    return cone.relint_contains(meet.relint_point())


def validate_colored_cone(datum: SphericalDatum, cc: ColoredCone,
                          ) -> ValidationReport:
    """Check the colored-cone axioms; strict convexity is reported separately."""
    if cc.cone.ambient_dim != datum.rank:
        raise ValueError("cone ambient dimension must equal the rank")
    failures, strictly_convex, _ = _cone_record(datum, cc)
    return ValidationReport(ok=not failures, failures=list(failures),
                            strictly_convex=strictly_convex)


@lru_cache(maxsize=CONE_CACHE_SIZE)
def _cone_record(datum: SphericalDatum, cc: ColoredCone
                 ) -> tuple[tuple[str, ...], bool, tuple[ColoredCone, ...]]:
    """``(failures, strictly_convex, colored_faces)`` of a cone of the rank;
    an invalid cone has no faces."""
    sigma = cc.cone
    rho_images = [datum.color(name).rho for name in sorted(cc.colors)]

    failures = []
    if not all(sigma.contains(r) for r in rho_images):
        failures.append("rho-containment")
    meet = sigma.intersect(datum.valuation_cone)
    generated = Cone.from_generators(
        list(rho_images) + list(meet.generators), datum.rank)
    if generated != sigma:
        failures.append("generation")
    if not sigma.relint_contains(meet.relint_point()):
        failures.append("interior-meets-V")
    strictly_convex = (sigma.is_strictly_convex()
                       and all(any(x != 0 for x in r) for r in rho_images))
    if failures:
        return tuple(failures), strictly_convex, ()
    faces = tuple(
        ColoredCone(tau, frozenset(name for name in cc.colors
                                   if tau.contains(datum.color(name).rho)))
        for tau in sigma.faces() if relint_meets_valuation_cone(datum, tau))
    return (), strictly_convex, faces


def colored_faces(datum: SphericalDatum, cc: ColoredCone) -> list[ColoredCone]:
    """All colored faces of a valid colored cone, including the cone itself.

    A face tau qualifies when relint(tau) meets V; it inherits the colors
    of cc whose images land in tau.
    """
    report = validate_colored_cone(datum, cc)
    if not report.ok:
        raise DomainError(f"invalid colored cone: {report.failures}")
    return list(_cone_record(datum, cc)[2])


def validate_colored_fan(datum: SphericalDatum, fan: ColoredFan
                         ) -> ValidationReport:
    """Face closure and relint disjointness in V; strictness is reported."""
    failures, strict = _validate_fan(datum, fan)
    return ValidationReport(not failures, list(failures), strict)


# Bound on the distinct (datum, fan) verdicts kept.
FAN_CACHE_SIZE = 32


@lru_cache(maxsize=FAN_CACHE_SIZE)
def _validate_fan(datum: SphericalDatum, fan: ColoredFan
                  ) -> tuple[tuple[str, ...], bool]:
    """The verdict ``(failures, strictly_convex)``."""
    failures: list[str] = []
    strict = True
    for i, cc in enumerate(fan.cones):
        rep = validate_colored_cone(datum, cc)
        if not rep.ok:
            failures.append(f"member-invalid[{i}]: {','.join(rep.failures)}")
        if not rep.strictly_convex:
            strict = False

    # fan members, then each missing face once it has been reported; an
    # invalid member has no colored faces
    seen = set(fan.cones)
    for cc in fan.cones:
        for face in _cone_record(datum, cc)[2]:
            if face not in seen:
                seen.add(face)
                failures.append(
                    "face-closure: missing face "
                    f"{fraction_rows(face.cone.rays)} "
                    f"with colors {sorted(face.colors)}")

    apart = _separated([cc.cone for cc in fan.cones])
    for i, a in enumerate(fan.cones):
        for j, b in enumerate(fan.cones[i + 1:], i + 1):
            # a pair that some member's row separates needs no sweep, and is
            # no duplicate: equal cones have equal signs on every row
            if apart[i] >> j & 1:
                continue
            if a.cone == b.cone:
                failures.append("interior-overlap: duplicate cone with "
                                + ("the same" if a.colors == b.colors
                                   else "different") + " colors")
                continue
            meet = a.cone.intersect(b.cone).intersect(datum.valuation_cone)
            y = meet.relint_point()
            if a.cone.relint_contains(y) and b.cone.relint_contains(y):
                failures.append(
                    f"interior-overlap: cones {fraction_rows(a.cone.rays)} "
                    f"and {fraction_rows(b.cone.rays)} share "
                    "relative-interior points inside V")

    return tuple(failures), strict
