"""Spherical data, colored cones, colored faces, and colored fans.

A SphericalDatum is the combinatorial shadow of a spherical homogeneous
space: rank, valuation cone, and a palette of named colors with their
images in N_Q.  Colors are identified by name; several colors may share
the same image vector.  A fan's validity depends on nothing but the datum
and the fan, so ``validate_colored_fan`` copies it from ``_validate_fan``, an
LRU memo of at most ``FAN_CACHE_SIZE`` verdicts (errors are not cached), to
a fresh report on every call.  In the same way a colored cone's verdict and
its colored faces depend only on the datum and the colored cone: both are
built once per entry of one LRU memo, ``_cone_record``, of at most
``polyhedra.CONE_CACHE_SIZE`` entries (every key holds a cone of that memo),
and ``validate_colored_cone`` and ``colored_faces`` copy them to a fresh
report or list.  A cone of the wrong rank raises before the memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .linalg import Vector, dot, fraction_rows, vec
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
        names = [c.name for c in self.palette]
        if len(set(names)) != len(names):
            raise ValueError("color names must be unique")
        for c in self.palette:
            if len(c.rho) != self.rank:
                raise ValueError(f"color {c.name} has wrong dimension")

    def color(self, name: str) -> Color:
        for c in self.palette:
            if c.name == name:
                return c
        raise KeyError(f"unknown color {name!r}")


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
        out = []
        for cc in self.cones:
            # a strict container may share the dimension (half-plane, quadrant)
            strictly_below = any(
                other is not cc and other.cone.dim() >= cc.cone.dim()
                and other.cone.contains_cone(cc.cone)
                and other.cone != cc.cone
                for other in self.cones)
            if not strictly_below:
                out.append(cc)
        return out


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
        raise ValueError(f"invalid colored cone: {report.failures}")
    return list(_cone_record(datum, cc)[2])


def _facet_separates(a: Cone, b: Cone) -> bool:
    """Some facet h of a has h.g <= 0 on every generator g of b.

    Every facet is positive on relint(a), so relint(a) then misses b.
    """
    return any(all(dot(h, g) <= 0 for g in b.generators)
               for h in a.inequalities)


def validate_colored_fan(datum: SphericalDatum, fan: ColoredFan,
                         require_strict: bool = False) -> ValidationReport:
    """Face closure, relint disjointness inside V, and optional strictness."""
    ok, failures, strict = _validate_fan(datum, fan, require_strict)
    return ValidationReport(ok, list(failures), strict)


# Bound on the distinct (datum, fan, require_strict) verdicts kept.
FAN_CACHE_SIZE = 32


@lru_cache(maxsize=FAN_CACHE_SIZE)
def _validate_fan(datum: SphericalDatum, fan: ColoredFan,
                  require_strict: bool) -> tuple[bool, tuple[str, ...], bool]:
    """The verdict ``(ok, failures, strictly_convex)`` on a fan."""
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
    seen = {(cc.cone.canonical_key(), cc.colors) for cc in fan.cones}
    for cc in fan.cones:
        for face in _cone_record(datum, cc)[2]:
            key = (face.cone.canonical_key(), face.colors)
            if key not in seen:
                seen.add(key)
                failures.append(
                    "face-closure: missing face "
                    f"{fraction_rows(face.cone.rays)} "
                    f"with colors {sorted(face.colors)}")

    for i, a in enumerate(fan.cones):
        for b in fan.cones[i + 1:]:
            if a.cone == b.cone:
                failures.append("interior-overlap: duplicate cone with "
                                + ("the same" if a.colors == b.colors
                                   else "different") + " colors")
                continue
            # a facet of one cone that separates the pair needs no sweep
            if (_facet_separates(a.cone, b.cone)
                    or _facet_separates(b.cone, a.cone)):
                continue
            meet = a.cone.intersect(b.cone).intersect(datum.valuation_cone)
            y = meet.relint_point()
            if a.cone.relint_contains(y) and b.cone.relint_contains(y):
                failures.append(
                    f"interior-overlap: cones {fraction_rows(a.cone.rays)} "
                    f"and {fraction_rows(b.cone.rays)} share "
                    "relative-interior points inside V")

    if require_strict and not strict:
        failures.append("strict-convexity")
    return not failures, tuple(failures), strict
