"""Time fan validation and both tropicalizations on large complete fans.

Usage, from the repository root::

    python tests/tools/fan_scale.py [--rays N [N ...]]

For each N in ``--rays`` (default 256 and 511) the fan is the complete
rank-2 fan on N rays: the primitive vectors of [-BOX, BOX]^2, sorted by
angle, taken evenly (every len/N-th one), with the N two-dimensional cones
between neighbours and the zero cone, 2N + 1 cones in all, no colors, and
the whole space as valuation cone.  Each line gives N, the cones and the
seconds of three stages:
- validate: ``validate_colored_fan``;
- face-wise: ``tropicalize_embedding``;
- Groebner: ``grobner_tropicalize_embedding``.

The memos ``_cone_from_generators``, ``_cone_record``, ``_validate_fan``
and ``_quotient_image`` are cleared before each stage, so each stage starts
cold, and each route's seconds include its own validation of the fan.
The package timed is the one under this checkout's ``src``.  Needs nothing
beyond the standard library.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from sphtrop import polyhedra, spherical, troposphere  # noqa: E402
from sphtrop.grobtrop import grobner_tropicalize_embedding  # noqa: E402
from sphtrop.polyhedra import Cone  # noqa: E402
from sphtrop.spherical import (ColoredCone, ColoredFan,  # noqa: E402
                               SphericalDatum, validate_colored_fan)
from sphtrop.troposphere import tropicalize_embedding  # noqa: E402

# Half-width of the box of integer vectors the rays are taken from.
BOX = 40


def primitive_vectors() -> list[tuple[int, int]]:
    """The primitive vectors of [-BOX, BOX]^2, sorted by angle."""
    vectors = [(a, b) for a in range(-BOX, BOX + 1)
               for b in range(-BOX, BOX + 1) if math.gcd(a, b) == 1]
    return sorted(vectors, key=lambda v: math.atan2(v[1], v[0]))


def complete_fan(n: int):
    """The datum and the complete colored fan on n rays, 2n + 1 cones."""
    vectors = primitive_vectors()
    rays = [vectors[i * len(vectors) // n] for i in range(n)]
    cones = [Cone.zero(2)]
    cones += [Cone.from_generators([r], 2) for r in rays]
    cones += [Cone.from_generators([r, rays[(i + 1) % n]], 2)
              for i, r in enumerate(rays)]
    datum = SphericalDatum(2, Cone.full_space(2), ())
    return datum, ColoredFan(tuple(map(ColoredCone, cones)))


def clear_memos() -> None:
    for memo in (polyhedra._cone_from_generators, spherical._cone_record,
                 spherical._validate_fan, troposphere._quotient_image):
        memo.cache_clear()


def time_one(n: int) -> str:
    datum, fan = complete_fan(n)
    seconds = []
    for stage in (validate_colored_fan, tropicalize_embedding,
                  grobner_tropicalize_embedding):
        clear_memos()
        start = time.perf_counter()
        stage(datum, fan)
        seconds.append(time.perf_counter() - start)
    return (f"rays={n} cones={len(fan.cones)} validate={seconds[0]:.3f} s "
            f"face-wise={seconds[1]:.3f} s Groebner={seconds[2]:.3f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rays", nargs="+", type=int, default=[256, 511],
                        help="numbers of rays, each giving a fan of "
                             "2N + 1 cones")
    args = parser.parse_args(argv)
    if not all(3 <= n <= len(primitive_vectors()) for n in args.rays):
        parser.error(f"each N must lie in [3, {len(primitive_vectors())}]")
    for n in args.rays:
        print(time_one(n), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
