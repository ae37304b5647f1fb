"""The scale-free renderer against the extent-taking one it replaced.

Every coordinate of the old figures was linear in ``extent`` and both
canvases divided it out again, so the new figures, drawn in the fixed
``BOX`` frame, must equal the old ones at every positive extent.
"""

import itertools
from fractions import Fraction
from typing import Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from sphtrop import render
from sphtrop.linalg import (Vector, dot, embed_from_chart, is_zero_vec,
                            primitive, vadd, vec, vscale)
from sphtrop.polyhedra import Cone
from sphtrop.spherical import Color, ColoredCone, ColoredFan, SphericalDatum
from sphtrop.troposphere import ExtendedTrop, Stratum, tropicalize_embedding

# -- oracle: sphtrop.render as it was before it dropped ``extent``, verbatim --


def _scale_to_box(v: Vector, extent: Fraction) -> Vector:
    """Scale a nonzero vector so its largest coordinate magnitude is extent/1."""
    m = max(abs(x) for x in v)
    if m == 0:
        return v
    return vscale(Fraction(extent) / m, v)


def _anchor(s: Stratum, extent: Fraction) -> Vector:
    gens = s.face.cone.rays + s.face.cone.lineality   # primitive already
    if not gens:
        return (Fraction(0),) * s.face.cone.ambient_dim
    total = tuple(map(sum, zip(*gens)))
    if is_zero_vec(total):
        total = gens[0]
    return _scale_to_box(total, extent)


def _pad2(v: Sequence[Fraction]) -> Vector:
    v = tuple(v)
    return (v + (Fraction(0), Fraction(0)))[:2]


def _embedded_pieces(t: ExtendedTrop, extent: Fraction):
    """Per stratum: (dim, anchor, direction vectors in the plane, labels)."""
    pieces = []
    for key in sorted(t.strata):
        s = t.strata[key]
        img = s.valuation_cone_image
        dirs = [_pad2(embed_from_chart(s.chart, g)) for g in img.generators]
        pieces.append((img.dim(), _pad2(_anchor(s, extent)), dirs,
                       sorted(s.labels)))
    return pieces


def _clip_polygon(poly, coeffs, rhs):
    """Sutherland-Hodgman clip of a polygon by {x : coeffs . x >= rhs}."""
    out = []
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        fa, fb = dot(coeffs, a) - rhs, dot(coeffs, b) - rhs
        if fa >= 0:
            out.append(a)
        if (fa > 0 and fb < 0) or (fa < 0 and fb > 0):
            s = fa / (fa - fb)
            out.append(tuple(x + s * (y - x) for x, y in zip(a, b)))
    return out


def _cone_polygon(anchor: Vector, dirs: Sequence[Vector], extent: Fraction):
    """The translated cone hull clipped to the extent box, as a polygon."""
    big = 8 * extent
    pts = [anchor] + [vadd(anchor, _scale_to_box(d, big)) for d in dirs]
    # convex hull by angular sort around the centroid (exact cross products)
    def cross(o, a, b):
        return ((a[0] - o[0]) * (b[1] - o[1])
                - (a[1] - o[1]) * (b[0] - o[0]))
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    poly = lower[:-1] + upper[:-1]
    for coeffs, rhs in [((1, 0), -extent), ((-1, 0), -extent),
                        ((0, 1), -extent), ((0, -1), -extent)]:
        poly = _clip_polygon(poly, vec(coeffs), Fraction(rhs))
        if not poly:
            return []
    return poly


def _clip_ray(anchor: Vector, d: Vector, extent: Fraction):
    """Endpoint of anchor + s*d at the extent box, or None if it exits at 0."""
    smax = None
    for i in range(2):
        for bound in (extent, -extent):
            if d[i] == 0:
                continue
            s = (bound - anchor[i]) / d[i]
            if s > 0:
                hit = vadd(anchor, vscale(s, d))
                if all(abs(x) <= extent for x in hit):
                    if smax is None or s > smax:
                        smax = s
    if smax is None:
        return None
    return vadd(anchor, vscale(smax, d))


def render_svg(t: ExtendedTrop, extent: Fraction = Fraction(2)) -> str:
    if t.ambient_rank > 2:
        raise ValueError("rendering supports rank <= 2 only")
    size, margin = 360, 20
    span = 2 * extent

    def px(p: Vector) -> tuple[str, str]:
        x, y = p
        sx = margin + (x + extent) / span * size
        sy = margin + (extent - y) / span * size
        return f"{float(sx):.2f}", f"{float(sy):.2f}"

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{size + 2 * margin}" height="{size + 2 * margin}" '
             f'viewBox="0 0 {size + 2 * margin} {size + 2 * margin}">']
    pieces = _embedded_pieces(t, extent)
    for dim, anchor, dirs, labels in pieces:          # shaded regions first
        if dim == 2:
            poly = _cone_polygon(anchor, dirs, extent)
            if poly:
                coords = " ".join(",".join(px(p)) for p in poly)
                parts.append(f'<polygon points="{coords}" fill="#d9d9d9" '
                             f'stroke="none"/>')
    for dim, anchor, dirs, labels in pieces:
        if dim == 1:
            for d in dirs:
                end = _clip_ray(anchor, d, extent)
                if end is None:
                    continue
                (x1, y1), (x2, y2) = px(anchor), px(end)
                parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                             f'stroke="black" stroke-width="2.5"/>')
    for dim, anchor, dirs, labels in pieces:          # markers on top
        x, y = px(anchor)
        if labels:
            parts.append(f'<circle cx="{x}" cy="{y}" r="7" fill="white" '
                         f'stroke="red" stroke-width="2"/>')
            parts.append(f'<circle cx="{x}" cy="{y}" r="3" fill="red"/>')
        elif dim == 0:
            parts.append(f'<circle cx="{x}" cy="{y}" r="4" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# Grid cells from the origin to each edge of an ASCII figure.
ASCII_CELLS = 10


def render_ascii(t: ExtendedTrop, extent: Fraction = Fraction(2)) -> str:
    if t.ambient_rank > 2:
        raise ValueError("rendering supports rank <= 2 only")
    cells = ASCII_CELLS
    n = 2 * cells + 1
    step = extent / cells
    grid = [[" "] * n for _ in range(n)]

    def at(p: Vector):
        x, y = p
        if abs(x) > extent or abs(y) > extent:
            return None
        return (int(round(float((extent - y) / step))),
                int(round(float((x + extent) / step))))

    pieces = _embedded_pieces(t, extent)
    for dim, anchor, dirs, labels in pieces:
        if dim != 2 or not dirs:
            continue
        cone = Cone.from_generators(dirs, 2)
        for i in range(n):
            for j in range(n):
                p = (Fraction(-cells + j) * step, Fraction(cells - i) * step)
                q = (p[0] - anchor[0], p[1] - anchor[1])
                if cone.contains(q):
                    grid[i][j] = "."
    for dim, anchor, dirs, labels in pieces:
        if dim != 1:
            continue
        for d in dirs:
            for k in range(8 * cells + 1):
                p = vadd(anchor, vscale(Fraction(k, 4) * step, primitive(d)))
                rc = at(p)
                if rc:
                    grid[rc[0]][rc[1]] = "*"
    for dim, anchor, dirs, labels in pieces:
        rc = at(anchor)
        if rc is None:
            continue
        if labels:
            grid[rc[0]][rc[1]] = "@"
        elif dim == 0:
            grid[rc[0]][rc[1]] = "o"
    return "\n".join("".join(row).rstrip() for row in grid) + "\n"


# -- property -------------------------------------------------------------

@st.composite
def tropicalizations(draw):
    """A rank-1 or rank-2 tropicalization of a valid colored fan.

    Built as ``perfbench/workloads.py:random_valid_fan`` builds its fans: a
    simplicial cone on 0 to m rays and all its faces, under a valuation cone
    spanned by the rays and up to m more vectors, with up to three colors,
    each either a positive multiple of a ray (and then perhaps on the faces
    holding that ray) or a free vector.  Entries lie in -2..2 or -40..40.
    """
    m = draw(st.integers(1, 2))
    bound = draw(st.sampled_from([2, 40]))
    vector = st.tuples(*[st.integers(-bound, bound)] * m).filter(any)
    rays = draw(st.lists(vector, max_size=m))
    if len(rays) == 2 and rays[0][0] * rays[1][1] == rays[0][1] * rays[1][0]:
        rays[1] = (-rays[0][1], rays[0][0])
    palette, on_ray = [], {}
    for i in range(draw(st.integers(0, 3))):
        name = f"D{i}"
        if rays and draw(st.booleans()):
            j = draw(st.integers(0, len(rays) - 1))
            c = draw(st.integers(1, 2))
            palette.append(Color(name, tuple(c * x for x in rays[j])))
            if draw(st.booleans()):
                on_ray[name] = j
        else:
            palette.append(Color(name, draw(vector)))
    extra = draw(st.lists(vector, max_size=m))
    datum = SphericalDatum(m, Cone.from_generators(rays + extra, m),
                           tuple(palette))
    members = []
    for size in range(len(rays) + 1):
        for face in itertools.combinations(range(len(rays)), size):
            colors = frozenset(c for c, j in on_ray.items() if j in face)
            members.append(ColoredCone(
                Cone.from_generators([rays[j] for j in face], m), colors))
    return tropicalize_embedding(datum, ColoredFan(tuple(members)))


EXTENTS = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**3))


@settings(max_examples=150, deadline=None)
@given(tropicalizations(), EXTENTS)
def test_render_equals_the_extent_taking_oracle(t, extent):
    assert render.render_svg(t) == render_svg(t, extent)
    assert render.render_ascii(t) == render_ascii(t, extent)


def test_ascii_cells_round_exactly_near_a_half():
    """The stratum of this ray sits at y = 10 (10^16 + 1) / (2 10^17 + 1),
    just over 1/2, so its cell is row 9; as a float, BOX - y is 9.5 and
    rounds half-even to row 10."""
    ray = (2 * 10**17 + 1, 10**16 + 1)
    datum = SphericalDatum(2, Cone.full_space(2), ())
    fan = ColoredFan((ColoredCone(Cone.zero(2), frozenset()),
                      ColoredCone(Cone.from_generators([ray], 2), frozenset())))
    rows = render.render_ascii(tropicalize_embedding(datum, fan)).splitlines()
    assert [i for i, row in enumerate(rows) if "*" in row] == [9]
    assert rows[9] == "." * 20 + "*"
