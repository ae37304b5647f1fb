"""The renderer against the ones it replaced.

Every coordinate of the extent-taking figures was linear in ``extent`` and
both canvases divided it out again, so the figures, drawn in the fixed
``BOX`` frame, must equal them at every positive extent, but for the
shaded polygons: the oracle clipped a hull that misses part of the box for
cones wider than about 160 degrees, so each polygon is checked against
box ∩ cone, found from every pair of lines.  That oracle rounds ASCII cells
through ``float`` and is exact only for small entries; the ``Fraction``
raster that the integer one replaced is exact at any size.
"""

import functools
import itertools
from fractions import Fraction
from typing import Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from sphtrop import render
from sphtrop.linalg import Vector, dot, embed_from_chart, primitive, vec
from sphtrop.polyhedra import Cone
from sphtrop.spherical import Color, ColoredCone, ColoredFan, SphericalDatum
from sphtrop.troposphere import ExtendedTrop, Stratum, tropicalize_embedding
from test_linalg import vadd, vscale

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
    if not any(total):
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
def tropicalizations(draw, bounds=(2, 40)):
    """A rank-1 or rank-2 tropicalization of a valid colored fan.

    Built as ``perfbench/workloads.py:random_valid_fan`` builds its fans: a
    simplicial cone on 0 to m rays and all its faces, under a valuation cone
    spanned by the rays and up to m more vectors, with up to three colors,
    each either a positive multiple of a ray (and then perhaps on the faces
    holding that ray) or a free vector.  Entries lie in -b..b for a b drawn
    from ``bounds``.  In half the draws some spanning vectors are negated
    too, so valuation cones include lines, half-planes and the whole plane.
    """
    m = draw(st.integers(1, 2))
    bound = draw(st.sampled_from(bounds))
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
    if draw(st.booleans()):
        extra += [tuple(-x for x in g) for g in rays + extra
                  if draw(st.booleans())]
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


# -- the shaded polygon: box ∩ cone, from every pair of lines ----------------


def box_cone_vertices(facets) -> list[Vector]:
    """Vertices of box ∩ {x : a . x >= 0 for a in facets}, counterclockwise:
    the pairwise intersections of the box edges and the facet lines that
    lie in the box and satisfy every row, sorted by angle about their
    centroid."""
    B = render.BOX
    lines = [((1, 0), B), ((1, 0), -B), ((0, 1), B), ((0, 1), -B)]
    lines += [(a, 0) for a in facets]
    points = set()
    for (u, r), (v, s) in itertools.combinations(lines, 2):
        det = u[0] * v[1] - u[1] * v[0]
        if det:
            p = (Fraction(r * v[1] - s * u[1], det),
                 Fraction(u[0] * s - v[0] * r, det))
            if max(map(abs, p)) <= B and all(dot(a, p) >= 0 for a in facets):
                points.add(p)
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)

    def before(p, q):
        (px, py), (qx, qy) = (p[0] - cx, p[1] - cy), (q[0] - cx, q[1] - cy)
        hp, hq = (py < 0 or py == 0 and px < 0), (qy < 0 or qy == 0 and qx < 0)
        if hp != hq:
            return -1 if hq else 1
        return -1 if px * qy > py * qx else 1
    return sorted(points, key=functools.cmp_to_key(before))


def is_strictly_convex_ccw(poly) -> bool:
    n = len(poly)
    return n >= 3 and all(
        (b[0] - a[0]) * (c[1] - b[1]) > (b[1] - a[1]) * (c[0] - b[0])
        for a, b, c in ((poly[i], poly[(i + 1) % n], poly[(i + 2) % n])
                        for i in range(n)))


def same_cycle(a, b) -> bool:
    return len(a) == len(b) and any(a[i:] + a[:i] == b
                                    for i in range(len(a) or 1))


def pixel(p) -> str:
    """The oracle's pixel text of a point of the BOX frame."""
    B, (x, y) = render.BOX, p
    return (f"{float(20 + Fraction(x + B, 2 * B) * 360):.2f},"
            f"{float(20 + Fraction(B - y, 2 * B) * 360):.2f}")


def polygon_points(svg: str) -> list[list[str]]:
    return [line.split('"')[1].split() for line in svg.splitlines()
            if line.startswith("<polygon")]


@settings(max_examples=150, deadline=None)
@given(tropicalizations(), EXTENTS)
def test_render_equals_the_extent_taking_oracle(t, extent):
    """The figures equal the oracle's, but for the shaded polygons: each is
    box ∩ cone, which the oracle's hull misses for cones wider than about
    160 degrees; where the oracle's vertex set is exact, so is its order."""
    svg, expected = render.render_svg(t), render_svg(t, extent)
    assert ([l for l in svg.splitlines() if not l.startswith("<polygon")]
            == [l for l in expected.splitlines()
                if not l.startswith("<polygon")])
    wedges = [(anchor, dirs) for dim, anchor, dirs, _ in
              _embedded_pieces(t, extent) if dim == 2]
    got, oracle = polygon_points(svg), polygon_points(expected)
    assert len(got) == len(wedges)
    for points, (anchor, dirs) in zip(got, wedges):
        vertices = box_cone_vertices(Cone.from_generators(dirs, 2).inequalities)
        assert is_strictly_convex_ccw(vertices)
        assert same_cycle(points, [pixel(p) for p in vertices])
        hull = [vscale(render.BOX / extent, p)
                for p in _cone_polygon(anchor, dirs, extent)]
        theirs = oracle.pop(0) if hull else None
        if len(set(hull)) == len(hull) and set(hull) == set(vertices):
            assert same_cycle(points, theirs)
    assert oracle == []
    assert render.render_ascii(t) == render_ascii(t, extent)


def test_a_wide_cone_is_shaded_to_the_box():
    """V = cone((1, 0), (-5, -1)) spans more than a half turn's worth of the
    box's bottom strip: (10, -10), (10, 0), 0, (-10, -2), (-10, -10)."""
    datum = SphericalDatum(2, Cone.from_generators([(1, 0), (-5, -1)], 2), ())
    t = tropicalize_embedding(
        datum, ColoredFan((ColoredCone(Cone.zero(2), frozenset()),)))
    assert polygon_points(render.render_svg(t)) == [
        "380.00,380.00 380.00,200.00 200.00,200.00 20.00,236.00 "
        "20.00,380.00".split()]


@settings(max_examples=300, deadline=None)
@given(tropicalizations(bounds=(2, 40, 10**17)))
def test_shaded_polygon_is_box_and_cone_on_every_grid_point(t):
    """Each polygon is box ∩ cone, strictly convex and counterclockwise, and
    it holds exactly the integer points of the box on which every facet
    row is nonnegative."""
    B = render.BOX
    for dim, _, facets, _ in render._embedded_pieces(t):
        if dim != 2:
            continue
        poly, den = render._shaded_polygon(facets)
        exact = [(Fraction(x, den), Fraction(y, den)) for x, y in poly]
        assert is_strictly_convex_ccw(exact)
        assert same_cycle(exact, box_cone_vertices(facets))
        for x, y in itertools.product(range(-B, B + 1), repeat=2):
            inside = all(
                (q[0] - p[0]) * (y * den - p[1]) >= (q[1] - p[1]) * (x * den - p[0])
                for p, q in zip(poly, poly[1:] + poly[:1]))
            assert inside == all(a * x + b * y >= 0 for a, b in facets)


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


# -- oracle: sphtrop.render.render_ascii before it rasterized in integers --
# Verbatim but for the module prefixes: every fill cell is a Cone.contains
# test and every ray step is Fraction arithmetic, rounded by round(Fraction).
# Its Fraction anchors come from the extent oracle's ``_embedded_pieces`` at
# extent BOX, which is what ``render._embedded_pieces`` computed then.


def fraction_render_ascii(t: ExtendedTrop) -> str:
    """Grid point (i, j) is the point (j - BOX, BOX - i) of the frame."""
    BOX = render.BOX
    if t.ambient_rank > 2:
        raise ValueError("rendering supports rank <= 2 only")
    n = 2 * BOX + 1
    grid = [[" "] * n for _ in range(n)]

    def at(p: Vector):
        x, y = p
        if abs(x) > BOX or abs(y) > BOX:
            return None
        return round(BOX - y), round(x + BOX)

    pieces = _embedded_pieces(t, BOX)
    for dim, anchor, dirs, labels in pieces:
        if dim != 2 or not dirs:
            continue
        # In rank <= 2 a two-dimensional piece has face {0} and anchor 0.
        cone = Cone.from_generators(dirs, 2)
        for i in range(n):
            for j in range(n):
                if cone.contains((j - BOX, BOX - i)):
                    grid[i][j] = "."
    for dim, anchor, dirs, labels in pieces:
        if dim != 1:
            continue
        for d in map(primitive, dirs):
            for k in range(8 * BOX + 1):
                rc = at(vadd(anchor, vscale(Fraction(k, 4), d)))
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


@settings(max_examples=300, deadline=None)
@given(tropicalizations(bounds=(2, 40, 10**17)))
def test_integer_raster_equals_the_fraction_raster(t):
    assert render.render_ascii(t) == fraction_render_ascii(t)


def _plane_trop(valuation_gens, fan_rays):
    datum = SphericalDatum(2, Cone.from_generators(valuation_gens, 2), ())
    fan = ColoredFan(tuple(
        ColoredCone(Cone.from_generators(rays, 2), frozenset())
        for rays in [[]] + [[r] for r in fan_rays]))
    return tropicalize_embedding(datum, fan)


BIG = 10**17


def test_integer_raster_fills_half_planes_wedges_and_the_plane():
    cases = [                                 # (valuation cone, fan rays)
        ([(1, 0), (-1, 0), (0, 1)], [(1, 0), (2 * BIG + 1, BIG + 1)]),
        ([(BIG, 3), (-BIG, -3), (-7, BIG + 1)], [(BIG, 3), (-7, BIG + 1)]),
        ([(1, BIG), (-1, BIG)], [(0, 1), (1, BIG)]),
        ([(1, 0), (-1, 0), (0, 1), (0, -1)], [(1, 0), (-1, -1)]),
    ]
    for gens, rays in cases:
        t = _plane_trop(gens, rays)
        assert render.render_ascii(t) == fraction_render_ascii(t)
    upper, _, wedge, plane = (render.render_ascii(_plane_trop(gens, []))
                              for gens, _ in cases)
    assert upper == ("." * 21 + "\n") * 11 + "\n" * 10
    assert wedge == (" " * 10 + ".\n") * 11 + "\n" * 10
    assert plane == ("." * 21 + "\n") * 21


def _halves_and_others():
    """(n, d) pairs: n/d exactly q + 1/2 for q of either parity, or any."""
    halves = st.builds(lambda q, e: ((2 * q + 1) * e, 2 * e),
                       st.integers(-2**79, 2**79), st.integers(1, 2**40))
    others = st.tuples(st.integers(-2**80, 2**80), st.integers(1, 2**80))
    return st.one_of(halves, others)


@settings(max_examples=500, deadline=None)
@given(_halves_and_others())
def test_round_is_round_of_the_fraction(case):
    n, d = case
    assert render._round(n, d) == round(Fraction(n, d))
