"""Deterministic SVG and ASCII figures for rank <= 2 tropicalizations.

Conventions follow the source figures: two-dimensional strata are shaded,
one-dimensional strata are drawn as thick segments, boundary strata sit at
anchor points on scaled primitive generators, and colored strata carry a
bullseye (double circle) marker.

Both figures draw in one fixed frame, the box of half-width ``BOX``, and
one ASCII cell is one unit.  Figures are scale-free: anchors are scaled to
the edge of the box and directions are drawn out to it, so a box of any
other size would scale the whole figure with it, to the same picture.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .linalg import (Vector, dot, embed_from_chart, is_zero_vec, primitive,
                     vadd, vscale)
from .polyhedra import Cone
from .troposphere import ExtendedTrop, Stratum

# Half-width of the frame both figures draw in, and the number of ASCII
# cells from the origin to each edge.
BOX = 10


def _scale_to_box(v: Vector, bound=BOX) -> Vector:
    """Scale a nonzero vector so its largest coordinate magnitude is bound."""
    m = max(abs(x) for x in v)
    if m == 0:
        return v
    return vscale(Fraction(bound) / m, v)


def _anchor(s: Stratum) -> Vector:
    gens = s.face.cone.rays + s.face.cone.lineality   # primitive already
    if not gens:
        return (Fraction(0),) * s.face.cone.ambient_dim
    total = tuple(map(sum, zip(*gens)))
    if is_zero_vec(total):
        total = gens[0]
    return _scale_to_box(total)


def _pad2(v: Sequence[Fraction]) -> Vector:
    v = tuple(v)
    return (v + (Fraction(0), Fraction(0)))[:2]


def _embedded_pieces(t: ExtendedTrop):
    """Per stratum: (dim, anchor, direction vectors in the plane, labels)."""
    pieces = []
    for key in sorted(t.strata):
        s = t.strata[key]
        img = s.valuation_cone_image
        dirs = [_pad2(embed_from_chart(s.chart, g)) for g in img.generators]
        pieces.append((img.dim(), _pad2(_anchor(s)), dirs, sorted(s.labels)))
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


def _cone_polygon(anchor: Vector, dirs: Sequence[Vector]):
    """The translated cone hull clipped to the box, as a polygon."""
    big = 8 * BOX
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
    for coeffs in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
        poly = _clip_polygon(poly, coeffs, -BOX)
        if not poly:
            return []
    return poly


def _clip_ray(anchor: Vector, d: Vector):
    """Endpoint of anchor + s*d at the box, or None if it exits at s = 0.

    The anchor lies in the box and d != 0, so the ray leaves the box at the
    least s at which a coordinate reaches the bound it moves toward.
    """
    s = min(((BOX if di > 0 else -BOX) - ai) / di
            for ai, di in zip(anchor, d) if di)
    if s <= 0:
        return None
    return vadd(anchor, vscale(s, d))


def render_svg(t: ExtendedTrop) -> str:
    if t.ambient_rank > 2:
        raise ValueError("rendering supports rank <= 2 only")
    size, margin = 360, 20

    def px(p: Vector) -> tuple[str, str]:
        x, y = p
        sx = margin + Fraction(x + BOX, 2 * BOX) * size
        sy = margin + Fraction(BOX - y, 2 * BOX) * size
        return f"{float(sx):.2f}", f"{float(sy):.2f}"

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{size + 2 * margin}" height="{size + 2 * margin}" '
             f'viewBox="0 0 {size + 2 * margin} {size + 2 * margin}">']
    pieces = _embedded_pieces(t)
    for dim, anchor, dirs, labels in pieces:          # shaded regions first
        if dim == 2:
            poly = _cone_polygon(anchor, dirs)
            if poly:
                coords = " ".join(",".join(px(p)) for p in poly)
                parts.append(f'<polygon points="{coords}" fill="#d9d9d9" '
                             f'stroke="none"/>')
    for dim, anchor, dirs, labels in pieces:
        if dim == 1:
            for d in dirs:
                end = _clip_ray(anchor, d)
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


def render_ascii(t: ExtendedTrop) -> str:
    """Grid point (i, j) is the point (j - BOX, BOX - i) of the frame."""
    if t.ambient_rank > 2:
        raise ValueError("rendering supports rank <= 2 only")
    n = 2 * BOX + 1
    grid = [[" "] * n for _ in range(n)]

    def at(p: Vector):
        x, y = p
        if abs(x) > BOX or abs(y) > BOX:
            return None
        return round(BOX - y), round(x + BOX)

    pieces = _embedded_pieces(t)
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
