"""Deterministic SVG and ASCII figures for rank <= 2 tropicalizations.

Conventions follow the source figures: two-dimensional strata are shaded,
one-dimensional strata are drawn as thick segments, boundary strata sit at
anchor points on scaled primitive generators, and colored strata carry a
bullseye (double circle) marker.

Both figures draw in one fixed frame, the box of half-width ``BOX``, and
one ASCII cell is one unit.  Figures are scale-free: anchors are scaled to
the edge of the box and directions are drawn out to it, so a box of any
other size would scale the whole figure with it, to the same picture.

Both figures draw one model, ``_embedded_pieces``, which refuses rank > 2,
and compute in integers.  A piece's anchor is one ``int`` point (A, den),
the face's generator sum scaled to the box, and a two-dimensional piece
carries the facet rows (a, b) of its cone: on ASCII grid row y each row
bounds x by one floor or ceiling division of -b y by a, and the SVG polygon
is box ∩ cone (``_shaded_polygon``).  An ASCII ray walks the int points
(4 A + k den d) / (4 den).  Cells are rounded by one rule, ``_round``: half
to even, as ``round(Fraction)`` does; SVG text by one correctly rounded
``int`` division per coordinate, as ``float(Fraction)`` does.
"""

from __future__ import annotations

from math import lcm

from .linalg import DomainError, IntVector, embed_from_chart, primitive
from .polyhedra import Cone
from .troposphere import ExtendedTrop, Stratum

# Half-width of the frame both figures draw in, and the number of ASCII
# cells from the origin to each edge.
BOX = 10


def _pad2(v: IntVector) -> IntVector:
    return (tuple(v) + (0, 0))[:2]


def _anchor(s: Stratum) -> tuple[IntVector, int]:
    """(A, den): the face's generator sum, scaled to the edge of the box,
    is the point A / den."""
    gens = s.face.cone.rays + s.face.cone.lineality   # primitive already
    total = tuple(map(sum, zip(*gens)))
    return _pad2([BOX * x for x in total]), max(map(abs, total), default=1)


def _embedded_pieces(t: ExtendedTrop):
    """Per stratum: (dim, anchor (A, den), rows, labels), the rows the int
    plane directions, or the facet rows of a two-dimensional piece, which
    in rank <= 2 is full-dimensional with apex 0."""
    if t.ambient_rank > 2:
        raise DomainError("rendering supports rank <= 2 only")
    pieces = []
    for key in sorted(t.strata):
        s = t.strata[key]
        img = s.valuation_cone_image
        rows = [_pad2(embed_from_chart(s.chart, g)) for g in img.generators]
        if img.dim() == 2:
            rows = Cone.from_generators(rows, 2).inequalities
        pieces.append((img.dim(), _anchor(s), rows, sorted(s.labels)))
    return pieces


def _shaded_polygon(facets) -> tuple[list[IntVector], int]:
    """(vertices, L): box ∩ {x : a . x >= 0 for a in facets}, each vertex
    v / L, counterclockwise from the corner (BOX, -BOX).

    The box corners and the ends +-BOX (b, -a) / max(|a|, |b|) of each facet
    line that satisfy every row follow their position along the box, and
    the apex 0 of a wedge goes in at the one step that turns clockwise about
    0: the wedge spans less than a half turn, the gap outside it more.
    """
    L = lcm(*(max(map(abs, a)) for a in facets))
    e = BOX * L
    points = {(x, y) for x in (e, -e) for y in (e, -e)}
    for a, b in facets:
        k = e // max(abs(a), abs(b))
        points |= {(k * b, -k * a), (-k * b, k * a)}

    def along(p):                     # position on the boundary, from (e, -e)
        x, y = p
        if x == e and y < e:
            return y + e
        if y == e and x > -e:
            return 3 * e - x
        if x == -e and y > -e:
            return 5 * e - y
        return 7 * e + x
    poly = sorted((p for p in points
                   if all(a * p[0] + b * p[1] >= 0 for a, b in facets)),
                  key=along)
    for i, (p, q) in enumerate(zip(poly, poly[1:] + poly[:1])):
        if p[0] * q[1] < p[1] * q[0]:
            poly.insert(i + 1, (0, 0))
            break
    return poly, L


def _ray_end(anchor: IntVector, den: int, d: IntVector):
    """(A q + p d, den q): where A / den + s d leaves the box, at the least
    s = p / (den q) at which a coordinate reaches the bound it moves toward;
    None if that s is 0.  The anchor lies in the box and d != 0."""
    p = q = None
    for a, di in zip(anchor, d):
        if di:
            pi, qi = (BOX * den - a, di) if di > 0 else (BOX * den + a, -di)
            if p is None or pi * q < p * qi:
                p, q = pi, qi
    if p <= 0:
        return None
    return tuple(a * q + p * di for a, di in zip(anchor, d)), den * q


def render_svg(t: ExtendedTrop) -> str:
    size, margin = 360, 20

    def px(p: IntVector, den: int) -> tuple[str, str]:
        (x, y), span = p, 2 * BOX * den
        return (f"{(margin * span + (x + BOX * den) * size) / span:.2f}",
                f"{(margin * span + (BOX * den - y) * size) / span:.2f}")

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{size + 2 * margin}" height="{size + 2 * margin}" '
             f'viewBox="0 0 {size + 2 * margin} {size + 2 * margin}">']
    pieces = _embedded_pieces(t)
    for dim, anchor, facets, labels in pieces:        # shaded regions first
        if dim == 2:
            poly, den = _shaded_polygon(facets)
            coords = " ".join(",".join(px(p, den)) for p in poly)
            parts.append(f'<polygon points="{coords}" fill="#d9d9d9" '
                         f'stroke="none"/>')
    for dim, (a, den), dirs, labels in pieces:
        if dim == 1:
            for d in dirs:
                end = _ray_end(a, den, d)
                if end is None:
                    continue
                (x1, y1), (x2, y2) = px(a, den), px(*end)
                parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                             f'stroke="black" stroke-width="2.5"/>')
    for dim, anchor, dirs, labels in pieces:          # markers on top
        x, y = px(*anchor)
        if labels:
            parts.append(f'<circle cx="{x}" cy="{y}" r="7" fill="white" '
                         f'stroke="red" stroke-width="2"/>')
            parts.append(f'<circle cx="{x}" cy="{y}" r="3" fill="red"/>')
        elif dim == 0:
            parts.append(f'<circle cx="{x}" cy="{y}" r="4" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _round(n: int, d: int) -> int:
    """round(Fraction(n, d)) for d >= 1: the nearest int, ties to even."""
    q, r = divmod(2 * n + d, 2 * d)        # q = floor(n / d + 1/2)
    return q - 1 if r == 0 and q & 1 else q  # a tie goes down to even


def _plot(grid, x: int, y: int, den: int, mark: str) -> None:
    """Mark the cell of the point (x, y) / den, if it lies in the box."""
    edge = BOX * den
    if abs(x) <= edge and abs(y) <= edge:
        grid[_round(edge - y, den)][_round(x + edge, den)] = mark


def render_ascii(t: ExtendedTrop) -> str:
    """Grid point (i, j) is the point (j - BOX, BOX - i) of the frame."""
    pieces = _embedded_pieces(t)
    n = 2 * BOX + 1
    grid = [[" "] * n for _ in range(n)]
    for dim, anchor, facets, labels in pieces:
        if dim != 2:
            continue
        for i in range(n):
            y, lo, hi = BOX - i, -BOX, BOX
            for a, b in facets:              # a x + b y >= 0
                if a > 0:
                    lo = max(lo, -(b * y // a))
                elif a < 0:
                    hi = min(hi, b * y // -a)
                elif b * y < 0:
                    hi = -BOX - 1
            for j in range(lo + BOX, hi + BOX + 1):
                grid[i][j] = "."
    for dim, ((ax, ay), den), dirs, labels in pieces:
        if dim != 1:
            continue
        for dx, dy in map(primitive, dirs):
            # step k is the point anchor + (k/4) d = (4A + k den d) / (4 den)
            for k in range(8 * BOX + 1):
                _plot(grid, 4 * ax + k * den * dx, 4 * ay + k * den * dy,
                      4 * den, "*")
    for dim, ((ax, ay), den), dirs, labels in pieces:
        mark = "@" if labels else "o" if dim == 0 else None
        if mark:
            _plot(grid, ax, ay, den, mark)
    return "\n".join("".join(row).rstrip() for row in grid) + "\n"
