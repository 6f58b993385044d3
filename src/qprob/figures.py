"""Deterministic SVG rendering of triangle pictures and their squares.

Output bytes depend only on the input pictures: fixed-precision coordinate
formatting, no timestamps, no randomness, and no numpy.

Each document is one % format. Its template joins constant line templates:
the header, then for each picture one per shape, that is, each square whose
chord has a length, the reference triangle, the picture's triangle and its
three vertex dots. Its values are the width and height, three times over
for the header, and then every shape's pixel coordinates in drawing order,
each written as %.6f, which formats a float as format(value, ".6f") does.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .suprematism_geometry import _CORNERS

_SCALE = 220.0
_MARGIN = 0.18
_PANEL_GAP = 0.6

_HEAD = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="%.6f" height="%.6f" viewBox="0 0 %.6f %.6f">\n'
    '<rect width="%.6f" height="%.6f" fill="#ffffff"/>'
)
_SQUARE_LINES = tuple(
    f'<polygon points="%.6f,%.6f %.6f,%.6f %.6f,%.6f %.6f,%.6f" fill="{fill}" stroke="#111111" stroke-width="1"/>'
    for fill in ("#111111", "#c8102e", "#fafafa")
)
_DOT = '<circle cx="%.6f" cy="%.6f" r="3.5" fill="#1f4e8c"/>'
_PANEL_LINES = (
    '<polygon points="%.6f,%.6f %.6f,%.6f %.6f,%.6f" fill="none" stroke="#999999" stroke-width="1.5"/>',
    '<polygon points="%.6f,%.6f %.6f,%.6f %.6f,%.6f" fill="none" stroke="#1f4e8c" stroke-width="2"/>',
    _DOT, _DOT, _DOT,
)


def _centroid(rows) -> tuple[float, float]:
    """The mean of three points, ((a + b) + c) / 3, which is ndarray.mean(axis=0) bit for bit."""
    (ax, ay), (bx, by), (cx, cy) = rows
    return ((ax + bx) + cx) / 3.0, ((ay + by) + cy) / 3.0


_REF_CENTROID = _centroid(_CORNERS)


def _side(normal, mid, centroid) -> float:
    """normal . (mid - centroid): only its sign against +-1e-12 is used."""
    return normal[0] * (mid[0] - centroid[0]) + normal[1] * (mid[1] - centroid[1])


def _square_corners(p, q, centroid) -> list | None:
    dx, dy = q[0] - p[0], q[1] - p[1]
    length = math.hypot(dx, dy)
    if length < 1e-12:
        return None
    normal = (dy / length, -dx / length)
    mid = (0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1]))
    side = _side(normal, mid, centroid)
    if abs(side) < 1e-12:
        # degenerate (collinear) inner triangle: orient away from the reference centroid, and if
        # that lies on the chord's line too, keep the right-hand normal (dy, -dx), which points
        # outward for the counterclockwise triangles a cube triple inscribes
        side = _side(normal, mid, _REF_CENTROID)
    if side <= -1e-12:
        normal = (-normal[0], -normal[1])
    ox, oy = length * normal[0], length * normal[1]
    return [p, q, (q[0] + ox, q[1] + oy), (p[0] + ox, p[1] + oy)]


def render_svg(pics, with_squares: bool = False) -> str:
    """One SVG document with the given pictures laid out side by side."""
    lines = [_HEAD]
    xs: list[float] = []
    ys: list[float] = []
    cursor = 0.0
    for pic in pics:
        points = []
        if with_squares:
            centroid = _centroid(pic.vertices)
            for k in range(3):
                corners = _square_corners(pic.vertices[k], pic.vertices[(k + 1) % 3], centroid)
                if corners is not None:
                    points += corners
                    lines.append(_SQUARE_LINES[k])
        points += _CORNERS
        points += pic.vertices  # the picture's triangle
        points += pic.vertices  # its three vertex dots
        lines += _PANEL_LINES
        px, py = zip(*points)
        x_lo, x_hi = min(px), max(px)
        shift = cursor - x_lo
        xs += [x + shift for x in px]
        ys += py
        cursor += (x_hi - x_lo) + _PANEL_GAP
    if not xs:
        raise DomainError("an SVG document needs at least one picture")
    lines.append("</svg>\n")

    xmin, ymin = min(xs) - _MARGIN, min(ys) - _MARGIN
    xmax, ymax = max(xs) + _MARGIN, max(ys) + _MARGIN
    width = (xmax - xmin) * _SCALE
    height = (ymax - ymin) * _SCALE
    values = [width, height] * (len(xs) + 3)
    # SVG y grows downward; flip the geometry's y axis
    values[6::2] = [(x - xmin) * _SCALE for x in xs]
    values[7::2] = [(ymax - y) * _SCALE for y in ys]
    return "\n".join(lines) % tuple(values)
