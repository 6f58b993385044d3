"""Deterministic SVG rendering of triangle pictures and their squares.

Output bytes depend only on the input pictures: fixed-precision coordinate
formatting, no timestamps, no randomness. render_svg reads each picture's
vertices as three (x, y) float pairs, which triangle_picture gives without
numpy; vertices held as an array give the same bytes.
"""

from __future__ import annotations

import math

from .suprematism_geometry import _CORNERS

_SCALE = 220.0
_MARGIN = 0.18
_PANEL_GAP = 0.6
_SQUARE_FILLS = ("#111111", "#c8102e", "#fafafa")


def _centroid(rows) -> tuple[float, float]:
    """The mean of three points, ((a + b) + c) / 3, which is ndarray.mean(axis=0) bit for bit."""
    (ax, ay), (bx, by), (cx, cy) = rows
    return ((ax + bx) + cx) / 3.0, ((ay + by) + cy) / 3.0


_REF_CENTROID = _centroid(_CORNERS)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


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


def _panel_shapes(vertices, with_squares: bool) -> list[tuple[str, tuple | list, dict]]:
    shapes: list[tuple[str, tuple | list, dict]] = []
    if with_squares:
        centroid = _centroid(vertices)
        for k in range(3):
            corners = _square_corners(vertices[k], vertices[(k + 1) % 3], centroid)
            if corners is not None:
                shapes.append(("polygon", corners, {
                    "fill": _SQUARE_FILLS[k], "stroke": "#111111", "stroke-width": "1",
                }))
    shapes.append(("polygon", _CORNERS, {
        "fill": "none", "stroke": "#999999", "stroke-width": "1.5",
    }))
    shapes.append(("polygon", vertices, {
        "fill": "none", "stroke": "#1f4e8c", "stroke-width": "2",
    }))
    for k in range(3):
        shapes.append(("circle", [vertices[k]], {"r": "3.5", "fill": "#1f4e8c"}))
    return shapes


def render_svg(pics, with_squares: bool = False) -> str:
    """One SVG document with the given pictures laid out side by side."""
    all_shapes: list[tuple[str, list, dict]] = []
    cursor = 0.0
    for pic in pics:
        vertices = [(float(x), float(y)) for x, y in pic.vertices]
        shapes = _panel_shapes(vertices, with_squares)
        xs = [x for _, pts, _ in shapes for x, _ in pts]
        x_lo, x_hi = min(xs), max(xs)
        all_shapes.extend((kind, [(x + (cursor - x_lo), y) for x, y in pts], attrs) for kind, pts, attrs in shapes)
        cursor += (x_hi - x_lo) + _PANEL_GAP

    xs = [x for _, pts, _ in all_shapes for x, _ in pts]
    ys = [y for _, pts, _ in all_shapes for _, y in pts]
    xmin, ymin = min(xs) - _MARGIN, min(ys) - _MARGIN
    xmax, ymax = max(xs) + _MARGIN, max(ys) + _MARGIN
    width = (xmax - xmin) * _SCALE
    height = (ymax - ymin) * _SCALE

    def to_px(x: float, y: float) -> tuple[str, str]:
        # SVG y grows downward; flip the geometry's y axis
        return _fmt((x - xmin) * _SCALE), _fmt((ymax - y) * _SCALE)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="#ffffff"/>',
    ]
    for kind, pts, attrs in all_shapes:
        attr_text = " ".join(f'{key}="{value}"' for key, value in attrs.items())
        if kind == "polygon":
            coords = " ".join(",".join(to_px(x, y)) for x, y in pts)
            parts.append(f'<polygon points="{coords}" {attr_text}/>')
        else:
            cx, cy = to_px(*pts[0])
            parts.append(f'<circle cx="{cx}" cy="{cy}" {attr_text}/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
