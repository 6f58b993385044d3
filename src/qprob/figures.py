"""Deterministic SVG rendering of triangle pictures and their squares.

Output bytes depend only on the input pictures: fixed-precision coordinate
formatting, no timestamps, no randomness.
"""

from __future__ import annotations

import functools
import math

from . import suprematism_geometry
from ._numpy import np
from .suprematism_geometry import TrianglePicture

_SCALE = 220.0
_MARGIN = 0.18
_PANEL_GAP = 0.6
_SQUARE_FILLS = ("#111111", "#c8102e", "#fafafa")


@functools.cache
def _ref_centroid() -> np.ndarray:
    return suprematism_geometry.REFERENCE_CORNERS.mean(axis=0)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _square_corners(p: np.ndarray, q: np.ndarray, centroid: np.ndarray) -> np.ndarray | None:
    chord = q - p
    dx, dy = chord.tolist()
    length = math.hypot(dx, dy)
    if length < 1e-12:
        return None
    normal = np.array([dy, -dx]) / length
    mid = 0.5 * (p + q)
    side = float(normal @ (mid - centroid))
    if abs(side) < 1e-12:
        # degenerate (collinear) inner triangle: orient away from the reference centroid, and if
        # that lies on the chord's line too, keep the right-hand normal (dy, -dx), which points
        # outward for the counterclockwise triangles a cube triple inscribes
        side = float(normal @ (mid - _ref_centroid()))
    if side <= -1e-12:
        normal = -normal
    return np.array([p, q, q + length * normal, p + length * normal])


def _panel_shapes(pic: TrianglePicture, with_squares: bool) -> list[tuple[str, np.ndarray, dict]]:
    shapes: list[tuple[str, np.ndarray, dict]] = []
    if with_squares:
        centroid = pic.vertices.mean(axis=0)
        for k in range(3):
            corners = _square_corners(pic.vertices[k], pic.vertices[(k + 1) % 3], centroid)
            if corners is not None:
                shapes.append(("polygon", corners, {
                    "fill": _SQUARE_FILLS[k], "stroke": "#111111", "stroke-width": "1",
                }))
    shapes.append(("polygon", suprematism_geometry.REFERENCE_CORNERS.copy(), {
        "fill": "none", "stroke": "#999999", "stroke-width": "1.5",
    }))
    shapes.append(("polygon", pic.vertices.copy(), {
        "fill": "none", "stroke": "#1f4e8c", "stroke-width": "2",
    }))
    for k in range(3):
        shapes.append(("circle", pic.vertices[k].reshape(1, 2), {"r": "3.5", "fill": "#1f4e8c"}))
    return shapes


def render_svg(pics, with_squares: bool = False) -> str:
    """One SVG document with the given pictures laid out side by side."""
    all_shapes: list[tuple[str, np.ndarray, dict]] = []
    cursor = 0.0
    for pic in pics:
        shapes = _panel_shapes(pic, with_squares)
        points = np.vstack([shape[1] for shape in shapes])
        shift = np.array([cursor - float(points[:, 0].min()), 0.0])
        all_shapes.extend((kind, pts + shift, attrs) for kind, pts, attrs in shapes)
        cursor += float(points[:, 0].max() - points[:, 0].min()) + _PANEL_GAP

    points = np.vstack([shape[1] for shape in all_shapes])
    xmin, ymin = (points.min(axis=0) - _MARGIN).tolist()
    xmax, ymax = (points.max(axis=0) + _MARGIN).tolist()
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
        rows = pts.tolist()
        if kind == "polygon":
            coords = " ".join(",".join(to_px(x, y)) for x, y in rows)
            parts.append(f'<polygon points="{coords}" {attr_text}/>')
        else:
            cx, cy = to_px(*rows[0])
            parts.append(f'<circle cx="{cx}" cy="{cy}" {attr_text}/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
