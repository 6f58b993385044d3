"""Triangle picture of a triple: vertex placement, chords, and the square-area sum."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprob import (
    DomainError,
    ObservableProbRep,
    ProbTriple,
    TrianglePicture,
    area_sum,
    encode_observable,
    observable_areas,
    render_svg,
    triangle_picture,
)
from qprob.figures import _MARGIN, _PANEL_GAP, _SCALE, _centroid, _square_corners
from qprob.matrix_oracle import SIGMA_Z
from qprob.suprematism_geometry import _CORNERS, REFERENCE_CORNERS, SIDE

from conftest import random_cube_triple

CENTER = ProbTriple(0.5, 0.5, 0.5)
SQRT2 = np.sqrt(2.0)


def test_reference_triangle_is_equilateral():
    for k in range(3):
        edge = REFERENCE_CORNERS[(k + 1) % 3] - REFERENCE_CORNERS[k]
        assert abs(np.linalg.norm(edge) - SIDE) < 1e-15
    assert SIDE == SQRT2


def test_center_frozen_values():
    assert area_sum(CENTER) == 1.5
    pic = triangle_picture(CENTER)
    np.testing.assert_allclose(pic.square_areas, [0.5, 0.5, 0.5], rtol=0, atol=1e-15)
    np.testing.assert_allclose(pic.side_lengths, [SQRT2 / 2] * 3, rtol=0, atol=1e-15)
    assert abs(pic.total_area - 1.5) < 1e-15


def test_extreme_frozen_values():
    assert area_sum(ProbTriple(0.5, 0.5, 1.0)) == 2.5
    assert area_sum(ProbTriple(0.0, 0.0, 0.0)) == 6.0
    assert area_sum(ProbTriple(1.0, 1.0, 1.0)) == 6.0
    # degenerate pictures collapse onto the corners
    pic = triangle_picture(ProbTriple(0.0, 0.0, 0.0))
    np.testing.assert_array_equal(pic.vertices, REFERENCE_CORNERS)


def test_sigma_z_encoding_areas_frozen():
    rep = encode_observable(SIGMA_Z, 2.0, 3.0)
    s_a, s_b = observable_areas(rep)
    assert abs(s_a - 1.75) < 1e-15
    assert abs(s_b - 29.0 / 18.0) < 1e-15


def test_chord_construction_matches_closed_form(rng):
    for _ in range(2000):
        p = random_cube_triple(rng)
        pic = triangle_picture(p)
        assert abs(pic.total_area - area_sum(p)) < 1e-12
        assert pic.total_area == sum(pic.square_areas)


def test_area_sum_cyclic_symmetry(rng):
    for _ in range(200):
        p = random_cube_triple(rng)
        rolled = ProbTriple(p.p2, p.p3, p.p1)
        assert abs(area_sum(p) - area_sum(rolled)) < 1e-14


def test_chord_between_half_probabilities_is_constant():
    # with p1 = p2 = 1/2 the first chord joins two side midpoints: length sqrt(2)/2
    for p3 in (0.0, 0.25, 0.5, 0.75, 1.0):
        lengths = triangle_picture(ProbTriple(0.5, 0.5, p3)).side_lengths
        assert abs(lengths[0] - SQRT2 / 2) < 1e-15


def test_area_range_over_cube(rng):
    for _ in range(2000):
        s = area_sum(random_cube_triple(rng))
        assert 1.5 - 1e-12 <= s <= 6.0 + 1e-12


def test_center_is_the_minimum(rng):
    for _ in range(500):
        p = ProbTriple.from_array(
            np.clip(CENTER.as_array() + rng.normal(scale=0.2, size=3), 0.0, 1.0)
        )
        assert area_sum(p) >= 1.5 - 1e-12


def test_picture_is_a_hashable_value_of_float_pairs():
    p = ProbTriple(0.7, 0.4, 0.55)
    pic = triangle_picture(p)
    assert pic == triangle_picture(p) and hash(pic) == hash(triangle_picture(p))
    assert type(pic.vertices) is tuple and len(pic.vertices) == 3
    assert all(type(v) is tuple and list(map(type, v)) == [float, float] for v in pic.vertices)
    with pytest.raises(TypeError):
        pic.vertices[0] = (0.0, 0.0)
    with pytest.raises(AttributeError):
        pic.vertices = ()


@pytest.mark.parametrize("p", [CENTER, ProbTriple(0.7, 0.4, 0.55), ProbTriple(0.0, 0.0, 0.0),
                               ProbTriple(1.0, 0.0, 0.5), ProbTriple(0.25, 0.75, 0.5)],
                         ids=["center", "generic", "corners", "collinear", "quarters"])
def test_render_svg_draws_array_vertices_as_float_pairs(p):
    pic = triangle_picture(p)
    as_array = TrianglePicture(np.array(pic.vertices))
    assert as_array == pic and hash(as_array) == hash(pic)
    for with_squares in (False, True):
        assert render_svg([as_array, pic], with_squares) == render_svg([pic, pic], with_squares)


@pytest.mark.parametrize("x, shown", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"), (10**400, "inf")],
                         ids=["nan", "inf", "minus-inf", "huge-int"])
def test_picture_rejects_a_vertex_that_is_not_finite(x, shown):
    # a NaN or infinite vertex would reach render_svg as nan or inf coordinates; 10**400 reads as inf
    message = f"a picture's vertices must be finite, got (({shown}, 0.0), (1.0, 0.0), (0.5, 1.0))"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        TrianglePicture([(x, 0.0), (1.0, 0.0), (0.5, 1.0)])


@pytest.mark.parametrize("vertices, shown", [
    ([[0, 0], [1, 0], 5], ": setting an array element with a sequence"),
    ([(0.0, 0.0), (1.0, 0.0)], ", got shape (2, 2)"),
    ([(0.0, 0.0, 0.0)] * 3, ", got shape (3, 3)"),
    (np.zeros(6), ", got shape (6,)"),
    (5, ", got shape ()"),
], ids=["ragged", "two-vertices", "three-coordinates", "flat-array", "scalar"])
def test_picture_refuses_what_is_not_three_vertices(vertices, shown):
    with pytest.raises(DomainError, match=f"^{re.escape('a picture needs three (x, y) vertices' + shown)}"):
        TrianglePicture(vertices)


def test_render_svg_needs_a_picture():
    for pics in ([], iter(())):
        with pytest.raises(DomainError, match="^an SVG document needs at least one picture$"):
            render_svg(pics)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _panel_shapes(vertices, with_squares: bool) -> list[tuple[str, tuple | list, dict]]:
    shapes: list[tuple[str, tuple | list, dict]] = []
    if with_squares:
        centroid = _centroid(vertices)
        for k in range(3):
            corners = _square_corners(vertices[k], vertices[(k + 1) % 3], centroid)
            if corners is not None:
                shapes.append(("polygon", corners, {
                    "fill": ("#111111", "#c8102e", "#fafafa")[k], "stroke": "#111111", "stroke-width": "1",
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


def reference_render_svg(pics, with_squares: bool = False) -> str:
    """render_svg as it was before its one-template form: one f-string per number, shape and attribute."""
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


# uniform cube coordinates, and the quarter grid nudged past it by 1e-13: there a chord can have
# zero length (no square) or lie on the reference triangle's side (the collinear orientation tests)
_coordinates = st.one_of(
    st.floats(0.0, 1.0),
    st.builds(float.__add__, st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.sampled_from([0.0, 1e-13, -1e-13])),
)


def _picture(p1, p2, p3, as_array):
    pic = triangle_picture(ProbTriple(p1, p2, p3))
    if as_array:
        return TrianglePicture(np.array(pic.vertices))
    return pic


@settings(max_examples=500, deadline=None)
@given(pics=st.lists(st.builds(_picture, _coordinates, _coordinates, _coordinates, st.booleans()),
                     min_size=1, max_size=3),
       with_squares=st.booleans())
def test_render_svg_is_the_reference_renderer_byte_for_byte(pics, with_squares):
    assert render_svg(pics, with_squares) == reference_render_svg(pics, with_squares)


def reference_picture_fields(p: ProbTriple) -> tuple:
    """Vertices, chord lengths, square areas and total area, each computed once, eagerly, from p."""
    vertices = []
    for k, p_k in enumerate((p.p1, p.p2, p.p3)):
        (x0, y0), (x1, y1) = _CORNERS[k], _CORNERS[(k + 1) % 3]
        vertices.append((x0 + p_k * (x1 - x0), y0 + p_k * (y1 - y0)))
    lengths = tuple(math.dist(vertices[k], vertices[(k + 1) % 3]) for k in range(3))
    areas = tuple(length * length for length in lengths)
    return tuple(vertices), lengths, areas, float(sum(areas))


def _bits(fields) -> tuple:
    """The fields' nesting and types, and the bytes of every float in them."""
    vertices, lengths, areas, total = fields
    flat = [*vertices[0], *vertices[1], *vertices[2], *lengths, *areas, total]
    shape = [type(vertices), *map(type, vertices), type(lengths), type(areas)]
    return shape, list(map(type, flat)), struct.pack(f"<{len(flat)}d", *flat)


@settings(max_examples=1000, deadline=None)
@given(p1=_coordinates, p2=_coordinates, p3=_coordinates)
def test_picture_fields_are_the_eager_computation_bit_for_bit(p1, p2, p3):
    # a picture holds only its vertices; its lengths and areas, computed on access, are the eager ones
    p = ProbTriple(p1, p2, p3)
    pic = triangle_picture(p)
    assert _bits((pic.vertices, pic.side_lengths, pic.square_areas, pic.total_area)) == _bits(
        reference_picture_fields(p))
    assert TrianglePicture.__slots__ == ("vertices",) and TrianglePicture(pic.vertices) == pic


def test_cube_bounds_enforced():
    with pytest.raises(DomainError, match="p1"):
        area_sum(ProbTriple(1.1, 0.5, 0.5))
    with pytest.raises(DomainError, match="p2"):
        triangle_picture(ProbTriple(0.5, -0.1, 0.5))
    # unphysical but inside the cube is allowed for the geometry itself
    assert area_sum(ProbTriple(1.0, 1.0, 1.0)) == 6.0


def test_observable_areas_requires_physical_triples():
    rep = ObservableProbRep(
        1.0, 2.0, ProbTriple(0.9, 0.9, 0.9), ProbTriple(0.5, 0.5, 0.6)
    )
    with pytest.raises(DomainError):
        observable_areas(rep)
