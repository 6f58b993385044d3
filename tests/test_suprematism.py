"""Triangle picture of a triple: vertex placement, chords, and the square-area sum."""

import numpy as np
import pytest

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
from qprob.matrix_oracle import SIGMA_Z
from qprob.suprematism_geometry import REFERENCE_CORNERS, SIDE

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
    as_array = TrianglePicture(np.array(pic.vertices), pic.side_lengths, pic.square_areas, pic.total_area)
    for with_squares in (False, True):
        assert render_svg([as_array, pic], with_squares) == render_svg([pic, pic], with_squares)


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
