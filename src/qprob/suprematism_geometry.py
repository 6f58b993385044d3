"""Triangle geometry of probability triples (the Malevich-square picture).

Each probability places a vertex on one side of a fixed equilateral triangle
of side sqrt(2); squares erected on the three chords between consecutive
vertices summarize the triple, and the summed square area has a closed form
in the probabilities. The coordinate construction and the closed form are
kept as two independent routes that must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qubit_core
from .errors import DomainError
from .observable_map import ObservableProbRep
from .qubit_core import DEFAULT_TOL, ProbTriple

SIDE = np.sqrt(2.0)

# Counterclockwise corners of the reference equilateral triangle.
REFERENCE_CORNERS = np.array([
    [0.0, 0.0],
    [SIDE, 0.0],
    [0.5 * SIDE, 0.5 * np.sqrt(6.0)],
])

CUBE_SLACK = 1e-12


@dataclass(frozen=True)
class TrianglePicture:
    """Vertices on the reference triangle plus the squares over their chords."""

    vertices: np.ndarray
    side_lengths: tuple[float, float, float]
    square_areas: tuple[float, float, float]
    total_area: float


def _require_cube(p: ProbTriple) -> None:
    reason = qubit_core._violation(p, CUBE_SLACK, ball=False)
    if reason is not None:
        raise DomainError(reason)


def triangle_picture(p: ProbTriple) -> TrianglePicture:
    """Place the three vertices and measure the squares on their chords.

    Vertex k sits on the side from reference corner k to corner k+1 (cyclic)
    at fraction p_k along it; chord k joins vertex k to vertex k+1.
    """
    _require_cube(p)
    arr = p.as_array()
    corners = REFERENCE_CORNERS
    vertices = np.array([
        corners[k] + arr[k] * (corners[(k + 1) % 3] - corners[k])
        for k in range(3)
    ])
    rows = vertices.tolist()
    lengths = tuple(math.dist(rows[k], rows[(k + 1) % 3]) for k in range(3))
    areas = tuple(length * length for length in lengths)
    return TrianglePicture(
        vertices=vertices,
        side_lengths=lengths,
        square_areas=areas,
        total_area=float(sum(areas)),
    )


def area_sum(p: ProbTriple) -> float:
    """Closed form for the summed square area.

    S = 2 [3 (1 - p1 - p2 - p3) + 2 (p1^2 + p2^2 + p3^2) + p1 p2 + p2 p3 + p3 p1],
    ranging from 3/2 at the ball center to 6 at the extreme corners.
    """
    _require_cube(p)
    p1, p2, p3 = p.p1, p.p2, p.p3
    return 2.0 * (
        3.0 * (1.0 - p1 - p2 - p3)
        + 2.0 * (p1 * p1 + p2 * p2 + p3 * p3)
        + p1 * p2 + p2 * p3 + p3 * p1
    )


def observable_areas(rep: ObservableProbRep, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Summed square areas for the two triples of an observable encoding."""
    qubit_core.require_physical(rep.p_a, tol)
    qubit_core.require_physical(rep.p_b, tol)
    return area_sum(rep.p_a), area_sum(rep.p_b)
