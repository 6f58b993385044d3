"""Triangle geometry of probability triples (the Malevich-square picture).

Each probability places a vertex on one side of a fixed equilateral triangle
of side sqrt(2); squares erected on the three chords between consecutive
vertices summarize the triple, and the summed square area has a closed form
in the probabilities. The coordinate construction and the closed form are
kept as two independent routes that must agree. Both run on Python floats:
a picture's vertices are three (x, y) pairs, and only REFERENCE_CORNERS,
read on request, is an array.
"""

from __future__ import annotations

import math

from . import qubit_core
from ._numpy import lazy_constants, np
from ._record import Record, _set
from .errors import DomainError
from .observable_map import ObservableProbRep
from .qubit_core import DEFAULT_TOL, ProbTriple, _as_float

SIDE = math.sqrt(2.0)

# Counterclockwise corners of the reference equilateral triangle.
_CORNERS = ((0.0, 0.0), (SIDE, 0.0), (0.5 * SIDE, 0.5 * math.sqrt(6.0)))

# REFERENCE_CORNERS: the corners as a read-only (3, 2) array, built on first access
__getattr__ = lazy_constants(globals(), REFERENCE_CORNERS=lambda: np.array(_CORNERS))

CUBE_SLACK = 1e-12


class TrianglePicture(Record):
    """Vertices on the reference triangle, as three (x, y) float pairs, plus the squares over their chords."""

    __slots__ = ("vertices", "side_lengths", "square_areas", "total_area")

    def __init__(self, vertices: tuple[tuple[float, float], ...], side_lengths: tuple[float, float, float],
                 square_areas: tuple[float, float, float], total_area: float):
        if not isinstance(vertices, (list, tuple)):  # pairs load no numpy
            vertices = np.asarray(vertices).tolist()
        if not (len(vertices) == 3 and all(len(v) == 2 for v in vertices)):
            raise DomainError(f"a picture needs three (x, y) vertices, got {vertices!r}")
        vertices = tuple((_as_float(x), _as_float(y)) for x, y in vertices)
        if not all(map(math.isfinite, (*vertices[0], *vertices[1], *vertices[2]))):
            raise DomainError(f"a picture's vertices must be finite, got {vertices!r}")
        _set(self, "vertices", vertices)
        _set(self, "side_lengths", side_lengths)
        _set(self, "square_areas", square_areas)
        _set(self, "total_area", total_area)


def _require_cube(p: ProbTriple) -> None:
    reason = qubit_core._violation(p, CUBE_SLACK, ball=False)
    if reason is not None:
        raise DomainError(reason)


def _chords(p: ProbTriple) -> tuple[tuple, tuple[float, float, float]]:
    """The three vertices (x, y) and the chord lengths of a cube triple, as Python floats.

    Vertex k sits on the side from reference corner k to corner k+1 (cyclic)
    at fraction p_k along it; chord k joins vertex k to vertex k+1.
    """
    vertices = []
    for k, p_k in enumerate((p.p1, p.p2, p.p3)):
        (x0, y0), (x1, y1) = _CORNERS[k], _CORNERS[(k + 1) % 3]
        vertices.append((x0 + p_k * (x1 - x0), y0 + p_k * (y1 - y0)))
    return tuple(vertices), tuple(math.dist(vertices[k], vertices[(k + 1) % 3]) for k in range(3))


def triangle_picture(p: ProbTriple) -> TrianglePicture:
    """Place the three vertices and measure the squares on their chords, for a triple in the unit cube."""
    _require_cube(p)
    vertices, lengths = _chords(p)
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
