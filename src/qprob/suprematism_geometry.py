"""Triangle geometry of probability triples (the Malevich-square picture).

Each probability places a vertex on one side of a fixed equilateral triangle
of side sqrt(2); squares erected on the three chords between consecutive
vertices summarize the triple, and the summed square area has a closed form
in the probabilities. The coordinate construction and the closed form are
kept as two independent routes that must agree. Both run on Python floats:
a picture holds only its three (x, y) vertices and derives its chords and
squares on each access; only REFERENCE_CORNERS, read on request, is an array.
"""

from __future__ import annotations

import math

from . import qubit_core
from ._numpy import lazy_constants, np
from ._record import Record, _set
from .errors import DomainError
from .observable_map import ObservableProbRep
from .qubit_core import DEFAULT_TOL, ProbTriple

SIDE = math.sqrt(2.0)

# Counterclockwise corners of the reference equilateral triangle.
_CORNERS = ((0.0, 0.0), (SIDE, 0.0), (0.5 * SIDE, 0.5 * math.sqrt(6.0)))

# REFERENCE_CORNERS: the corners as a read-only (3, 2) array, built on first access
__getattr__ = lazy_constants(globals(), REFERENCE_CORNERS=lambda: np.array(_CORNERS))

CUBE_SLACK = 1e-12


class TrianglePicture(Record):
    """Vertices on the reference triangle, as three (x, y) float pairs; its chords and squares follow from them."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[tuple[float, float], ...]):
        vertices = qubit_core._floats(vertices, (3, 2), "a picture needs three (x, y) vertices")
        if not all(map(math.isfinite, (*vertices[0], *vertices[1], *vertices[2]))):
            raise DomainError(f"a picture's vertices must be finite, got {vertices!r}")
        _set(self, "vertices", vertices)

    @property
    def side_lengths(self) -> tuple[float, float, float]:
        a, b, c = self.vertices  # chord k joins vertex k to vertex k+1 (cyclic)
        return math.dist(a, b), math.dist(b, c), math.dist(c, a)

    @property
    def square_areas(self) -> tuple[float, float, float]:
        return tuple(length * length for length in self.side_lengths)

    @property
    def total_area(self) -> float:
        return float(sum(self.square_areas))


def _require_cube(p: ProbTriple) -> None:
    reason = qubit_core._violation(p, CUBE_SLACK, ball=False)
    if reason is not None:
        raise DomainError(reason)


def triangle_picture(p: ProbTriple) -> TrianglePicture:
    """The picture of a cube triple: vertex k lies on the side from corner k to corner k+1 (cyclic) at fraction p_k."""
    _require_cube(p)
    vertices = []
    for k, p_k in enumerate((p.p1, p.p2, p.p3)):
        (x0, y0), (x1, y1) = _CORNERS[k], _CORNERS[(k + 1) % 3]
        vertices.append((x0 + p_k * (x1 - x0), y0 + p_k * (y1 - y0)))
    return TrianglePicture(vertices)


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
