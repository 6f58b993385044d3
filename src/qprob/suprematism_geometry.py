"""Triangle geometry of probability triples (the Malevich-square picture).

Each probability places a vertex on one side of a fixed equilateral triangle
of side sqrt(2); squares erected on the three chords between consecutive
vertices summarize the triple, and the summed square area has a closed form
in the probabilities. The coordinate construction and the closed form are
kept as two independent routes that must agree.
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

# REFERENCE_CORNERS: the corners as a (3, 2) array, built on first access
__getattr__ = lazy_constants(globals(), REFERENCE_CORNERS=lambda: np.array(_CORNERS))

CUBE_SLACK = 1e-12


class TrianglePicture(Record):
    """Vertices on the reference triangle plus the squares over their chords."""

    __slots__ = ("vertices", "side_lengths", "square_areas", "total_area")

    def __init__(self, vertices: np.ndarray, side_lengths: tuple[float, float, float],
                 square_areas: tuple[float, float, float], total_area: float):
        _set(self, "vertices", vertices)
        _set(self, "side_lengths", side_lengths)
        _set(self, "square_areas", square_areas)
        _set(self, "total_area", total_area)


def _require_cube(p: ProbTriple) -> None:
    reason = qubit_core._violation(p, CUBE_SLACK, ball=False)
    if reason is not None:
        raise DomainError(reason)


def _chords(p: ProbTriple) -> tuple[list, tuple[float, float, float]]:
    """The vertex rows and chord lengths of a cube triple, as Python floats.

    Vertex k sits on the side from reference corner k to corner k+1 (cyclic)
    at fraction p_k along it; chord k joins vertex k to vertex k+1.
    """
    rows = []
    for k, p_k in enumerate((float(p.p1), float(p.p2), float(p.p3))):
        (x0, y0), (x1, y1) = _CORNERS[k], _CORNERS[(k + 1) % 3]
        rows.append([x0 + p_k * (x1 - x0), y0 + p_k * (y1 - y0)])
    return rows, tuple(math.dist(rows[k], rows[(k + 1) % 3]) for k in range(3))


def _cube_chords(p: ProbTriple) -> tuple[list, tuple[float, float, float]]:
    """_chords of a triple that must lie in the unit cube (to CUBE_SLACK)."""
    _require_cube(p)
    return _chords(p)


def triangle_picture(p: ProbTriple) -> TrianglePicture:
    """Place the three vertices and measure the squares on their chords, as _chords does."""
    rows, lengths = _cube_chords(p)
    areas = tuple(length * length for length in lengths)
    return TrianglePicture(
        vertices=np.array(rows),
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
