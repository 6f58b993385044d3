"""Spin tomograms, measurement directions, and unitary-mixture channels.

A unitary rotation of the measurement frame acts on probability triples as an
affine map p' = L p + C: L is the SO(3) adjoint rotation
R_ij = Tr(sigma_i u sigma_j u^dagger) / 2 of the Bloch vector, and C keeps the
ball center fixed. Convex mixtures of unitaries give contractive affine maps,
which is the whole channel picture in these coordinates. The closed form is
the one production route; its oracle, the probe-state fit in diagnostics, runs
only when a caller passes formula_tol, and then only to warn of a mismatch.
"""

from __future__ import annotations

import functools
import math

from . import matrix_oracle, qubit_core
from ._numpy import np
from ._record import Record, _set
from .diagnostics import FormulaCheck, checked_map, component_checks, rotation_oracle
from .errors import DomainError
from .qubit_core import ProbTriple, _as_float, _floats3, _sum_of_products

TWO_PI = 2.0 * math.pi
ROTATION_FORMULA_TOL = 1e-9
WEIGHT_TOL = 1e-12
DIRECTION_NORM_TOL = 1e-10


class Direction(Record):
    """Measurement direction given by Euler angles, in radians.

    theta must lie in [0, pi], phi and psi in [0, 2*pi); out-of-range values
    are rejected rather than wrapped. The unit vector ignores psi, which only
    rotates the frame about the direction itself.
    """

    __slots__ = ("theta", "phi", "psi")

    def __init__(self, theta: float, phi: float, psi: float = 0.0):
        theta, phi, psi = _as_float(theta), _as_float(phi), _as_float(psi)
        if not 0.0 <= theta <= math.pi:
            raise DomainError(f"theta = {theta!r} outside [0, pi]")
        if not 0.0 <= phi < TWO_PI:
            raise DomainError(f"phi = {phi!r} outside [0, 2*pi)")
        if not 0.0 <= psi < TWO_PI:
            raise DomainError(f"psi = {psi!r} outside [0, 2*pi)")
        _set(self, "theta", theta)
        _set(self, "phi", phi)
        _set(self, "psi", psi)

    def _unit(self) -> tuple[float, float, float]:
        s = math.sin(self.theta)
        return s * math.cos(self.phi), s * math.sin(self.phi), math.cos(self.theta)

    def unit_vector(self) -> np.ndarray:
        return np.array(self._unit())


def _unit_vector(direction) -> tuple[float, float, float]:
    """A Direction's unit vector, or a raw length-3 vector checked for unit length, as three floats."""
    if isinstance(direction, Direction):
        return direction._unit()
    n = _floats3(direction, "direction must be a Direction or a length-3 vector")
    norm = math.hypot(*n)
    if not abs(norm - 1.0) <= DIRECTION_NORM_TOL:
        raise DomainError(f"direction vector must have unit length, got |n| = {norm!r}")
    return n


def state_tomogram(p: ProbTriple, direction, tol: float = qubit_core.DEFAULT_TOL) -> tuple[float, float]:
    """Probabilities of spin projection +1/2 and -1/2 along the direction.

    Equals the diagonal of u rho u^dagger for the matching frame unitary;
    the pair sums to one by construction.
    """
    qubit_core.require_physical(p, tol)
    return _tomogram(p, direction)


def _tomogram(p: ProbTriple, direction) -> tuple[float, float]:
    """w+ = 1/2 + (p - c) . n, correctly rounded, and w- = 1 - w+."""
    n1, n2, n3 = _unit_vector(direction)
    w_plus = _sum_of_products(0.5, ((p.p1 - 0.5, n1), (p.p2 - 0.5, n2), (p.p3 - 0.5, n3)))
    return w_plus, 1.0 - w_plus


class AffineMap3(Record):
    """Affine action p -> L p + C on probability triples."""

    __slots__ = ("L", "C")

    def __init__(self, L: np.ndarray, C: np.ndarray):
        _set(self, "L", np.asarray(L, dtype=float).reshape(3, 3))
        _set(self, "C", np.asarray(C, dtype=float).reshape(3))

    def apply(self, p: ProbTriple) -> ProbTriple:
        return ProbTriple(*(self.L @ p.as_array() + self.C).tolist())

    def then(self, other: "AffineMap3") -> "AffineMap3":
        """Map equivalent to applying self first, then other."""
        return AffineMap3(other.L @ self.L, other.L @ self.C + other.C)


@functools.cache
def _pauli_stack() -> np.ndarray:
    return np.stack((matrix_oracle.SIGMA_X, matrix_oracle.SIGMA_Y, matrix_oracle.SIGMA_Z))


def _adjoint_rotation(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed form for one unitary: R_ij = Tr(sigma_i u sigma_j u^dagger) / 2 and C = (I - R) c."""
    paulis, center = _pauli_stack(), qubit_core.BALL_CENTER
    frames = u @ paulis @ u.conj().T
    R = 0.5 * np.einsum("iab,jba->ij", paulis, frames).real
    return R, center - R @ center


def _rotation(w: np.ndarray, formula_tol: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (L, C) of one validated unitary, warned about if it fails its probe-fit oracle."""
    closed = _adjoint_rotation(w)
    if formula_tol is not None:
        checked_map(closed, rotation_oracle(w), formula_tol, "rotation")
    return closed


def rotation_formula_checks(u, tol: float = ROTATION_FORMULA_TOL) -> list[FormulaCheck]:
    """Compare every closed-form (L, C) component against the probe construction."""
    w = matrix_oracle.require_unitary(u)
    return component_checks(_adjoint_rotation(w), rotation_oracle(w), tol)


def rotation_from_unitary(u, formula_tol: float | None = None) -> AffineMap3:
    """Affine action of conjugation by a single unitary on probability triples.

    The map is the closed-form adjoint rotation. Given formula_tol, it is also
    checked against the fit through four probe states of the matrix route: a
    component off by more names itself in a FormulaMismatchWarning. channel_map
    builds each of its terms the same way.
    """
    return AffineMap3(*_rotation(matrix_oracle.require_unitary(u), formula_tol))


class ChannelSpec(Record):
    """Convex mixture of unitary conjugations as (weight, unitary) pairs."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[float, np.ndarray], ...]):
        if len(terms) == 0:
            raise DomainError("a channel needs at least one (weight, unitary) term")
        cleaned = []
        total = 0.0
        for k, (weight, u) in enumerate(terms):
            w = _as_float(weight)
            if not w >= -WEIGHT_TOL:
                raise DomainError(f"channel weight {k} is negative or NaN ({w!r})")
            # a read-only copy, so that channel_map can use it without checking it again
            unitary = matrix_oracle.require_unitary(u, name=f"channel unitary {k}").copy()
            unitary.flags.writeable = False
            cleaned.append((w, unitary))
            total += w
        if not abs(total - 1.0) <= WEIGHT_TOL:
            raise DomainError(f"channel weights must sum to 1, got {total!r}")
        _set(self, "terms", tuple(cleaned))


def channel_map(spec: ChannelSpec, formula_tol: float | None = None) -> AffineMap3:
    """Weighted sum of the per-unitary affine maps; a contraction on the ball.

    Each unitary, already validated by ChannelSpec, becomes its rotation as in
    rotation_from_unitary, formula_tol and all, and the sum adds w * R and
    w * C term by term from zero.
    """
    L, C = np.zeros((3, 3)), np.zeros(3)
    for weight, u in spec.terms:
        R, offset = _rotation(u, formula_tol)
        L += weight * R
        C += weight * offset
    return AffineMap3(L, C)
