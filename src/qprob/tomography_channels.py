"""Spin tomograms, measurement-frame unitaries, and unitary-mixture channels.

A unitary rotation of the measurement frame acts on probability triples as an
affine map p' = L p + C: L is the SO(3) adjoint rotation
R_ij = Tr(sigma_i u sigma_j u^dagger) / 2 of the Bloch vector, and C keeps the
ball center fixed. Convex mixtures of unitaries give contractive affine maps,
which is the whole channel picture in these coordinates. The closed form is
the production route; its oracle, the affine fit through the four probe states
conjugated in one stacked product, lives in diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrix_oracle, qubit_core
from .diagnostics import FormulaCheck, checked_map, component_checks, rotation_oracle
from .errors import DomainError
from .qubit_core import BALL_CENTER, ProbTriple

TWO_PI = 2.0 * np.pi
ROTATION_FORMULA_TOL = 1e-9
WEIGHT_TOL = 1e-12
DIRECTION_NORM_TOL = 1e-10


@dataclass(frozen=True)
class Direction:
    """Measurement direction given by Euler angles, in radians.

    theta must lie in [0, pi], phi and psi in [0, 2*pi); out-of-range values
    are rejected rather than wrapped. The unit vector ignores psi, which only
    rotates the frame about the direction itself.
    """

    theta: float
    phi: float
    psi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi:
            raise DomainError(f"theta = {self.theta!r} outside [0, pi]")
        if not 0.0 <= self.phi < TWO_PI:
            raise DomainError(f"phi = {self.phi!r} outside [0, 2*pi)")
        if not 0.0 <= self.psi < TWO_PI:
            raise DomainError(f"psi = {self.psi!r} outside [0, 2*pi)")

    def unit_vector(self) -> np.ndarray:
        s = np.sin(self.theta)
        return np.array([s * np.cos(self.phi), s * np.sin(self.phi), np.cos(self.theta)])


def direction_vector(direction) -> np.ndarray:
    """Unit vector of a Direction, or a raw length-3 unit vector passed through."""
    if isinstance(direction, Direction):
        return direction.unit_vector()
    v = np.asarray(direction, dtype=float)
    if v.shape != (3,):
        raise DomainError(f"direction must be a Direction or a length-3 vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > DIRECTION_NORM_TOL:
        raise DomainError(f"direction vector must have unit length, got |n| = {norm!r}")
    return v


def euler_unitary(direction: Direction) -> np.ndarray:
    """Measurement-frame rotation for the given Euler angles (determinant one).

    Composed as exp(i psi sigma_z/2) exp(i theta sigma_y/2) exp(i phi sigma_z/2),
    with the azimuth phi innermost: the diagonal of u rho u^dagger then gives
    the tomogram along the direction's unit vector for every psi.
    """
    half = 0.5 * direction.theta
    c, s = np.cos(half), np.sin(half)
    e_plus = np.exp(0.5j * (direction.psi + direction.phi))
    e_minus = np.exp(0.5j * (direction.psi - direction.phi))
    return np.array(
        [[c * e_plus, s * e_minus], [-s * np.conj(e_minus), c * np.conj(e_plus)]],
        dtype=complex,
    )


def state_tomogram(p: ProbTriple, direction, tol: float = qubit_core.DEFAULT_TOL) -> tuple[float, float]:
    """Probabilities of spin projection +1/2 and -1/2 along the direction.

    Equals the diagonal of u rho u^dagger for the matching frame unitary;
    the pair sums to one by construction.
    """
    qubit_core.require_physical(p, tol)
    return _tomogram(p, direction)


def _tomogram(p: ProbTriple, direction) -> tuple[float, float]:
    w_plus = float((p.as_array() - BALL_CENTER) @ direction_vector(direction)) + 0.5
    return w_plus, 1.0 - w_plus


@dataclass(frozen=True)
class AffineMap3:
    """Affine action p -> L p + C on probability triples."""

    L: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "L", np.asarray(self.L, dtype=float).reshape(3, 3))
        object.__setattr__(self, "C", np.asarray(self.C, dtype=float).reshape(3))

    def apply(self, p: ProbTriple) -> ProbTriple:
        return ProbTriple.from_array(self.L @ p.as_array() + self.C)

    def then(self, other: "AffineMap3") -> "AffineMap3":
        """Map equivalent to applying self first, then other."""
        return AffineMap3(other.L @ self.L, other.L @ self.C + other.C)


_PAULI = np.stack([matrix_oracle.SIGMA_X, matrix_oracle.SIGMA_Y, matrix_oracle.SIGMA_Z])


def _adjoint_rotation(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed form: R_ij = Tr(sigma_i u sigma_j u^dagger) / 2 and C = (I - R) c."""
    frames = u @ _PAULI @ u.conj().T
    R = 0.5 * np.einsum("iab,jba->ij", _PAULI, frames).real
    return R, BALL_CENTER - R @ BALL_CENTER


def rotation_formula_checks(u, tol: float = ROTATION_FORMULA_TOL) -> list[FormulaCheck]:
    """Compare every closed-form (L, C) component against the probe construction."""
    w = matrix_oracle.require_unitary(u)
    return component_checks(_adjoint_rotation(w), rotation_oracle(w), tol)


def rotation_from_unitary(u, formula_tol: float = ROTATION_FORMULA_TOL) -> AffineMap3:
    """Affine action of conjugation by a single unitary on probability triples.

    The map is the closed-form adjoint rotation, checked against the fit
    through four probe states of the matrix route. If any component deviates
    beyond formula_tol, a FormulaMismatchWarning names it and the probe fit
    is returned instead.
    """
    w = matrix_oracle.require_unitary(u)
    return AffineMap3(*checked_map(_adjoint_rotation(w), rotation_oracle(w), formula_tol, "rotation"))


@dataclass(frozen=True)
class ChannelSpec:
    """Convex mixture of unitary conjugations as (weight, unitary) pairs."""

    terms: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        if len(self.terms) == 0:
            raise DomainError("a channel needs at least one (weight, unitary) term")
        cleaned = []
        total = 0.0
        for k, (weight, u) in enumerate(self.terms):
            w = float(weight)
            if w < -WEIGHT_TOL:
                raise DomainError(f"channel weight {k} is negative ({w!r})")
            cleaned.append((w, matrix_oracle.require_unitary(u, name=f"channel unitary {k}")))
            total += w
        if abs(total - 1.0) > WEIGHT_TOL:
            raise DomainError(f"channel weights must sum to 1, got {total!r}")
        object.__setattr__(self, "terms", tuple(cleaned))


def channel_map(spec: ChannelSpec, formula_tol: float = ROTATION_FORMULA_TOL) -> AffineMap3:
    """Weighted sum of the per-unitary affine maps; a contraction on the ball."""
    L = np.zeros((3, 3))
    C = np.zeros(3)
    for weight, u in spec.terms:
        part = rotation_from_unitary(u, formula_tol)
        L += weight * part.L
        C += weight * part.C
    return AffineMap3(L, C)
