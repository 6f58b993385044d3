"""Probability-triple coordinates for qubit states.

A state is held as the three probabilities of measuring spin projection +1/2
along the x, y, and z axes. Physical triples fill the closed ball of radius
1/2 around (1/2, 1/2, 1/2); the boundary sphere carries the pure states, and
the ball residual equals the determinant of the corresponding density matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrix_oracle
from .errors import DomainError

# Off-diagonal reference constant: rho21 = (p1 + i p2) - GAMMA.
GAMMA = 0.5 + 0.5j

# Triple of the maximally mixed state, the center of the physical ball.
BALL_CENTER = np.array([0.5, 0.5, 0.5])

# Default slack for physicality checks (ball residual and cube bounds).
DEFAULT_TOL = 1e-10


def _as_float(value) -> float:
    """float(value) for a number from a caller; an integer past the float range is the infinity of its sign."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class ProbTriple:
    """Probabilities of spin projection +1/2 along x, y, and z.

    Unphysical triples are representable on purpose, so that diagnostics can
    look at them; every conversion that needs physicality validates it.
    """

    p1: float
    p2: float
    p3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.p3], dtype=float)

    @staticmethod
    def from_array(values) -> "ProbTriple":
        v = np.asarray(values, dtype=float)
        if v.shape != (3,):
            raise DomainError(f"a probability triple needs exactly 3 components, got shape {v.shape}")
        return ProbTriple(float(v[0]), float(v[1]), float(v[2]))


def check_ball(p: ProbTriple) -> float:
    """Ball residual 1/4 - sum_k (p_k - 1/2)^2.

    Nonnegative exactly for physical triples, zero on the pure-state sphere,
    and equal to det(rho) of the corresponding density matrix.
    """
    d = np.array([p.p1 - 0.5, p.p2 - 0.5, p.p3 - 0.5])
    return 0.25 - float(d @ d)


def _violation(p: ProbTriple, tol: float, ball: bool = True) -> str | None:
    """Why p lies outside the physical region at slack tol, or None; ball=False tests the cube alone."""
    for k, v in enumerate((p.p1, p.p2, p.p3), start=1):
        if not -tol <= v <= 1.0 + tol:  # NaN is outside
            return f"p{k} = {_as_float(v)!r} violates 0 <= p{k} <= 1"
    if not ball:
        return None
    residual = check_ball(p)  # p and tol are finite past the cube test, so < is NaN-safe
    if residual < -tol:
        return ("triple violates (p1-1/2)^2 + (p2-1/2)^2 + (p3-1/2)^2 <= 1/4 "
                f"(ball residual {residual:.3e})")
    return None


def is_physical(p: ProbTriple, tol: float = DEFAULT_TOL) -> bool:
    return _violation(p, tol) is None


def require_physical(p: ProbTriple, tol: float = DEFAULT_TOL) -> None:
    """Raise DomainError naming the violated inequality for unphysical triples."""
    reason = _violation(p, tol)
    if reason is not None:
        raise DomainError(reason)


def _density(p: ProbTriple) -> np.ndarray:
    lower = complex(p.p1 - 0.5, p.p2 - 0.5)
    return np.array([[p.p3, lower.conjugate()], [lower, 1.0 - p.p3]], dtype=complex)


def density_from_probs(p: ProbTriple, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Density matrix with rho11 = p3 and rho21 = (p1 + i p2) - GAMMA."""
    require_physical(p, tol)
    return _density(p)


def probs_from_density(rho, tol: float = DEFAULT_TOL) -> ProbTriple:
    """Read the probability triple back off a density matrix.

    The matrix must be Hermitian, have unit trace within tol, and be positive
    semidefinite up to -tol on the smallest eigenvalue.
    """
    m = matrix_oracle.require_hermitian(rho, name="density matrix")
    trace = float(m[0, 0].real + m[1, 1].real)
    if abs(trace - 1.0) > tol:
        raise DomainError(f"density matrix must have unit trace, got {trace!r}")
    lam_min, _ = matrix_oracle._eigenvalues(m)
    if lam_min < -tol:
        raise DomainError(f"density matrix is indefinite (lambda_min = {lam_min:.3e})")
    return ProbTriple(
        float(m[1, 0].real) + 0.5,
        float(m[1, 0].imag) + 0.5,
        float(m[0, 0].real),
    )
