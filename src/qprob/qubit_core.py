"""Probability-triple coordinates for qubit states.

A state is held as the three probabilities of measuring spin projection +1/2
along the x, y, and z axes. Physical triples fill the closed ball of radius
1/2 around (1/2, 1/2, 1/2); the boundary sphere carries the pure states, and
the ball residual equals the determinant of the corresponding density matrix.

The ball residual and the tomogram's dot product go through _sum_of_products,
which rounds c + sum x*y once, correctly: each product split into exact
parts, all summed by math.fsum. Their bits are then the same on every machine.
"""

from __future__ import annotations

import functools
import math
from . import matrix_oracle
from ._numpy import lazy_constants, np
from ._record import Record, _set
from .errors import DomainError

# Off-diagonal reference constant: rho21 = (p1 + i p2) - GAMMA.
GAMMA = 0.5 + 0.5j


@functools.cache
def _ball_center() -> np.ndarray:
    return np.array([0.5, 0.5, 0.5])


# BALL_CENTER: the triple of the maximally mixed state, the center of the
# physical ball, as an array built on first access
__getattr__ = lazy_constants(globals(), BALL_CENTER=_ball_center)

# Veltkamp's splitting constant 2^27 + 1: _SPLIT * x splits a double into two 26-bit halves.
_SPLIT = 134217729.0
# Past |x_hi * y_hi| = 2^-967 the products of the halves, multiples of ulp(x) ulp(y), are all representable.
_TINY_PRODUCT = 2.0 ** -967

# Default slack for physicality checks (ball residual and cube bounds).
DEFAULT_TOL = 1e-10


def _as_float(value) -> float:
    """float(value) for a number from a caller; an integer past the float range is the infinity of its sign."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _sum_of_products(c: float, pairs) -> float:
    """c + sum of x * y over a sequence of pairs, correctly rounded while every factor is below 2^996.

    Veltkamp's split writes each factor as the sum of two halves of 26
    significant bits, so the four products of the halves are exact and sum
    to x * y exactly (Dekker, Numer. Math. 18, 1971); math.fsum adds c and
    all of them exactly before its one rounding (Shewchuk, DCG 18, 1997).
    Where a product nears underflow, so that a product of halves could
    round, the terms are summed as exact fractions instead. Where a factor
    or a product leaves the float range, or the sum does, the plain
    left-to-right sum is returned: +-inf or NaN, with no exception.
    """
    terms = [c]
    for x, y in pairs:
        t = _SPLIT * x
        x_hi = t - (t - x)
        x_lo = x - x_hi
        t = _SPLIT * y
        y_hi = t - (t - y)
        y_lo = y - y_hi
        high = x_hi * y_hi
        if -_TINY_PRODUCT < high < _TINY_PRODUCT and x and y:
            terms = None
            break
        terms += (high, x_hi * y_lo, x_lo * y_hi, x_lo * y_lo)
    try:
        if terms is None:
            from fractions import Fraction  # imported here: only products near underflow need it

            total = float(sum((Fraction(x) * Fraction(y) for x, y in pairs), Fraction(c)))
        else:
            total = math.fsum(terms)
    except (OverflowError, ValueError):  # overflow, inf - inf among the terms, or a non-finite Fraction
        total = math.nan
    if math.isfinite(total):
        return total
    for x, y in pairs:
        c += x * y
    return c


class ProbTriple(Record):
    """Probabilities of spin projection +1/2 along x, y, and z.

    Unphysical triples are representable on purpose, so that diagnostics can
    look at them; every conversion that needs physicality validates it.
    """

    __slots__ = ("p1", "p2", "p3")

    def __init__(self, p1: float, p2: float, p3: float):
        _set(self, "p1", p1)
        _set(self, "p2", p2)
        _set(self, "p3", p3)

    def as_array(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.p3], dtype=float)

    @staticmethod
    def from_array(values) -> "ProbTriple":
        v = np.asarray(values)  # no dtype: an integer past the float range stays an integer
        if v.shape != (3,):
            raise DomainError(f"a probability triple needs exactly 3 components, got shape {v.shape}")
        return ProbTriple(*map(_as_float, v.tolist()))


def check_ball(p: ProbTriple) -> float:
    """Ball residual 1/4 - sum_k (p_k - 1/2)^2, correctly rounded.

    Nonnegative exactly for physical triples, zero on the pure-state sphere,
    and equal to det(rho) of the corresponding density matrix.
    """
    return _ball_residual(_as_float(p.p1), _as_float(p.p2), _as_float(p.p3))


def _ball_residual(p1: float, p2: float, p3: float) -> float:
    d1, d2, d3 = p1 - 0.5, p2 - 0.5, p3 - 0.5
    return _sum_of_products(0.25, ((d1, -d1), (d2, -d2), (d3, -d3)))


def _violation(p: ProbTriple, tol: float, ball: bool = True) -> str | None:
    """Why p lies outside the physical region at slack tol, or None; ball=False tests the cube alone."""
    for k, v in enumerate((p.p1, p.p2, p.p3), start=1):
        if not -tol <= v <= 1.0 + tol:  # NaN is outside
            return f"p{k} = {_as_float(v)!r} violates 0 <= p{k} <= 1"
    if not ball:
        return None
    residual = _ball_residual(p.p1, p.p2, p.p3)  # p and tol are finite past the cube test, so < is NaN-safe
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


def _density_rows(p: ProbTriple) -> list:
    """The entries of the density matrix of p, as Python numbers."""
    lower = complex(p.p1 - 0.5, p.p2 - 0.5)
    return [[p.p3, lower.conjugate()], [lower, 1.0 - p.p3]]


def _density(p: ProbTriple) -> np.ndarray:
    return np.array(_density_rows(p), dtype=complex)


def density_from_probs(p: ProbTriple, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Density matrix with rho11 = p3 and rho21 = (p1 + i p2) - GAMMA."""
    require_physical(p, tol)
    return _density(p)


def probs_from_density(rho, tol: float = DEFAULT_TOL) -> ProbTriple:
    """Read the probability triple back off a density matrix.

    The matrix must be Hermitian, have unit trace within tol, and be positive
    semidefinite up to -tol on the smallest eigenvalue.
    """
    (rho11, _), (rho21, rho22) = rows = matrix_oracle._hermitian_rows(rho, name="density matrix")
    trace = rho11.real + rho22.real
    if abs(trace - 1.0) > tol:
        raise DomainError(f"density matrix must have unit trace, got {trace!r}")
    lam_min, _ = matrix_oracle._eigenvalues(rows)
    if lam_min < -tol:
        raise DomainError(f"density matrix is indefinite (lambda_min = {lam_min:.3e})")
    return ProbTriple(rho21.real + 0.5, rho21.imag + 0.5, rho11.real)
