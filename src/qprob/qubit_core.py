"""Probability-triple coordinates for qubit states.

A state is held as the three probabilities of measuring spin projection +1/2
along the x, y, and z axes. Physical triples fill the closed ball of radius
1/2 around (1/2, 1/2, 1/2); the boundary sphere carries the pure states, and
the ball residual equals the determinant of the corresponding density matrix.

A triple holds Python floats, each read once, in its constructor, through
_as_float, as an encoding, a direction, a channel, and a map or a kinetic
system given to its constructor hold theirs: ProbTriple(np.float32(0.7), 1,
True).p1 is the float 0.699999988079071, ProbTriple(10**400, 0, 0).p1 is
inf, and ProbTriple(None, 0, 0) and ProbTriple(np.complex128(0.5), 0, 0) are
DomainErrors. So no reader of a triple converts its fields, and none computes
in float32. rotation_from_unitary, channel_map and build_kinetic hold the
floats their kernels compute from input their guards accepted, which no
reader need look at again.

The ball residual is one call of matrix_oracle's _sum_of_products, correctly
rounded wherever it is finite, on exact terms: -3/4 + sum p_k - sum p_k^2,
never p_k - 1/2, which rounds outside [1/4, 1]. Raw vectors and matrices (a
triple, a direction, an omega, a map's L and C, a picture's vertices) are read
in one place, _floats.
"""

from __future__ import annotations

import math
from . import matrix_oracle
from ._numpy import lazy_constants, np
from ._record import Record, _set
from .errors import DomainError
from .matrix_oracle import _sum_of_products

# Off-diagonal reference constant: rho21 = (p1 + i p2) - GAMMA.
GAMMA = 0.5 + 0.5j


# BALL_CENTER: the triple of the maximally mixed state, the center of the
# physical ball, as an array built on first access
__getattr__ = lazy_constants(globals(), BALL_CENTER=lambda: np.array([0.5, 0.5, 0.5]))

# Default slack for physicality checks (ball residual and cube bounds).
DEFAULT_TOL = 1e-10


def _as_float(value) -> float:
    """float(value) for a number from a caller; an integer past the float range is the infinity of its sign.

    What float() refuses, such as None or a string that is not a number, raises DomainError, and so does a numpy
    complex scalar, whose imaginary part float() would drop.
    """
    if type(value) is float:
        return value
    if getattr(getattr(value, "dtype", None), "kind", None) == "c":
        raise DomainError(f"expected a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        raise DomainError(f"expected a real number, got {value!r}") from None


def _python_floats(values, shape: tuple) -> tuple | None:
    """Nested lists or tuples of that shape of Python ints and floats as nested float tuples; None for anything else."""
    if not (isinstance(values, (list, tuple)) and len(values) == shape[0]):
        return None
    if len(shape) > 1:
        rows = [_python_floats(row, shape[1:]) for row in values]
        return None if None in rows else tuple(rows)
    for v in values:
        if type(v) is not float and type(v) is not int:
            return None
    return tuple(map(_as_float, values))


def _floats(values, shape: tuple, what: str) -> tuple:
    """np.asarray(values).tolist() read through _as_float into nested tuples, for shape (3,), (3, 3) or (3, 2).

    Python ints and floats in lists and tuples (exact types: no bool, no numpy scalar) give the same bits without
    numpy. DomainError refuses what numpy cannot read ("<what>: ...") and another shape ("<what>, got shape ...").
    """
    floats = _python_floats(values, shape)
    if floats is not None:
        return floats
    try:
        array = np.asarray(values)  # no dtype: an integer past the float range stays an integer
    except (TypeError, ValueError, OverflowError) as exc:  # ragged rows, say
        raise DomainError(f"{what}: {exc}") from None
    if array.shape != shape:
        raise DomainError(f"{what}, got shape {array.shape}")
    rows = array.tolist()
    return tuple(map(_as_float, rows)) if len(shape) == 1 else tuple([tuple(map(_as_float, r)) for r in rows])


class ProbTriple(Record):
    """Probabilities of spin projection +1/2 along x, y, and z, held as Python floats.

    Each field is read once, here, through _as_float: a numpy float32 is the
    float it holds, a bool is 0.0 or 1.0, and an integer past the float range
    is an infinity, so ProbTriple(10**400, 0, 0).p1 is inf. Unphysical
    triples are representable on purpose, so that diagnostics can look at
    them; every conversion that needs physicality validates it.
    """

    __slots__ = ("p1", "p2", "p3")

    def __init__(self, p1: float, p2: float, p3: float):
        _set(self, "p1", _as_float(p1))
        _set(self, "p2", _as_float(p2))
        _set(self, "p3", _as_float(p3))

    def as_array(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.p3], dtype=float)

    @staticmethod
    def from_array(values) -> "ProbTriple":
        return ProbTriple(*_floats(values, (3,), "a probability triple needs exactly 3 components"))


def check_ball(p: ProbTriple) -> float:
    """Ball residual 1/4 - sum_k (p_k - 1/2)^2, correctly rounded.

    Nonnegative exactly for physical triples, zero on the pure-state sphere,
    and equal to det(rho) of the corresponding density matrix.
    """
    return _ball_residual(p.p1, p.p2, p.p3)


def _ball_residual(p1: float, p2: float, p3: float, c: float = 0.25) -> float:
    """c - sum_k (p_k - 1/2)^2 as c - 3/4 + sum p_k - sum p_k^2, correctly rounded, or else the plain -inf or NaN."""
    residual = _sum_of_products([c, -0.75, p1, p2, p3], ((p1, -p1), (p2, -p2), (p3, -p3)))
    if math.isfinite(residual):
        return residual
    d1, d2, d3 = p1 - 0.5, p2 - 0.5, p3 - 0.5
    return c - d1 * d1 - d2 * d2 - d3 * d3


def _violation(p: ProbTriple, tol: float, ball: bool = True) -> str | None:
    """Why p lies outside the physical region at slack tol, or None; ball=False tests the cube alone."""
    p1, p2, p3 = p.p1, p.p2, p.p3
    lo, hi = -tol, 1.0 + tol
    if not (lo <= p1 <= hi and lo <= p2 <= hi and lo <= p3 <= hi):  # NaN is outside
        for k, v in enumerate((p1, p2, p3), start=1):  # the first coordinate outside names the violation
            if not lo <= v <= hi:
                return f"p{k} = {v!r} violates 0 <= p{k} <= 1"
    if not ball:
        return None
    residual = _ball_residual(p1, p2, p3)  # p and tol are finite past the cube test, so < is NaN-safe
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
