"""Heisenberg-picture evolution as a linear kinetic equation for triples.

For a Hamiltonian H = h0 I + h . sigma, the triple of any rho(x, t) built from
an evolving observable obeys dp/dt = L p + C, where L v = v x omega with
omega = 2h and C = -L c fixes the ball center c; a KineticSystem holds omega
and derives L and C. The exact solution p(t) = c + exp(L t)(p0 - c) is a
rotation, in Rodrigues' closed form: one prelude (|omega|, k1, k2) on Python
floats, then one row per time. evolve, evolve_observable and the CLI's grid
form their rows on Python floats; sample_trajectory forms the same rows, bit
for bit, as (n, 3) arrays over a numpy time grid. The oracle, in diagnostics,
fits the exact derivatives i[H, rho] at four probe states; it runs given
fd_tol, and a mismatch warns, while omega stays 2h.
"""

from __future__ import annotations

import itertools
import math
import operator

from . import matrix_oracle, observable_map, qubit_core
from ._numpy import np
from ._record import Record, _set
from .diagnostics import FormulaCheck, checked_map, component_checks, kinetic_oracle
from .errors import DomainError
from .qubit_core import DEFAULT_TOL, ProbTriple, _as_float, _sum_of_products

FD_TOL = 1e-4


class KineticSystem(Record):
    """Constant-coefficient system dp/dt = L p + C for a fixed Hamiltonian and shift.

    Held as its angular velocity omega = 2h, three finite numbers, and a finite
    shift x: L v = v x omega and C = -L c, which keeps the ball center c fixed,
    are fresh arrays on each access.
    """

    __slots__ = ("omega", "x")

    def __init__(self, omega: tuple[float, float, float], x: float):
        omega = tuple(map(_as_float, omega))
        if len(omega) != 3:
            raise DomainError(f"kinetic angular velocity omega needs 3 components, got {len(omega)}")
        if not all(map(math.isfinite, omega)):
            raise DomainError(f"kinetic angular velocity omega must be finite, got {omega!r}")
        x = _as_float(x)
        if not math.isfinite(x):
            raise DomainError(f"kinetic shift x must be finite, got {x!r}")
        _set(self, "omega", omega)
        _set(self, "x", x)

    @property
    def L(self) -> np.ndarray:
        w1, w2, w3 = self.omega
        return np.array([[0.0, w3, -w2], [-w3, 0.0, w1], [w2, -w1, 0.0]])

    @property
    def C(self) -> np.ndarray:
        return -(self.L @ qubit_core.BALL_CENTER)


class Trajectory(Record):
    """Sampled evolution: times, the matching triples, and the shift they belong to."""

    __slots__ = ("times", "probs", "x")

    def __init__(self, times: np.ndarray, probs: np.ndarray, x: float):
        _set(self, "times", times)
        _set(self, "probs", probs)
        _set(self, "x", x)

    def triples(self) -> list[ProbTriple]:
        return [ProbTriple(*row) for row in self.probs.tolist()]


def _omega(rows) -> tuple[float, float, float]:
    """omega = 2h for the validated Hamiltonian m = h0 I + h . sigma, from its entries."""
    _, (h1, h2, h3) = matrix_oracle._pauli(rows)
    omega = (2.0 * h1, 2.0 * h2, 2.0 * h3)
    if not max(map(abs, omega)) < math.inf:
        raise DomainError(f"kinetic generator omega = 2h overflows (h = ({h1:.3e}, {h2:.3e}, {h3:.3e}))")
    return omega


def _scaled_tol(omega, tol: float) -> float:
    # the oracle rounds at about 2.4e-16 * |H|, so the tolerance grows with max|L| = max|omega_k| past 1
    return tol * max(1.0, *map(abs, omega))


def kinetic_formula_checks(h, tol: float = FD_TOL) -> list[FormulaCheck]:
    """Compare every closed-form generator component against the exact-derivative fit.

    Each check's tolerance is tol * max(1, max|L|), as in build_kinetic.
    """
    rows = matrix_oracle._hermitian_rows(h, name="hamiltonian")
    system = KineticSystem(_omega(rows), 0.0)  # L and C do not depend on the shift
    oracle = kinetic_oracle(matrix_oracle.as_matrix2(rows))
    return component_checks((system.L, system.C), oracle, _scaled_tol(system.omega, tol))


def _kinetic(rows, x: float) -> KineticSystem:
    """build_kinetic without the oracle, on a Hamiltonian's entries, as _accept_rows takes an observable's."""
    matrix_oracle._check_hermitian(rows, matrix_oracle.HERMITIAN_TOL, "hamiltonian")
    return KineticSystem(_omega(rows), x)


def build_kinetic(h, x: float, fd_tol: float | None = None) -> KineticSystem:
    """Kinetic system dp/dt = L p + C for the given Hamiltonian and shift.

    The system is omega = 2h, from which L and C follow in closed form. Given
    fd_tol, every component is also checked against the affine fit of the
    exact derivatives i[H, rho] at the four probe states; a deviation beyond
    fd_tol * max(1, max|L|) raises a FormulaMismatchWarning naming it. The
    system returned is the closed form either way.
    """
    rows = matrix_oracle.as_matrix2(h).tolist()
    system = _kinetic(rows, x)
    if fd_tol is not None:
        oracle = kinetic_oracle(matrix_oracle.as_matrix2(rows))
        checked_map((system.L, system.C), oracle, _scaled_tol(system.omega, fd_tol), "kinetic generator")
    return system


def _turn(u, v) -> tuple[float, float, float]:
    """K v = v x u for the unit axis u, each component rounded as x86-64 BLAS dgemv rounds K @ v.

    Each row of K has two nonzero entries, and OpenBLAS's FMA kernels round
    their two products as one fused multiply-add, fma(a, b, c * d), then add
    it into a zeroed y (so a result that rounds to zero is +0). Python 3.11
    has no math.fma; _sum_of_products(c * d, ((a, b),)) rounds c * d + a * b
    once, as fma does, so these bits are the same on every machine.
    """
    (u0, u1, u2), (v0, v1, v2) = u, v
    return (
        _sum_of_products(u2 * v1, ((-u1, v2),)) + 0.0,
        _sum_of_products(-u2 * v0, ((u0, v2),)) + 0.0,
        _sum_of_products(-u0 * v1, ((u1, v0),)) + 0.0,
    )


def _rodrigues_terms(omega, p0: ProbTriple, t_last: float):
    """(|omega|, p, k1, k2) for turning p0 about the ball center c through times up to |t_last|.

    With K = L/|omega| and angle = |omega| t, Rodrigues' formula gives
    exp(L t) - I = sin(angle) K + 2 sin^2(angle/2) K^2. No term cancels, so
    the one formula holds at every angle: a row is p + sin(angle) k1 +
    2 sin^2(angle/2) k2 with p = p0 as floats, k1 = K(p - c) and k2 = K k1,
    which is p exactly at t = 0. At omega = 0, k1 and k2 are None and every
    row is p.
    """
    p = (float(p0.p1), float(p0.p2), float(p0.p3))
    norm = math.hypot(*omega)
    # the largest |t| is at an end of the grid
    if not math.isfinite(norm * abs(t_last)):
        raise DomainError(f"rotation angle |omega| t overflows (|omega| = {norm:.3e}, t up to {t_last:.3e})")
    if norm == 0.0:
        return norm, p, None, None
    u = (omega[0] / norm, omega[1] / norm, omega[2] / norm)
    k1 = _turn(u, (p[0] - 0.5, p[1] - 0.5, p[2] - 0.5))
    return norm, p, k1, _turn(u, k1)


def _row(p, k1, k2, angle: float) -> tuple[float, float, float]:
    """One row, p + sin(angle) k1 + 2 sin^2(angle/2) k2, in sample_trajectory's order of operations."""
    if k1 is None:
        return p
    s = math.sin(angle)
    h = math.sin(0.5 * angle)
    h = 2.0 * h * h
    return (s * k1[0] + h * k2[0] + p[0], s * k1[1] + h * k2[1] + p[1], s * k1[2] + h * k2[2] + p[2])


def _evolve_at(omega, p0: ProbTriple, t: float) -> ProbTriple:
    """The accepted p0 rotated for the single time t, which must be finite."""
    t = _as_float(t)
    if not math.isfinite(t):
        raise DomainError(f"time must be finite, got {t!r}")
    norm, p, k1, k2 = _rodrigues_terms(omega, p0, t)
    return ProbTriple(*_row(p, k1, k2, norm * t))


def evolve(system: KineticSystem, p0: ProbTriple, t: float, tol: float = DEFAULT_TOL) -> ProbTriple:
    """Propagate a physical triple for time t: the exact rotation about the ball center."""
    qubit_core.require_physical(p0, tol)
    return _evolve_at(system.omega, p0, t)


def evolve_observable(a0, h, x: float, t: float) -> np.ndarray:
    """Evolve an observable through the kinetic equation at shift x.

    The triple of rho(x, 0), physical at an admissible x, is read off the
    observable in closed form and propagated, and A(t) = (tr A0 + 2x) rho(x, t)
    - x I undoes the embedding; the trace is conserved, so the same
    normalization applies at both ends.
    """
    rows, lam_min, _ = observable_map._accept(a0, "observable")
    x = _as_float(x)
    p0 = observable_map._triple(rows, lam_min, x)
    pt = _evolve_at(build_kinetic(h, x).omega, p0, t)
    denom = (rows[0][0].real + rows[1][1].real) + 2.0 * x
    return denom * qubit_core._density(pt) - x * matrix_oracle._identity()


def _grid_inputs(p0: ProbTriple, t_end: float, steps: int, tol: float) -> tuple[float, int]:
    """A trajectory's t_end and steps, checked, and then p0 checked physical."""
    t_end = _as_float(t_end)
    if not math.isfinite(t_end) or t_end <= 0.0:
        raise DomainError(f"t_end must be finite and positive, got {t_end!r}")
    try:
        if isinstance(steps, bool):  # operator.index takes True as 1
            raise TypeError
        steps = operator.index(steps)
    except TypeError:
        raise DomainError(f"steps must be an integer, got {steps!r}") from None
    if steps < 1:
        raise DomainError(f"steps must be at least 1, got {steps}")
    qubit_core.require_physical(p0, tol)
    return t_end, steps


# rounding can collapse a tiny grid (t_end = 5e-324, steps = 3)
_COLLAPSED_GRID = "trajectory times must be strictly increasing"


def sample_trajectory(system: KineticSystem, p0: ProbTriple, t_end: float, steps: int,
                      tol: float = DEFAULT_TOL) -> Trajectory:
    """Uniform time grid of closed-form evolutions from 0 to t_end.

    Every sample is propagated directly from t = 0, so there is no
    accumulation of step error; refining the grid never moves shared times.
    Each row equals evolve() at its time, bit for bit. Only the inputs and the
    grid's times are checked: each row is a rotation of the accepted p0 about
    the ball center and keeps its ball residual.
    """
    t_end, steps = _grid_inputs(p0, t_end, steps, tol)
    # near the float maximum, linspace's step * (num - 1) overflows before it sets the last time to t_end
    with np.errstate(over="ignore"):
        times = np.linspace(0.0, t_end, steps + 1)
    if not (times[1:] > times[:-1]).all():
        raise DomainError(_COLLAPSED_GRID)
    norm, p, k1, k2 = _rodrigues_terms(system.omega, p0, t_end)
    if k1 is None:
        return Trajectory(times=times, probs=np.tile(p, (times.size, 1)), x=system.x)
    # only (n,) and (n, 3) arrays, and each time gets exactly _row's arithmetic
    angle = norm * times
    half_sin = np.sin(0.5 * angle)
    probs = np.sin(angle)[:, None] * k1
    probs += (2.0 * half_sin * half_sin)[:, None] * k2
    probs += p
    return Trajectory(times=times, probs=probs, x=system.x)


def _linspace(stop: float, num: int) -> list[float]:
    """np.linspace(0.0, stop, num) for num >= 2, as a list of the same floats."""
    div = num - 1
    step = stop / div
    if step == 0.0:  # numpy's branch for a step that underflows
        grid = [i / div * stop for i in range(num)]
    else:
        grid = [i * step for i in range(num)]
    grid[-1] = stop
    return grid


def _trajectory_rows(system: KineticSystem, p0: ProbTriple, t_end: float, steps: int, tol: float):
    """sample_trajectory's times, as a list, and its rows, as tuples made one at a time, on Python floats.

    Every check of sample_trajectory runs before this returns, and the times
    and rows are sample_trajectory's, bit for bit.
    """
    t_end, steps = _grid_inputs(p0, t_end, steps, tol)
    times = _linspace(t_end, steps + 1)
    if not all(map(operator.lt, times, itertools.islice(times, 1, None))):
        raise DomainError(_COLLAPSED_GRID)
    norm, p, k1, k2 = _rodrigues_terms(system.omega, p0, t_end)
    return times, (_row(p, k1, k2, norm * t) for t in times)
