"""Heisenberg-picture evolution as a linear kinetic equation for triples.

For a Hamiltonian H = h0 I + h . sigma, the triple of any rho(x, t) built from
an evolving observable obeys dp/dt = L p + C, where L v = v x omega with
omega = 2h and C = -L c fixes the ball center c; a KineticSystem holds omega
and derives L and C. The exact solution p(t) = c + exp(L t)(p0 - c) is a
rotation, in Rodrigues' closed form: one prelude (|omega|, k1, k2) on Python
floats, then one row per time. build_kinetic reads a Hamiltonian given as
nested lists without numpy; evolve_observable validates its H once, as
build_kinetic does, and builds A(t) as one array. evolve, evolve_observable
and the CLI's grid form their rows on Python floats; sample_trajectory forms
the same rows, bit for bit, as a read-only (n, 3) array, filled one column
at a time by length-n ufuncs. Both grids are the one formula k * step, with
t_end last, which np.linspace also computes, and one scalar check in
_grid_inputs decides that it strictly increases: step > 0 and
fl((steps - 1) * step) < t_end, as only the last pair can collapse (the
proof is in its docstring). sample_trajectory peaks at 56 bytes a sample:
the times, the rows and three length-n buffers. The oracle, in diagnostics,
fits the exact derivatives i[H, rho] at four probe states; it runs given
fd_tol, and a mismatch warns, while omega stays 2h.
"""

from __future__ import annotations

import math
import operator

from . import matrix_oracle, observable_map, qubit_core
from ._numpy import np
from ._record import Record, _set
from .diagnostics import FormulaCheck, checked_map, component_checks, kinetic_oracle
from .errors import DomainError
from .qubit_core import DEFAULT_TOL, ProbTriple, _as_float, _floats, _sum_of_products

FD_TOL = 1e-4


class KineticSystem(Record):
    """Constant-coefficient system dp/dt = L p + C for a fixed Hamiltonian and shift.

    Held as its angular velocity omega = 2h, three finite numbers, and a finite
    shift x: L v = v x omega and C = -L c, which keeps the ball center c fixed,
    are fresh arrays on each access. The constructor reads omega through
    qubit_core._floats; build_kinetic holds _omega's floats as they are, since
    the Hermitian guard and _omega's overflow check leave them finite.
    """

    __slots__ = ("omega", "x")

    def __init__(self, omega: tuple[float, float, float], x: float):
        omega = _floats(omega, (3,), "kinetic angular velocity omega needs 3 components")
        if not all(map(math.isfinite, omega)):
            raise DomainError(f"kinetic angular velocity omega must be finite, got {omega!r}")
        _kinetic_system(omega, x, self)

    @property
    def L(self) -> np.ndarray:
        w1, w2, w3 = self.omega
        return np.array([[0.0, w3, -w2], [-w3, 0.0, w1], [w2, -w1, 0.0]])

    @property
    def C(self) -> np.ndarray:
        return -(self.L @ qubit_core.BALL_CENTER)


def _kinetic_system(omega: tuple, x, system: KineticSystem | None = None) -> KineticSystem:
    """system, or a new KineticSystem, set to the finite floats omega and to x, read and refused if not finite."""
    x = _as_float(x)
    if not math.isfinite(x):
        raise DomainError(f"kinetic shift x must be finite, got {x!r}")
    system = KineticSystem.__new__(KineticSystem) if system is None else system
    _set(system, "omega", omega)
    _set(system, "x", x)
    return system


class Trajectory(Record):
    """Sampled evolution: times, the matching triples, and the shift they belong to."""

    __slots__ = ("times", "probs", "x")

    def __init__(self, times: np.ndarray, probs: np.ndarray, x: float):
        _set(self, "times", times)
        _set(self, "probs", probs)
        _set(self, "x", x)

    def __eq__(self, other):
        # the arrays compare as wholes, so a trajectory is equal to another of the same shift, shape
        # and numbers; it stays unhashable, as its arrays are
        if other.__class__ is self.__class__:
            return (self.x == other.x and np.array_equal(self.times, other.times)
                    and np.array_equal(self.probs, other.probs))
        return NotImplemented

    __hash__ = None

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
    system = build_kinetic(h, 0.0)  # L and C do not depend on the shift
    oracle = kinetic_oracle(matrix_oracle.as_matrix2(h))
    return component_checks((system.L, system.C), oracle, _scaled_tol(system.omega, tol))


def build_kinetic(h, x: float, fd_tol: float | None = None) -> KineticSystem:
    """Kinetic system dp/dt = L p + C for the given Hamiltonian and shift.

    The system is omega = 2h, from which L and C follow in closed form. Given
    fd_tol, every component is also checked against the affine fit of the
    exact derivatives i[H, rho] at the four probe states; a deviation beyond
    fd_tol * max(1, max|L|) raises a FormulaMismatchWarning naming it. The
    system returned is the closed form either way.
    """
    rows = matrix_oracle._hermitian_rows(h, name="hamiltonian")
    system = _kinetic_system(_omega(rows), x)
    if fd_tol is not None:
        oracle = kinetic_oracle(matrix_oracle.as_matrix2(rows))
        checked_map((system.L, system.C), oracle, _scaled_tol(system.omega, fd_tol), "kinetic generator")
    return system


def _turn(u, v) -> tuple[float, float, float]:
    """K v = v x u for the unit axis u, each component rounded as x86-64 BLAS dgemv rounds K @ v.

    Each row of K has two nonzero entries, and OpenBLAS's FMA kernels round
    their two products as one fused multiply-add, fma(a, b, c * d), then add
    it into a zeroed y (so a result that rounds to zero is +0). Python 3.11
    has no math.fma; _sum_of_products([c * d], ((a, b),)) rounds c * d + a * b
    once, as fma does, so these bits are the same on every machine.
    """
    (u0, u1, u2), (v0, v1, v2) = u, v
    return (
        _sum_of_products([u2 * v1], ((-u1, v2),)) + 0.0,
        _sum_of_products([-u2 * v0], ((u0, v2),)) + 0.0,
        _sum_of_products([-u0 * v1], ((u1, v0),)) + 0.0,
    )


def _rodrigues_terms(omega, p0: ProbTriple, t_last: float):
    """(|omega|, p, k1, k2) for turning p0 about the ball center c through times up to |t_last|.

    With K = L/|omega| and angle = |omega| t, Rodrigues' formula gives
    exp(L t) - I = sin(angle) K + 2 sin^2(angle/2) K^2. No term cancels, so
    the one formula holds at every angle: a row is p + sin(angle) k1 +
    2 sin^2(angle/2) k2 with p = p0's fields, which ProbTriple holds as floats,
    k1 = K(p - c) and k2 = K k1, which is p exactly at t = 0. At omega = 0,
    k1 and k2 are None and every row is p.
    """
    p = (p0.p1, p0.p2, p0.p3)
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
    p0 = observable_map._triple(rows, lam_min, x)  # checks that x is admissible, so finite
    pt = _evolve_at(_omega(matrix_oracle._hermitian_rows(h, name="hamiltonian")), p0, t)
    (r11, r12), (r21, r22) = qubit_core._density_rows(pt)
    # the entries of d * rho - x * I as numpy's complex multiply and subtract form them, signed
    # zeros included: d is real, so no product here rounds differently when fused
    d = complex((rows[0][0].real + rows[1][1].real) + 2.0 * x)
    shift = complex(x)
    off = shift * 0j
    return np.array([[d * complex(r11) - shift, d * r12 - off],
                     [d * r21 - off, d * complex(r22) - shift]], dtype=complex)


# rounding can collapse a tiny grid (t_end = 5e-324, steps = 3)
_COLLAPSED_GRID = "trajectory times must be strictly increasing"


def _grid_inputs(p0: ProbTriple, t_end: float, steps: int, tol: float) -> tuple[float, int, float]:
    """A trajectory's t_end and steps, checked, then p0 checked physical, then the grid, and its step.

    The grid is 0, fl(k * step) for 0 < k < steps, and t_end, with
    step = t_end / steps; np.linspace(0, t_end, steps + 1) gives these
    floats wherever step is not 0. One scalar condition decides that it
    strictly increases: step > 0 and fl((steps - 1) * step) < t_end. For
    steps < 2^52, neighbours k * step and (k + 1) * step differ by step
    exactly, and rounding cannot close that gap: a subnormal product is
    exact, and a normal one moves by at most 2^-53 of itself, so two
    roundings take away at most 2^-53 (2k + 1) step < step. So only the
    last pair can collapse, and the one product checks it. No product
    below the last index overflows, as (steps - 1) * step is below t_end.
    If step is 0, then steps >= 2 t_end / 5e-324, and linspace's grid of
    steps + 1 multiples of 5e-324 in [0, t_end] takes at most
    t_end / 5e-324 + 1 distinct values, so it collapses too. A grid of
    2^52 floats cannot be allocated.
    """
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
    step = t_end / steps
    if not (step > 0.0 and (steps - 1) * step < t_end):
        raise DomainError(_COLLAPSED_GRID)
    return t_end, steps, step


def sample_trajectory(system: KineticSystem, p0: ProbTriple, t_end: float, steps: int,
                      tol: float = DEFAULT_TOL) -> Trajectory:
    """Uniform time grid of closed-form evolutions from 0 to t_end.

    Every sample is propagated directly from t = 0, so there is no
    accumulation of step error; refining the grid never moves shared times.
    The times are fl(k * step) with step = t_end / steps, and t_end last,
    the floats np.linspace(0, t_end, steps + 1) gives. No product reaches the
    last index, so none overflows near the float maximum. The grid strictly
    increases exactly when step > 0 and fl((steps - 1) * step) < t_end, the
    one scalar check of _grid_inputs, which proves it; any other grid is
    refused before a time is formed. Each row equals evolve() at its time,
    bit for bit. Only the inputs and the grid's
    times are checked: each row is a rotation of the accepted p0 about the
    ball center and keeps its ball residual. The times and the (n, 3) rows
    are read-only arrays.
    """
    t_end, steps, step = _grid_inputs(p0, t_end, steps, tol)
    times = np.arange(steps + 1, dtype=float)
    times[:-1] *= step
    times[-1] = t_end
    norm, p, k1, k2 = _rodrigues_terms(system.omega, p0, t_end)
    if k1 is None:
        probs = np.tile(p, (times.size, 1))
    else:
        # _row's arithmetic at every time, built one column at a time by length-n ufuncs
        # (a broadcast against a 3-vector runs n loops of length 3); one length-n buffer
        # holds the angle, then sin(angle/2), then each column's k2 term
        scratch = norm * times
        s = np.sin(scratch)
        h = np.sin(np.multiply(0.5, scratch, out=scratch), out=scratch)
        hh = 2.0 * h
        hh *= h
        probs = np.empty((times.size, 3))
        for j in range(3):
            column = probs[:, j]
            np.multiply(s, k1[j], out=column)
            column += np.multiply(hh, k2[j], out=scratch)
            column += p[j]
    times.flags.writeable = False
    probs.flags.writeable = False
    return Trajectory(times=times, probs=probs, x=system.x)


def _trajectory_rows(system: KineticSystem, p0: ProbTriple, t_end: float, steps: int, tol: float):
    """sample_trajectory's times, as a list, and its rows, as tuples made one at a time, on Python floats.

    Every check of sample_trajectory runs before this returns, and the times
    and rows are sample_trajectory's, bit for bit.
    """
    t_end, steps, step = _grid_inputs(p0, t_end, steps, tol)
    times = [k * step for k in range(steps)]
    times.append(t_end)
    norm, p, k1, k2 = _rodrigues_terms(system.omega, p0, t_end)
    return times, (_row(p, k1, k2, norm * t) for t in times)
