"""Heisenberg-picture evolution as a linear kinetic equation for triples.

For a Hamiltonian H = h0 I + h . sigma, the probability triple of any
rho(x, t) built from an evolving observable obeys dp/dt = L p + C, where
L v = v x omega is the cross product with omega = 2h and C = -L c fixes the
ball center c. The exact solution is the rotation about the center,
p(t) = c + exp(L t)(p0 - c), with exp(L t) in Rodrigues' closed form (no time
stepping) over a whole time grid at once. The closed-form L and C are the one
production route; their oracle, in diagnostics, is the affine fit of the exact
derivatives i[H, rho] at four probe states, which runs when a caller passes
fd_tol and takes over when the two disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrix_oracle, observable_map, qubit_core
from .diagnostics import FormulaCheck, checked_map, component_checks, kinetic_oracle
from .errors import DomainError
from .qubit_core import BALL_CENTER, DEFAULT_TOL, ProbTriple

FD_TOL = 1e-4
TRAJECTORY_TOL = 1e-8
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))  # L + L^T is symmetric


@dataclass(frozen=True)
class KineticSystem:
    """Constant-coefficient system dp/dt = L p + C for a fixed Hamiltonian and shift.

    L must be antisymmetric to 1e-12 and C must fix the ball center to
    1e-9 * max(1, max|L|). Both tests run on the entries as Python floats, and
    a NaN fails them.
    """

    L: np.ndarray
    C: np.ndarray
    H: np.ndarray
    x: float

    def __post_init__(self):
        L = np.asarray(self.L, dtype=float).reshape(3, 3)
        C = np.asarray(self.C, dtype=float).reshape(3)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "H", np.asarray(self.H, dtype=complex).reshape(2, 2))
        rows = L.tolist()
        defect = matrix_oracle._nan_max([abs(rows[i][j] + rows[j][i]) for i, j in _UPPER])
        if not defect <= 1e-12:
            raise DomainError(f"kinetic generator must be antisymmetric (defect {defect:.3e})")
        # the propagator rotates about the ball center, so C must keep it fixed;
        # summed left to right, each row is L @ BALL_CENTER + C bit for bit
        drift = matrix_oracle._nan_max([abs(0.5 * a + 0.5 * b + 0.5 * c + k)
                                        for (a, b, c), k in zip(rows, C.tolist())])
        if not drift <= 1e-9 * max(1.0, max(abs(v) for row in rows for v in row)):
            raise DomainError(
                "kinetic drift must fix the ball center (maximally mixed state) "
                f"(|L c + C| = {drift:.3e})"
            )


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: times, the matching triples, and the shift they belong to."""

    times: np.ndarray
    probs: np.ndarray
    x: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "probs", probs)
        if times.ndim != 1 or probs.shape != (times.size, 3):
            raise DomainError("trajectory needs times (n,) and probs (n, 3)")
        if times.size < 2:
            raise DomainError("trajectory times must be strictly increasing")
        for name, t in (("first", times[0]), ("last", times[-1])):
            if not math.isfinite(t):
                raise DomainError(f"trajectory times must be finite, got {float(t)!r} as the {name} time")
        # a NaN fails every comparison, so finite ends and one increasing test bound every time
        if not (times[1:] > times[:-1]).all():
            raise DomainError("trajectory times must be strictly increasing")
        # Three whole-array reductions accept a physical trajectory; a NaN fails all
        # three. The residuals use check_ball's arithmetic (a stacked matmul sums each
        # row as d @ d does). Only on failure are the rows masked, and the flagged
        # rows go through require_physical for its message.
        d = (probs - BALL_CENTER)[:, None, :]
        residual = 0.25 - (d @ d.transpose(0, 2, 1))[:, 0, 0]
        if not (probs.min() >= -TRAJECTORY_TOL and probs.max() <= 1.0 + TRAJECTORY_TOL
                and residual.min() >= -TRAJECTORY_TOL):
            inside = np.all((probs >= -TRAJECTORY_TOL) & (probs <= 1.0 + TRAJECTORY_TOL), axis=1)
            inside &= residual >= -TRAJECTORY_TOL
            for row in probs[~inside]:
                qubit_core.require_physical(ProbTriple.from_array(row), TRAJECTORY_TOL)

    def triples(self) -> list[ProbTriple]:
        return [ProbTriple.from_array(row) for row in self.probs]


def _closed_form_generator(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L v = v x omega with omega = 2h, and C = -L c so the ball center stays fixed."""
    _, hvec = matrix_oracle._pauli(m)
    h1, h2, h3 = hvec.tolist()
    w1, w2, w3 = 2.0 * h1, 2.0 * h2, 2.0 * h3
    if not max(abs(w1), abs(w2), abs(w3)) < math.inf:
        raise DomainError(f"kinetic generator omega = 2h overflows (h = ({h1:.3e}, {h2:.3e}, {h3:.3e}))")
    L = np.array([[0.0, w3, -w2], [-w3, 0.0, w1], [w2, -w1, 0.0]])
    return L, -(L @ BALL_CENTER)


def _scaled_tol(L: np.ndarray, tol: float) -> float:
    # the oracle rounds at about 2.4e-16 * |H|, so the tolerance grows with max|L| past 1
    return tol * max(1.0, float(np.max(np.abs(L))))


def kinetic_formula_checks(h, tol: float = FD_TOL) -> list[FormulaCheck]:
    """Compare every closed-form generator component against the exact-derivative fit.

    Each check's tolerance is tol * max(1, max|L|), as in build_kinetic.
    """
    m = matrix_oracle.require_hermitian(h, name="hamiltonian")
    closed = _closed_form_generator(m)
    return component_checks(closed, kinetic_oracle(m), _scaled_tol(closed[0], tol))


def build_kinetic(h, x: float, fd_tol: float | None = None) -> KineticSystem:
    """Kinetic system dp/dt = L p + C for the given Hamiltonian and shift.

    L and C come from closed forms (L antisymmetric by construction). Given
    fd_tol, every component is also checked against the affine fit of the
    exact derivatives i[H, rho] at the four probe states; a deviation beyond
    fd_tol * max(1, max|L|) raises a FormulaMismatchWarning naming it, and the
    fitted generator replaces the closed forms.
    """
    m = matrix_oracle.require_hermitian(h, name="hamiltonian")
    L, C = _closed_form_generator(m)
    if fd_tol is not None:
        L, C = checked_map((L, C), kinetic_oracle(m), _scaled_tol(L, fd_tol), "kinetic generator")
    return KineticSystem(L=L, C=C, H=m, x=float(x))


def _rotate_about_center(L: np.ndarray, p0: ProbTriple, times: np.ndarray) -> np.ndarray:
    """Rows c + exp(L t)(p0 - c), one per time, for antisymmetric L.

    With K = L/|omega| and angle = |omega| t, Rodrigues' formula gives
    exp(L t) - I = sin(angle) K + 2 sin^2(angle/2) K^2. No term cancels, so
    the one formula holds at every angle. Rows are formed as
    p0 + sin(angle) k1 + 2 sin^2(angle/2) k2 with k1 = K(p0 - c) and
    k2 = K k1, which is p0 exactly at t = 0 or omega = 0. Only (n,) and (n, 3)
    arrays are formed, and each time gets exactly the arithmetic it would get
    alone.
    """
    start = p0.as_array()
    omega = matrix_oracle._norm3((L[2, 1], L[0, 2], L[1, 0]))
    # the largest |t| is at an end of the grid
    if not math.isfinite(omega * max(abs(float(times[0])), abs(float(times[-1])))):
        raise DomainError(
            f"rotation angle |omega| t overflows (|omega| = {omega:.3e}, t up to {times[-1]:.3e})"
        )
    if omega == 0.0:
        return np.tile(start, (times.size, 1))
    K = L / omega
    k1 = K @ (start - BALL_CENTER)
    k2 = K @ k1
    angle = omega * times
    half_sin = np.sin(0.5 * angle)
    rows = np.sin(angle)[:, None] * k1
    rows += (2.0 * half_sin * half_sin)[:, None] * k2
    rows += start
    return rows


def evolve(system: KineticSystem, p0: ProbTriple, t: float, tol: float = DEFAULT_TOL) -> ProbTriple:
    """Propagate a physical triple for time t: the exact rotation about the ball center."""
    qubit_core.require_physical(p0, tol)
    if not np.isfinite(t):
        raise DomainError(f"time must be finite, got {t!r}")
    return ProbTriple.from_array(_rotate_about_center(system.L, p0, np.array([float(t)]))[0])


def evolve_observable(a0, h, x: float, t: float) -> np.ndarray:
    """Evolve an observable through the kinetic equation at shift x.

    The triple of rho(x, 0) is read off the observable in closed form, it is
    propagated, and A(t) = (tr A0 + 2x) rho(x, t) - x I undoes the embedding;
    the trace is conserved, so the same normalization applies at both ends.
    """
    m, lam_min, _ = observable_map._accept(a0, "observable")
    p0 = observable_map._triple(m, lam_min, float(x))
    system = build_kinetic(h, x)
    pt = evolve(system, p0, t)
    denom = float(m[0, 0].real + m[1, 1].real) + 2.0 * float(x)
    return denom * qubit_core.density_from_probs(pt) - float(x) * matrix_oracle.IDENTITY


def sample_trajectory(system: KineticSystem, p0: ProbTriple, t_end: float, steps: int,
                      tol: float = DEFAULT_TOL) -> Trajectory:
    """Uniform time grid of closed-form evolutions from 0 to t_end.

    Every sample is propagated directly from t = 0, so there is no
    accumulation of step error; refining the grid never moves shared times.
    Each row equals evolve() at its time, bit for bit.
    """
    if not np.isfinite(t_end) or t_end <= 0.0:
        raise DomainError(f"t_end must be finite and positive, got {t_end!r}")
    steps = int(steps)
    if steps < 1:
        raise DomainError(f"steps must be at least 1, got {steps}")
    qubit_core.require_physical(p0, tol)
    times = np.linspace(0.0, float(t_end), steps + 1)
    return Trajectory(times=times, probs=_rotate_about_center(system.L, p0, times), x=system.x)
