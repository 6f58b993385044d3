"""Shared test helpers: seeded random inputs and independent oracles."""

from __future__ import annotations

import numpy as np
import pytest

from qprob import ProbTriple, Direction, expm_hermitian_generator, matrix_oracle
from qprob.qubit_core import BALL_CENTER


@pytest.fixture
def guard_counts(monkeypatch):
    """Lists that fill with the name of each Hermitian guard and each eigenvalue solve.

    Every Hermitian guard, require_hermitian's and the kernels' alike, is
    _check_hermitian on the matrix's entries, so this counts one per matrix.
    """
    names, solved = [], []
    check_hermitian, eigenvalues = matrix_oracle._check_hermitian, matrix_oracle._eigenvalues

    def counting_guard(rows, tol, name):
        names.append(name)
        return check_hermitian(rows, tol, name)

    def counting_solve(rows):
        solved.append(rows)
        return eigenvalues(rows)

    monkeypatch.setattr(matrix_oracle, "_check_hermitian", counting_guard)
    monkeypatch.setattr(matrix_oracle, "_eigenvalues", counting_solve)
    return names, solved


def random_hermitian(rng, scale: float = 5.0) -> np.ndarray:
    """Hermitian 2x2 matrix with entries uniform in [-scale, scale]."""
    d1, d2, re, im = rng.uniform(-scale, scale, size=4)
    return np.array([[d1, re - 1j * im], [re + 1j * im, d2]], dtype=complex)


def random_unitary(rng, scale: float = 2.0) -> np.ndarray:
    """Random 2x2 unitary exp(i G) for a random Hermitian generator G."""
    return expm_hermitian_generator(random_hermitian(rng, scale), 1.0)


def random_physical_triple(rng, radius: float = 0.5) -> ProbTriple:
    """Triple drawn uniformly from the physical ball (radius 1/2 by default)."""
    v = rng.normal(size=3)
    v *= radius * rng.uniform() ** (1.0 / 3.0) / np.linalg.norm(v)
    return ProbTriple.from_array(BALL_CENTER + v)


def random_cube_triple(rng) -> ProbTriple:
    """Triple drawn uniformly from the unit cube (not necessarily physical)."""
    return ProbTriple.from_array(rng.uniform(0.0, 1.0, size=3))


def random_direction(rng, psi: bool = False) -> Direction:
    """Measurement direction uniform on the sphere; optional random frame angle."""
    theta = float(np.arccos(rng.uniform(-1.0, 1.0)))
    phi = float(rng.uniform(0.0, 2.0 * np.pi))
    return Direction(theta, phi, float(rng.uniform(0.0, 2.0 * np.pi)) if psi else 0.0)


def rk4_commutator_evolution(a0, h, t_end: float, steps: int = 2000) -> np.ndarray:
    """Integrate dA/dt = i [H, A] by classical RK4; independent of any closed form."""
    a = np.asarray(a0, dtype=complex).copy()
    m = np.asarray(h, dtype=complex)
    dt = t_end / steps

    def rhs(mat):
        return 1j * (m @ mat - mat @ m)

    for _ in range(steps):
        k1 = rhs(a)
        k2 = rhs(a + 0.5 * dt * k1)
        k3 = rhs(a + 0.5 * dt * k2)
        k4 = rhs(a + dt * k3)
        a = a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return a


def rk4_affine_evolution(L, C, p0, t_end: float, steps: int = 4000) -> np.ndarray:
    """Integrate dp/dt = L p + C by classical RK4; independent of the propagator."""
    p = np.asarray(p0, dtype=float).copy()
    dt = t_end / steps

    def rhs(v):
        return L @ v + C

    for _ in range(steps):
        k1 = rhs(p)
        k2 = rhs(p + 0.5 * dt * k1)
        k3 = rhs(p + 0.5 * dt * k2)
        k4 = rhs(p + dt * k3)
        p = p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return p


# one pass/fail line per acceptance criterion at the end of the run
_ACCEPTANCE: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _ACCEPTANCE[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        label = name.removeprefix("test_").replace("_", " ")
        status = "PASS" if _ACCEPTANCE[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"{label}: {status}")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
