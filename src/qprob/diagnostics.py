"""The oracle side of the closed-form cross-checks.

Production code evaluates every affine map on probability triples in closed
form. The independent route fits the same map from its values at four probe
triples, computed through the matrix side (conjugation of density matrices,
or finite differences of the exact matrix evolution); the closed form is then
compared with that fit component by component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qubit_core import BALL_CENTER, ProbTriple

# Four probe triples fixing any affine map in three dimensions: the ball
# center plus half-steps along each axis (all physical, the steps are pure).
PROBE_TRIPLES = (
    ProbTriple(0.5, 0.5, 0.5),
    ProbTriple(1.0, 0.5, 0.5),
    ProbTriple(0.5, 1.0, 0.5),
    ProbTriple(0.5, 0.5, 1.0),
)


@dataclass(frozen=True)
class FormulaCheck:
    """Outcome of validating one named closed-form component against its oracle value."""

    name: str
    closed_form: float
    oracle: float
    tolerance: float

    @property
    def deviation(self) -> float:
        return abs(self.closed_form - self.oracle)

    @property
    def ok(self) -> bool:
        return self.deviation <= self.tolerance

    def describe(self) -> str:
        status = "ok" if self.ok else "MISMATCH"
        return f"{self.name}: {status} (closed form {self.closed_form!r}, oracle {self.oracle!r})"


def failed_checks(checks) -> list[FormulaCheck]:
    """The subset of checks whose deviation exceeds their tolerance."""
    return [check for check in checks if not check.ok]


def fit_affine(image) -> tuple[np.ndarray, np.ndarray]:
    """(L, C) of the affine map p -> L p + C taking each probe triple to image(probe).

    The probes sit half a unit step from the ball center, so column j of L is
    twice the difference between the images of probe j and of the center.
    """
    base = image(PROBE_TRIPLES[0])
    L = np.column_stack([2.0 * (image(probe) - base) for probe in PROBE_TRIPLES[1:]])
    return L, base - L @ BALL_CENTER


def component_checks(L, C, oracle_L, oracle_C, tol: float) -> list[FormulaCheck]:
    """One check per component: L11 .. L33 row by row, then C1 .. C3."""
    checks = [
        FormulaCheck(f"L{i + 1}{j + 1}", float(L[i, j]), float(oracle_L[i, j]), tol)
        for i in range(3)
        for j in range(3)
    ]
    checks += [FormulaCheck(f"C{i + 1}", float(C[i]), float(oracle_C[i]), tol) for i in range(3)]
    return checks
