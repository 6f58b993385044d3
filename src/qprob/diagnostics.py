"""The oracle side of the closed-form cross-checks.

Production code evaluates every affine map on probability triples in closed
form. The independent route runs for tests, the *_formula_checks reports and a
map builder given a tolerance. It conjugates, or differentiates, the density
matrices of four probe states in one stacked product, reads their triples off
the stack, and fits the affine map through those images. checked_map compares
the twelve components of the two routes and returns the oracle, with a
FormulaMismatchWarning naming each failing component, whenever they disagree.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FormulaMismatchWarning
from .qubit_core import BALL_CENTER, ProbTriple, density_from_probs

# Four probe triples fixing any affine map in three dimensions: the ball
# center plus half-steps along each axis (all physical, the steps are pure).
PROBE_TRIPLES = (
    ProbTriple(0.5, 0.5, 0.5),
    ProbTriple(1.0, 0.5, 0.5),
    ProbTriple(0.5, 1.0, 0.5),
    ProbTriple(0.5, 0.5, 1.0),
)
PROBE_DENSITIES = np.stack([density_from_probs(p) for p in PROBE_TRIPLES])

# Components in the order of the deviation arrays: L row by row, then C.
COMPONENT_NAMES = tuple(f"L{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)) + ("C1", "C2", "C3")


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


def failed_checks(checks) -> list[FormulaCheck]:
    """The subset of checks whose deviation exceeds their tolerance."""
    return [check for check in checks if not check.ok]


def _triple_parts(rho: np.ndarray) -> np.ndarray:
    """(Re rho21, Im rho21, rho11) of each matrix in a (..., 2, 2) stack."""
    lower = rho[..., 1, 0]
    return np.stack([lower.real, lower.imag, rho[..., 0, 0].real], axis=-1)


def fit_affine(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, C) of the affine map p -> L p + C taking the probe triples to the (..., 4, 3) images.

    The probes sit half a unit step from the ball center, so column j of L is
    twice the difference between the images of probe j and of the center.
    """
    L = 2.0 * (images[..., 1:, :] - images[..., :1, :]).swapaxes(-1, -2)
    return L, images[..., 0, :] - L @ BALL_CENTER


def rotation_oracle(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The affine maps through the probe states conjugated by each unitary of a (..., 2, 2) stack.

    A density's triple is (Re rho21 + 1/2, Im rho21 + 1/2, rho11).
    """
    w = w[..., None, :, :]
    return fit_affine(_triple_parts(w @ PROBE_DENSITIES @ w.conj().swapaxes(-1, -2)) + [0.5, 0.5, 0.0])


def kinetic_oracle(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The affine map through the exact derivatives i[H, rho] at the probe states.

    The generator is provably antisymmetric; the fit is projected onto the
    antisymmetric part, and C corrected to match. Only this L stands in for
    the closed form: build_kinetic reads omega off it, and C follows as -L c.
    """
    fit_L, fit_C = fit_affine(_triple_parts(1j * (m @ PROBE_DENSITIES - PROBE_DENSITIES @ m)))
    L = 0.5 * (fit_L - fit_L.T)
    return L, fit_C + (fit_L - L) @ BALL_CENTER


def _components(closed, oracle) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (..., 12) components of both (L, C) pairs and their absolute deviations."""
    a = np.concatenate([closed[0].reshape(*closed[1].shape[:-1], 9), closed[1]], axis=-1)
    b = np.concatenate([oracle[0].reshape(*oracle[1].shape[:-1], 9), oracle[1]], axis=-1)
    return a, b, np.abs(a - b)


def component_checks(closed, oracle, tol: float) -> list[FormulaCheck]:
    """One check per component: L11 .. L33 row by row, then C1 .. C3."""
    a, b, _ = _components(closed, oracle)
    return [FormulaCheck(name, float(x), float(y), tol) for name, x, y in zip(COMPONENT_NAMES, a, b)]


def checked_map(closed, oracle, tol: float, label: str) -> tuple[np.ndarray, np.ndarray]:
    """The closed (L, C), with the oracle's in place of each map that deviates beyond tol.

    Works on one map, L (3, 3) and C (3,), or on a stack, L (K, 3, 3) and
    C (K, 3), checked in one (K, 12) comparison. A NaN deviation counts as a
    failure. Each failing map gets its own FormulaMismatchWarning naming every
    failing component and its deviation.
    """
    _, _, deviation = _components(closed, oracle)
    bad = ~(deviation <= tol)
    if not bad.any():
        return closed
    for dev_row, bad_row in zip(deviation.reshape(-1, 12), bad.reshape(-1, 12)):
        if not bad_row.any():
            continue
        details = ", ".join(
            f"{name} off by {dev:.3e}" for name, dev, fails in zip(COMPONENT_NAMES, dev_row, bad_row) if fails
        )
        warnings.warn(
            f"closed-form {label} components disagree with the matrix-route oracle: {details}; "
            "using the oracle",
            FormulaMismatchWarning,
            stacklevel=3,
        )
    failed = bad.any(axis=-1)
    if failed.all():
        return oracle
    return (np.where(failed[..., None, None], oracle[0], closed[0]),
            np.where(failed[..., None], oracle[1], closed[1]))
