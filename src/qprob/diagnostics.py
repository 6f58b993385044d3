"""The independent routes behind the closed-form maps: test oracles, opt-in checks and their reports.

Production code evaluates every affine map on probability triples in closed
form, and nothing here ever stands in for it. The oracles conjugate, or
differentiate, the density matrices of four probe states in one stacked
product, read their triples off the stack, and fit the affine map through
those images. They run for tests, the two reports here
(rotation_formula_checks and kinetic_formula_checks) and a map builder
given a tolerance, where checked_map compares the twelve components of the
two routes and warns, naming each failing component, when they disagree.
The matrix-route references (conjugation, exp(iHt), the exact Heisenberg
solution and the measurement-frame unitary of a Direction) live here too:
only tests and oracles use them. No command loads this module: it loads only
to run an oracle or to serve one of its names, so it builds PROBE_DENSITIES,
a read-only array, once, as it loads.
"""

from __future__ import annotations

import math
import warnings

from . import matrix_oracle, qubit_core
from ._numpy import np
from ._record import Record, _set
from .errors import DomainError, FormulaMismatchWarning
from .evolution import FD_TOL, _scaled_tol, build_kinetic
from .matrix_oracle import UNITARY_TOL
from .qubit_core import ProbTriple, density_from_probs
from .tomography_channels import ROTATION_FORMULA_TOL, _adjoint_rotation

# Four probe triples fixing any affine map in three dimensions: the ball
# center plus half-steps along each axis (all physical, the steps are pure).
PROBE_TRIPLES = (
    ProbTriple(0.5, 0.5, 0.5),
    ProbTriple(1.0, 0.5, 0.5),
    ProbTriple(0.5, 1.0, 0.5),
    ProbTriple(0.5, 0.5, 1.0),
)

# their (4, 2, 2) density matrices, read-only
PROBE_DENSITIES = np.stack([density_from_probs(p) for p in PROBE_TRIPLES])
PROBE_DENSITIES.flags.writeable = False

# Component names in check order: L row by row, then C.
COMPONENT_NAMES = tuple(f"L{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)) + ("C1", "C2", "C3")


class FormulaCheck(Record):
    """Outcome of validating one named closed-form component against its oracle value."""

    __slots__ = ("name", "closed_form", "oracle", "tolerance")

    def __init__(self, name: str, closed_form: float, oracle: float, tolerance: float):
        _set(self, "name", name)
        _set(self, "closed_form", closed_form)
        _set(self, "oracle", oracle)
        _set(self, "tolerance", tolerance)

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
    """(L, C) of the affine map p -> L p + C taking the probe triples to the (4, 3) images.

    The probes sit half a unit step from the ball center, so column j of L is
    twice the difference between the images of probe j and of the center.
    """
    L = 2.0 * (images[1:] - images[0]).T
    return L, images[0] - L @ qubit_core.BALL_CENTER


def rotation_oracle(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The affine map through the probe states conjugated by one unitary.

    A density's triple is (Re rho21 + 1/2, Im rho21 + 1/2, rho11).
    """
    return fit_affine(_triple_parts(w @ PROBE_DENSITIES @ w.conj().T) + [0.5, 0.5, 0.0])


def kinetic_oracle(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The affine map through the exact derivatives i[H, rho] at the probe states."""
    return fit_affine(_triple_parts(1j * (m @ PROBE_DENSITIES - PROBE_DENSITIES @ m)))


def component_checks(closed, oracle, tol: float) -> list[FormulaCheck]:
    """One check per component of one map: L11 .. L33 row by row, then C1 .. C3."""
    a, b = (np.concatenate([np.ravel(L), C]).tolist() for L, C in (closed, oracle))
    return [FormulaCheck(name, x, y, tol) for name, x, y in zip(COMPONENT_NAMES, a, b)]


def checked_map(closed, oracle, tol: float, label: str, stacklevel: int = 2) -> None:
    """Warn if the components of one closed-form map deviate from the oracle's beyond tol.

    The one FormulaMismatchWarning names every failing component and its
    deviation; a NaN deviation fails. The caller's result is the closed form
    either way. stacklevel counts from the caller, as warnings.warn's would there.
    """
    failed = failed_checks(component_checks(closed, oracle, tol))
    if failed:
        details = ", ".join(f"{check.name} off by {check.deviation:.3e}" for check in failed)
        warnings.warn(
            f"closed-form {label} components disagree with the matrix-route oracle: {details}",
            FormulaMismatchWarning,
            stacklevel=stacklevel + 1,
        )


def rotation_formula_checks(u, tol: float = ROTATION_FORMULA_TOL) -> list[FormulaCheck]:
    """Compare every closed-form (L, C) component of a unitary's rotation against the probe construction."""
    rows = matrix_oracle._unitary_rows(u)
    return component_checks(_adjoint_rotation(rows), rotation_oracle(np.array(rows)), tol)


def kinetic_formula_checks(h, tol: float = FD_TOL) -> list[FormulaCheck]:
    """Compare every closed-form generator component against the exact-derivative fit.

    Each check's tolerance is tol * max(1, max|L|), as in build_kinetic.
    """
    system = build_kinetic(h, 0.0)  # L and C do not depend on the shift
    oracle = kinetic_oracle(matrix_oracle.as_matrix2(h))
    return component_checks((system.L, system.C), oracle, _scaled_tol(system.omega, tol))


def conjugate_by_unitary(rho, u, tol: float = UNITARY_TOL) -> np.ndarray:
    """u @ rho @ u^dagger, with a unitarity guard on u."""
    m = matrix_oracle.as_matrix2(rho)
    w = matrix_oracle.require_unitary(u, tol, name="conjugating matrix")
    return w @ m @ w.conj().T


def expm_hermitian_generator(h, t: float) -> np.ndarray:
    """exp(i*H*t) for Hermitian H, evaluated in closed form.

    With H = h0*I + hvec . sigma the exponential factors exactly into
    exp(i h0 t) (cos(|hvec| t) I + i sin(|hvec| t) (hvec/|hvec|) . sigma),
    so no series truncation or scaling-and-squaring is involved. Both angles,
    |hvec| t and h0 t, must be finite.
    """
    h0, hvec = matrix_oracle._pauli(matrix_oracle._hermitian_rows(h))
    norm, t = math.hypot(*hvec), qubit_core._as_float(t)
    angle = norm * t
    if not (math.isfinite(angle) and math.isfinite(h0 * t)):
        raise DomainError(
            f"exp(iHt) needs finite |h| t and h0 t (|h| = {norm:.3e}, h0 = {h0:.3e}, t = {t!r})"
        )
    phase, identity = np.exp(1j * h0 * t), matrix_oracle.IDENTITY
    if norm == 0.0:
        return phase * identity
    x, y, z = (h / norm for h in hvec)
    sigma_axis = x * matrix_oracle.SIGMA_X + y * matrix_oracle.SIGMA_Y + z * matrix_oracle.SIGMA_Z
    return phase * (np.cos(angle) * identity + 1j * np.sin(angle) * sigma_axis)


def heisenberg_exact(a0, h, t: float) -> np.ndarray:
    """Exact solution A(t) = exp(iHt) A(0) exp(-iHt) of dA/dt = i[H, A]."""
    a = matrix_oracle.require_hermitian(a0, name="observable")
    u = expm_hermitian_generator(h, t)
    return u @ a @ u.conj().T


def euler_unitary(direction) -> np.ndarray:
    """Measurement-frame rotation for a Direction's Euler angles (determinant one).

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
