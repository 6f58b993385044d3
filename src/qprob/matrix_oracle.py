"""Reference 2x2 complex linear algebra.

Everything here is computed straight from matrix entries (trace, determinant,
Pauli decomposition), with no knowledge of the probability parametrizations
built on top, so these routines serve as the trusted side of the dual-route
checks used throughout the package and its test suite.

Each public function validates its argument once (shape, then Hermiticity or
unitarity) and hands the accepted complex 2x2 array to a private kernel
(_eigenvalues, _pauli) that runs no guard. Callers elsewhere in the package
that already hold a matrix accepted by require_hermitian call the kernels
directly, so one public call checks each input matrix once.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-12

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def as_matrix2(matrix) -> np.ndarray:
    """Coerce to a complex 2x2 ndarray, rejecting anything of another shape."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise DomainError(f"expected a 2x2 matrix, got shape {m.shape}")
    return m


def _modulus(z: complex) -> float:
    # math.hypot gives inf where abs(complex) raises OverflowError
    return math.hypot(z.real, z.imag)


def _hermiticity_defect(m: np.ndarray) -> float:
    """max |m_ij - conj(m_ji)| over the entries, read once as Python complex numbers.

    A non-finite entry gives NaN (inf - inf on the diagonal) or inf, as the
    elementwise numpy form does; max() alone would drop a NaN.
    """
    (a, b), (c, d) = m.tolist()
    diag_a = _modulus(a - a.conjugate())
    off = _modulus(b - c.conjugate())
    diag_d = _modulus(d - d.conjugate())
    if diag_a != diag_a or off != off or diag_d != diag_d:
        return math.nan
    return max(diag_a, off, diag_d)


def hermiticity_defect(matrix) -> float:
    return _hermiticity_defect(as_matrix2(matrix))


def _unitarity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m @ m.conj().T - IDENTITY)))


def unitarity_defect(matrix) -> float:
    return _unitarity_defect(as_matrix2(matrix))


def require_hermitian(matrix, tol: float = HERMITIAN_TOL, name: str = "matrix") -> np.ndarray:
    m = as_matrix2(matrix)
    defect = _hermiticity_defect(m)
    if not defect <= tol:
        raise DomainError(f"{name} is not Hermitian (defect {defect:.3e} exceeds {tol:.1e})")
    return m


def require_unitary(matrix, tol: float = UNITARY_TOL, name: str = "matrix") -> np.ndarray:
    m = as_matrix2(matrix)
    defect = _unitarity_defect(m)
    if not defect <= tol:
        raise DomainError(f"{name} is not unitary (defect {defect:.3e} exceeds {tol:.1e})")
    return m


def _pauli(m: np.ndarray) -> tuple[float, np.ndarray]:
    h0 = 0.5 * float(m[0, 0].real + m[1, 1].real)
    hvec = np.array([m[1, 0].real, m[1, 0].imag, 0.5 * float(m[0, 0].real - m[1, 1].real)])
    return h0, hvec


def pauli_components(matrix) -> tuple[float, np.ndarray]:
    """Coefficients (h0, hvec) of H = h0*I + hvec . sigma for Hermitian H."""
    return _pauli(require_hermitian(matrix))


def eigenvalues_hermitian(matrix, tol: float = HERMITIAN_TOL) -> tuple[float, float]:
    """Both eigenvalues of a Hermitian 2x2 matrix, ascending."""
    return _eigenvalues(require_hermitian(matrix, tol))


def _eigenvalues(m: np.ndarray) -> tuple[float, float]:
    """Both eigenvalues of an already validated Hermitian matrix, ascending.

    Uses the quadratic formula with the numerically stable branch: the root of
    larger magnitude comes from the formula, the other from the determinant.
    The gap sqrt(tr^2 - 4 det) is formed as hypot(h11 - h22, 2 |h21|), which
    does not cancel when the eigenvalues nearly coincide.
    """
    tr = float(m[0, 0].real + m[1, 1].real)
    det = float(m[0, 0].real * m[1, 1].real - (m[0, 1] * m[1, 0]).real)
    root = float(np.hypot(m[0, 0].real - m[1, 1].real, 2.0 * abs(m[1, 0])))
    big = 0.5 * (tr + root) if tr >= 0.0 else 0.5 * (tr - root)
    small = det / big if big != 0.0 else 0.0
    return (small, big) if small <= big else (big, small)


def conjugate_by_unitary(rho, u, tol: float = UNITARY_TOL) -> np.ndarray:
    """u @ rho @ u^dagger, with a unitarity guard on u."""
    m = as_matrix2(rho)
    w = require_unitary(u, tol, name="conjugating matrix")
    return w @ m @ w.conj().T


def expm_hermitian_generator(h, t: float) -> np.ndarray:
    """exp(i*H*t) for Hermitian H, evaluated in closed form.

    With H = h0*I + hvec . sigma the exponential factors exactly into
    exp(i h0 t) (cos(|hvec| t) I + i sin(|hvec| t) (hvec/|hvec|) . sigma),
    so no series truncation or scaling-and-squaring is involved.
    """
    h0, hvec = _pauli(require_hermitian(h))
    norm = float(np.linalg.norm(hvec))
    phase = np.exp(1j * h0 * t)
    if norm == 0.0:
        return phase * IDENTITY
    angle = norm * t
    axis = hvec / norm
    sigma_axis = axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z
    return phase * (np.cos(angle) * IDENTITY + 1j * np.sin(angle) * sigma_axis)


def heisenberg_exact(a0, h, t: float) -> np.ndarray:
    """Exact solution A(t) = exp(iHt) A(0) exp(-iHt) of dA/dt = i[H, A]."""
    a = require_hermitian(a0, name="observable")
    u = expm_hermitian_generator(h, t)
    return u @ a @ u.conj().T
