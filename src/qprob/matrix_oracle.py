"""2x2 complex matrices: validation and the kernels built on it.

Everything here is computed straight from matrix entries (trace, determinant,
Pauli decomposition), with no knowledge of the probability parametrizations
built on top. The matrix-route references the closed forms are checked
against (conjugation, exp(iHt), exact Heisenberg evolution, the Euler-angle
frame unitary) are in diagnostics, with the other oracles.

Each public function validates its argument once (shape, then Hermiticity or
unitarity). A matrix's entries are read in one place, _entries: nested lists
or tuples of Python numbers become Python complex numbers without numpy,
and anything else goes through as_matrix2, which raises DomainError for
every malformed input. The private kernels (_check_hermitian,
_unitarity_defect, _eigenvalues, _pauli) take those entries ((a, b), (c, d))
and return Python numbers, so a function that returns numbers loads no numpy
on Python input. Callers elsewhere in the package that already hold accepted
entries call the kernels directly, so one public call checks each input
matrix once. _sum_of_products rounds a short dot once, correctly: the
eigenvalue solve's determinant here, and the ball residual, the tomogram's
w+ and evolution's k1 and k2 elsewhere. Vector lengths, here and
elsewhere in the package, are math.hypot or math.dist: they scale by powers
of two inside, so they neither overflow nor underflow.
"""

from __future__ import annotations

import math

from ._numpy import lazy_constants, np
from .errors import DomainError

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-12

# IDENTITY and SIGMA_X, SIGMA_Y, SIGMA_Z: complex arrays, built on first access
__getattr__ = lazy_constants(
    globals(),
    IDENTITY=lambda: np.eye(2, dtype=complex),
    SIGMA_X=lambda: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    SIGMA_Y=lambda: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    SIGMA_Z=lambda: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

# Veltkamp's splitting constant 2^27 + 1: _SPLIT * x splits a double into two 26-bit halves.
_SPLIT = 134217729.0
# Past |x_hi * y_hi| = 2^-967 the products of the halves, multiples of ulp(x) ulp(y), are all representable.
_TINY_PRODUCT = 2.0 ** -967


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


def as_matrix2(matrix) -> np.ndarray:
    """Coerce to a complex 2x2 ndarray, rejecting anything of another shape or not made of numbers."""
    try:
        m = np.asarray(matrix, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged rows, a string, an int past the float range
        raise DomainError(f"expected a 2x2 matrix of numbers: {exc}") from None
    if m.shape != (2, 2):
        raise DomainError(f"expected a 2x2 matrix, got shape {m.shape}")
    return m


def _entries(matrix) -> list:
    """as_matrix2(matrix).tolist(): the entries [[a, b], [c, d]] as Python complex numbers.

    Nested lists or tuples of Python numbers are read without numpy, to the
    same bits; anything else (an ndarray, numpy scalars, malformed input)
    goes through as_matrix2 and raises its errors.
    """
    if isinstance(matrix, (list, tuple)):
        try:
            (a, b), (c, d) = top, bottom = matrix
            if isinstance(top, (list, tuple)) and isinstance(bottom, (list, tuple)) and all(
                    isinstance(v, (int, float, complex)) for v in (a, b, c, d)):
                return [[complex(a), complex(b)], [complex(c), complex(d)]]
        except (TypeError, ValueError, OverflowError):  # not two pairs, or an int past the float range
            pass
    return as_matrix2(matrix).tolist()


def _modulus(z: complex) -> float:
    # math.hypot gives inf where abs(complex) raises OverflowError
    return math.hypot(z.real, z.imag)


def _nan_max(parts) -> float:
    """max of non-negative floats, NaN if one is NaN: max() alone may drop a NaN, which their sum keeps."""
    total = sum(parts)
    return total if math.isnan(total) else max(parts)


def _hermiticity_defect(rows) -> float:
    """max |m_ij - conj(m_ji)| over the entries.

    A non-finite entry gives NaN (inf - inf on the diagonal) or inf, as the
    elementwise numpy form does.
    """
    (a, b), (c, d) = rows
    return _nan_max((_modulus(a - a.conjugate()), _modulus(b - c.conjugate()), _modulus(d - d.conjugate())))


def hermiticity_defect(matrix) -> float:
    return _hermiticity_defect(_entries(matrix))


def _largest_part(rows) -> float:
    """max |Re m_ij|, |Im m_ij| over the entries; NaN if one is NaN, as in _hermiticity_defect."""
    (a, b), (c, d) = rows
    return _nan_max(tuple(map(abs, (a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag))))


def _unitarity_defect(rows, name: str = "matrix") -> float:
    """max |(m m^dagger - I)_ij| over the entries: |aa* + bb* - 1|, |ac* + bd*| and |cc* + dd* - 1|.

    Entries past 2^510, whose squares can overflow, and NaN entries raise
    DomainError, naming the matrix.
    """
    size = _largest_part(rows)
    if not size <= 2.0 ** 510:  # past this m m^dagger can overflow; NaN fails too
        raise DomainError(f"{name} is not unitary (entries up to {size:.3e}; a unitary's are at most 1)")
    (a, b), (c, d) = rows
    return _nan_max((_modulus(a * a.conjugate() + b * b.conjugate() - 1.0),
                     _modulus(a * c.conjugate() + b * d.conjugate()),
                     _modulus(c * c.conjugate() + d * d.conjugate() - 1.0)))


def unitarity_defect(matrix) -> float:
    return _unitarity_defect(_entries(matrix))


def _check_hermitian(rows, tol: float, name: str) -> None:
    """The Hermitian guard on a matrix's entries: DomainError, naming the matrix, if they are not."""
    defect = _hermiticity_defect(rows)
    if not defect <= tol:
        # the bound grows with the entries past 1, as their rounding does; a non-finite
        # entry leaves it at tol, and its NaN or infinite defect fails
        size = _largest_part(rows)
        limit = tol * size if 1.0 < size < math.inf else tol
        if not defect <= limit:
            raise DomainError(f"{name} is not Hermitian (defect {defect:.3e} exceeds {limit:.1e})")


def require_hermitian(matrix, tol: float = HERMITIAN_TOL, name: str = "matrix") -> np.ndarray:
    m = as_matrix2(matrix)
    _check_hermitian(m.tolist(), tol, name)
    return m


def _hermitian_rows(matrix, tol: float = HERMITIAN_TOL, name: str = "matrix") -> list:
    """require_hermitian, returning the accepted matrix's entries for the kernels."""
    rows = _entries(matrix)
    _check_hermitian(rows, tol, name)
    return rows


def require_unitary(matrix, tol: float = UNITARY_TOL, name: str = "matrix") -> np.ndarray:
    m = as_matrix2(matrix)
    defect = _unitarity_defect(m.tolist(), name)
    if not defect <= tol:
        raise DomainError(f"{name} is not unitary (defect {defect:.3e} exceeds {tol:.1e})")
    return m


def _pauli(rows) -> tuple[float, tuple[float, float, float]]:
    """(h0, (h1, h2, h3)) of m = h0 I + h . sigma, as Python floats."""
    (a, _), (c, d) = rows
    # halved before they are added: h11 +- h22 itself can overflow
    h11, h22 = 0.5 * a.real, 0.5 * d.real
    return h11 + h22, (c.real, c.imag, h11 - h22)


def pauli_components(matrix) -> tuple[float, np.ndarray]:
    """Coefficients (h0, hvec) of H = h0*I + hvec . sigma for Hermitian H."""
    h0, hvec = _pauli(_hermitian_rows(matrix))
    return h0, np.array(hvec)


def eigenvalues_hermitian(matrix, tol: float = HERMITIAN_TOL) -> tuple[float, float]:
    """Both eigenvalues of a Hermitian 2x2 matrix, ascending."""
    return _eigenvalues(_hermitian_rows(matrix, tol))


def _eigenvalues(rows) -> tuple[float, float]:
    """Both eigenvalues of an already validated Hermitian matrix, from its entries, ascending.

    Uses the quadratic formula with the numerically stable branch: the root of
    larger magnitude comes from the formula, the other from the determinant.
    The gap sqrt(tr^2 - 4 det) is formed as hypot(h11 - h22, 2 |h21|), which
    does not cancel when the eigenvalues nearly coincide, and det =
    h11 h22 - Re(h12 h21) is rounded once, correctly, so the smaller root
    keeps its relative accuracy when det cancels (Kahan's 2x2 determinant).
    As in LAPACK's DLAEV2, the entries are first scaled by the power of two
    that brings the largest into [1/2, 1), so det neither underflows nor
    overflows; exact scaling changes no bit of a normal-range result. A
    matrix whose off-diagonal moves each eigenvalue by less than half an ulp
    of its diagonal entry returns its diagonal entries, so no scaling can
    push the smaller one into the subnormals. That shift is at most
    |h12 h21| / |h11 - h22|, so the test is |h12| (|h21| / ulp) <=
    |h11 - h22| / 2, with the ulp of the smaller diagonal entry, in an order
    where no square underflows and no difference overflows; a diagonal
    matrix passes it with 0 <= 0.
    """
    (a, b), (c, d) = rows
    h11, h22 = a.real, d.real
    ulp = math.ulp(h11 if abs(h11) < abs(h22) else h22)
    if abs(b) * (abs(c) / ulp) <= abs(0.5 * h11 - 0.5 * h22):
        lo, hi = h11 + 0.0, h22 + 0.0  # an exact zero eigenvalue is +0.0
        return (lo, hi) if lo <= hi else (hi, lo)
    parts = (h11, h22, b.real, b.imag, c.real, c.imag)
    k = math.frexp(max(map(abs, parts)))[1]
    h11, h22, b_re, b_im, c_re, c_im = map(math.ldexp, parts, (-k,) * 6)
    tr = h11 + h22
    det = _sum_of_products(0.0, ((h11, h22), (-b_re, c_re), (b_im, c_im)))
    # abs of a complex number is C's hypot, as np.hypot is, without a numpy call
    root = abs(complex(h11 - h22, 2.0 * abs(complex(c_re, c_im))))
    big = 0.5 * (tr + root) if tr >= 0.0 else 0.5 * (tr - root)
    small = det / big if det else 0.0  # an exact zero eigenvalue is +0.0
    lo, hi = (small, big) if small <= big else (big, small)
    # scaled back in two exact steps, which give inf past the float range where ldexp raises
    up, rest = 2.0 ** (k // 2), 2.0 ** (k - k // 2)
    return lo * up * rest, hi * up * rest
