"""Hermitian observables as pairs of probability triples.

A Hermitian 2x2 matrix H embeds into density matrices through

    rho(x) = (H + x * I) / (tr H + 2 x)

for admissible shifts x (positive normalization, nonnegative spectrum).
Reading the probability triples of rho(a) and rho(b) at two distinct shifts
encodes H completely: with H = (T/2) I + (h/2) . sigma, each triple's Bloch
vector r(x) = 2 (p(x) - c) = h / (T + 2x), so one ratio and one product decode.

Each public function checks that H is Hermitian once, in _accept, which
also solves the spectrum; the private kernels behind it (_encode, _triple,
_default_shifts, _admissible_bound) take the accepted matrix's entries, as
Python numbers, and its eigenvalues and check only that each shift is
admissible; the CLI hands them the entries it parsed, through _accept_rows.
_triple reads the triple of rho(x) straight off H,
(Re H21/d + 1/2, Im H21/d + 1/2, (H11 + x)/d) with d = tr H + 2x, so no
rho(x) is built and no computed value checked again.
"""

from __future__ import annotations

import math
import warnings

from . import matrix_oracle, qubit_core
from ._numpy import np
from ._record import Record, _set
from .errors import DomainError, NonInvertibleEncodingWarning
from .qubit_core import DEFAULT_TOL, ProbTriple, _as_float
from .tomography_channels import _tomogram

# Relative guard: a Bloch vector, or a normalization against its terms, this small is zero.
DENOM_GUARD = 1e-12
# The two Bloch vectors of an encoding must be parallel to within this residual.
CONSISTENCY_TOL = 1e-8
# Slack on rho(x)'s smallest eigenvalue, so boundary shifts computed in floating point pass.
ADMISSIBLE_SLACK = 1e-12


class ObservableProbRep(Record):
    """Observable encoded as shift parameters (a, b) and per-shift triples."""

    __slots__ = ("a", "b", "p_a", "p_b")

    def __init__(self, a: float, b: float, p_a: ProbTriple, p_b: ProbTriple):
        fa, fb = _as_float(a), _as_float(b)  # checked as floats; the fields keep a and b as given
        if not (math.isfinite(fa) and math.isfinite(fb)):
            raise DomainError(f"encoding shifts must be finite, got a = {fa!r}, b = {fb!r}")
        if fa == fb:
            raise DomainError("encoding shifts must differ (a == b repeats one equation)")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "p_a", p_a)
        _set(self, "p_b", p_b)


def _accept_rows(rows, name: str = "matrix") -> tuple[list, float, float]:
    """The one Hermitian guard on a matrix's entries, and both eigenvalues of what it accepted."""
    matrix_oracle._check_hermitian(rows, matrix_oracle.HERMITIAN_TOL, name)
    return (rows, *matrix_oracle._eigenvalues(rows))


def _accept(h, name: str = "matrix") -> tuple[list, float, float]:
    """_accept_rows for any 2x2 matrix a caller passes."""
    return _accept_rows(matrix_oracle.as_matrix2(h).tolist(), name)


def _admissible_bound(rows, lam_min: float) -> float:
    return max(-lam_min, -0.5 * rows[0][0].real - 0.5 * rows[1][1].real)


def admissible_shift_bound(h) -> float:
    """Greatest lower bound of the admissible shifts for a Hermitian matrix.

    x is admissible when tr(H) + 2x > 0 and lambda_min(H) + x >= 0. The bound
    is attained unless H is a multiple of the identity, where only strictly
    larger shifts keep the normalization positive.
    """
    return _admissible_bound(*_accept(h)[:2])


def conservative_shift_bound(h) -> float:
    """|lambda_min(H)|: every x >= this value is admissible."""
    return abs(_accept(h)[1])


def _default_shifts(lam_min: float, lam_max: float) -> tuple[float, float]:
    sigma = max(abs(lam_min), abs(lam_max)) or 1.0
    bound = abs(lam_min)
    if not bound + 2.0 * sigma < math.inf:
        raise DomainError(f"default shifts overflow for max|lambda| = {sigma!r}; give the shifts")
    return bound + sigma, bound + 2.0 * sigma


def default_shifts(h) -> tuple[float, float]:
    """Admissible pair (|lambda_min| + s, |lambda_min| + 2 s) with s = max|lambda| (1 for H = 0).

    Both scale with H, so the encoding is conditioned alike at every ||H||.
    """
    return _default_shifts(*_accept(h)[1:])


def _normalization(rows, lam_min: float, x: float) -> float:
    """d = tr H + 2x for a validated H with smallest eigenvalue lam_min; rejects an inadmissible x."""
    tr = rows[0][0].real + rows[1][1].real
    denom = tr + 2.0 * x
    if math.isinf(denom) and math.isfinite(x):
        raise DomainError(f"normalization tr H + 2x overflows at x = {x!r}")
    # a NaN shift fails both comparisons, so it is inadmissible too
    if not (denom > DENOM_GUARD * (abs(tr) + 2.0 * abs(x)) and lam_min + x >= -ADMISSIBLE_SLACK * denom):
        raise DomainError(
            f"shift x = {x!r} is inadmissible for this matrix; "
            f"need x >= {_admissible_bound(rows, lam_min)!r} (strictly above for identity multiples)"
        )
    return denom


def _triple(rows, lam_min: float, x: float) -> ProbTriple:
    """The triple of rho(x), read off H: (Re H21/d + 1/2, Im H21/d + 1/2, (H11 + x)/d)."""
    d = _normalization(rows, lam_min, x)
    (h11, _), (h21, _) = rows
    return ProbTriple(h21.real / d + 0.5, h21.imag / d + 0.5, (h11.real + x) / d)


def rho_of_x(h, x: float) -> np.ndarray:
    """(H + x*I) / (tr H + 2x): a unit-trace PSD matrix for admissible x."""
    m = matrix_oracle.as_matrix2(h)
    rows, lam_min, _ = _accept_rows(m.tolist(), "observable")
    x = _as_float(x)
    d = _normalization(rows, lam_min, x)  # first: an admissible d bounds H + x I
    # real and imaginary parts divided apart: numpy's complex / real multiplies by 1/d,
    # which overflows when d is subnormal
    return ((m + x * matrix_oracle._identity()).view(float) / d).view(complex)


def _encode(rows, lam_min: float, lam_max: float, a: float | None,
            b: float | None) -> ObservableProbRep:
    """encode_observable for an accepted H and its eigenvalues."""
    if a is None and b is None:
        a, b = _default_shifts(lam_min, lam_max)
    elif a is None or b is None:
        raise DomainError("provide both shifts or neither")
    a, b = _as_float(a), _as_float(b)
    return ObservableProbRep(a, b, _triple(rows, lam_min, a), _triple(rows, lam_min, b))


def encode_observable(h, a: float | None = None, b: float | None = None) -> ObservableProbRep:
    """Encode a Hermitian matrix as probability triples at two shifts.

    At each shift x, with d = H11 + H22 + 2x, the paper's closed form
    P3(x) = (H11 + x)/d and P1(x) - i P2(x) - conj(GAMMA) = H12/d gives the
    triple of rho(x) without building rho(x). H is validated and its spectrum solved once.
    """
    return _encode(*_accept(h, "observable"), a, b)


def _bloch(p: ProbTriple) -> tuple[float, float, float]:
    """r = 2 (p - c): the Bloch vector of the triple, dimensionless, |r| <= 1 in the ball."""
    return 2.0 * p.p1 - 1.0, 2.0 * p.p2 - 1.0, 2.0 * p.p3 - 1.0


def _carries_no_trace(rep: ObservableProbRep) -> bool:
    """Both triples sit at the ball centre: the encoded H was a multiple of the identity."""
    return max(math.hypot(*_bloch(rep.p_a)), math.hypot(*_bloch(rep.p_b))) <= DENOM_GUARD


def decode_observable(rep: ObservableProbRep, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Recover the Hermitian matrix from its two-triple encoding.

    With H = (T/2) I + (h/2) . sigma, the Bloch vectors r(x) = h / (T + 2x) are parallel, so
    s = r_a . r_b / |r_b|^2 = (T + 2b) / (T + 2a) gives T = 2 (b - a s) / (s - 1),
    and h = (T + 2a) r_a. When both triples sit at the ball centre
    (|r| <= DENOM_GUARD), H was a multiple of the identity: the zero matrix is
    returned under a NonInvertibleEncodingWarning. Vectors not parallel within
    CONSISTENCY_TOL, or an s that makes T + 2a or T + 2b nonpositive, fit no
    admissible Hermitian matrix and raise DomainError.
    """
    return np.array(_decode(rep, tol), dtype=complex)


def _decode(rep: ObservableProbRep, tol: float) -> list:
    """decode_observable's entries, as Python numbers; its warning goes to the caller's caller."""
    qubit_core.require_physical(rep.p_a, tol)
    qubit_core.require_physical(rep.p_b, tol)
    if _carries_no_trace(rep):
        warnings.warn(
            "encoding carries no trace information (the observable was a multiple "
            "of the identity); returning the zero-trace representative",
            NonInvertibleEncodingWarning,
            stacklevel=3,
        )
        return [[0j, 0j], [0j, 0j]]
    a, b = rep.a, rep.b
    (ax, ay, az), (bx, by, bz) = _bloch(rep.p_a), _bloch(rep.p_b)
    bb = bx * bx + by * by + bz * bz
    s = (ax * bx + ay * by + az * bz) / bb if bb else 0.0
    residual = math.hypot(ax - s * bx, ay - s * by, az - s * bz)
    # s > 0 and (s - 1)(b - a) > 0 say T + 2a > 0 and T + 2b > 0
    if not (residual <= CONSISTENCY_TOL and s > 0.0 and (s - 1.0) * (b - a) > 0.0):
        raise DomainError(
            "inconsistent and ill-posed encoding: the Bloch vectors must be parallel, with "
            "ratio (T + 2b)/(T + 2a) of positive normalizations; "
            f"got {s!r}, residual {residual:.3e}"
        )
    trace = 2.0 * (b - a * s) / (s - 1.0)
    half = 0.5 * (trace + 2.0 * a)  # h/2 = half r_a
    h12 = half * complex(ax, -ay)
    return [[0.5 * trace + half * az, h12], [h12.conjugate(), 0.5 * trace - half * az]]


def observable_tomogram(h, direction, x: float) -> tuple[float, float]:
    """Spin tomogram of rho(x): probabilities of projection +1/2 and -1/2 along the direction."""
    return _tomogram(_triple(*_accept(h, "observable")[:2], _as_float(x)), direction)
