"""Hermitian observables as pairs of probability triples.

A Hermitian 2x2 matrix H embeds into density matrices through

    rho(x) = (H + x * I) / (tr H + 2 x)

for admissible shifts x (positive normalization, nonnegative spectrum).
Reading the probability triples of rho(a) and rho(b) at two distinct shifts
encodes H completely, and closed forms recover the matrix from the triples.

Each public function checks that H is Hermitian once, in _accept, which
also solves the spectrum; the private kernels behind it (_rho_of_x,
_default_shifts, _admissible_bound) take the accepted matrix and its
smallest eigenvalue and run no guard of their own. Only the
matrices they build, the rho(x), are checked again, as density matrices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import matrix_oracle, qubit_core
from .errors import DomainError, NonInvertibleEncodingWarning
from .qubit_core import DEFAULT_TOL, ProbTriple
from .tomography_channels import _tomogram

# Absolute guard on denominators before dividing.
DENOM_GUARD = 1e-12
# Two reconstructions of the off-diagonal entry must agree this closely.
CONSISTENCY_TOL = 1e-8
# Slack on the spectrum bound so boundary shifts computed in floating point pass.
ADMISSIBLE_SLACK = 1e-12


@dataclass(frozen=True)
class ObservableProbRep:
    """Observable encoded as shift parameters (a, b) and per-shift triples."""

    a: float
    b: float
    p_a: ProbTriple
    p_b: ProbTriple

    def __post_init__(self):
        if float(self.a) == float(self.b):
            raise DomainError("encoding shifts must differ (a == b repeats one equation)")


def _accept(h, name: str = "matrix") -> tuple[np.ndarray, float]:
    """The one Hermitian guard of a public call, and the smallest eigenvalue of what it accepted."""
    m = matrix_oracle.require_hermitian(h, name=name)
    return m, matrix_oracle._eigenvalues(m)[0]


def _admissible_bound(m: np.ndarray, lam_min: float) -> float:
    return max(-lam_min, -0.5 * float(m[0, 0].real + m[1, 1].real))


def admissible_shift_bound(h) -> float:
    """Greatest lower bound of the admissible shifts for a Hermitian matrix.

    x is admissible when tr(H) + 2x > 0 and lambda_min(H) + x >= 0. The bound
    is attained unless H is a multiple of the identity, where only strictly
    larger shifts keep the normalization positive.
    """
    return _admissible_bound(*_accept(h))


def conservative_shift_bound(h) -> float:
    """|lambda_min(H)|: every x >= this value is admissible."""
    return abs(_accept(h)[1])


def _default_shifts(lam_min: float) -> tuple[float, float]:
    bound = abs(lam_min)
    return bound + 1.0, bound + 2.0


def default_shifts(h) -> tuple[float, float]:
    """Reproducible, well-separated admissible pair (|lambda_min| + 1, |lambda_min| + 2)."""
    return _default_shifts(_accept(h)[1])


def _rho_of_x(m: np.ndarray, lam_min: float, x: float) -> np.ndarray:
    """rho(x) for a validated H with smallest eigenvalue lam_min; rejects an inadmissible x."""
    tr = float(m[0, 0].real + m[1, 1].real)
    denom = tr + 2.0 * x
    if denom <= DENOM_GUARD or lam_min + x < -ADMISSIBLE_SLACK:
        raise DomainError(
            f"shift x = {x!r} is inadmissible for this matrix; "
            f"need x >= {_admissible_bound(m, lam_min)!r} (strictly above for identity multiples)"
        )
    return (m + x * matrix_oracle.IDENTITY) / denom


def rho_of_x(h, x: float) -> np.ndarray:
    """(H + x*I) / (tr H + 2x): a unit-trace PSD matrix for admissible x."""
    return _rho_of_x(*_accept(h, "observable"), float(x))


def encode_observable(h, a: float | None = None, b: float | None = None,
                      tol: float = DEFAULT_TOL) -> ObservableProbRep:
    """Encode a Hermitian matrix as probability triples at two shifts.

    The triples are read directly off rho(a) and rho(b); equivalently
    P3(x) = (H11 + x)/(H11 + H22 + 2x) and
    P1(x) - i P2(x) - conj(GAMMA) = H12/(H11 + H22 + 2x),
    with the same denominator at each shift. H is validated and its spectrum
    solved once; each rho(x) is still checked as a density matrix.
    """
    m, lam_min = _accept(h, "observable")
    if a is None and b is None:
        a, b = _default_shifts(lam_min)
    elif a is None or b is None:
        raise DomainError("provide both shifts or neither")
    p_a = qubit_core.probs_from_density(_rho_of_x(m, lam_min, float(a)), tol)
    p_b = qubit_core.probs_from_density(_rho_of_x(m, lam_min, float(b)), tol)
    return ObservableProbRep(float(a), float(b), p_a, p_b)


def _off_diagonal(p: ProbTriple) -> complex:
    # rho12(x) = p1(x) - i p2(x) - (1 - i)/2
    return complex(p.p1 - 0.5, 0.5 - p.p2)


def decode_observable(rep: ObservableProbRep, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Recover the Hermitian matrix from its two-triple encoding.

    The generic inverse uses the closed forms

        H11  = [a p3(b) (1 - 2 p3(a)) - b p3(a) (1 - 2 p3(b))] / (p3(a) - p3(b))
        tr H = [a - b + 2 (b p3(b) - a p3(a))] / (p3(a) - p3(b))
        H12  = (tr H + 2a) rho12(a)

    When p3(a) = p3(b) (equal diagonal entries force p3 = 1/2 at every shift)
    the trace is recovered from the off-diagonal ratio instead; when the
    off-diagonals also vanish the observable was a multiple of the identity,
    its trace is unrecoverable, and the zero matrix is returned under a
    NonInvertibleEncodingWarning. The two reconstructions of H12 must agree
    within CONSISTENCY_TOL or the representation is rejected as inconsistent.
    """
    qubit_core.require_physical(rep.p_a, tol)
    qubit_core.require_physical(rep.p_b, tol)
    a, b = rep.a, rep.b
    p3a, p3b = rep.p_a.p3, rep.p_b.p3
    r12a, r12b = _off_diagonal(rep.p_a), _off_diagonal(rep.p_b)

    dp3 = p3a - p3b
    if abs(dp3) > DENOM_GUARD:
        h11 = (a * p3b * (1.0 - 2.0 * p3a) - b * p3a * (1.0 - 2.0 * p3b)) / dp3
        trace = (a - b + 2.0 * (b * p3b - a * p3a)) / dp3
    elif abs(r12a - r12b) > DENOM_GUARD:
        # Equal diagonal entries: p3 must sit at 1/2, off-diagonals carry the trace.
        if abs(p3a - 0.5) > CONSISTENCY_TOL or abs(p3b - 0.5) > CONSISTENCY_TOL:
            raise DomainError(
                "ill-posed encoding: equal p3 values away from 1/2 fit no Hermitian matrix"
            )
        ratio = 2.0 * (b * r12b - a * r12a) / (r12a - r12b)
        if abs(ratio.imag) > CONSISTENCY_TOL:
            raise DomainError(
                f"inconsistent encoding: the trace estimate {ratio!r} is not real"
            )
        trace = ratio.real
        h11 = 0.5 * trace
    else:
        warnings.warn(
            "encoding carries no trace information (the observable was a multiple "
            "of the identity); returning the zero-trace representative",
            NonInvertibleEncodingWarning,
            stacklevel=2,
        )
        return np.zeros((2, 2), dtype=complex)

    h12_a = (trace + 2.0 * a) * r12a
    h12_b = (trace + 2.0 * b) * r12b
    if abs(h12_a - h12_b) > CONSISTENCY_TOL:
        raise DomainError(
            "inconsistent encoding: off-diagonal reconstructions disagree "
            f"({h12_a!r} from shift a, {h12_b!r} from shift b)"
        )
    return np.array(
        [[h11, h12_a], [np.conj(h12_a), trace - h11]],
        dtype=complex,
    )


def observable_tomogram(h, direction, x: float, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Spin tomogram of rho(x): probabilities of projection +1/2 and -1/2 along the direction."""
    return _tomogram(qubit_core.probs_from_density(rho_of_x(h, x), tol), direction)
