"""Error bounds of the kernels whose small results cancel, against mpmath at 256 bits.

Each bound is stated in ulps of the exact value, over inputs from 1e-9 to 1e9,
near-degenerate and near-singular spectra and near-pure states:

- eigenvalues_hermitian: the smaller-magnitude eigenvalue within 4 ulp, the
  larger within 2.5 ulp;
- qprob check's density_eigenvalues: lambda_min within 3 ulp of the
  smaller eigenvalue of the triple's density matrix and lambda_max within
  2.5 ulp of the larger, also for triples typed as short decimals, whose
  p_k - 1/2 rounds.
"""

import math

import mpmath
import numpy as np
import pytest

from qprob import ProbTriple, eigenvalues_hermitian
from qprob.cli import _triple_report
from qprob.qubit_core import DEFAULT_TOL

PREC = 256
SMALL_EIGENVALUE_ULPS = 4.0
LARGE_EIGENVALUE_ULPS = 2.5
CHECK_LAMBDA_MIN_ULPS = 3.0


def ulps(value: float, exact) -> float:
    """|value - exact| in units of the last place of exact rounded to a float."""
    return float(abs(mpmath.mpf(value) - exact)) / math.ulp(float(exact))


def exact_eigenvalues(h11: float, h22: float, c: complex):
    """Both eigenvalues of [[h11, conj(c)], [c, h22]], smaller magnitude first, at PREC bits."""
    with mpmath.workprec(PREC):
        a, d, re, im = map(mpmath.mpf, (h11, h22, c.real, c.imag))
        half = (a + d) / 2
        root = mpmath.sqrt(((a - d) / 2) ** 2 + re * re + im * im)
        big = half + root if half >= 0 else half - root
        # the determinant of doubles is exact at PREC bits, so the small root is too
        return (a * d - (re * re + im * im)) / big, big


def random_hermitian_entries(rng, kind: int) -> tuple[float, float, complex]:
    """(h11, h22, h21) at a norm from 1e-9 to 1e9: random, near-degenerate diagonal, or near-singular."""
    s = 10.0 ** rng.uniform(-9.0, 9.0)
    if kind == 0:
        h11, h22, re, im = s * rng.uniform(-1.0, 1.0, 4)
    elif kind == 1:
        h11 = s * rng.uniform(-1.0, 1.0)
        h22 = h11 * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16.0, -1.0))
        re, im = s * 10.0 ** rng.uniform(-16.0, 0.0, 2) * rng.uniform(-1.0, 1.0, 2)
    else:  # rank one plus a little, so det cancels
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        m = s * np.outer(v, v.conj()) + s * 10.0 ** rng.uniform(-16.0, -1.0) * np.diag(rng.uniform(-1.0, 1.0, 2))
        h11, h22, re, im = m[0, 0].real, m[1, 1].real, m[1, 0].real, m[1, 0].imag
    return float(h11), float(h22), complex(float(re), float(im))


def test_eigenvalues_keep_their_relative_accuracy(rng):
    for n in range(4000):
        h11, h22, c = random_hermitian_entries(rng, n % 3)
        got = eigenvalues_hermitian([[h11, c.conjugate()], [c, h22]])
        small, big = exact_eigenvalues(h11, h22, c)
        got_small, got_big = got if abs(got[0]) <= abs(got[1]) else got[::-1]
        assert ulps(got_small, small) <= SMALL_EIGENVALUE_ULPS, (h11, h22, c)
        assert ulps(got_big, big) <= LARGE_EIGENVALUE_ULPS, (h11, h22, c)


@pytest.mark.parametrize("h, expected", [
    ([[3.0, 0.0], [0.0, 3.0]], (3.0, 3.0)),
    ([[-2e-300, 0.0], [0.0, -2e-300]], (-2e-300, -2e-300)),
    ([[1e300, 0.0], [0.0, 1e300]], (1e300, 1e300)),
    ([[-1.0, 0.0], [0.0, 0.0]], (-1.0, 0.0)),
    ([[0.0, 0.0], [0.0, -1.0]], (-1.0, 0.0)),
    ([[-1.0, 1.0], [1.0, -1.0]], (-2.0, 0.0)),
    ([[1.0, 1.0], [1.0, 1.0]], (0.0, 2.0)),
    # the diagonal is the spectrum, however far apart: no scaling pushes the smaller into the subnormals
    ([[1e300, 0.0], [0.0, 1e-10]], (1e-10, 1e300)),
    ([[1e300, 0.0], [0.0, 3e-300]], (3e-300, 1e300)),
    ([[-0.0, 0.0], [0.0, -1.0]], (-1.0, 0.0)),
], ids=["3I", "tiny-I", "huge-I", "diag(-1,0)", "diag(0,-1)", "singular-negative", "singular-positive",
        "diag(1e300,1e-10)", "diag(1e300,3e-300)", "diag(-0,-1)"])
def test_degenerate_and_singular_spectra_are_exact(h, expected):
    # an exact zero eigenvalue is +0.0, whatever the sign of the other
    got = eigenvalues_hermitian(h)
    assert got == expected
    assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in expected]


def near_pure_triple(rng, n: int) -> ProbTriple:
    """A triple near the pure-state sphere; every other one typed as a short decimal, off the grid where p - 1/2 is exact."""
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    radius = 1.0 - 10.0 ** rng.uniform(-16.0, -1.0 if n % 4 < 2 else 0.0)
    p = (0.5 + 0.5 * radius * v).tolist()
    if n % 2:
        digits = int(rng.integers(12, 17))
        p = [float(f"{x:.{digits}g}") for x in p]
    return ProbTriple(*p)


def check_lambda_min_ulps(p: ProbTriple) -> float | None:
    """How far qprob check's lambda_min is from exact, in ulp; None where p is not physical."""
    report = _triple_report(p, DEFAULT_TOL)
    if "density_eigenvalues" not in report:  # rounding put p outside the ball by more than tol
        return None
    with mpmath.workprec(PREC):
        det = mpmath.mpf(0.25) - sum((mpmath.mpf(x) - 0.5) ** 2 for x in (p.p1, p.p2, p.p3))
        big = 0.5 + mpmath.sqrt(0.25 - det)
        small = det / big
    lam_min, lam_max = report["density_eigenvalues"]
    assert ulps(lam_max, big) <= LARGE_EIGENVALUE_ULPS, p
    return ulps(lam_min, small)


def test_check_lambda_min_keeps_its_relative_accuracy(rng):
    # near-pure states, where the density's det cancels
    checked = 0
    for n in range(4000):
        p = near_pure_triple(rng, n)
        error = check_lambda_min_ulps(p)
        if error is not None:
            assert error <= CHECK_LAMBDA_MIN_ULPS, p
            checked += 1
    assert checked > 3900


@pytest.mark.parametrize("p", [(0.1, 0.5, 0.8), (0.2, 0.1, 0.5), (0.5, 0.9, 0.2)])
def test_check_lambda_min_of_typed_pure_states(p):
    # each p_k - 1/2 below 1/4 rounds, by as much as the exact det of the typed floats
    assert check_lambda_min_ulps(ProbTriple(*p)) <= CHECK_LAMBDA_MIN_ULPS
