"""Error bounds of the kernels whose small results cancel, against mpmath at 256 bits.

Each bound is stated against the exact value of the float inputs: in ulps,
over inputs from 1e-9 to 1e9, near-degenerate and near-singular spectra and
near-pure states, or absolute where the result is a rotation entry:

- eigenvalues_hermitian: the smaller-magnitude eigenvalue within 4 ulp, the
  larger within 2.5 ulp, also for entries from 1e-300 to 1e300 whose
  off-diagonal moves neither eigenvalue by half an ulp (checked at 5000 bits,
  enough to resolve that range);
- qprob check's density_eigenvalues: lambda_min within 3 ulp of the
  smaller eigenvalue of the triple's density matrix and lambda_max within
  2.5 ulp of the larger, also for triples typed as short decimals, whose
  p_k - 1/2 rounds;
- rotation_from_unitary: every entry R_ij of the adjoint rotation within
  1.7e-16 and every C_i within 5e-16, over random unitaries and the gates of
  the benchmark's gate library. Each R_ij is one math.fsum of rounded
  products whose magnitudes sum to at most 1, so it is off by at most
  2^-53 + 2^-54;
- check_ball and the tomogram's w+: within 0.5 ulp, that is, correctly
  rounded, also with coordinates down to 1e-9, where p_k - 1/2 rounds;
- encode_observable at its default shifts: p1 and p2 within 2 ulp and p3
  within 4 ulp. The default shifts put every coordinate in [1/4, 3/4] and
  make |tr H| <= d, so d = tr H + 2x, rounded twice, is within 2u of exact
  (u = 2^-53). H21/d adds one rounding, so it is within 3u relative, that is,
  3u/4 absolute; the + 1/2 adds half an ulp of the result, and on
  [1/4, 1/2), where an ulp is u/2, the sum is 2 ulp. p3 = (H11 + x)/d has
  one rounding more, in its numerator: 4u relative, which on [1/4, 1/2) is
  4 ulp;
- decode_observable of an encoding at the default shifts: every entry within
  1.1e-14 max|H_ij| of the exact decode of its float triples. The shifts
  make sigma = b - a the largest |lambda|, a <= 2 sigma and |tr H| <= 2 sigma,
  and put D = s - 1 = 2 sigma / (tr H + 2a) in [1/3, 1]. r = 2p - 1 is exact
  (Sterbenz), s = r_a . r_b / |r_b|^2 is within 7u relative (3u for each
  sum of three products of parallel vectors, u for the quotient), and
  s - 1 is exact. tr = 2 (b - a s) / (s - 1), whose derivative in s is
  -2 sigma / D^2, is then within 14 sigma s u / D^2 + 2 a s u / D + 2 |tr| u,
  at most 188 sigma u, at D = 1/3. half = (tr + 2a) / 2 adds (tr + 2a) u / 2,
  and each entry one or two roundings more. Maximized over every spectrum
  and axis, this first-order bound is 95u max|H_ij|, at H = sigma I; the
  stated 1.1e-14 is 99u;
- evolve: every component of a row within 1.5 ulp(theta) + 19 ulp(1/2) of
  the exact rotation of p0's floats by the float omega through the float t,
  where theta = fl(|omega| t) is the angle evolve computes; so within 19
  units of ulp(theta) + ulp(1/2). math.hypot is within 1 ulp and the product
  adds one rounding, so theta is within 3u |theta| < 3 ulp(theta) of exact,
  and a row moves with the angle by at most sqrt(k1_i^2 + k2_i^2) <= 1/2:
  1.5 ulp(theta). At that angle the rest is absolute, with |p - c| <= 1/2.
  The unit axis is within 3u per component; p - 1/2 is exact or within u/4;
  k1 = (p - c) x axis, rounded twice per component, is within 2.93u as a
  vector (1.5u from the axis, 0.43u from p - 1/2, u from rounding) and
  k2 = k1 x axis within 5.43u. With libm's sin within 1 ulp, s = sin(theta)
  is within 2u|s| and h = 2 sin^2(theta/2) within 5u h, and a row
  p + s k1 + h k2 adds four roundings. Maximized over theta, with
  k1_i^2 + k2_i^2 <= 1/4, the total is 18.9u.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qprob import (
    Direction,
    NonInvertibleEncodingWarning,
    ProbTriple,
    build_kinetic,
    check_ball,
    decode_observable,
    eigenvalues_hermitian,
    encode_observable,
    evolve,
    rotation_from_unitary,
    state_tomogram,
)
from qprob.cli import _triple_report
from qprob.matrix_oracle import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z
from qprob.qubit_core import DEFAULT_TOL

PREC = 256
WIDE_PREC = 5000
SMALL_EIGENVALUE_ULPS = 4.0
LARGE_EIGENVALUE_ULPS = 2.5
CHECK_LAMBDA_MIN_ULPS = 3.0
ROTATION_ENTRY_ERROR = 1.7e-16
ROTATION_OFFSET_ERROR = 5e-16
CORRECTLY_ROUNDED_ULPS = 0.5
ENCODE_OFF_DIAGONAL_ULPS = 2.0
ENCODE_DIAGONAL_ULPS = 4.0
DECODE_ENTRY_ERROR = 1.1e-14
EVOLVE_ANGLE_ULPS = 1.5
EVOLVE_ROW_ULPS = 19.0


def ulps(value: float, exact) -> float:
    """|value - exact| in units of the last place of exact rounded to a float."""
    return float(abs(mpmath.mpf(value) - exact)) / math.ulp(float(exact))


def exact_eigenvalues(h11: float, h22: float, c: complex, prec: int = PREC):
    """Both eigenvalues of [[h11, conj(c)], [c, h22]], smaller magnitude first, at prec bits."""
    with mpmath.workprec(prec):
        a, d, re, im = map(mpmath.mpf, (h11, h22, c.real, c.imag))
        half = (a + d) / 2
        root = mpmath.sqrt(((a - d) / 2) ** 2 + re * re + im * im)
        big = half + root if half >= 0 else half - root
        # the determinant of doubles is exact at prec bits, so the small root is too
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


def assert_eigenvalues_within_bounds(h11: float, h22: float, c: complex, prec: int = PREC):
    got = eigenvalues_hermitian([[h11, c.conjugate()], [c, h22]])
    small, big = exact_eigenvalues(h11, h22, c, prec)
    got_small, got_big = got if abs(got[0]) <= abs(got[1]) else got[::-1]
    assert ulps(got_small, small) <= SMALL_EIGENVALUE_ULPS, (h11, h22, c)
    assert ulps(got_big, big) <= LARGE_EIGENVALUE_ULPS, (h11, h22, c)


def test_eigenvalues_keep_their_relative_accuracy(rng):
    for n in range(4000):
        assert_eigenvalues_within_bounds(*random_hermitian_entries(rng, n % 3))


@pytest.mark.parametrize("h, expected", [
    ([[1e300, 1e-200], [1e-200, 1e-10]], (1e-10, 1e300)),
    ([[1e300, 1e-300], [1e-300, 3e-300]], (3e-300, 1e300)),
    # the off-diagonal's square underflows, but it moves both eigenvalues far off the diagonal
    ([[1e-300, 1e-170], [1e-170, 1e-300]], (-1e-170, 1e-170)),
], ids=["1e300-1e-10", "1e300-3e-300", "tiny-diagonal"])
def test_wide_range_eigenvalues_are_correctly_rounded(h, expected):
    (h11, _), (c, h22) = h
    exact = sorted(exact_eigenvalues(h11, h22, complex(c), WIDE_PREC))
    assert [float(x) for x in exact] == list(expected)
    assert eigenvalues_hermitian(h) == expected


def test_wide_range_eigenvalues_keep_their_relative_accuracy(rng):
    # an off-diagonal below the size that moves an eigenvalue by half an ulp of its diagonal entry
    for _ in range(500):
        h11, h22 = (float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)) for _ in range(2))
        threshold = math.sqrt(0.5 * abs(h11 - h22)) * math.sqrt(math.ulp(min(abs(h11), abs(h22))))
        c = threshold * 10.0 ** rng.uniform(-20.0, -0.5) * complex(*rng.normal(size=2)) / math.sqrt(2.0)
        assert_eigenvalues_within_bounds(h11, h22, c, WIDE_PREC)


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


def _gate(pauli, angle: float) -> np.ndarray:
    return math.cos(angle / 2) * IDENTITY - 1j * math.sin(angle / 2) * pauli


# the gate library of the benchmark's gates workload, built as it builds it
GATES = (
    SIGMA_X, SIGMA_Y, SIGMA_Z, (SIGMA_X + SIGMA_Z) / math.sqrt(2.0),
    np.diag([1.0, 1.0j]), np.diag([1.0, np.exp(0.25j * math.pi)]),
    _gate(SIGMA_X, math.pi / 3), _gate(SIGMA_Y, math.pi / 4), _gate(SIGMA_Z, 2 * math.pi / 5),
)


def exact_rotation(u) -> tuple[list, list]:
    """R_ij = Re Tr(sigma_i u sigma_j u^dagger) / 2 and C_i = 1/2 - sum_j R_ij / 2 of the float entries of u, at PREC bits."""
    def product(x, y):
        return [[x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)] for i in range(2)]

    with mpmath.workprec(PREC):
        m = [[mpmath.mpc(z.real, z.imag) for z in row] for row in np.asarray(u, dtype=complex).tolist()]
        dagger = [[mpmath.conj(m[j][i]) for j in range(2)] for i in range(2)]
        paulis = [[[mpmath.mpc(z.real, z.imag) for z in row] for row in s.tolist()] for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
        frames = [product(product(m, s), dagger) for s in paulis]
        R = [[mpmath.re(sum(s[a][b] * f[b][a] for a in range(2) for b in range(2))) / 2 for f in frames] for s in paulis]
        return R, [mpmath.mpf(0.5) - sum(row) / 2 for row in R]


def random_unitaries(rng, n: int):
    """QR of a complex Gaussian matrix, times a random global phase."""
    for _ in range(n):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        yield np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) * q


def test_rotation_entries_are_within_their_bound(rng):
    worst_R = worst_C = 0.0
    for u in (*GATES, *random_unitaries(rng, 2000)):
        mapping = rotation_from_unitary(u)
        R, C = exact_rotation(u)
        for got, exact in zip((*mapping.linear[0], *mapping.linear[1], *mapping.linear[2]), (*R[0], *R[1], *R[2])):
            worst_R = max(worst_R, float(abs(mpmath.mpf(got) - exact)))
        for got, exact in zip(mapping.offset, C):
            worst_C = max(worst_C, float(abs(mpmath.mpf(got) - exact)))
    assert worst_R <= ROTATION_ENTRY_ERROR and worst_C <= ROTATION_OFFSET_ERROR, (worst_R, worst_C)


def small_coordinate_triple(rng) -> ProbTriple:
    """A physical triple with one coordinate from 1e-9 to 1/4, where p - 1/2 rounds, and the others inside the ball."""
    small = float(10.0 ** rng.uniform(-9.0, math.log10(0.25)))
    room = math.sqrt(max(0.0, 0.25 - (small - 0.5) ** 2)) * rng.uniform(0.0, 0.999)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    p = [small, 0.5 + room * math.cos(angle), 0.5 + room * math.sin(angle)]
    rng.shuffle(p)
    return ProbTriple(*p)


def exact_offsets(p: ProbTriple) -> list:
    return [mpmath.mpf(v) - mpmath.mpf(0.5) for v in (p.p1, p.p2, p.p3)]


def test_check_ball_is_correctly_rounded(rng):
    for n in range(3000):
        p = (small_coordinate_triple(rng), near_pure_triple(rng, n), ProbTriple(*rng.uniform(-1.0, 2.0, 3)))[n % 3]
        with mpmath.workprec(PREC):
            exact = mpmath.mpf(0.25) - sum(d * d for d in exact_offsets(p))
        assert ulps(check_ball(p), exact) <= CORRECTLY_ROUNDED_ULPS, p


def tomogram_inputs(rng, count: int):
    """(triple, unit vector) pairs: triples with a small coordinate or near the pure-state sphere."""
    for n in range(count):
        p = small_coordinate_triple(rng) if n % 2 else near_pure_triple(rng, n)
        theta, phi = float(np.arccos(rng.uniform(-1.0, 1.0))), rng.uniform(0.0, 2.0 * math.pi)
        yield p, Direction(theta, phi).unit_vector().tolist()


def test_tomogram_is_correctly_rounded(rng):
    # along x, w+ of (p1, 1/2, 1/2) is p1 itself, also where p1 - 1/2 rounds
    pinned = [(ProbTriple(p1, 0.5, 0.5), [1.0, 0.0, 0.0]) for p1 in (1e-6, 0.1, 1e-9)]
    for p, n_vec in (*pinned, *tomogram_inputs(rng, 3000)):
        w_plus, w_minus = state_tomogram(p, n_vec, tol=1e-9)
        with mpmath.workprec(PREC):
            exact = mpmath.mpf(0.5) + sum(d * mpmath.mpf(m) for d, m in zip(exact_offsets(p), n_vec))
        assert ulps(w_plus, exact) <= CORRECTLY_ROUNDED_ULPS, (p, n_vec)
        assert w_minus == 1.0 - w_plus


def encoded_matrices(rng, count: int):
    """(h11, h22, h21) at a norm from 1e-9 to 1e9: random_hermitian_entries' three kinds, and traceless."""
    for n in range(count):
        if n % 4 == 3:  # traceless, so the triple at a reaches out to |p - c| = 1/4
            v = rng.normal(size=3)
            v *= 10.0 ** rng.uniform(-9.0, 9.0) / np.linalg.norm(v)
            yield float(v[2]), float(-v[2]), complex(float(v[0]), float(v[1]))
        else:
            yield random_hermitian_entries(rng, n % 4)


def test_encode_triples_are_within_their_bound(rng):
    for h11, h22, c in encoded_matrices(rng, 2000):
        rep = encode_observable([[h11, c.conjugate()], [c, h22]])
        for x, p in ((rep.a, rep.p_a), (rep.b, rep.p_b)):
            with mpmath.workprec(PREC):
                d = mpmath.mpf(h11) + mpmath.mpf(h22) + 2 * mpmath.mpf(x)
                exact = (c.real / d + 0.5, c.imag / d + 0.5, (mpmath.mpf(h11) + x) / d)
            assert all(0.25 <= e <= 0.75 for e in exact), (h11, h22, c)
            bounds = (ENCODE_OFF_DIAGONAL_ULPS, ENCODE_OFF_DIAGONAL_ULPS, ENCODE_DIAGONAL_ULPS)
            for got, e, bound in zip((p.p1, p.p2, p.p3), exact, bounds):
                assert ulps(got, e) <= bound, (h11, h22, c, x)


def exact_decode(rep) -> list:
    """decode_observable's H11, H21 and H22 of rep's float triples and shifts, at PREC bits."""
    with mpmath.workprec(PREC):
        r_a, r_b = ([2 * mpmath.mpf(x) - 1 for x in (p.p1, p.p2, p.p3)] for p in (rep.p_a, rep.p_b))
        a, b = mpmath.mpf(rep.a), mpmath.mpf(rep.b)
        s = sum(x * y for x, y in zip(r_a, r_b)) / sum(y * y for y in r_b)
        trace = 2 * (b - a * s) / (s - 1)
        half = (trace + 2 * a) / 2
        return [trace / 2 + half * r_a[2], half * mpmath.mpc(r_a[0], r_a[1]), trace / 2 - half * r_a[2]]


def test_decode_is_within_its_bound(rng):
    # near multiples of the identity, from random_hermitian_entries' kind 1, come closest to the bound
    decoded = 0
    for h11, h22, c in encoded_matrices(rng, 2000):
        rep = encode_observable([[h11, c.conjugate()], [c, h22]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonInvertibleEncodingWarning)
            try:
                got = decode_observable(rep)
            except NonInvertibleEncodingWarning:  # both triples at the centre: the zero matrix, by design
                continue
        exact = exact_decode(rep)
        with mpmath.workprec(PREC):
            size = max(abs(e) for e in exact)
            error = max(abs(mpmath.mpc(g.real, g.imag) - e) for g, e in zip((got[0, 0], got[1, 0], got[1, 1]), exact))
        assert error <= DECODE_ENTRY_ERROR * size, (h11, h22, c)
        decoded += 1
    assert decoded > 1900


def exact_evolve(omega, p: ProbTriple, t: float) -> list:
    """p turned about the ball center by the float omega through the float t, at PREC bits."""
    with mpmath.workprec(PREC):
        w = [mpmath.mpf(x) for x in omega]
        norm = mpmath.sqrt(sum(x * x for x in w))
        p = [mpmath.mpf(x) for x in (p.p1, p.p2, p.p3)]
        if norm == 0:
            return p
        u = [x / norm for x in w]
        v = [x - mpmath.mpf(0.5) for x in p]
        k1 = [v[1] * u[2] - v[2] * u[1], v[2] * u[0] - v[0] * u[2], v[0] * u[1] - v[1] * u[0]]
        k2 = [k1[1] * u[2] - k1[2] * u[1], k1[2] * u[0] - k1[0] * u[2], k1[0] * u[1] - k1[1] * u[0]]
        angle = norm * mpmath.mpf(t)
        s, h = mpmath.sin(angle), 1 - mpmath.cos(angle)
        return [p[i] + s * k1[i] + h * k2[i] for i in range(3)]


unit = st.floats(-1.0, 1.0)


@settings(max_examples=400, deadline=None)
@given(
    entries=st.tuples(unit, unit, unit, unit),
    log_norm=st.floats(-9.0, 9.0),
    bloch=st.tuples(unit, unit, unit),
    on_sphere=st.booleans(),
    sign=st.sampled_from([-1.0, 1.0]),
    log_t=st.floats(-9.0, 1.0),
)
# a half turn, where h = 2 sin^2(theta/2) is largest, of a pure state
@example(entries=(1.0, -1.0, 0.0, 0.0), log_norm=0.0, bloch=(1.0, 0.0, 0.0), on_sphere=True, sign=1.0,
         log_t=math.log10(math.pi / 2))
# the largest angle, about 2e10 rad
@example(entries=(0.3, -0.7, 0.6, -0.5), log_norm=9.0, bloch=(0.2, -0.9, 0.3), on_sphere=True, sign=-1.0,
         log_t=1.0)
def test_evolve_rows_are_within_their_bound(entries, log_norm, bloch, on_sphere, sign, log_t):
    d1, d2, re, im = (10.0 ** log_norm * e for e in entries)
    system = build_kinetic([[d1, complex(re, -im)], [complex(re, im), d2]], 0.0)
    v = np.array(bloch)
    length = float(np.linalg.norm(v))
    if length and (on_sphere or length > 1.0):
        v /= length
    p0 = ProbTriple.from_array(0.5 + 0.5 * v)
    t = sign * 10.0 ** log_t
    row = evolve(system, p0, t)
    angle = math.hypot(*system.omega) * abs(t)
    bound = EVOLVE_ANGLE_ULPS * math.ulp(angle) + EVOLVE_ROW_ULPS * math.ulp(0.5)
    with mpmath.workprec(PREC):
        for got, exact in zip((row.p1, row.p2, row.p3), exact_evolve(system.omega, p0, t)):
            assert abs(got - exact) <= bound, (system.omega, p0, t)
