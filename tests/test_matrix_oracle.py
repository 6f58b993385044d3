"""Reference linear algebra: Pauli identities, eigenvalues, closed-form exponentials."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qprob import DomainError, encode_observable
from qprob.diagnostics import conjugate_by_unitary, expm_hermitian_generator, heisenberg_exact
from qprob.matrix_oracle import (
    _check_hermitian,
    _entries,
    _largest_part,
    _modulus,
    _nan_max,
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    HERMITIAN_TOL,
    as_matrix2,
    eigenvalues_hermitian,
    hermiticity_defect,
    pauli_components,
    require_hermitian,
    UNITARY_TOL,
    require_unitary,
    unitarity_defect,
)

from conftest import random_hermitian, random_unitary

SQRT3 = np.sqrt(3.0)


def test_pauli_algebra():
    for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        np.testing.assert_array_equal(sigma @ sigma, IDENTITY)
    np.testing.assert_array_equal(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)
    np.testing.assert_array_equal(SIGMA_Y @ SIGMA_Z, 1j * SIGMA_X)
    np.testing.assert_array_equal(SIGMA_Z @ SIGMA_X, 1j * SIGMA_Y)


def test_as_matrix2_rejects_other_shapes():
    with pytest.raises(DomainError):
        as_matrix2(np.eye(3))
    with pytest.raises(DomainError):
        as_matrix2([1.0, 2.0])


# malformed matrices, each with the problem its DomainError names
MALFORMED = [
    ([[1, 2], [3]], "inhomogeneous shape"),
    ([[1, "a"], [3, 4]], "malformed string"),
    ([[10**400, 0], [0, 1]], "int too large to convert to float"),
]


@pytest.mark.parametrize("matrix, problem", MALFORMED, ids=["ragged", "string", "huge-int"])
def test_malformed_matrices_raise_domain_error(matrix, problem):
    for read in (as_matrix2, _entries, encode_observable):
        with pytest.raises(DomainError, match=f"^expected a 2x2 matrix of numbers: .*{problem}"):
            read(matrix)


def _read(read, matrix):
    """read(matrix)'s entries as (type, bytes) pairs, or the type and message of what it raised."""
    try:
        rows = read(matrix)
    except Exception as exc:  # the property compares whatever either reader raises
        return type(exc), str(exc)
    return [[(type(z), struct.pack("<dd", z.real, z.imag)) for z in row] for row in rows]


number = st.one_of(
    st.integers(),
    st.integers(min_value=2 ** 1020, max_value=2 ** 1030),
    st.booleans(),
    st.floats(),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]),
    st.complex_numbers(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.complex_numbers().map(np.complex128),
)
not_a_number = st.one_of(st.none(), st.text(max_size=3), st.sampled_from(["1", "-0", "1+2j", "1e400"]),
                         st.lists(number, max_size=2), number.map(lambda v: np.array([v], dtype=object)))
# rows that unpack to two numbers but are not lists or tuples
not_a_row = st.one_of(st.lists(st.integers(), min_size=2, max_size=2, unique=True).map(dict.fromkeys),
                      st.text(min_size=2, max_size=2))


def _nested(entry, sizes, odd_rows=st.nothing()):
    row = st.lists(entry, min_size=sizes[0], max_size=sizes[1])
    rows = st.lists(st.one_of(row, row.map(tuple), odd_rows), min_size=sizes[0], max_size=sizes[1])
    return st.one_of(rows, rows.map(tuple))


@settings(max_examples=500, deadline=None)
@given(matrix=st.one_of(_nested(number, (2, 2)), _nested(st.one_of(number, not_a_number), (1, 3), not_a_row)))
def test_entries_read_as_as_matrix2_does(matrix):
    assert _read(_entries, matrix) == _read(lambda m: as_matrix2(m).tolist(), matrix)


def test_hermiticity_defect_and_guard():
    assert hermiticity_defect(SIGMA_Y) == 0.0
    tilted = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert hermiticity_defect(tilted) == 1.0
    with pytest.raises(DomainError, match="not Hermitian"):
        require_hermitian(tilted)
    # defect below tolerance passes through unchanged
    nearly = SIGMA_X + np.array([[0.0, 1e-14], [0.0, 0.0]])
    np.testing.assert_array_equal(require_hermitian(nearly, tol=1e-12), nearly)


def test_hermitian_guard_scales_with_the_entries():
    # the bound is 1e-12 of the largest entry past 1, and 1e-12 itself up to there
    big = 1e6 * SIGMA_X + np.array([[0.0, 5e-7], [0.0, 0.0]])
    np.testing.assert_array_equal(require_hermitian(big), big)
    with pytest.raises(DomainError, match=r"defect 5\.000e-06 exceeds 1\.0e-06"):
        require_hermitian(1e6 * SIGMA_X + np.array([[0.0, 5e-6], [0.0, 0.0]]))
    with pytest.raises(DomainError, match=r"defect 2\.000e-12 exceeds 1\.0e-12"):
        require_hermitian(SIGMA_X + np.array([[0.0, 2e-12], [0.0, 0.0]]))


def test_hermitian_guard_rejects_an_infinite_entry_at_any_scale():
    # inf <= tol * inf would pass a naively scaled bound
    with pytest.raises(DomainError, match=r"defect inf exceeds 1\.0e-12"):
        require_hermitian(np.array([[1.0, np.inf], [1.0, 1.0]]))


def reference_require_hermitian(matrix, tol: float = HERMITIAN_TOL, name: str = "matrix") -> np.ndarray:
    """require_hermitian as it was before it read its matrix through _hermitian_rows, verbatim."""
    m = as_matrix2(matrix)
    _check_hermitian(m.tolist(), tol, name)
    return m


def _guarded(guard, matrix, tol):
    """guard's array as its dtype, shape and bytes, or the type and message of what it raised."""
    try:
        m = guard(matrix, tol, "observable")
    except Exception as exc:  # the property compares whatever either guard raises
        return type(exc), str(exc)
    return m.dtype, m.shape, m.tobytes()


def near_hermitian(scales):
    """Hermitian matrices at the given scales, off by nothing, by about the guard's bound or by far more."""
    return st.builds(
        lambda d1, d2, z, push, scale: [[d1 * scale, z * scale], [z.conjugate() * scale + push, d2 * scale]],
        st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.complex_numbers(max_magnitude=2.0),
        st.one_of(st.sampled_from((0.0, 1e-13, 5e-12, 1e-3)), st.complex_numbers(max_magnitude=1e-11)),
        st.sampled_from(scales),
    )


doubles_near_hermitian = near_hermitian((1e-9, 1.0, 1e6, 1e300))


@settings(max_examples=500, deadline=None)
@given(matrix=st.one_of(doubles_near_hermitian, doubles_near_hermitian.map(np.array),
                        doubles_near_hermitian.map(np.asfortranarray),
                        near_hermitian((1e-9, 1.0, 1e6)).map(lambda m: np.array(m, dtype=np.complex64)),
                        _nested(number, (2, 2)), _nested(st.one_of(number, not_a_number), (1, 3), not_a_row)),
       tol=st.sampled_from((HERMITIAN_TOL, 0.0, 1e-3, math.nan)))
@example(matrix=[[1, 2 ** 1030], [2 ** 1030, 1]], tol=HERMITIAN_TOL)
@example(matrix=np.array([[1.0, np.inf], [1.0, 1.0]]), tol=HERMITIAN_TOL)
def test_require_hermitian_is_the_reference_form(matrix, tol):
    assert _guarded(require_hermitian, matrix, tol) == _guarded(reference_require_hermitian, matrix, tol)


def test_pauli_components_do_not_overflow():
    h0, hvec = pauli_components([[1.7e308, 0.0], [0.0, -1.7e308]])
    assert h0 == 0.0
    np.testing.assert_array_equal(hvec, [0.0, 0.0, 1.7e308])


def test_unitarity_defect_names_entries_too_large_to_square():
    with pytest.raises(DomainError, match=r"not unitary \(entries up to 1\.000e\+200"):
        unitarity_defect(1e200 * IDENTITY)
    assert unitarity_defect(1e100 * IDENTITY) == 1e200


def test_unitarity_guard():
    assert unitarity_defect(SIGMA_Y) == 0.0
    with pytest.raises(DomainError, match="not unitary"):
        require_unitary(2.0 * IDENTITY)
    phase = np.diag([np.exp(0.3j), np.exp(-1.1j)])
    np.testing.assert_array_equal(require_unitary(phase), phase)


def matmul_defect(m: np.ndarray) -> float:
    """The matrix route to the unitarity defect: max |(m m^dagger - I)_ij|."""
    return float(np.max(np.abs(m @ m.conj().T - np.eye(2))))


def test_unitarity_defect_from_entries_matches_the_matmul(rng):
    # near-unitaries whose defects straddle UNITARY_TOL, at every scale from 1e-17 to 1e-8
    for _ in range(20_000):
        u = random_unitary(rng) * (1.0 + 10.0 ** rng.uniform(-17.0, -8.0) * rng.normal(size=(2, 2)))
        reference = matmul_defect(u)
        defect = unitarity_defect(u)
        assert abs(defect - reference) <= 4.5e-16
        assert (defect <= UNITARY_TOL) == (reference <= UNITARY_TOL)
        assert unitarity_defect(u.tolist()) == defect


@pytest.mark.parametrize("m", [
    1e100 * np.eye(2), 2.0 ** 510 * np.eye(2), 2.0 ** 510 * SIGMA_Y, [[0.0, 1.0], [1.0, 0.0]],
    [[2.0 ** -600, 0.0], [0.0, 1.0]], [[0.5, 0.5j], [0.5j, 0.5]],
], ids=["1e100-I", "2^510-I", "2^510-Y", "X", "tiny", "half"])
def test_unitarity_defect_keeps_its_large_entry_values(m):
    assert unitarity_defect(m) == matmul_defect(np.asarray(m, dtype=complex))


@pytest.mark.parametrize("bad, size", [
    (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "inf"), (2.0 ** 510 * (1.0 + 2.0 ** -52), "3.352e+153"),
    (2.0 ** 511, "6.704e+153"),
])
def test_unitarity_defect_names_entries_it_cannot_square(bad, size):
    for position in ((0, 0), (0, 1), (1, 0), (1, 1)):
        m = np.eye(2, dtype=complex)
        m[position] = bad
        message = f"is not unitary (entries up to {size}; a unitary's are at most 1)"
        with pytest.raises(DomainError, match=f"^{re.escape('matrix ' + message)}$"):
            unitarity_defect(m)
        with pytest.raises(DomainError, match=f"^{re.escape('matrix ' + message)}$"):
            unitarity_defect(m.tolist())
        with pytest.raises(DomainError, match=f"^{re.escape('gate ' + message)}$"):
            require_unitary(m, name="gate")


def test_guards_reject_non_finite_entries():
    # a NaN defect (inf - inf is NaN too) must not slip past the tolerance comparison
    for bad in (np.nan, np.inf, -np.inf):
        for position in ((0, 0), (0, 1), (1, 0), (1, 1)):
            m = np.array([[0.0, 0.0], [0.0, -1.0]], dtype=complex)
            m[position] = bad
            with np.errstate(invalid="ignore"):
                elementwise = np.max(np.abs(m - m.conj().T))
                with pytest.raises(DomainError, match="not unitary"):
                    require_unitary(m)
            defect = hermiticity_defect(m)
            assert not np.isfinite(defect), (bad, position)
            np.testing.assert_equal(defect, elementwise)
            with pytest.raises(DomainError, match=f"not Hermitian \\(defect {elementwise:.3e}"):
                require_hermitian(m)


def reference_unitarity_defect(rows, name: str = "matrix") -> float:
    """_unitarity_defect as it was with its size scan first, verbatim."""
    size = _largest_part(rows)
    if not size <= 2.0 ** 510:  # past this m m^dagger can overflow; NaN fails too
        raise DomainError(f"{name} is not unitary (entries up to {size:.3e}; a unitary's are at most 1)")
    (a, b), (c, d) = rows
    return _nan_max((_modulus(a * a.conjugate() + b * b.conjugate() - 1.0),
                     _modulus(a * c.conjugate() + b * d.conjugate()),
                     _modulus(c * c.conjugate() + d * d.conjugate() - 1.0)))


def defect_outcome(defect, rows):
    """defect(rows)'s bits, or its exception's type and message."""
    try:
        return defect([list(row) for row in rows]).hex()
    except Exception as exc:
        return type(exc), str(exc)


def near_unitary(theta: float, alpha: float, beta: float, phase: float, scale: float) -> list:
    """scale times the unitary e^(i phase) [[cos t e^(i a), -sin t e^(-i b)], [sin t e^(i b), cos t e^(-i a)]]."""
    c, s = scale * math.cos(theta), scale * math.sin(theta)
    e = complex(math.cos(phase), math.sin(phase))
    return [[e * c * complex(math.cos(alpha), math.sin(alpha)), -e * s * complex(math.cos(beta), -math.sin(beta))],
            [e * s * complex(math.cos(beta), math.sin(beta)), e * c * complex(math.cos(alpha), -math.sin(alpha))]]


# real and imaginary parts: any float up to 1e307, each binade as likely, NaN, the infinities, and the
# size scan's threshold 2^510 with its neighbours
parts = st.one_of(
    st.floats(-1e307, 1e307),
    st.builds(lambda sign, log: sign * 10.0 ** log, st.sampled_from((-1.0, 1.0)), st.floats(-320.0, 307.0)),
    st.sampled_from((0.0, -0.0, 1.0, math.nan, math.inf, -math.inf, 2.0 ** 510, 2.0 ** 511,
                     math.nextafter(2.0 ** 510, math.inf))),
)
entries = st.builds(complex, parts, parts)
angles = st.floats(0.0, 2.0 * math.pi)
unitary_rows = st.one_of(
    st.tuples(st.tuples(entries, entries), st.tuples(entries, entries)),
    # near-unitaries: a defect of at most 1, which skips the size scan
    st.builds(near_unitary, angles, angles, angles, angles, st.floats(-17.0, 0.0).map(lambda log: 1.0 + 10.0 ** log)),
)


@settings(max_examples=2000, deadline=None)
@given(rows=unitary_rows)
@example(rows=[[2.0 ** 510, 0j], [0j, 1 + 0j]])
@example(rows=[[2.0 ** 511, 0j], [0j, 1 + 0j]])
@example(rows=[[0j, 2.0 ** 510 * 1j], [1 + 0j, 0j]])
@example(rows=[[complex(math.nan, 0.0), 0j], [0j, 1 + 0j]])
@example(rows=[[1 + 0j, 0j], [complex(0.0, math.nan), 1 + 0j]])
@example(rows=[[1 + 0j, 0j], [0j, complex(math.inf, 0.0)]])
@example(rows=[[1 + 0j, complex(-math.inf, 0.0)], [0j, 1 + 0j]])
@example(rows=[[2 + 0j, 0j], [0j, 1 + 0j]])
@example(rows=[[1.5 + 0j, 0j], [0j, 1 + 0j]])
@example(rows=near_unitary(0.9272952180016122, 0.0, math.pi / 2, 0.0, 1.0 + 1e-13))
@example(rows=[[complex(1e200, 1e200), 0j], [0j, 1 + 0j]])  # |a|^2 overflows the complex product: inf + NaN j
def test_unitarity_defect_is_the_reference_form(rows):
    # the size scan runs only on a defect above 1, and every value and message is as with the scan first
    assert defect_outcome(unitarity_defect, rows) == defect_outcome(reference_unitarity_defect, rows)


@pytest.mark.parametrize("m, defect", [
    ([[2, 0], [0, 1]], 3.0),
    ([[1.5, 0], [0, 1]], 1.25),
    ((1.0 + 1e-13) * np.array([[0.6, 0.8j], [0.8j, 0.6]]), 1.9984014443252818e-13),
], ids=["diag(2,1)", "diag(1.5,1)", "scaled-unitary"])
def test_unitarity_guard_names_a_defect_of_small_entries(m, defect):
    # entries the size scan passes: a defect above 1 is named as a defect, not as a size
    assert unitarity_defect(m) == defect
    if defect <= UNITARY_TOL:
        np.testing.assert_array_equal(require_unitary(m), np.asarray(m, dtype=complex))
    else:
        message = f"matrix is not unitary (defect {defect:.3e} exceeds 1.0e-12)"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            require_unitary(m)


def test_pauli_components_reconstruct():
    h = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 0.0]])
    h0, hvec = pauli_components(h)
    assert h0 == 1.0
    np.testing.assert_array_equal(hvec, [1.0, 1.0, 1.0])
    rebuilt = h0 * IDENTITY + hvec[0] * SIGMA_X + hvec[1] * SIGMA_Y + hvec[2] * SIGMA_Z
    np.testing.assert_array_equal(rebuilt, h)


def test_eigenvalues_frozen_example():
    h = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 0.0]])
    lo, hi = eigenvalues_hermitian(h)
    assert abs(lo - (1.0 - SQRT3)) < 1e-15
    assert abs(hi - (1.0 + SQRT3)) < 1e-15


def test_eigenvalues_match_numpy(rng):
    for _ in range(200):
        h = random_hermitian(rng)
        lo, hi = eigenvalues_hermitian(h)
        expected = np.linalg.eigvalsh(h)
        assert abs(lo - expected[0]) < 1e-12
        assert abs(hi - expected[1]) < 1e-12


entry = st.tuples(st.floats(-1.0, 1.0), st.integers(-300, 300))


@settings(max_examples=300, deadline=None)
@given(d1=entry, d2=entry, re=entry, im=entry)
# t [[0, 1], [1, 1]]: det underflowed to 0 at t = 1e-200 and overflowed to -inf at t = 1e160
@example(d1=(0.0, 0), d2=(1.0, -200), re=(1.0, -200), im=(0.0, 0))
@example(d1=(0.0, 0), d2=(1.0, 160), re=(1.0, 160), im=(0.0, 0))
def test_eigenvalues_hold_over_the_float_range(d1, d2, re, im):
    # each entry mantissa * 10^exponent; no RuntimeWarning (pytest makes it an error)
    v11, v22, vre, vim = (m * 10.0 ** e for m, e in (d1, d2, re, im))
    h = np.array([[v11, vre - 1j * vim], [vre + 1j * vim, v22]])
    expected = np.linalg.eigvalsh(h)
    got = eigenvalues_hermitian(h)
    assert np.max(np.abs(np.array(got) - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_eigenvalues_small_root_precision():
    # the tiny root must come from det / big, not from the cancelling branch
    h = np.array([[1.0, 1e-7], [1e-7, 0.0]])
    lo, hi = eigenvalues_hermitian(h)
    assert abs(lo - (-1e-14)) < 1e-20
    assert abs(hi - (1.0 + 1e-14)) < 1e-15
    # a nearly degenerate pair keeps its gap: tr^2 - 4 det would cancel to 0
    assert eigenvalues_hermitian(np.diag([1.0, 1.0 + 1e-8])) == (1.0, 1.0 + 1e-8)


def test_conjugation_preserves_spectrum(rng):
    for _ in range(50):
        h = random_hermitian(rng)
        u = random_unitary(rng)
        moved = conjugate_by_unitary(h, u)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(moved), np.linalg.eigvalsh(h), rtol=0, atol=1e-12
        )
    with pytest.raises(DomainError):
        conjugate_by_unitary(SIGMA_X, 2.0 * IDENTITY)


def test_expm_diagonal_frozen():
    t = 0.7
    u = expm_hermitian_generator(SIGMA_Z, t)
    expected = np.diag([np.exp(1j * t), np.exp(-1j * t)])
    np.testing.assert_allclose(u, expected, rtol=0, atol=1e-15)


def test_expm_matches_power_series(rng):
    for _ in range(50):
        h = random_hermitian(rng, scale=2.0)
        t = float(rng.uniform(-2.0, 2.0))
        series = np.zeros((2, 2), dtype=complex)
        term = np.eye(2, dtype=complex)
        for k in range(1, 40):
            series += term
            term = term @ (1j * t * h) / k
        u = expm_hermitian_generator(h, t)
        np.testing.assert_allclose(u, series, rtol=0, atol=1e-12)
        assert unitarity_defect(u) < 1e-12


def test_expm_identity_generator_is_phase():
    u = expm_hermitian_generator(IDENTITY, 0.5)
    np.testing.assert_allclose(u, np.exp(0.5j) * IDENTITY, rtol=0, atol=1e-15)


def test_expm_rejects_a_non_finite_angle():
    # |h| = 1e308 is finite, |h| t = 1e309 is not; h0 t overflows the same way
    with pytest.raises(DomainError, match=r"finite \|h\| t and h0 t \(\|h\| = 1\.000e\+308, h0 = 0\.000e\+00"):
        expm_hermitian_generator(np.diag([1e308, -1e308]), 10.0)
    with pytest.raises(DomainError, match=r"h0 = 1\.000e\+308, t = 10\.0\)"):
        heisenberg_exact(SIGMA_X, 1e308 * IDENTITY, 10.0)
    for t in (np.nan, np.inf):
        with pytest.raises(DomainError, match="finite"):
            heisenberg_exact(SIGMA_X, SIGMA_Z, t)


def test_expm_reads_t_as_a_real_number():
    # an integer past the float range is infinite, so the angle is, and None is not a number
    with pytest.raises(DomainError, match=r"^exp\(iHt\) needs finite \|h\| t and h0 t \(.*, t = inf\)$"):
        expm_hermitian_generator([[1, 0], [0, -1]], 10 ** 400)
    with pytest.raises(DomainError, match="^expected a real number, got None$"):
        heisenberg_exact(SIGMA_Z, SIGMA_X, None)


def test_expm_norm_does_not_overflow_near_the_float_maximum():
    # |h|^2 overflows past about 1.3e154; the exponential stays unitary and exact up to 1.7e308
    u = expm_hermitian_generator(np.diag([1.7e308, -1.7e308]), 1.0)
    assert unitarity_defect(u) < 1e-15
    np.testing.assert_array_equal(u, np.diag([np.exp(1.7e308j), np.exp(-1.7e308j)]))
    a = heisenberg_exact(SIGMA_Z, np.diag([1e200, -1e200]), 2e-200)
    np.testing.assert_allclose(a, heisenberg_exact(SIGMA_Z, SIGMA_Z, 2.0), rtol=0, atol=1e-15)


def test_heisenberg_frozen_quarter_turn():
    # exp(i sigma_z t) sigma_x exp(-i sigma_z t) at t = pi/4 lands on -sigma_y
    a = heisenberg_exact(SIGMA_X, SIGMA_Z, np.pi / 4.0)
    np.testing.assert_allclose(a, -SIGMA_Y, rtol=0, atol=1e-15)


def test_heisenberg_derivative_is_commutator(rng):
    dt = 1e-6
    for _ in range(20):
        a0 = random_hermitian(rng)
        h = random_hermitian(rng)
        ahead = heisenberg_exact(a0, h, dt)
        behind = heisenberg_exact(a0, h, -dt)
        derivative = (ahead - behind) / (2.0 * dt)
        commutator = 1j * (h @ a0 - a0 @ h)
        np.testing.assert_allclose(derivative, commutator, rtol=0, atol=1e-4)


def test_heisenberg_requires_hermitian_observable():
    with pytest.raises(DomainError, match="observable"):
        heisenberg_exact(np.array([[0.0, 1.0], [0.0, 0.0]]), SIGMA_Z, 1.0)
