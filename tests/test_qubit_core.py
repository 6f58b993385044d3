"""Probability-triple coordinates: ball geometry and the density-matrix bijection."""

import math
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qprob import DomainError, ProbTriple, check_ball, density_from_probs, is_physical, probs_from_density
from qprob.qubit_core import BALL_CENTER, GAMMA, _as_float, _floats, _sum_of_products, require_physical
from qprob.qubit_core import DEFAULT_TOL, _violation

from conftest import random_physical_triple


def test_gamma_constant():
    assert GAMMA == 0.5 + 0.5j
    np.testing.assert_array_equal(BALL_CENTER, [0.5, 0.5, 0.5])


def test_check_ball_frozen_values():
    assert check_ball(ProbTriple(0.5, 0.5, 0.5)) == 0.25
    assert check_ball(ProbTriple(1.0, 0.5, 0.5)) == 0.0
    assert check_ball(ProbTriple(1.0, 1.0, 1.0)) == -0.5


def test_is_physical_boundary_and_tolerance():
    assert is_physical(ProbTriple(1.0, 0.5, 0.5))
    assert not is_physical(ProbTriple(0.9, 0.9, 0.9))
    assert not is_physical(ProbTriple(1.2, 0.5, 0.5))
    # just outside the sphere but inside the default slack
    assert is_physical(ProbTriple(0.5, 0.5, 1.0 + 9e-12))
    assert not is_physical(ProbTriple(0.5, 0.5, 1.0 + 9e-12), tol=1e-13)


def test_require_physical_names_the_violation():
    with pytest.raises(DomainError, match="p1"):
        require_physical(ProbTriple(2.0, 0.5, 0.5))
    with pytest.raises(DomainError, match="ball residual"):
        require_physical(ProbTriple(0.9, 0.9, 0.9))


def test_the_cube_test_names_the_first_coordinate_outside():
    # one chained comparison passes the common case; a failure names the first coordinate outside
    assert _violation(ProbTriple(1.5, 0.5, -0.5), DEFAULT_TOL) == "p1 = 1.5 violates 0 <= p1 <= 1"
    assert _violation(ProbTriple(1.5, 0.5, -0.5), DEFAULT_TOL, ball=False) == "p1 = 1.5 violates 0 <= p1 <= 1"
    assert _violation(ProbTriple(0.5, -0.5, 2.0), DEFAULT_TOL) == "p2 = -0.5 violates 0 <= p2 <= 1"
    assert _violation(ProbTriple(0.5, 0.5, math.nan), DEFAULT_TOL) == "p3 = nan violates 0 <= p3 <= 1"
    assert _violation(ProbTriple(0.5, 0.5, 1.0 + 1e-11), DEFAULT_TOL, ball=False) is None
    assert _violation(ProbTriple(0.5, 0.5, 1.0 + 1e-9), DEFAULT_TOL) == "p3 = 1.000000001 violates 0 <= p3 <= 1"
    with pytest.raises(DomainError, match=r"^p1 = 1\.5 violates 0 <= p1 <= 1$"):
        require_physical(ProbTriple(1.5, 0.5, -0.5))


def test_density_frozen_examples():
    np.testing.assert_array_equal(
        density_from_probs(ProbTriple(0.5, 0.5, 1.0)),
        np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    )
    np.testing.assert_array_equal(
        density_from_probs(ProbTriple(1.0, 0.5, 0.5)),
        np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    )
    np.testing.assert_array_equal(
        density_from_probs(ProbTriple(0.5, 1.0, 0.5)),
        np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex),
    )
    np.testing.assert_array_equal(
        density_from_probs(ProbTriple(0.5, 0.5, 0.5)),
        0.5 * np.eye(2, dtype=complex),
    )


def test_density_rejects_unphysical():
    with pytest.raises(DomainError):
        density_from_probs(ProbTriple(0.9, 0.9, 0.9))


def test_round_trip_is_exact(rng):
    for _ in range(300):
        p = random_physical_triple(rng)
        back = probs_from_density(density_from_probs(p))
        assert back == p  # entry extraction undoes entry placement bit for bit


def test_ball_residual_equals_determinant(rng):
    for _ in range(300):
        p = random_physical_triple(rng)
        det = np.linalg.det(density_from_probs(p))
        assert abs(det.imag) < 1e-15
        assert abs(det.real - check_ball(p)) < 1e-15


def test_probs_from_density_validation():
    with pytest.raises(DomainError, match="Hermitian"):
        probs_from_density(np.array([[0.5, 0.2], [0.4, 0.5]]))
    with pytest.raises(DomainError, match="unit trace"):
        probs_from_density(np.array([[0.7, 0.0], [0.0, 0.5]]))
    with pytest.raises(DomainError, match="indefinite"):
        probs_from_density(np.array([[1.5, 0.0], [0.0, -0.5]]))


def test_pure_states_sit_on_the_sphere(rng):
    for _ in range(100):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        p = probs_from_density(rho)
        assert abs(check_ball(p)) < 1e-15


def test_from_array_shape_check():
    with pytest.raises(DomainError):
        ProbTriple.from_array([0.5, 0.5])
    p = ProbTriple.from_array(np.array([0.1, 0.2, 0.3]))
    assert (p.p1, p.p2, p.p3) == (0.1, 0.2, 0.3)


def reference_floats(values, shape: tuple, what: str) -> tuple:
    """The numpy route: np.asarray, its errors as DomainError, its shape checked, then tolist() read through _as_float."""
    try:
        array = np.asarray(values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{what}: {exc}") from None
    if array.shape != shape:
        raise DomainError(f"{what}, got shape {array.shape}")
    if len(shape) == 1:
        return tuple(_as_float(v) for v in array.tolist())
    return tuple(tuple(_as_float(v) for v in row) for row in array.tolist())


def outcome(read, values, shape: tuple):
    """What read(values, shape, ...) gives: its nesting, the floats' types and bytes, or the error's type and message."""
    try:
        floats = read(values, shape, "a value needs that shape")
    except Exception as exc:
        return type(exc), str(exc)
    rows = (floats,) if len(shape) == 1 else floats
    flat = [v for row in rows for v in row]
    nesting = [type(floats), *((type(row), len(row)) for row in rows)]
    return nesting, list(map(type, flat)), struct.pack(f"<{len(flat)}d", *flat)


huge_ints = st.builds(lambda sign, digits: sign * 10 ** digits, st.sampled_from((-1, 1)), st.integers(15, 400))
python_numbers = st.one_of(
    st.floats(), st.sampled_from((0.0, -0.0)), st.integers(), huge_ints,
    st.integers(2 ** 52, 2 ** 65).map(lambda k: k * (-1) ** k), st.booleans(),
)
numpy_scalars = st.one_of(
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.booleans().map(np.bool_),
)
numbers = st.one_of(python_numbers, numpy_scalars)
vectors = st.one_of(
    st.lists(python_numbers, min_size=3, max_size=3),
    st.tuples(python_numbers, python_numbers, python_numbers),
    st.lists(numbers, min_size=0, max_size=5),
    st.lists(numbers, min_size=0, max_size=5).map(tuple),
    st.lists(st.floats(), min_size=0, max_size=4).map(np.array),
    st.lists(st.lists(st.floats(), min_size=1, max_size=1), min_size=3, max_size=3),
    numbers,
)
# three rows of two or three numbers, as lists or tuples, and rows of other lengths (ragged ones included)
matrices = st.one_of(
    st.sampled_from((2, 3)).flatmap(lambda n: st.lists(st.lists(python_numbers, min_size=n, max_size=n),
                                                      min_size=3, max_size=3)),
    st.sampled_from((2, 3)).flatmap(lambda n: st.lists(st.lists(python_numbers, min_size=n, max_size=n).map(tuple),
                                                      min_size=3, max_size=3).map(tuple)),
    st.lists(st.lists(numbers, min_size=0, max_size=4), min_size=0, max_size=4),
    st.lists(st.one_of(vectors, numbers), min_size=3, max_size=3),
    st.sampled_from((2, 3)).flatmap(lambda n: st.lists(st.floats(width=32), min_size=3 * n, max_size=3 * n).map(
        lambda xs: np.array(xs, dtype=np.float32).reshape(3, n))),
)


@settings(max_examples=1500, deadline=None)
@given(shape=st.sampled_from(((3,), (3, 3), (3, 2))), values=st.one_of(vectors, matrices))
@example(shape=(3,), values=[0, -0.0, 1])
@example(shape=(3,), values=(10 ** 400, 0.5, -10 ** 400))
@example(shape=(3,), values=[True, 0.5, False])
@example(shape=(3,), values=[2 ** 53 + 1, 0.5, 2 ** 64 - 1])
@example(shape=(3,), values=[np.float64(-0.0), 0.5, 1])
@example(shape=(3,), values=[np.float32(0.1), 0.5, 0.5])
@example(shape=(3,), values=np.array([0.25, 0.5, 1.0]))
@example(shape=(3,), values=[[0.5], [0.5], [0.5]])
@example(shape=(3,), values=[0.5, 0.5])
@example(shape=(3,), values=0.5)
@example(shape=(3,), values=[0.5, [0.5, 0.5], 0.5])  # ragged
@example(shape=(3, 2), values=[[0, 0], [1, 0], 5])  # ragged
@example(shape=(3, 3), values=[[1, 0], [0, 1], [0, 0]])
@example(shape=(3, 3), values=[[1, 0, 0], [0, 1], [0, 0, 1]])  # ragged
@example(shape=(3, 2), values=np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], dtype=np.float32))
@example(shape=(3, 3), values=np.eye(3, dtype=np.float32))
@example(shape=(3, 2), values=[[True, False], [False, True], [True, True]])
@example(shape=(3, 3), values=[[True, 0.5, False], (1, 2, 3), [0.0, 1, False]])
@example(shape=(3, 2), values=np.ones((3, 2), dtype=bool))
@example(shape=(3, 2), values=[[10 ** 400, 0], [0, -10 ** 400], [1, 2]])
@example(shape=(3, 3), values=[[10 ** 400, 0.5, 1], [2 ** 64 - 1, 0, 0], (-10 ** 400, 1.0, -0.0)])
@example(shape=(3, 2), values=[[np.float32(0.1), 0.5], [0.5, 0.5], [0.5, 0.5]])
@example(shape=(3,), values=["0.5", np.float32(0.1), 0.5])  # numpy reads a list with a string as strings
def test_floats_reads_what_numpy_reads(shape, values):
    expected = outcome(reference_floats, values, shape)
    assert outcome(_floats, values, shape) == expected
    try:
        numpy_shape = np.shape(values)
    except ValueError:  # ragged
        numpy_shape = None
    assert (expected[0] is DomainError) == (numpy_shape != shape)


# an offset d = p - 1/2 with |d| from 1e-9 to 1e9; p = 1/2 + d then gives back d exactly as p - 1/2
offsets = st.builds(lambda sign, log: sign * 10.0 ** log, st.sampled_from((-1.0, 1.0)), st.floats(-9.0, 9.0))


@settings(max_examples=300, deadline=None)
@given(d=st.tuples(offsets, offsets, offsets))
@example(d=(math.inf, 0.0, 0.0))
@example(d=(-math.inf, 0.25, 0.0))
@example(d=(math.nan, 0.0, 0.0))
@example(d=(1e154, 0.0, 0.0))
@example(d=(1e154, -1e154, 1e154))
@example(d=(1e200, 0.0, 0.0))
@example(d=(5e-324, -2.5e-320, 1e-310))
def test_check_ball_is_correctly_rounded(d):
    p = ProbTriple(*(0.5 + x for x in d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = check_ball(p)
    d1, d2, d3 = (v - 0.5 for v in (p.p1, p.p2, p.p3))
    plain = 0.25 - (d1 * d1 + d2 * d2 + d3 * d3)
    if math.isfinite(plain):
        exact = Fraction(1, 4) - sum((Fraction(v) - Fraction(1, 2)) ** 2 for v in (p.p1, p.p2, p.p3))
        assert value == float(exact)
    else:  # past the float range: the plain formula's infinity or NaN
        assert value == plain or (math.isnan(value) and math.isnan(plain))


# any float up to 1e150, so p - 1/2 can round (below 1/4 and above 1); the typed decimals 0.1 and 0.8 among them
components = st.floats(-1e150, 1e150) | st.floats(-0.5, 1.5) | st.sampled_from((0.1, 0.8, 5e-324, 0.2499999999999999))


@settings(max_examples=300, deadline=None)
@given(p=st.tuples(components, components, components))
@example(p=(0.1, 0.5, 0.8))
@example(p=(0.046, 0.68, 0.6071634265969503))  # near pure: the residual, 2.06e-17, needs the e^2 term
def test_check_ball_is_correctly_rounded_where_p_minus_a_half_rounds(p):
    exact = Fraction(1, 4) - sum((Fraction(v) - Fraction(1, 2)) ** 2 for v in p)
    assert check_ball(ProbTriple(*p)).hex() == float(exact).hex()


# factors near 2^-530, so every product, and so a product of their halves, lies near or below 2^-1022
near_underflow = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-560, -500))


@settings(max_examples=300, deadline=None)
@given(c=st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, -1000)),
       pairs=st.lists(st.tuples(near_underflow, near_underflow), min_size=1, max_size=3))
@example(c=0.0, pairs=[(-5e-324 / 0.4, 0.2155)])  # rounds to -0.0, as the exact value's sign asks
def test_sum_of_products_is_correctly_rounded_near_underflow(c, pairs):
    exact = Fraction(c) + sum(Fraction(x) * Fraction(y) for x, y in pairs)
    value = _sum_of_products([c], pairs)
    assert value == float(exact) and math.copysign(1.0, value) == math.copysign(1.0, float(exact))


# any finite float: the zeros, the subnormals and every binade up to the float max
finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(terms=st.lists(finite, max_size=4), pairs=st.lists(st.tuples(finite, finite), max_size=4))
@example(terms=[-1e308], pairs=[(1.5e307, 10.0)])  # the split of 1.5e307 overflows
@example(terms=[-1.7e308], pairs=[(1.3407807929942596e154, 1.3407807929942596e154)])  # so does x_hi * y_hi
@example(terms=[1.7e308, 1.7e308, -1.7e308], pairs=[])  # fsum overflows on the way to a finite sum
@example(terms=[1e308], pairs=[(1e308, 1e308), (-1e308, 1e308)])
@example(terms=[-0.0], pairs=[(-0.0, 1.0)])  # an exact zero is +0.0
@example(terms=[0.0], pairs=[(-5e-324, 0.5)])  # a negative sum that rounds to zero is -0.0
@example(terms=[1e308], pairs=[(1e308, 2.0)])  # past the float range: the plain sum's inf
def test_sum_of_products_is_correctly_rounded(terms, pairs):
    exact = sum(map(Fraction, terms)) + sum(Fraction(x) * Fraction(y) for x, y in pairs)
    value = _sum_of_products(list(terms), pairs)
    try:
        expected = float(exact)
    except OverflowError:  # past the float range: the plain left-to-right sum
        expected = 0.0
        for t in terms:
            expected += t
        for x, y in pairs:
            expected += x * y
    assert value.hex() == expected.hex()

