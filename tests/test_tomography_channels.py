"""Tomograms, frame unitaries, and the affine action of rotations and channels."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qprob import (
    AffineMap3,
    ChannelSpec,
    Direction,
    DomainError,
    FormulaMismatchWarning,
    ProbTriple,
    channel_map,
    check_ball,
    density_from_probs,
    euler_unitary,
    expm_hermitian_generator,
    is_physical,
    probs_from_density,
    rotation_formula_checks,
    rotation_from_unitary,
    state_tomogram,
)
from qprob.diagnostics import failed_checks
from qprob.matrix_oracle import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, unitarity_defect
from qprob.qubit_core import BALL_CENTER
from qprob.tomography_channels import ROTATION_CACHE_SIZE, ROTATION_FORMULA_TOL, _adjoint_rotation, _rotation_map

from conftest import random_direction, random_physical_triple, random_unitary

SQRT2 = np.sqrt(2.0)


def axis_rotation(pauli: np.ndarray, angle: float) -> np.ndarray:
    return math.cos(angle / 2) * IDENTITY - 1j * math.sin(angle / 2) * pauli


GATE_LIBRARY = (
    IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, (SIGMA_X + SIGMA_Z) / SQRT2,
    np.diag([1.0, 1.0j]), np.diag([1.0, np.exp(0.25j * np.pi)]),
    axis_rotation(SIGMA_X, np.pi / 3), axis_rotation(SIGMA_Y, np.pi / 4), axis_rotation(SIGMA_Z, 2 * np.pi / 5),
)


def channel_image_oracle(spec: ChannelSpec, p: ProbTriple) -> ProbTriple:
    """Matrix-route image: probabilities of sum_s w_s u_s rho u_s^dagger."""
    rho = density_from_probs(p)
    out = np.zeros((2, 2), dtype=complex)
    for weight, u in spec.terms:
        out += weight * (u @ rho @ u.conj().T)
    return probs_from_density(out)


def test_direction_range_validation():
    Direction(np.pi, 0.0)
    Direction(0.0, 2.0 * np.pi - 1e-9, 1.0)
    with pytest.raises(DomainError, match="theta"):
        Direction(-0.1, 0.0)
    with pytest.raises(DomainError, match="theta"):
        Direction(np.pi + 0.1, 0.0)
    with pytest.raises(DomainError, match="phi"):
        Direction(1.0, 2.0 * np.pi)
    with pytest.raises(DomainError, match="psi"):
        Direction(1.0, 0.0, -0.5)


def test_direction_reads_its_angles_as_floats():
    # np.sin of a bool or a float16 angle computed in float16
    for theta, phi in ((True, 0.0), (np.float16(1.0), np.float32(0.5))):
        direction = Direction(theta, phi)
        assert type(direction.theta) is float and type(direction.phi) is float
        assert direction.unit_vector().tobytes() == Direction(float(theta), float(phi)).unit_vector().tobytes()


def test_unit_vector_frozen():
    np.testing.assert_allclose(Direction(0.0, 0.0).unit_vector(), [0, 0, 1], rtol=0, atol=1e-16)
    np.testing.assert_allclose(
        Direction(np.pi / 2, 0.0).unit_vector(), [1, 0, 0], rtol=0, atol=1e-16
    )
    np.testing.assert_allclose(
        Direction(np.pi / 2, np.pi / 2).unit_vector(), [0, 1, 0], rtol=0, atol=1e-16
    )


def test_euler_unitary_frozen_examples():
    np.testing.assert_allclose(euler_unitary(Direction(0.0, 0.0)), IDENTITY, rtol=0, atol=1e-16)
    np.testing.assert_allclose(
        euler_unitary(Direction(np.pi, 0.0)),
        np.array([[0.0, 1.0], [-1.0, 0.0]]),
        rtol=0,
        atol=1e-15,
    )
    np.testing.assert_allclose(
        euler_unitary(Direction(np.pi / 2, 0.0)),
        np.array([[1.0, 1.0], [-1.0, 1.0]]) / SQRT2,
        rtol=0,
        atol=1e-15,
    )


def test_euler_unitary_is_special_unitary(rng):
    for _ in range(100):
        u = euler_unitary(random_direction(rng, psi=True))
        assert unitarity_defect(u) < 1e-14
        assert abs(np.linalg.det(u) - 1.0) < 1e-14


def test_state_tomogram_frozen():
    assert state_tomogram(ProbTriple(0.5, 0.5, 1.0), Direction(0.0, 0.0)) == (1.0, 0.0)
    assert state_tomogram(ProbTriple(0.5, 0.5, 0.5), Direction(1.1, 2.2)) == (0.5, 0.5)
    w_plus, w_minus = state_tomogram(ProbTriple(1.0, 0.5, 0.5), Direction(0.0, 0.0))
    assert abs(w_plus - 0.5) < 1e-15 and w_plus + w_minus == 1.0


def test_state_tomogram_accepts_raw_unit_vector():
    w_plus, _ = state_tomogram(ProbTriple(1.0, 0.5, 0.5), np.array([1.0, 0.0, 0.0]))
    assert w_plus == 1.0
    with pytest.raises(DomainError, match="unit length"):
        state_tomogram(ProbTriple(1.0, 0.5, 0.5), np.array([1.0, 1.0, 0.0]))
    with pytest.raises(DomainError):
        state_tomogram(ProbTriple(1.0, 0.5, 0.5), np.array([1.0, 0.0]))


# physical offsets d = p - 1/2, |d| from 1e-9 to 0.5/sqrt(3), so any three keep p in the ball
ball_offsets = st.builds(lambda sign, log: sign * 10.0 ** log, st.sampled_from((-1.0, 1.0)),
                         st.floats(-9.0, math.log10(0.5 / math.sqrt(3.0))))


@settings(max_examples=300, deadline=None)
@given(d=st.tuples(ball_offsets, ball_offsets, ball_offsets),
       theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True))
@example(d=(5e-324, -2.5e-320, 1e-310), theta=1.0, phi=2.0)
@example(d=(0.25, -0.25, 1e-9), theta=5e-324, phi=0.0)
@example(d=(0.25, -0.25, 1e-9), theta=math.pi / 2, phi=1e-310)
def test_state_tomogram_is_correctly_rounded(d, theta, phi):
    p = ProbTriple(*(0.5 + x for x in d))
    n = Direction(theta, phi).unit_vector().tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w_plus, w_minus = state_tomogram(p, n)
    exact = Fraction(1, 2) + sum((Fraction(v) - Fraction(1, 2)) * Fraction(m) for v, m in zip((p.p1, p.p2, p.p3), n))
    assert w_plus == float(exact)
    assert w_minus == 1.0 - w_plus
    assert state_tomogram(p, Direction(theta, phi)) == (w_plus, w_minus)


def test_state_tomogram_rejects_unphysical():
    with pytest.raises(DomainError):
        state_tomogram(ProbTriple(0.9, 0.9, 0.9), Direction(0.0, 0.0))


def test_tomogram_matches_rotated_density_diagonal(rng):
    for _ in range(100):
        p = random_physical_triple(rng)
        d = random_direction(rng, psi=True)
        u = euler_unitary(d)
        rotated = u @ density_from_probs(p) @ u.conj().T
        w_plus, w_minus = state_tomogram(p, d)
        assert abs(w_plus - rotated[0, 0].real) < 1e-12
        assert abs(w_minus - rotated[1, 1].real) < 1e-12
        assert w_plus + w_minus == 1.0


def test_tomogram_independent_of_psi(rng):
    for _ in range(50):
        p = random_physical_triple(rng)
        d = random_direction(rng)
        psi = float(rng.uniform(0.0, 2.0 * np.pi))
        reframed = Direction(d.theta, d.phi, psi)
        assert state_tomogram(p, d) == state_tomogram(p, reframed)
        u = euler_unitary(reframed)
        rotated = u @ density_from_probs(p) @ u.conj().T
        assert abs(state_tomogram(p, d)[0] - rotated[0, 0].real) < 1e-12


def test_affine_composition_order(rng):
    first = rotation_from_unitary(random_unitary(rng))
    second = rotation_from_unitary(random_unitary(rng))
    chained = first.then(second)
    for _ in range(20):
        p = random_physical_triple(rng)
        direct = second.apply(first.apply(p))
        np.testing.assert_allclose(
            chained.apply(p).as_array(), direct.as_array(), rtol=0, atol=1e-14
        )


def test_rotation_identity_map():
    mapping = rotation_from_unitary(IDENTITY)
    np.testing.assert_allclose(mapping.L, np.eye(3), rtol=0, atol=1e-15)
    np.testing.assert_allclose(mapping.C, np.zeros(3), rtol=0, atol=1e-15)


def test_rotation_half_turn_frozen():
    mapping = rotation_from_unitary(euler_unitary(Direction(np.pi, 0.0)))
    np.testing.assert_allclose(mapping.L, np.diag([-1.0, 1.0, -1.0]), rtol=0, atol=1e-15)
    np.testing.assert_allclose(mapping.C, [1.0, 0.0, 1.0], rtol=0, atol=1e-15)


def test_rotation_quarter_turn_frozen():
    mapping = rotation_from_unitary(euler_unitary(Direction(np.pi / 2, 0.0)))
    expected_L = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    np.testing.assert_allclose(mapping.L, expected_L, rtol=0, atol=1e-15)
    np.testing.assert_allclose(mapping.C, [1.0, 0.0, 0.0], rtol=0, atol=1e-15)


def test_rotation_parts_orthogonal(rng):
    for _ in range(200):
        mapping = rotation_from_unitary(random_unitary(rng))
        np.testing.assert_allclose(mapping.L.T @ mapping.L, np.eye(3), rtol=0, atol=1e-10)
        assert abs(np.linalg.det(mapping.L) - 1.0) < 1e-10
        np.testing.assert_allclose(
            mapping.C, (np.eye(3) - mapping.L) @ BALL_CENTER, rtol=0, atol=1e-12
        )


def test_rotation_matches_matrix_route(rng):
    for _ in range(50):
        u = random_unitary(rng)
        mapping = rotation_from_unitary(u)
        for _ in range(5):
            p = random_physical_triple(rng)
            expected = probs_from_density(u @ density_from_probs(p) @ u.conj().T)
            np.testing.assert_allclose(
                mapping.apply(p).as_array(), expected.as_array(), rtol=0, atol=1e-12
            )


def test_rotation_component_formulas_match_probe_construction(rng):
    for _ in range(100):
        checks = rotation_formula_checks(random_unitary(rng))
        assert len(checks) == 12
        assert failed_checks(checks) == []


@settings(max_examples=200, deadline=None)
@given(
    entries=st.tuples(*[st.floats(-3.0, 3.0, allow_nan=False)] * 4),
    phase=st.floats(0.0, 2.0 * np.pi),
)
def test_rotation_is_the_adjoint_form_without_warning(entries, phase):
    d1, d2, re, im = entries
    g = np.array([[d1, re - 1j * im], [re + 1j * im, d2]])
    u = np.exp(1j * phase) * expm_hermitian_generator(g, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mapping = rotation_from_unitary(u, formula_tol=ROTATION_FORMULA_TOL)
    L, C = _adjoint_rotation(u)
    assert mapping.L.tobytes() == L.tobytes()
    assert mapping.C.tobytes() == C.tobytes()


def test_rotation_mismatch_detector_fires(rng):
    u = euler_unitary(Direction(1.0, 0.7, 0.3))
    with pytest.warns(FormulaMismatchWarning, match="disagree"):
        rotation_from_unitary(u, formula_tol=-1.0)


def test_rotation_rejects_non_unitary():
    # validation runs on every call, memo or not
    for _ in range(2):
        with pytest.raises(DomainError, match=r"^matrix is not unitary \(defect 3\.000e\+00 exceeds 1\.0e-12\)$"):
            rotation_from_unitary(2.0 * IDENTITY)


def test_memoized_rotation_is_the_fresh_adjoint_form(rng):
    unitaries = [*GATE_LIBRARY, *(random_unitary(rng) for _ in range(300))]
    for u in unitaries:
        L, C = _adjoint_rotation(u)
        for given in (np.ascontiguousarray(u), np.asfortranarray(u), u.tolist()):
            mapping = rotation_from_unitary(given)
            assert mapping.L.tobytes() == L.tobytes() and mapping.C.tobytes() == C.tobytes()
            # the fresh form of the array as given, in its own memory order
            fresh_L, fresh_C = _adjoint_rotation(np.asarray(given, dtype=complex))
            assert fresh_L.tobytes() == L.tobytes() and fresh_C.tobytes() == C.tobytes()


def test_repeated_unitary_returns_the_same_map():
    for u in GATE_LIBRARY:
        assert rotation_from_unitary(u) is rotation_from_unitary(u.tolist())


def test_rotation_checked_against_its_oracle_warns_on_every_call():
    u = euler_unitary(Direction(1.0, 0.7, 0.3))
    rotation_from_unitary(u)
    for _ in range(2):
        with pytest.warns(FormulaMismatchWarning, match="rotation"):
            mapping = rotation_from_unitary(u, formula_tol=-1.0)
        memoized = rotation_from_unitary(u)
        assert mapping is not memoized
        assert mapping.L.tobytes() == memoized.L.tobytes() and mapping.C.tobytes() == memoized.C.tobytes()


def test_rotation_memo_is_bounded(rng):
    for _ in range(2 * ROTATION_CACHE_SIZE):
        rotation_from_unitary(random_unitary(rng))
    assert _rotation_map.cache_info().currsize <= ROTATION_CACHE_SIZE


def test_channel_single_identity_term():
    mapping = channel_map(ChannelSpec(((1.0, IDENTITY),)))
    np.testing.assert_allclose(mapping.L, np.eye(3), rtol=0, atol=1e-15)
    np.testing.assert_allclose(mapping.C, np.zeros(3), rtol=0, atol=1e-15)


def test_channel_dephasing_frozen():
    spec = ChannelSpec(((0.5, IDENTITY), (0.5, SIGMA_Z)))
    mapping = channel_map(spec)
    np.testing.assert_allclose(mapping.L, np.diag([0.0, 0.0, 1.0]), rtol=0, atol=1e-15)
    np.testing.assert_allclose(mapping.C, [0.5, 0.5, 0.0], rtol=0, atol=1e-15)
    # x and y probabilities collapse to 1/2, z survives
    image = mapping.apply(ProbTriple(1.0, 0.5, 0.8))
    np.testing.assert_allclose(image.as_array(), [0.5, 0.5, 0.8], rtol=0, atol=1e-15)


def test_channel_depolarizing_frozen():
    spec = ChannelSpec(
        ((0.25, IDENTITY), (0.25, SIGMA_X), (0.25, SIGMA_Y), (0.25, SIGMA_Z))
    )
    mapping = channel_map(spec)
    np.testing.assert_allclose(mapping.L, np.zeros((3, 3)), rtol=0, atol=1e-15)
    np.testing.assert_allclose(mapping.C, BALL_CENTER, rtol=0, atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    generators=st.lists(st.tuples(*[st.floats(-3.0, 3.0)] * 4), min_size=1, max_size=4),
    phases=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=4, max_size=4),
    raw_weights=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
)
def test_channel_is_the_weighted_sum_of_rotations(generators, phases, raw_weights):
    # channel_map, checked against its oracles, must reproduce the sum of checked
    # single rotations bit for bit
    unitaries = [
        np.exp(1j * phase) * expm_hermitian_generator(np.array([[d1, re - 1j * im], [re + 1j * im, d2]]), 1.0)
        for (d1, d2, re, im), phase in zip(generators, phases)
    ]
    total = sum(raw_weights[: len(unitaries)])
    weights = [w / total for w in raw_weights[: len(unitaries)]]
    mapping = channel_map(ChannelSpec(tuple(zip(weights, unitaries))), formula_tol=ROTATION_FORMULA_TOL)
    L, C = np.zeros((3, 3)), np.zeros(3)
    for weight, u in zip(weights, unitaries):
        part = rotation_from_unitary(u, formula_tol=ROTATION_FORMULA_TOL)
        L += weight * part.L
        C += weight * part.C
    assert mapping.L.tobytes() == L.tobytes()
    assert mapping.C.tobytes() == C.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    log_eps=st.floats(-12.0, 0.0),
    generators=st.tuples(*[st.floats(-3.0, 3.0)] * 8),
    theta=st.floats(0.0, np.pi),
    phi=st.floats(0.0, 2.0 * np.pi, exclude_max=True),
)
def test_channel_weights_hold_at_every_scale(log_eps, generators, theta, phi):
    # weights (1 - eps, eps) from eps = 1e-12 to 1, on a pure state, the ball's edge
    eps = 10.0 ** log_eps
    u1, u2 = (
        expm_hermitian_generator(np.array([[d1, re - 1j * im], [re + 1j * im, d2]]), 1.0)
        for d1, d2, re, im in (generators[:4], generators[4:])
    )
    spec = ChannelSpec(((1.0 - eps, u1), (eps, u2)))
    mapping = channel_map(spec)
    L, C = np.zeros((3, 3)), np.zeros(3)
    for weight, u in spec.terms:
        part = rotation_from_unitary(u)
        L += weight * part.L
        C += weight * part.C
    assert mapping.L.tobytes() == L.tobytes()
    assert mapping.C.tobytes() == C.tobytes()
    p = ProbTriple.from_array(BALL_CENTER + 0.5 * Direction(theta, phi).unit_vector())
    image = mapping.apply(p)
    np.testing.assert_allclose(image.as_array(), channel_image_oracle(spec, p).as_array(), rtol=0, atol=1e-10)
    assert check_ball(image) >= -1e-10


def test_channel_mismatch_warns_once_per_term(rng):
    spec = ChannelSpec(tuple((1.0 / 3.0, random_unitary(rng)) for _ in range(3)))
    with pytest.warns(FormulaMismatchWarning) as record:
        mapping = channel_map(spec, formula_tol=-1.0)
    # each term warns with the text a single rotation gives and keeps its closed form
    messages = []
    L, C = np.zeros((3, 3)), np.zeros(3)
    for weight, u in spec.terms:
        with pytest.warns(FormulaMismatchWarning) as single:
            part = rotation_from_unitary(u, formula_tol=-1.0)
        messages += [str(w.message) for w in single]
        L += weight * part.L
        C += weight * part.C
    assert len(messages) == 3
    assert [str(w.message) for w in record] == messages
    assert mapping.L.tobytes() == L.tobytes()
    assert mapping.C.tobytes() == C.tobytes()
    closed = channel_map(spec)
    assert mapping.L.tobytes() == closed.L.tobytes() and mapping.C.tobytes() == closed.C.tobytes()


def test_channel_matches_matrix_route(rng):
    for _ in range(30):
        k = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(k))
        spec = ChannelSpec(tuple((float(w), random_unitary(rng)) for w in weights))
        mapping = channel_map(spec)
        for _ in range(5):
            p = random_physical_triple(rng)
            expected = channel_image_oracle(spec, p)
            np.testing.assert_allclose(
                mapping.apply(p).as_array(), expected.as_array(), rtol=0, atol=1e-10
            )


def test_channel_contracts_and_preserves_ball(rng):
    for _ in range(20):
        k = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(k))
        mapping = channel_map(
            ChannelSpec(tuple((float(w), random_unitary(rng)) for w in weights))
        )
        for _ in range(5):
            v = rng.normal(size=3)
            assert np.linalg.norm(mapping.L @ v) <= np.linalg.norm(v) + 1e-10
            p = random_physical_triple(rng)
            image = mapping.apply(p)
            assert check_ball(image) >= -1e-10
            assert is_physical(image, tol=1e-10)


def test_channel_spec_validation(rng):
    with pytest.raises(DomainError, match="at least one"):
        ChannelSpec(())
    with pytest.raises(DomainError, match="negative"):
        ChannelSpec(((-0.1, IDENTITY), (1.1, SIGMA_X)))
    with pytest.raises(DomainError, match="sum to 1"):
        ChannelSpec(((0.5, IDENTITY), (0.4, SIGMA_X)))
    with pytest.raises(DomainError, match="not unitary"):
        ChannelSpec(((1.0, np.array([[1.0, 1.0], [0.0, 1.0]])),))


def test_channel_spec_holds_its_own_unitaries():
    # channel_map trusts ChannelSpec's check, so a later write must not reach the spec
    u = SIGMA_X.copy()
    spec = ChannelSpec(((1.0, u),))
    u[:] = 2.0 * IDENTITY
    with pytest.raises(ValueError):
        spec.terms[0][1][0, 0] = 2.0
    np.testing.assert_array_equal(channel_map(spec).L, rotation_from_unitary(SIGMA_X).L)


def test_affine_map_shapes():
    with pytest.raises(ValueError):
        AffineMap3(np.eye(2), np.zeros(3))


def test_affine_map_holds_its_own_read_only_arrays():
    L, C = np.eye(3), np.zeros(3)
    m = AffineMap3(L, C)
    L[1, 1] = 5.0
    C[0] = 5.0
    np.testing.assert_array_equal(m.L, np.eye(3))
    np.testing.assert_array_equal(m.C, np.zeros(3))
    memoized = rotation_from_unitary(SIGMA_Y)
    composed = m.then(memoized)
    mixed = channel_map(ChannelSpec(((0.5, SIGMA_X), (0.5, SIGMA_Z))))
    for mapping in (m, AffineMap3([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (0, 0, 0)), memoized, composed, mixed):
        assert mapping.L.dtype == mapping.C.dtype == np.float64
        assert (mapping.L.shape, mapping.C.shape) == ((3, 3), (3,))
        with pytest.raises(ValueError):
            mapping.L[0, 0] = 7.0
        with pytest.raises(ValueError):
            mapping.C[0] = 7.0
    np.testing.assert_array_equal(rotation_from_unitary(SIGMA_Y).L, np.diag([-1.0, 1.0, -1.0]))
