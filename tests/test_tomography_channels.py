"""Tomograms, frame unitaries, and the affine action of rotations and channels."""

import math
import re
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qprob import (
    AffineMap3,
    ChannelSpec,
    Direction,
    DomainError,
    FormulaMismatchWarning,
    ProbTriple,
    area_sum,
    build_kinetic,
    channel_map,
    check_ball,
    density_from_probs,
    euler_unitary,
    evolve,
    expm_hermitian_generator,
    is_physical,
    probs_from_density,
    rotation_formula_checks,
    rotation_from_unitary,
    state_tomogram,
    triangle_picture,
)
from qprob.diagnostics import failed_checks
from qprob.matrix_oracle import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, UNITARY_TOL, unitarity_defect
from qprob.qubit_core import BALL_CENTER, _as_float
from qprob.tomography_channels import ROTATION_FORMULA_TOL, WEIGHT_TOL, _adjoint_rotation, _affine_map, _rotation

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
    """Matrix-route image: probabilities of sum_s w_s u_s rho u_s^dagger, from the spec's entry tuples."""
    rho = density_from_probs(p)
    out = np.zeros((2, 2), dtype=complex)
    for weight, entries in spec.terms:
        u = np.asarray(entries)
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


def test_state_tomogram_keeps_a_subnormal_direction_entry_exact():
    # n1 = 5e-324 has no exact half; with -n1/2 rounded to -0.0, w+ would round from 7.5e-324 to 1e-323
    assert state_tomogram(ProbTriple(0.5, 0.5, 5e-324), Direction(5e-324, 0.0)) == (5e-324, 1.0)


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
    L, C = _adjoint_rotation(u.tolist())
    assert mapping.linear == L and mapping.L.tobytes() == np.array(L).tobytes()
    assert mapping.offset == C and mapping.C.tobytes() == np.array(C).tobytes()


def test_rotation_mismatch_detector_fires(rng):
    u = euler_unitary(Direction(1.0, 0.7, 0.3))
    with pytest.warns(FormulaMismatchWarning, match="disagree"):
        rotation_from_unitary(u, formula_tol=-1.0)


def test_rotation_rejects_non_unitary():
    # validation runs on every call
    for _ in range(2):
        with pytest.raises(DomainError, match=r"^matrix is not unitary \(defect 3\.000e\+00 exceeds 1\.0e-12\)$"):
            rotation_from_unitary(2.0 * IDENTITY)


def test_rotation_is_the_same_for_every_memory_order(rng):
    unitaries = [*GATE_LIBRARY, *(random_unitary(rng) for _ in range(300))]
    for u in unitaries:
        L, C = (np.array(part).tobytes() for part in _adjoint_rotation(u.tolist()))
        for given in (np.ascontiguousarray(u), np.asfortranarray(u), u.tolist()):
            mapping = rotation_from_unitary(given)
            assert mapping.L.tobytes() == L and mapping.C.tobytes() == C


def test_repeated_unitary_returns_the_same_map():
    for u in GATE_LIBRARY:
        assert rotation_from_unitary(u) == rotation_from_unitary(u.tolist())


def test_rotation_checked_against_its_oracle_warns_on_every_call():
    u = euler_unitary(Direction(1.0, 0.7, 0.3))
    rotation_from_unitary(u)
    for _ in range(2):
        with pytest.warns(FormulaMismatchWarning, match="rotation"):
            mapping = rotation_from_unitary(u, formula_tol=-1.0)
        closed = rotation_from_unitary(u)
        assert mapping.L.tobytes() == closed.L.tobytes() and mapping.C.tobytes() == closed.C.tobytes()


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


@pytest.mark.parametrize("terms, message", [
    (5, "a channel needs a sequence of (weight, unitary) terms, got 5"),
    (iter(()), "a channel needs a sequence of (weight, unitary) terms, got <tuple_iterator"),
    ([5], "channel term 0 must be a (weight, unitary) pair, got 5"),
    ([(1.0,)], "channel term 0 must be a (weight, unitary) pair, got (1.0,)"),
    ([(1.0, [[1, 0], [0, 1]], 3)], "channel term 0 must be a (weight, unitary) pair, got (1.0, [[1, 0], [0, 1]], 3)"),
    ([(0.5, IDENTITY), None], "channel term 1 must be a (weight, unitary) pair, got None"),
], ids=["int", "iterator", "int-term", "one-item", "three-items", "none-term"])
def test_channel_spec_refuses_a_malformed_term(terms, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
        ChannelSpec(terms)


def test_channel_spec_holds_its_own_unitaries():
    # channel_map trusts ChannelSpec's check, so a later write must not reach the spec
    u = SIGMA_X.copy()
    spec = ChannelSpec(((1.0, u),))
    u[:] = 2.0 * IDENTITY
    assert spec.terms == ((1.0, ((0j, 1 + 0j), (1 + 0j, 0j))),)
    assert all(type(z) is complex for z in (*spec.terms[0][1][0], *spec.terms[0][1][1]))
    with pytest.raises(TypeError):
        spec.terms[0][1][0][0] = 2.0
    assert channel_map(spec) == rotation_from_unitary(SIGMA_X)


@pytest.mark.parametrize("spec", [
    SimpleNamespace(terms=[(1.0, [[2, 0], [0, 2]])]),
    [(1.0, [[1, 0], [0, 1]])],
    None,
], ids=["non-unitary-namespace", "list-of-terms", "none"])
def test_channel_map_takes_only_a_channel_spec(spec):
    # anything else would skip ChannelSpec's weight and unitarity checks, on which the unscanned sum relies
    message = f"channel_map needs a ChannelSpec, got {spec!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        channel_map(spec)


def test_affine_map_shapes():
    # a misshaped or non-finite L or C is a DomainError, as KineticSystem's omega is
    cases = [
        (np.eye(2), np.zeros(3), r"^an affine map's L needs shape \(3, 3\), got shape \(2, 2\)$"),
        ([[1, 0, 0], [0, 1, 0]], (0, 0, 0), r"^an affine map's L needs shape \(3, 3\), got shape \(2, 3\)$"),
        ([[1, 0], [0, 1], [0, 0]], (0, 0, 0), r"^an affine map's L needs shape \(3, 3\), got shape \(3, 2\)$"),
        ([[1, 0, 0], [0, 1], [0, 0, 1]], (0, 0, 0), r"^an affine map's L needs shape \(3, 3\): setting an array"),
        (np.eye(3), (0, [0], 0), r"^an affine map's C needs shape \(3,\): setting an array"),
        (np.eye(3), np.zeros(2), r"^an affine map's C needs shape \(3,\), got shape \(2,\)$"),
        ([[1, 0, 0], [0, 1, 0], [0, 0, math.inf]], (0, 0, 0), r"^affine map must be finite, got L = .*inf.*, C = "),
        (np.eye(3), (0.0, math.nan, 0.0), r"^affine map must be finite, got L = .*, C = \(0\.0, nan, 0\.0\)$"),
    ]
    for L, C, message in cases:
        with pytest.raises(DomainError, match=message):
            AffineMap3(L, C)


def test_composed_map_past_the_float_range_is_rejected():
    huge = AffineMap3(np.eye(3) * 1e200, np.zeros(3))
    with pytest.raises(DomainError, match="affine map must be finite"):
        huge.then(huge)


def test_affine_map_holds_its_own_floats():
    L, C = np.eye(3), np.zeros(3)
    m = AffineMap3(L, C)
    L[1, 1] = 5.0
    C[0] = 5.0
    np.testing.assert_array_equal(m.L, np.eye(3))
    np.testing.assert_array_equal(m.C, np.zeros(3))
    rotation = rotation_from_unitary(SIGMA_Y)
    composed = m.then(rotation)
    mixed = channel_map(ChannelSpec(((0.5, SIGMA_X), (0.5, SIGMA_Z))))
    for mapping in (m, AffineMap3([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (0, 0, 0)), rotation, composed, mixed):
        assert all(type(x) is float for x in (*mapping.linear[0], *mapping.linear[1], *mapping.linear[2]))
        assert all(type(x) is float for x in mapping.offset)
        assert mapping.L.dtype == mapping.C.dtype == np.float64
        assert (mapping.L.shape, mapping.C.shape) == ((3, 3), (3,))
        # L and C are fresh arrays: writing into one leaves the map as it was
        before = (mapping.linear, mapping.offset)
        mapping.L[0, 0] = 7.0
        mapping.C[0] = 7.0
        assert (mapping.linear, mapping.offset) == before
    assert rotation_from_unitary(SIGMA_Y) == AffineMap3(np.diag([-1.0, 1.0, -1.0]), (1.0, 0.0, 1.0))


def reference_apply(self: AffineMap3, p: ProbTriple) -> ProbTriple:
    """AffineMap3.apply as it was before its straight-line form, verbatim."""
    x, y, z = map(_as_float, (p.p1, p.p2, p.p3))
    return ProbTriple(*(l1 * x + l2 * y + l3 * z + c for (l1, l2, l3), c in zip(self.linear, self.offset)))


def reference_then(self: AffineMap3, other: AffineMap3) -> AffineMap3:
    """AffineMap3.then as it was before its straight-line form, verbatim."""
    columns = (*zip(*self.linear), self.offset)  # L's columns, then C: rows of other times [L | C]
    rows = [[o1 * a + o2 * b + o3 * c for a, b, c in columns] for o1, o2, o3 in other.linear]
    return _affine_map(tuple(tuple(r[:3]) for r in rows), tuple(r[3] + c for r, c in zip(rows, other.offset)))


def reference_channel_map(spec: ChannelSpec, formula_tol: float | None = None) -> AffineMap3:
    """channel_map as it was before its twelve accumulators, verbatim."""
    total = [0.0] * 12
    for weight, rows in spec.terms:
        (r1, r2, r3), offset = _rotation(rows, formula_tol)
        total = [x + weight * v for x, v in zip(total, (*r1, *r2, *r3, *offset))]
    return _affine_map((tuple(total[0:3]), tuple(total[3:6]), tuple(total[6:9])), tuple(total[9:]))


def bits(compute):
    """The hex of every float compute() returns, so signed zeros differ, or its exception's type and message."""
    try:
        value = compute()
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(value, ProbTriple):
        return tuple(float.hex(v) for v in (value.p1, value.p2, value.p3))
    return tuple(float.hex(v) for v in (*value.linear[0], *value.linear[1], *value.linear[2], *value.offset))


# maps and triples with entries of one size, whose sums round differently in another order, or
# with entries from the subnormals to 1e300, each binade as likely, signed zeros included
same_size = st.floats(-2.0, 2.0)
any_size = st.one_of(
    st.floats(-1e300, 1e300),
    st.builds(lambda sign, log: sign * 10.0 ** log, st.sampled_from((-1.0, 1.0)), st.floats(-323.5, 300.0)),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0)),
)
triples = st.one_of(*(st.tuples(entry, entry, entry) for entry in (same_size, any_size)))
affine_maps = st.one_of(*(st.builds(AffineMap3, st.tuples(rows, rows, rows), rows)
                          for rows in (st.tuples(entry, entry, entry) for entry in (same_size, any_size))))


@settings(max_examples=1000, deadline=None)
@given(first=affine_maps, second=affine_maps, p=triples)
@example(first=AffineMap3(np.eye(3) * 1e200, np.zeros(3)), second=AffineMap3(np.eye(3) * 1e200, np.zeros(3)),
         p=(0.5, 0.5, 0.5))  # L L overflows
@example(first=AffineMap3(np.eye(3), (1e300, 0.0, 0.0)), second=AffineMap3(np.eye(3) * 1e10, np.zeros(3)),
         p=(1e300, 0.0, 0.0))  # only C overflows, and so does the image
@example(first=AffineMap3(np.eye(3), (0.0, -0.0, 0.0)), second=AffineMap3(-np.eye(3), (-0.0, -0.0, 0.0)),
         p=(-0.0, 0.0, -0.0))  # signed zeros
def test_apply_and_then_are_the_reference_forms_bit_for_bit(first, second, p):
    triple = ProbTriple(*p)
    assert bits(lambda: first.apply(triple)) == bits(lambda: reference_apply(first, triple))
    assert bits(lambda: first.then(second)) == bits(lambda: reference_then(first, second))


def unit_quaternion_unitary(q) -> list:
    """The SU(2) entries [[w - iz, -y - ix], [y - ix, w + iz]] of a quaternion, normalized."""
    w, x, y, z = (v / math.hypot(*q) for v in q)
    return [[complex(w, -z), complex(-y, -x)], [complex(y, -x), complex(w, z)]]


quaternions = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: math.hypot(*q) > 1e-3)
weights = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-300))


@settings(max_examples=500, deadline=None)
@given(terms=st.lists(st.tuples(weights, quaternions), min_size=1, max_size=4).filter(
    lambda terms: sum(w for w, _ in terms) > 0.0))
@example(terms=[(1.0, (1.0, 0.0, 0.0, 0.0))])
@example(terms=[(0.5, (0.0, 1.0, 0.0, 0.0)), (0.5, (0.0, 0.0, 0.0, 1.0))])
@example(terms=[(1.0, (0.3, 0.1, 0.0, 0.2)), (5e-324, (0.0, 0.0, 1.0, 0.0)), (0.0, (1.0, 1.0, 1.0, 1.0))])
def test_channel_map_is_the_reference_form_bit_for_bit(terms):
    total = sum(w for w, _ in terms)
    spec = ChannelSpec(tuple((w / total, unit_quaternion_unitary(q)) for w, q in terms))
    assert bits(lambda: channel_map(spec)) == bits(lambda: reference_channel_map(spec))


def test_float32_fields_give_the_tomogram_and_physicality_of_their_floats():
    # a numpy float32 field is read as the float it holds; computed in float32, Veltkamp's split is wrong
    p = ProbTriple(*np.float32([0.7, 0.4, 0.55]))
    assert state_tomogram(p, Direction(1.0, 0.5))[0] == 0.6343648998454589
    # a float32 point 1.1e-8 inside the sphere; a float32 residual put it 6.5e-9 outside
    near = ProbTriple(*np.float32([0.8094919919967651, 0.11245014518499374, 0.5634019374847412]))
    assert is_physical(near, tol=0.0)
    assert repr(ProbTriple(np.float32(0.7), 1, True)) == "ProbTriple(p1=0.699999988079071, p2=1.0, p3=1.0)"
    # computed in float32, these would read 2.22 and 0.8999999761581421
    p = ProbTriple(*np.float32([0.7, 0.4, 0.1]))
    assert area_sum(p) == 2.2199999812245372
    assert density_from_probs(p)[1, 1] == 0.8999999985098839


# a rotation about a tilted axis and a Hamiltonian with every component nonzero, so each entry shows
_TILTED_MAP = rotation_from_unitary(euler_unitary(Direction(1.0, 0.5, 0.25)))
_GENERIC_SYSTEM = build_kinetic(np.array([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, -0.5]]), 0.0)


@settings(max_examples=300, deadline=None)
@given(p=st.tuples(*[st.floats(0.0, 1.0, width=32)] * 3), theta=st.floats(0.0, math.pi),
       phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True))
@example(p=(0.7, 0.4, 0.1), theta=1.0, phi=0.5)
def test_float32_triples_read_as_their_floats(p, theta, phi):
    # each result is compared by repr, which tells a float from a float32 and 0.0 from -0.0
    single, double = ProbTriple(*np.float32(p)), ProbTriple(*np.float32(p).tolist())
    assert [type(single.p1), type(single.p2), type(single.p3)] == [float, float, float]
    for tol in (0.0, 1e-10):
        assert is_physical(single, tol) == is_physical(double, tol)
    assert repr(check_ball(single)) == repr(check_ball(double))
    assert repr(area_sum(single)) == repr(area_sum(double))
    assert repr(triangle_picture(single)) == repr(triangle_picture(double))
    assert repr(_TILTED_MAP.apply(single)) == repr(_TILTED_MAP.apply(double))
    if is_physical(double):
        direction = Direction(theta, phi)
        assert state_tomogram(single, direction) == state_tomogram(double, direction)
        assert density_from_probs(single).tobytes() == density_from_probs(double).tobytes()
        assert repr(evolve(_GENERIC_SYSTEM, single, 0.7)) == repr(evolve(_GENERIC_SYSTEM, double, 0.7))


@settings(max_examples=400, deadline=None)
@given(q=quaternions, phase=st.floats(0.0, 2.0 * math.pi), stretch=st.floats(-1.0, 1.0),
       push=st.tuples(*[st.floats(-1.0, 1.0)] * 8), log_size=st.floats(-20.0, -12.0),
       form=st.sampled_from(("list", "C", "F")))
@example(q=(1.0, 0.0, 0.0, 0.0), phase=0.0, stretch=1.0, push=(0.0,) * 8, log_size=-20.0, form="list")
@example(q=(0.3, -0.2, 0.9, 0.1), phase=2.0, stretch=-1.0, push=(0.0,) * 8, log_size=-20.0, form="F")
def test_rotation_holds_what_the_scanning_constructor_holds(q, phase, stretch, push, log_size, form):
    # rotation_from_unitary skips the finiteness scan: every unitary the guard accepts, up to a defect of
    # UNITARY_TOL, gives finite entries and the map AffineMap3 builds from them after its scan
    v = np.exp(1j * phase) * np.array(unit_quaternion_unitary(q))
    # (1 + s)^2 v v^dagger - I is a defect of about 2 s, so stretch reaches the guard's bound
    u = (1.0 + stretch * 0.4999 * UNITARY_TOL) * v
    u = u + 10.0 ** log_size * (np.array(push[:4]) + 1j * np.array(push[4:])).reshape(2, 2)
    assume(unitarity_defect(u) <= UNITARY_TOL)
    given_u = {"list": u.tolist(), "C": np.ascontiguousarray(u), "F": np.asfortranarray(u)}[form]
    m = rotation_from_unitary(given_u)
    scanned = AffineMap3(m.linear, m.offset)
    assert m == scanned and hash(m) == hash(scanned)
    entries = (*m.linear[0], *m.linear[1], *m.linear[2], *m.offset)
    assert all(type(v) is float and math.isfinite(v) for v in entries)


@settings(max_examples=300, deadline=None)
@given(terms=st.lists(st.tuples(st.floats(0.0, 1.0), quaternions, st.floats(0.0, 2.0 * math.pi), st.floats(-1.0, 1.0)),
                      min_size=1, max_size=4),
       low=st.sampled_from((0.0, -WEIGHT_TOL)), excess=st.floats(-1.0, 1.0))
@example(terms=[(1.0, (0.3, -0.2, 0.9, 0.1), 2.0, 1.0)], low=-WEIGHT_TOL, excess=1.0)
@example(terms=[(0.0, (1.0, 0.0, 0.0, 0.0), 0.0, -1.0), (1.0, (0.0, 1.0, 0.0, 0.0), 1.0, 1.0)], low=0.0, excess=-1.0)
def test_channel_map_holds_what_the_scanning_constructor_holds(terms, low, excess):
    # channel_map skips the finiteness scan: weights ChannelSpec accepts, down to -WEIGHT_TOL and summing to 1
    # within WEIGHT_TOL, times unitaries up to a defect of UNITARY_TOL give finite entries, the map AffineMap3
    # builds from them after its scan, and the map the scanning reference sum builds
    total = sum(w for w, _, _, _ in terms)
    weights = [w / total for w, _, _, _ in terms] if total > 0.0 else [1.0 / len(terms)] * len(terms)
    # one more term at weight low, and the first moved so that the sum is off 1 by up to WEIGHT_TOL / 2
    weights[0] += 0.5 * excess * WEIGHT_TOL - low
    unitaries = []
    for _, q, phase, stretch in terms:
        # (1 + s)^2 v v^dagger - I is a defect of about 2 s, so stretch reaches the guard's bound
        u = (1.0 + stretch * 0.4999 * UNITARY_TOL) * np.exp(1j * phase) * np.array(unit_quaternion_unitary(q))
        assume(unitarity_defect(u) <= UNITARY_TOL)
        unitaries.append(u.tolist())
    spec = ChannelSpec((*zip(weights, unitaries), (low, unitaries[-1])))
    m = channel_map(spec)
    scanned = AffineMap3(m.linear, m.offset)
    assert m == scanned and hash(m) == hash(scanned)
    assert bits(lambda: m) == bits(lambda: reference_channel_map(spec))
    entries = (*m.linear[0], *m.linear[1], *m.linear[2], *m.offset)
    assert all(type(v) is float and math.isfinite(v) for v in entries)
