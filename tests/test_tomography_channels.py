"""Tomograms, frame unitaries, and the affine action of rotations and channels."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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
from qprob.tomography_channels import _adjoint_rotation

from conftest import random_direction, random_physical_triple, random_unitary

SQRT2 = np.sqrt(2.0)


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
        mapping = rotation_from_unitary(u)
    L, C = _adjoint_rotation(u)
    assert mapping.L.tobytes() == L.tobytes()
    assert mapping.C.tobytes() == C.tobytes()


def test_rotation_mismatch_detector_fires(rng):
    u = euler_unitary(Direction(1.0, 0.7, 0.3))
    with pytest.warns(FormulaMismatchWarning, match="disagree"):
        rotation_from_unitary(u, formula_tol=-1.0)


def test_rotation_rejects_non_unitary():
    with pytest.raises(DomainError, match="not unitary"):
        rotation_from_unitary(2.0 * IDENTITY)


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


def test_affine_map_shapes():
    with pytest.raises(ValueError):
        AffineMap3(np.eye(2), np.zeros(3))
