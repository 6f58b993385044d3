"""Kinetic equation: generator values, exact propagation, and matrix-side agreement."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qprob import (
    DomainError,
    FormulaMismatchWarning,
    KineticSystem,
    ProbTriple,
    Trajectory,
    build_kinetic,
    check_ball,
    density_from_probs,
    evolve,
    evolve_observable,
    kinetic_formula_checks,
    pauli_components,
    probs_from_density,
    rho_of_x,
    sample_trajectory,
)
from qprob.diagnostics import failed_checks
from qprob.matrix_oracle import IDENTITY, SIGMA_X, SIGMA_Z, heisenberg_exact
from qprob.observable_map import conservative_shift_bound

from conftest import (
    random_hermitian,
    random_physical_triple,
    rk4_affine_evolution,
    rk4_commutator_evolution,
)

P0_X = ProbTriple(1.0, 0.5, 0.5)


def test_generator_sigma_z_frozen():
    system = build_kinetic(SIGMA_Z, 0.0)
    np.testing.assert_array_equal(
        system.L, np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    )
    np.testing.assert_array_equal(system.C, [-1.0, 1.0, 0.0])


def test_generator_sigma_x_frozen():
    system = build_kinetic(SIGMA_X, 0.0)
    np.testing.assert_array_equal(
        system.L, np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0], [0.0, -2.0, 0.0]])
    )
    np.testing.assert_array_equal(system.C, [0.0, -1.0, 1.0])


def test_generator_identity_hamiltonian_is_static(rng):
    system = build_kinetic(IDENTITY, 1.0)
    np.testing.assert_array_equal(system.L, np.zeros((3, 3)))
    np.testing.assert_array_equal(system.C, np.zeros(3))
    p = random_physical_triple(rng)
    assert evolve(system, p, 17.3) == p


def test_generator_antisymmetric(rng):
    for _ in range(100):
        system = build_kinetic(random_hermitian(rng), 0.0)
        np.testing.assert_array_equal(system.L, -system.L.T)


def test_kinetic_system_rejects_non_antisymmetric():
    with pytest.raises(DomainError, match="antisymmetric"):
        KineticSystem(L=np.eye(3), C=np.zeros(3), H=SIGMA_Z, x=0.0)


def test_kinetic_system_rejects_drift_that_moves_the_center():
    L = build_kinetic(SIGMA_Z, 0.0).L
    with pytest.raises(DomainError, match=r"fix the ball center \(maximally mixed state\)"):
        KineticSystem(L=L, C=np.zeros(3), H=SIGMA_Z, x=0.0)


def test_generator_formulas_match_finite_differences(rng):
    for _ in range(30):
        checks = kinetic_formula_checks(random_hermitian(rng))
        assert len(checks) == 12
        assert failed_checks(checks) == []


def test_generator_mismatch_detector_fires(rng):
    h = random_hermitian(rng)
    with pytest.warns(FormulaMismatchWarning, match="kinetic generator"):
        system = build_kinetic(h, 0.0, fd_tol=-1.0)
    # the fitted generator stays numerically close to the closed forms
    reference = build_kinetic(h, 0.0, validate=False)
    np.testing.assert_allclose(system.L, reference.L, rtol=0, atol=1e-6)
    np.testing.assert_allclose(system.C, reference.C, rtol=0, atol=1e-6)


def test_cached_mismatch_warns_on_every_call(rng):
    h = random_hermitian(rng)
    for _ in range(2):
        with pytest.warns(FormulaMismatchWarning, match="kinetic generator"):
            build_kinetic(h, 0.0, fd_tol=-1.0)


def test_mutating_a_result_leaves_the_cache_intact(rng):
    h = random_hermitian(rng)
    first = build_kinetic(h, 0.0)
    L, C = first.L.copy(), first.C.copy()
    first.L[0, 1] = 99.0
    first.C[:] = -7.0
    again = build_kinetic(h, 0.0)
    np.testing.assert_array_equal(again.L, L)
    np.testing.assert_array_equal(again.C, C)


def test_precession_quarter_period_frozen():
    system = build_kinetic(SIGMA_Z, 0.0)
    quarter = evolve(system, P0_X, np.pi / 4.0)
    np.testing.assert_allclose(quarter.as_array(), [0.5, 0.0, 0.5], rtol=0, atol=1e-15)
    half = evolve(system, P0_X, np.pi / 2.0)
    np.testing.assert_allclose(half.as_array(), [0.0, 0.5, 0.5], rtol=0, atol=1e-15)
    full = evolve(system, P0_X, np.pi)
    np.testing.assert_allclose(full.as_array(), P0_X.as_array(), rtol=0, atol=1e-14)


def test_precession_closed_form_curve():
    # for H = sigma_z: p1(t) = (1 + cos 2t)/2, p2(t) = (1 - sin 2t)/2, p3 constant
    system = build_kinetic(SIGMA_Z, 0.0)
    for t in np.linspace(-3.0, 3.0, 25):
        p = evolve(system, P0_X, float(t))
        assert abs(p.p1 - 0.5 * (1.0 + np.cos(2.0 * t))) < 1e-14
        assert abs(p.p2 - 0.5 * (1.0 - np.sin(2.0 * t))) < 1e-14
        assert abs(p.p3 - 0.5) < 1e-15


def test_evolve_matches_rk4(rng):
    for _ in range(10):
        system = build_kinetic(random_hermitian(rng, scale=2.0), 0.0)
        p0 = random_physical_triple(rng)
        t = float(rng.uniform(0.2, 2.0))
        stepped = rk4_affine_evolution(system.L, system.C, p0.as_array(), t)
        np.testing.assert_allclose(
            evolve(system, p0, t).as_array(), stepped, rtol=0, atol=1e-8
        )


def test_evolve_small_time_series_branch(rng):
    # a rotation angle below 1e-4 rad against an RK4 reference
    system = build_kinetic(random_hermitian(rng, scale=0.01), 0.0)
    p0 = random_physical_triple(rng)
    t = 1e-3
    stepped = rk4_affine_evolution(system.L, system.C, p0.as_array(), t, steps=100)
    np.testing.assert_allclose(evolve(system, p0, t).as_array(), stepped, rtol=0, atol=1e-13)


def test_evolve_preserves_ball(rng):
    for _ in range(20):
        system = build_kinetic(random_hermitian(rng), 0.0)
        p0 = random_physical_triple(rng)
        for t in (0.1, 1.0, 7.5, -2.3):
            assert check_ball(evolve(system, p0, t)) >= -1e-10


def test_evolve_rejects_bad_inputs(rng):
    system = build_kinetic(SIGMA_Z, 0.0)
    with pytest.raises(DomainError):
        evolve(system, ProbTriple(0.9, 0.9, 0.9), 1.0)
    with pytest.raises(DomainError, match="finite"):
        evolve(system, P0_X, np.nan)
    with pytest.raises(DomainError, match="finite"):
        evolve(system, P0_X, np.inf)


def test_commutation_with_matrix_evolution(rng):
    for _ in range(30):
        a0 = random_hermitian(rng)
        h = random_hermitian(rng)
        x = conservative_shift_bound(a0) + float(rng.uniform(0.5, 3.0))
        t = float(rng.uniform(-2.0, 2.0))
        via_probs = evolve_observable(a0, h, x, t)
        via_matrix = heisenberg_exact(a0, h, t)
        np.testing.assert_allclose(via_probs, via_matrix, rtol=0, atol=1e-9)


def test_commutation_against_rk4(rng):
    a0 = random_hermitian(rng)
    h = random_hermitian(rng)
    x = conservative_shift_bound(a0) + 1.0
    t = 1.2
    stepped = rk4_commutator_evolution(a0, h, t)
    np.testing.assert_allclose(evolve_observable(a0, h, x, t), stepped, rtol=0, atol=1e-8)


def test_evolve_observable_frozen_quarter_turn():
    a = evolve_observable(SIGMA_X, SIGMA_Z, 2.0, np.pi / 4.0)
    np.testing.assert_allclose(
        a, np.array([[0.0, -1.0j], [1.0j, 0.0]]) * -1.0, rtol=0, atol=1e-14
    )


def test_evolve_observable_conserves_spectrum_and_trace(rng):
    for _ in range(20):
        a0 = random_hermitian(rng)
        h = random_hermitian(rng)
        x = conservative_shift_bound(a0) + float(rng.uniform(0.5, 3.0))
        t = float(rng.uniform(-3.0, 3.0))
        at = evolve_observable(a0, h, x, t)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(at), np.linalg.eigvalsh(a0), rtol=0, atol=1e-9
        )
        assert abs(np.trace(at).real - np.trace(a0).real) < 1e-12


def test_evolve_observable_shift_invariance(rng):
    a0 = random_hermitian(rng)
    h = random_hermitian(rng)
    base = conservative_shift_bound(a0)
    t = 0.9
    np.testing.assert_allclose(
        evolve_observable(a0, h, base + 1.0, t),
        evolve_observable(a0, h, base + 4.5, t),
        rtol=0,
        atol=1e-9,
    )


def test_trajectory_frozen_grid():
    system = build_kinetic(SIGMA_Z, 0.0)
    trajectory = sample_trajectory(system, P0_X, np.pi, 4)
    np.testing.assert_allclose(
        trajectory.times, [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi], rtol=0, atol=0
    )
    expected = np.array([
        [1.0, 0.5, 0.5],
        [0.5, 0.0, 0.5],
        [0.0, 0.5, 0.5],
        [0.5, 1.0, 0.5],
        [1.0, 0.5, 0.5],
    ])
    np.testing.assert_allclose(trajectory.probs, expected, rtol=0, atol=1e-14)
    assert trajectory.x == 0.0
    assert [p.p3 for p in trajectory.triples()] == [0.5] * 5


def test_trajectory_refinement_shares_samples():
    system = build_kinetic(SIGMA_Z, 0.0)
    coarse = sample_trajectory(system, P0_X, 2.0, 10)
    fine = sample_trajectory(system, P0_X, 2.0, 1000)
    np.testing.assert_allclose(fine.probs[::100], coarse.probs, rtol=0, atol=1e-12)


unit = st.floats(-1.0, 1.0)


def ball_triple(bloch) -> ProbTriple:
    """Triple c + v/2, with v pulled back onto the unit sphere when it lies outside."""
    v = np.array(bloch)
    norm = float(np.linalg.norm(v))
    return ProbTriple.from_array(0.5 + (0.5 * v / norm if norm > 1.0 else 0.5 * v))


@settings(max_examples=60, deadline=None)
@given(
    entries=st.tuples(unit, unit, unit, unit),
    log_norm=st.floats(-6.0, 2.0),
    bloch=st.tuples(unit, unit, unit),
    log_dt=st.floats(-9.0, -1.0),
    steps=st.integers(1, 200),
)
# sigma_z has |omega| = 2: samples 0 and 1 turn by less than 1e-4 rad, the rest by more
@example(entries=(1.0, -1.0, 0.0, 0.0), log_norm=0.0, bloch=(1.0, 0.0, 0.0), log_dt=np.log10(4e-5), steps=20)
def test_trajectory_rows_equal_evolve(entries, log_norm, bloch, log_dt, steps):
    d1, d2, re, im = (10.0 ** log_norm * e for e in entries)
    system = build_kinetic(np.array([[d1, re - 1j * im], [re + 1j * im, d2]]), 0.0, validate=False)
    p0 = ball_triple(bloch)
    trajectory = sample_trajectory(system, p0, steps * 10.0 ** log_dt, steps)
    for t, row in zip(trajectory.times, trajectory.probs):
        np.testing.assert_array_equal(row, evolve(system, p0, float(t)).as_array())


def test_long_trajectory_stays_on_the_sphere():
    # at t = 1e9 any term that cancels against the rotation would cost about t * eps
    system = build_kinetic(np.array([[1.0, 0.3], [0.3, -1.0]]), 0.0)
    trajectory = sample_trajectory(system, ProbTriple(0.5, 0.5, 1.0), 1e9, 10)
    for p in trajectory.triples():
        assert check_ball(p) >= -1e-15


@settings(max_examples=200, deadline=None)
@given(
    entries=st.tuples(unit, unit, unit, unit),
    log_norm=st.floats(-9.0, 9.0),
    bloch=st.tuples(unit, unit, unit),
    log_t=st.floats(-3.0, 9.0),
)
def test_evolve_holds_at_every_scale(entries, log_norm, bloch, log_t):
    d1, d2, re, im = (10.0 ** log_norm * e for e in entries)
    h = np.array([[d1, re - 1j * im], [re + 1j * im, d2]])
    p0 = ball_triple(bloch)
    t = 10.0 ** log_t
    pt = evolve(build_kinetic(h, 0.0, validate=False), p0, t)
    assert abs(check_ball(pt) - check_ball(p0)) <= 1e-15
    if 2.0 * np.linalg.norm(pauli_components(h)[1]) * t <= 1e3:
        exact = probs_from_density(heisenberg_exact(density_from_probs(p0), h, t))
        np.testing.assert_allclose(pt.as_array(), exact.as_array(), rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(entries=st.tuples(unit, unit, unit, unit), log_norm=st.floats(-9.0, 9.0))
@example(entries=(1.0, -1.0, 0.3, 0.0), log_norm=6.0)
def test_validated_generator_is_the_closed_form_at_every_scale(entries, log_norm):
    d1, d2, re, im = (10.0 ** log_norm * e for e in entries)
    h = np.array([[d1, re - 1j * im], [re + 1j * im, d2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        checked = build_kinetic(h, 0.0)
    closed = build_kinetic(h, 0.0, validate=False)
    assert checked.L.tobytes() == closed.L.tobytes()
    assert checked.C.tobytes() == closed.C.tobytes()


def test_fallback_at_large_norm_is_a_valid_system(rng):
    h = random_hermitian(rng, scale=1e9)
    with pytest.warns(FormulaMismatchWarning, match="kinetic generator"):
        system = build_kinetic(h, 0.0, fd_tol=-1.0)
    assert isinstance(system, KineticSystem)
    reference = build_kinetic(h, 0.0, validate=False)
    np.testing.assert_allclose(system.L, reference.L, rtol=0, atol=1e-12 * 1e9)


def test_trajectory_constant_for_identity_hamiltonian():
    system = build_kinetic(IDENTITY, 0.5)
    trajectory = sample_trajectory(system, P0_X, 5.0, 7)
    np.testing.assert_array_equal(trajectory.probs, np.tile(P0_X.as_array(), (8, 1)))


def test_trajectory_validation():
    system = build_kinetic(SIGMA_Z, 0.0)
    with pytest.raises(DomainError, match="t_end"):
        sample_trajectory(system, P0_X, 0.0, 5)
    with pytest.raises(DomainError, match="t_end"):
        sample_trajectory(system, P0_X, np.inf, 5)
    with pytest.raises(DomainError, match="steps"):
        sample_trajectory(system, P0_X, 1.0, 0)
    with pytest.raises(DomainError, match="increasing"):
        Trajectory(times=np.array([0.0, 0.0]), probs=np.full((2, 3), 0.5), x=0.0)
    with pytest.raises(DomainError, match=r"^triple violates .* \(ball residual -2\.300e-01\)$"):
        Trajectory(times=np.array([0.0, 1.0]), probs=np.array([[0.5] * 3, [0.9] * 3]), x=0.0)
    with pytest.raises(DomainError, match="times"):
        Trajectory(times=np.array([0.0, 1.0]), probs=np.full((3, 3), 0.5), x=0.0)
