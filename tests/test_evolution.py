"""Kinetic equation: generator values, exact propagation, and matrix-side agreement."""

import math
import re
import sys
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
    state_tomogram,
)
from qprob.diagnostics import failed_checks, heisenberg_exact
from qprob.evolution import FD_TOL, _linspace, _trajectory_rows
from qprob.matrix_oracle import IDENTITY, SIGMA_X, SIGMA_Z
from qprob.observable_map import conservative_shift_bound
from qprob.qubit_core import DEFAULT_TOL

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


def test_kinetic_system_rejects_a_non_finite_or_wrong_length_omega():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match=r"^kinetic angular velocity omega must be finite, got \("):
            KineticSystem(omega=(0.0, bad, 1.0), x=0.0)
    with pytest.raises(DomainError, match=r"^kinetic angular velocity omega needs 3 components, got 2$"):
        KineticSystem(omega=(1.0, 2.0), x=0.0)


def test_kinetic_system_rejects_a_non_finite_shift():
    # a trajectory carries the shift, and json.dumps would write a NaN one as NaN, which is not JSON
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match=r"^kinetic shift x must be finite, got "):
            build_kinetic(SIGMA_Z, bad)
        with pytest.raises(DomainError, match=r"^kinetic shift x must be finite, got "):
            KineticSystem(omega=(1.0, 0.0, 0.0), x=bad)


def test_build_kinetic_omega_is_twice_the_pauli_vector(rng):
    for _ in range(50):
        h = random_hermitian(rng, scale=float(10.0 ** rng.uniform(-6.0, 6.0)))
        omega = build_kinetic(h, 0.0).omega
        assert np.array(omega).tobytes() == (2.0 * pauli_components(h)[1]).tobytes()


def test_build_kinetic_names_an_overflowing_omega():
    # h3 = 1.7e308 is finite, omega3 = 2 h3 is not; no RuntimeWarning on the way
    with pytest.raises(DomainError, match=r"^kinetic generator omega = 2h overflows \(h = \(0\.000e\+00, 0\.000e\+00, 1\.700e\+308\)\)$"):
        build_kinetic([[1.7e308, 0.0], [0.0, -1.7e308]], 0.0)


def test_evolution_past_the_square_overflow():
    # |omega|^2 overflows past about 1.3e154: the rotation still runs, and an overflowing angle is named
    system = build_kinetic(np.diag([1e200, -1e200]), 0.0)
    reference = sample_trajectory(build_kinetic(SIGMA_Z, 0.0), P0_X, 1.0, 8)
    scaled = sample_trajectory(system, P0_X, 1e-200, 8)
    np.testing.assert_allclose(scaled.probs, reference.probs, rtol=0, atol=1e-15)
    with pytest.raises(DomainError, match=r"^rotation angle \|omega\| t overflows \(\|omega\| = 2\.000e\+200, t up to 1\.000e\+200\)$"):
        sample_trajectory(system, P0_X, 1e200, 8)
    with pytest.raises(DomainError, match="rotation angle"):
        evolve(build_kinetic(np.diag([8e307, -8e307]), 0.0), P0_X, -2.0)


def test_generator_formulas_match_the_exact_derivative_fit(rng):
    for _ in range(30):
        checks = kinetic_formula_checks(random_hermitian(rng))
        assert len(checks) == 12
        assert failed_checks(checks) == []


def test_generator_mismatch_detector_fires(rng):
    h = random_hermitian(rng)
    with pytest.warns(FormulaMismatchWarning, match="kinetic generator"):
        system = build_kinetic(h, 0.0, fd_tol=-1.0)
    # the fitted generator stays numerically close to the closed forms
    reference = build_kinetic(h, 0.0)
    np.testing.assert_allclose(system.L, reference.L, rtol=0, atol=1e-6)
    np.testing.assert_allclose(system.C, reference.C, rtol=0, atol=1e-6)


def test_a_failing_check_warns_and_keeps_the_closed_form(rng):
    for _ in range(20):
        h = random_hermitian(rng)
        with pytest.warns(FormulaMismatchWarning, match="kinetic generator"):
            system = build_kinetic(h, 0.0, fd_tol=-1.0)
        assert system == build_kinetic(h, 0.0)


def test_mismatch_warns_on_every_call(rng):
    h = random_hermitian(rng)
    for _ in range(2):
        with pytest.warns(FormulaMismatchWarning, match="kinetic generator"):
            build_kinetic(h, 0.0, fd_tol=-1.0)


def test_mutating_a_result_leaves_the_next_build_intact(rng):
    h = random_hermitian(rng)
    first = build_kinetic(h, 0.0)
    L, C = first.L.copy(), first.C.copy()
    first.L[0, 1] = 99.0
    first.C[:] = -7.0
    # L and C are derived afresh on each access, so the system itself is intact too
    np.testing.assert_array_equal(first.L, L)
    np.testing.assert_array_equal(first.C, C)
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
    system = build_kinetic(np.array([[d1, re - 1j * im], [re + 1j * im, d2]]), 0.0)
    p0 = ball_triple(bloch)
    trajectory = sample_trajectory(system, p0, steps * 10.0 ** log_dt, steps)
    for t, row in zip(trajectory.times, trajectory.probs):
        np.testing.assert_array_equal(row, evolve(system, p0, float(t)).as_array())
        assert abs(check_ball(ProbTriple.from_array(row)) - check_ball(p0)) <= 1e-15


# an axis component: 0, or +-10^-r for r up to 300, so the axis's ratios reach 1e-300
axis_part = st.one_of(st.just(0.0), st.builds(lambda sign, r: sign * 10.0 ** -r,
                                               st.sampled_from([-1.0, 1.0]), st.floats(0.0, 300.0)))


def rows_bytes(rows) -> bytes:
    return np.array(rows, dtype=float).reshape(-1, 3).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    axis=st.tuples(axis_part, axis_part, axis_part),
    log_norm=st.floats(-9.0, 9.0),
    bloch=st.tuples(unit, unit, unit),
    log_t=st.floats(-9.0, 9.0),
    steps=st.integers(1, 500),
)
@example(axis=(0.0, 0.0, 0.0), log_norm=0.0, bloch=(0.3, -0.2, 0.1), log_t=0.0, steps=5)  # omega = 0
# k1 and k2 near underflow, beside a p1 of exactly 0
@example(axis=(1.0, 1e-300, -1e-300), log_norm=0.0, bloch=(-1.0, 0.0, 1e-15), log_t=1.0, steps=7)
# rounding collapses the grid to [0, 0, 5e-324, 5e-324]: both routes refuse it alike
@example(axis=(0.0, 0.0, 1.0), log_norm=0.0, bloch=(1.0, 0.0, 0.0), log_t=math.log10(5e-324), steps=3)
def test_cli_rows_equal_sample_trajectory_and_evolve(axis, log_norm, bloch, log_t, steps):
    length = math.hypot(*axis)
    omega = tuple(10.0 ** log_norm * (a / length) for a in axis) if length else (0.0, 0.0, 0.0)
    system = KineticSystem(omega, 0.0)
    p0 = ball_triple(bloch)
    t_end = 10.0 ** log_t
    # the grid is np.linspace's, also where its step underflows and the grid is then refused
    assert np.array(_linspace(t_end, steps + 1)).tobytes() == np.linspace(0.0, t_end, steps + 1).tobytes()
    try:
        trajectory = sample_trajectory(system, p0, t_end, steps)
    except DomainError as exc:
        with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
            _trajectory_rows(system, p0, t_end, steps, DEFAULT_TOL)
        return
    times, rows = _trajectory_rows(system, p0, t_end, steps, DEFAULT_TOL)
    rows = list(rows)
    assert np.array(times).tobytes() == trajectory.times.tobytes()
    assert rows_bytes(rows) == trajectory.probs.tobytes()
    assert rows_bytes([evolve(system, p0, t).as_array() for t in times]) == rows_bytes(rows)


def test_trajectory_grid_up_to_the_float_maximum():
    # linspace's step times the last index overflows before t_end replaces it: a RuntimeWarning,
    # an error under pyproject's filters, though the grid is finite
    system = KineticSystem((0.0, 0.0, 1e-300), 0.0)
    p0 = ProbTriple(0.7, 0.4, 0.55)
    trajectory = sample_trajectory(system, p0, sys.float_info.max, 3)
    times, rows = _trajectory_rows(system, p0, sys.float_info.max, 3, DEFAULT_TOL)
    assert trajectory.times.tolist() == times == _linspace(sys.float_info.max, 4)
    assert rows_bytes(list(rows)) == trajectory.probs.tobytes()


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
    pt = evolve(build_kinetic(h, 0.0), p0, t)
    assert abs(check_ball(pt) - check_ball(p0)) <= 1e-15
    if 2.0 * np.linalg.norm(pauli_components(h)[1]) * t <= 1e3:
        exact = probs_from_density(heisenberg_exact(density_from_probs(p0), h, t))
        np.testing.assert_allclose(pt.as_array(), exact.as_array(), rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(-1000, 1000))
@example(k=-1000)
@example(k=-600)
@example(k=1000)
def test_vector_lengths_hold_at_every_power_of_two(k):
    # 2^k H scales omega and |omega| by 2^k exactly, so with t scaled by 2^-k the angle and the
    # axis, and so every row, are the k = 0 ones bit for bit; a length summed from unscaled
    # squares underflows to 0 for k <= -520 and leaves p0 unmoved. A direction of length 2^k is
    # rejected under that name, with no overflow warning (an error under pyproject's filters).
    scale = 2.0 ** k
    h = np.array([[0.7, 0.3 - 0.4j], [0.3 + 0.4j, -0.2]])
    p0 = ProbTriple(0.6, 0.45, 0.3)
    expected = evolve(build_kinetic(h, 0.0), p0, 1.3)
    assert expected != p0
    got = evolve(build_kinetic(scale * h, 0.0), p0, 1.3 / scale)
    assert got.as_array().tobytes() == expected.as_array().tobytes()
    if k != 0:
        with pytest.raises(DomainError, match=re.escape(f"|n| = {scale!r}")):
            state_tomogram(p0, [scale, 0.0, 0.0])


@settings(max_examples=200, deadline=None)
@given(entries=st.tuples(unit, unit, unit, unit), log_norm=st.floats(-9.0, 9.0))
@example(entries=(1.0, -1.0, 0.3, 0.0), log_norm=6.0)
def test_validated_generator_is_the_closed_form_at_every_scale(entries, log_norm):
    d1, d2, re, im = (10.0 ** log_norm * e for e in entries)
    h = np.array([[d1, re - 1j * im], [re + 1j * im, d2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        checked = build_kinetic(h, 0.0, fd_tol=FD_TOL)
    closed = build_kinetic(h, 0.0)
    assert checked.L.tobytes() == closed.L.tobytes()
    assert checked.C.tobytes() == closed.C.tobytes()


@settings(max_examples=200, deadline=None)
@given(entries=st.tuples(unit, unit, unit, unit), log_norm=st.floats(-9.0, 13.0))
# at 1e12 the oracle's rounding (about 2.4e-16 |H|) passed the absolute 1e-4
@example(entries=(0.6265404784005448, 0.8255111545554434, 0.21327155153435973, 0.4589931219679968),
         log_norm=12.0)
def test_kinetic_check_is_quiet_at_large_norms(entries, log_norm):
    d1, d2, re, im = (10.0 ** log_norm * e for e in entries)
    h = np.array([[d1, re - 1j * im], [re + 1j * im, d2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        checked = build_kinetic(h, 0.0, fd_tol=FD_TOL)
        checks = kinetic_formula_checks(h)
    assert failed_checks(checks) == []
    closed = build_kinetic(h, 0.0)
    assert checked.L.tobytes() == closed.L.tobytes()
    assert checked.C.tobytes() == closed.C.tobytes()


def test_fallback_at_large_norm_is_a_valid_system(rng):
    h = random_hermitian(rng, scale=1e9)
    with pytest.warns(FormulaMismatchWarning, match="kinetic generator"):
        system = build_kinetic(h, 0.0, fd_tol=-1.0)
    assert isinstance(system, KineticSystem)
    reference = build_kinetic(h, 0.0)
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
    # rounding collapses this grid to [0, 0, 5e-324, 5e-324]
    with pytest.raises(DomainError, match="^trajectory times must be strictly increasing$"):
        sample_trajectory(system, P0_X, 5e-324, 3)


def test_trajectory_steps_must_be_an_integer():
    system = build_kinetic(SIGMA_Z, 0.0)
    for bad in (2.7, 3.0, "3", np.nan):
        with pytest.raises(DomainError, match=r"^steps must be an integer, got "):
            sample_trajectory(system, P0_X, 1.0, bad)
    # numpy integers count as integers
    expected = sample_trajectory(system, P0_X, 1.0, 3).times.tolist()
    for steps in (np.int64(3), np.int32(3)):
        assert sample_trajectory(system, P0_X, 1.0, steps).times.tolist() == expected
