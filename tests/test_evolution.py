"""Kinetic equation: generator values, exact propagation, and matrix-side agreement."""

import math
import operator
import re
import sys
import tracemalloc
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
    state_tomogram,
)
from qprob import evolution, observable_map, qubit_core
from qprob.diagnostics import failed_checks, heisenberg_exact
from qprob.evolution import FD_TOL, _trajectory_rows, _turn
from qprob.matrix_oracle import IDENTITY, SIGMA_X, SIGMA_Z
from qprob.observable_map import admissible_shift_bound, conservative_shift_bound
from qprob.qubit_core import DEFAULT_TOL, _as_float

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
    with pytest.raises(DomainError, match=r"^kinetic angular velocity omega needs 3 components, got shape \(2,\)$"):
        KineticSystem(omega=(1.0, 2.0), x=0.0)
    # omega is read as every 3-vector is, so a scalar or a matrix is a DomainError too
    for bad, shape in ((1.0, r"\(\)"), ([[1, 2, 3]], r"\(1, 3\)")):
        with pytest.raises(DomainError, match=rf"^kinetic angular velocity omega needs 3 components, got shape {shape}$"):
            KineticSystem(bad, 0.0)


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
# a grid as long as the trajectory benchmark's, where the rows are built column by column
@example(axis=(0.3, -0.5, 0.8), log_norm=0.5, bloch=(0.2, 0.6, -0.4), log_t=1.0, steps=4000)
def test_cli_rows_equal_sample_trajectory_and_evolve(axis, log_norm, bloch, log_t, steps):
    length = math.hypot(*axis)
    omega = tuple(10.0 ** log_norm * (a / length) for a in axis) if length else (0.0, 0.0, 0.0)
    system = KineticSystem(omega, 0.0)
    p0 = ball_triple(bloch)
    t_end = 10.0 ** log_t
    try:
        trajectory = sample_trajectory(system, p0, t_end, steps)
    except DomainError as exc:
        with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
            _trajectory_rows(system, p0, t_end, steps, DEFAULT_TOL)
        return
    times, rows = _trajectory_rows(system, p0, t_end, steps, DEFAULT_TOL)
    rows = list(rows)
    # an accepted grid is np.linspace's
    assert np.array(times).tobytes() == np.linspace(0.0, t_end, steps + 1).tobytes()
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
    with np.errstate(over="ignore"):
        expected = np.linspace(0.0, sys.float_info.max, 4).tolist()
    assert trajectory.times.tolist() == times == expected
    assert rows_bytes(list(rows)) == trajectory.probs.tobytes()



def reference_evolve_observable(a0, h, x, t):
    """evolve_observable as it was: H validated a second time by build_kinetic, and A(t) formed by
    three numpy operations. Kept as the reference the closed form must equal bit for bit."""
    rows, lam_min, _ = observable_map._accept(a0, "observable")
    x = _as_float(x)
    p0 = observable_map._triple(rows, lam_min, x)
    pt = evolution._evolve_at(build_kinetic(h, x).omega, p0, t)
    denom = (rows[0][0].real + rows[1][1].real) + 2.0 * x
    return denom * qubit_core._density(pt) - x * IDENTITY


def reference_grid_inputs(p0, t_end, steps, tol):
    """_grid_inputs as it was, before it checked the grid: the reference's own input checks."""
    t_end = _as_float(t_end)
    if not math.isfinite(t_end) or t_end <= 0.0:
        raise DomainError(f"t_end must be finite and positive, got {t_end!r}")
    try:
        if isinstance(steps, bool):  # operator.index takes True as 1
            raise TypeError
        steps = operator.index(steps)
    except TypeError:
        raise DomainError(f"steps must be an integer, got {steps!r}") from None
    if steps < 1:
        raise DomainError(f"steps must be at least 1, got {steps}")
    qubit_core.require_physical(p0, tol)
    return t_end, steps, t_end / steps


def reference_sample_trajectory(system, p0, t_end, steps, tol=DEFAULT_TOL):
    """sample_trajectory as it was: its times from np.linspace, always compared element by element.
    Kept as the reference the one grid formula and its scalar check must equal bit for bit."""
    t_end, steps = reference_grid_inputs(p0, t_end, steps, tol)[:2]
    # near the float maximum, linspace's step * (num - 1) overflows before it sets the last time to t_end
    with np.errstate(over="ignore"):
        times = np.linspace(0.0, t_end, steps + 1)
    if not (times[1:] > times[:-1]).all():
        raise DomainError(evolution._COLLAPSED_GRID)
    norm, p, k1, k2 = evolution._rodrigues_terms(system.omega, p0, t_end)
    if k1 is None:
        probs = np.tile(p, (times.size, 1))
    else:
        scratch = norm * times
        s = np.sin(scratch)
        h = np.sin(np.multiply(0.5, scratch, out=scratch), out=scratch)
        hh = 2.0 * h
        hh *= h
        probs = np.empty((times.size, 3))
        for j in range(3):
            column = probs[:, j]
            np.multiply(s, k1[j], out=column)
            column += np.multiply(hh, k2[j], out=scratch)
            column += p[j]
    times.flags.writeable = False
    probs.flags.writeable = False
    return Trajectory(times=times, probs=probs, x=system.x)


def outcome(call, *args):
    """A call's result, as bytes, or the type and message of the error it raised."""
    try:
        result = call(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is the outcome compared
        return type(exc), str(exc)
    if isinstance(result, Trajectory):
        return result.times.tobytes(), result.probs.tobytes(), result.x
    return result.tobytes()


def scaled_hermitian(entries, log_norm):
    d1, d2, re, im = (10.0 ** log_norm * e for e in entries)
    return np.array([[d1, re - 1j * im], [re + 1j * im, d2]])


signed_time = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, log_t: sign * 10.0 ** log_t, st.sampled_from([-1.0, 1.0]), st.floats(-9.0, 6.0)),
    st.floats(-1e6, 1e6),
)


@settings(max_examples=300, deadline=None)
@given(
    a_entries=st.tuples(unit, unit, unit, unit),
    a_log_norm=st.floats(-9.0, 9.0),
    h_entries=st.tuples(unit, unit, unit, unit),
    h_log_norm=st.floats(-9.0, 9.0),
    above=st.one_of(st.sampled_from([0.0, -1e-9, 1e-15]), st.floats(0.0, 10.0)),
    nudge=st.integers(-2, 2),
    t=signed_time,
)
# a diagonal A0 and H, with off-diagonal zeros of both signs, at the bound and at t = -0
@example(a_entries=(1.0, -1.0, -0.0, 0.0), a_log_norm=0.0, h_entries=(0.5, 0.5, 0.0, -0.0), h_log_norm=0.0,
         above=0.0, nudge=0, t=-0.0)
# a multiple of the identity, where only shifts strictly above the bound are admissible
@example(a_entries=(0.3, 0.3, 0.0, 0.0), a_log_norm=9.0, h_entries=(1.0, -1.0, 0.3, 0.2), h_log_norm=-9.0,
         above=0.0, nudge=1, t=1e6)
def test_evolve_observable_is_the_reference(a_entries, a_log_norm, h_entries, h_log_norm, above, nudge, t):
    a0 = scaled_hermitian(a_entries, a_log_norm)
    h = scaled_hermitian(h_entries, h_log_norm)
    bound = admissible_shift_bound(a0)
    # at, just beside and above the admissible bound, in units of the matrix's size
    x = bound + above * 10.0 ** a_log_norm
    for _ in range(abs(nudge)):
        x = math.nextafter(x, math.copysign(math.inf, nudge))
    expected = outcome(reference_evolve_observable, a0, h, x, t)
    assert outcome(evolve_observable, a0, h, x, t) == expected
    # nested lists take the same path through the entry kernels
    assert outcome(evolve_observable, a0.tolist(), h.tolist(), x, t) == expected


def test_evolve_observable_checks_in_the_reference_order():
    good = [[1.0, 0.0], [0.0, -1.0]]
    bad = [[1.0, 2.0], [0.0, -1.0]]
    cases = [
        (bad, bad, 0.5, 1.0),  # A0 first
        (good, bad, -5.0, 1.0),  # then the shift
        (good, bad, 2.0, 1.0),  # then H
        (good, [[1e308, 1e308], [1e308, -1e308]], 2.0, 1.0),  # an overflowing omega
        (good, good, 2.0, math.nan),  # then the time
        (good, [[1e300, 0.0], [0.0, -1e300]], 2.0, 1e10),  # and the rotation angle
        (good, good, math.inf, 1.0),  # a shift that is not finite is inadmissible
    ]
    for a0, h, x, t in cases:
        expected = outcome(reference_evolve_observable, a0, h, x, t)
        assert expected[0] is DomainError
        assert outcome(evolve_observable, a0, h, x, t) == expected



def test_evolve_observable_keeps_the_signed_zeros_of_the_reference():
    # a subnormal A0 at a negative shift: d * Re rho21 underflows to -0, and numpy subtracts
    # x * 0j, whose real part is -0 here, so the entry is +0; subtracting a plain 0j gives -0
    a0 = [[2e-323, -0j], [0j, 1.5e-323]]
    h = [[-0.2028896799241784, -0.871616036990404 - 0.365300924035709j],
         [-0.871616036990404 + 0.365300924035709j, 0.20289380803401014]]
    a_t = evolve_observable(a0, h, -1.5e-323, -2.3318261392386486)
    assert a_t.tobytes() == reference_evolve_observable(a0, h, -1.5e-323, -2.3318261392386486).tobytes()
    assert math.copysign(1.0, a_t[1, 0].real) == 1.0

TINY_STEP = 2.0 ** -1022  # the least normal float


def assert_grid_is_the_reference(system, p0, t_end, steps):
    """Both grid builders give the reference's bytes, or its error type and message."""
    expected = outcome(reference_sample_trajectory, system, p0, t_end, steps)
    assert outcome(sample_trajectory, system, p0, t_end, steps) == expected
    # the CLI's grid refuses the same grids with the same message, and otherwise has the same times
    try:
        times, _ = _trajectory_rows(system, p0, t_end, steps, DEFAULT_TOL)
    except DomainError as exc:
        assert (DomainError, str(exc)) == expected
    else:
        assert np.array(times).tobytes() == expected[0]
    return expected


@settings(max_examples=150, deadline=None)
@given(
    t_end=st.one_of(st.floats(5e-324, sys.float_info.max),
                    st.builds(lambda e: 10.0 ** e, st.floats(-323.3, 308.25))),
    steps=st.one_of(st.integers(1, 40), st.integers(1, 100_000)),
    omega=st.sampled_from([(0.6, -1.0, 1.6), (0.0, 0.0, 1e-300), (0.0, 0.0, 0.0)]),
)
# step = 2^-1022 exactly, a normal step, and its predecessor, the largest subnormal, whose
# products are exact
@example(t_end=4 * TINY_STEP, steps=4, omega=(0.6, -1.0, 1.6))
@example(t_end=2 * math.nextafter(TINY_STEP, 0.0), steps=2, omega=(0.6, -1.0, 1.6))
@example(t_end=1024 * math.nextafter(TINY_STEP, 0.0), steps=1024, omega=(0.6, -1.0, 1.6))
# step underflows to 0, and linspace's grid collapses to [0, 0, 5e-324, 5e-324]
@example(t_end=5e-324, steps=3, omega=(0.6, -1.0, 1.6))
# a subnormal step that rounds up: fl(1e-323 / 3) = 5e-324, so 2 * step = t_end
@example(t_end=1e-323, steps=3, omega=(0.6, -1.0, 1.6))
# linspace's last product overflows here; the one grid formula never forms it
@example(t_end=sys.float_info.max, steps=3, omega=(0.0, 0.0, 1e-300))
@example(t_end=sys.float_info.max, steps=100_000, omega=(0.0, 0.0, 0.0))
def test_trajectory_grid_is_the_reference(t_end, steps, omega):
    assert_grid_is_the_reference(KineticSystem(omega, 0.0), ProbTriple(0.7, 0.4, 0.55), t_end, steps)


GRID_BOUNDARIES = (
    (4 * TINY_STEP, 4, True),  # step = 2^-1022
    (2 * math.nextafter(TINY_STEP, 0.0), 2, True),  # step is its predecessor
    (1e-323, 3, False),  # step rounds up to 5e-324, and (steps - 1) * step = t_end
    (5e-324, 3, False),  # step underflows to 0
    (5e-324, 1, True),  # the grid [0, 5e-324]
    (sys.float_info.max, 3, True),
    (sys.float_info.max, 100_000, True),
)


def test_grid_scalar_check_boundaries():
    system = KineticSystem((0.0, 0.0, 1.0), 0.0)
    for t_end, steps, accepted in GRID_BOUNDARIES:
        step = t_end / steps
        assert (step > 0.0 and (steps - 1) * step < t_end) is accepted
        expected = assert_grid_is_the_reference(system, P0_X, t_end, steps)
        if accepted:
            assert expected[0] is not DomainError
        else:
            assert expected == (DomainError, "trajectory times must be strictly increasing")


def test_grid_check_refuses_what_the_reference_refuses_on_a_subnormal_sweep():
    # every t_end = m * 5e-324 up to m = 64 with up to 256 steps: steps that underflow, round up,
    # round down or are exact, against linspace's grid compared element by element
    system = KineticSystem((0.6, -1.0, 1.6), 0.0)
    p0 = ProbTriple(0.7, 0.4, 0.55)
    refused = 0
    for m in range(1, 65):
        for steps in range(1, 257):
            refused += assert_grid_is_the_reference(system, p0, m * 5e-324, steps)[0] is DomainError
    assert 0 < refused < 64 * 256


@pytest.mark.parametrize("omega", [(0.6, -1.0, 1.6), (0.0, 0.0, 0.0)], ids=["rotating", "static"])
def test_trajectory_arrays_are_c_ordered_and_read_only(omega):
    trajectory = sample_trajectory(KineticSystem(omega, 0.0), ProbTriple(0.7, 0.4, 0.55), 2.0, 9)
    for array, shape in ((trajectory.times, (10,)), (trajectory.probs, (10, 3))):
        assert array.shape == shape and array.dtype == np.float64
        assert array.flags.c_contiguous and not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        trajectory.probs[0, 0] = 9.0
    with pytest.raises(ValueError, match="read-only"):
        trajectory.times[0] = 9.0


def test_trajectory_peak_memory_per_sample():
    # times, the rows and three length-n buffers: 56 B a sample, against 86.7 for (n, 3) broadcasts
    system = KineticSystem((0.6, -1.0, 1.6), 0.0)
    p0 = ProbTriple(0.7, 0.4, 0.55)
    steps = 20_000
    sample_trajectory(system, p0, 3.0, steps)  # numpy's first calls allocate caches of their own
    tracemalloc.start()
    try:
        sample_trajectory(system, p0, 3.0, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (steps + 1) <= 64.0


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


@pytest.mark.skipif(not hasattr(math, "fma"), reason="math.fma is new in Python 3.13")
def test_turn_is_the_fused_multiply_add(rng):
    # _turn emulates fma(a, b, c * d) with a correctly rounded sum; where the interpreter
    # has math.fma, the two agree bit for bit, down to products in the subnormals and up to
    # factors near the float max. v is an offset from the ball center in use; here it spans
    # 1e-320 to 1e307
    for _ in range(20000):
        u = rng.normal(size=3)
        u = (u / np.linalg.norm(u)).tolist()
        v = (rng.normal(size=3) * 10.0 ** rng.uniform(-320.0, 307.0)).tolist()
        (u0, u1, u2), (v0, v1, v2) = u, v
        fused = (math.fma(-u1, v2, u2 * v1) + 0.0, math.fma(u0, v2, -u2 * v0) + 0.0, math.fma(u1, v0, -u0 * v1) + 0.0)
        assert [x.hex() for x in _turn(u, v)] == [x.hex() for x in fused], (u, v)


hamiltonian_parts = st.tuples(*[st.floats(-1.0, 1.0)] * 4)


@settings(max_examples=400, deadline=None)
@given(parts=hamiltonian_parts, log_size=st.floats(-9.0, 300.0),
       x=st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-10 ** 6, 10 ** 6)))
@example(parts=(1.0, -1.0, 1.0, 1.0), log_size=300.0, x=0.0)
@example(parts=(0.0, 0.0, 0.0, 0.0), log_size=0.0, x=-0.0)
def test_build_kinetic_holds_what_the_reading_constructor_holds(parts, log_size, x):
    # build_kinetic keeps _omega's floats without reading them again: the system is the one
    # KineticSystem reads from the same omega, at every size of H from 1e-9 to 1e300
    d1, d2, re_part, im_part = (10.0 ** log_size * v for v in parts)
    h = [[d1, complex(re_part, -im_part)], [complex(re_part, im_part), d2]]
    system = build_kinetic(h, x)
    read = KineticSystem(system.omega, x)
    assert system == read and hash(system) == hash(read)
    assert all(type(w) is float and math.isfinite(w) for w in system.omega) and type(system.x) is float


def test_an_overflowing_omega_is_named_before_a_non_finite_shift():
    # the Hermitian guard, then omega's overflow, then the shift, as the checks ran when omega was read again
    with pytest.raises(DomainError, match=r"^kinetic generator omega = 2h overflows \(h = \(0\.000e\+00, 0\.000e\+00, 1\.700e\+308\)\)$"):
        build_kinetic([[1.7e308, 0.0], [0.0, -1.7e308]], math.nan)
    with pytest.raises(DomainError, match=r"^hamiltonian is not Hermitian"):
        build_kinetic([[math.inf, 0.0], [0.0, -1.7e308]], math.nan)
    with pytest.raises(DomainError, match=r"^kinetic shift x must be finite, got nan$"):
        build_kinetic(SIGMA_Z, math.nan)
