"""Observable encoding: shifts, the two-triple representation, and its inverse."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qprob import (
    ChannelSpec,
    DomainError,
    KineticSystem,
    NonInvertibleEncodingWarning,
    ObservableProbRep,
    ProbTriple,
    admissible_shift_bound,
    build_kinetic,
    check_ball,
    conservative_shift_bound,
    decode_observable,
    default_shifts,
    encode_observable,
    evolve,
    evolve_observable,
    observable_areas,
    observable_tomogram,
    probs_from_density,
    require_physical,
    rho_of_x,
    sample_trajectory,
    state_tomogram,
)
from qprob.diagnostics import heisenberg_exact
from qprob.matrix_oracle import IDENTITY, SIGMA_X, SIGMA_Z
from qprob.tomography_channels import Direction

from conftest import random_hermitian

H_EXAMPLE = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 0.0]])
SQRT3 = np.sqrt(3.0)


def solve_encoding_least_squares(rep):
    """Independent inverse: least-squares solve of the defining linear equations.

    Unknowns (h11, h22, re21, im21); each shift contributes the three equations
    p3 (h11 + h22 + 2x) = h11 + x and (p1 - 1/2, p2 - 1/2) (h11 + h22 + 2x) = (re21, im21).
    """
    rows, rhs = [], []
    for x, p in ((rep.a, rep.p_a), (rep.b, rep.p_b)):
        rows.append([1.0 - p.p3, -p.p3, 0.0, 0.0])
        rhs.append((2.0 * p.p3 - 1.0) * x)
        rows.append([-(p.p1 - 0.5), -(p.p1 - 0.5), 1.0, 0.0])
        rhs.append((p.p1 - 0.5) * 2.0 * x)
        rows.append([-(p.p2 - 0.5), -(p.p2 - 0.5), 0.0, 1.0])
        rhs.append((p.p2 - 0.5) * 2.0 * x)
    solution, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    h11, h22, re21, im21 = solution
    return np.array([[h11, re21 - 1j * im21], [re21 + 1j * im21, h22]])


def test_shift_bounds_sigma_z():
    assert admissible_shift_bound(SIGMA_Z) == 1.0
    assert conservative_shift_bound(SIGMA_Z) == 1.0
    assert default_shifts(SIGMA_Z) == (2.0, 3.0)


def test_shift_bounds_indefinite_example():
    assert abs(admissible_shift_bound(H_EXAMPLE) - (SQRT3 - 1.0)) < 1e-15
    assert abs(conservative_shift_bound(H_EXAMPLE) - (SQRT3 - 1.0)) < 1e-15


def test_shift_bound_positive_definite_allows_negative_x():
    h = np.diag([2.0, 1.0]).astype(complex)
    assert admissible_shift_bound(h) == -1.0
    assert conservative_shift_bound(h) == 1.0
    # a negative admissible shift really works
    rho = rho_of_x(h, -0.75)
    assert abs(np.trace(rho).real - 1.0) < 1e-15
    assert np.linalg.eigvalsh(rho)[0] >= -1e-15


def test_rho_of_x_sigma_z_diagonal_family():
    for x in (1.5, 2.0, 3.0, 10.0):
        rho = rho_of_x(SIGMA_Z, x)
        assert abs(rho[0, 0] - (0.5 + 0.5 / x)) <= 1e-15
        assert abs(rho[1, 1] - (0.5 - 0.5 / x)) <= 1e-15
        assert rho[0, 1] == 0.0 and rho[1, 0] == 0.0


def test_a_vanishing_normalization_names_its_cause():
    # at the bound of a nearly degenerate H, tr H + 2x is left at the rounding of its terms:
    # the message says so, where it used to ask for x >= the x it was given
    h = [[1.0, 1e-13], [1e-13, 1.0]]
    x = admissible_shift_bound(h)
    message = (f"^shift x = {re.escape(repr(x))} is inadmissible for this matrix; tr H \\+ 2x = "
               f"[-+.e0-9]+ is within rounding of zero, so a larger x is needed$")
    for call in (lambda: rho_of_x(h, x), lambda: encode_observable(h, x, 1.0)):
        with pytest.raises(DomainError, match=message):
            call()
    with pytest.raises(DomainError, match="^shift x = -1.0 .* tr H \\+ 2x = 0.0 is within rounding of zero"):
        rho_of_x(IDENTITY, -1.0)


def test_rho_of_x_rejects_inadmissible():
    with pytest.raises(DomainError, match="inadmissible"):
        rho_of_x(SIGMA_Z, 0.5)
    with pytest.raises(DomainError, match="inadmissible"):
        rho_of_x(IDENTITY, -1.0)  # normalization would vanish
    for scale in (1e-13, 3e-12):  # rho(x) would be indefinite at every scale
        with pytest.raises(DomainError, match="inadmissible"):
            rho_of_x(scale * SIGMA_Z, scale * (5.0 / 6.0))
    with pytest.raises(DomainError):
        rho_of_x(np.array([[0.0, 1.0], [0.0, 0.0]]), 2.0)  # not Hermitian


def test_encode_sigma_z_frozen():
    rep = encode_observable(SIGMA_Z, 2.0, 3.0)
    assert rep.p_a == ProbTriple(0.5, 0.5, 0.75)
    assert rep.p_b.p1 == 0.5 and rep.p_b.p2 == 0.5
    assert abs(rep.p_b.p3 - 2.0 / 3.0) < 1e-16


def test_encode_example_frozen():
    rep = encode_observable(H_EXAMPLE, 1.0, 2.0)
    np.testing.assert_allclose(rep.p_a.as_array(), [0.75, 0.75, 0.75], rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        rep.p_b.as_array(), [2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0], rtol=0, atol=1e-15
    )


def test_encode_identity_gives_center():
    rep = encode_observable(IDENTITY)
    assert rep.p_a == ProbTriple(0.5, 0.5, 0.5)
    assert rep.p_b == ProbTriple(0.5, 0.5, 0.5)


def test_encode_needs_both_shifts():
    with pytest.raises(DomainError, match="both"):
        encode_observable(SIGMA_Z, a=2.0)
    with pytest.raises(DomainError, match="both"):
        encode_observable(SIGMA_Z, b=3.0)


def test_rep_rejects_equal_shifts():
    p = ProbTriple(0.5, 0.5, 0.5)
    with pytest.raises(DomainError, match="differ"):
        ObservableProbRep(2.0, 2.0, p, p)


def test_rep_rejects_a_triple_that_is_not_a_prob_triple():
    # a bare tuple has no p1 for decode_observable and observable_areas to read, so it is refused up front
    p_a, p_b = ProbTriple(0.5, 0.5, 0.75), ProbTriple(0.5, 0.5, 2.0 / 3.0)
    with pytest.raises(DomainError, match=r"^p_a must be a ProbTriple, got \(0\.5, 0\.5, 0\.75\)$"):
        ObservableProbRep(2.0, 3.0, (0.5, 0.5, 0.75), p_b)
    with pytest.raises(DomainError, match=r"^p_b must be a ProbTriple, got \[0\.5, 0\.5, 0\.75\]$"):
        ObservableProbRep(2.0, 3.0, p_a, [0.5, 0.5, 0.75])


def test_float32_shifts_and_triples_read_as_their_floats():
    # float32 shifts kept as given would put the decode in float32 arithmetic, 1.2e-7 off h
    h = [[1.0, 0.3 - 0.2j], [0.3 + 0.2j, -0.5]]
    rep = encode_observable(h, 2.0, 3.0)
    single = ObservableProbRep(np.float32(2.0), np.float32(3.0), rep.p_a, rep.p_b)
    assert type(single.a) is float and type(single.b) is float
    assert decode_observable(single).tobytes() == decode_observable(rep).tobytes()
    assert np.max(np.abs(decode_observable(single) - h)) < 1e-14
    p_a, p_b = (ProbTriple(*np.float32([p.p1, p.p2, p.p3])) for p in (rep.p_a, rep.p_b))
    areas = observable_areas(ObservableProbRep(2.0, 3.0, p_a, p_b))
    assert list(map(type, areas)) == [float, float]


def test_decode_frozen_example():
    rep = encode_observable(H_EXAMPLE, 1.0, 2.0)
    np.testing.assert_allclose(decode_observable(rep), H_EXAMPLE, rtol=0, atol=1e-14)


def test_decode_with_the_larger_shift_first():
    # a > b gives s < 1: the sign test (s - 1)(b - a) > 0 must hold for either order of the shifts
    rep = encode_observable(H_EXAMPLE, 3.0, 2.0)
    np.testing.assert_allclose(decode_observable(rep), H_EXAMPLE, rtol=0, atol=1e-14)


def test_decode_round_trip_random(rng):
    for _ in range(100):
        h = random_hermitian(rng)
        rep = encode_observable(h, *default_shifts(h))
        np.testing.assert_allclose(decode_observable(rep), h, rtol=0, atol=1e-9)


def test_decode_matches_least_squares_oracle(rng):
    for _ in range(50):
        h = random_hermitian(rng)
        rep = encode_observable(h)
        np.testing.assert_allclose(
            decode_observable(rep), solve_encoding_least_squares(rep), rtol=0, atol=1e-8
        )


def test_decode_shift_pair_invariance(rng):
    for _ in range(30):
        h = random_hermitian(rng)
        base = conservative_shift_bound(h)
        first = encode_observable(h, base + 0.7, base + 1.9)
        second = encode_observable(h, base + 3.2, base + 11.0)
        np.testing.assert_allclose(decode_observable(first), decode_observable(second),
                                   rtol=0, atol=1e-8)


def test_decode_equal_diagonal_fallback():
    h = np.array([[1.5, 2.0 - 1.0j], [2.0 + 1.0j, 1.5]])
    rep = encode_observable(h)
    assert abs(rep.p_a.p3 - 0.5) < 1e-15  # equal diagonal pins p3 at 1/2
    np.testing.assert_allclose(decode_observable(rep), h, rtol=0, atol=1e-9)


def test_decode_equal_diagonal_fallback_random(rng):
    for _ in range(50):
        u = rng.uniform(-5.0, 5.0)
        re, im = rng.uniform(-5.0, 5.0, size=2)
        if abs(complex(re, im)) < 1e-2:
            re += 1.0
        h = np.array([[u, re - 1j * im], [re + 1j * im, u]])
        rep = encode_observable(h)
        np.testing.assert_allclose(decode_observable(rep), h, rtol=0, atol=1e-9)


def test_decode_identity_multiple_warns_and_zeroes():
    rep = encode_observable(3.0 * IDENTITY)
    with pytest.warns(NonInvertibleEncodingWarning):
        recovered = decode_observable(rep)
    np.testing.assert_array_equal(recovered, np.zeros((2, 2), dtype=complex))


def test_decode_rejects_inconsistent_off_diagonals():
    rep = encode_observable(H_EXAMPLE, 1.0, 2.0)
    tampered = ObservableProbRep(
        rep.a, rep.b, ProbTriple(rep.p_a.p1 + 2.5e-3, rep.p_a.p2, rep.p_a.p3), rep.p_b
    )
    with pytest.raises(DomainError, match="inconsistent"):
        decode_observable(tampered)


def test_decode_rejects_equal_p3_away_from_half():
    rep = ObservableProbRep(
        1.0, 2.0, ProbTriple(0.6, 0.5, 0.6), ProbTriple(0.55, 0.5, 0.6)
    )
    with pytest.raises(DomainError, match="ill-posed"):
        decode_observable(rep)


def test_decode_rejects_negative_normalization():
    # parallel Bloch vectors with s = 1/2 although b > a: T + 2a and T + 2b
    # would both be negative, so no admissible H encodes to this pair
    rep = ObservableProbRep(
        1.0, 2.0, ProbTriple(0.5, 0.5, 0.6), ProbTriple(0.5, 0.5, 0.7)
    )
    with pytest.raises(DomainError, match="ill-posed"):
        decode_observable(rep)


def test_decode_rejects_equal_triples_at_distinct_shifts():
    # s = 1 would put T = 2 (b - a s) / (s - 1) over zero; no admissible H encodes to this pair
    p = ProbTriple(0.5, 0.5, 0.7)
    with pytest.raises(DomainError, match="ill-posed"):
        decode_observable(ObservableProbRep(1.0, 2.0, p, p))


def test_decode_rejects_an_overflowing_trace():
    # a consistent pair whose trace 2 (b - a s)/(s - 1) overflows: every entry would be NaN
    rep = ObservableProbRep(-1e308, 1e308, ProbTriple(0.5, 0.5, 0.75), ProbTriple(0.5, 0.5, 0.5000001))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape("the trace 2 (b - a s)/(s - 1) = inf")):
            decode_observable(rep)


def test_decode_rejects_unphysical_triples():
    rep = ObservableProbRep(
        1.0, 2.0, ProbTriple(0.9, 0.9, 0.9), ProbTriple(0.5, 0.5, 0.6)
    )
    with pytest.raises(DomainError):
        decode_observable(rep)


def test_observable_tomogram_frozen():
    along_z = observable_tomogram(SIGMA_Z, Direction(0.0, 0.0), 2.0)
    assert along_z == (0.75, 0.25)
    along_x = observable_tomogram(SIGMA_Z, Direction(np.pi / 2.0, 0.0), 2.0)
    assert abs(along_x[0] - 0.5) < 1e-15
    assert abs(along_x[0] + along_x[1] - 1.0) < 1e-15


# at its admissible bound this H's triple reads p1 = 1 + 5.8e-8: tr H + 2x is small, and the quotient rounds
_ROUNDS_OUT_AT_BOUND = [[1.0, 2.4532112507341666e-10], [2.4532112507341666e-10, 1.0]]
_BOUND_OF_ROUNDS_OUT = -0.9999999997546789


def test_observable_tomogram_refuses_a_triple_that_rounds_out_of_the_cube():
    with pytest.raises(DomainError, match=r"^p1 = 1\.0000000576862416 violates 0 <= p1 <= 1$"):
        observable_tomogram(_ROUNDS_OUT_AT_BOUND, Direction(math.pi / 2.0, 0.0), _BOUND_OF_ROUNDS_OUT)


def test_observable_tomogram_matches_density_diagonal(rng):
    from qprob.diagnostics import euler_unitary

    for _ in range(50):
        h = random_hermitian(rng)
        x = conservative_shift_bound(h) + rng.uniform(0.5, 3.0)
        direction = Direction(float(np.arccos(rng.uniform(-1.0, 1.0))),
                              float(rng.uniform(0.0, 2.0 * np.pi)))
        u = euler_unitary(direction)
        rotated = u @ rho_of_x(h, x) @ u.conj().T
        w_plus, w_minus = observable_tomogram(h, direction, x)
        assert abs(w_plus - rotated[0, 0].real) < 1e-12
        assert w_plus + w_minus == 1.0


unit = st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    entries=st.tuples(unit, unit, unit, unit),
    log_norm=st.floats(-9.0, 9.0),
    shifts=st.none() | st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
)
# subnormal H21 and d: dividing by d through its reciprocal 1/d would overflow
@example(entries=(0.0, 0.0, 0.0, 2.225073858507e-311), log_norm=0.0, shifts=None)
# det H underflows unless the entries are scaled first: shift 0 was taken as admissible
@example(entries=(0.0, 2.2250738585072014e-308, 2.2250738585072014e-308, 0.0), log_norm=0.0, shifts=(0.0, 1.0))
def test_encode_is_the_triples_of_rho_at_each_shift(entries, log_norm, shifts):
    # encode validates H and solves its spectrum once; the result, or the error,
    # must be that of reading each rho(x) through the public calls separately
    scale = 10.0 ** log_norm
    d1, d2, re, im = (scale * e for e in entries)
    h = np.array([[d1, re - 1j * im], [re + 1j * im, d2]])
    a, b = default_shifts(h) if shifts is None else (scale * shifts[0], scale * shifts[1])
    try:
        p_a = probs_from_density(rho_of_x(h, a))
        p_b = probs_from_density(rho_of_x(h, b))
        expected = ObservableProbRep(a, b, p_a, p_b)
    except DomainError as exc:
        with pytest.raises(DomainError) as caught:
            encode_observable(h, *(() if shifts is None else (a, b)))
        assert str(caught.value) == str(exc)
        return
    rep = encode_observable(h, *(() if shifts is None else (a, b)))
    assert (rep.a, rep.b) == (expected.a, expected.b)
    assert rep.p_a.as_array().tobytes() == expected.p_a.as_array().tobytes()
    assert rep.p_b.as_array().tobytes() == expected.p_b.as_array().tobytes()


def test_encode_checks_each_matrix_once(guard_counts):
    names, solved = guard_counts
    encode_observable(H_EXAMPLE)
    # H once; the triples are read off it, with no rho(x) to check again
    assert names == ["observable"]
    assert len(solved) == 1


def test_observable_tomogram_checks_h_once(guard_counts):
    names, solved = guard_counts
    observable_tomogram(H_EXAMPLE, Direction(1.0, 2.0), 1.0)
    assert names == ["observable"]
    assert len(solved) == 1


def observable_of(log_norm, log_ratio, sign, direction, diagonal_gap):
    """H = h0 I + hvec . sigma with ||H|| = 10**log_norm and |hvec|/||H|| = 10**log_ratio.

    diagonal_gap, when given, shrinks the z-component of the direction to that
    power of ten, so H11 and H22 nearly coincide.
    """
    nx, ny, nz = direction
    if diagonal_gap is not None:
        nz = np.copysign(10.0 ** diagonal_gap, nz)
    n = np.array([nx, ny, nz]) / np.linalg.norm([nx, ny, nz])
    norm, ratio = 10.0 ** log_norm, 10.0 ** log_ratio
    h0, hx, hy, hz = sign * (1.0 - ratio) * norm, *(ratio * norm * n)
    return np.array([[h0 + hz, hx - 1j * hy], [hx + 1j * hy, h0 - hz]])


unit_direction = st.tuples(unit, unit, unit).filter(lambda v: np.linalg.norm(v) > 0.1)


@settings(max_examples=300, deadline=None)
@given(
    log_norm=st.floats(-9.0, 9.0),
    log_ratio=st.floats(-6.0, 0.0),
    sign=st.sampled_from((-1.0, 1.0)),
    direction=unit_direction,
    diagonal_gap=st.none() | st.floats(-16.0, -3.0),
)
def test_round_trip_is_scale_free(log_norm, log_ratio, sign, direction, diagonal_gap):
    # the error left is the encoding's own conditioning, ||H|| / |hvec| relative
    h = observable_of(log_norm, log_ratio, sign, direction, diagonal_gap)
    lam_min, lam_max = np.linalg.eigvalsh(h)
    norm, hvec = max(abs(lam_min), abs(lam_max)), 0.5 * (lam_max - lam_min)
    recovered = decode_observable(encode_observable(h))
    assert np.max(np.abs(recovered - h)) <= 1e-12 * norm * norm / hvec


@settings(max_examples=300, deadline=None)
@given(
    log_norm=st.floats(-9.0, 9.0),
    log_ratio=st.floats(-16.0, -10.0),
    sign=st.sampled_from((-1.0, 1.0)),
    direction=unit_direction,
)
def test_near_identity_decodes_or_warns(log_norm, log_ratio, sign, direction):
    rep = encode_observable(observable_of(log_norm, log_ratio, sign, direction, None))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        recovered = decode_observable(rep)
    assert all(w.category is NonInvertibleEncodingWarning for w in caught)
    assert np.all(np.isfinite(recovered))
    if caught:
        np.testing.assert_array_equal(recovered, np.zeros((2, 2), dtype=complex))


_SIGMA_Z_PAIR = (ProbTriple(0.5, 0.5, 0.75), ProbTriple(0.5, 0.5, 2.0 / 3.0))
# an integer past the float range, which float() cannot convert
_HUGE = 10**400
_P0 = ProbTriple(0.5, 0.5, 1.0)


@pytest.mark.parametrize("call, match", [
    (lambda: rho_of_x(SIGMA_Z, np.nan), "x = nan is inadmissible"),
    (lambda: encode_observable(SIGMA_Z, np.nan, 3.0), "x = nan is inadmissible"),
    (lambda: observable_tomogram(SIGMA_Z, Direction(1.0, 1.0), np.nan), "x = nan is inadmissible"),
    (lambda: evolve_observable(SIGMA_Z, SIGMA_X, np.nan, 1.0), "x = nan is inadmissible"),
    (lambda: evolve_observable(SIGMA_Z, SIGMA_X, 1.0, np.nan), "time must be finite"),
    (lambda: decode_observable(ObservableProbRep(2.0, np.inf, *_SIGMA_Z_PAIR)), "b = inf"),
    (lambda: decode_observable(ObservableProbRep(-np.inf, 3.0, *_SIGMA_Z_PAIR)), "a = -inf"),
    (lambda: ChannelSpec(((np.nan, IDENTITY),)), "weight 0 .*nan"),
    (lambda: state_tomogram(ProbTriple(0.5, 0.5, 1.0), [np.nan, 0.0, 0.0]), "unit length.*nan"),
    (lambda: evolve(build_kinetic(SIGMA_Z, 0.0), _P0, _HUGE), "time must be finite, got inf"),
    (lambda: evolve(build_kinetic(SIGMA_Z, 0.0), _P0, -_HUGE), "time must be finite, got -inf"),
    (lambda: sample_trajectory(build_kinetic(SIGMA_Z, 0.0), _P0, _HUGE, 3), "t_end must be finite .* got inf"),
    (lambda: evolve_observable(SIGMA_Z, SIGMA_X, 1.0, _HUGE), "time must be finite, got inf"),
    (lambda: build_kinetic(SIGMA_Z, _HUGE), "shift x must be finite, got inf"),
    (lambda: KineticSystem((_HUGE, 0, 0), 0.0), r"omega must be finite, got \(inf, 0\.0, 0\.0\)"),
    (lambda: encode_observable(SIGMA_Z, _HUGE, 3.0), "x = inf is inadmissible"),
    (lambda: rho_of_x(SIGMA_Z, _HUGE), "x = inf is inadmissible"),
    (lambda: observable_tomogram(SIGMA_Z, Direction(1.0, 1.0), _HUGE), "x = inf is inadmissible"),
    (lambda: evolve_observable(SIGMA_Z, SIGMA_X, _HUGE, 1.0), "x = inf is inadmissible"),
    (lambda: ObservableProbRep(_HUGE, 3.0, *_SIGMA_Z_PAIR), "a = inf"),
    (lambda: ChannelSpec(((_HUGE, IDENTITY),)), "sum to 1, got inf"),
    (lambda: require_physical(ProbTriple(_HUGE, 0.5, 0.5)), "p1 = inf violates"),
    (lambda: state_tomogram(_P0, [_HUGE, 0, 0]), r"unit length, got \|n\| = inf"),
    (lambda: Direction(_HUGE, 0.0), r"^theta = inf outside \[0, pi\]$"),
    (lambda: sample_trajectory(build_kinetic(SIGMA_Z, 0.0), _P0, 1.0, True), "^steps must be an integer, got True$"),
], ids=["rho-of-x", "encode", "observable-tomogram", "evolve-observable", "evolve-observable-time",
        "decode-inf-b", "decode-minus-inf-a", "channel-weight", "state-tomogram-direction",
        "huge-int-evolve-time", "huge-negative-int-evolve-time", "huge-int-trajectory-t-end",
        "huge-int-evolve-observable-time", "huge-int-kinetic-shift", "huge-int-kinetic-omega",
        "huge-int-encode", "huge-int-rho-of-x", "huge-int-observable-tomogram",
        "huge-int-evolve-observable", "huge-int-decode-a", "huge-int-channel-weight",
        "huge-int-physical-triple", "huge-int-direction-vector", "huge-int-direction-angle",
        "bool-trajectory-steps"])
def test_non_finite_library_input_is_rejected_by_name(call, match):
    # no numpy RuntimeWarning on the way, and no NaN result in place of the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=match):
            call()


def test_huge_integers_in_a_triple_read_as_infinities():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ProbTriple.from_array([_HUGE, 0, 0]) == ProbTriple(math.inf, 0.0, 0.0)
        assert check_ball(ProbTriple(_HUGE, 0.5, 0.5)) == -math.inf
        assert check_ball(ProbTriple(0.5, -_HUGE, 0.5)) == -math.inf


@pytest.mark.parametrize("t", [1e-300, 1e300])
def test_round_trip_at_the_ends_of_the_float_range(t):
    h = t * np.array([[0.0, 1.0], [1.0, 1.0]], dtype=complex)
    recovered = decode_observable(encode_observable(h))
    assert np.max(np.abs(recovered - h)) <= 1e-15 * t


@pytest.mark.parametrize("scale", [1e6, 1e9])
def test_encode_accepts_heisenberg_exact_at_large_norms(scale):
    # the exact evolution rounds at about eps * ||h||; the Hermitian guard scales with it
    a = np.random.default_rng(7).standard_normal((2, 2)) * scale
    h = (a + a.T) / 2.0
    g = np.array([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, -0.5]])
    evolved = heisenberg_exact(h, g, 0.7)
    rep = encode_observable(evolved)
    np.testing.assert_allclose(decode_observable(rep), evolved, rtol=0, atol=1e-12 * scale)


def test_huge_identity_multiple_names_the_overflow():
    # tr H and the default shifts of 1e308 I leave the float range
    with pytest.raises(DomainError, match="default shifts overflow"):
        encode_observable(1e308 * IDENTITY)
    with pytest.raises(DomainError, match="tr H \\+ 2x overflows"):
        encode_observable(1e308 * IDENTITY, 1.0, 2.0)
