"""End-to-end acceptance checks, one test per release criterion.

Each test is summarized as a single PASS/FAIL line in the terminal report
(see the hook in conftest.py).  Tolerances here are release gates; the
per-module suites probe the same code paths more finely.
"""

import json
import pathlib

import numpy as np
import pytest

from conftest import (
    random_cube_triple,
    random_direction,
    random_hermitian,
    random_physical_triple,
    random_unitary,
)
from qprob import (
    ChannelSpec,
    FormulaMismatchWarning,
    ProbTriple,
    SIGMA_Z,
    area_sum,
    build_kinetic,
    channel_map,
    check_ball,
    conservative_shift_bound,
    decode_observable,
    density_from_probs,
    eigenvalues_hermitian,
    encode_observable,
    euler_unitary,
    evolve,
    evolve_observable,
    failed_checks,
    heisenberg_exact,
    kinetic_formula_checks,
    observable_tomogram,
    probs_from_density,
    rho_of_x,
    rotation_formula_checks,
    rotation_from_unitary,
    state_tomogram,
    triangle_picture,
)
from test_cli import run_cli

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_criterion_1_sigma_z_family_exact():
    for x in (1.5, 2.0, 3.0, 10.0):
        rho = rho_of_x(SIGMA_Z, x)
        expected = np.array([
            [0.5 + 0.5 / x, 0.0],
            [0.0, 0.5 - 0.5 / x],
        ])
        np.testing.assert_allclose(rho, expected, rtol=0.0, atol=1e-15)


def test_criterion_2_observable_round_trip(rng):
    for _ in range(500):
        h = random_hermitian(rng, scale=5.0)
        recovered = decode_observable(encode_observable(h))
        assert np.max(np.abs(recovered - h)) <= 1e-9
    # degenerate diagonal: both embedded triples pin p3 = 1/2, forcing the
    # off-diagonal decoding branch
    for _ in range(50):
        d = rng.uniform(-5.0, 5.0)
        re = rng.uniform(0.25, 5.0) * rng.choice((-1.0, 1.0))
        im = rng.uniform(-5.0, 5.0)
        h = np.array([[d, re - 1j * im], [re + 1j * im, d]])
        rep = encode_observable(h)
        assert abs(rep.p_a.p3 - 0.5) <= 1e-12
        recovered = decode_observable(rep)
        assert np.max(np.abs(recovered - h)) <= 1e-9


def test_criterion_3_tomogram_oracle_equivalence(rng):
    for _ in range(100):
        p = random_physical_triple(rng)
        direction = random_direction(rng, psi=True)
        w_plus, w_minus = state_tomogram(p, direction)
        u = euler_unitary(direction)
        rotated = u @ density_from_probs(p) @ u.conj().T
        assert abs(w_plus - rotated[0, 0].real) <= 1e-12
        assert abs(w_minus - rotated[1, 1].real) <= 1e-12
        assert w_plus + w_minus == 1.0
    for _ in range(100):
        h = random_hermitian(rng)
        x = conservative_shift_bound(h) + rng.uniform(0.5, 3.0)
        direction = random_direction(rng, psi=True)
        w_plus, w_minus = observable_tomogram(h, direction, x)
        u = euler_unitary(direction)
        rotated = u @ rho_of_x(h, x) @ u.conj().T
        assert abs(w_plus - rotated[0, 0].real) <= 1e-12
        assert abs(w_minus - rotated[1, 1].real) <= 1e-12
        assert w_plus + w_minus == 1.0


def test_criterion_4_channel_oracle_equivalence(rng):
    for _ in range(50):
        count = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(count))
        unitaries = [random_unitary(rng) for _ in range(count)]
        spec = ChannelSpec(tuple(zip(map(float, weights), unitaries)))
        mapping = channel_map(spec)
        for _ in range(20):
            p = random_physical_triple(rng)
            image = mapping.apply(p)
            rho = density_from_probs(p)
            mixed = sum(w * (u @ rho @ u.conj().T) for w, u in zip(weights, unitaries))
            expected = probs_from_density(mixed)
            deviation = max(
                abs(image.p1 - expected.p1),
                abs(image.p2 - expected.p2),
                abs(image.p3 - expected.p3),
            )
            assert deviation <= 1e-10
        for u in unitaries:
            rotation = rotation_from_unitary(u)
            defect = rotation.L.T @ rotation.L - np.eye(3)
            assert np.max(np.abs(defect)) <= 1e-10


def test_criterion_5_evolution_diagram_commutes(rng):
    for _ in range(100):
        a0 = random_hermitian(rng)
        h = random_hermitian(rng)
        x = conservative_shift_bound(a0) + rng.uniform(0.5, 3.0)
        t = rng.uniform(-2.0, 2.0)
        via_triples = evolve_observable(a0, h, x, t)
        exact = heisenberg_exact(a0, h, t)
        assert np.max(np.abs(via_triples - exact)) <= 1e-9
        lo0, hi0 = eigenvalues_hermitian(a0)
        lo_t, hi_t = eigenvalues_hermitian(via_triples)
        assert abs(lo_t - lo0) <= 1e-9 and abs(hi_t - hi0) <= 1e-9
        assert abs(np.trace(via_triples).real - np.trace(a0).real) <= 1e-12


def test_criterion_6_area_values(rng):
    assert area_sum(ProbTriple(0.5, 0.5, 0.5)) == 1.5
    assert area_sum(ProbTriple(0.5, 0.5, 1.0)) == 2.5
    for _ in range(10_000):
        p = random_cube_triple(rng)
        geometric = triangle_picture(p).total_area
        assert abs(geometric - area_sum(p)) <= 1e-12


def test_criterion_7_ball_consistency(rng):
    for _ in range(10_000):
        p = random_physical_triple(rng)
        determinant = np.linalg.det(density_from_probs(p)).real
        assert abs(check_ball(p) - determinant) <= 1e-12
    for _ in range(100):
        count = int(rng.integers(1, 4))
        weights = rng.dirichlet(np.ones(count))
        spec = ChannelSpec(tuple((float(w), random_unitary(rng)) for w in weights))
        mapping = channel_map(spec)
        image = mapping.apply(random_physical_triple(rng))
        assert check_ball(image) >= -1e-10
    for _ in range(100):
        system = build_kinetic(random_hermitian(rng), 0.0)
        moved = evolve(system, random_physical_triple(rng), rng.uniform(-3.0, 3.0))
        assert check_ball(moved) >= -1e-10


def test_criterion_8_errata_diagnostics(rng):
    # pinned status: every printed component formula matches its oracle fit
    for _ in range(100):
        assert failed_checks(rotation_formula_checks(random_unitary(rng))) == []
    for _ in range(30):
        assert failed_checks(kinetic_formula_checks(random_hermitian(rng))) == []
    # and the mismatch reporters are live, not dead code
    with pytest.warns(FormulaMismatchWarning):
        rotation_from_unitary(random_unitary(rng), formula_tol=-1.0)
    with pytest.warns(FormulaMismatchWarning):
        build_kinetic(random_hermitian(rng), 0.0, fd_tol=-1.0)


def test_criterion_9_cli_golden_files(tmp_path, capsys):
    code, out, _ = run_cli(
        ["encode", "--a", "2", "--b", "3", "--in", str(GOLDEN / "sigma_z.json")],
        capsys=capsys,
    )
    assert code == 0 and out == (GOLDEN / "sigma_z_rep.json").read_text()

    code, out, _ = run_cli(
        ["decode", "--in", str(GOLDEN / "sigma_z_rep.json")], capsys=capsys
    )
    assert code == 0 and out == (GOLDEN / "decode_out.json").read_text()

    code, out, _ = run_cli(
        [
            "tomogram",
            "--theta", "1.0471975511965976",
            "--phi", "0.7853981633974483",
            "--in", str(GOLDEN / "state.json"),
        ],
        capsys=capsys,
    )
    assert code == 0 and out == (GOLDEN / "tomogram_out.json").read_text()

    code, out, _ = run_cli(
        [
            "evolve",
            "--t-end", "1.5",
            "--steps", "6",
            "--in", str(GOLDEN / "evolve_in.json"),
        ],
        capsys=capsys,
    )
    assert code == 0 and out == (GOLDEN / "evolve_out.csv").read_text()

    runs = []
    for label in ("first", "second"):
        out_dir = tmp_path / label
        code, _, _ = run_cli(
            ["figures", "--in", str(GOLDEN / "sigma_z_rep.json"), "--out", str(out_dir)],
            capsys=capsys,
        )
        assert code == 0
        runs.append({
            name: (out_dir / name).read_bytes()
            for name in ("fig1.svg", "fig2.svg", "fig3.svg", "fig4.svg", "fig5.svg")
        })
    for name, payload in runs[0].items():
        assert payload == (GOLDEN / name).read_bytes()
    assert runs[0] == runs[1]
