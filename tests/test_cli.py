"""Command-line surface: JSON schemas, exit codes, and file outputs."""

import io
import json
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from qprob import ProbTriple, encode_observable, sample_trajectory, build_kinetic, state_tomogram, Direction
from qprob.cli import MAX_STEPS, main, matrix_to_json, parse_matrix, triple_to_json
from qprob.matrix_oracle import SIGMA_Z, heisenberg_exact
from qprob.qubit_core import density_from_probs, probs_from_density

SIGMA_Z_JSON = {"m11": [1.0, 0.0], "m12": [0.0, 0.0], "m21": [0.0, 0.0], "m22": [-1.0, 0.0]}
STATE_X_JSON = {"p1": 1.0, "p2": 0.5, "p3": 0.5}


def run_cli(args, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_json_round_trip():
    m = np.array([[1.5, 2.0 - 3.0j], [2.0 + 3.0j, -0.25]])
    np.testing.assert_array_equal(parse_matrix(matrix_to_json(m)), m)


def test_encode_document_fields(monkeypatch, capsys):
    code, out, err = run_cli(
        ["encode", "--a", "2", "--b", "3"],
        stdin_text=json.dumps(SIGMA_Z_JSON),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["a"] == 2.0 and doc["b"] == 3.0
    assert doc["P_a"] == {"p1": 0.5, "p2": 0.5, "p3": 0.75}
    assert doc["P_b"]["p3"] == 2.0 / 3.0
    assert doc["admissible_bound"] == 1.0
    assert doc["errata_notes"] == []
    assert doc["warnings"] == []


def test_encode_default_shifts(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["encode"], stdin_text=json.dumps(SIGMA_Z_JSON), monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["a"], doc["b"]) == (2.0, 3.0)


def test_encode_identity_warns(monkeypatch, capsys):
    identity = {"m11": [1, 0], "m12": [0, 0], "m21": [0, 0], "m22": [1, 0]}
    code, out, _ = run_cli(
        ["encode"], stdin_text=json.dumps(identity), monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["P_a"] == {"p1": 0.5, "p2": 0.5, "p3": 0.5}
    assert any("identity" in note for note in doc["warnings"])


def test_encode_decode_pipe_round_trip(tmp_path, monkeypatch, capsys):
    rep_file = tmp_path / "rep.json"
    matrix = {"m11": [2.0, 0.0], "m12": [1.0, -1.0], "m21": [1.0, 1.0], "m22": [0.0, 0.0]}
    code, _, _ = run_cli(
        ["encode", "--out", str(rep_file)],
        stdin_text=json.dumps(matrix),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    code, out, _ = run_cli(["decode", "--in", str(rep_file)], capsys=capsys)
    assert code == 0
    recovered = parse_matrix(json.loads(out))
    np.testing.assert_allclose(recovered, parse_matrix(matrix), rtol=0, atol=1e-9)


def test_decode_identity_rep_reports_warning(monkeypatch, capsys):
    rep = {
        "a": 4.0, "b": 5.0,
        "P_a": {"p1": 0.5, "p2": 0.5, "p3": 0.5},
        "P_b": {"p1": 0.5, "p2": 0.5, "p3": 0.5},
    }
    code, out, _ = run_cli(
        ["decode"], stdin_text=json.dumps(rep), monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["m11"] == [0.0, 0.0] and doc["m22"] == [0.0, 0.0]
    assert any("trace" in note for note in doc["warnings"])


def test_encode_small_observable_is_not_identity(monkeypatch, capsys):
    # the identity note follows decode's scale-free no-trace test on the encoded pair
    tiny = {"m11": [1e-13, 0], "m12": [0, 0], "m21": [0, 0], "m22": [-1e-13, 0]}
    code, out, _ = run_cli(
        ["encode"], stdin_text=json.dumps(tiny), monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert json.loads(out)["warnings"] == []


def test_encode_rejects_non_hermitian(monkeypatch, capsys):
    skew = {"m11": [1, 0], "m12": [1, 0], "m21": [0, 0], "m22": [1, 0]}
    code, _, err = run_cli(
        ["encode"], stdin_text=json.dumps(skew), monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 3
    assert "Hermitian" in err
    # a defect of 1e-11 is past the library's one Hermitian check (1e-12)
    near = {"m11": [1, 0], "m12": [0.5, 1e-11], "m21": [0.5, 0], "m22": [-1, 0]}
    cases = [
        (["encode"], near, "observable"),
        (["evolve", "--t-end", "1", "--steps", "2"], {"H": near, "p0": STATE_X_JSON}, "hamiltonian"),
        (["evolve", "--x", "2", "--t-end", "1", "--steps", "2"],
         {"H": SIGMA_Z_JSON, "A0": near}, "observable"),
    ]
    for args, doc, name in cases:
        code, out, err = run_cli(args, stdin_text=json.dumps(doc), monkeypatch=monkeypatch,
                                 capsys=capsys)
        assert code == 3 and out == ""
        assert f"{name} is not Hermitian (defect 1.000e-11" in err


def test_encode_rejects_nan_entry(monkeypatch, capsys):
    doc = '{"m11":[NaN,0],"m12":[0,0],"m21":[0,0],"m22":[-1,0]}'
    code, out, err = run_cli(["encode"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 3
    assert out == ""
    assert "m11 is not finite" in err


_BALL_POINT = '{"p1":0.5,"p2":0.5,"p3":1.0}'
_SIGMA_Z_DOC = json.dumps(SIGMA_Z_JSON)
_STATE_DOC = json.dumps(STATE_X_JSON)
_EVOLVE_DOC = json.dumps({"H": SIGMA_Z_JSON, "p0": STATE_X_JSON})


@pytest.mark.parametrize("args, doc, key", [
    (["encode"], '{"m11":[Infinity,0],"m12":[0,0],"m21":[0,0],"m22":[-1,0]}', "m11"),
    (["encode"], '{"m11":[1,0],"m12":[0,-Infinity],"m21":[0,0],"m22":[-1,0]}', "m12"),
    (["check"], '{"p1":NaN,"p2":0.5,"p3":1.0}', "p1"),
    (["check"], '{"p1":0.5,"p2":1' + "0" * 400 + ',"p3":1.0}', "p2"),
    (["decode"], '{"a":2,"b":NaN,"P_a":%s,"P_b":%s}' % (_BALL_POINT, _BALL_POINT), "b"),
    (["encode", "--a", "nan", "--b", "3"], _SIGMA_Z_DOC, "--a"),
    (["encode", "--a", "2", "--b", "inf"], _SIGMA_Z_DOC, "--b"),
    (["evolve", "--x", "nan", "--t-end", "1", "--steps", "2"], _EVOLVE_DOC, "--x"),
    (["evolve", "--t-end=-inf", "--steps", "2"], _EVOLVE_DOC, "--t-end"),
    (["tomogram", "--x", "inf", "--theta", "1", "--phi", "1"], _SIGMA_Z_DOC, "--x"),
    (["tomogram", "--theta", "nan", "--phi", "1"], _STATE_DOC, "--theta"),
    (["tomogram", "--theta", "1", "--phi", "inf"], _STATE_DOC, "--phi"),
    (["tomogram", "--theta", "1", "--phi", "1", "--psi=-inf"], _STATE_DOC, "--psi"),
], ids=["encode-inf", "encode-minus-inf", "check-nan", "check-huge-int", "decode-nan-shift",
        "encode-flag-a", "encode-flag-b", "evolve-flag-x", "evolve-flag-t-end", "tomogram-flag-x",
        "tomogram-flag-theta", "tomogram-flag-phi", "tomogram-flag-psi"])
def test_non_finite_input_exits_3(args, doc, key, monkeypatch, capsys):
    # any numpy RuntimeWarning on the way to the rejection fails the test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(args, stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 3
    assert out == ""
    assert f"{key} is not finite" in err
    assert "RuntimeWarning" not in err


def test_encode_rejects_inadmissible_shift(monkeypatch, capsys):
    code, _, err = run_cli(
        ["encode", "--a", "2", "--b", "0.5"],
        stdin_text=json.dumps(SIGMA_Z_JSON),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 3
    assert "inadmissible" in err


def test_encode_requires_shift_pair(monkeypatch, capsys):
    code, _, err = run_cli(
        ["encode", "--a", "2"],
        stdin_text=json.dumps(SIGMA_Z_JSON),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2
    assert "together" in err


def test_malformed_json_exits_2(monkeypatch, capsys):
    code, _, err = run_cli(
        ["encode"], stdin_text="not json", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 2
    assert "parse error" in err


def test_missing_matrix_key_exits_2(monkeypatch, capsys):
    code, _, err = run_cli(
        ["encode"], stdin_text='{"m11": [1, 0]}', monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 2
    assert "m12" in err


def test_missing_input_file_exits_4(capsys):
    code, _, err = run_cli(["encode", "--in", "/no/such/file.json"], capsys=capsys)
    assert code == 4
    assert "i/o error" in err


def test_tomogram_state(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["tomogram", "--theta", "0", "--phi", "0"],
        stdin_text=json.dumps({"p1": 0.5, "p2": 0.5, "p3": 1.0}),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert json.loads(out) == {"w_plus": 1.0, "w_minus": 0.0}


def test_tomogram_matches_library(monkeypatch, capsys):
    theta, phi, psi = 1.1, 2.3, 0.7
    code, out, _ = run_cli(
        ["tomogram", "--theta", str(theta), "--phi", str(phi), "--psi", str(psi)],
        stdin_text=json.dumps(STATE_X_JSON),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    expected = state_tomogram(ProbTriple(1.0, 0.5, 0.5), Direction(theta, phi, psi))
    doc = json.loads(out)
    assert (doc["w_plus"], doc["w_minus"]) == expected


def test_tomogram_observable_requires_x(monkeypatch, capsys):
    code, _, err = run_cli(
        ["tomogram", "--theta", "0", "--phi", "0"],
        stdin_text=json.dumps(SIGMA_Z_JSON),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2
    assert "--x" in err
    code, out, _ = run_cli(
        ["tomogram", "--theta", "0", "--phi", "0", "--x", "2"],
        stdin_text=json.dumps(SIGMA_Z_JSON),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert json.loads(out) == {"w_plus": 0.75, "w_minus": 0.25}


def test_tomogram_rejects_out_of_range_angle(monkeypatch, capsys):
    code, _, err = run_cli(
        ["tomogram", "--theta", "4", "--phi", "0"],
        stdin_text=json.dumps(STATE_X_JSON),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 3
    assert "theta" in err


def test_evolve_csv_matches_library(monkeypatch, capsys):
    payload = {"H": SIGMA_Z_JSON, "p0": STATE_X_JSON}
    code, out, _ = run_cli(
        ["evolve", "--t-end", "1.5", "--steps", "3"],
        stdin_text=json.dumps(payload),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,p1,p2,p3"
    assert len(lines) == 5
    trajectory = sample_trajectory(
        build_kinetic(SIGMA_Z, 0.0), ProbTriple(1.0, 0.5, 0.5), 1.5, 3
    )
    for line, t, row in zip(lines[1:], trajectory.times, trajectory.probs):
        values = [float(v) for v in line.split(",")]
        assert values[0] == t  # 17 significant digits round-trip exactly
        assert values[1:] == list(row)


def test_evolve_large_hamiltonian_follows_the_exact_curve():
    # at this norm a finite-difference oracle reported a false mismatch and
    # replaced the exact generator by a wrong fit
    h = 1e6 * np.array([[1.0, 0.3], [0.3, -1.0]], dtype=complex)
    p0 = ProbTriple(0.5, 0.5, 1.0)
    result = subprocess.run(
        [sys.executable, "-m", "qprob", "evolve", "--t-end", "1e-6", "--steps", "2"],
        input=json.dumps({"H": matrix_to_json(h), "p0": triple_to_json(p0)}),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0 and result.stderr == ""
    rows = [[float(v) for v in line.split(",")] for line in result.stdout.strip().split("\n")[1:]]
    assert len(rows) == 3
    for t, *probs in rows:
        exact = probs_from_density(heisenberg_exact(density_from_probs(p0), h, t))
        np.testing.assert_allclose(probs, exact.as_array(), rtol=0, atol=1e-12)


def test_evolve_json_format(monkeypatch, capsys):
    payload = {"H": SIGMA_Z_JSON, "p0": STATE_X_JSON}
    code, out, _ = run_cli(
        ["evolve", "--t-end", "1.0", "--steps", "4", "--format", "json"],
        stdin_text=json.dumps(payload),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["x"] == 0.0
    assert len(doc["times"]) == 5 and len(doc["probs"]) == 5
    assert doc["times"][-1] == 1.0


def test_evolve_observable_start(monkeypatch, capsys):
    payload = {"H": SIGMA_Z_JSON, "A0": SIGMA_Z_JSON}
    code, out, _ = run_cli(
        ["evolve", "--x", "2", "--t-end", "1.0", "--steps", "2", "--format", "json"],
        stdin_text=json.dumps(payload),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    doc = json.loads(out)
    # sigma_z commutes with itself: the embedded triple (1/2, 1/2, 3/4) never moves
    for row in doc["probs"]:
        assert row == [0.5, 0.5, 0.75]


def test_evolve_requires_x_with_observable(monkeypatch, capsys):
    payload = {"H": SIGMA_Z_JSON, "A0": SIGMA_Z_JSON}
    code, _, err = run_cli(
        ["evolve", "--t-end", "1.0", "--steps", "2"],
        stdin_text=json.dumps(payload),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2
    assert "--x" in err


def test_evolve_input_validation(monkeypatch, capsys):
    code, _, err = run_cli(
        ["evolve", "--t-end", "1.0", "--steps", "2"],
        stdin_text=json.dumps({"p0": STATE_X_JSON}),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2 and '"H"' in err
    code, _, err = run_cli(
        ["evolve", "--t-end", "1.0", "--steps", "2"],
        stdin_text=json.dumps({"H": SIGMA_Z_JSON}),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2 and "p0" in err
    code, _, err = run_cli(
        ["evolve", "--t-end", "-1", "--steps", "2"],
        stdin_text=json.dumps({"H": SIGMA_Z_JSON, "p0": STATE_X_JSON}),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 3 and "t_end" in err
    code, _, err = run_cli(
        ["evolve", "--t-end", "1", "--steps", "0"],
        stdin_text=json.dumps({"H": SIGMA_Z_JSON, "p0": STATE_X_JSON}),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 3 and "steps" in err


def test_evolve_caps_steps_before_allocating(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the trajectory must not be built")

    monkeypatch.setattr("qprob.evolution.sample_trajectory", refuse)
    code, out, err = run_cli(
        ["evolve", "--t-end", "1", "--steps", "1000000000"],
        stdin_text=json.dumps({"H": SIGMA_Z_JSON, "p0": STATE_X_JSON}),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2 and out == ""
    assert f"--steps must be at most {MAX_STEPS}" in err


def test_check_physical_report(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["check"],
        stdin_text=json.dumps({"p1": 0.5, "p2": 0.5, "p3": 1.0}),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["physical"] is True
    assert doc["ball_residual"] == 0.0
    assert doc["density_eigenvalues"] == [0.0, 1.0]
    assert doc["area_sum"] == 2.5
    assert abs(doc["chord_lengths"][0] - np.sqrt(2.0) / 2.0) < 1e-15


def test_check_rep_report(monkeypatch, capsys):
    rep = {
        "a": 2.0, "b": 3.0,
        "P_a": {"p1": 0.5, "p2": 0.5, "p3": 0.75},
        "P_b": {"p1": 0.5, "p2": 0.5, "p3": 2.0 / 3.0},
    }
    code, out, _ = run_cli(
        ["check"], stdin_text=json.dumps(rep), monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["P_a"]["physical"] is True
    assert abs(doc["P_a"]["area_sum"] - 1.75) < 1e-15
    assert abs(doc["P_b"]["area_sum"] - 29.0 / 18.0) < 1e-15


def test_check_unphysical_gating(monkeypatch, capsys):
    bad = json.dumps({"p1": 0.9, "p2": 0.9, "p3": 0.9})
    code, _, err = run_cli(["check"], stdin_text=bad, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 3
    assert "ball" in err
    code, out, _ = run_cli(
        ["check", "--allow-unphysical"], stdin_text=bad, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["physical"] is False
    assert "density_eigenvalues" not in doc
    assert doc["area_sum"] > 1.5  # geometry is still defined inside the cube


def test_check_tolerance_env_override(monkeypatch, capsys):
    slightly_off = json.dumps({"p1": 1.000000005, "p2": 0.5, "p3": 0.5})
    code, _, _ = run_cli(["check"], stdin_text=slightly_off, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 3
    monkeypatch.setenv("QPROB_TOL", "1e-6")
    code, out, _ = run_cli(["check"], stdin_text=slightly_off, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert json.loads(out)["physical"] is True
    for bad in ("not-a-number", "nan", "-1"):
        monkeypatch.setenv("QPROB_TOL", bad)
        code, _, err = run_cli(["check"], stdin_text=slightly_off, monkeypatch=monkeypatch, capsys=capsys)
        assert code == 2
        assert "QPROB_TOL" in err


def test_figures_rep_writes_five_files(tmp_path, monkeypatch, capsys):
    rep = {
        "a": 2.0, "b": 3.0,
        "P_a": {"p1": 0.5, "p2": 0.5, "p3": 0.75},
        "P_b": {"p1": 0.5, "p2": 0.5, "p3": 2.0 / 3.0},
    }
    out_dir = tmp_path / "figs"
    code, out, _ = run_cli(
        ["figures", "--out", str(out_dir)],
        stdin_text=json.dumps(rep),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    names = [f"fig{k}.svg" for k in range(1, 6)]
    assert json.loads(out)["written"] == [str(out_dir / name) for name in names]
    for name in names:
        text = (out_dir / name).read_text()
        assert text.startswith("<svg ")
        ET.fromstring(text)  # well-formed XML


def test_figures_triple_writes_two_files(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "figs"
    code, out, _ = run_cli(
        ["figures", "--out", str(out_dir)],
        stdin_text=json.dumps({"p1": 0.5, "p2": 0.5, "p3": 1.0}),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    triangle = (out_dir / "triangle.svg").read_text()
    squares = (out_dir / "squares.svg").read_text()
    assert triangle.count("<polygon") == 2 and triangle.count("<circle") == 3
    assert squares.count("<polygon") == 5 and squares.count("<circle") == 3


def test_figures_deterministic_bytes(tmp_path, monkeypatch, capsys):
    rep_text = json.dumps(triple_to_json(ProbTriple(0.7, 0.4, 0.55)))
    first, second = tmp_path / "a", tmp_path / "b"
    for out_dir in (first, second):
        code, _, _ = run_cli(
            ["figures", "--out", str(out_dir)],
            stdin_text=rep_text,
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
    assert (first / "squares.svg").read_bytes() == (second / "squares.svg").read_bytes()


def test_figures_unphysical_gating(tmp_path, monkeypatch, capsys):
    bad = json.dumps({"p1": 0.9, "p2": 0.9, "p3": 0.9})
    code, _, _ = run_cli(
        ["figures", "--out", str(tmp_path / "x")],
        stdin_text=bad,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 3
    code, _, _ = run_cli(
        ["figures", "--allow-unphysical", "--out", str(tmp_path / "y")],
        stdin_text=bad,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert (tmp_path / "y" / "triangle.svg").exists()


def test_figures_needs_directory(monkeypatch, capsys):
    code, _, err = run_cli(
        ["figures"], stdin_text=json.dumps(STATE_X_JSON), monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 2
    assert "--out" in err


def test_figures_unwritable_directory(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("plain file")
    code, _, err = run_cli(
        ["figures", "--out", str(blocker / "sub")],
        stdin_text=json.dumps(STATE_X_JSON),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 4
    assert "i/o error" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["transmogrify"])
    assert excinfo.value.code == 2


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "qprob", "check"],
        input=json.dumps(STATE_X_JSON),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["physical"] is True
