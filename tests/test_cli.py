"""Command-line surface: JSON schemas, exit codes, and file outputs."""

import io
import json
import pathlib
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprob import ProbTriple, encode_observable, sample_trajectory, build_kinetic, state_tomogram, Direction
from qprob import render_svg, triangle_picture
from qprob import admissible_shift_bound, qubit_core
from qprob.cli import MAX_STEPS, _dump_json, _dump_trajectory, main, matrix_to_json, parse_matrix, triple_to_json
from qprob.diagnostics import heisenberg_exact
from qprob.matrix_oracle import SIGMA_Z
from qprob.qubit_core import density_from_probs, probs_from_density

GOLDEN = pathlib.Path(__file__).parent / "golden"
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


def test_encode_validates_h_once(guard_counts, monkeypatch, capsys):
    # one Hermitian guard and one eigenvalue solve on H; the triples are read off it
    guarded, solved = guard_counts
    code, out, _ = run_cli(
        ["encode"], stdin_text=json.dumps(SIGMA_Z_JSON), monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0 and json.loads(out)["admissible_bound"] == 1.0
    assert guarded == ["observable"]
    assert len(solved) == 1


def test_check_validates_each_triple_once(guard_counts, monkeypatch, capsys):
    # the accepted triple's density is Hermitian by construction, and its eigenvalues are
    # read off the triple: no guard, no eigenvalue solve
    guarded, solved = guard_counts
    code, out, _ = run_cli(
        ["check"], stdin_text=json.dumps(STATE_X_JSON), monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0 and json.loads(out)["density_eigenvalues"] == [0.0, 1.0]
    assert guarded == []
    assert solved == []


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


def test_decode_rejects_an_overflowing_trace(monkeypatch, capsys):
    rep = {
        "a": -1e308, "b": 1e308,
        "P_a": {"p1": 0.5, "p2": 0.5, "p3": 0.75},
        "P_b": {"p1": 0.5, "p2": 0.5, "p3": 0.5000001},
    }
    code, out, err = run_cli(["decode"], stdin_text=json.dumps(rep), monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out) == (3, "")
    assert "decoding overflows: the trace 2 (b - a s)/(s - 1) = inf" in err


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


def test_encode_rejects_a_triple_rounded_out_of_the_cube(monkeypatch, capsys):
    # at the admissible bound tr H + 2a is about 5e-10, so the rounding of lambda_min
    # grows by |a| / 5e-10 in P_a, and p1 lands above 1
    eps = 2.4532112507341666e-10
    h = [[1.0, eps], [eps, 1.0]]
    a = admissible_shift_bound(h)
    code, out, err = run_cli(
        ["encode", "--a", repr(a), "--b", repr(a + 1.0)],
        stdin_text=json.dumps(matrix_to_json(h)),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert (code, out) == (3, "")
    assert "violates 0 <= p1 <= 1" in err


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


_REP_JSON = {"a": 2.0, "b": 3.0, "P_a": {"p1": 0.5, "p2": 0.5, "p3": 0.75}, "P_b": {"p1": 0.5, "p2": 0.5, "p3": 0.6}}


@pytest.mark.parametrize("command, doc, message", [
    ("encode", {"m11": [1, 0]}, "matrix document lacks keys: m12, m21, m22"),
    ("check", {"p1": "a", "p2": 0.5, "p3": 0.5}, "p1 must be a number, got 'a'"),
    ("check", {"p1": True, "p2": 0.5, "p3": 0.5}, "p1 must be a number, got True"),
    ("encode", {**SIGMA_Z_JSON, "m11": [1.0]}, "m11 must be a [re, im] pair"),
    ("encode", [1, 2], "matrix document must be a JSON object"),
    ("decode", [1], "encoding document must be a JSON object"),
    ("decode", {k: v for k, v in _REP_JSON.items() if k != "P_b"}, "encoding document lacks key P_b"),
    ("decode", {**_REP_JSON, "P_a": []}, "probability triple must be a JSON object"),
    ("decode", {**_REP_JSON, "P_a": {"p1": 0.5, "p2": 0.5}}, "triple document lacks keys: p3"),
    ("check", {"x": 1}, "check input must be an encoding or a probability triple"),
], ids=["missing-matrix-key", "string-number", "bool-number", "short-pair", "matrix-not-object",
        "encoding-not-object", "encoding-lacks-key", "triple-not-object", "triple-lacks-key", "check-neither"])
def test_schema_error_exits_2(command, doc, message, monkeypatch, capsys):
    code, out, err = run_cli([command], stdin_text=json.dumps(doc), monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out, err) == (2, "", f"qprob: parse error: {message}\n")


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


any_float = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(x=any_float, times=st.lists(any_float, min_size=1, max_size=6),
       rows=st.lists(st.tuples(any_float, any_float, any_float), min_size=1, max_size=6))
def test_trajectory_json_is_written_as_json_dumps_writes_it(x, times, rows):
    doc = {"x": x, "times": times, "probs": [list(row) for row in rows]}
    assert _dump_trajectory(x, times, iter(rows)) == _dump_json(doc)


def _refuse_constant(name):
    raise AssertionError(f"{name} in the output")


_GENERIC_H_JSON = {"m11": [1.0, 0.0], "m12": [0.3, 0.2], "m21": [0.3, -0.2], "m22": [-1.0, 0.0]}


def test_evolve_json_from_the_largest_accepted_start_is_finite(monkeypatch, capsys):
    # at the largest finite QPROB_TOL the ball test still bounds |p0 - c| by about 1.34e154, the square root of
    # the largest float, so each row, a rotation of p0 about the center, is finite, and so is the JSON
    monkeypatch.setenv("QPROB_TOL", "1.7976931348623157e308")
    args = ["evolve", "--t-end", "2", "--steps", "4", "--format", "json"]
    payload = {"H": _GENERIC_H_JSON, "p0": {"p1": 1.34e154, "p2": 0.5, "p3": 0.5}}
    code, out, err = run_cli(args, stdin_text=json.dumps(payload), monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and err == ""
    doc = json.loads(out, parse_constant=_refuse_constant)
    assert max(abs(v) for row in doc["probs"] for v in row) == 1.34e154
    # at |p0 - c| of about 1.84e154 the ball residual is -inf, and the start is refused
    payload["p0"] = {"p1": 1.3e154, "p2": -1.3e154, "p3": 0.5}
    code, out, err = run_cli(args, stdin_text=json.dumps(payload), monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out) == (3, "") and "-inf" in err


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


@pytest.mark.parametrize("args, infile", [
    (["--t-end", "2.5", "--steps", "10"], "evolve_generic_in.json"),
    (["--x", "2", "--t-end", "2.5", "--steps", "10"], "evolve_a0_in.json"),
], ids=["p0", "A0"])
def test_evolve_checks_its_start_once(args, infile, monkeypatch, capsys):
    calls = []
    require_physical = qubit_core.require_physical

    def counting_check(p, tol):
        calls.append(p)
        require_physical(p, tol)

    monkeypatch.setattr(qubit_core, "require_physical", counting_check)
    code, out, err = run_cli(["evolve", *args, "--in", str(GOLDEN / infile)], capsys=capsys)
    assert (code, err) == (0, "") and len(calls) == 1


def test_evolve_rejects_an_observable_start_rounded_out_of_the_cube(monkeypatch, capsys):
    # at the admissible bound tr(A0) + 2x is about 5e-10, so the rounding of lambda_min
    # grows by |x| / 5e-10 in the computed triple and p1 lands above 1
    eps = 2.4532112507341666e-10
    a0 = [[1.0, eps], [eps, 1.0]]
    payload = {"H": SIGMA_Z_JSON, "A0": matrix_to_json(a0)}
    x = admissible_shift_bound(a0)
    code, out, err = run_cli(
        ["evolve", "--x", repr(x), "--t-end", "1.0", "--steps", "2"],
        stdin_text=json.dumps(payload),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert (code, out) == (3, "")
    assert "violates 0 <= p1 <= 1" in err


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("t_end", ["5e-324", "1e-323"])
def test_evolve_refuses_a_collapsing_grid(t_end, fmt, monkeypatch, capsys):
    # with 3 steps, step = t_end / 3 underflows to 0 or rounds up so that 2 * step = t_end
    code, out, err = run_cli(
        ["evolve", "--t-end", t_end, "--steps", "3", "--format", fmt],
        stdin_text=_EVOLVE_DOC,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 3 and out == ""
    assert err == "qprob: trajectory times must be strictly increasing\n"


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


def test_evolve_caps_steps_before_reading(monkeypatch, capsys):
    code, out, err = run_cli(
        ["evolve", "--t-end", "1", "--steps", str(MAX_STEPS + 1)],
        stdin_text="not json",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2 and out == ""
    assert "--steps" in err and "invalid JSON" not in err


def test_check_golden_report(capsys):
    code, out, err = run_cli(["check", "--in", str(GOLDEN / "sigma_z_rep.json")], capsys=capsys)
    assert code == 0 and err == ""
    assert out == (GOLDEN / "check_out.json").read_text()


_ANGLES = ["--theta", "1.0471975511965976", "--phi", "0.7853981633974483"]


@pytest.mark.parametrize("args, infile, golden", [
    (["encode"], "sigma_z.json", "sigma_z_default_rep.json"),
    (["tomogram", *_ANGLES, "--x", "2"], "sigma_z.json", "observable_tomogram_out.json"),
    (["encode"], "generic_h.json", "generic_rep.json"),
    (["decode"], "generic_rep.json", "generic_decode_out.json"),
    (["check"], "generic_rep.json", "generic_check_out.json"),
    (["check"], "generic_state.json", "generic_state_check_out.json"),
    (["tomogram", *_ANGLES, "--x", "2"], "generic_h.json", "generic_observable_tomogram_out.json"),
    (["tomogram", *_ANGLES], "generic_state.json", "generic_tomogram_out.json"),
    (["check", "--allow-unphysical"], "degenerate_state.json", "degenerate_check_out.json"),
], ids=["encode-default-shifts", "observable-tomogram", "generic-encode", "generic-decode", "generic-check",
        "generic-state-check", "generic-observable-tomogram", "generic-state-tomogram", "unphysical-check"])
def test_observable_golden_bytes(args, infile, golden, capsys):
    # sigma_z runs the eigenvalue solve (default shifts, the admissibility of x) on exact
    # values; the generic H and triple have nonzero off-diagonals and inexact dots, so the
    # off-diagonal triple path, the eigenvalue formula and the order of each sum show too;
    # the degenerate triple lies outside the ball, so its report has no density eigenvalues
    code, out, err = run_cli([*args, "--in", str(GOLDEN / infile)], capsys=capsys)
    assert code == 0 and err == ""
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("args, golden, tol", [
    (["--format", "csv", "--in", str(GOLDEN / "evolve_generic_in.json")], "evolve_generic_out.csv", None),
    (["--format", "json", "--in", str(GOLDEN / "evolve_generic_in.json")], "evolve_generic_out.json", None),
    (["--x", "2", "--in", str(GOLDEN / "evolve_a0_in.json")], "evolve_a0_out.csv", None),
    (["--in", str(GOLDEN / "evolve_tol_in.json")], "evolve_tol_out.csv", "1e-2"),
], ids=["csv-evolve_generic_out.csv", "json-evolve_generic_out.json", "a0-evolve_a0_out.csv",
        "tol-evolve_tol_out.csv"])
def test_evolve_generic_golden_bytes(args, golden, tol, monkeypatch, capsys):
    # all three components of h are nonzero and each start is mixed, so every axis of the rotation
    # shows; the A0 start is the triple of rho(x) read off the observable at --x, and the tol start
    # lies 1e-3 outside the cube, accepted only under QPROB_TOL
    if tol is not None:
        monkeypatch.setenv("QPROB_TOL", tol)
    code, out, err = run_cli(["evolve", "--t-end", "2.5", "--steps", "10", *args], capsys=capsys)
    assert code == 0 and err == ""
    assert out == (GOLDEN / golden).read_text()


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


@pytest.mark.parametrize("doc, field", [
    ({"p1": 1e200, "p2": 0.5, "p3": 0.5}, "ball_residual = -inf"),
    ({"a": 2.0, "b": 3.0, "P_a": {"p1": 0.5, "p2": 0.5, "p3": 0.75},
      "P_b": {"p1": 0.5, "p2": -1e160, "p3": 1e160}}, "P_b.ball_residual = -inf"),
], ids=["triple", "encoding"])
def test_check_non_finite_report_exits_3(doc, field, monkeypatch, capsys):
    # (1e200 - 1/2)^2 overflows: JSON has no -Infinity, so the value is named and nothing printed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            ["check", "--allow-unphysical"], stdin_text=json.dumps(doc), monkeypatch=monkeypatch, capsys=capsys
        )
    assert (code, out) == (3, "")
    assert err == f"qprob: {field} is not finite, and JSON has no such number\n"


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


_OFF_CUBE = {"p1": 1.0000005, "p2": 0.5, "p3": 0.5}
_OFF_CUBE_MESSAGE = "p1 = 1.0000005 violates 0 <= p1 <= 1"


def test_observable_tomogram_exits_3_where_its_triple_rounds_out_of_the_cube(monkeypatch, capsys):
    # at its admissible bound this H's triple reads p1 = 1 + 5.8e-8, checked at the default 1e-10 as encode's are
    doc = {"m11": [1.0, 0.0], "m12": [2.4532112507341666e-10, 0.0], "m21": [2.4532112507341666e-10, 0.0],
           "m22": [1.0, 0.0]}
    args = ["tomogram", "--theta", "1.5707963267948966", "--phi", "0", "--x", "-0.9999999997546789"]
    assert run_cli(args, stdin_text=json.dumps(doc), monkeypatch=monkeypatch, capsys=capsys) == (
        3, "", "qprob: p1 = 1.0000000576862416 violates 0 <= p1 <= 1\n")


@pytest.mark.parametrize("args, doc, tol, message", [
    (["check"], _OFF_CUBE, "1e-6", _OFF_CUBE_MESSAGE),
    (["tomogram", "--theta", "1", "--phi", "2"], _OFF_CUBE, "1e-6", _OFF_CUBE_MESSAGE),
    (["evolve", "--t-end", "1", "--steps", "2"], {"H": SIGMA_Z_JSON, "p0": _OFF_CUBE}, "1e-6", _OFF_CUBE_MESSAGE),
    (["evolve", "--t-end", "2.5", "--steps", "10"], json.loads((GOLDEN / "evolve_tol_in.json").read_text()),
     "1e-2", "p3 = 1.001 violates 0 <= p3 <= 1"),
], ids=["check", "tomogram", "evolve", "evolve-golden"])
def test_tolerance_env_governs_every_user_triple(args, doc, tol, message, monkeypatch, capsys):
    # a supplied triple outside the cube is rejected by default and accepted within QPROB_TOL
    code, out, err = run_cli(args, stdin_text=json.dumps(doc), monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out, err) == (3, "", f"qprob: {message}\n")
    monkeypatch.setenv("QPROB_TOL", tol)
    code, out, err = run_cli(args, stdin_text=json.dumps(doc), monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and out != "" and err == ""


# the trace of rho(x) rounds to 1 - 2 ulp here; at the admissible bound the A0 state is pure
_TRACE_ROUNDS_LOW = {"m11": [1.2297538109392712, 0], "m12": [-0.03760595472262429, 0.3150058533714415],
                     "m21": [-0.03760595472262429, -0.3150058533714415], "m22": [0.17681246373052467, 0]}
_PURE_AT_BOUND = {"m11": [0.345584192064786, 0.0], "m12": [0.5760276098422727, 0.4916639038621482],
                  "m21": [0.5760276098422727, -0.4916639038621482], "m22": [-1.303157231604361, 0.0]}


@pytest.mark.parametrize("args, doc", [
    (["encode"], _TRACE_ROUNDS_LOW),
    (["tomogram", "--theta", "1", "--phi", "2", "--x", "1"], _TRACE_ROUNDS_LOW),
    (["evolve", "--x", "1", "--t-end", "1", "--steps", "2"], {"H": SIGMA_Z_JSON, "A0": _TRACE_ROUNDS_LOW}),
    (["evolve", "--x", "1.5982186401737941", "--t-end", "1", "--steps", "2"],
     {"H": SIGMA_Z_JSON, "A0": _PURE_AT_BOUND}),
], ids=["encode", "tomogram", "evolve", "evolve-boundary-shift"])
def test_zero_tolerance_leaves_computed_triples_alone(args, doc, monkeypatch, capsys):
    # QPROB_TOL is the slack on triples the user supplies, not on those read off a matrix
    expected = run_cli(args, stdin_text=json.dumps(doc), monkeypatch=monkeypatch, capsys=capsys)
    assert expected[0] == 0
    monkeypatch.setenv("QPROB_TOL", "0")
    assert run_cli(args, stdin_text=json.dumps(doc), monkeypatch=monkeypatch, capsys=capsys) == expected


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


def test_figures_degenerate_triangle_turns_its_squares_outward(tmp_path, monkeypatch, capsys):
    # (1, 0, p3) puts two vertices on one corner, so the three are collinear (chords 0, l, l): the
    # zero chord gets no square. At p3 = 1/4 the other two, with no inner side to avoid, face away
    # from the reference triangle's centroid, which lies off their line. At p3 = 1/2 it lies on it,
    # and each keeps its chord's right-hand normal: the two chords run along one segment in
    # opposite directions, so their squares fall on opposite sides of it
    def corners(polygon):
        return np.array([[float(v) for v in pair.split(",")] for pair in polygon.get("points").split()])

    def side(point, p, q):
        # the sign of the dot with the chord's normal; the pixel map's y flip reverses every sign alike
        return (point - p) @ np.array([p[1] - q[1], q[0] - p[0]])

    for p3 in (0.25, 0.5):
        doc = json.dumps({"p1": 1.0, "p2": 0.0, "p3": p3})
        renders = []
        for label in ("first", "second"):
            out_dir = tmp_path / f"{p3}-{label}"
            code, _, _ = run_cli(["figures", "--allow-unphysical", "--out", str(out_dir)],
                                 stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys)
            assert code == 0
            renders.append((out_dir / "squares.svg").read_bytes())
        assert renders[0] == renders[1]

        polygons = list(ET.fromstring(renders[0]).iter("{http://www.w3.org/2000/svg}polygon"))
        centroid = next(corners(el) for el in polygons if el.get("stroke") == "#999999").mean(axis=0)
        squares = [corners(el) for el in polygons if el.get("fill") != "none"]
        assert len(squares) == 2
        if p3 == 0.5:
            (p, q, far_a, _), (_, _, far_b, _) = squares
            assert side(far_a, p, q) * side(far_b, p, q) < 0.0
        else:
            for p, q, far, _ in squares:
                assert side(far, p, q) * side(centroid, p, q) < 0.0


def test_figures_degenerate_golden_bytes(tmp_path, capsys):
    # the collinear triple whose squares are oriented by the right-hand-normal rule alone
    code, _, err = run_cli(["figures", "--allow-unphysical", "--in", str(GOLDEN / "degenerate_state.json"),
                            "--out", str(tmp_path)], capsys=capsys)
    assert code == 0 and err == ""
    assert (tmp_path / "squares.svg").read_bytes() == (GOLDEN / "degenerate_squares.svg").read_bytes()


def test_figures_state_golden_bytes(tmp_path, capsys):
    # a plain physical triple: both files a triple document writes
    code, _, err = run_cli(["figures", "--in", str(GOLDEN / "state.json"), "--out", str(tmp_path)], capsys=capsys)
    assert code == 0 and err == ""
    for name in ("triangle.svg", "squares.svg"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / f"state_{name}").read_bytes()


# cube values: the quarter grid makes degenerate (collinear or coincident) triangles, and the
# values within 2e-12 of it land chords and sides in the renderer's 1e-12 tie band
cube_value = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    st.builds(lambda v, d: v + d, st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(-1e-12, 1e-12)),
    st.floats(0.0, 1.0),
)
cube_triple = st.builds(ProbTriple, cube_value, cube_value, cube_value)


@settings(max_examples=150, deadline=None)
@given(p=cube_triple, q=cube_triple)
def test_figures_command_writes_render_svg_bytes(p, q):
    # the command renders with render_svg too: this pins which pictures go into which file
    pic_p, pic_q = triangle_picture(p), triangle_picture(q)
    expected = {
        "triangle.svg": render_svg([pic_p]),
        "squares.svg": render_svg([pic_p], with_squares=True),
    }
    rep_expected = {
        "fig1.svg": render_svg([pic_p]),
        "fig2.svg": render_svg([pic_q]),
        "fig3.svg": render_svg([pic_p], with_squares=True),
        "fig4.svg": render_svg([pic_q], with_squares=True),
        "fig5.svg": render_svg([pic_p, pic_q]),
    }
    rep = {"a": 1.0, "b": 2.0, "P_a": triple_to_json(p), "P_b": triple_to_json(q)}
    with tempfile.TemporaryDirectory() as tmp:
        for doc, files in ((triple_to_json(p), expected), (rep, rep_expected)):
            infile = pathlib.Path(tmp, "in.json")
            infile.write_text(json.dumps(doc), encoding="utf-8")
            out_dir = pathlib.Path(tmp, "out")
            assert main(["figures", "--allow-unphysical", "--in", str(infile), "--out", str(out_dir)]) == 0
            for name, text in files.items():
                assert (out_dir / name).read_bytes() == text.encode("utf-8")


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
    # checked before the document is parsed, so a NaN entry does not mask it
    for doc in (json.dumps(STATE_X_JSON), '{"p1":NaN,"p2":0.5,"p3":0.5}'):
        code, out, err = run_cli(["figures"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys)
        assert code == 2 and out == ""
        assert "needs --out" in err


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


@pytest.mark.parametrize("args, stdin_text, code", [
    (["check"], '{"p1": 1.0,', 2),
    (["transmogrify"], "", 2),
    (["check", "--in", str(GOLDEN / "degenerate_state.json")], "", 3),
    (["figures", "--out", "{blocker}/sub"], json.dumps(STATE_X_JSON), 4),
], ids=["invalid-json", "unknown-subcommand", "degenerate-state", "unwritable-out"])
def test_module_entry_error_paths_match_main(tmp_path, monkeypatch, capsys, args, stdin_text, code):
    blocker = tmp_path / "blocker"
    blocker.write_text("plain file")
    args = [arg.format(blocker=blocker) for arg in args]
    result = subprocess.run([sys.executable, "-m", "qprob", *args], input=stdin_text, capture_output=True, text=True)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    try:
        in_process = main(args)
    except SystemExit as exc:  # argparse's exit
        in_process = exc.code
    captured = capsys.readouterr()
    assert in_process == code and captured.out == "" and captured.err.strip()
    assert (result.returncode, result.stdout, result.stderr) == (code, captured.out, captured.err)


def test_the_entry_freezes_the_imported_heap_before_main():
    # a subprocess, so the test process is never frozen
    script = (
        "import gc, sys\n"
        "from qprob import __main__ as entry, cli\n"
        "print(gc.get_freeze_count())\n"
        "cli.main = lambda argv: print(gc.get_freeze_count() > 0, argv) or 7\n"
        "sys.exit(entry.run(['check']))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (7, "0\nTrue ['check']\n", "")


@pytest.mark.parametrize("args, code", [
    (["check", "--in", str(GOLDEN / "generic_state.json")], 0),
    (["check", "--in", str(GOLDEN / "degenerate_state.json")], 3),
    (["transmogrify"], 2),
], ids=["success", "domain-error", "argparse-exit"])
def test_atexit_handlers_run_after_the_entry(args, code):
    script = (
        "import atexit, sys\n"
        "atexit.register(print, 'atexit ran')\n"
        "from qprob.__main__ import run\n"
        f"sys.exit(run({args!r}))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == code
    assert result.stdout.endswith("atexit ran\n")
