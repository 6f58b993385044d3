"""The import contract: qprob loads numpy only for the library calls that build arrays.

No CLI command loads numpy, and importing the CLI loads neither dataclasses nor inspect.
"""

import ast
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qprob
from qprob import diagnostics, matrix_oracle, qubit_core, suprematism_geometry

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
ANGLES = ["--theta", "1.0471975511965976", "--phi", "0.7853981633974483"]


def tracer_layers() -> tuple[str, ...]:
    """The qprob modules bench/tracer.py wraps, read from its LAYERS assignment."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py has no LAYERS")


def run_python(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=ROOT,
                          env=None if env is None else {**os.environ, **env})


def imported_modules(importtime_stderr: str) -> set[str]:
    """Top-level names of the modules listed by -X importtime."""
    return {line.rsplit("|", 1)[-1].strip().split(".")[0]
            for line in importtime_stderr.splitlines() if line.startswith("import time:")}


def test_importing_the_package_and_the_cli_loads_no_numpy():
    layers = tracer_layers()
    result = run_python("-c", (
        "import sys, qprob; print('numpy' in sys.modules)\n"
        "import qprob.cli; print('numpy' in sys.modules)\n"
        f"print(sorted(set({layers!r}) - {{m[6:] for m in sys.modules if m.startswith('qprob.')}}))\n"
    ))
    assert result.returncode == 0, result.stderr
    # the traced CLI rounds read sys.modules["qprob.<layer>"] for every layer after import qprob.cli
    assert result.stdout.split("\n") == ["False", "False", "[]", ""]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S keeps site, and whatever its .pth files import, out of the count
    code = "import sys, qprob.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = run_python("-S", "-c", code, env={"PYTHONPATH": str(ROOT / "src")})
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


FIGURES_REP = {f"fig{k}.svg": f"fig{k}.svg" for k in range(1, 6)}
EVOLVE_GENERIC = ["evolve", "--t-end", "2.5", "--steps", "10"]


@pytest.mark.parametrize("args, infile, env, golden", [
    (["encode", "--a", "2", "--b", "3"], "sigma_z.json", None, "sigma_z_rep.json"),
    (["encode"], "generic_h.json", None, "generic_rep.json"),
    (["decode"], "sigma_z_rep.json", None, "decode_out.json"),
    (["decode"], "generic_rep.json", None, "generic_decode_out.json"),
    (["tomogram", *ANGLES], "state.json", None, "tomogram_out.json"),
    (["tomogram", *ANGLES, "--x", "2"], "generic_h.json", None, "generic_observable_tomogram_out.json"),
    (["check"], "sigma_z_rep.json", None, "check_out.json"),
    (["check"], "generic_rep.json", None, "generic_check_out.json"),
    (["evolve", "--t-end", "1.5", "--steps", "6"], "evolve_in.json", None, "evolve_out.csv"),
    (EVOLVE_GENERIC, "evolve_generic_in.json", None, "evolve_generic_out.csv"),
    ([*EVOLVE_GENERIC, "--format", "json"], "evolve_generic_in.json", None, "evolve_generic_out.json"),
    (["evolve", "--x", "2", "--t-end", "2.5", "--steps", "10"], "evolve_a0_in.json", None, "evolve_a0_out.csv"),
    (EVOLVE_GENERIC, "evolve_tol_in.json", {"QPROB_TOL": "1e-2"}, "evolve_tol_out.csv"),
    # figures writes files into --out: each written file against its golden
    (["figures"], "sigma_z_rep.json", None, FIGURES_REP),
    (["figures", "--allow-unphysical"], "degenerate_state.json", None, {"squares.svg": "degenerate_squares.svg"}),
], ids=["encode", "encode-generic", "decode", "decode-generic", "tomogram-state", "tomogram-observable",
        "check", "check-generic", "evolve", "evolve-generic", "evolve-json", "evolve-a0", "evolve-tol",
        "figures", "figures-degenerate"])
def test_array_free_commands_load_no_numpy(tmp_path, args, infile, env, golden):
    if args[0] == "figures":
        args = [*args, "--out", str(tmp_path)]
    result = run_python("-X", "importtime", "-m", "qprob", *args, "--in", str(GOLDEN / infile), env=env)
    assert result.returncode == 0, result.stderr
    if isinstance(golden, str):
        assert result.stdout == (GOLDEN / golden).read_text(encoding="utf-8")
    else:
        for name, expected in golden.items():
            assert (tmp_path / name).read_bytes() == (GOLDEN / expected).read_bytes()
    modules = imported_modules(result.stderr)
    assert "qprob" in modules and "numpy" not in modules


@pytest.mark.parametrize("module, name, expected", [
    (qprob, "SIGMA_X", np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)),
    (qprob, "SIGMA_Y", np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)),
    (qprob, "SIGMA_Z", np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)),
    (qprob, "IDENTITY", np.eye(2, dtype=complex)),
    (qprob, "BALL_CENTER", np.array([0.5, 0.5, 0.5])),
    (matrix_oracle, "IDENTITY", np.eye(2, dtype=complex)),
    (qubit_core, "BALL_CENTER", np.array([0.5, 0.5, 0.5])),
    (suprematism_geometry, "REFERENCE_CORNERS",
     np.array([[0.0, 0.0], [np.sqrt(2.0), 0.0], [0.5 * np.sqrt(2.0), 0.5 * np.sqrt(6.0)]])),
    (diagnostics, "PROBE_DENSITIES", np.stack([qubit_core.density_from_probs(p) for p in diagnostics.PROBE_TRIPLES])),
], ids=lambda v: v if isinstance(v, str) else None)
def test_array_constants_keep_their_bytes_and_identity(module, name, expected):
    value = getattr(module, name)
    assert value.dtype == expected.dtype and value.shape == expected.shape
    assert value.tobytes() == expected.tobytes()
    assert getattr(module, name) is value
    # a package re-export is the defining module's object
    home = {"BALL_CENTER": qubit_core}.get(name, matrix_oracle) if module is qprob else module
    assert getattr(home, name) is value


def test_side_keeps_its_bits_and_unknown_names_still_raise():
    assert suprematism_geometry.SIDE == np.sqrt(2.0) == math.sqrt(2.0)
    for module in (qprob, matrix_oracle, qubit_core, suprematism_geometry, diagnostics):
        with pytest.raises(AttributeError, match="has no attribute 'NO_SUCH_NAME'"):
            getattr(module, "NO_SUCH_NAME")
