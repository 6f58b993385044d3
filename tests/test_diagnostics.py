"""checked_map: the one place a closed form is compared with its oracle; a mismatch warns and replaces nothing."""

import pathlib
import warnings

import numpy as np
import pytest

from qprob import (
    ChannelSpec,
    FormulaMismatchWarning,
    build_kinetic,
    channel_map,
    cli,
    evolution,
    evolve_observable,
    rotation_from_unitary,
    tomography_channels,
)
from qprob.diagnostics import checked_map, component_checks, failed_checks
from qprob.matrix_oracle import IDENTITY, SIGMA_X, SIGMA_Z

EVOLVE_IN = pathlib.Path(__file__).parent / "golden" / "evolve_in.json"

CLOSED = (np.arange(9.0).reshape(3, 3), np.array([0.5, 1.5, 2.5]))


def shifted(i: int, j: int, by: float):
    L, C = CLOSED[0].copy(), CLOSED[1].copy()
    if i < 3:
        L[i, j] += by
    else:
        C[j] += by
    return L, C


def test_agreement_warns_nothing():
    oracle = shifted(0, 1, 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert checked_map(CLOSED, oracle, 1e-9, "test map") is None


def test_mismatch_names_each_component():
    oracle = shifted(1, 2, 0.25)
    oracle[1][2] += 0.5
    with pytest.warns(FormulaMismatchWarning, match=r"test map .* L23 off by 2\.500e-01, C3 off by 5\.000e-01$"):
        assert checked_map(CLOSED, oracle, 1e-9, "test map") is None


def test_nan_deviation_is_a_mismatch():
    oracle = shifted(3, 0, np.nan)
    with pytest.warns(FormulaMismatchWarning, match="C1 off by nan"):
        assert checked_map(CLOSED, oracle, 1e-9, "test map") is None


def test_component_checks_agree_with_checked_map():
    oracle = shifted(2, 0, 0.25)
    checks = component_checks(CLOSED, oracle, 1e-9)
    assert [c.name for c in checks] == [f"L{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)] + ["C1", "C2", "C3"]
    assert [c.name for c in failed_checks(checks)] == ["L31"]


@pytest.fixture
def oracle_calls(monkeypatch):
    """A list that fills with the name of each oracle the map builders run."""
    calls = []
    for module, name in ((tomography_channels, "rotation_oracle"), (evolution, "kinetic_oracle")):
        def counting(m, oracle=getattr(module, name), name=name):
            calls.append(name)
            return oracle(m)
        monkeypatch.setattr(module, name, counting)
    return calls


def test_production_calls_run_no_oracle(oracle_calls, capsys):
    spec = ChannelSpec(((0.5, IDENTITY), (0.5, SIGMA_X)))
    rotation_from_unitary(SIGMA_X)
    channel_map(spec)
    build_kinetic(SIGMA_Z, 0.0)
    evolve_observable(SIGMA_X, SIGMA_Z, 2.0, 0.5)
    assert cli.main(["evolve", "--t-end", "1.5", "--steps", "6", "--in", str(EVOLVE_IN)]) == 0
    capsys.readouterr()
    assert oracle_calls == []


def test_a_tolerance_runs_each_oracle_once(oracle_calls):
    rotation_from_unitary(SIGMA_X, formula_tol=1e-9)
    assert oracle_calls == ["rotation_oracle"]
    # a channel runs the rotation oracle once per term
    channel_map(ChannelSpec(((0.5, IDENTITY), (0.5, SIGMA_X))), formula_tol=1e-9)
    assert oracle_calls == ["rotation_oracle"] * 3
    build_kinetic(SIGMA_Z, 0.0, fd_tol=1e-4)
    assert oracle_calls == ["rotation_oracle"] * 3 + ["kinetic_oracle"]
