"""checked_map: the one place a closed form is compared with its oracle and replaced."""

import numpy as np
import pytest

from qprob import FormulaMismatchWarning
from qprob.diagnostics import checked_map, component_checks, failed_checks

CLOSED = (np.arange(9.0).reshape(3, 3), np.array([0.5, 1.5, 2.5]))


def shifted(i: int, j: int, by: float):
    L, C = CLOSED[0].copy(), CLOSED[1].copy()
    if i < 3:
        L[i, j] += by
    else:
        C[j] += by
    return L, C


def test_agreement_returns_the_closed_form():
    oracle = shifted(0, 1, 1e-12)
    assert checked_map(CLOSED, oracle, 1e-9, "test map") is CLOSED


def test_mismatch_names_each_component_and_returns_the_oracle():
    oracle = shifted(1, 2, 0.25)
    oracle[1][2] += 0.5
    with pytest.warns(FormulaMismatchWarning, match=r"test map .* L23 off by 2\.500e-01, C3 off by 5\.000e-01"):
        assert checked_map(CLOSED, oracle, 1e-9, "test map") is oracle


def test_nan_deviation_is_a_mismatch():
    oracle = shifted(3, 0, np.nan)
    with pytest.warns(FormulaMismatchWarning, match="C1 off by nan"):
        assert checked_map(CLOSED, oracle, 1e-9, "test map") is oracle


def test_component_checks_agree_with_checked_map():
    oracle = shifted(2, 0, 0.25)
    checks = component_checks(CLOSED, oracle, 1e-9)
    assert [c.name for c in checks] == [f"L{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)] + ["C1", "C2", "C3"]
    assert [c.name for c in failed_checks(checks)] == ["L31"]
