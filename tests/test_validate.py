"""The self-consistency battery fails on a NaN residual, not only on a large one."""

from __future__ import annotations

import numpy as np
import pytest

import spinfid.engine
from spinfid.validate import _within, run_validation


def test_nan_residual_exceeds_every_bound():
    with pytest.raises(AssertionError, match="nan exceeds"):
        _within("residual", [0.0, np.nan, 1.0], np.inf)


def failed_checks_with_nan_signal(monkeypatch, diagonal: bool) -> set[str]:
    """Names of the checks that fail when D(t) is NaN for every diagonal (or every non-diagonal) H0."""
    exact = spinfid.engine._zero_noise_signal

    def nan_signal(h0, rho, obs, t):
        signal = exact(h0, rho, obs, t)
        if np.array_equal(h0, np.diag(np.diagonal(h0))) == diagonal:
            signal[:] = np.nan
        return signal

    monkeypatch.setattr(spinfid.engine, "_zero_noise_signal", nan_signal)
    return {result.name for result in run_validation() if not result.passed}


def test_nan_exchange_coupled_signal_fails_path_agreement(monkeypatch):
    assert failed_checks_with_nan_signal(monkeypatch, diagonal=False) == {"evolution-path-agreement"}


def test_nan_secular_signal_fails_coupling_invariance(monkeypatch):
    assert failed_checks_with_nan_signal(monkeypatch, diagonal=True) == {
        "engine-closed-form",
        "coupling-invariance",
        "csv-roundtrip",
    }
