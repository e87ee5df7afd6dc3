"""The self-consistency battery fails on a NaN residual, not only on a large one, and each known fault
fails exactly the checks named for it."""

from __future__ import annotations

import math

import numpy as np
import pytest

import spinfid.engine
import spinfid.noise
from spinfid.validate import _within, run_validation


def test_nan_residual_exceeds_every_bound():
    with pytest.raises(AssertionError, match="nan exceeds"):
        _within("residual", [0.0, np.nan, 1.0], np.inf)


EXACT_SIGNAL = spinfid.engine._zero_noise_signal
EXACT_QUANTILE = spinfid.noise._unit_quantile
EXACT_CHUNKS = spinfid.engine._chunk_bounds


def nan_signal_where(diagonal: bool):
    """D(t) made NaN for every diagonal (or every non-diagonal) H0."""

    def signal(h0, rho, obs, t):
        out = EXACT_SIGNAL(h0, rho, obs, t)
        if np.array_equal(h0, np.diag(np.diagonal(h0))) == diagonal:
            out[:] = np.nan
        return out

    return signal


def scaled_quantile(kind: str, factor: float):
    """The unit quantile with that of noise ``kind`` scaled by ``factor``."""
    return lambda k, u: EXACT_QUANTILE(k, u) * (factor if k == kind else 1.0)


def mapped_signal(change):
    """D(t) passed through ``change``."""
    return lambda h0, rho, obs, t: change(EXACT_SIGNAL(h0, rho, obs, t))


# (module, name, fault put in its place, the exact set of checks that fail under it).
FAULTS = {
    "nan-exchange-coupled-signal": (
        spinfid.engine, "_zero_noise_signal", nan_signal_where(diagonal=False), {"evolution-path-agreement"}
    ),
    "nan-secular-signal": (
        spinfid.engine, "_zero_noise_signal", nan_signal_where(diagonal=True),
        {"engine-closed-form", "coupling-invariance", "csv-roundtrip"},
    ),
    "lorentzian-quantile-times-2pi": (
        spinfid.noise, "_unit_quantile", scaled_quantile("lorentzian", math.tau), {"noise-statistics"}
    ),
    "gaussian-quantile-times-sqrt2": (
        spinfid.noise, "_unit_quantile", scaled_quantile("gaussian", math.sqrt(2.0)), {"noise-statistics"}
    ),
    # The 3- and 4-draw runs of the two engine checks have a single chunk, so they lose every draw.
    "phase-sum-without-last-chunk": (
        spinfid.engine, "_chunk_bounds", lambda n: EXACT_CHUNKS(n)[:-1],
        {"noise-statistics", "engine-closed-form", "evolution-path-agreement"},
    ),
    "conjugated-signal": (
        spinfid.engine, "_zero_noise_signal", mapped_signal(np.conjugate),
        {"engine-closed-form", "evolution-path-agreement"},
    ),
    "signal-times-1-plus-1e-6": (
        spinfid.engine, "_zero_noise_signal", mapped_signal(lambda d: d * (1.0 + 1e-6)),
        {"engine-closed-form", "evolution-path-agreement"},
    ),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_fails_exactly_its_checks(monkeypatch, fault):
    module, name, replacement, expected = FAULTS[fault]
    monkeypatch.setattr(module, name, replacement)
    # A phase sum cached before the fault would hide a sampler fault, and one cached under it would
    # leak into later tests.
    spinfid.engine._phase_sum.cache_clear()
    try:
        failed = {result.name for result in run_validation() if not result.passed}
    finally:
        spinfid.engine._phase_sum.cache_clear()
    assert failed == expected
