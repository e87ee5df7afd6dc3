"""Shared fixtures and the acceptance-report terminal summary."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import spinfid.engine
from spinfid import NoiseModel, SpinSystemSpec, TimeGrid

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# Rows of (number, title, passed, detail) appended by tests/test_acceptance.py.
ACCEPTANCE_REPORT: list[tuple[int, str, bool, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_REPORT:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, title, passed, detail in sorted(ACCEPTANCE_REPORT):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number} [{verdict}] {title} — {detail}")


def subprocess_env() -> dict[str, str]:
    """Environment for a ``python -m spinfid`` child run from any directory.

    Puts this checkout's absolute ``src/`` first on PYTHONPATH, so the
    child imports the code under test even when its working directory is
    elsewhere and the package is not installed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC_DIR), env.get("PYTHONPATH"))))
    return env


@pytest.fixture(autouse=True)
def fresh_phase_sum_cache():
    """Each test starts with an empty phase-sum cache, so none depends on another's ensemble."""
    spinfid.engine._phase_sum.cache_clear()


@pytest.fixture
def default_system() -> SpinSystemSpec:
    """The stock three-spin system with its built-in offsets and couplings."""
    return SpinSystemSpec()


@pytest.fixture
def pps_system() -> SpinSystemSpec:
    """Stock system with the positive polarization used for pseudo-pure runs."""
    return SpinSystemSpec(polarization=1.0)


@pytest.fixture
def default_grid() -> TimeGrid:
    return TimeGrid()


@pytest.fixture
def lorentzian_28() -> NoiseModel:
    return NoiseModel("lorentzian", 28.0)


@pytest.fixture
def noiseless() -> NoiseModel:
    return NoiseModel("white", 0.0)
