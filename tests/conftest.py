"""Shared fixtures, the child-process runner and the acceptance-report terminal summary."""

from __future__ import annotations

import os
import subprocess
import sys
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


def run_child(argv: list[str], cwd=None, env: dict[str, str | None] | None = None) -> subprocess.CompletedProcess[str]:
    """Run ``argv`` to completion in ``cwd`` and capture its stdout and stderr as text.

    The child inherits this environment with ``env`` applied on top: a
    value of None removes that variable.  This checkout's absolute
    ``src/`` goes first on PYTHONPATH, so a Python child imports the code
    under test from any working directory, installed or not.  This is the
    suite's only place that starts a process.
    """
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC_DIR), child_env.get("PYTHONPATH"))))
    for name, value in (env or {}).items():
        if value is None:
            child_env.pop(name, None)
        else:
            child_env[name] = value
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, env=child_env, timeout=300)


def run_cli(*args: str, cwd=None, env: dict[str, str | None] | None = None) -> subprocess.CompletedProcess[str]:
    """``python -m spinfid *args`` through :func:`run_child`."""
    return run_child([sys.executable, "-m", "spinfid", *args], cwd=cwd, env=env)


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
