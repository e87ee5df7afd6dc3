"""The benchmark's own tests, run in a child process.

``perfbench/`` patches and imports package names (``engine._resolve_workers``,
``FidTrace.from_components``, the ``tracing.TARGETS`` entries), so a rename
that breaks the benchmark fails here too.  It runs as a separate pytest
because its ``conftest.py`` would clash with the one in ``tests/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from conftest import run_child

REPO_DIR = Path(__file__).resolve().parent.parent


def test_perfbench_tests_pass():
    result = run_child([sys.executable, "-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider"], cwd=REPO_DIR)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
