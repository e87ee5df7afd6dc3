"""Test setup for the benchmark's own code: import spinfid from the checkout's src/."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
