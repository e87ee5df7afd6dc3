#!/usr/bin/env python3
"""spinfid benchmark: one workload per call, end-to-end or per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload secular-ensemble --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (provenance, per-op latencies, digests and
errors) goes to ``.perfbench_results/``.  Only the checkout's ``src/`` is
benchmarked, never an installed copy; without it the run exits with 2.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("secular-ensemble", "exchange-sweep", "cli-startup")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS and set-up stay per workload."""
    combined = {}
    for workload in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0:
            print(child.stderr, file=sys.stderr)
            return child.returncode
        combined[workload] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def report(workload: str, seed: int, outcome: dict) -> None:
    result, notes = outcome["result"], outcome["notes"]
    print(f"{workload} seed {seed}: {notes}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'fail_ratio':34s} {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops failed)")
    for name, error in outcome["errors"]:
        print(f"  FAILED {name}: {error}")
    print(f"  record: {outcome['record'].relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinfid" / "__init__.py").is_file():
        print(f"error: no spinfid sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import harness

    if args.probe:
        harness.probe(args.workload, args.seed)
        return 0
    outcome = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, args.seed, outcome)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
