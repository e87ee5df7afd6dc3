"""Command-line interface.

Verbs::

    spinfid simulate CONFIG [--output PATH] [--seed N] [--n-realizations N]
    spinfid preset NAME [--output PATH] [--seed N] [--n-realizations N]
    spinfid preset --list
    spinfid sweep (--config PATH | --preset NAME) --param {m,width}
                  --values V1,V2,... [--output PATH]
    spinfid validate

Exit codes: 0 success, 2 configuration or usage error, 3 numeric
invariant violation (including failed validation checks), 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .config import ConfigError, parse_config_file
from .csvio import write_csv
from .experiments import (
    PRESET_NAMES,
    SWEEP_PARAMS,
    NumericInvariantError,
    preset_config,
    run_experiment,
    run_preset,
    sweep_residuals,
    table_metadata,
)
from .validate import run_validation

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_IO = 4


def _worker_count(raw: str) -> int:
    """--workers value; rejected while parsing, so no verb starts with a bad count."""
    try:
        count = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"worker count must be an integer, got {raw!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"worker count must be >= 1, got {count}")
    return count


def _add_run_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", help="output CSV path (overrides the config)")
    parser.add_argument("--seed", type=int, help="ensemble seed override")
    parser.add_argument("--n-realizations", type=int, help="ensemble size override")
    parser.add_argument(
        "--workers", type=_worker_count, help="accepted for old scripts; must be >= 1 and changes nothing"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinfid",
        description="Simulate and analyze free-induction decay of small coupled spin systems.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_sim = sub.add_parser("simulate", help="run one simulation from a config file")
    p_sim.add_argument("config", help="path to an INI-style run configuration")
    _add_run_overrides(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_pre = sub.add_parser("preset", help="run a named stock scenario")
    p_pre.add_argument("name", nargs="?", choices=PRESET_NAMES, help="preset name")
    p_pre.add_argument("--list", action="store_true", help="list preset names and exit")
    _add_run_overrides(p_pre)
    p_pre.set_defaults(func=_cmd_preset)

    p_sweep = sub.add_parser("sweep", help="residuals against a swept parameter")
    source = p_sweep.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="base run configuration file")
    source.add_argument("--preset", choices=PRESET_NAMES, help="base preset name")
    p_sweep.add_argument("--param", choices=SWEEP_PARAMS, required=True, help="parameter to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated non-negative values")
    _add_run_overrides(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="run the fast self-consistency battery")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def _overrides(args: argparse.Namespace) -> dict[str, object]:
    """The --seed, --n-realizations and --output values given: RunConfig fields and run_preset keywords alike."""
    given = {key: getattr(args, key) for key in ("seed", "n_realizations", "output")}
    return {key: value for key, value in given.items() if value is not None}


def _describe(trace) -> str:
    return (
        f"{trace.grid.n_points} points to {trace.grid.t_max} s, "
        f"{trace.n_realizations} realizations, seed {trace.seed}, "
        f"mperp[0] = {trace.mperp[0]:.6g}, mperp[-1] = {trace.mperp[-1]:.6g}"
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = replace(parse_config_file(args.config), **_overrides(args))
    result = run_experiment(config)
    print(f"simulated: {_describe(result.trace)}")
    if config.output is not None:
        print(f"wrote {config.output}")
    return EXIT_OK


def _print_table(table) -> None:
    print(",".join(table))
    for row in zip(*table.values()):
        print(",".join(format(value, ".6g") for value in row))


def _cmd_preset(args: argparse.Namespace) -> int:
    if args.list:
        for name in PRESET_NAMES:
            print(name)
        return EXIT_OK
    if args.name is None:
        raise ConfigError("preset: a name is required unless --list is given")
    result = run_preset(args.name, **_overrides(args))
    if result.table is not None:
        _print_table(result.table)
    for path in result.paths:
        print(f"wrote {path}")
    return EXIT_OK


def _parse_values(raw: str) -> np.ndarray:
    try:
        values = np.array([float(piece) for piece in raw.split(",") if piece.strip()])
    except ValueError:
        raise ConfigError(f"--values: expected comma-separated numbers, got {raw!r}") from None
    if values.size == 0:
        raise ConfigError("--values: need at least one value")
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.config is not None:
        base = parse_config_file(args.config)
    else:
        base = preset_config(args.preset)
    base = replace(base, **{**_overrides(args), "output": None})
    values = _parse_values(args.values)
    table = sweep_residuals(base, values, param=args.param)
    out = args.output if args.output is not None else f"sweep_{args.param}.csv"
    write_csv(out, table, metadata=table_metadata(base))
    _print_table(table)
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    results = run_validation()
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
    failed = sum(not result.passed for result in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_INVARIANT


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericInvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
