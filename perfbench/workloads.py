"""The benchmark's workloads: ops built from the workload seed.

An op is one call a user makes: a ``run_experiment``, a preset, or one CLI
process.  ``Op.run`` is the timed part and returns an ``Outcome``; the
op's check and the digest of its output bytes come after the timer stops.
Every op gets its own seed, derived from the workload seed, and the
package only ever receives the generated configs and command lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import spinfid.cli
import spinfid.config
from spinfid import csvio, experiments
from spinfid.engine import TimeGrid
from spinfid.noise import NoiseModel

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Sizes of the timed ops, well below the presets' 1e5 (secular) and 1e4
# (dense) draws.  On a shared 2-CPU VM, machine speed drifts by 10-20 %
# within a minute, and a dozen short passes per run give steadier medians
# than two long ones.
# The cost of an op scales with draws x grid points, so which layer
# dominates is the same as at full size.
SECULAR_DRAWS = 25_000
LONG_DRAWS = 3_000
LONG_POINTS = 4001
DENSE_DRAWS = 250
CLI_DRAWS = 2000

CLI_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    payload: object = None
    files: list[Path] = field(default_factory=list)
    stdout: bytes = b""
    maxrss_kb: int = 0

    def digest(self) -> str:
        h = hashlib.sha256(self.stdout)
        for path in self.files:
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.hexdigest()


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[Path], Outcome]
    check: Callable[[Outcome], None]


def _op_seeds(seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**32)


def _experiment_op(name: str, config, check: Callable) -> Op:
    def run(workdir: Path) -> Outcome:
        path = workdir / f"{name}.csv"
        result = experiments.run_experiment(replace(config, output=str(path)))
        return Outcome(payload=result, files=[path])

    def check_op(outcome: Outcome) -> None:
        check(outcome.payload)
        checks.check_round_trip(outcome.files[0], outcome.payload.trace)

    return Op(name, run, check_op)


def secular_config(state: str, kind: str, magnification: float, n_realizations: int, seed: int, grid=TimeGrid()):
    base = experiments.preset_config(f"fig2-{state}", seed=seed, n_realizations=n_realizations)
    return replace(
        base,
        system=replace(base.system, magnification=magnification),
        noise=NoiseModel(kind, 28.0),
        grid=grid,
    )


def secular_ensemble(seed: int, inputs: Path, draws: int = SECULAR_DRAWS, long_draws: int = LONG_DRAWS) -> list[Op]:
    """Diagonal-path runs that cycle noise kind, state and magnification."""
    seeds = _op_seeds(seed)
    ops = []
    for k in range(6):
        kind = ("lorentzian", "gaussian", "white")[k % 3]
        state = ("thermal", "pps")[k % 2]
        magnification = (1.0, 10.0)[k // 3]
        config = secular_config(state, kind, magnification, draws, next(seeds))
        ops.append(_experiment_op(f"{kind}-{state}-m{magnification:g}", config, checks.check_secular))
    long_grid = TimeGrid(n_points=LONG_POINTS)
    config = secular_config("thermal", "lorentzian", 1.0, long_draws, next(seeds), grid=long_grid)
    ops.append(_experiment_op("long-grid", config, checks.check_secular))
    return ops


def exchange_sweep(seed: int, inputs: Path, draws: int = DENSE_DRAWS) -> list[Op]:
    """Dense-path runs: one fig4b sweep over m = 1..5 and three fig4a traces."""
    seeds = _op_seeds(seed)
    sweep_base = experiments.preset_config("fig4b", seed=next(seeds), n_realizations=draws)

    def run_sweep(workdir: Path) -> Outcome:
        path = workdir / "fig4b.csv"
        result = experiments.run_preset(
            "fig4b", seed=sweep_base.seed, n_realizations=draws, output=str(path)
        )
        return Outcome(payload=result.table, files=[path])

    def check_sweep(outcome: Outcome) -> None:
        checks.check_sweep(outcome.payload, sweep_base)
        checks.check_table_round_trip(outcome.files[0], outcome.payload)

    ops = [Op("fig4b-sweep", run_sweep, check_sweep)]
    # Like the fig4a preset, the three magnifications share one seed.
    base = experiments.preset_config("fig4a", seed=next(seeds), n_realizations=draws)
    for magnification in (1.0, 2.5, 5.0):
        config = replace(base, system=replace(base.system, magnification=magnification))
        ops.append(_experiment_op(f"fig4a-m{magnification:g}", config, checks.check_dense))
    return ops


def cli_env() -> dict[str, str]:
    """Child environment: the checkout's ``src/`` first, so no install is needed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["COLUMNS"] = "80"
    return env


def run_child(argv: list[str], cwd: Path, log_stem: Path) -> tuple[int, bytes, bytes, int]:
    """Run one child process to completion: exit code, stdout, stderr, peak RSS in KiB.

    Output goes to files so the child never blocks on a full pipe, and the
    child is reaped with ``wait4`` to read its own peak RSS.
    """
    out_path, err_path = log_stem.with_suffix(".stdout"), log_stem.with_suffix(".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=cli_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss


def _in_process(argv: list[str], cwd: Path) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = spinfid.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(previous)
    return code, out.getvalue().encode(), err.getvalue().encode()


def _ini(kind: str, seed: int, draws: int) -> str:
    return (
        "[system]\npolarization = 1.0\n"
        f"[noise]\nkind = {kind}\nwidth = 28\n"
        "[state]\nkind = pps\n"
        "[grid]\nt_max = 0.024\nn_points = 481\n"
        f"[ensemble]\nn_realizations = {draws}\nseed = {seed}\n"
    )


def cli_startup(seed: int, inputs: Path, draws: int = CLI_DRAWS, in_process: bool = False) -> list[Op]:
    """One CLI process per op, then an in-process read-back of every CSV written."""
    seeds = _op_seeds(seed)
    configs = {}
    # Trace file -> the config it was run with, for the read-back check.
    trace_configs = {}
    for kind in ("lorentzian", "gaussian", "white"):
        configs[kind] = inputs / f"{kind}.ini"
        configs[kind].write_text(_ini(kind, next(seeds), draws))
        trace_configs[f"sim-{kind}.csv"] = spinfid.config.parse_config_file(str(configs[kind]))
    commands: list[tuple[str, list[str], list[str]]] = [
        ("help", ["--help"], []),
        ("preset-list", ["preset", "--list"], []),
        ("fig3", ["preset", "fig3", "--output", "fig3.csv"], ["fig3.csv"]),
    ]
    for kind, path in configs.items():
        out = f"sim-{kind}.csv"
        commands.append((f"simulate-{kind}", ["simulate", str(path), "--output", out], [out]))
    commands.append(
        (
            "sweep-width",
            ["sweep", "--config", str(configs["lorentzian"]), "--param", "width", "--values", "14,28,42",
             "--output", "sweep-width.csv"],
            ["sweep-width.csv"],
        )
    )
    for name in ("fig1", "fig2-thermal", "fig2-pps", "fig2-pps-x10"):
        op_seed = next(seeds)
        argv = ["preset", name, "--n-realizations", str(draws), "--seed", str(op_seed), "--output", f"{name}.csv"]
        commands.append((name, argv, [f"{name}.csv"]))
        trace_configs[f"{name}.csv"] = experiments.preset_config(name, seed=op_seed, n_realizations=draws)
    commands.append(("validate", ["validate"], []))

    def cli_op(name: str, argv: list[str], outputs: list[str]) -> Op:
        def run(workdir: Path) -> Outcome:
            if in_process:
                code, out, err = _in_process(argv, workdir)
                maxrss = 0
            else:
                child = [sys.executable, "-m", "spinfid", *argv]
                code, out, err, maxrss = run_child(child, workdir, workdir / f".{name}")
            files = [workdir / o for o in outputs]
            return Outcome(payload=(code, err), files=files, stdout=out, maxrss_kb=maxrss)

        def check(outcome: Outcome) -> None:
            code, err = outcome.payload
            if code != 0:
                raise checks.CheckError(f"exit code {code}: {err.decode(errors='replace').strip()[-300:]}")
            missing = [f.name for f in outcome.files if not f.is_file()]
            if missing:
                raise checks.CheckError(f"missing outputs {missing}")
            if name == "fig3":
                checks.check_fig3(str(outcome.files[0]))

        return Op(name, run, check)

    written = [o for _, _, outputs in commands for o in outputs]

    def read_back(workdir: Path) -> Outcome:
        loaded = {}
        for name in written:
            table = csvio.load_csv(str(workdir / name))
            # fig3 and the sweep write tables; every other file is a trace.
            loaded[name] = table.trace() if "mx" in table.columns else table
        return Outcome(payload=loaded)

    def check_read_back(outcome: Outcome) -> None:
        traces = {name for name, value in outcome.payload.items() if not isinstance(value, csvio.TableData)}
        if traces != set(trace_configs):
            raise checks.CheckError(f"rebuilt {sorted(traces)} as traces, expected {sorted(trace_configs)}")
        for name, config in trace_configs.items():
            try:
                checks.check_secular_trace(outcome.payload[name], config)
            except checks.CheckError as exc:
                raise checks.CheckError(f"{name}: {exc}") from None

    return [*(cli_op(*command) for command in commands), Op("read-back", read_back, check_read_back)]


@dataclass(frozen=True)
class Workload:
    build: Callable[..., list[Op]]
    warmup: Callable[[Path], None]
    # Ops run in child processes, so peak RSS is taken over the children.
    child_ops: bool = False


def _warm_secular(inputs: Path) -> None:
    experiments.run_experiment(experiments.preset_config("fig2-pps", n_realizations=1000))


def _warm_dense(inputs: Path) -> None:
    experiments.run_experiment(experiments.preset_config("fig4a", n_realizations=16))


def _warm_cli(inputs: Path) -> None:
    code, _, err, _ = run_child([sys.executable, "-m", "spinfid", "preset", "--list"], inputs, inputs / ".warmup")
    if code != 0:
        raise RuntimeError(f"spinfid preset --list exited {code}: {err.decode(errors='replace')}")


WORKLOADS: dict[str, Workload] = {
    "secular-ensemble": Workload(secular_ensemble, _warm_secular),
    "exchange-sweep": Workload(exchange_sweep, _warm_dense),
    "cli-startup": Workload(cli_startup, _warm_cli, child_ops=True),
}
