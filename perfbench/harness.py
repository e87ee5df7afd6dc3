"""Runs one workload: untraced for the end-to-end metrics, traced for the layers.

Load is a closed loop with one client: each op starts when the previous
one has returned.  A pass runs every op of the workload once, back to
back; checks and digests follow the pass, outside its timed interval.
Passes repeat until the next one would end after ``seconds``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy
import scipy

import checks
import tracing
import workloads
from spinfid import experiments
from spinfid.engine import _resolve_workers

ROOT = workloads.ROOT
TMP = ROOT / ".perfbench_tmp"
RESULTS = ROOT / ".perfbench_results"
RUN_PY = Path(__file__).resolve().parent / "run.py"

SETUP_REPEATS = 5
IMPORT_REPEATS = 5
# Thread speed-ups are measured on one op of each path at the presets'
# secular size and a tenth of their dense size.
SPEEDUP_SECULAR_DRAWS = 100_000
SPEEDUP_DENSE_DRAWS = 1000


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec["per_layer" if trace else "end_to_end"]}


@dataclass
class OpRecord:
    name: str
    latency_s: float
    digest: str | None = None
    error: str | None = None
    maxrss_kb: int = 0


def run_pass(ops: list[workloads.Op], workdir: Path, tracer: tracing.Tracer | None = None):
    """Time every op once, then check each outcome; returns (wall_s, records)."""
    records, outcomes = [], []
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        for op in ops:
            began = time.perf_counter()
            outcome, error = None, None
            try:
                outcome = op.run(workdir)
            except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
                error = f"{type(exc).__name__}: {exc}"
            records.append(OpRecord(op.name, time.perf_counter() - began, error=error))
            outcomes.append(outcome)
        wall = time.perf_counter() - start
    for op, record, outcome in zip(ops, records, outcomes):
        if outcome is None:
            continue
        record.maxrss_kb = outcome.maxrss_kb
        try:
            op.check(outcome)
            record.digest = outcome.digest()
        except Exception as exc:  # a failed check is a failed op
            record.error = f"{type(exc).__name__}: {exc}"
    return wall, records


def mark_digest_changes(passes: list[list[OpRecord]]) -> None:
    """Fail any op whose output bytes differ from its first pass's."""
    first = {record.name: record.digest for record in passes[0]}
    for records in passes[1:]:
        for record in records:
            if record.error is None and record.digest != first.get(record.name):
                record.error = "output differs from the first pass"


def _workdir(parent: Path, name: str) -> Path:
    path = parent / name
    path.mkdir()
    return path


def repeat_passes(ops, scratch: Path, seconds: float, traced: bool = False):
    """Passes until the next would end after ``seconds``; at least one.

    With ``traced``, every second pass is traced (at least one of each), so
    untraced and traced passes see the same machine conditions.
    """
    walls, passes, tracers = [], [], []
    begin = time.perf_counter()
    while len(walls) < 1 + traced or (time.perf_counter() - begin) + median(walls) <= seconds:
        tracer = tracing.Tracer() if traced and len(walls) % 2 else None
        wall, records = run_pass(ops, _workdir(scratch, f"pass{len(walls)}"), tracer)
        walls.append(wall)
        passes.append(records)
        tracers.append(tracer)
    mark_digest_changes(passes)
    return walls, passes, tracers


def provenance(seed: int) -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        if head.returncode == 0:
            sha = head.stdout.strip()
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain"], capture_output=True, text=True
            )
            dirty = bool(status.stdout.strip())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_thread_env": {
            var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "workers": _resolve_workers(None),
        "seed": seed,
    }


def _timed_child(argv: list[str], scratch: Path) -> tuple[float, bytes]:
    began = time.perf_counter()
    code, _, err, _ = workloads.run_child(argv, scratch, scratch / ".child")
    elapsed = time.perf_counter() - began
    if code != 0:
        raise RuntimeError(f"{argv[1:]} exited {code}: {err.decode(errors='replace')[-500:]}")
    return elapsed, err


def setup_seconds(workload: str, seed: int, scratch: Path) -> float:
    """Median wall time of fresh processes that import, build the inputs and warm up."""
    argv = [sys.executable, str(RUN_PY), "--probe", "--workload", workload, "--seed", str(seed)]
    return median(_timed_child(argv, scratch)[0] for _ in range(SETUP_REPEATS))


def probe(workload: str, seed: int) -> None:
    """Set-up only: build the inputs and run the warm-up op, in a fresh process."""
    TMP.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(dir=TMP))
    try:
        spec = workloads.WORKLOADS[workload]
        spec.build(seed, inputs)
        spec.warmup(inputs)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


def import_seconds(scratch: Path) -> float:
    """Median wall time of a fresh ``python -c "import spinfid"``."""
    argv = [sys.executable, "-c", "import spinfid"]
    return median(_timed_child(argv, scratch)[0] for _ in range(IMPORT_REPEATS))


def scipy_special_import_seconds(scratch: Path) -> float:
    """Cumulative import time of ``scipy.special`` under ``import spinfid``; 0 when not imported."""
    argv = [sys.executable, "-X", "importtime", "-c", "import spinfid"]
    _, err = _timed_child(argv, scratch)
    for line in err.decode().splitlines():
        fields = line.split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[2].strip() == "scipy.special":
            return int(fields[1]) / 1e6
    return 0.0


def thread_speedup(config, scratch: Path) -> tuple[float, list[OpRecord]]:
    """evolve_fid busy time with one worker over that with the default count."""
    busy, records = [], []
    for workers in (1, None):
        path = scratch / f"speedup-{config.hamiltonian}-{workers}.csv"
        tracer = tracing.Tracer()
        began = time.perf_counter()
        with tracer.installed():
            result = experiments.run_experiment(replace(config, output=str(path)), workers=workers)
        record = OpRecord(f"speedup-{config.hamiltonian}-workers-{workers or 'default'}", time.perf_counter() - began)
        try:
            (checks.check_secular if config.hamiltonian == "effective" else checks.check_dense)(result)
            checks.check_round_trip(path, result.trace)
            record.digest = hashlib.sha256(path.read_bytes()).hexdigest()
        except Exception as exc:  # a failed check is a failed op
            record.error = f"{type(exc).__name__}: {exc}"
        busy.append(tracing.layer_metrics(tracer.spans)["engine.evolve_fid.busy_s"])
        records.append(record)
    if records[0].error is None and records[0].digest != records[1].digest:
        records[1].error = "CSV bytes differ between one worker and the default count"
    return busy[0] / busy[1], records


def pass_medians(walls: list[float], records: list[OpRecord]) -> dict[str, float]:
    """Median wall time of a pass and median latency of an op, over all passes."""
    return {"wall_s": median(walls), "op_p50_s": median(record.latency_s for record in records)}


def measure(workload: str, seed: int, seconds: float, scratch: Path) -> tuple[dict, list, dict]:
    """Untraced run: the end-to-end metrics."""
    spec = workloads.WORKLOADS[workload]
    setup_s = setup_seconds(workload, seed, scratch)
    inputs = _workdir(scratch, "inputs")
    ops = spec.build(seed, inputs)
    spec.warmup(inputs)
    walls, passes, _ = repeat_passes(ops, scratch, seconds)
    records = [record for records in passes for record in records]
    if spec.child_ops:
        peak_kb = max(record.maxrss_kb for record in records)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        **pass_medians(walls, records),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    notes = {"passes": len(walls), "ops": len(records), "setup_repeats": SETUP_REPEATS}
    return metrics, passes, notes


def measure_traced(workload: str, seed: int, seconds: float, scratch: Path) -> tuple[dict, list, dict]:
    """Traced run: per-layer metrics, thread speed-ups, imports and trace overhead."""
    spec = workloads.WORKLOADS[workload]
    inputs = _workdir(scratch, "inputs")
    ops = spec.build(seed, inputs)
    spec.warmup(inputs)
    notes: dict = {}
    passes = []
    import_s = import_seconds(scratch)
    if spec.child_ops:
        # The traced ops call spinfid.cli.main in this process; one pass of
        # real processes gives the op latency that import time is part of.
        _, child_pass = run_pass(ops, _workdir(scratch, "children"))
        passes.append(child_pass)
        notes["stress"] = {"cli.import_s / op_p50_s": import_s / median(r.latency_s for r in child_pass)}
        ops = spec.build(seed, inputs, in_process=True)
    walls, alternating, tracers = repeat_passes(ops, scratch, seconds, traced=True)
    passes += alternating
    traced_wall = median(wall for wall, tracer in zip(walls, tracers) if tracer is not None)
    untraced_wall = median(wall for wall, tracer in zip(walls, tracers) if tracer is None)
    per_pass = [tracing.layer_metrics(tracer.spans) for tracer in tracers if tracer is not None]
    metrics = {name: median(values[name] for values in per_pass) for name in per_pass[0]}
    if not spec.child_ops:
        notes["stress"] = {"engine.evolve_fid.self_s / wall_s": metrics["engine.evolve_fid.self_s"] / traced_wall}
    speedups = {}
    for path_name, config in (
        ("secular", workloads.secular_config("pps", "lorentzian", 1.0, SPEEDUP_SECULAR_DRAWS, seed)),
        ("dense", experiments.preset_config("fig4a", seed=seed, n_realizations=SPEEDUP_DENSE_DRAWS)),
    ):
        speedups[path_name], records = thread_speedup(config, scratch)
        passes.append(records)
    metrics.update(
        {
            "engine.thread_speedup.secular": speedups["secular"],
            "engine.thread_speedup.dense": speedups["dense"],
            "cli.import_s": import_s,
            "cli.import_scipy_special_s": scipy_special_import_seconds(scratch),
            "trace_overhead_s": traced_wall - untraced_wall,
        }
    )
    notes.update({"passes": len(walls), "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall})
    return metrics, passes, notes


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload, write the full record under ``.perfbench_results/``, return it."""
    TMP.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=TMP))
    try:
        measured = measure_traced if trace else measure
        metrics, passes, notes = measured(workload, seed, seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = declared_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from the declared {sorted(units)}")
    records = [record for records in passes for record in records]
    failed = sum(record.error is not None for record in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record_path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    full = {
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance(seed),
        "notes": notes,
        "result": result,
        "passes": [[asdict(record) for record in records] for records in passes],
    }
    record_path.write_text(json.dumps(full, indent=1) + "\n")
    return {"result": result, "notes": notes, "errors": [(r.name, r.error) for r in records if r.error], "record": record_path}
