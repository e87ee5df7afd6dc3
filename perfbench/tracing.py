"""Spans recorded around calls into the spinfid modules, from outside the package.

``Tracer.installed()`` replaces each traced function with a timing
wrapper in the namespace its caller looks it up in (for example
``spinfid.experiments.evolve_fid``, because ``run_experiment`` calls the
name bound in its own module), and restores the originals on exit.
Spans stay in memory; ``layer_metrics`` turns them into the per-layer
numbers.

A span opened on a thread with no open span of its own (the engine's
worker threads) takes the innermost open ``evolve_fid`` span as its
parent, so chunk work done by workers counts against the call that
spawned it.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

import spinfid.cli
import spinfid.csvio
import spinfid.engine
import spinfid.experiments
import spinfid.noise
import spinfid.validate


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# (object holding the name, attribute, layer).  Each entry is the lookup
# site of a caller: patching only the defining module would miss every
# caller that imported the name with ``from .x import y``.
TARGETS: tuple[tuple[object, str, str], ...] = (
    (spinfid.noise.NoiseModel, "sample_block", "noise"),
    (spinfid.experiments, "evolve_fid", "engine"),
    (spinfid.validate, "evolve_fid", "engine"),
    (spinfid.engine, "build_effective", "hamiltonians"),
    (spinfid.engine, "build_rotating_heisenberg", "hamiltonians"),
    (spinfid.validate, "build_effective", "hamiltonians"),
    (spinfid.validate, "build_lab", "hamiltonians"),
    (spinfid.validate, "build_rotating_heisenberg", "hamiltonians"),
    (spinfid.experiments, "thermal_state", "states"),
    (spinfid.experiments, "pps_state", "states"),
    (spinfid.experiments, "apply_pulse", "states"),
    (spinfid.validate, "thermal_state", "states"),
    (spinfid.validate, "pps_state", "states"),
    (spinfid.validate, "apply_pulse", "states"),
    (spinfid.experiments, "fid_perturbative", "analytic"),
    (spinfid.experiments, "fid_pps", "analytic"),
    (spinfid.experiments, "fid_single", "analytic"),
    (spinfid.experiments, "fid_thermal", "analytic"),
    (spinfid.experiments, "residual_ratio_analytic", "analytic"),
    (spinfid.engine, "trapezoid_weights", "analytic"),
    (spinfid.validate, "fid_pps_single", "analytic"),
    (spinfid.validate, "fid_thermal_single", "analytic"),
    (spinfid.experiments, "emit_trace_csv", "csvio.write"),
    (spinfid.experiments, "write_csv", "csvio.write"),
    (spinfid.cli, "write_csv", "csvio.write"),
    (spinfid.validate, "emit_trace_csv", "csvio.write"),
    (spinfid.csvio, "load_csv", "csvio.read"),
    (spinfid.validate, "load_csv", "csvio.read"),
    (spinfid.cli, "parse_config_file", "config"),
    (spinfid.validate, "parse_config", "config"),
    (spinfid.experiments, "run_experiment", "experiments"),
    (spinfid.experiments, "run_preset", "experiments"),
    (spinfid.experiments, "sweep_residuals", "experiments"),
    (spinfid.cli, "run_experiment", "experiments"),
    (spinfid.cli, "run_preset", "experiments"),
    (spinfid.cli, "sweep_residuals", "experiments"),
    (spinfid.validate, "run_experiment", "experiments"),
    (spinfid.cli, "run_validation", "validate"),
    (spinfid.cli, "main", "cli"),
)


def _file_bytes(bound: inspect.BoundArguments) -> dict:
    return {"bytes": os.path.getsize(bound.arguments["path"])}


def _draws(bound: inspect.BoundArguments) -> dict:
    args = bound.arguments
    return {"seed": args["seed"], "lo": args["start"], "hi": args["start"] + args["count"]}


def _cells(bound: inspect.BoundArguments) -> dict:
    bound.apply_defaults()
    args = bound.arguments
    kind = args["hamiltonian"] or ("effective" if args["spec"].coupling_form == "ising" else "heisenberg")
    return {"cells": args["n_realizations"] * args["grid"].n_points, "dense": kind == "heisenberg"}


# Attributes read from a finished call's arguments.
_ATTRS: dict[str, Callable[[inspect.BoundArguments], dict]] = {
    "csvio.write": _file_bytes,
    "csvio.read": _file_bytes,
    "noise": _draws,
    "engine": _cells,
}


class Tracer:
    """Collects spans while installed; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._engine_open: list[int] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, fn: Callable, layer: str) -> Callable:
        signature = inspect.signature(fn)
        attrs = _ATTRS.get(layer)

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._engine_open[-1] if self._engine_open else None)
            span = Span(next(self._ids), parent, layer, fn.__name__, time.perf_counter())
            stack.append(span.id)
            if layer == "engine":
                self._engine_open.append(span.id)
            finished = False
            try:
                result = fn(*args, **kwargs)
                finished = True
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if layer == "engine":
                    self._engine_open.pop()
                if attrs is not None and finished:
                    span.attrs = attrs(signature.bind(*args, **kwargs))
                self.spans.append(span)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, layer in TARGETS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, layer))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {span.id: span for span in spans}
    for span in spans:
        if span.parent in by_id:
            parent = by_id[span.parent]
            clipped = (max(span.start, parent.start), min(span.end, parent.end))
            if clipped[1] > clipped[0]:
                children.setdefault(span.parent, []).append(clipped)
    return {span.id: span.duration - union_length(children.get(span.id, ())) for span in spans}


def _total(spans: list[Span], key: str) -> int:
    return sum(span.attrs.get(key, 0) for span in spans)


def _busy(spans: list[Span]) -> float:
    return union_length((span.start, span.end) for span in spans)


def unique_draw_ratio(spans: list[Span]) -> float:
    """Distinct (seed, realization index) pairs over all draws made."""
    spans = [span for span in spans if span.attrs]
    draws = _total(spans, "hi") - _total(spans, "lo")
    if draws == 0:
        return 1.0
    by_seed: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        by_seed.setdefault(span.attrs["seed"], []).append((span.attrs["lo"], span.attrs["hi"]))
    distinct = sum(union_length(ranges) for ranges in by_seed.values())
    return distinct / draws


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass."""
    own = self_times(spans)

    def layer(name: str) -> list[Span]:
        return [span for span in spans if span.layer == name]

    noise, engine = layer("noise"), layer("engine")
    writes, reads = layer("csvio.write"), layer("csvio.read")
    experiments = layer("experiments")
    engine_busy = _busy(engine)
    cells = _total(engine, "cells")
    return {
        "noise.sample_block.calls": len(noise),
        "noise.draws": _total(noise, "hi") - _total(noise, "lo"),
        "noise.sample_block.busy_s": _busy(noise),
        "noise.unique_draw_ratio": unique_draw_ratio(noise),
        "engine.evolve_fid.calls": len(engine),
        "engine.evolve_fid.busy_s": engine_busy,
        "engine.evolve_fid.self_s": sum(own[span.id] for span in engine),
        "engine.cells": cells,
        "engine.dense_cells": _total([span for span in engine if span.attrs.get("dense")], "cells"),
        "engine.cells_per_s": cells / engine_busy if engine_busy > 0.0 else 0.0,
        "hamiltonians.build.calls": len(layer("hamiltonians")),
        "hamiltonians.build.busy_s": _busy(layer("hamiltonians")),
        "states.prep.calls": len(layer("states")),
        "states.prep.busy_s": _busy(layer("states")),
        "analytic.calls": len(layer("analytic")),
        "analytic.busy_s": _busy(layer("analytic")),
        "csvio.write.calls": len(writes),
        "csvio.write.bytes": _total(writes, "bytes"),
        "csvio.write.busy_s": _busy(writes),
        "csvio.read.calls": len(reads),
        "csvio.read.bytes": _total(reads, "bytes"),
        "csvio.read.busy_s": _busy(reads),
        "config.parse.calls": len(layer("config")),
        "config.parse.busy_s": _busy(layer("config")),
        "experiments.run_experiment.calls": sum(span.name == "run_experiment" for span in experiments),
        "experiments.self_s": sum(own[span.id] for span in experiments),
        "validate.busy_s": _busy(layer("validate")),
        "cli.main.busy_s": _busy(layer("cli")),
    }
