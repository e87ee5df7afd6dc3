"""Tests of the benchmark's own code.  Run: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import spinfid.engine
import spinfid.experiments
from spinfid import csvio
from spinfid.engine import FidTrace

import checks
import harness
import tracing
import workloads
from tracing import Span


def _corrupt(op: workloads.Op, change) -> workloads.Op:
    """The same op, with ``change`` applied to its trace before the check sees it."""

    def run(workdir):
        outcome = op.run(workdir)
        result = outcome.payload
        trace = result.trace
        mx, my = change(trace.mx.copy(), trace.my.copy())
        bad = FidTrace.from_components(trace.grid, mx, my, trace.n_realizations, trace.seed, trace.polarization)
        outcome.payload = dataclasses.replace(result, trace=bad)
        return outcome

    return workloads.Op(op.name, run, op.check)


@pytest.fixture
def inputs(tmp_path):
    path = tmp_path / "inputs"
    path.mkdir()
    return path


def _errors(ops, workdir, tracer=None):
    wall, records = harness.run_pass(ops, workdir, tracer)
    assert wall > 0.0
    return [record.error for record in records]


class TestChecks:
    def test_correct_ops_pass(self, tmp_path, inputs):
        ops = workloads.secular_ensemble(5, inputs, draws=2000, long_draws=500)
        ops += workloads.exchange_sweep(5, inputs, draws=20)
        assert _errors(ops, tmp_path) == [None] * len(ops)

    def test_wrong_secular_trace_fails(self, tmp_path, inputs):
        op = workloads.secular_ensemble(5, inputs, draws=20_000, long_draws=500)[0]
        wrong = _corrupt(op, lambda mx, my: (1.1 * mx, my))
        [error] = _errors([wrong], tmp_path)
        assert error is not None and "closed form" in error

    def test_wrong_dense_trace_fails(self, tmp_path, inputs):
        op = workloads.exchange_sweep(5, inputs, draws=20)[1]
        wrong = _corrupt(op, lambda mx, my: (mx + 1e-7, my))
        [error] = _errors([wrong], tmp_path)
        assert error is not None and "D(t) chi(t)" in error

    def test_wrong_sweep_table_fails(self, tmp_path, inputs):
        op = workloads.exchange_sweep(5, inputs, draws=20)[0]

        def run(workdir):
            outcome = op.run(workdir)
            outcome.payload = {**outcome.payload, "r_numeric": outcome.payload["r_numeric"] * (1 + 1e-6)}
            return outcome

        [error] = _errors([workloads.Op(op.name, run, op.check)], tmp_path)
        assert error is not None and "r_numeric" in error

    def test_csv_that_reads_back_wrong_fails(self, tmp_path, inputs):
        op = workloads.secular_ensemble(5, inputs, draws=2000, long_draws=500)[0]

        def run(workdir):
            outcome = op.run(workdir)
            trace = outcome.payload.trace
            # One ulp on every value: still parseable, still near the closed form.
            mx = np.nextafter(trace.mx, np.inf)
            bad = FidTrace.from_components(trace.grid, mx, trace.my, trace.n_realizations, trace.seed, trace.polarization)
            csvio.emit_trace_csv(str(outcome.files[0]), bad)
            return outcome

        [error] = _errors([workloads.Op(op.name, run, op.check)], tmp_path)
        assert error is not None and "does not read back" in error

    def test_wrong_cli_trace_file_fails(self, tmp_path, inputs):
        ops = workloads.cli_startup(5, inputs, draws=2000, in_process=True)
        assert _errors(ops, tmp_path) == [None] * len(ops)
        path = tmp_path / "fig2-pps.csv"
        trace = csvio.load_csv(str(path)).trace()
        bad = FidTrace.from_components(
            trace.grid, 0.8 * trace.mx, trace.my, trace.n_realizations, trace.seed, trace.polarization
        )
        csvio.emit_trace_csv(str(path), bad)
        [error] = _errors(ops[-1:], tmp_path)
        assert error is not None and "fig2-pps.csv" in error and "closed form" in error

    def test_failing_cli_op_fails(self, tmp_path, inputs):
        op = workloads.cli_startup(5, inputs, draws=50, in_process=True)[0]
        broken = workloads.Op(
            "bad-preset", lambda workdir: workloads.Outcome(payload=(2, b"usage")), op.check
        )
        [error] = _errors([broken], tmp_path)
        assert error is not None and "exit code 2" in error

    def test_raising_op_fails(self, tmp_path):
        def run(workdir):
            raise ValueError("boom")

        [error] = _errors([workloads.Op("raises", run, lambda outcome: None)], tmp_path)
        assert error == "ValueError: boom"

    def test_secular_tolerance_scales_with_draws(self):
        assert checks.secular_tolerance(0.5, 100) == pytest.approx(4 * checks.secular_tolerance(0.5, 1600))

    def test_changed_digest_fails(self):
        first = [harness.OpRecord("a", 1.0, digest="x"), harness.OpRecord("b", 1.0, digest="y")]
        second = [harness.OpRecord("a", 1.0, digest="x"), harness.OpRecord("b", 1.0, digest="z")]
        harness.mark_digest_changes([first, second])
        assert [record.error for record in second] == [None, "output differs from the first pass"]


class TestArithmetic:
    def test_union_length(self):
        assert tracing.union_length([]) == 0.0
        assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
        assert tracing.union_length([(1, 4), (1, 4)]) == 3.0

    def test_self_time_subtracts_union_of_clipped_children(self):
        spans = [
            Span(0, None, "engine", "evolve_fid", 0.0, 10.0),
            Span(1, 0, "noise", "sample_block", 1.0, 3.0),
            Span(2, 0, "noise", "sample_block", 2.0, 5.0),  # overlaps span 1, as on a second worker
            Span(3, 0, "csvio.write", "write_csv", 8.0, 12.0),  # clipped to the parent's end
            Span(4, 3, "analytic", "fid_pps", 9.0, 9.5),
        ]
        own = tracing.self_times(spans)
        assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
        assert own[1] == 2.0 and own[2] == 3.0
        assert own[3] == pytest.approx(3.5)
        assert own[4] == 0.5

    def test_pass_medians(self):
        records = [harness.OpRecord(f"op{i}", latency) for i, latency in enumerate([0.4, 0.1, 0.3, 0.2])]
        assert harness.pass_medians([3.0, 1.0, 2.0], records) == {"wall_s": 2.0, "op_p50_s": 0.25}

    def test_layer_metrics_on_synthetic_spans(self):
        spans = [
            Span(0, None, "engine", "evolve_fid", 0.0, 4.0, {"cells": 800, "dense": True}),
            Span(1, 0, "noise", "sample_block", 0.5, 1.5, {"seed": 1, "lo": 0, "hi": 100}),
            Span(2, 0, "noise", "sample_block", 1.0, 2.0, {"seed": 1, "lo": 0, "hi": 100}),
            Span(3, None, "engine", "evolve_fid", 5.0, 6.0, {"cells": 200, "dense": False}),
            Span(4, 3, "noise", "sample_block", 5.0, 5.5, {"seed": 2, "lo": 50, "hi": 150}),
        ]
        metrics = tracing.layer_metrics(spans)
        assert metrics["noise.sample_block.calls"] == 3
        assert metrics["noise.draws"] == 300
        assert metrics["noise.unique_draw_ratio"] == pytest.approx(200 / 300)
        assert metrics["noise.sample_block.busy_s"] == pytest.approx(2.0)
        assert metrics["engine.evolve_fid.busy_s"] == pytest.approx(5.0)
        assert metrics["engine.evolve_fid.self_s"] == pytest.approx(5.0 - 1.5 - 0.5)
        assert metrics["engine.cells"] == 1000 and metrics["engine.dense_cells"] == 800
        assert metrics["engine.cells_per_s"] == pytest.approx(200.0)


class TestTracing:
    def test_names_patched_where_callers_look_them_up(self):
        originals = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in tracing.TARGETS}
        with tracing.Tracer().installed():
            assert spinfid.experiments.evolve_fid.__wrapped__ is originals[(spinfid.experiments, "evolve_fid")]
            assert spinfid.engine.build_effective.__wrapped__ is originals[(spinfid.engine, "build_effective")]
            for owner, attr, _ in tracing.TARGETS:
                assert owner.__dict__[attr] is not originals[(owner, attr)]
        for owner, attr, _ in tracing.TARGETS:
            assert owner.__dict__[attr] is originals[(owner, attr)]

    def test_worker_thread_spans_count_against_evolve_fid(self, tmp_path, inputs):
        op = workloads.secular_ensemble(5, inputs, draws=40_000, long_draws=500)[0]
        tracer = tracing.Tracer()
        assert _errors([op], tmp_path, tracer) == [None]
        [engine] = [span for span in tracer.spans if span.layer == "engine"]
        noise = [span for span in tracer.spans if span.layer == "noise"]
        assert len(noise) > 1 and all(span.parent == engine.id for span in noise)

    @pytest.mark.parametrize(
        ("build", "layers"),
        [
            (
                lambda inputs: workloads.secular_ensemble(5, inputs, draws=2000, long_draws=500),
                ("noise.sample_block", "engine.evolve_fid", "hamiltonians.build", "states.prep", "analytic",
                 "csvio.write", "experiments.run_experiment"),
            ),
            (
                lambda inputs: workloads.exchange_sweep(5, inputs, draws=20),
                ("noise.sample_block", "engine.evolve_fid", "hamiltonians.build", "states.prep", "analytic",
                 "csvio.write", "experiments.run_experiment"),
            ),
            (
                lambda inputs: workloads.cli_startup(5, inputs, draws=50, in_process=True),
                ("config.parse", "csvio.read", "csvio.write", "analytic", "experiments.run_experiment"),
            ),
        ],
        ids=["secular-ensemble", "exchange-sweep", "cli-startup"],
    )
    def test_every_layer_called_on_its_workload(self, tmp_path, inputs, build, layers):
        ops = build(inputs)
        tracer = tracing.Tracer()
        assert _errors(ops, tmp_path, tracer) == [None] * len(ops)
        metrics = tracing.layer_metrics(tracer.spans)
        for layer in layers:
            assert metrics[f"{layer}.calls"] > 0, layer
        if "config.parse" in layers:
            assert metrics["validate.busy_s"] > 0 and metrics["cli.main.busy_s"] > 0

    def test_thread_speedup_checks_byte_identity(self, tmp_path):
        config = workloads.secular_config("pps", "lorentzian", 1.0, 20_000, 9)
        speedup, records = harness.thread_speedup(config, tmp_path)
        assert speedup > 0.0
        assert [record.error for record in records] == [None, None]
        assert records[0].digest == records[1].digest


def test_cli_children_import_from_checkout_src():
    path = workloads.cli_env()["PYTHONPATH"].split(":")[0]
    assert path == str(workloads.SRC) and workloads.SRC.is_absolute()


def test_benchmark_declares_every_per_layer_metric():
    assert set(tracing.layer_metrics([])) <= set(harness.declared_units(trace=True))
