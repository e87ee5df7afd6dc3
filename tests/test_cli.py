"""Command-line interface, exercised through real subprocess invocations."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from conftest import run_cli

from spinfid.analytic import fid_pps, fid_single, fid_thermal, residual_ratio_analytic
from spinfid.csvio import load_csv
from spinfid.experiments import preset_config

SMALL_INI = """\
[system]
polarization = 1.0
[noise]
kind = lorentzian
width = 28
[state]
kind = pps
[grid]
t_max = 0.004
n_points = 41
[ensemble]
n_realizations = 50
seed = 3
"""


def exchange_total_ini(delta: str) -> str:
    """SMALL_INI on the exchange-coupled path with the total readout and the given offsets."""
    return (
        SMALL_INI.replace("[system]\n", f"[system]\ndelta = {delta}\n")
        + "[run]\nhamiltonian = heisenberg\nobservable = total\n"
    )


class TestTopLevel:
    def test_help(self):
        result = run_cli("--help")
        assert result.returncode == 0
        for verb in ("simulate", "preset", "sweep", "validate"):
            assert verb in result.stdout

    def test_no_arguments_is_usage_error(self):
        assert run_cli().returncode == 2


class TestValidate:
    def test_validate_passes(self):
        result = run_cli("validate")
        assert result.returncode == 0
        assert "13/13 checks passed" in result.stdout
        assert "FAIL" not in result.stdout


class TestPreset:
    def test_list_names(self):
        result = run_cli("preset", "--list")
        assert result.returncode == 0
        names = result.stdout.split()
        assert names == [
            "fig1", "fig2-thermal", "fig2-pps", "fig2-pps-x10", "fig3", "fig4a", "fig4b",
        ]

    def test_unknown_name_rejected(self):
        assert run_cli("preset", "fig9").returncode == 2

    def test_theory_preset_writes_loadable_csv(self, tmp_path):
        out = tmp_path / "curves.csv"
        result = run_cli("preset", "fig3", "--output", str(out), cwd=tmp_path)
        assert result.returncode == 0
        assert "wrote" in result.stdout
        data = load_csv(str(out))
        assert set(data.columns) >= {"t_s", "oracle_thermal_mperp", "oracle_pps_mperp"}
        assert data.columns["t_s"].shape == (481,)
        # both reference curves start at the deviation amplitude |p|/2
        assert data.columns["oracle_thermal_mperp"][0] == 0.5
        assert data.columns["oracle_pps_mperp"][0] == 0.5
        assert "config_hash" in data.metadata
        # bit for bit the closed forms of the fig2-thermal and fig2-pps configurations
        thermal, pps = preset_config("fig2-thermal"), preset_config("fig3")
        t = pps.grid.points
        expected = {
            "oracle_thermal_mperp": fid_thermal(thermal.system, thermal.noise, t, observed=thermal.pulse.target)[2],
            "oracle_pps_mperp": fid_pps(pps.system, pps.noise, t, label=pps.label, observed=pps.pulse.target)[2],
        }
        assert list(data.columns) == ["t_s", *expected]
        for name, values in expected.items():
            assert data.columns[name].tobytes() == values.tobytes()

    def test_fig1_envelopes_are_the_closed_form_of_each_noise_family(self, tmp_path):
        out = tmp_path / "fig1.csv"
        result = run_cli("preset", "fig1", "--n-realizations", "50", "--output", str(out), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        oracles = load_csv(str(out)).oracles
        base = preset_config("fig1")
        assert list(oracles) == ["white", "gaussian", "lorentzian"]
        for kind, values in oracles.items():
            expected = fid_single(replace(base.noise, kind=kind), base.system.polarization, base.grid.points)[2]
            assert values.tobytes() == expected.tobytes()

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert run_cli("preset", "fig3", "--output", str(path), cwd=tmp_path).returncode == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_theory_preset_ignores_ensemble_overrides(self, tmp_path):
        # fig3 holds no draws: its trailer states seed 0 and no realizations, and its hash names the stock config.
        paths = [tmp_path / "stock.csv", tmp_path / "overridden.csv"]
        overrides = ([], ["--seed", "7", "--n-realizations", "50"])
        for path, extra in zip(paths, overrides):
            assert run_cli("preset", "fig3", "--output", str(path), *extra, cwd=tmp_path).returncode == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_default_output_name_in_cwd(self, tmp_path):
        result = run_cli("preset", "fig3", cwd=tmp_path)
        assert result.returncode == 0
        assert (tmp_path / "fig3.csv").exists()

    @pytest.mark.parametrize(
        "args",
        [("fig2-pps", "--n-realizations", "20000", "--seed", "7"), ("fig4b", "--n-realizations", "500")],
        ids=["fig2-pps", "fig4b"],
    )
    def test_bytes_independent_of_worker_and_blas_thread_counts(self, tmp_path, args):
        outputs = []
        for blas_threads in ("1", "2"):
            for workers in ("1", "3"):
                out = tmp_path / f"blas{blas_threads}-workers{workers}.csv"
                result = run_cli(
                    "preset", *args, "--workers", workers, "--output", str(out), cwd=tmp_path,
                    env={"OPENBLAS_NUM_THREADS": blas_threads, "OMP_NUM_THREADS": blas_threads},
                )
                assert result.returncode == 0, result.stderr
                outputs.append(out.read_bytes())
        assert all(data == outputs[0] for data in outputs[1:])

    def test_zero_workers_is_usage_error(self, tmp_path):
        result = run_cli("preset", "fig2-pps", "--workers", "0", cwd=tmp_path)
        assert result.returncode == 2
        assert "worker count" in result.stderr

    @pytest.mark.parametrize("args", [("fig3",), ("--list",)], ids=["fig3", "list"])
    def test_zero_workers_is_rejected_before_any_work(self, tmp_path, args):
        # fig3 never reaches the phase sum and --list runs nothing, so the
        # count must be refused while the arguments are parsed.
        result = run_cli("preset", *args, "--workers", "0", cwd=tmp_path)
        assert result.returncode == 2
        assert "worker count must be >= 1" in result.stderr
        assert result.stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_nonpositive_realization_count_is_usage_error(self, tmp_path, count):
        result = run_cli("preset", "fig2-pps", "--n-realizations", count, cwd=tmp_path)
        assert result.returncode == 2
        assert "n_realizations" in result.stderr
        assert not (tmp_path / "fig2-pps.csv").exists()

    def test_worker_count_ignores_environment(self, tmp_path):
        # Only --workers names a worker count, and it changes no byte; no
        # environment variable can change or break a run.
        outputs = []
        for env in ({}, {"SPINFID_WORKERS": "abc"}):
            out = tmp_path / f"run{len(outputs)}.csv"
            result = run_cli(
                "preset", "fig2-pps", "--n-realizations", "100", "--output", str(out),
                cwd=tmp_path, env=env,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestSimulate:
    def test_small_run_writes_trace_with_oracle(self, tmp_path):
        ini = tmp_path / "small.ini"
        ini.write_text(SMALL_INI)
        out = tmp_path / "small.csv"
        result = run_cli("simulate", str(ini), "--output", str(out), cwd=tmp_path)
        assert result.returncode == 0
        assert "wrote" in result.stdout
        data = load_csv(str(out))
        trace = data.trace()
        assert trace.grid.n_points == 41
        assert trace.seed == 3
        assert trace.n_realizations == 50
        assert trace.mperp[0] == pytest.approx(0.5)
        # matching closed-form magnitude rides along as an oracle column
        assert "pps" in data.oracles
        assert np.all(np.abs(trace.mperp - data.oracles["pps"]) < 0.2)

    def test_seed_override_changes_trace(self, tmp_path):
        ini = tmp_path / "small.ini"
        ini.write_text(SMALL_INI)
        outputs = []
        for tag, extra in (("a", []), ("b", ["--seed", "4"])):
            out = tmp_path / f"{tag}.csv"
            assert run_cli(
                "simulate", str(ini), "--output", str(out), *extra, cwd=tmp_path
            ).returncode == 0
            outputs.append(load_csv(str(out)).trace())
        assert outputs[1].seed == 4
        assert not np.array_equal(outputs[0].mx, outputs[1].mx)

    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[system]\nmagnification = -2\n")
        result = run_cli("simulate", str(bad), cwd=tmp_path)
        assert result.returncode == 2
        assert "config error" in result.stderr

    # 2*pi*1e308 rad/s is inf; 2*pi*1e305 is finite, but the widest Lorentzian draw, 3.5e15 widths out, is not.
    @pytest.mark.parametrize("width", ["1e308", "1e305"])
    def test_width_that_overflows_in_rad_per_s_is_a_config_error(self, tmp_path, width):
        ini = tmp_path / "wide.ini"
        ini.write_text(SMALL_INI.replace("width = 28", f"width = {width}"))
        result = run_cli("simulate", str(ini), cwd=tmp_path)
        assert result.returncode == 2
        assert result.stderr.startswith("config error:") and "Warning" not in result.stderr

    @pytest.mark.parametrize(
        "system, run, message",
        [
            ("delta = 0, 1e308, 1027\n", "", "config error: offsets, and couplings times the magnification"),
            ("j = 1e300, 69, 50\nmagnification = 1e10\n", "hamiltonian = heisenberg\n", "config error: offsets"),
            ("delta = 2e307, 2e307, 2e307\n", "", "config error: offsets"),
            ("delta = 1.5e307, 1.5e307, 1.5e307\n", "", "config error: offsets"),
            ("delta = 1.5e307, 1.5e307, 1.5e307\n", "hamiltonian = heisenberg\n", "config error: offsets"),
        ],
        ids=["offset", "coupling", "sum", "sum-effective", "sum-heisenberg"],
    )
    def test_offset_or_coupling_overflowing_in_rad_per_s_exits_2_without_warning(self, tmp_path, system, run, message):
        ini = tmp_path / "huge.ini"
        ini.write_text(SMALL_INI.replace("[system]\n", f"[system]\n{system}") + f"[run]\n{run}")
        result = run_cli("simulate", str(ini), cwd=tmp_path)
        assert result.returncode == 2
        assert result.stderr.startswith(message) and "Warning" not in result.stderr

    # On this 4 ms grid the line phases keep their digits (B t_max 2**-53 <= 1e-6 rad) up to about 6e10 Hz.
    @pytest.mark.parametrize("offset", ["1e306", "1e200", "1e11"])
    @pytest.mark.parametrize("hamiltonian", ["effective", "heisenberg"])
    def test_offsets_whose_line_phases_keep_no_digits_exit_2_without_warning(self, tmp_path, offset, hamiltonian):
        ini = tmp_path / "huge.ini"
        ini.write_text(
            SMALL_INI.replace("[system]\n", f"[system]\ndelta = {offset}, {offset}, {offset}\n")
            + f"[run]\nhamiltonian = {hamiltonian}\n"
        )
        result = run_cli("simulate", str(ini), "--output", str(tmp_path / "huge.csv"), cwd=tmp_path)
        assert result.returncode == 2
        assert result.stderr.startswith("error: offsets and couplings too large for this grid")
        assert "1e-06 rad bound" in result.stderr and "Warning" not in result.stderr
        assert not (tmp_path / "huge.csv").exists()

    @pytest.mark.parametrize("hamiltonian", ["effective", "heisenberg"])
    def test_offsets_below_the_phase_digit_limit_run_without_warning(self, tmp_path, hamiltonian):
        ini = tmp_path / "large.ini"
        ini.write_text(
            SMALL_INI.replace("[system]\n", "[system]\ndelta = 1e9, 1e9, 1e9\n") + f"[run]\nhamiltonian = {hamiltonian}\n"
        )
        result = run_cli("simulate", str(ini), "--output", str(tmp_path / "large.csv"), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "Warning" not in result.stderr

    def test_width_whose_phase_positions_keep_no_fraction_exits_2_without_warning(self, tmp_path):
        ini = tmp_path / "wide.ini"
        ini.write_text(SMALL_INI.replace("width = 28", "width = 1e19"))
        result = run_cli("simulate", str(ini), cwd=tmp_path)
        assert result.returncode == 2
        assert result.stderr.startswith("error: noise width 1e+19") and "Warning" not in result.stderr

    def test_negative_observable_index_is_a_config_error(self, tmp_path):
        ini = tmp_path / "negative.ini"
        ini.write_text(SMALL_INI + "[run]\nobservable = single:-1\n")
        result = run_cli("simulate", str(ini), cwd=tmp_path)
        assert result.returncode == 2
        assert result.stderr.startswith("config error: [run] observable:")

    def test_default_section_named_as_unknown(self, tmp_path):
        ini = tmp_path / "default.ini"
        ini.write_text(SMALL_INI + "[DEFAULT]\nseed = 5\n")
        result = run_cli("simulate", str(ini), cwd=tmp_path)
        assert result.returncode == 2
        assert "unknown section [DEFAULT]" in result.stderr

    def test_readout_follows_pulse_target(self, tmp_path):
        ini = tmp_path / "target0.ini"
        ini.write_text(SMALL_INI.replace("[state]\n", "[state]\npulse_target = 0\n"))
        out = tmp_path / "target0.csv"
        result = run_cli("simulate", str(ini), "--output", str(out), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        data = load_csv(str(out))
        trace = data.trace()
        # The pulsed spin is read out: its signal starts at full transverse
        # magnitude and the matching closed form rides along.
        assert trace.mperp[0] == pytest.approx(0.5)
        assert np.all(np.abs(trace.mperp - data.oracles["pps"]) < 0.2)

    @pytest.mark.parametrize("delta", ["0, 500, 500", "0, 500, 0"], ids=["gap-to-spin-1", "gap-to-spin-0"])
    def test_zero_offset_gap_runs_without_oracle(self, tmp_path, delta):
        # The first-order model divides by both offset gaps to spin 2, so a
        # zero gap leaves the run without that oracle instead of failing it.
        ini = tmp_path / "degenerate.ini"
        ini.write_text(exchange_total_ini(delta))
        out = tmp_path / "degenerate.csv"
        result = run_cli("simulate", str(ini), "--output", str(out), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        data = load_csv(str(out))
        assert data.oracles == {}
        assert np.all(np.isfinite(data.trace().mperp))

    def test_shifted_offsets_keep_the_first_order_oracle(self, tmp_path):
        # A common offset shift only turns the readout's phase, so the
        # first-order modulus column is offered and keeps its values.
        columns = []
        for name, delta in (("stock", "0, -1393, 1027"), ("shifted", "250, -1143, 1277")):
            ini = tmp_path / f"{name}.ini"
            ini.write_text(exchange_total_ini(delta))
            out = tmp_path / f"{name}.csv"
            result = run_cli("simulate", str(ini), "--output", str(out), cwd=tmp_path)
            assert result.returncode == 0, result.stderr
            columns.append(load_csv(str(out)).oracles["perturbative"])
        assert np.max(np.abs(columns[1] - columns[0])) <= 1e-14

    def test_empty_output_value_exits_2(self, tmp_path):
        ini = tmp_path / "small.ini"
        ini.write_text(SMALL_INI + "[run]\noutput =\n")
        result = run_cli("simulate", str(ini), cwd=tmp_path)
        assert result.returncode == 2
        assert "output" in result.stderr

    def test_missing_file_exits_4(self, tmp_path):
        result = run_cli("simulate", "missing.ini", cwd=tmp_path)
        assert result.returncode == 4
        assert "i/o error" in result.stderr


class TestSweep:
    def test_magnification_sweep_table(self, tmp_path):
        out = tmp_path / "sweep.csv"
        result = run_cli(
            "sweep", "--preset", "fig4b", "--param", "m", "--values", "0.5,1",
            "--n-realizations", "40", "--output", str(out), cwd=tmp_path,
        )
        assert result.returncode == 0
        assert "m,r_numeric,r_analytic" in result.stdout
        data = load_csv(str(out))
        assert np.array_equal(data.columns["m"], [0.5, 1.0])
        assert np.all(data.columns["r_numeric"] > 0.0)
        assert np.all(data.columns["r_analytic"] > 0.0)
        # residual grows with the coupling magnification
        assert data.columns["r_numeric"][1] > data.columns["r_numeric"][0]

    def test_fig4b_analytic_column_is_the_first_order_model(self, tmp_path):
        out = tmp_path / "sweep.csv"
        result = run_cli(
            "sweep", "--preset", "fig4b", "--param", "m", "--values", "1,5",
            "--n-realizations", "40", "--output", str(out), cwd=tmp_path,
        )
        assert result.returncode == 0
        base = preset_config("fig4b")
        expected = [
            residual_ratio_analytic(replace(base.system, magnification=m), base.noise, base.grid.points)
            for m in (1.0, 5.0)
        ]
        r_analytic = load_csv(str(out)).columns["r_analytic"]
        assert np.array_equal(r_analytic, expected)
        assert r_analytic == pytest.approx([0.0274099, 0.14251], rel=1e-5)

    @pytest.mark.parametrize(
        "source",
        [["--preset", "fig2-pps"], ["--config", "heisenberg.ini"], ["--config", "zero-gap.ini"]],
        ids=["secular", "heisenberg-single-readout", "heisenberg-zero-offset-gap"],
    )
    def test_analytic_column_nan_where_model_does_not_apply(self, tmp_path, source):
        # the first-order model describes the total readout of the
        # exchange-coupled system, neither a secular run nor one spin alone,
        # and divides by both offset gaps to spin 2
        (tmp_path / "heisenberg.ini").write_text(
            SMALL_INI + "[run]\nhamiltonian = heisenberg\nobservable = single:2\n"
        )
        (tmp_path / "zero-gap.ini").write_text(exchange_total_ini("0, 500, 500"))
        out = tmp_path / "sweep.csv"
        result = run_cli(
            "sweep", *source, "--param", "m", "--values", "1,5",
            "--n-realizations", "50", "--output", str(out), cwd=tmp_path,
        )
        assert result.returncode == 0
        data = load_csv(str(out))
        assert np.all(np.isfinite(data.columns["r_numeric"]))
        assert np.all(np.isnan(data.columns["r_analytic"]))

    def test_preset_and_sweep_write_identical_tables(self, tmp_path):
        preset, sweep = tmp_path / "preset.csv", tmp_path / "sweep.csv"
        from_preset = run_cli(
            "preset", "fig4b", "--n-realizations", "200", "--output", str(preset), cwd=tmp_path,
        )
        from_sweep = run_cli(
            "sweep", "--preset", "fig4b", "--param", "m", "--values", "1,2,3,4,5",
            "--n-realizations", "200", "--output", str(sweep), cwd=tmp_path,
        )
        assert from_preset.returncode == from_sweep.returncode == 0
        assert preset.read_bytes() == sweep.read_bytes()
        assert from_preset.stdout.replace(str(preset), "") == from_sweep.stdout.replace(str(sweep), "")

    def test_flags_override_the_config_and_the_table_replaces_its_trace_output(self, tmp_path):
        (tmp_path / "base.ini").write_text(SMALL_INI + "[run]\noutput = trace.csv\n")
        result = run_cli(
            "sweep", "--config", "base.ini", "--param", "m", "--values", "1,2",
            "--seed", "9", "--n-realizations", "50", "--output", "table.csv", cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert sorted(path.name for path in tmp_path.iterdir()) == ["base.ini", "table.csv"]
        trailer = (tmp_path / "table.csv").read_text().splitlines()
        assert "# seed = 9" in trailer
        assert "# n_realizations = 50" in trailer

    def test_bad_values_rejected(self, tmp_path):
        result = run_cli(
            "sweep", "--preset", "fig4b", "--param", "m", "--values", "0.5,phi",
            cwd=tmp_path,
        )
        assert result.returncode == 2

    def test_requires_config_or_preset(self, tmp_path):
        result = run_cli("sweep", "--param", "m", "--values", "1", cwd=tmp_path)
        assert result.returncode == 2
