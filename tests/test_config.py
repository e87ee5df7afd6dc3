"""INI config parsing, serialization round-trips, and hashing."""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spinfid import NoiseModel, ObservableSpec, PulseSpec, SpinSystemSpec, TimeGrid
from spinfid.config import (
    ConfigError,
    RunConfig,
    parse_config,
    parse_config_file,
    serialize_config,
    config_hash,
)
from spinfid.experiments import PRESET_NAMES, preset_config

MINIMAL = "[system]\n[noise]\n[state]\n[grid]\n[ensemble]\n"


def with_key(section: str, line: str) -> str:
    """Minimal document with one extra key under the given section."""
    return MINIMAL.replace(f"[{section}]\n", f"[{section}]\n{line}\n")


def test_readme_example_is_the_fig2_thermal_preset():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
    assert parse_config(example) == preset_config("fig2-thermal", output="trace.csv")


class TestDefaults:
    def test_minimal_document_parses_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.state_kind == "thermal"
        assert cfg.label == "101"
        assert cfg.hamiltonian == "effective"
        assert cfg.observable == ObservableSpec.single(2)
        assert cfg.output is None
        assert cfg.seed == 101
        assert cfg.n_realizations == 100_000
        assert cfg.system.delta == (0.0, -1393.0, 1027.0)
        assert cfg.system.j == (-130.0, 69.0, 50.0)
        assert cfg.system.polarization == -1.0
        assert cfg.noise.kind == "lorentzian"
        assert cfg.noise.width == 28.0
        assert cfg.grid.t_max == 0.024
        assert cfg.grid.n_points == 481

    def test_empty_document_rejected_with_section_list(self):
        with pytest.raises(ConfigError) as err:
            parse_config("")
        message = str(err.value)
        for section in ("system", "noise", "state", "grid", "ensemble"):
            assert section in message

    def test_each_required_section_is_individually_required(self):
        for section in ("system", "noise", "state", "grid", "ensemble"):
            doc = MINIMAL.replace(f"[{section}]\n", "")
            with pytest.raises(ConfigError, match=section):
                parse_config(doc)

    def test_run_section_optional(self):
        parse_config(MINIMAL)  # no [run], no error
        cfg = parse_config(MINIMAL + "[run]\nhamiltonian = heisenberg\n")
        assert cfg.hamiltonian == "heisenberg"


class TestFieldParsing:
    def test_observable_total(self):
        cfg = parse_config(MINIMAL + "[run]\nobservable = total\n")
        assert cfg.observable == ObservableSpec.total()

    def test_observable_single_indexed(self):
        cfg = parse_config(MINIMAL + "[run]\nobservable = single:0\n")
        assert cfg.observable == ObservableSpec.single(0)

    def test_observable_defaults_to_pulse_target(self):
        cfg = parse_config(with_key("state", "pulse_target = 0"))
        assert cfg.observable == ObservableSpec.single(0)

    @pytest.mark.parametrize("line, observable", [
        ("observable = single:2", ObservableSpec.single(2)),
        ("observable = total", ObservableSpec.total()),
    ])
    def test_explicit_observable_wins_over_pulse_target(self, line, observable):
        cfg = parse_config(with_key("state", "pulse_target = 0") + f"[run]\n{line}\n")
        assert cfg.observable == observable

    def test_pps_state_with_label(self):
        cfg = parse_config(with_key("state", "kind = pps\nlabel = 011"))
        assert cfg.state_kind == "pps"
        assert cfg.label == "011"

    def test_angular_units_reaches_noise_model(self):
        cfg = parse_config(with_key("system", "angular_units = true"))
        assert cfg.system.angular_units is True
        assert cfg.noise.angular_units is True

    def test_angular_units_mismatch_rejected(self):
        cfg = parse_config(MINIMAL)
        with pytest.raises(ConfigError, match="angular_units"):
            replace(cfg, noise=replace(cfg.noise, angular_units=True))
        with pytest.raises(ConfigError, match="angular_units"):
            replace(cfg, system=replace(cfg.system, angular_units=True))

    def test_delta_and_j_lists(self):
        doc = with_key("system", "delta = 0, -100.5, 200\nj = 1, 2, 3")
        cfg = parse_config(doc)
        assert cfg.system.delta == (0.0, -100.5, 200.0)
        assert cfg.system.j == (1.0, 2.0, 3.0)

    def test_pulse_keys(self):
        doc = with_key("state", "pulse_target = 0\npulse_axis = x\npulse_angle = 3.14159")
        cfg = parse_config(doc)
        assert cfg.pulse.target == 0
        assert cfg.pulse.axis == "x"
        assert cfg.pulse.angle == pytest.approx(3.14159)


class TestCouplingForm:
    """[system] coupling_form only sets the default of [run] hamiltonian."""

    @pytest.mark.parametrize(
        "doc, hamiltonian",
        [
            (MINIMAL, "effective"),
            (with_key("system", "coupling_form = ising"), "effective"),
            (with_key("system", "coupling_form = heisenberg"), "heisenberg"),
            (with_key("system", "coupling_form = heisenberg") + "[run]\nhamiltonian = effective\n", "effective"),
            (with_key("system", "coupling_form = ising") + "[run]\nhamiltonian = heisenberg\n", "heisenberg"),
        ],
    )
    def test_default_and_override(self, doc, hamiltonian):
        cfg = parse_config(doc)
        assert cfg.hamiltonian == hamiltonian
        assert parse_config(serialize_config(cfg)) == cfg


class TestRejection:
    @pytest.mark.parametrize(
        "doc, fragment",
        [
            (with_key("system", "bogus = 1"), "unknown key"),
            (MINIMAL + "[extra]\n", "unknown section"),
            (with_key("system", "magnification = -1"), "magnification"),
            (with_key("noise", "width = -3"), "width"),
            (with_key("noise", "kind = pink"), "kind"),
            (with_key("state", "kind = bell"), "kind"),
            (with_key("state", "kind = pps\nlabel = 10"), "label"),
            (with_key("state", "kind = pps\nlabel = 1a1"), "label"),
            # pps_state's own rule, met when the document is read rather than when the run starts
            (with_key("state", "kind = pps").replace("[system]\n", "[system]\npolarization = -0.5\n"),
             r"pseudo-pure polarization must lie in \(0, 1\]"),
            (with_key("state", "kind = pps").replace("[system]\n", "[system]\npolarization = 0\n"),
             r"pseudo-pure polarization must lie in \(0, 1\]"),
            (with_key("grid", "t_max = 0"), "t_max"),
            (with_key("grid", "n_points = 1"), "n_points"),
            (with_key("ensemble", "seed = 18446744073709551616"), "seed"),
            (with_key("ensemble", "seed = -1"), "seed"),
            (with_key("ensemble", "n_realizations = 0"), "n_realizations"),
            (MINIMAL + "[run]\nobservable = pair:1\n", "observable"),
            (MINIMAL + "[run]\nobservable = single:-1\n", r"\[run\] observable"),
            (MINIMAL + "[run]\nhamiltonian = dipolar\n", "hamiltonian"),
            (with_key("system", "coupling_form = dipolar"), "coupling_form"),
            (with_key("system", "delta = 0, nan, 5"), "delta"),
            (with_key("system", "delta ="), "expected 3 offsets, got 0"),
            (with_key("system", "omega0 = fast"), "omega0"),
            (with_key("system", "omega0 = inf"), "omega0"),
            (with_key("state", "pulse_target = 3"), "pulse target 3 out of range"),
            (with_key("state", "pulse_target = -1"), "pulse target must be >= 0"),
            (MINIMAL + "[DEFAULT]\nseed = 5\n", r"unknown section \[DEFAULT\]"),
        ],
    )
    def test_invalid_document_rejected(self, doc, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(doc)

    @pytest.mark.parametrize(
        "section, key",
        [
            (section, key)
            for section, keys in {
                "system": ("n_spins", "polarization", "magnification", "omega0", "coupling_form", "angular_units"),
                "noise": ("kind", "width"),
                "state": ("kind", "label", "pulse_target", "pulse_axis", "pulse_angle"),
                "grid": ("t_max", "n_points"),
                "ensemble": ("n_realizations", "seed"),
                "run": ("hamiltonian", "observable", "output"),
            }.items()
            for key in keys
        ],
    )
    def test_empty_scalar_value_rejected(self, section, key):
        doc = MINIMAL + "[run]\n"
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: empty value"):
            parse_config(doc.replace(f"[{section}]\n", f"[{section}]\n{key} =\n"))

    def test_spin_count_change_requires_matching_parameters(self):
        with pytest.raises(ConfigError):
            parse_config(with_key("system", "n_spins = 2"))
        cfg = parse_config(with_key("system", "n_spins = 2\ndelta = 0, 50\nj = 10"))
        assert cfg.system.n_spins == 2

    def test_one_spin_needs_no_couplings(self):
        cfg = parse_config(with_key("system", "n_spins = 1\ndelta = 0"))
        assert cfg.system == preset_config("fig1").system


class TestRoundTrip:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_serialization_round_trips(self, name):
        cfg = preset_config(name)
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize(
        "cfg",
        [parse_config(MINIMAL), replace(preset_config("fig4b"), observable=ObservableSpec(kind="total"))],
        ids=["minimal", "fig4b-total-readout"],
    )
    def test_config_round_trips(self, cfg):
        assert parse_config(serialize_config(cfg)) == cfg

    # Every formatter path: a negative zero, an empty list, booleans, a pps
    # label, a total readout, an output path and the largest seed.
    EXACT = RunConfig(
        system=SpinSystemSpec(n_spins=1, delta=(-0.0,), j=(), polarization=0.5, angular_units=True),
        noise=NoiseModel("gaussian", 3.5, angular_units=True),
        state_kind="pps",
        label="1",
        pulse=PulseSpec(0, "x", 1.25),
        grid=TimeGrid(0.5, 11),
        n_realizations=7,
        seed=2**64 - 1,
        hamiltonian="heisenberg",
        observable=ObservableSpec.total(),
        output="runs/one.csv",
    )
    EXACT_DOCUMENT = """\
[system]
n_spins = 1
delta = -0.0
j =
polarization = 0.5
magnification = 1.0
angular_units = true

[noise]
kind = gaussian
width = 3.5

[state]
kind = pps
label = 1
pulse_target = 0
pulse_axis = x
pulse_angle = 1.25

[grid]
t_max = 0.5
n_points = 11

[ensemble]
n_realizations = 7
seed = 18446744073709551615

[run]
hamiltonian = heisenberg
observable = total
output = runs/one.csv
"""

    def test_exact_document_bytes(self):
        assert serialize_config(self.EXACT) == self.EXACT_DOCUMENT
        assert parse_config(self.EXACT_DOCUMENT) == self.EXACT

    def test_numpy_scalar_fields_write_the_same_bytes(self):
        # Each value is written by the reader of its key, not by its Python type.
        cfg = self.EXACT
        numpy_fields = replace(
            cfg,
            system=replace(cfg.system, polarization=np.float64(0.5), angular_units=np.bool_(True)),
            noise=replace(cfg.noise, angular_units=np.bool_(True)),
            grid=replace(cfg.grid, n_points=np.int64(11)),
        )
        assert serialize_config(numpy_fields) == self.EXACT_DOCUMENT

    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(serialize_config(preset_config("fig2-thermal")))
        assert parse_config_file(path) == preset_config("fig2-thermal")


class TestConfigHash:
    def test_hash_stable(self):
        cfg = parse_config(MINIMAL)
        assert config_hash(cfg) == config_hash(parse_config(MINIMAL))

    def test_hash_ignores_output_path(self):
        plain = parse_config(MINIMAL)
        routed = parse_config(MINIMAL + "[run]\noutput = somewhere.csv\n")
        assert config_hash(plain) == config_hash(routed)

    def test_hash_ignores_omega0(self):
        # omega0 feeds only the lab-frame builder, which no run evolves under
        carrier = parse_config(with_key("system", "omega0 = 400e6"))
        assert carrier == parse_config(MINIMAL)
        assert config_hash(carrier) == config_hash(parse_config(MINIMAL))
        assert "omega0" not in serialize_config(carrier)

    @staticmethod
    def document(keys: dict[str, str]) -> str:
        """MINIMAL with a [run] section, plus the given lines by section."""
        doc = MINIMAL + "[run]\n"
        for section, lines in keys.items():
            doc = doc.replace(f"[{section}]\n", f"[{section}]\n{lines}\n")
        return doc

    # One variant per key that sets a hashed field, each changing that field
    # alone where it can, so a field the serializer leaves out keeps the
    # base's hash.  n_spins cannot change without delta and j.
    @pytest.mark.parametrize(
        "base, keys",
        [
            ({}, {"system": "n_spins = 2\ndelta = 0, -1393\nj = -130"}),
            ({}, {"system": "delta = 0, -1393, 1028"}),
            ({}, {"system": "j = -130, 69, 51"}),
            ({}, {"system": "polarization = 0.5"}),
            ({}, {"system": "magnification = 2"}),
            ({}, {"system": "angular_units = true"}),
            ({}, {"noise": "kind = gaussian"}),
            ({}, {"noise": "width = 29"}),
            # at a polarization both state kinds accept
            ({"system": "polarization = 1"}, {"system": "polarization = 1", "state": "kind = pps"}),
            # a label only a pps state reads
            ({"state": "kind = pps"}, {"state": "kind = pps\nlabel = 011"}),
            ({}, {"state": "pulse_target = 0", "run": "observable = single:2"}),
            ({}, {"state": "pulse_axis = x"}),
            ({}, {"state": "pulse_angle = 1"}),
            ({}, {"grid": "t_max = 0.025"}),
            ({}, {"grid": "n_points = 241"}),
            ({}, {"ensemble": "n_realizations = 99"}),
            ({}, {"ensemble": "seed = 7"}),
            ({}, {"run": "hamiltonian = heisenberg"}),
            ({}, {"run": "observable = total"}),
        ],
        ids=[
            "n_spins", "delta", "j", "polarization", "magnification", "angular_units", "noise-kind", "width",
            "state-kind", "label", "pulse_target", "pulse_axis", "pulse_angle", "t_max", "n_points",
            "n_realizations", "seed", "hamiltonian", "observable",
        ],
    )
    def test_hash_tracks_physical_fields(self, base, keys):
        assert config_hash(parse_config(self.document(keys))) != config_hash(parse_config(self.document(base)))


class TestPresets:
    def test_preset_names_complete(self):
        assert PRESET_NAMES == (
            "fig1", "fig2-thermal", "fig2-pps", "fig2-pps-x10", "fig3", "fig4a", "fig4b",
        )

    def test_thermal_ensemble_preset(self):
        cfg = preset_config("fig2-thermal")
        assert cfg.state_kind == "thermal"
        assert cfg.system.delta == (0.0, -1393.0, 1027.0)
        assert cfg.system.j == (-130.0, 69.0, 50.0)
        assert cfg.noise.kind == "lorentzian"
        assert cfg.noise.width == 28.0
        assert cfg.n_realizations == 100_000

    def test_tenfold_coupling_preset(self):
        assert preset_config("fig2-pps-x10").system.magnification == 10.0
        assert preset_config("fig2-pps-x10").state_kind == "pps"

    def test_preset_seed_and_size_overrides(self):
        cfg = preset_config("fig2-pps", seed=9, n_realizations=10)
        assert cfg.seed == 9
        assert cfg.n_realizations == 10

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            preset_config("fig9")

    @pytest.mark.parametrize(
        "name, keys",
        [
            ("fig1", {"system": "n_spins = 1\ndelta = 0\nj ="}),
            ("fig2-thermal", {}),
            ("fig2-pps", {"state": "kind = pps"}),
            ("fig2-pps-x10", {"system": "magnification = 10", "state": "kind = pps"}),
            ("fig3", {"state": "kind = pps"}),
            (
                "fig4a",
                {
                    "state": "kind = pps",
                    "ensemble": "n_realizations = 10000",
                    "run": "hamiltonian = heisenberg\nobservable = total",
                },
            ),
            (
                "fig4b",
                {
                    "state": "kind = pps",
                    "ensemble": "n_realizations = 10000",
                    "run": "hamiltonian = heisenberg\nobservable = total",
                },
            ),
        ],
    )
    def test_preset_is_stock_document_plus_keys(self, name, keys):
        # Each preset is the stock document plus the keys listed here.
        doc = MINIMAL + ("[run]\n" if "run" in keys else "")
        for section, lines in keys.items():
            doc = doc.replace(f"[{section}]\n", f"[{section}]\n{lines}\n")
        assert parse_config(doc) == preset_config(name)

    # Read from the presets before they became config documents; a stock
    # value that moves changes the hash of every preset that uses it.
    @pytest.mark.parametrize(
        "name, digest",
        [
            ("fig1", "d4198f0ad52f462761eb87879e684011b490c8936f939f60c4335623a999bb50"),
            ("fig2-thermal", "d462fddbf78462fdd8acc4afb14740bb788930640493d0c07ea96436a8457b01"),
            ("fig2-pps", "5260573629295bf39c8c5c4a82d5ac6c95467aaed70dbd56f8d89971617b9d54"),
            ("fig2-pps-x10", "fd5d0dfa592a3ad5758ae90ccc6cf4b32bd29b9a8efe179a4da5ce76a9541116"),
            ("fig3", "5260573629295bf39c8c5c4a82d5ac6c95467aaed70dbd56f8d89971617b9d54"),
            ("fig4a", "76d3db190a9a3d98cb4aae820da3f4803e2c13c3f0b7930a169f0378bad2f786"),
            ("fig4b", "76d3db190a9a3d98cb4aae820da3f4803e2c13c3f0b7930a169f0378bad2f786"),
        ],
    )
    def test_preset_config_hash_pinned(self, name, digest):
        assert config_hash(preset_config(name)) == digest
