"""Run configuration: dataclass, strict INI-style parser, serializer.

A run is described by a flat-sectioned key = value document::

    [system]
    n_spins = 3
    delta = 0.0, -1393.0, 1027.0
    j = -130.0, 69.0, 50.0
    polarization = 1.0
    magnification = 1.0

    [noise]
    kind = lorentzian
    width = 28.0

    [state]
    kind = pps
    label = 101
    pulse_target = 2
    pulse_axis = y
    pulse_angle = 1.5707963267948966

    [grid]
    t_max = 0.024
    n_points = 481

    [ensemble]
    n_realizations = 100000
    seed = 101

    [run]
    hamiltonian = effective
    observable = single:2
    output = trace.csv

Frequencies are Hz, times are seconds, angles are radians, and the seed
is an unsigned 64-bit decimal.  Every key is optional and falls back to
the documented default, but unknown sections or keys are an error, as is
any malformed value.  ``serialize_config`` writes every field explicitly
with round-trippable number formatting, so parse(serialize(c)) == c.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, replace

from .engine import HAMILTONIAN_KINDS, ObservableSpec, TimeGrid
from .hamiltonians import SpinSystemSpec
from .noise import NOISE_KINDS, NoiseModel
from .states import PulseSpec, parse_label

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_config_file", "serialize_config", "config_hash"]

MAX_SEED = 2**64 - 1

STATE_KINDS = ("thermal", "pps")

_KNOWN_KEYS = {
    "system": (
        "n_spins",
        "delta",
        "j",
        "polarization",
        "magnification",
        "omega0",
        "coupling_form",
        "angular_units",
    ),
    "noise": ("kind", "width"),
    "state": ("kind", "label", "pulse_target", "pulse_axis", "pulse_angle"),
    "grid": ("t_max", "n_points"),
    "ensemble": ("n_realizations", "seed"),
    "run": ("hamiltonian", "observable", "output"),
}

# [system] coupling_form only sets the default of [run] hamiltonian.
_COUPLING_FORMS = {"ising": "effective", "heisenberg": "heisenberg"}

# Every config document must declare these sections; [run] stays optional.
_REQUIRED_SECTIONS = ("system", "noise", "state", "grid", "ensemble")


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one simulation run."""

    system: SpinSystemSpec
    noise: NoiseModel
    state_kind: str
    label: str
    pulse: PulseSpec
    grid: TimeGrid
    n_realizations: int
    seed: int
    hamiltonian: str
    observable: ObservableSpec
    output: str | None = None

    def __post_init__(self) -> None:
        if self.state_kind not in STATE_KINDS:
            raise ConfigError(f"state kind must be one of {STATE_KINDS}, got {self.state_kind!r}")
        if self.system.angular_units != self.noise.angular_units:
            raise ConfigError("system and noise must agree on angular_units, as the one [system] key sets both")
        if self.hamiltonian not in HAMILTONIAN_KINDS:
            raise ConfigError(f"hamiltonian must be one of {HAMILTONIAN_KINDS}, got {self.hamiltonian!r}")
        if self.state_kind == "pps":
            parse_label(self.label, self.system.n_spins)
        if not 0 <= self.seed <= MAX_SEED:
            raise ConfigError(f"seed must fit in an unsigned 64-bit integer, got {self.seed}")
        if self.n_realizations < 1:
            raise ConfigError(f"n_realizations must be >= 1, got {self.n_realizations}")
        # Fail on out-of-range targets here rather than mid-run.
        self.observable.sites(self.system.n_spins)
        if self.pulse.target >= self.system.n_spins:
            raise ConfigError(
                f"pulse target {self.pulse.target} out of range for {self.system.n_spins} spins"
            )


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: value must be finite, got {raw!r}")
    return value


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from None


def _parse_bool(section: str, key: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}")


def _parse_float_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    items = [piece.strip() for piece in raw.split(",")]
    if items == [""]:
        return ()
    return tuple(_parse_float(section, key, piece) for piece in items)


def _parse_observable(raw: str) -> ObservableSpec:
    text = raw.strip().lower()
    if text == "total":
        return ObservableSpec.total()
    if text.startswith("single:"):
        return ObservableSpec.single(_parse_int("run", "observable", text.split(":", 1)[1]))
    raise ConfigError(f"[run] observable: expected 'total' or 'single:<spin>', got {raw!r}")


def parse_config(text: str) -> RunConfig:
    """Parse a configuration document; reject unknown keys and bad values."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None

    missing = [s for s in _REQUIRED_SECTIONS if not parser.has_section(s)]
    if missing:
        raise ConfigError(
            "missing required section(s): "
            + ", ".join(f"[{s}]" for s in missing)
            + "; a config must declare "
            + ", ".join(f"[{s}]" for s in _REQUIRED_SECTIONS)
            + " (individual keys inside each section are optional and default)"
        )

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    def get(section: str, key: str) -> str | None:
        if parser.has_section(section) and key in parser[section]:
            return parser[section][key]
        return None

    state_kind = (get("state", "kind") or "thermal").strip().lower()
    if state_kind not in STATE_KINDS:
        raise ConfigError(f"[state] kind must be one of {STATE_KINDS}, got {state_kind!r}")

    n_spins_raw = get("system", "n_spins")
    n_spins = _parse_int("system", "n_spins", n_spins_raw) if n_spins_raw else 3

    defaults = SpinSystemSpec() if n_spins == 3 else None
    delta_raw = get("system", "delta")
    if delta_raw is not None:
        delta = _parse_float_list("system", "delta", delta_raw)
    elif defaults is not None:
        delta = defaults.delta
    else:
        raise ConfigError(f"[system] delta is required for n_spins = {n_spins}")
    j_raw = get("system", "j")
    if j_raw is not None:
        j = _parse_float_list("system", "j", j_raw)
    elif defaults is not None:
        j = defaults.j
    elif n_spins == 1:
        j = ()  # a lone spin has no pairs
    else:
        raise ConfigError(f"[system] j is required for n_spins = {n_spins}")

    polarization_raw = get("system", "polarization")
    if polarization_raw is not None:
        polarization = _parse_float("system", "polarization", polarization_raw)
    else:
        polarization = 1.0 if state_kind == "pps" else -1.0

    angular = _parse_bool("system", "angular_units", get("system", "angular_units") or "false")

    try:
        system = SpinSystemSpec(
            n_spins=n_spins,
            delta=delta,
            j=j,
            polarization=polarization,
            magnification=_parse_float("system", "magnification", get("system", "magnification") or "1"),
            angular_units=angular,
        )
        # [system] omega0 only feeds the lab-frame builder, which no run uses.
        _parse_float("system", "omega0", get("system", "omega0") or "0")
        coupling_form = (get("system", "coupling_form") or "ising").strip().lower()
        if coupling_form not in _COUPLING_FORMS:
            raise ConfigError(f"[system] coupling_form must be one of {tuple(_COUPLING_FORMS)}, got {coupling_form!r}")
        noise_kind = (get("noise", "kind") or "lorentzian").strip().lower()
        if noise_kind not in NOISE_KINDS:
            raise ConfigError(f"[noise] kind must be one of {NOISE_KINDS}, got {noise_kind!r}")
        noise = NoiseModel(
            kind=noise_kind,
            width=_parse_float("noise", "width", get("noise", "width") or "28"),
            angular_units=angular,
        )
        pulse = PulseSpec(
            target=_parse_int("state", "pulse_target", get("state", "pulse_target") or str(n_spins - 1)),
            axis=(get("state", "pulse_axis") or "y").strip().lower(),
            angle=_parse_float("state", "pulse_angle", get("state", "pulse_angle") or repr(math.pi / 2)),
        )
        grid = TimeGrid(
            t_max=_parse_float("grid", "t_max", get("grid", "t_max") or "0.024"),
            n_points=_parse_int("grid", "n_points", get("grid", "n_points") or "481"),
        )
        hamiltonian_raw = get("run", "hamiltonian")
        hamiltonian = hamiltonian_raw.strip().lower() if hamiltonian_raw else _COUPLING_FORMS[coupling_form]
        observable_raw = get("run", "observable")
        observable = (
            _parse_observable(observable_raw)
            if observable_raw
            else ObservableSpec.single(n_spins - 1)
        )
        label = get("state", "label")
        if label is None:
            if n_spins == 3:
                label = "101"
            elif state_kind == "pps":
                raise ConfigError(f"[state] label is required for a pps state with n_spins = {n_spins}")
            else:
                label = "0" * n_spins
        return RunConfig(
            system=system,
            noise=noise,
            state_kind=state_kind,
            label=label,
            pulse=pulse,
            grid=grid,
            n_realizations=_parse_int("ensemble", "n_realizations", get("ensemble", "n_realizations") or "100000"),
            seed=_parse_int("ensemble", "seed", get("ensemble", "seed") or "101"),
            hamiltonian=hamiltonian,
            observable=observable,
            output=get("run", "output"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_config_file(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


def _format_float(value: float) -> str:
    return repr(float(value))


def serialize_config(config: RunConfig) -> str:
    """Render a config with every field explicit; inverse of parse_config."""
    system = config.system
    lines = [
        "[system]",
        f"n_spins = {system.n_spins}",
        f"delta = {', '.join(_format_float(x) for x in system.delta)}",
        f"j = {', '.join(_format_float(x) for x in system.j)}" if system.j else "j =",
        f"polarization = {_format_float(system.polarization)}",
        f"magnification = {_format_float(system.magnification)}",
        f"angular_units = {'true' if system.angular_units else 'false'}",
        "",
        "[noise]",
        f"kind = {config.noise.kind}",
        f"width = {_format_float(config.noise.width)}",
        "",
        "[state]",
        f"kind = {config.state_kind}",
        f"label = {config.label}",
        f"pulse_target = {config.pulse.target}",
        f"pulse_axis = {config.pulse.axis}",
        f"pulse_angle = {_format_float(config.pulse.angle)}",
        "",
        "[grid]",
        f"t_max = {_format_float(config.grid.t_max)}",
        f"n_points = {config.grid.n_points}",
        "",
        "[ensemble]",
        f"n_realizations = {config.n_realizations}",
        f"seed = {config.seed}",
        "",
        "[run]",
        f"hamiltonian = {config.hamiltonian}",
        f"observable = {'total' if config.observable.kind == 'total' else f'single:{config.observable.index}'}",
    ]
    if config.output is not None:
        lines.append(f"output = {config.output}")
    lines.append("")
    return "\n".join(lines)


def config_hash(config: RunConfig) -> str:
    """Stable digest of the full configuration (output path excluded)."""
    canonical = serialize_config(replace(config, output=None))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
