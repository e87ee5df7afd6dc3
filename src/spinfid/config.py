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
the documented default (the readout ``observable`` defaults to the
pulsed spin, ``single:<pulse_target>``), but unknown sections or keys
are an error, as is any malformed or empty value (an empty ``delta`` or
``j`` is the empty list).  Each key's reader is a one-argument converter
that raises ``ValueError``; the section reader reports any such failure
as one ``ConfigError`` worded ``[section] key: <reason>``.
``serialize_config`` writes every field explicitly with round-trippable
number formatting, so parse(serialize(c)) == c.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, replace
from typing import Callable

from .engine import DEFAULT_N_REALIZATIONS, DEFAULT_SEED, HAMILTONIAN_KINDS, ObservableSpec, TimeGrid
from .hamiltonians import SpinSystemSpec
from .noise import NOISE_KINDS, NoiseModel
from .states import STOCK_LABEL, PulseSpec, parse_label

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_config_file", "serialize_config", "config_hash"]

MAX_SEED = 2**64 - 1

STATE_KINDS = ("thermal", "pps")

# [system] coupling_form only sets the default of [run] hamiltonian.
_COUPLING_FORMS = {"ising": "effective", "heisenberg": "heisenberg"}

# Every config document must declare these sections; [run] stays optional.
_REQUIRED_SECTIONS = ("system", "noise", "state", "grid", "ensemble")

# configparser copies its default section's keys into every section.  A
# header is one line, so no document can name this one, and a [DEFAULT]
# section is reported as unknown instead.
_NO_SECTION = "\n"


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
        # Fail on out-of-range targets here rather than mid-run.  The pulse
        # comes first: the readout defaults to the pulsed spin.
        if self.pulse.target >= self.system.n_spins:
            raise ConfigError(
                f"pulse target {self.pulse.target} out of range for {self.system.n_spins} spins"
            )
        self.observable.sites(self.system.n_spins)


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"value must be finite, got {raw!r}")
    return value


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_float_list(raw: str) -> tuple[float, ...]:
    items = [piece.strip() for piece in raw.split(",")]
    return () if items == [""] else tuple(map(_parse_float, items))


def _parse_word(raw: str) -> str:
    return raw.strip().lower()


def _parse_choice(choices: tuple[str, ...]) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        word = _parse_word(raw)
        if word not in choices:
            raise ValueError(f"must be one of {choices}, got {word!r}")
        return word

    return parse


def _parse_observable(raw: str) -> ObservableSpec:
    text = _parse_word(raw)
    if text == "total":
        return ObservableSpec.total()
    if text.startswith("single:"):
        return ObservableSpec.single(int(text.split(":", 1)[1]))
    raise ValueError(f"expected 'total' or 'single:<spin>', got {raw!r}")


# Every key a document may set, with the reader of its value: a one-argument
# converter that raises ValueError.  A key that names a field of the
# dataclass behind its section is passed on as is.
_KEYS: dict[str, dict[str, Callable[[str], object]]] = {
    "system": {
        "n_spins": int,
        "delta": _parse_float_list,
        "j": _parse_float_list,
        "polarization": _parse_float,
        "magnification": _parse_float,
        "omega0": _parse_float,
        "coupling_form": _parse_choice(tuple(_COUPLING_FORMS)),
        "angular_units": _parse_bool,
    },
    "noise": {"kind": _parse_choice(NOISE_KINDS), "width": _parse_float},
    "state": {
        "kind": _parse_choice(STATE_KINDS),
        "label": str,
        "pulse_target": int,
        "pulse_axis": _parse_word,
        "pulse_angle": _parse_float,
    },
    "grid": {"t_max": _parse_float, "n_points": int},
    "ensemble": {"n_realizations": int, "seed": int},
    "run": {"hamiltonian": _parse_word, "observable": _parse_observable, "output": str},
}


def _read_section(parser: configparser.ConfigParser, section: str) -> dict[str, object]:
    """Parsed values of the keys a document sets in one section; a bad value is a ConfigError here."""
    if not parser.has_section(section):
        return {}
    values = {}
    for key, raw in parser[section].items():
        if key not in _KEYS[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        read = _KEYS[section][key]
        try:
            if not raw and read is not _parse_float_list:
                raise ValueError("empty value; omit the key to take its default")
            values[key] = read(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None
    return values


def parse_config(text: str) -> RunConfig:
    """Parse a configuration document; reject unknown keys and bad values.

    Only the keys the document sets are passed on.  Every other field
    takes the default of the dataclass that owns it, or of the rules
    below where the default depends on other keys.
    """
    parser = configparser.ConfigParser(interpolation=None, strict=True, default_section=_NO_SECTION)
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
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")

    system, noise, state, grid, ensemble, run = (_read_section(parser, section) for section in _KEYS)
    state_kind = state.pop("kind", "thermal")
    coupling_form = system.pop("coupling_form", "ising")
    # [system] omega0 only feeds the lab-frame builder, which no run uses.
    system.pop("omega0", None)

    stock = SpinSystemSpec()
    n_spins = system.setdefault("n_spins", stock.n_spins)
    if n_spins != stock.n_spins:
        if n_spins == 1:
            system.setdefault("j", ())  # a lone spin has no pairs
        for key in ("delta", "j"):
            if key not in system:
                raise ConfigError(f"[system] {key} is required for n_spins = {n_spins}")
    if state_kind == "pps":
        system.setdefault("polarization", 1.0)

    label = state.pop("label", None)
    if label is None:
        if n_spins == stock.n_spins:
            label = STOCK_LABEL
        elif state_kind == "pps":
            raise ConfigError(f"[state] label is required for a pps state with n_spins = {n_spins}")
        else:
            label = "0" * n_spins
    state.setdefault("pulse_target", n_spins - 1)

    try:
        spec = SpinSystemSpec(**system)
        return RunConfig(
            system=spec,
            noise=NoiseModel(**noise, angular_units=spec.angular_units),
            state_kind=state_kind,
            label=label,
            pulse=PulseSpec(**{key.removeprefix("pulse_"): value for key, value in state.items()}),
            grid=TimeGrid(**grid),
            n_realizations=ensemble.get("n_realizations", DEFAULT_N_REALIZATIONS),
            seed=ensemble.get("seed", DEFAULT_SEED),
            hamiltonian=run.get("hamiltonian", _COUPLING_FORMS[coupling_form]),
            observable=run.get("observable", ObservableSpec.single(state["pulse_target"])),
            output=run.get("output"),
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
