"""End-to-end runs: config -> state -> ensemble average -> CSV.

``run_experiment`` executes a single configured simulation and, when the
assumptions of a closed-form model hold, attaches the matching analytic
magnitude as an oracle column.  ``run_preset`` reproduces the stock
scenarios by name:

==============  ======================================================
``fig1``        one uncoupled spin, simulated trace plus the analytic
                envelope of each noise family
``fig2-thermal``  three-spin thermal state, secular evolution
``fig2-pps``      three-spin pseudo-pure state, secular evolution
``fig2-pps-x10``  same with all couplings magnified tenfold
``fig3``        theory-only envelopes (thermal vs pseudo-pure)
``fig4a``       pseudo-pure state under the full rotating-frame
                Hamiltonian at magnification 1, 2.5 and 5 (three files)
``fig4b``       residual-vs-magnification table, simulated and analytic
==============  ======================================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .analytic import (
    fid_perturbative,
    fid_pps,
    fid_single,
    fid_thermal,
    residual_ratio_analytic,
)
from .config import _KEYS, RunConfig, config_hash, parse_config
from .csvio import ORACLE_PREFIX, ORACLE_SUFFIX, emit_trace_csv, write_csv
from .engine import DEFAULT_SEED, FidTrace, _resolve_workers, evolve_fid, residual_ratio
from .noise import NOISE_KINDS
from .operators import DensityMatrix
from .states import STOCK_LABEL, apply_pulse, pps_state, thermal_state

__all__ = [
    "PRESET_NAMES",
    "ExperimentResult",
    "NumericInvariantError",
    "PresetResult",
    "build_initial_state",
    "matching_oracles",
    "preset_config",
    "run_experiment",
    "run_preset",
    "sweep_residuals",
]

# Each preset is the stock document (the five required sections, every
# key at its default) plus these keys, by section.  Beyond the secular
# approximation the flip-flop terms push a little coherence onto the
# spectator spins; only the total transverse readout sees the resulting
# first-order beats, so the exchange presets read out the total.
_PPS = {"state": "kind = pps"}
_EXCHANGE = {
    "state": "kind = pps",
    "ensemble": "n_realizations = 10000",
    "run": "hamiltonian = heisenberg\nobservable = total",
}
_PRESET_KEYS: dict[str, dict[str, str]] = {
    "fig1": {"system": "n_spins = 1\ndelta = 0\nj ="},
    "fig2-thermal": {},
    "fig2-pps": _PPS,
    "fig2-pps-x10": {"system": "magnification = 10", **_PPS},
    "fig3": _PPS,
    "fig4a": _EXCHANGE,
    "fig4b": _EXCHANGE,
}

PRESET_NAMES = tuple(_PRESET_KEYS)


class NumericInvariantError(RuntimeError):
    """A simulation produced values that violate a required invariant."""


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """One finished run: its configuration, trace and oracle columns."""

    config: RunConfig
    trace: FidTrace
    oracles: dict[str, np.ndarray]


@dataclass(frozen=True, eq=False)
class PresetResult:
    """Files a named preset wrote, and its table when it produced one."""

    paths: tuple[str, ...]
    table: Mapping[str, np.ndarray] | None = None


def build_initial_state(config: RunConfig) -> DensityMatrix:
    """Prepare the configured state and apply the excitation pulse."""
    if config.state_kind == "thermal":
        base = thermal_state(config.system)
    else:
        base = pps_state(config.system, config.label)
    return apply_pulse(base, config.pulse)


def matching_oracles(config: RunConfig) -> dict[str, np.ndarray]:
    """Closed-form magnitude columns that apply to this configuration.

    This is the only source of closed-form columns: fig1's noise-family
    envelopes and fig3's theory-only curves are read from it too.
    The analytic models describe a pi/2 y-pulse on one spin, read out
    either on that same spin alone or through the total transverse
    magnetization (identical whenever the other spins stay longitudinal,
    which is the case for these preparations under secular evolution).
    The first-order model of the exchange-coupled system describes the
    total readout of the stock pseudo-pure ``101`` preparation only, and
    only where both offset gaps to spin 2 are nonzero (it divides by them).
    """
    spec, pulse, observable = config.system, config.pulse, config.observable
    if pulse.axis != "y" or not np.isclose(pulse.angle, np.pi / 2):
        return {}
    if observable.kind == "single" and observable.index != pulse.target:
        return {}
    t = config.grid.points
    if spec.n_spins == 1:
        return {"single": fid_single(config.noise, spec.polarization, t)[2]}
    if config.hamiltonian == "effective":
        if config.state_kind == "thermal":
            return {"thermal": fid_thermal(spec, config.noise, t, observed=pulse.target)[2]}
        return {"pps": fid_pps(spec, config.noise, t, label=config.label, observed=pulse.target)[2]}
    if (
        config.state_kind == "pps"
        and observable.kind == "total"
        and spec.n_spins == 3
        and config.label == STOCK_LABEL
        and pulse.target == 2
        and spec.delta[2] not in (spec.delta[0], spec.delta[1])
    ):
        return {"perturbative": fid_perturbative(spec, config.noise, t)[2]}
    return {}


def _simulate(config: RunConfig, initial: DensityMatrix) -> FidTrace:
    """The configured ensemble average from ``initial``; non-finite values are a NumericInvariantError."""
    trace = evolve_fid(
        config.system,
        initial,
        config.noise,
        config.grid,
        observable=config.observable,
        n_realizations=config.n_realizations,
        seed=config.seed,
        hamiltonian=config.hamiltonian,
    )
    if not (np.all(np.isfinite(trace.mx)) and np.all(np.isfinite(trace.my))):
        raise NumericInvariantError("simulated trace contains non-finite values")
    return trace


def run_experiment(
    config: RunConfig,
    workers: int | None = None,
    oracles: Mapping[str, np.ndarray] | None = None,
) -> ExperimentResult:
    """Simulate one configuration and optionally write its CSV.

    ``oracles`` overrides the automatic closed-form columns; pass an
    empty mapping to suppress them entirely.  ``workers`` must be >= 1
    and changes nothing.
    """
    # Kept only for the benchmark harness, which passes workers= here; goes with ROADMAP item 1.
    _resolve_workers(workers)
    trace = _simulate(config, build_initial_state(config))
    resolved = dict(oracles) if oracles is not None else matching_oracles(config)
    if config.output is not None:
        emit_trace_csv(
            config.output,
            trace,
            oracles=resolved,
            metadata={"config_hash": config_hash(config)},
        )
    return ExperimentResult(config=config, trace=trace, oracles=resolved)


def preset_config(
    name: str,
    *,
    seed: int = DEFAULT_SEED,
    n_realizations: int | None = None,
    output: str | None = None,
) -> RunConfig:
    """Configuration behind a named preset (base config for multi-run ones)."""
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    keys = _PRESET_KEYS[name]
    config = parse_config("".join(f"[{section}]\n{keys.get(section, '')}\n" for section in _KEYS))
    if n_realizations is None:
        n_realizations = config.n_realizations
    return replace(config, seed=seed, n_realizations=n_realizations, output=output)


def table_metadata(base: RunConfig) -> dict[str, object]:
    """Metadata trailer of a residual table swept from ``base``."""
    return {
        "seed": base.seed,
        "n_realizations": base.n_realizations,
        "polarization": base.system.polarization,
        "config_hash": config_hash(base),
    }


def _magnification_tag(value: float) -> str:
    return "m" + format(value, "g").replace(".", "p")


def run_preset(
    name: str,
    *,
    seed: int = DEFAULT_SEED,
    n_realizations: int | None = None,
    output: str | None = None,
) -> PresetResult:
    """Run a named scenario end to end, writing its CSV file(s)."""
    stem = output if output is not None else f"{name}.csv"
    base = preset_config(name, seed=seed, n_realizations=n_realizations, output=stem)

    if name == "fig3":
        # Theory only: the envelopes of the fig2-thermal and fig2-pps runs.  No draw enters them,
        # so the hash names the stock config, whatever seed and draw count the run was given.
        oracles = {**matching_oracles(preset_config("fig2-thermal")), **matching_oracles(base)}
        columns = {"t_s": base.grid.points, **{ORACLE_PREFIX + name + ORACLE_SUFFIX: v for name, v in oracles.items()}}
        write_csv(stem, columns, metadata={**table_metadata(preset_config(name)), "seed": 0, "n_realizations": 0})
        return PresetResult(paths=(stem,))

    if name == "fig4a":
        root = stem[: -len(".csv")] if stem.endswith(".csv") else stem
        paths: list[str] = []
        for magnification in (1.0, 2.5, 5.0):
            path = f"{root}_{_magnification_tag(magnification)}.csv"
            config = replace(
                base,
                system=replace(base.system, magnification=magnification),
                output=path,
            )
            run_experiment(config)
            paths.append(path)
        return PresetResult(paths=tuple(paths))

    if name == "fig4b":
        table = sweep_residuals(base, np.arange(1.0, 6.0), param="m")
        write_csv(stem, table, metadata=table_metadata(base))
        return PresetResult(paths=(stem,), table=table)

    # fig1 and fig2-*: one trace; fig1 carries the envelope of every noise family.
    envelopes = None
    if name == "fig1":
        envelopes = {
            kind: matching_oracles(replace(base, noise=replace(base.noise, kind=kind)))["single"]
            for kind in NOISE_KINDS
        }
    run_experiment(base, oracles=envelopes)
    return PresetResult(paths=(stem,))


SWEEP_PARAMS = ("m", "width")


def _with_param(base: RunConfig, param: str, value: float) -> RunConfig:
    if param == "m":
        return replace(base, system=replace(base.system, magnification=value), output=None)
    if param == "width":
        return replace(base, noise=replace(base.noise, width=value), output=None)
    raise ValueError(f"unknown sweep parameter {param!r}; choose from {SWEEP_PARAMS}")


def sweep_residuals(
    base: RunConfig,
    values: np.ndarray,
    param: str = "m",
) -> dict[str, np.ndarray]:
    """Residual-vs-parameter table against the parameter-off baseline.

    Runs the base configuration once with the swept parameter set to zero
    (couplings off for ``m``, noise off for ``width``) at the same seed,
    then at each requested value, and reports the integrated relative
    deviation of the modulus from that baseline.  Every run starts from
    ``base``'s initial state.  A magnification sweep keeps the ensemble
    fixed, so its runs share one cached phase sum; a width sweep rescales
    every draw and sums each run afresh.  The analytic column
    uses the first-order envelope of the magnification sweep and is NaN
    unless ``matching_oracles`` offers the perturbative model for ``base``.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("need a non-empty 1-d list of sweep values")
    if not np.all((values >= 0.0) & (values < np.inf)):
        raise ValueError(f"swept {param!r} values must be finite and non-negative")
    initial = build_initial_state(base)
    baseline = _simulate(_with_param(base, param, 0.0), initial)
    analytic = param == "m" and "perturbative" in matching_oracles(base)
    t = base.grid.points
    r_numeric = np.empty_like(values)
    r_analytic = np.full_like(values, np.nan)
    for k, value in enumerate(values):
        config = _with_param(base, param, float(value))
        trace = _simulate(config, initial)
        r_numeric[k] = residual_ratio(trace, baseline)
        if analytic:
            r_analytic[k] = residual_ratio_analytic(config.system, config.noise, t)
    return {param: values, "r_numeric": r_numeric, "r_analytic": r_analytic}
