"""Free-induction-decay simulator for small coupled spin ensembles.

Simulates the transverse magnetization signal of one to four weakly
coupled spin-1/2 nuclei after an excitation pulse, averaged over a
static random frequency offset drawn fresh for each realization, and
provides the matching closed-form models: single-spin dephasing
envelopes, the coupling-split thermal-state decay, the coupling-immune
pseudo-pure decay, and a first-order treatment of the flip-flop terms
that the secular approximation drops.

Typical use::

    from spinfid import run_preset
    run_preset("fig2-pps")            # writes fig2-pps.csv

or, for full control::

    from spinfid import (NoiseModel, PulseSpec, SpinSystemSpec, TimeGrid,
                         apply_pulse, evolve_fid, pps_state)

    spec = SpinSystemSpec(polarization=1.0)
    rho = apply_pulse(pps_state(spec, "101"), PulseSpec(target=2))
    trace = evolve_fid(spec, rho, NoiseModel("lorentzian", 28.0), TimeGrid())
"""

from .analytic import (
    PerturbationCoeffs,
    envelope_factor,
    fid_perturbative,
    fid_pps,
    fid_pps_single,
    fid_single,
    fid_thermal,
    fid_thermal_single,
    perturbation_coeffs,
    residual_ratio_analytic,
    trapezoid_weights,
)
from .config import ConfigError, RunConfig, config_hash, parse_config, parse_config_file, serialize_config
from .csvio import CsvFormatError, TableData, emit_trace_csv, load_csv, write_csv
from .engine import (
    WORKERS_ENV_VAR,
    FidTrace,
    ObservableSpec,
    TimeGrid,
    evolve_fid,
    residual_ratio,
)
from .experiments import (
    DEFAULT_SEED,
    PRESET_NAMES,
    ExperimentResult,
    NumericInvariantError,
    PresetResult,
    build_initial_state,
    matching_oracles,
    preset_config,
    run_experiment,
    run_preset,
    sweep_residuals,
)
from .hamiltonians import (
    SpinSystemSpec,
    build_effective,
    build_lab,
    build_rotating_heisenberg,
)
from .noise import NOISE_KINDS, NoiseModel
from .operators import (
    DensityMatrix,
    Propagator,
    embed,
    expectation,
    expm_hermitian,
    pauli,
)
from .states import PulseSpec, apply_pulse, parse_label, pps_state, thermal_state
from .validate import CheckResult, run_validation

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ConfigError",
    "CsvFormatError",
    "DEFAULT_SEED",
    "DensityMatrix",
    "ExperimentResult",
    "FidTrace",
    "NOISE_KINDS",
    "NoiseModel",
    "NumericInvariantError",
    "ObservableSpec",
    "PRESET_NAMES",
    "PerturbationCoeffs",
    "PresetResult",
    "Propagator",
    "PulseSpec",
    "RunConfig",
    "SpinSystemSpec",
    "TableData",
    "TimeGrid",
    "WORKERS_ENV_VAR",
    "apply_pulse",
    "build_effective",
    "build_initial_state",
    "build_lab",
    "build_rotating_heisenberg",
    "config_hash",
    "embed",
    "emit_trace_csv",
    "envelope_factor",
    "evolve_fid",
    "expectation",
    "expm_hermitian",
    "fid_perturbative",
    "fid_pps",
    "fid_pps_single",
    "fid_single",
    "fid_thermal",
    "fid_thermal_single",
    "load_csv",
    "matching_oracles",
    "parse_config",
    "parse_config_file",
    "parse_label",
    "pauli",
    "perturbation_coeffs",
    "pps_state",
    "preset_config",
    "residual_ratio",
    "residual_ratio_analytic",
    "run_experiment",
    "run_preset",
    "run_validation",
    "serialize_config",
    "sweep_residuals",
    "thermal_state",
    "trapezoid_weights",
    "write_csv",
    "__version__",
]
