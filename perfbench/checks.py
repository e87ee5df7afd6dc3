"""Output checks for every benchmark op; they run outside the timed intervals.

* Secular traces are compared with the closed forms in ``spinfid.analytic``.
  Each realization contributes D(t) exp(i eta t) with |D(t)| <= |D(0)|, so
  the Monte-Carlo error of the complex mean has standard deviation at most
  |D(0)| / sqrt(R).  The tolerance is six of those: a complex Gaussian error
  exceeds it with probability exp(-36) per grid point.
* Dense (exchange-coupled) traces are compared, to 1e-9, with D(t) chi(t)
  computed here: D from one ``eigh`` of H(eta = 0), chi the sample mean of
  exp(i eta t) over the same ``sample_block`` draws.  This holds because the
  rotating-frame Heisenberg Hamiltonian commutes with the total I_z and the
  readout is single-quantum.
* Every CSV the in-process ops write must read back through
  ``csvio.load_csv`` to exactly the values in memory: floats are written
  with ``repr``, which round-trips.  Every trace CSV the CLI writes is
  held to the secular tolerance of the config it was run with.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from spinfid import analytic, csvio, experiments, hamiltonians

SIGMAS = 6.0
DENSE_TOL = 1e-9


class CheckError(Exception):
    """An op's output is wrong."""


def secular_tolerance(amplitude: float, n_realizations: int) -> float:
    return SIGMAS * amplitude / math.sqrt(n_realizations)


def closed_form(config) -> np.ndarray:
    """Complex ensemble-mean signal of a secular run, from the closed forms."""
    t = config.grid.points
    observed = config.pulse.target
    if config.state_kind == "thermal":
        mx, my, _ = analytic.fid_thermal(config.system, config.noise, t, observed=observed)
    else:
        mx, my, _ = analytic.fid_pps(config.system, config.noise, t, label=config.label, observed=observed)
    return mx + 1j * my


def check_secular(result) -> None:
    check_secular_trace(result.trace, result.config)


def check_secular_trace(trace, config) -> None:
    expected = closed_form(config)
    got = trace.mx + 1j * trace.my
    deviation = float(np.max(np.abs(got - expected)))
    tolerance = secular_tolerance(abs(expected[0]), config.n_realizations)
    if not deviation <= tolerance:
        raise CheckError(f"secular trace off the closed form by {deviation:.3g} > {tolerance:.3g}")


def dense_reference(config) -> np.ndarray:
    """Ensemble-mean signal D(t) chi(t) of an exchange-coupled run."""
    spec = config.system
    t = config.grid.points
    vals, vecs = np.linalg.eigh(hamiltonians.build_rotating_heisenberg(spec, 0.0))
    rho = vecs.conj().T @ experiments.build_initial_state(config).matrix @ vecs
    obs = vecs.conj().T @ config.observable.ladder_matrix(spec.n_spins) @ vecs
    omega = vals[:, None] - vals[None, :]
    amplitudes = rho * obs.T
    deterministic = np.einsum("jk,jkt->t", amplitudes, np.exp(-1j * omega[:, :, None] * t))
    etas = config.noise.sample_block(config.seed, 0, config.n_realizations)
    return deterministic * np.exp(1j * np.outer(etas, t)).mean(axis=0)


def check_dense(result) -> None:
    got = result.trace.mx + 1j * result.trace.my
    deviation = float(np.max(np.abs(got - dense_reference(result.config))))
    if not deviation <= DENSE_TOL:
        raise CheckError(f"dense trace off D(t) chi(t) by {deviation:.3g} > {DENSE_TOL:g}")
    if set(result.oracles) != {"perturbative"}:
        raise CheckError(f"expected the perturbative oracle column, got {sorted(result.oracles)}")


def check_round_trip(path, trace) -> None:
    """The trace CSV must read back to exactly the computed trace."""
    loaded = csvio.load_csv(str(path)).trace()
    if not (np.array_equal(loaded.mx, trace.mx) and np.array_equal(loaded.my, trace.my)):
        raise CheckError(f"{Path(path).name} does not read back to the computed trace")


def check_table_round_trip(path, table) -> None:
    """A table CSV must read back to exactly the computed columns."""
    columns = csvio.load_csv(str(path)).columns
    if list(columns) != list(table) or not all(np.array_equal(columns[k], table[k]) for k in table):
        raise CheckError(f"{Path(path).name} does not read back to the computed table")


def _trapezoid(t: np.ndarray) -> np.ndarray:
    w = np.zeros_like(t)
    dt = np.diff(t)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


def check_sweep(table, base) -> None:
    """Recompute ``r_numeric`` of a magnification sweep from dense references."""
    w = _trapezoid(base.grid.points)

    def modulus(m: float) -> np.ndarray:
        return np.abs(dense_reference(replace(base, system=replace(base.system, magnification=m))))

    baseline = modulus(0.0)
    expected = np.array([np.sum(w * np.abs(modulus(m) - baseline)) for m in table["m"]]) / np.sum(w * baseline)
    deviation = float(np.max(np.abs(table["r_numeric"] - expected)))
    if not deviation <= DENSE_TOL:
        raise CheckError(f"sweep r_numeric off the references by {deviation:.3g} > {DENSE_TOL:g}")


def check_fig3(path: str) -> None:
    """The fig3 table must hold the thermal and pseudo-pure closed forms."""
    columns = csvio.load_csv(path).columns
    base = experiments.preset_config("fig3")
    t = base.grid.points
    expected = {
        "oracle_thermal_mperp": analytic.fid_thermal(
            replace(base.system, polarization=-1.0), base.noise, t, observed=2
        )[2],
        "oracle_pps_mperp": analytic.fid_pps(
            replace(base.system, polarization=1.0), base.noise, t, label="101", observed=2
        )[2],
    }
    if set(columns) != {"t_s", *expected}:
        raise CheckError(f"fig3 columns are {sorted(columns)}")
    for name, values in expected.items():
        if not np.allclose(columns[name], values, rtol=0.0, atol=1e-12):
            raise CheckError(f"fig3 column {name} does not match the closed form")
