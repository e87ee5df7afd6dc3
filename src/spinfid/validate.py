"""Fast self-consistency battery behind the ``validate`` CLI verb.

Every check is deterministic (fixed seeds), takes well under a second,
and exercises a cross-cutting invariant rather than a stored expected
value: operator algebra, propagator unitarity, Hamiltonian structure,
state spectra, noise-sampler determinism and statistics, agreement of
the exchange-coupled engine with per-draw propagation, bit identity of
an exchange-coupled trace rerun on its cached phase sum and its agreement
with the direct phase sum over the same draws, coupling
invariance of the pseudo-pure modulus, and config/CSV round-trips.
"""

from __future__ import annotations

import itertools
import os
import tempfile
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .analytic import fid_pps_single, fid_thermal_single
from .config import parse_config, serialize_config
from .csvio import emit_trace_csv, load_csv
from .engine import ObservableSpec, TimeGrid, _chunk_bounds, _phase_sum, evolve_fid, zero_noise_signal
from .experiments import PRESET_NAMES, preset_config, run_experiment
from .hamiltonians import (
    SpinSystemSpec,
    build_effective,
    build_lab,
    build_rotating_heisenberg,
)
from .noise import NoiseModel
from .operators import MAX_SPINS, PAULI, DensityMatrix, embed, expm_hermitian, pauli, spin_operators
from .states import PulseSpec, apply_pulse, pps_state, thermal_state

__all__ = ["CheckResult", "run_validation"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _within(label: str, residuals: np.typing.ArrayLike, bound: float) -> float:
    """max |residuals|; raises unless it is at most ``bound``, so a NaN residual fails."""
    worst = float(np.max(np.abs(residuals)))
    if not worst <= bound:
        raise AssertionError(f"{label} {worst:.3g} exceeds {bound:.3g}")
    return worst


def _check_pauli_algebra() -> str:
    x, y, z, eye = pauli("x"), pauli("y"), pauli("z"), PAULI["i"]
    residuals = []
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        residuals += [a @ b - 1j * c, a @ b + b @ a, a @ a - eye]
    _within("algebra residual", residuals, 1e-15)
    return "products, anticommutators, squares all exact"


def _check_embedding() -> str:
    got = np.diagonal(embed(pauli("z"), 0, 2)).real
    want = np.array([1.0, 1.0, -1.0, -1.0])
    if not np.array_equal(got, want):
        raise AssertionError(f"site-0 embedding gave diagonal {got}")
    # Independent reference: the explicit Kronecker product, compared bit for bit with embed and the operator table.
    for n in range(1, MAX_SPINS + 1):
        for site, (axis, op) in itertools.product(range(n), PAULI.items()):
            kron = np.kron(np.kron(np.eye(2**site, dtype=complex), op), np.eye(2 ** (n - 1 - site), dtype=complex))
            if embed(op, site, n).tobytes() != kron.tobytes():
                raise AssertionError(f"embed(pauli({axis!r}), {site}, {n}) differs from the Kronecker product")
            if axis != "i" and spin_operators(n)[site, "xyz".index(axis)].tobytes() != (0.5 * kron).tobytes():
                raise AssertionError(f"spin_operators({n})[{site}, {axis!r}] differs from 0.5 * the Kronecker product")
    return f"site 0 is the slowest-varying qubit; embed and 2 * spin_operators equal np.kron bitwise, n <= {MAX_SPINS}"


def _check_propagator() -> str:
    rng = np.random.default_rng(7)
    h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = h + h.conj().T
    u1 = expm_hermitian(h, 0.3)
    u2 = expm_hermitian(h, 0.5)
    u3 = expm_hermitian(h, 0.8)
    defect = _within("unitarity defect", [u @ u.conj().T - np.eye(8) for u in (u1, u2)], 1e-12)
    group = _within("group residual", u1 @ u2 - u3, 1e-12)
    return f"unitarity defect {defect:.2g}, group residual {group:.2g}"


def _check_hamiltonian_structure() -> str:
    spec = SpinSystemSpec()
    h_lab = build_lab(spec)
    h_eff = build_effective(spec)
    h_rot = build_rotating_heisenberg(spec)
    for name, h in (("lab", h_lab), ("effective", h_eff), ("rotating", h_rot)):
        _within(f"{name} Hamiltonian's anti-Hermitian part", h - h.conj().T, 1e-12)
    _within("effective Hamiltonian's off-diagonal part", h_eff - np.diag(np.diagonal(h_eff)), 0.0)
    z_total = sum(embed(pauli("z"), k, 3) for k in range(3))
    _within("rotating Hamiltonian's commutator with total z", h_rot @ z_total - z_total @ h_rot, 1e-10)
    h0 = build_effective(replace(spec, magnification=0.0))
    h2 = build_effective(replace(spec, magnification=2.0))
    _within("coupling term's departure from linearity in magnification", (h2 - h0) - 2.0 * (h_eff - h0), 1e-9)
    return "hermitian, diagonal secular part, conserved total z, linear couplings"


def _check_states() -> str:
    spec = SpinSystemSpec(polarization=0.5)
    rho_t = thermal_state(spec)
    rho_p = pps_state(spec)
    uniform = (1.0 - 0.5) / 8.0
    want = np.sort(np.concatenate([np.full(7, uniform), [uniform + 0.5]]))
    _within("pseudo-pure spectrum error", np.sort(np.linalg.eigvalsh(rho_p.matrix)) - want, 1e-12)
    pulsed = apply_pulse(rho_t, PulseSpec(target=2))
    before = np.sort(np.linalg.eigvalsh(rho_t.matrix))
    after = np.sort(np.linalg.eigvalsh(pulsed.matrix))
    _within("pulse's change of the state spectrum", after - before, 1e-12)
    m_along = np.trace(rho_t.matrix @ embed(pauli("z"), 2, 3)).real
    _within("thermal <sigma_z> error", m_along - spec.polarization, 1e-12)
    return "spectra and longitudinal moments as constructed"


def _check_noise_determinism() -> str:
    for kind in ("white", "gaussian", "lorentzian"):
        model = NoiseModel(kind)
        whole = model.sample_block(11, 0, 100)
        tail = model.sample_block(11, 50, 50)
        if not np.array_equal(whole[50:], tail):
            raise AssertionError(f"{kind} sampler is not slice-invariant")
    return "per-index draws independent of batch boundaries"


def _check_noise_statistics() -> str:
    grid = TimeGrid(n_points=97)
    n_draws = 20_000
    residuals = []
    for kind in ("white", "gaussian", "lorentzian"):
        model = NoiseModel(kind)
        # The mean of exp(i eta t): cos averages to avg_cos(t), sin to zero by symmetry.
        mc = _phase_sum(model, grid, n_draws, 7) / n_draws
        residuals += [mc.real - model.avg_cos(grid.points), mc.imag]
    worst = _within("Monte-Carlo dephasing factor error", residuals, 0.04)
    return f"20k-draw dephasing factors within {worst:.3g} of closed forms"


def _per_draw_reference(spec: SpinSystemSpec, state_kind: str, etas: np.ndarray, t: np.ndarray):
    mx = np.zeros_like(t)
    my = np.zeros_like(t)
    for eta in etas:
        fid = (
            fid_thermal_single(spec, float(eta), t)
            if state_kind == "thermal"
            else fid_pps_single(spec, float(eta), t)
        )
        mx += fid[0]
        my += fid[1]
    return mx / etas.size, my / etas.size


def _check_engine_closed_form() -> str:
    grid = TimeGrid(n_points=49)
    noise = NoiseModel("gaussian")
    residuals = []
    for state_kind, polarization in (("thermal", -1.0), ("pps", 1.0)):
        spec = SpinSystemSpec(polarization=polarization)
        config = replace(
            preset_config("fig2-thermal" if state_kind == "thermal" else "fig2-pps"),
            system=spec,
            noise=noise,
            grid=grid,
            n_realizations=3,
            seed=23,
        )
        trace = run_experiment(config).trace
        etas = noise.sample_block(23, 0, 3)
        mx, my = _per_draw_reference(spec, state_kind, etas, grid.points)
        residuals += [trace.mx - mx, trace.my - my]
    worst = _within("engine deviation from closed forms", residuals, 1e-10)
    return f"per-draw agreement within {worst:.2g}"


def _check_path_agreement() -> str:
    spec = SpinSystemSpec(magnification=5.0, polarization=-1.0)
    grid = TimeGrid(n_points=50)
    noise = NoiseModel()
    initial = apply_pulse(thermal_state(spec), PulseSpec(target=2))
    n_draws, seed = 4, 31
    trace = evolve_fid(
        spec, initial, noise, grid, n_realizations=n_draws, seed=seed, hamiltonian="heisenberg"
    )
    # Brute-force reference: step each draw's state with exp(-i H(eta_r) dt).
    obs = ObservableSpec.single(2).ladder_matrix(spec.n_spins)
    reference = np.zeros(grid.n_points, dtype=complex)
    for eta in noise.sample_block(seed, 0, n_draws):
        step = expm_hermitian(build_rotating_heisenberg(spec, float(eta)), grid.dt)
        rho = initial
        for k in range(grid.n_points):
            if k:
                rho = DensityMatrix(step @ rho.matrix @ step.conj().T)
            reference[k] += np.trace(rho.matrix @ obs)
    reference /= n_draws
    worst = _within("engine deviation from per-draw propagation", trace.mx + 1j * trace.my - reference, 1e-10)
    return f"exchange-coupled trace vs per-draw expm propagation within {worst:.2g} at m=5"


def _check_cached_phase_sum() -> str:
    # The path of the fig4a and fig4b presets: exchange-coupled runs on one ensemble share one phase sum.
    spec = SpinSystemSpec(polarization=1.0, magnification=5.0)
    grid = TimeGrid(n_points=97)
    noise = NoiseModel()
    initial = apply_pulse(pps_state(spec), PulseSpec(target=2))
    n_draws, seed = 10_000, 5
    chunks = len(_chunk_bounds(n_draws))
    if chunks < 3:
        raise AssertionError(f"{chunks} chunks; at least 3 are needed to exercise the chunked reduction")
    observable, hamiltonian = ObservableSpec.total(), "heisenberg"
    kwargs = dict(observable=observable, n_realizations=n_draws, seed=seed, hamiltonian=hamiltonian)
    _phase_sum.cache_clear()
    own = evolve_fid(spec, initial, noise, grid, **kwargs)
    cached = evolve_fid(spec, initial, noise, grid, **kwargs)
    info = _phase_sum.cache_info()
    if (info.misses, info.hits) != (1, 1):
        raise AssertionError(f"two runs on one ensemble made {info.misses} phase sums and {info.hits} cache hits")
    if own.mx.tobytes() != cached.mx.tobytes() or own.my.tobytes() != cached.my.tobytes():
        raise AssertionError("the cached phase sum changed the trace")
    # Independent reference: D(t) times the direct sum of exp(i eta_r t) over the same draws, over R.
    signal = zero_noise_signal(spec, initial, grid, observable=observable, hamiltonian=hamiltonian)
    etas = noise.sample_block(seed, 0, n_draws)
    direct = np.array([np.exp(1j * etas * t).sum() for t in grid.points])  # one grid point at a time: no R x n table
    worst = _within(
        "trace's deviation from the direct phase sum",
        own.mx + 1j * own.my - signal * direct / n_draws,
        1e-12 * max(1.0, abs(signal[0])),
    )
    return (
        f"heisenberg trace at m=5 rerun on its cached phase sum is bit-identical over {chunks} chunks "
        f"and within {worst:.2g} of the direct phase sum"
    )


def _check_coupling_invariance() -> str:
    grid = TimeGrid(n_points=97)
    noise = NoiseModel()
    traces = []
    for magnification in (1.0, 10.0):
        spec = SpinSystemSpec(polarization=1.0, magnification=magnification)
        initial = apply_pulse(pps_state(spec), PulseSpec(target=2))
        traces.append(evolve_fid(spec, initial, noise, grid, n_realizations=500, seed=17))
    worst = _within("pseudo-pure modulus change under 10x couplings", traces[0].mperp - traces[1].mperp, 1e-9)
    return f"pseudo-pure modulus coupling-independent within {worst:.2g}"


def _check_config_roundtrip() -> str:
    for name in PRESET_NAMES:
        config = preset_config(name, output="trace.csv")
        if parse_config(serialize_config(config)) != config:
            raise AssertionError(f"parse(serialize(config)) != config for preset {name}")
    return f"serialize/parse round-trip is the identity for all {len(PRESET_NAMES)} presets"


def _check_csv_roundtrip() -> str:
    config = replace(preset_config("fig2-pps"), grid=TimeGrid(n_points=25), n_realizations=20)
    result = run_experiment(config)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        emit_trace_csv(path, result.trace, oracles=result.oracles, metadata={"config_hash": "x"})
        loaded = load_csv(path)
        back = loaded.trace()
    same = (
        np.array_equal(back.mx, result.trace.mx)
        and np.array_equal(back.my, result.trace.my)
        and back.seed == result.trace.seed
        and back.n_realizations == result.trace.n_realizations
        and np.array_equal(loaded.oracles["pps"], result.oracles["pps"])
    )
    if not same:
        raise AssertionError("CSV round-trip altered the trace")
    return "emit/load round-trip is bit-exact"


_CHECKS: tuple[tuple[str, Callable[[], str]], ...] = (
    ("pauli-algebra", _check_pauli_algebra),
    ("operator-embedding", _check_embedding),
    ("propagator-unitarity", _check_propagator),
    ("hamiltonian-structure", _check_hamiltonian_structure),
    ("state-spectra", _check_states),
    ("noise-determinism", _check_noise_determinism),
    ("noise-statistics", _check_noise_statistics),
    ("engine-closed-form", _check_engine_closed_form),
    ("evolution-path-agreement", _check_path_agreement),
    ("cached-phase-sum", _check_cached_phase_sum),
    ("coupling-invariance", _check_coupling_invariance),
    ("config-roundtrip", _check_config_roundtrip),
    ("csv-roundtrip", _check_csv_roundtrip),
)


def run_validation() -> list[CheckResult]:
    """Run every invariant check; never raises, failures are reported."""
    results = []
    for name, check in _CHECKS:
        try:
            detail = check()
            results.append(CheckResult(name=name, passed=True, detail=detail))
        except Exception as exc:  # noqa: BLE001 - report, don't crash the battery
            results.append(CheckResult(name=name, passed=False, detail=str(exc)))
    return results
