"""Monte-Carlo evolution engine: per-draw exactness, determinism, semantics."""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import run_child

import spinfid.engine
import spinfid.experiments
import spinfid.operators
from spinfid import (
    DensityMatrix,
    FidTrace,
    NoiseModel,
    NumericInvariantError,
    ObservableSpec,
    PulseSpec,
    SpinSystemSpec,
    TimeGrid,
    apply_pulse,
    build_rotating_heisenberg,
    embed,
    evolve_fid,
    expm_hermitian,
    fid_pps,
    fid_thermal,
    pauli,
    pps_state,
    preset_config,
    residual_ratio,
    residual_ratio_analytic,
    run_experiment,
    run_preset,
    sweep_residuals,
    thermal_state,
    zero_noise_signal,
)
from spinfid.cli import main as cli_main
from spinfid.csvio import TableData, load_csv

try:
    from numpy._core import _multiarray_umath as numpy_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as numpy_umath

TWO_PI = 2.0 * np.pi


# (offsets in Hz, couplings in Hz, pseudo-pure label) of a register of each size.
REGISTERS = {
    1: ((310.0,), (), "1"),
    2: ((-1393.0, 1027.0), (69.0,), "01"),
    3: ((0.0, -1393.0, 1027.0), (-130.0, 69.0, 50.0), "101"),
    4: ((0.0, -1393.0, 1027.0, 455.0), (-130.0, 69.0, 50.0, 38.0, -24.0, 61.0), "1010"),
}


def pulsed_thermal(spec: SpinSystemSpec) -> DensityMatrix:
    return apply_pulse(thermal_state(spec), PulseSpec(target=2))


def pulsed_pps(spec: SpinSystemSpec, label: str = "101") -> DensityMatrix:
    return apply_pulse(pps_state(spec, label), PulseSpec(target=2))


class TestTimeGrid:
    def test_default_window(self):
        grid = TimeGrid()
        assert grid.t_max == 0.024
        assert grid.n_points == 481
        assert grid.dt == pytest.approx(5e-5)
        assert grid.points[0] == 0.0
        assert grid.points[-1] == pytest.approx(0.024)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(t_max=0.0)
        with pytest.raises(ValueError):
            TimeGrid(n_points=1)

    @pytest.mark.parametrize("t_max, n_points", [(0.024, 481), (0.0371, 997), (1.0, 2)])
    def test_points_are_one_shared_read_only_linspace(self, t_max, n_points):
        grid = TimeGrid(t_max=t_max, n_points=n_points)
        points = grid.points
        assert grid.points is points
        assert not points.flags.writeable
        with pytest.raises(ValueError):
            points[0] = 1.0
        assert points.tobytes() == np.linspace(0.0, t_max, n_points).tobytes()
        # The cached array takes no part in equality or hashing.
        fresh = TimeGrid(t_max=t_max, n_points=n_points)
        assert fresh == grid and hash(fresh) == hash(grid)


class TestObservableSpec:
    def test_total_is_sum_of_singles(self):
        total = ObservableSpec.total().ladder_matrix(3)
        summed = sum(ObservableSpec.single(k).ladder_matrix(3) for k in range(3))
        assert np.allclose(total, summed)

    def test_single_matches_embedded_ladder(self):
        ladder = (pauli("x") + 1j * pauli("y")) / 2.0  # raises z by one quantum
        assert np.allclose(ObservableSpec.single(1).ladder_matrix(3), embed(ladder, 1, 3))

    def test_sites(self):
        assert list(ObservableSpec.single(2).sites(3)) == [2]
        assert list(ObservableSpec.total().sites(3)) == [0, 1, 2]

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            ObservableSpec(kind="pair", index=0)


class TestPerDrawExactness:
    """Engine evolution equals the closed forms realization by realization."""

    def test_thermal_matches_closed_form_per_draw(self, default_system, default_grid):
        from spinfid.analytic import fid_thermal_single

        model = NoiseModel("lorentzian", 28.0)
        t = default_grid.points
        eta = model.sample(101, 0)
        trace = evolve_fid(
            default_system,
            pulsed_thermal(default_system),
            model,
            default_grid,
            n_realizations=1,
            seed=101,
        )
        mx, my, _ = fid_thermal_single(default_system, eta, t)
        assert np.max(np.abs(trace.mx - mx)) < 1e-10
        assert np.max(np.abs(trace.my - my)) < 1e-10

    def test_pps_matches_closed_form_per_draw(self, pps_system, default_grid):
        from spinfid.analytic import fid_pps_single

        t = default_grid.points
        model = NoiseModel("lorentzian", 28.0)
        eta = model.sample(7, 0)
        trace = evolve_fid(
            pps_system,
            pulsed_pps(pps_system),
            model,
            default_grid,
            n_realizations=1,
            seed=7,
        )
        mx, my, _ = fid_pps_single(pps_system, eta, t)
        assert np.max(np.abs(trace.mx - mx)) < 1e-10
        assert np.max(np.abs(trace.my - my)) < 1e-10

    def test_ensemble_mean_is_modulus_after_averaging(self, pps_system, default_grid):
        # two draws: the reported modulus must be |mean of complex signals|,
        # which differs from the mean of per-draw moduli
        from spinfid.analytic import fid_pps_single

        t = default_grid.points
        model = NoiseModel("lorentzian", 28.0)
        etas = model.sample_block(33, 0, 2)
        trace = evolve_fid(
            pps_system, pulsed_pps(pps_system), model, default_grid,
            n_realizations=2, seed=33,
        )
        draws = [fid_pps_single(pps_system, eta, t) for eta in etas]
        s = np.mean([mx + 1j * my for mx, my, _ in draws], axis=0)
        assert np.max(np.abs(trace.mx - s.real)) < 1e-12
        assert np.max(np.abs(trace.my - s.imag)) < 1e-12
        assert np.max(np.abs(trace.mperp - np.abs(s))) < 1e-12
        # per-draw moduli stay at 0.5; the averaged modulus must decay below
        assert trace.mperp[-1] < 0.5 - 1e-3

    def test_effective_and_heisenberg_agree_at_zero_magnification(
        self, pps_system, default_grid
    ):
        spec = SpinSystemSpec(polarization=1.0, magnification=0.0)
        model = NoiseModel("lorentzian", 28.0)
        eff = evolve_fid(
            spec, pulsed_pps(spec), model, default_grid,
            n_realizations=16, seed=5, hamiltonian="effective",
        )
        heis = evolve_fid(
            spec, pulsed_pps(spec), model, default_grid,
            n_realizations=16, seed=5, hamiltonian="heisenberg",
        )
        assert np.max(np.abs(eff.mx - heis.mx)) < 1e-9
        assert np.max(np.abs(eff.my - heis.my)) < 1e-9

    def test_dense_path_matches_step_propagator(self, default_grid):
        # independent cross-check of the exchange-coupling path: evolve the
        # density matrix step by step with matrix exponentials
        spec = SpinSystemSpec(polarization=1.0)
        grid = TimeGrid(t_max=0.006, n_points=61)
        model = NoiseModel("white", 0.0)
        trace = evolve_fid(
            spec, pulsed_pps(spec), model, grid, n_realizations=1, seed=0,
            hamiltonian="heisenberg", observable=ObservableSpec.total(),
        )
        h = build_rotating_heisenberg(spec)
        u = expm_hermitian(h, grid.dt)
        rho = pulsed_pps(spec)
        ladder = ObservableSpec.total().ladder_matrix(3)
        mx = np.empty(grid.n_points)
        my = np.empty(grid.n_points)
        for k in range(grid.n_points):
            if k:
                rho = DensityMatrix(u @ rho.matrix @ u.conj().T)
            s = np.trace(rho.matrix @ ladder)
            mx[k], my[k] = s.real, s.imag
        assert np.max(np.abs(trace.mx - mx)) < 1e-12
        assert np.max(np.abs(trace.my - my)) < 1e-12

    @pytest.mark.parametrize("readout", ["single", "total"])
    @pytest.mark.parametrize("state", ["thermal", "pps"])
    @pytest.mark.parametrize("n_spins", sorted(REGISTERS))
    @pytest.mark.parametrize("axis, angle", [("y", np.pi / 2), ("x", 0.7)], ids=["y-pi/2", "x-0.7"])
    def test_noisy_heisenberg_matches_per_draw_step_propagation(self, axis, angle, n_spins, state, readout):
        # brute-force oracle for the D(t) chi(t) factorisation: every draw
        # evolves under its own H(eta_r) by step propagators, then average
        delta, j, label = REGISTERS[n_spins]
        polarization = -1.0 if state == "thermal" else 1.0
        spec = SpinSystemSpec(n_spins, delta, j, polarization=polarization, magnification=5.0)
        grid = TimeGrid(t_max=0.006, n_points=61)
        model = NoiseModel("lorentzian", 28.0)
        base = thermal_state(spec) if state == "thermal" else pps_state(spec, label)
        initial = apply_pulse(base, PulseSpec(target=n_spins - 1, axis=axis, angle=angle))
        observable = ObservableSpec.total() if readout == "total" else ObservableSpec.single(n_spins - 1)
        n, seed = 3, 19
        trace = evolve_fid(
            spec, initial, model, grid, observable=observable, n_realizations=n, seed=seed,
            hamiltonian="heisenberg",
        )
        ladder = observable.ladder_matrix(n_spins)
        want = np.zeros(grid.n_points, dtype=complex)
        for eta in model.sample_block(seed, 0, n):
            assert eta != 0.0
            u = expm_hermitian(build_rotating_heisenberg(spec, eta_z=float(eta)), grid.dt)
            rho = initial
            for k in range(grid.n_points):
                if k:
                    rho = DensityMatrix(u @ rho.matrix @ u.conj().T)
                want[k] += np.trace(rho.matrix @ ladder)
        want /= n
        assert np.max(np.abs(trace.mx - want.real)) < 1e-11
        assert np.max(np.abs(trace.my - want.imag)) < 1e-11


BUILD_NAMES = {"effective": "build_effective", "heisenberg": "build_rotating_heisenberg"}


def register(n_spins: int) -> tuple[SpinSystemSpec, DensityMatrix]:
    """The n-spin register of REGISTERS at magnification 5, in its pseudo-pure state pulsed on the last spin."""
    delta, j, label = REGISTERS[n_spins]
    spec = SpinSystemSpec(n_spins, delta, j, polarization=1.0, magnification=5.0)
    return spec, apply_pulse(pps_state(spec, label), PulseSpec(target=n_spins - 1))


def total_magnetization(n_spins: int) -> np.ndarray:
    """m_j, the total I_z of each basis state, from Pauli matrices embedded afresh."""
    return 0.5 * np.diagonal(sum(embed(pauli("z"), i, n_spins) for i in range(n_spins))).real


class TestFactorisationGuard:
    """evolve_fid refuses inputs for which D(t) chi(t) would be wrong, at every register size."""

    @pytest.mark.parametrize("kind", sorted(BUILD_NAMES))
    @pytest.mark.parametrize("n_spins", sorted(REGISTERS))
    def test_hamiltonians_keep_every_entry_inside_its_magnetization_sector(self, n_spins, kind):
        spec, _ = register(n_spins)
        h0 = getattr(spinfid.engine, BUILD_NAMES[kind])(spec, eta_z=0.0)
        m = total_magnetization(n_spins)
        joins_sectors = m[:, None] != m[None, :]
        assert np.count_nonzero(h0[joins_sectors]) == 0
        if kind == "heisenberg" and n_spins > 1:
            assert np.count_nonzero(h0[~joins_sectors & ~np.eye(spec.dim, dtype=bool)]) > 0

    @pytest.mark.parametrize("kind", sorted(BUILD_NAMES))
    @pytest.mark.parametrize("n_spins, site", [(n, site) for n in sorted(REGISTERS) for site in range(n)])
    def test_transverse_term_in_hamiltonian_raises(self, monkeypatch, n_spins, site, kind):
        spec, initial = register(n_spins)
        original = getattr(spinfid.engine, BUILD_NAMES[kind])
        i_x = 0.5 * embed(pauli("x"), site, n_spins)

        def with_transverse_field(spec, eta_z=0.0):
            return original(spec, eta_z) + TWO_PI * 50.0 * i_x

        monkeypatch.setattr(spinfid.engine, BUILD_NAMES[kind], with_transverse_field)
        grid = TimeGrid(t_max=0.004, n_points=41)
        with pytest.raises(ValueError, match="conserve total I_z"):
            zero_noise_signal(spec, initial, grid, hamiltonian=kind)
        with pytest.raises(ValueError, match="conserve total I_z"):
            evolve_fid(spec, initial, NoiseModel("lorentzian", 28.0), grid, n_realizations=4, hamiltonian=kind)

    @pytest.mark.parametrize("kind", sorted(BUILD_NAMES))
    @pytest.mark.parametrize("n_spins", sorted(REGISTERS))
    @pytest.mark.parametrize("operator", ["hermitian-x", "lowering"])
    def test_observable_that_is_not_single_quantum_raises(self, kind, n_spins, operator):
        raising = ObservableSpec.single(n_spins - 1).ladder_matrix(n_spins)
        matrix = {"hermitian-x": 0.5 * (raising + raising.conj().T), "lowering": raising.conj().T}

        class BadObservable(ObservableSpec):
            def ladder_matrix(self, n_spins: int) -> np.ndarray:
                return matrix[operator]

        spec, initial = register(n_spins)
        with pytest.raises(ValueError, match="single-quantum"):
            evolve_fid(spec, initial, NoiseModel("lorentzian", 28.0), TimeGrid(t_max=0.004, n_points=41),
                       observable=BadObservable(), n_realizations=4, hamiltonian=kind)


class TestConservation:
    def test_total_z_constant_under_exchange_coupling(self):
        spec = SpinSystemSpec(polarization=1.0, magnification=3.0)
        h = build_rotating_heisenberg(spec, eta_z=150.0)
        z_total = sum(embed(pauli("z"), i, 3) for i in range(3))
        rho = pulsed_pps(spec)
        u = expm_hermitian(h, 4e-4)
        values = []
        for _ in range(20):
            values.append(rho.expect(z_total))
            rho = DensityMatrix(u @ rho.matrix @ u.conj().T)
        assert np.max(np.abs(np.array(values) - values[0])) < 1e-10


class TestDeterminism:
    def test_same_seed_same_trace(self, pps_system, default_grid):
        model = NoiseModel("gaussian", 28.0)
        a = evolve_fid(pps_system, pulsed_pps(pps_system), model, default_grid,
                       n_realizations=64, seed=21)
        b = evolve_fid(pps_system, pulsed_pps(pps_system), model, default_grid,
                       n_realizations=64, seed=21)
        assert np.array_equal(a.mx, b.mx) and np.array_equal(a.my, b.my)

    def test_different_seeds_differ(self, pps_system, default_grid):
        model = NoiseModel("gaussian", 28.0)
        a = evolve_fid(pps_system, pulsed_pps(pps_system), model, default_grid,
                       n_realizations=64, seed=21)
        b = evolve_fid(pps_system, pulsed_pps(pps_system), model, default_grid,
                       n_realizations=64, seed=22)
        assert not np.array_equal(a.mx, b.mx)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="worker count"):
            run_experiment(preset_config("fig2-pps", n_realizations=8), workers=0)

    def test_only_run_experiment_takes_a_worker_count(self):
        # Chunks run in the calling thread; run_experiment keeps the argument for the benchmark harness.
        def functions(module):
            for obj in vars(module).values():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield obj.__qualname__, obj
                elif inspect.isclass(obj):
                    for member in vars(obj).values():
                        member = getattr(member, "__func__", member)
                        if inspect.isfunction(member):
                            yield member.__qualname__, member

        taking = {
            name
            for module in (spinfid.engine, spinfid.experiments)
            for name, function in functions(module)
            if "workers" in inspect.signature(function).parameters
        }
        assert taking == {"run_experiment"}


class FixedDraws:
    """Noise stand-in whose realization r is ``etas[r]``, for hand-picked offsets."""

    def __init__(self, etas) -> None:
        self.etas = np.asarray(etas, dtype=float)

    def sample_block(self, seed: int, start: int, count: int) -> np.ndarray:
        return self.etas[start : start + count]


def direct_mean(etas: np.ndarray, grid: TimeGrid) -> np.ndarray:
    return np.exp(1j * np.outer(etas, grid.points)).sum(axis=0) / etas.size


def nufft_mean(noise, grid: TimeGrid, n: int, seed: int = 0) -> np.ndarray:
    return spinfid.engine._phase_sum(noise, grid, n, seed) / n


def batched_phase_sum(noise, grid: TimeGrid, n: int, seed: int) -> np.ndarray:
    """R chi finished in one batch: a 2-D rfft of the whole histogram, a (P, n) weight table, a sum over axis 0."""
    points, bins, terms = grid.n_points, spinfid.engine._bin_count(grid.n_points), spinfid.engine._TAYLOR_TERMS
    hist = np.zeros((terms, bins))
    for lo, hi in spinfid.engine._chunk_bounds(n):
        x = np.mod(noise.sample_block(seed, lo, hi - lo) * (grid.dt * (bins / (2.0 * math.pi))), bins)
        centre = np.rint(x)
        offset = x - centre
        cells = centre.astype(np.intp) & (bins - 1)
        power = np.ones_like(offset)
        for row in hist:
            row += np.bincount(cells, weights=power, minlength=bins)
            power *= offset
    minus_ikh = (-2j * math.pi / bins) * np.arange(points)
    weights = np.empty((terms, points), dtype=complex)
    weights[0] = 1.0
    for p in range(1, terms):
        np.multiply(weights[p - 1], minus_ikh / p, out=weights[p])
    modes = np.fft.rfft(hist, axis=1)[:, :points]
    modes *= weights
    return modes.sum(axis=0).conj()


class TestPhaseSum:
    """The engine's NUFFT chi(t) against the direct per-point exponential sum."""

    @pytest.mark.parametrize("kind", ["white", "gaussian", "lorentzian"])
    @pytest.mark.parametrize("n_points", [2, 3, 17, 49, 481, 482, 4001])
    def test_matches_direct_sum(self, kind, n_points):
        # One spin on the carrier: H0 = 0, so D(t) is the constant Tr(rho O)
        # and the trace is that constant times the mean phase sum.
        spec = SpinSystemSpec(n_spins=1, delta=(0.0,), j=(), polarization=1.0)
        initial = apply_pulse(thermal_state(spec), PulseSpec(target=0))
        observable = ObservableSpec.single(0)
        d0 = np.trace(initial.matrix @ observable.ladder_matrix(1))
        grid = TimeGrid(t_max=0.024, n_points=n_points)
        noise = NoiseModel(kind, 28.0)
        n, seed = 2500, 17
        trace = evolve_fid(spec, initial, noise, grid, observable=observable,
                           n_realizations=n, seed=seed)
        eta = noise.sample_block(seed, 0, n)
        reference = np.exp(1j * np.outer(eta, grid.points)).sum(axis=0) / n
        assert np.max(np.abs((trace.mx + 1j * trace.my) / d0 - reference)) <= 1e-12

    @pytest.mark.parametrize("kind", ["white", "gaussian", "lorentzian"])
    def test_zero_width_puts_every_draw_at_the_origin(self, default_grid, kind):
        # Each draw is +0 or -0, which np.mod maps to bin 0 with offset 0: chi_hat is R exactly.
        n = 5000
        got = spinfid.engine._phase_sum(NoiseModel(kind, 0.0), default_grid, n, 3)
        assert got.real.tobytes() == np.full(default_grid.n_points, float(n)).tobytes()
        assert np.all(got.imag == 0.0)

    def test_tiny_negative_offset_wraps_onto_the_first_node(self, default_grid):
        # np.mod rounds these up to a full period, so the draw lands one period out.
        etas = np.array([-1e-300, -1e-20, -3e-9, 1e-300, 40.0, -40.0])
        assert np.mod(etas[0] * default_grid.dt, 2.0 * np.pi) == 2.0 * np.pi
        got = nufft_mean(FixedDraws(etas), default_grid, etas.size)
        assert np.max(np.abs(got - direct_mean(etas, default_grid))) <= 1e-12

    def test_lorentzian_tail_draws_many_turns_per_step(self, default_grid):
        tails = np.array([2.6e6, -2.6e6, 1.3e7, -1.3e7])
        assert np.min(np.abs(tails * default_grid.dt)) > 100.0  # radians per grid step, >> 2 pi
        etas = np.concatenate([NoiseModel("lorentzian", 28.0).sample_block(9, 0, 2000), tails])
        got = nufft_mean(FixedDraws(etas), default_grid, etas.size)
        assert np.max(np.abs(got - direct_mean(etas, default_grid))) <= 1e-12

    def test_draws_on_grid_nodes(self, default_grid):
        cells = spinfid.engine._bin_count(default_grid.n_points)
        nodes = np.array([0, 1, 2, 5, 17, 123, 1000, cells - 1, cells + 3, -1, -4, -600, -cells - 7])
        # The engine's own scale from radians per step to bins, so the positions come out exact.
        bins_per_eta = default_grid.dt * (cells / (2.0 * np.pi))
        etas = nodes / bins_per_eta
        position = etas * bins_per_eta
        assert np.count_nonzero(position == np.round(position)) > nodes.size // 2
        got = nufft_mean(FixedDraws(etas), default_grid, etas.size)
        assert np.max(np.abs(got - direct_mean(etas, default_grid))) <= 1e-12

    def test_taylor_remainder_bound_holds_for_the_module_constants(self):
        # |k h f| < pi / 2 for every mode k < n and offset |f| <= 1/2 once M >= 2n,
        # so the first omitted term of the series is at most (pi / 2)^P / P!.
        terms = spinfid.engine._TAYLOR_TERMS
        assert (np.pi / 2) ** terms / math.factorial(terms) <= 1e-14

    @pytest.mark.parametrize("n_points", [2, 3, 481, 482, 4001])
    def test_bin_count_is_the_smallest_power_of_two_covering_twice_the_grid(self, n_points):
        bins = spinfid.engine._bin_count(n_points)
        assert bins & (bins - 1) == 0
        assert 2 * n_points <= bins < 4 * n_points

    def test_draws_half_a_bin_from_a_centre(self, default_grid):
        # Offsets of +-1/2 bin make |k h f| largest, at the last mode k = n - 1.
        bins = spinfid.engine._bin_count(default_grid.n_points)
        halves = np.array([0, 1, 2, 7, 100, 511, bins - 1, bins + 5, -1, -2, -300, -bins - 3]) + 0.5
        bins_per_eta = default_grid.dt * (bins / (2.0 * np.pi))
        etas = halves / bins_per_eta
        position = np.mod(etas * bins_per_eta, bins)
        assert np.all(np.abs(position - np.rint(position)) == 0.5)
        got = nufft_mean(FixedDraws(etas), default_grid, etas.size)
        assert np.max(np.abs(got - direct_mean(etas, default_grid))) <= 1e-12

    @pytest.mark.parametrize("n_points", [481, 4001])
    def test_ragged_last_chunk(self, n_points):
        grid = TimeGrid(n_points=n_points)
        n = 2 * spinfid.engine._CHUNK_DRAWS + 123
        bounds = spinfid.engine._chunk_bounds(n)
        assert len(bounds) == 3 and bounds[-1] == (n - 123, n)
        noise = NoiseModel("gaussian", 28.0)
        chunked = nufft_mean(noise, grid, n, seed=4)
        # The direct sum in slices of about 1000 draws keeps its table of exponentials small.
        slices = np.array_split(noise.sample_block(4, 0, n), 9)
        reference = sum(direct_mean(etas, grid) * etas.size for etas in slices) / n
        assert np.max(np.abs(chunked - reference)) <= 1e-12


class TestPhaseSumFinish:
    """The row-by-row finish of the phase sum: the batched finish's bytes, without its memory."""

    @pytest.mark.parametrize("kind", ["white", "gaussian", "lorentzian"])
    @pytest.mark.parametrize("n_points", [2, 3, 17, 481, 482, 4001])
    @pytest.mark.parametrize("n", [1, 2 * spinfid.engine._CHUNK_DRAWS + 123])
    def test_matches_the_batched_finish_bit_for_bit(self, kind, n_points, n):
        noise, grid = NoiseModel(kind, 28.0), TimeGrid(t_max=0.024, n_points=n_points)
        got = spinfid.engine._phase_sum(noise, grid, n, 11)
        assert got.tobytes() == batched_phase_sum(noise, grid, n, 11).tobytes()

    def test_peak_memory_stays_near_the_histogram(self):
        # A whole (P, M/2 + 1) spectrum and a (P, n) weight table on top of the histogram peak near 2.15 histograms.
        noise, grid = NoiseModel("gaussian", 28.0), TimeGrid(n_points=4001)
        hist_bytes = spinfid.engine._TAYLOR_TERMS * spinfid.engine._bin_count(grid.n_points) * 8
        spinfid.engine._phase_sum(noise, grid, 10_000, 1)  # warm-up: imports and FFT plans are not the sum's
        spinfid.engine._phase_sum.cache_clear()
        tracemalloc.start()
        try:
            spinfid.engine._phase_sum(noise, grid, 10_000, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * hist_bytes


class TestZeroNoiseSignal:
    """D(t) is public, and evolve_fid is D(t) times the phase sum over R, bit for bit."""

    @pytest.mark.parametrize("hamiltonian", ["effective", "heisenberg"])
    def test_trace_is_signal_times_phase_sum(self, hamiltonian, default_grid):
        spec = SpinSystemSpec(polarization=1.0, magnification=5.0)
        initial, noise, n = pulsed_pps(spec), NoiseModel("lorentzian", 28.0), 700
        trace = evolve_fid(spec, initial, noise, default_grid, n_realizations=n, seed=8, hamiltonian=hamiltonian)
        signal = zero_noise_signal(spec, initial, default_grid, hamiltonian=hamiltonian)
        expected = signal * spinfid.engine._phase_sum(noise, default_grid, n, 8)
        expected /= n
        assert trace.mx.tobytes() == expected.real.tobytes()
        assert trace.my.tobytes() == expected.imag.tobytes()

    def test_starts_at_the_readout_of_the_state(self, default_grid):
        spec = SpinSystemSpec(polarization=1.0)
        initial = pulsed_thermal(spec)
        observable = ObservableSpec.total()
        signal = zero_noise_signal(spec, initial, default_grid, observable=observable)
        assert signal.shape == (default_grid.n_points,)
        assert abs(signal[0] - np.trace(initial.matrix @ observable.ladder_matrix(spec.n_spins))) <= 1e-15


def full_matrix_signal(h0: np.ndarray, rho: np.ndarray, obs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """D(t) as the engine once formed it: one eigh of the whole H0, every amplitude with abs(A) > 0."""
    vals, vecs = np.linalg.eigh(h0)
    vecs_h = vecs.conj().T
    amplitudes = (vecs_h @ rho @ vecs) * (vecs_h @ obs @ vecs).T  # A_jk = rho_jk * O_kj
    omega = vals[:, None] - vals[None, :]
    mask = np.abs(amplitudes) > 0.0
    return (amplitudes[mask][:, None] * np.exp(-1j * np.outer(omega[mask], t))).sum(axis=0)


class TestSectorBlocks:
    """D(t) from H0's magnetization-sector blocks equals the whole-matrix eigendecomposition."""

    @pytest.mark.parametrize("n_spins", sorted(REGISTERS))
    def test_sectors_partition_the_basis_by_total_magnetization(self, n_spins):
        sectors = spinfid.engine._sectors(n_spins)
        assert spinfid.engine._sectors(n_spins) is sectors
        m = total_magnetization(n_spins)
        assert len(sectors) == n_spins + 1
        assert sorted(np.concatenate(sectors).tolist()) == list(range(2**n_spins))
        for value, sector in enumerate(sectors):
            assert (m[sector] == value - n_spins / 2).all() and (np.diff(sector) > 0).all()
            assert not sector.flags.writeable

    @pytest.mark.parametrize("kind", sorted(BUILD_NAMES))
    @pytest.mark.parametrize("n_spins", sorted(REGISTERS))
    def test_signal_matches_the_full_matrix_formula(self, n_spins, kind, default_grid):
        delta, j, label = REGISTERS[n_spins]
        for magnification in (0.0, 1.0, 2.0, 3.0, 5.0, 20.0):
            for state in ("thermal", "pps"):
                spec = SpinSystemSpec(n_spins, delta, j, polarization=-1.0 if state == "thermal" else 1.0,
                                      magnification=magnification)
                base = thermal_state(spec) if state == "thermal" else pps_state(spec, label)
                initial = apply_pulse(base, PulseSpec(target=n_spins - 1))
                h0 = getattr(spinfid.engine, BUILD_NAMES[kind])(spec, eta_z=0.0)
                for observable in (ObservableSpec.single(n_spins - 1), ObservableSpec.total()):
                    obs = observable.ladder_matrix(n_spins)
                    want = full_matrix_signal(h0, initial.matrix, obs, default_grid.points)
                    got = zero_noise_signal(spec, initial, default_grid, observable=observable, hamiltonian=kind)
                    # Each path rounds the line phases w t on its own, by up to about B t_max 2**-53
                    # (1.1e-13 rad for the four-spin register at m = 1).  There the two differ by 1.2e-13,
                    # while a 40-digit evaluation of the same H0 puts this one 5.2e-14 and the whole-matrix
                    # formula 6.8e-14 away: two roundings of opposite sign.
                    error = np.max(np.abs(got - want)) / max(1.0, abs(want[0]))
                    assert error <= 2e-13, (magnification, state, observable)

    def test_state_with_no_single_quantum_coherence_gives_zero(self, default_system, default_grid):
        signal = zero_noise_signal(default_system, thermal_state(default_system), default_grid)
        assert signal.shape == (default_grid.n_points,) and not signal.any()


class TestCachedPhaseSum:
    """Consecutive runs on one ensemble share one phase sum, with the same bytes as a fresh sum."""

    ENSEMBLE = {"noise": NoiseModel("lorentzian", 28.0), "grid": TimeGrid(t_max=0.024, n_points=97),
                "n_realizations": 300, "seed": 5}

    def run(self, spec):
        return evolve_fid(spec, pulsed_pps(spec), observable=ObservableSpec.total(), hamiltonian="heisenberg",
                          **self.ENSEMBLE)

    @staticmethod
    def phase_sum(ensemble):
        return spinfid.engine._phase_sum(*ensemble.values())

    def test_runs_on_one_ensemble_hit_the_cache_with_identical_bytes(self):
        specs = [SpinSystemSpec(polarization=1.0, magnification=m) for m in (0.0, 1.0, 5.0)]
        shared = [self.run(spec) for spec in specs]
        info = spinfid.engine._phase_sum.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        for spec, reused in zip(specs, shared):
            spinfid.engine._phase_sum.cache_clear()
            own = self.run(spec)
            assert own.mx.tobytes() == reused.mx.tobytes()
            assert own.my.tobytes() == reused.my.tobytes()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", 6),
            ("grid", TimeGrid(t_max=0.024, n_points=98)),
            ("n_realizations", 301),
            ("noise", NoiseModel("gaussian", 28.0)),
        ],
    )
    def test_another_ensemble_is_summed_afresh(self, field, value):
        changed = {**self.ENSEMBLE, field: value}
        self.phase_sum(self.ENSEMBLE)
        got = self.phase_sum(changed)
        assert spinfid.engine._phase_sum.cache_info().misses == 2
        spinfid.engine._phase_sum.cache_clear()
        assert got.tobytes() == self.phase_sum(changed).tobytes()

    def test_cached_sum_is_read_only(self):
        chi = self.phase_sum(self.ENSEMBLE)
        assert not chi.flags.writeable
        with pytest.raises(ValueError):
            chi[0] = 0.0

    @pytest.mark.parametrize("name, runs", [("fig4a", 3), ("fig4b", 6)])
    def test_exchange_presets_sum_once(self, tmp_path, name, runs):
        run_preset(name, n_realizations=400, output=str(tmp_path / f"{name}.csv"))
        info = spinfid.engine._phase_sum.cache_info()
        assert (info.misses, info.hits) == (1, runs - 1)

    def test_width_sweep_sums_every_run(self):
        # A width sweep rescales every draw, so each value and the noise-off baseline need their own sum.
        base = preset_config("fig2-pps", n_realizations=200)
        sweep_residuals(base, np.array([10.0, 28.0]), param="width")
        info = spinfid.engine._phase_sum.cache_info()
        assert (info.misses, info.hits) == (3, 0)

    def test_fig4b_table_matches_runs_on_a_cleared_cache(self, tmp_path):
        base = preset_config("fig4b", n_realizations=400)
        table = run_preset("fig4b", n_realizations=400, output=str(tmp_path / "fig4b.csv")).table

        def trace(m):
            spinfid.engine._phase_sum.cache_clear()
            config = replace(base, system=replace(base.system, magnification=m), output=None)
            return run_experiment(config, oracles={}).trace

        baseline = trace(0.0)
        expected = np.array([residual_ratio(trace(m), baseline) for m in table["m"]])
        assert table["r_numeric"].tobytes() == expected.tobytes()


class TestSweepRuns:
    def test_sweep_prepares_the_initial_state_once(self, monkeypatch):
        calls = []
        original = spinfid.experiments.build_initial_state

        def counted(config):
            calls.append(config)
            return original(config)

        monkeypatch.setattr(spinfid.experiments, "build_initial_state", counted)
        base = preset_config("fig4b", n_realizations=50)
        sweep_residuals(base, np.array([1.0, 2.0, 3.0]))
        assert calls == [base]

    def test_non_finite_trace_is_refused_by_runs_and_sweeps(self, monkeypatch):
        def nan_trace(spec, initial, noise, grid, **kwargs):
            nan = np.full(grid.n_points, np.nan)
            return FidTrace(grid, nan, nan, n_realizations=1, seed=0)

        monkeypatch.setattr(spinfid.experiments, "evolve_fid", nan_trace)
        base = preset_config("fig4b", n_realizations=50)
        with pytest.raises(NumericInvariantError, match="non-finite"):
            run_experiment(base)
        with pytest.raises(NumericInvariantError, match="non-finite"):
            sweep_residuals(base, np.array([1.0]))

    @staticmethod
    def forbid_runs(monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a sweep value was refused only after a run")

        monkeypatch.setattr(spinfid.experiments, "evolve_fid", no_run)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_sweep_value_is_refused_before_any_run(self, monkeypatch, bad):
        self.forbid_runs(monkeypatch)
        with pytest.raises(ValueError, match="finite and non-negative"):
            sweep_residuals(preset_config("fig4b"), np.array([1.0, bad]))

    @pytest.mark.parametrize("values", ["1,nan", "1,inf", "1,,2", "1,"])
    def test_cli_refuses_blank_and_non_finite_values_before_any_run(self, tmp_path, monkeypatch, capsys, values):
        # --values is read by the config's comma-separated number reader.
        self.forbid_runs(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert cli_main(["sweep", "--preset", "fig4b", "--param", "m", "--values", values]) == 2
        assert capsys.readouterr().err.startswith("config error: --values")
        assert list(tmp_path.iterdir()) == []


class TestOperatorReuse:
    def test_repeated_heisenberg_run_embeds_at_most_once(self, monkeypatch):
        # After a first run on a 3-spin register, only apply_pulse's rotation is embedded.
        config = preset_config("fig4b", n_realizations=200)
        assert config.hamiltonian == "heisenberg" and config.system.n_spins == 3
        run_experiment(config)
        original = spinfid.operators.embed
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "spinfid" and getattr(module, "embed", None) is original:
                monkeypatch.setattr(module, "embed", counted)
        run_experiment(config)
        assert len(calls) <= 1


class TestCouplingInvariance:
    def test_pps_modulus_unchanged_by_tenfold_coupling(self, default_grid):
        model = NoiseModel("lorentzian", 28.0)
        traces = []
        for m in (1.0, 10.0):
            spec = SpinSystemSpec(polarization=1.0, magnification=m)
            traces.append(
                evolve_fid(spec, pulsed_pps(spec), model, default_grid,
                           n_realizations=2_000, seed=101)
            )
        assert np.max(np.abs(traces[0].mperp - traces[1].mperp)) < 1e-9

    def test_thermal_modulus_changes_with_coupling(self, default_grid):
        model = NoiseModel("lorentzian", 28.0)
        traces = []
        for m in (1.0, 10.0):
            spec = SpinSystemSpec(polarization=-1.0, magnification=m)
            traces.append(
                evolve_fid(spec, pulsed_thermal(spec), model, default_grid,
                           n_realizations=500, seed=101)
            )
        assert np.max(np.abs(traces[0].mperp - traces[1].mperp)) > 1e-2


class TestFidTrace:
    def test_mperp_is_hypot_of_means(self, pps_system, default_grid):
        trace = evolve_fid(
            pps_system, pulsed_pps(pps_system), NoiseModel("lorentzian", 28.0),
            default_grid, n_realizations=100, seed=2,
        )
        assert trace.mperp.tobytes() == np.hypot(trace.mx, trace.my).tobytes()
        assert not trace.mperp.flags.writeable

    def test_mperp_cannot_be_passed_in(self, default_grid):
        n = default_grid.n_points
        mx, my, mperp = np.ones(n), np.zeros(n), np.full(n, 3.0)
        with pytest.raises(TypeError):
            FidTrace(default_grid, mx, my, mperp, n_realizations=1, seed=0)
        with pytest.raises(TypeError):
            FidTrace(default_grid, mx, my, mperp=mperp, n_realizations=1, seed=0)
        # The metadata is keyword-only, so an old positional call cannot shift it into place.
        with pytest.raises(TypeError):
            FidTrace(default_grid, mx, my, 1, 0)

    def test_caller_arrays_stay_writeable_and_detached(self, default_grid):
        n = default_grid.n_points
        mx, my = np.ones(n), np.zeros(n)
        trace = FidTrace(default_grid, mx, my, n_realizations=1, seed=0)
        for theirs, ours in ((mx, trace.mx), (my, trace.my)):
            assert theirs.flags.writeable
            assert not ours.flags.writeable
            theirs[0] = 7.0
            assert ours[0] != 7.0
        assert trace.mperp[0] == 1.0

    def test_from_components(self, default_grid):
        t = default_grid.points
        mx = 0.5 * np.cos(TWO_PI * 100.0 * t)
        my = 0.5 * np.sin(TWO_PI * 100.0 * t)
        # The benchmark's checks pass the metadata positionally.
        trace = FidTrace.from_components(default_grid, mx, my, 3, 5, -0.5)
        assert (trace.n_realizations, trace.seed, trace.polarization) == (3, 5, -0.5)
        assert np.allclose(trace.mperp, 0.5)


def _unit_trace() -> FidTrace:
    grid = TimeGrid()
    return FidTrace(grid, np.ones(grid.n_points), np.zeros(grid.n_points), n_realizations=1, seed=0)


# Each value object that holds arrays, built so that two calls give equal content.
ARRAY_VALUE_OBJECTS = {
    "FidTrace": _unit_trace,
    "DensityMatrix": lambda: DensityMatrix(np.eye(2) / 2.0),
    "ExperimentResult": lambda: spinfid.experiments.ExperimentResult(
        preset_config("fig1"), _unit_trace(), {"single": np.ones(481)}
    ),
    "PresetResult": lambda: spinfid.experiments.PresetResult(("fig4b.csv",), {"m": np.arange(1.0, 6.0)}),
    "TableData": lambda: TableData({"m": np.arange(1.0, 6.0)}),
}


@pytest.mark.parametrize("build", ARRAY_VALUE_OBJECTS.values(), ids=ARRAY_VALUE_OBJECTS.keys())
def test_array_value_objects_compare_by_identity(build):
    a, b = build(), build()
    assert a != b
    assert a == a
    assert len({a, b}) == 2


class TestResidualRatio:
    def synthetic(self, grid: TimeGrid, amplitude: np.ndarray) -> FidTrace:
        return FidTrace(grid, amplitude, np.zeros_like(amplitude), n_realizations=1, seed=0)

    def test_identical_traces_give_zero(self, default_grid):
        a = self.synthetic(default_grid, np.exp(-100.0 * default_grid.points))
        assert residual_ratio(a, a) == 0.0

    def test_doubled_amplitude_gives_one(self, default_grid):
        base = np.exp(-100.0 * default_grid.points)
        r = residual_ratio(
            self.synthetic(default_grid, 2.0 * base), self.synthetic(default_grid, base)
        )
        assert r == pytest.approx(1.0, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        a = self.synthetic(TimeGrid(t_max=0.01, n_points=11), np.ones(11))
        b = self.synthetic(TimeGrid(t_max=0.02, n_points=21), np.ones(21))
        with pytest.raises(ValueError):
            residual_ratio(a, b)

    def test_zero_baseline_rejected(self, default_grid):
        zero = self.synthetic(default_grid, np.zeros(default_grid.n_points))
        one = self.synthetic(default_grid, np.ones(default_grid.n_points))
        with pytest.raises(ValueError):
            residual_ratio(one, zero)

    def test_both_ratios_refuse_a_zero_baseline_with_one_message(self, default_grid):
        zero = self.synthetic(default_grid, np.zeros(default_grid.n_points))
        one = self.synthetic(default_grid, np.ones(default_grid.n_points))
        unpolarized = SpinSystemSpec(polarization=0.0)  # its coupling-free modulus a_0 is zero
        messages = []
        for refuse in (
            lambda: residual_ratio(one, zero),
            lambda: residual_ratio_analytic(unpolarized, NoiseModel("lorentzian", 28.0), default_grid.points),
        ):
            with pytest.raises(ValueError) as refused:
                refuse()
            messages.append(str(refused.value))
        assert messages == ["baseline modulus integrates to 0, not to a positive value"] * 2

    def test_nan_baseline_rejected(self, default_grid):
        nan = self.synthetic(default_grid, np.full(default_grid.n_points, np.nan))
        one = self.synthetic(default_grid, np.ones(default_grid.n_points))
        with pytest.raises(ValueError, match="integrates to nan"):
            residual_ratio(one, nan)


class TestArgumentValidation:
    def test_dimension_mismatch(self, default_system, default_grid):
        small = thermal_state(SpinSystemSpec(n_spins=1, delta=(0.0,), j=()))
        with pytest.raises(ValueError):
            evolve_fid(default_system, small, NoiseModel("white", 0.0), default_grid,
                       n_realizations=1)

    def test_nonpositive_realizations(self, default_system, default_grid):
        with pytest.raises(ValueError):
            evolve_fid(default_system, pulsed_thermal(default_system),
                       NoiseModel("white", 0.0), default_grid, n_realizations=0)

    @pytest.mark.parametrize("n_points, n_realizations", [(481, 10**9), (10**10, 1), (2 * 10**8, 1)])
    def test_work_limit_refuses_before_sampling(self, monkeypatch, n_points, n_realizations):
        def no_draws(*args, **kwargs):
            raise AssertionError("a draw was sampled before the work limit was checked")

        monkeypatch.setattr(NoiseModel, "sample_block", no_draws)
        spec = SpinSystemSpec(polarization=1.0)
        with pytest.raises(ValueError, match="work limit"):
            evolve_fid(spec, pulsed_pps(spec), NoiseModel("lorentzian", 28.0),
                       TimeGrid(n_points=n_points), n_realizations=n_realizations)

    def test_grids_over_the_histogram_bound_are_refused_before_any_grid_sized_array(self, monkeypatch):
        # The largest grid runs: one spin has one line, so its D(t) takes about 20 MB.
        delta, j, label = REGISTERS[1]
        one = SpinSystemSpec(1, delta, j, polarization=1.0)
        initial = apply_pulse(pps_state(one, label), PulseSpec(target=0))
        signal = zero_noise_signal(one, initial, TimeGrid(n_points=524_288), observable=ObservableSpec.single(0))
        assert signal.shape == (524_288,) and np.isfinite(signal).all()

        def no_arrays(*args, **kwargs):
            raise AssertionError("a grid-sized array was built before the grid size was checked")

        def no_draws(*args, **kwargs):
            raise AssertionError("a draw was sampled before the grid size was checked")

        spec = SpinSystemSpec(polarization=1.0)
        initial = pulsed_pps(spec)
        monkeypatch.setattr(np, "linspace", no_arrays)
        monkeypatch.setattr(NoiseModel, "sample_block", no_draws)
        # 2 * 10**8 points would take 1.6 GB of grid and about 29 GB of D(t)'s nine-line table.
        for n_points in (524_289, 2 * 10**8):
            grid = TimeGrid(n_points=n_points)
            with pytest.raises(ValueError, match="work limit of 524288 points"):
                zero_noise_signal(spec, initial, grid)
            with pytest.raises(ValueError, match="work limit"):
                evolve_fid(spec, initial, NoiseModel("lorentzian", 28.0), grid, n_realizations=1)

    @pytest.mark.parametrize("kind", sorted(BUILD_NAMES))
    @pytest.mark.parametrize("offset", [1.5e307, 2e307])
    def test_system_whose_bound_overflows_is_refused_at_construction(self, kind, offset, default_grid):
        # Each offset is finite in rad/s, but the bound 2 * sum |2 pi delta_i| is not (at 2e307 H0's corner
        # entry overflows too), so no such system reaches the engine.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="offsets, and couplings times the magnification"):
                spec = SpinSystemSpec(delta=(offset,) * 3, polarization=1.0)
                evolve_fid(spec, pulsed_pps(spec), NoiseModel("white", 0.0), default_grid,
                           n_realizations=1, hamiltonian=kind)

    @pytest.mark.parametrize("kind", sorted(BUILD_NAMES))
    @pytest.mark.parametrize("offset", [1e306, 1e200, 1e11])
    def test_offsets_whose_line_phases_keep_no_digits_are_refused_before_sampling(
        self, monkeypatch, kind, offset, default_grid
    ):
        # Three equal offsets only turn D(t)'s phase, yet past B t_max 2**-53 = 1e-6 rad (about 1e10 Hz on
        # the default grid) the rounded phases w t move |D|: by 1.1e-6 at 1e12 Hz and 0.39 at 1e18 Hz.
        def no_draws(*args, **kwargs):
            raise AssertionError("a draw was sampled before the line phases were checked")

        monkeypatch.setattr(NoiseModel, "sample_block", no_draws)
        spec = SpinSystemSpec(delta=(offset,) * 3, polarization=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"B t_max 2\*\*-53 = .* over the 1e-06 rad bound"):
                evolve_fid(spec, pulsed_pps(spec), NoiseModel("lorentzian", 28.0), default_grid,
                           n_realizations=10, hamiltonian=kind)
            with pytest.raises(ValueError, match="1e-06 rad bound"):
                zero_noise_signal(spec, pulsed_pps(spec), default_grid, hamiltonian=kind)

    @pytest.mark.parametrize("kind", sorted(BUILD_NAMES))
    def test_offsets_below_the_phase_digit_limit_run(self, kind, default_grid):
        spec = SpinSystemSpec(delta=(1e9,) * 3, polarization=1.0, magnification=5.0)
        stock = SpinSystemSpec(delta=(0.0,) * 3, polarization=1.0, magnification=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = evolve_fid(spec, pulsed_pps(spec), NoiseModel("white", 0.0), default_grid,
                               n_realizations=10, hamiltonian=kind)
        signal = zero_noise_signal(stock, pulsed_pps(stock), default_grid, hamiltonian=kind)
        # Equal offsets turn the phase alone; at 1e9 Hz the rounded phases move |D| by about 2.3e-9.
        assert np.max(np.abs(trace.mperp - np.abs(signal))) < 1e-7

    @pytest.mark.parametrize("kind", ["white", "gaussian", "lorentzian"])
    def test_width_whose_phase_positions_keep_no_fraction_is_refused_before_sampling(self, monkeypatch, kind):
        def no_draws(*args, **kwargs):
            raise AssertionError("a draw was sampled before the width was checked")

        monkeypatch.setattr(NoiseModel, "sample_block", no_draws)
        spec = SpinSystemSpec(polarization=1.0)
        # Default grid: a width w in Hz reaches w dt M = 2**53 bins at 1.76e17 Hz (dt = 5e-5 s, M = 1024).
        with pytest.raises(ValueError, match=r"noise width 1e\+19 .* no fraction of a bin"):
            evolve_fid(spec, pulsed_pps(spec), NoiseModel(kind, 1e19), TimeGrid(), n_realizations=100)

    @pytest.mark.parametrize("kind", ["white", "gaussian", "lorentzian"])
    def test_width_below_the_phase_position_limit_runs(self, kind):
        spec = SpinSystemSpec(polarization=1.0)
        trace = evolve_fid(spec, pulsed_pps(spec), NoiseModel(kind, 1e17), TimeGrid(), n_realizations=2000)
        # Dephased to the ensemble's own floor, about R**-1/2 of |D(0)| = 0.5.
        assert trace.mperp[0] == 0.5
        assert np.mean(trace.mperp[1:]) < 0.05 * 0.5

    def test_unknown_hamiltonian(self, default_system, default_grid):
        with pytest.raises(ValueError):
            evolve_fid(default_system, pulsed_thermal(default_system),
                       NoiseModel("white", 0.0), default_grid,
                       n_realizations=1, hamiltonian="dipolar")


class TestAgainstAnalyticOracles:
    def test_thermal_trace_matches_oracle_with_noise(self, default_system, default_grid):
        model = NoiseModel("lorentzian", 28.0)
        trace = evolve_fid(
            default_system, pulsed_thermal(default_system), model, default_grid,
            n_realizations=20_000, seed=101,
        )
        _, _, oracle = fid_thermal(default_system, model, default_grid.points)
        assert np.max(np.abs(trace.mperp - oracle)) < 5e-3

    def test_pps_trace_matches_oracle_with_noise(self, pps_system, default_grid):
        model = NoiseModel("lorentzian", 28.0)
        trace = evolve_fid(
            pps_system, pulsed_pps(pps_system), model, default_grid,
            n_realizations=20_000, seed=101,
        )
        _, _, oracle = fid_pps(pps_system, model, default_grid.points)
        assert np.max(np.abs(trace.mperp - oracle)) < 5e-3


# The byte-identity contract.  A child runs these command lines, then prints
# the key that moves their bytes: the numpy version, the highest numpy
# dispatch level enabled (the baseline where every target is off), and the
# name of the OpenBLAS core it ran on ("" where numpy loaded no OpenBLAS).
DIGEST_RUNS = (
    *(("preset", name, "--n-realizations", "2000", "--output", f"{name}.csv")
      for name in spinfid.experiments.PRESET_NAMES),
    ("sweep", "--preset", "fig4b", "--param", "m", "--values", "0.5,1,3",
     "--n-realizations", "300", "--output", "sweep_m.csv"),
    ("sweep", "--preset", "fig2-pps", "--param", "width", "--values", "0,10,28",
     "--n-realizations", "300", "--output", "sweep_width.csv"),
)
DIGEST_CHILD = f"""\
import contextlib, ctypes, importlib, io, json, sys
import numpy
from spinfid.cli import main
for argv in {DIGEST_RUNS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv
umath = importlib.import_module(sys.argv[1])
levels = [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__[target]] or umath.__cpu_baseline__
core = ""
if sys.platform.startswith("linux"):
    with open("/proc/self/maps") as maps:
        paths = sorted({{line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]}})
    for lib in map(ctypes.CDLL, paths):
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_char_p
                core = getter().decode()
print(json.dumps([numpy.__version__, levels[-1], core]))
"""


def write_preset_files(directory, disabled: tuple[str, ...] = (), core_type: str | None = None) -> tuple[str, ...]:
    """Write every DIGEST_RUNS file into ``directory`` from a child Python with numpy's ``disabled``
    dispatch targets off and OpenBLAS forced to ``core_type`` (both as detected when empty); return
    the key the child printed.  An OpenBLAS built with DYNAMIC_ARCH obeys OPENBLAS_CORETYPE."""
    result = run_child(
        [sys.executable, "-c", DIGEST_CHILD, numpy_umath.__name__],
        cwd=directory,
        env={"NPY_DISABLE_CPU_FEATURES": " ".join(disabled) or None, "OPENBLAS_CORETYPE": core_type or None},
    )
    assert result.returncode == 0, result.stderr
    return tuple(json.loads(result.stdout))


def preset_columns(directory) -> dict[tuple[str, str], np.ndarray]:
    """Every column of every CSV a child wrote into ``directory``, keyed by (file stem, column)."""
    return {
        (path.stem, column): values
        for path in sorted(directory.glob("*.csv"))
        for column, values in load_csv(str(path)).columns.items()
    }


@pytest.fixture(scope="module")
def native(tmp_path_factory):
    """The key and directory of one child run at the detected dispatch level and OpenBLAS core."""
    directory = tmp_path_factory.mktemp("native")
    return write_preset_files(directory), directory


class TestSimdLevels:
    """Bytes hold for one SIMD level; across numpy's dispatch levels the values agree to 1e-15."""

    @pytest.mark.parametrize("target", numpy_umath.__cpu_dispatch__)
    def test_presets_agree_below_each_dispatch_target(self, native, tmp_path, target):
        if not numpy_umath.__cpu_features__.get(target):
            pytest.skip(f"this CPU does not run numpy's {target} kernels")
        # Disabling a target and every later one runs at the level below it.  numpy
        # ignores names it does not know, so the printed level shows they are off.
        targets = numpy_umath.__cpu_dispatch__
        index = targets.index(target)
        key = write_preset_files(tmp_path, disabled=tuple(targets[index:]))
        assert key[1] == (targets[index - 1] if index else numpy_umath.__cpu_baseline__[-1])
        reference, lowered = preset_columns(native[1]), preset_columns(tmp_path)
        assert lowered.keys() == reference.keys()
        for column, values in reference.items():
            np.testing.assert_allclose(lowered[column], values, rtol=0.0, atol=1e-15, err_msg=str(column))


# Each forced core type, with the numpy CPU feature its kernels need.
BLAS_CORE_TYPES = {"Haswell": "AVX2", "SandyBridge": "AVX", "Prescott": "SSE3"}


class TestBlasKernels:
    """The exchange presets' D(t) goes through LAPACK eigh and BLAS products, so the kernel set moves
    their last bits; across OpenBLAS core types every column agrees to 1e-14."""

    @pytest.fixture(scope="class")
    def forced(self, tmp_path_factory):
        """The printed key and the directory of a child run under each core type this CPU can run."""
        runs = {}
        for core_type, feature in BLAS_CORE_TYPES.items():
            if numpy_umath.__cpu_features__.get(feature):
                directory = tmp_path_factory.mktemp(core_type)
                runs[core_type] = write_preset_files(directory, core_type=core_type), directory
        return runs

    def test_each_core_type_takes_effect(self, native, forced):
        if not native[0][2]:
            pytest.skip("numpy did not load OpenBLAS")
        cores = [key[2] for key, _ in forced.values()]
        assert len(set(cores)) == len(cores), cores

    @pytest.mark.parametrize("core_type", BLAS_CORE_TYPES)
    def test_data_columns_agree_across_core_types(self, native, forced, core_type):
        if core_type not in forced:
            pytest.skip(f"this CPU lacks {BLAS_CORE_TYPES[core_type]}, which {core_type} kernels need")
        reference, columns = preset_columns(native[1]), preset_columns(forced[core_type][1])
        assert columns.keys() == reference.keys()
        for column, values in reference.items():
            np.testing.assert_allclose(columns[column], values, rtol=0.0, atol=1e-14, err_msg=f"{core_type} {column}")


# sha256 of every file DIGEST_CHILD writes, by key.  A change that moves these
# bytes on purpose updates this table in the same commit and states the old
# and new digests.
PRESET_DIGESTS = {
    ("2.4.6", "AVX512_SPR", "SkylakeX"): {
        "fig1.csv": "5cde2cf3e376d53760f536179704b642122e7176c06f714d6c03d8d52f1569a0",
        "fig2-pps-x10.csv": "2dc2986da43710ab3d5627c87a9b932d4e485fa592bdc17b3bb3c8e78be9380c",
        "fig2-pps.csv": "d38713041bc9aaea607f94f6f9d7feb5f925221d86b953835c7306c1d5a2228d",
        "fig2-thermal.csv": "68f45b438164f1ca2b305ff49851157454e4a41e073ac7503ddbaa0f931e53bc",
        "fig3.csv": "b28631f17aca175a94a181192e34b1f06d84e29e76e34981a676e040f679847f",
        "fig4a_m1.csv": "3207d5045087cb76f55d4cf4f83b4922b055e58ea56e989f541ca0d1308ba987",
        "fig4a_m2p5.csv": "b7c195fe7e3ea8fdf7309ea02a1b68f6ff4d4cc6cb4331d63a69b18b3064ff57",
        "fig4a_m5.csv": "02d5fb1b64fe964d414f638b5a3f659b834c8d3538e371a031de2b392192e2af",
        "fig4b.csv": "1eec2e0de6e883db3a7728cc67defba085159d02ed73cd939eb53b5676644076",
        "sweep_m.csv": "f50f225eae1c09a588510d86505869b3d596620c280990d905c9f185a601711d",
        "sweep_width.csv": "8ec31c681cdd5e95067a95a9853a7dccb09ba9a5590b0d7171bdc9681e0320af",
    },
    # NPY_DISABLE_CPU_FEATURES=AVX512_SPR: the AVX512_ICL level, native on CPUs without AVX512_SPR.
    ("2.4.6", "AVX512_ICL", "SkylakeX"): {
        "fig1.csv": "5cde2cf3e376d53760f536179704b642122e7176c06f714d6c03d8d52f1569a0",
        "fig2-pps-x10.csv": "2dc2986da43710ab3d5627c87a9b932d4e485fa592bdc17b3bb3c8e78be9380c",
        "fig2-pps.csv": "d38713041bc9aaea607f94f6f9d7feb5f925221d86b953835c7306c1d5a2228d",
        "fig2-thermal.csv": "68f45b438164f1ca2b305ff49851157454e4a41e073ac7503ddbaa0f931e53bc",
        "fig3.csv": "b28631f17aca175a94a181192e34b1f06d84e29e76e34981a676e040f679847f",
        "fig4a_m1.csv": "3207d5045087cb76f55d4cf4f83b4922b055e58ea56e989f541ca0d1308ba987",
        "fig4a_m2p5.csv": "b7c195fe7e3ea8fdf7309ea02a1b68f6ff4d4cc6cb4331d63a69b18b3064ff57",
        "fig4a_m5.csv": "02d5fb1b64fe964d414f638b5a3f659b834c8d3538e371a031de2b392192e2af",
        "fig4b.csv": "1eec2e0de6e883db3a7728cc67defba085159d02ed73cd939eb53b5676644076",
        "sweep_m.csv": "f50f225eae1c09a588510d86505869b3d596620c280990d905c9f185a601711d",
        "sweep_width.csv": "8ec31c681cdd5e95067a95a9853a7dccb09ba9a5590b0d7171bdc9681e0320af",
    },
    # Every dispatch target off and OPENBLAS_CORETYPE=Prescott, whose kernel set OpenBLAS names Katmai.
    ("2.4.6", "X86_V2", "Katmai"): {
        "fig1.csv": "17e6c0d15d76ca0271654ba8e4d1ee027c32cf25e278290b996248efaa6da0bd",
        "fig2-pps-x10.csv": "2e9d91a60b5440fbda60ae6e4c0bb29fd6704d27459ada9aaf50073b3ed17d42",
        "fig2-pps.csv": "7210c8bb337e51041711f7b550bb29c9db26772465c3547d068085bee3632733",
        "fig2-thermal.csv": "af27945459b4e2da5b5b0f1f1ecde990ac323bad72e2725dcc95e49abd6430f2",
        "fig3.csv": "629966427aaa9165bbe0583cee8e59e8253105d9a14f1e0bcbd20e9e433c1170",
        "fig4a_m1.csv": "d8c7695e8516ea87c1c5e732d50c97b9f3b0c56161c56b5b0e899cb904440634",
        "fig4a_m2p5.csv": "c413dee115d55268b6493bdefe0606a7fa74dba477d8d14b3693a7fe97ab9a9b",
        "fig4a_m5.csv": "d45e8b214ba3af24c6f6c7f5d013babec5f0958755492855b2b6093ce85604f6",
        "fig4b.csv": "7c1270cbfea88db7b5afe2d55d20c861beaea5b0177cb55ef890a6c59bac7403",
        "sweep_m.csv": "9d2c34e0018bbe1bc2af7834539c379be282f1ecda8385d35c8ce80cabf66a7c",
        "sweep_width.csv": "a178666f86a8569a55f0a92fef6e19050f0ae5022605f0ae47022f75b4890754",
    },
}


class TestPresetDigests:
    """Every preset file at 2000 draws and two sweep tables keep their committed bytes."""

    @pytest.mark.parametrize("portable", [False, True], ids=["native", "x86-v2-prescott"])
    def test_files_match_the_committed_digests(self, native, tmp_path, portable):
        if portable and not numpy_umath.__cpu_features__.get("SSE3"):
            pytest.skip("this CPU lacks SSE3, which Prescott kernels need")
        key, directory = native
        if portable:
            key, directory = write_preset_files(tmp_path, tuple(numpy_umath.__cpu_dispatch__), "Prescott"), tmp_path
        if key not in PRESET_DIGESTS:
            pytest.skip(f"no committed digests for numpy {key[0]} at {key[1]} with OpenBLAS core {key[2]!r}")
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(directory.glob("*.csv"))}
        assert digests == PRESET_DIGESTS[key]
