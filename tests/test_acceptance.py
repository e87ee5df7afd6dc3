"""End-to-end acceptance battery.

Each test checks one headline behavior of the package at a stated tolerance
and records a one-line verdict that the terminal summary prints after the
run.  Two of the checks (5 and 8) encode an idealized first-order picture of
the exchange-coupled readout — strictly monotone, origin-linear deviation
growth and small-coupling beat frequencies — that the exact dynamics
measurably depart from at the largest magnification probed, where the
first-order mixing weights total 0.22 and the expansion no longer applies.
Those two tests are kept at their stated tolerances and fail with diagnostic
detail rather than being loosened to match the exact dynamics.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from conftest import ACCEPTANCE_REPORT, run_cli

from spinfid import (
    NoiseModel,
    ObservableSpec,
    PulseSpec,
    SpinSystemSpec,
    TimeGrid,
    apply_pulse,
    evolve_fid,
    pps_state,
    thermal_state,
)
from spinfid.analytic import fid_perturbative, fid_thermal_single
from spinfid.experiments import preset_config, run_experiment, sweep_residuals

TWO_PI = 2.0 * np.pi
GRID = TimeGrid()


def record(number: int, title: str, passed: bool, detail: str) -> None:
    ACCEPTANCE_REPORT.append((number, title, passed, detail))


def pulsed(state_fn, spec, **kwargs):
    return apply_pulse(state_fn(spec, **kwargs), PulseSpec(target=2))


def first_local_min_time(values: np.ndarray, t: np.ndarray) -> float:
    k = 1
    while k + 1 < values.size and not (
        values[k] <= values[k - 1] and values[k] <= values[k + 1]
    ):
        k += 1
    return float(t[k])


def mean_cos_on_grid(draws: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Mean over the draws of cos(eta t_k) on a uniform grid from t = 0, by z_k = z_{k-1} exp(i eta dt)."""
    step = np.exp(1j * draws * grid.dt)
    z = np.ones_like(step)
    mean = np.empty(grid.n_points)
    mean[0] = 1.0
    for k in range(1, grid.n_points):
        z *= step
        mean[k] = z.real.mean()
    return mean


def test_1_noise_dephasing_matches_closed_forms():
    """MC dephasing factor agrees with each model's closed form at 1e5 draws."""
    t = GRID.points
    started = time.perf_counter()
    worst = {}
    for kind, tol in (("lorentzian", 5e-3), ("white", 4e-3), ("gaussian", 4e-3)):
        model = NoiseModel(kind, 28.0)
        draws = model.sample_block(101, 0, 100_000)
        mc = mean_cos_on_grid(draws, GRID)
        # The recurrence against the direct cosine table on the first 2000 draws.
        anchor = np.mean(np.cos(np.outer(draws[:2000], t)), axis=0)
        assert np.max(np.abs(mean_cos_on_grid(draws[:2000], GRID) - anchor)) <= 1e-12
        worst[kind] = (float(np.max(np.abs(mc - model.avg_cos(t)))), tol)
    elapsed = time.perf_counter() - started
    in_tol = all(err < tol for err, tol in worst.values())
    ok = in_tol and elapsed < 5.0
    detail = (
        ", ".join(f"{kind} {err:.2e} (tol {tol:.0e})" for kind, (err, tol) in worst.items())
        + f"; {elapsed:.1f} s (budget 5 s)"
    )
    record(1, "noise dephasing factors match closed forms", ok, detail)
    for kind, (err, tol) in worst.items():
        assert err < tol, f"{kind}: MC mean cos deviates from closed form by {err:.2e} (tol {tol:.0e})"
    assert elapsed < 5.0, f"noise comparison took {elapsed:.1f} s, budget 5 s"


def test_2_engine_matches_exact_solution_per_draw():
    """Engine trace equals the diagonal model's closed form for each fixed draw."""
    spec = SpinSystemSpec()  # thermal-sign polarization, standard shifts/couplings
    model = NoiseModel("lorentzian", 28.0)
    rho = pulsed(thermal_state, spec)
    t = GRID.points
    started = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        trace = evolve_fid(spec, rho, model, GRID, n_realizations=1, seed=seed)
        mx, my, _ = fid_thermal_single(spec, model.sample(seed, 0), t)
        worst = max(
            worst,
            float(np.max(np.abs(trace.mx - mx))),
            float(np.max(np.abs(trace.my - my))),
        )
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 1.0
    record(
        2,
        "engine reproduces the exact diagonal-model solution per draw",
        ok,
        f"max |engine - closed form| = {worst:.2e} over 100 draws (tol 1e-10); "
        f"{elapsed:.2f} s (budget 1 s)",
    )
    assert worst < 1e-10, f"per-draw deviation {worst:.2e} exceeds 1e-10"
    assert elapsed < 1.0, f"100 single-draw runs took {elapsed:.2f} s, budget 1 s"


def test_3_pps_modulus_coupling_invariant_thermal_not():
    """Tenfold couplings leave the pseudo-pure modulus unchanged but reshape
    the thermal modulus, moving its first zero tenfold earlier."""
    model = NoiseModel("lorentzian", 28.0)
    pps_traces, thermal_traces = {}, {}
    for m in (1.0, 10.0):
        spec = SpinSystemSpec(polarization=1.0, magnification=m)
        pps_traces[m] = evolve_fid(
            spec, pulsed(pps_state, spec), model, GRID, n_realizations=10_000, seed=101
        )
        spec_th = SpinSystemSpec(polarization=-1.0, magnification=m)
        thermal_traces[m] = evolve_fid(
            spec_th, pulsed(thermal_state, spec_th), model, GRID,
            n_realizations=10_000, seed=101,
        )
    pps_gap = float(np.max(np.abs(pps_traces[1.0].mperp - pps_traces[10.0].mperp)))
    thermal_gap = float(np.max(np.abs(thermal_traces[1.0].mperp - thermal_traces[10.0].mperp)))
    zero_1x = first_local_min_time(thermal_traces[1.0].mperp, GRID.points)
    zero_10x = first_local_min_time(thermal_traces[10.0].mperp, GRID.points)
    # the first modulus zeros sit at 1/(2 J13) and 1/(20 J13); allow one grid step
    ok = (
        pps_gap < 1e-6
        and thermal_gap > 1e-2
        and abs(zero_1x - 7.25e-3) <= GRID.dt
        and abs(zero_10x - 0.725e-3) <= GRID.dt
    )
    record(
        3,
        "pseudo-pure modulus is coupling-invariant, thermal modulus is not",
        ok,
        f"pps max gap {pps_gap:.2e} (tol 1e-6); thermal max gap {thermal_gap:.2e}; "
        f"thermal first zeros {zero_1x * 1e3:.2f} / {zero_10x * 1e3:.3f} ms "
        f"(expected near 7.25 / 0.725 ms)",
    )
    assert pps_gap < 1e-6, f"pseudo-pure modulus changed by {pps_gap:.2e} under 10x couplings"
    assert thermal_gap > 1e-2, "thermal modulus barely changed under 10x couplings"
    assert abs(zero_1x - 7.25e-3) <= GRID.dt, f"1x first zero at {zero_1x * 1e3:.3f} ms"
    assert abs(zero_10x - 0.725e-3) <= GRID.dt, f"10x first zero at {zero_10x * 1e3:.3f} ms"


def test_4_pps_recovers_isolated_spin_decay():
    """Normalized pseudo-pure modulus reproduces pure exponential dephasing."""
    spec = SpinSystemSpec(polarization=1.0)
    model = NoiseModel("lorentzian", 28.0)
    started = time.perf_counter()
    trace = evolve_fid(
        spec, pulsed(pps_state, spec), model, GRID, n_realizations=100_000, seed=101
    )
    elapsed = time.perf_counter() - started
    normalized = trace.mperp / trace.mperp[0]
    ideal = np.exp(-TWO_PI * 28.0 * GRID.points)
    err = float(np.max(np.abs(normalized - ideal)))
    ok = err < 5e-3 and elapsed < 60.0
    record(
        4,
        "pseudo-pure decay recovers the isolated-spin profile",
        ok,
        f"max |normalized - exp| = {err:.2e} (tol 5e-3) at 1e5 draws; "
        f"{elapsed:.1f} s (budget 60 s)",
    )
    assert err < 5e-3, f"normalized modulus deviates from pure decay by {err:.2e}"
    assert elapsed < 60.0, f"run took {elapsed:.1f} s, budget 60 s"


def test_5_readout_deviation_monotone_and_linear_in_magnification():
    """Integrated deviation R(m) of the exchange-coupled readout, m = 1..5:
    asserted strictly monotone with an origin-linear fit within 20% per point.

    The exact dynamics satisfy neither clause: the first-order mixing weights
    reach 0.22 at m = 5, the beat modulation saturates, and R turns over
    between m = 4 and m = 5 (the exact values are reproduced independently by
    a brute-force density-matrix evolution, so this is physics, not sampling
    error — the Monte-Carlo values are converged to three digits).
    """
    started = time.perf_counter()
    table = sweep_residuals(
        preset_config("fig4b"), np.array([1.0, 2.0, 3.0, 4.0, 5.0]), param="m"
    )
    elapsed = time.perf_counter() - started
    m, r = table["m"], table["r_numeric"]
    monotone = bool(np.all(np.diff(r) > 0.0))
    slope = float(np.sum(m * r) / np.sum(m * m))
    rel_resid = np.abs(r - slope * m) / np.abs(r)
    linear = bool(np.all(rel_resid < 0.20))
    ok = monotone and linear and elapsed < 600.0
    record(
        5,
        "readout deviation grows monotonically and linearly with magnification",
        ok,
        f"R = {np.array2string(r, precision=4)}; monotone: {monotone}; "
        f"origin-fit residuals {np.array2string(rel_resid, precision=2)} (tol 0.20); "
        f"{elapsed:.0f} s (budget 600 s)",
    )
    assert monotone, (
        f"R(m) is not strictly monotone: R = {np.array2string(r, precision=4)}; "
        "the exact exchange dynamics saturate and turn over between m = 4 and m = 5"
    )
    assert linear, (
        f"origin-linear fit misses by {np.array2string(rel_resid, precision=2)} "
        "relative (tol 0.20 per point)"
    )
    assert elapsed < 600.0, f"sweep took {elapsed:.0f} s, budget 600 s"


def test_6_first_order_model_deviates_quadratically():
    """Gap between the first-order closed form and the exact noise-free
    evolution scales as the square of the magnification.

    The quadratic-residual property of a first-order theory is a small-phase
    statement: it holds while the neglected second-order phase stays well
    under a radian.  The comparison therefore uses the first 6 ms of the
    grid; over the full 24 ms the accumulated phase error at m = 1 already
    saturates the gap and the scaling crosses over to linear.
    """
    window = TimeGrid(t_max=0.006, n_points=121)
    quiet = NoiseModel("white", 0.0)
    deviations = {}
    for m in (0.5, 1.0):
        spec = SpinSystemSpec(polarization=1.0, magnification=m)
        trace = evolve_fid(
            spec, pulsed(pps_state, spec), quiet, window,
            n_realizations=1, seed=101,
            hamiltonian="heisenberg", observable=ObservableSpec.total(),
        )
        _, _, pert = fid_perturbative(spec, quiet, window.points)
        deviations[m] = float(np.max(np.abs(trace.mperp - pert)))
    ratio = deviations[1.0] / deviations[0.5]
    ok = 3.0 <= ratio <= 5.0
    record(
        6,
        "first-order model deviates quadratically in the magnification",
        ok,
        f"max gap {deviations[0.5]:.2e} at m=0.5, {deviations[1.0]:.2e} at m=1; "
        f"ratio {ratio:.2f} (expected in [3, 5])",
    )
    assert 3.0 <= ratio <= 5.0, (
        f"deviation ratio {ratio:.2f} outside [3, 5]: "
        f"gaps {deviations[0.5]:.3e} -> {deviations[1.0]:.3e}"
    )


def test_7_worker_count_never_changes_emitted_rows(tmp_path):
    """The preset runner emits byte-identical CSV data rows for any worker split."""
    outputs = []
    for workers in (1, 3):
        out = tmp_path / f"workers{workers}.csv"
        result = run_cli("preset", "fig2-pps", "--output", str(out), "--workers", str(workers), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    rows = [body.split(b"#", 1)[0] for body in outputs]
    ok = rows[0] == rows[1]
    n_rows = len(rows[0].splitlines()) - 1
    record(
        7,
        "worker count never changes emitted CSV rows",
        ok,
        f"1 vs 3 workers: {n_rows} data rows byte-identical: {ok}",
    )
    assert ok, "CSV data rows differ between worker counts"
    assert outputs[0] == outputs[1], "full CSV files differ between worker counts"


def test_8_difference_spectrum_peaks_at_small_coupling_beats():
    """Power spectrum of (modulus at m=5) minus (m=0 baseline), asserted to
    peak within one bin of the small-coupling beat frequencies 2420/1027 Hz.

    Those beat values are the m -> 0 limits.  At m = 5 the exact level
    spacings are shifted by the coupling (the strongest beats move to about
    1462 and 1472 Hz and blend into a single 1455 Hz maximum on this grid),
    so the dominant structure sits more than ten bins from both stated
    frequencies and the check fails against the exact dynamics.
    """
    base = preset_config("fig4a")
    traces = {}
    for m in (5.0, 0.0):
        config = replace(base, system=replace(base.system, magnification=m))
        traces[m] = run_experiment(config).trace
    diff = traces[5.0].mperp - traces[0.0].mperp
    power = np.abs(np.fft.rfft(diff)) ** 2
    freqs = np.fft.rfftfreq(diff.size, d=GRID.dt)
    bin_width = float(freqs[1] - freqs[0])
    maxima = [
        k
        for k in range(1, power.size - 1)
        if power[k] >= power[k - 1] and power[k] >= power[k + 1]
    ]
    maxima.sort(key=lambda k: power[k], reverse=True)
    top = maxima[:2]
    hits = [
        float(freqs[k])
        for k in top
        if any(abs(freqs[k] - target) <= bin_width for target in (2420.0, 1027.0))
    ]
    ok = bool(hits)
    peak_text = ", ".join(f"{freqs[k]:.1f} Hz" for k in top)
    record(
        8,
        "difference-signal spectrum peaks at the small-coupling beat frequencies",
        ok,
        f"top peaks {peak_text}; targets 2420/1027 Hz with bin width {bin_width:.2f} Hz; "
        f"within one bin: {hits or 'none'}",
    )
    assert ok, (
        f"dominant peaks at {peak_text} are not within {bin_width:.2f} Hz of "
        "2420 or 1027 Hz; at m=5 the exact beats shift to ~1455 Hz on this grid"
    )
