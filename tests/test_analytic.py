"""Closed-form signal models and the first-order branch expansion."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfid import (
    NoiseModel,
    ObservableSpec,
    PulseSpec,
    SpinSystemSpec,
    TimeGrid,
    apply_pulse,
    envelope_factor,
    fid_perturbative,
    fid_pps,
    fid_single,
    fid_thermal,
    perturbation_coeffs,
    pps_state,
    residual_ratio_analytic,
    trapezoid_weights,
    zero_noise_signal,
)

TWO_PI = 2.0 * np.pi
GRID = TimeGrid().points


def phase_slope_hz(mx: np.ndarray, my: np.ndarray, t: np.ndarray) -> float:
    """Least-squares frequency of the unwrapped signal phase, in Hz."""
    phase = np.unwrap(np.angle(mx + 1j * my))
    return float(np.polyfit(t, phase, 1)[0] / TWO_PI)


class TestFidSingle:
    def test_initial_amplitude_is_half_polarization(self):
        for p in (-1.0, -0.5, 0.8):
            _, _, mperp = fid_single(NoiseModel("lorentzian", 28.0), p, np.array([0.0]))
            assert mperp[0] == pytest.approx(abs(p) / 2.0, abs=1e-14)

    def test_lorentzian_anchor_at_ten_milliseconds(self):
        _, _, mperp = fid_single(NoiseModel("lorentzian", 28.0), -1.0, np.array([0.01]))
        assert mperp[0] == pytest.approx(0.5 * np.exp(-TWO_PI * 28.0 * 0.01), rel=1e-12)
        assert mperp[0] == pytest.approx(0.0862, abs=5e-4)

    def test_symmetric_noise_keeps_my_zero(self):
        _, my, _ = fid_single(NoiseModel("gaussian", 28.0), -1.0, GRID)
        assert np.all(my == 0.0)

    def test_gaussian_profile_in_time(self):
        _, _, mperp = fid_single(NoiseModel("gaussian", 28.0), 1.0, GRID)
        sigma = TWO_PI * 28.0
        assert np.allclose(mperp, 0.5 * np.exp(-0.5 * (sigma * GRID) ** 2), atol=1e-14)


class TestFidThermal:
    def test_reduces_to_single_spin_without_coupling(self):
        spec = SpinSystemSpec(j=(0.0, 0.0, 0.0))
        model = NoiseModel("lorentzian", 28.0)
        mx_t, my_t, mp_t = fid_thermal(spec, model, GRID)
        mx_s, my_s, mp_s = fid_single(model, spec.polarization, GRID)
        # with J = 0 the cosine factors collapse to 1 and only the observed
        # spin's offset phase differs from fid_single; the moduli agree to the
        # ulp-level error of carrying that phase through sin/cos
        assert np.max(np.abs(mp_t - mp_s)) < 5e-16

    def test_first_modulation_zero(self):
        # |M(t)| first vanishes when the faster cosine reaches a quarter
        # period: t = 1/(2*69) s for the stock couplings
        spec = SpinSystemSpec()
        t_zero = 1.0 / (2.0 * 69.0)
        _, _, mperp = fid_thermal(spec, NoiseModel("white", 0.0), np.array([t_zero]))
        assert mperp[0] == pytest.approx(0.0, abs=1e-12)
        assert t_zero == pytest.approx(7.246e-3, abs=1e-5)

    def test_magnification_compresses_modulation(self):
        # ten-fold coupling moves the first zero from 7.25 ms to 0.725 ms
        spec = SpinSystemSpec(magnification=10.0)
        _, _, mperp = fid_thermal(spec, NoiseModel("white", 0.0), np.array([1.0 / (20.0 * 69.0)]))
        assert mperp[0] == pytest.approx(0.0, abs=1e-12)

    def test_modulus_is_coupling_cosines_times_decay(self):
        spec = SpinSystemSpec()
        model = NoiseModel("lorentzian", 28.0)
        _, _, mperp = fid_thermal(spec, model, GRID)
        expected = 0.5 * np.abs(
            np.cos(TWO_PI * 69.0 * GRID / 2.0) * np.cos(TWO_PI * 50.0 * GRID / 2.0)
        ) * np.exp(-TWO_PI * 28.0 * GRID)
        assert np.allclose(mperp, expected, atol=1e-12)

    def test_observed_site_selects_partner_couplings(self):
        spec = SpinSystemSpec()
        _, _, mp0 = fid_thermal(spec, NoiseModel("white", 0.0), GRID, observed=0)
        expected = 0.5 * np.abs(
            np.cos(TWO_PI * -130.0 * GRID / 2.0) * np.cos(TWO_PI * 69.0 * GRID / 2.0)
        )
        assert np.allclose(mp0, expected, atol=1e-12)

    def test_phase_tracks_observed_offset(self):
        spec = SpinSystemSpec()
        mx, my, _ = fid_thermal(spec, NoiseModel("white", 0.0), GRID[:48])
        assert phase_slope_hz(mx, my, GRID[:48]) == pytest.approx(1027.0, abs=2.0)


class TestFidPps:
    def test_initial_amplitude(self):
        spec = SpinSystemSpec(polarization=1.0)
        _, _, mperp = fid_pps(spec, NoiseModel("lorentzian", 28.0), np.array([0.0]))
        assert mperp[0] == pytest.approx(0.5, abs=1e-14)

    def test_modulus_independent_of_couplings(self):
        model = NoiseModel("lorentzian", 28.0)
        _, _, base = fid_pps(SpinSystemSpec(polarization=1.0), model, GRID)
        _, _, mag = fid_pps(SpinSystemSpec(polarization=1.0, magnification=10.0), model, GRID)
        _, _, slow = fid_pps(
            SpinSystemSpec(polarization=1.0, delta=(50.0, 3.0, -900.0)), model, GRID
        )
        assert np.max(np.abs(base - mag)) < 5e-16
        assert np.max(np.abs(base - slow)) < 5e-16

    def test_modulus_equals_pure_decay(self):
        spec = SpinSystemSpec(polarization=1.0)
        _, _, mperp = fid_pps(spec, NoiseModel("lorentzian", 28.0), GRID)
        assert np.allclose(mperp, 0.5 * np.exp(-TWO_PI * 28.0 * GRID), atol=1e-14)

    def test_precession_frequency_for_stock_label(self):
        # offset 1027 Hz shifted by the two z partners: -69/2 + 50/2 -> 1017.5 Hz
        spec = SpinSystemSpec(polarization=1.0)
        mx, my, _ = fid_pps(spec, NoiseModel("white", 0.0), GRID)
        assert phase_slope_hz(mx, my, GRID) == pytest.approx(1017.5, abs=0.5)

    def test_partner_sign_follows_label_bits(self):
        # flipping a partner bit flips that partner's coupling contribution
        spec = SpinSystemSpec(polarization=1.0)
        mx, my, _ = fid_pps(spec, NoiseModel("white", 0.0), GRID, label="001")
        assert phase_slope_hz(mx, my, GRID) == pytest.approx(1027.0 + 34.5 + 25.0, abs=0.5)

    def test_label_must_match_register(self):
        with pytest.raises(ValueError):
            fid_pps(SpinSystemSpec(polarization=1.0), NoiseModel("white", 0.0), GRID, label="1011")


class TestPerturbationCoeffs:
    def test_anchor_values_at_unit_magnification(self):
        coeffs = perturbation_coeffs(SpinSystemSpec(polarization=1.0))
        assert coeffs.lambda_1 == pytest.approx(50.0 / 4840.0, rel=1e-12)
        assert coeffs.lambda_2 == pytest.approx(-69.0 / 2054.0, rel=1e-12)

    def test_scaling_with_magnification(self):
        c1 = perturbation_coeffs(SpinSystemSpec(polarization=1.0))
        c4 = perturbation_coeffs(SpinSystemSpec(polarization=1.0, magnification=4.0))
        assert c4.lambda_1 == pytest.approx(4.0 * c1.lambda_1, rel=1e-14)
        assert c4.lambda_2 == pytest.approx(4.0 * c1.lambda_2, rel=1e-14)

    def test_regime_flag(self):
        assert not perturbation_coeffs(SpinSystemSpec(polarization=1.0)).out_of_regime
        big = perturbation_coeffs(SpinSystemSpec(polarization=1.0, magnification=5.0))
        assert big.out_of_regime  # |l1| + |l2| = 0.2196 crosses the 0.2 threshold

    def test_requires_three_spins(self):
        with pytest.raises(ValueError):
            perturbation_coeffs(SpinSystemSpec(n_spins=1, delta=(0.0,), j=()))

    def test_requires_distinct_offsets(self):
        with pytest.raises(ValueError):
            perturbation_coeffs(SpinSystemSpec(delta=(0.0, 1027.0, 1027.0)))


class TestEnvelopeFactor:
    def test_unit_at_zero_magnification(self):
        f = envelope_factor(SpinSystemSpec(polarization=1.0, magnification=0.0), GRID)
        assert np.all(f == 1.0)

    def test_matches_two_cosine_form(self):
        spec = SpinSystemSpec(polarization=1.0, magnification=2.0)
        c = perturbation_coeffs(spec)
        expected = (
            1.0
            - c.lambda_1
            - c.lambda_2
            + c.lambda_1 * np.cos(TWO_PI * 2420.0 * GRID)
            + c.lambda_2 * np.cos(TWO_PI * 1027.0 * GRID)
        )
        assert np.allclose(envelope_factor(spec, GRID), expected, atol=1e-14)

    def test_departure_from_unity_is_linear_in_magnification(self):
        # the mixing weights scale exactly with m and the two beat frequencies
        # do not move, so F - 1 doubles with m up to one ulp of the leading 1
        half = envelope_factor(SpinSystemSpec(polarization=1.0, magnification=0.5), GRID)
        unit = envelope_factor(SpinSystemSpec(polarization=1.0, magnification=1.0), GRID)
        assert np.max(np.abs((unit - 1.0) - 2.0 * (half - 1.0))) < 1e-15


class TestFidPerturbative:
    def test_zero_magnification_recovers_unperturbed_modulus(self):
        spec0 = SpinSystemSpec(polarization=1.0, magnification=0.0)
        model = NoiseModel("lorentzian", 28.0)
        _, _, mp = fid_perturbative(spec0, model, GRID)
        _, _, mp_pps = fid_pps(spec0, model, GRID)
        assert np.allclose(mp, mp_pps, atol=1e-14)

    def test_initial_amplitude(self):
        spec = SpinSystemSpec(polarization=1.0)
        _, _, mp = fid_perturbative(spec, NoiseModel("lorentzian", 28.0), np.array([0.0]))
        assert mp[0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("shift", [250.0, -700.0])
    @pytest.mark.parametrize("m, error", [(1.0, 0.00236), (2.5, 0.01569)])
    def test_common_offset_shift_is_a_global_phase(self, shift, m, error):
        # Shifting every offset by c adds c * sum I_z, which commutes with H and
        # turns the single-quantum readout by exp(i 2 pi c t): the weights and
        # the linearized envelope see only offset gaps, and the modulus, with
        # its error against the exact limit D(t) avg_cos(t), does not move.
        model = NoiseModel("lorentzian", 28.0)
        spec = SpinSystemSpec(polarization=1.0, magnification=m)
        shifted = SpinSystemSpec(polarization=1.0, magnification=m, delta=tuple(d + shift for d in spec.delta))

        def signal(spec):
            mx, my, _ = fid_perturbative(spec, model, GRID)
            return mx + 1j * my

        def error_against_exact_limit(spec):
            initial = apply_pulse(pps_state(spec), PulseSpec(target=2))
            exact = zero_noise_signal(spec, initial, TimeGrid(), observable=ObservableSpec.total(), hamiltonian="heisenberg")
            return float(np.max(np.abs(np.abs(signal(spec)) - np.abs(exact * model.avg_cos(GRID)))))

        turned = signal(spec) * np.exp(1j * TWO_PI * shift * GRID)
        assert np.max(np.abs(signal(shifted) - turned)) <= 1e-14
        assert envelope_factor(shifted, GRID).tobytes() == envelope_factor(spec, GRID).tobytes()
        shifted_error = error_against_exact_limit(shifted)
        assert shifted_error == pytest.approx(error_against_exact_limit(spec), abs=1e-14)
        assert shifted_error == pytest.approx(error, rel=0.01)

    def test_branch_modulus_approaches_envelope_product_quadratically(self):
        # the coherent three-branch modulus and the two-cosine envelope form
        # agree to first order, so their gap shrinks as the square of m while
        # the coupling-shifted beat phase stays small; test deep in that
        # regime on the full grid and at moderate m on a short window
        model = NoiseModel("white", 0.0)

        def gap(m: float, n_points: int) -> float:
            spec = SpinSystemSpec(polarization=1.0, magnification=m)
            _, _, mp = fid_perturbative(spec, model, GRID[:n_points])
            product = 0.5 * envelope_factor(spec, GRID[:n_points])
            return float(np.max(np.abs(mp - product)))

        full_ratio = gap(0.1, len(GRID)) / gap(0.05, len(GRID))
        short_ratio = gap(1.0, 61) / gap(0.5, 61)  # first 3 ms
        assert 3.0 < full_ratio < 5.0
        assert 3.0 < short_ratio < 5.0

    def test_modulus_within_physical_range(self):
        # constructive beats push the envelope above its starting value by at
        # most the total mixing weight moved into the side branches
        for m in (0.5, 1.0, 2.0):
            spec = SpinSystemSpec(polarization=1.0, magnification=m)
            c = perturbation_coeffs(spec)
            ceiling = 0.5 * (1.0 + 2.0 * (abs(c.lambda_1) + abs(c.lambda_2)))
            _, _, mp = fid_perturbative(spec, NoiseModel("lorentzian", 28.0), GRID)
            assert np.all(mp >= 0.0)
            assert np.all(mp <= ceiling + 1e-12)


class TestResidualRatioAnalytic:
    def test_zero_at_zero_magnification(self):
        spec = SpinSystemSpec(polarization=1.0, magnification=0.0)
        value = residual_ratio_analytic(spec, NoiseModel("lorentzian", 28.0), GRID)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_doubling_magnification_doubles_ratio(self):
        model = NoiseModel("lorentzian", 28.0)
        for m in (0.5, 1.0):
            r1 = residual_ratio_analytic(
                SpinSystemSpec(polarization=1.0, magnification=m), model, GRID
            )
            r2 = residual_ratio_analytic(
                SpinSystemSpec(polarization=1.0, magnification=2.0 * m), model, GRID
            )
            assert r2 / r1 == pytest.approx(2.0, rel=0.02)

    def test_monotone_in_magnification(self):
        model = NoiseModel("lorentzian", 28.0)
        values = [
            residual_ratio_analytic(
                SpinSystemSpec(polarization=1.0, magnification=float(m)), model, GRID
            )
            for m in range(1, 6)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    @given(m=st.floats(0.1, 3.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_strictly_positive_in_regime(self, m):
        spec = SpinSystemSpec(polarization=1.0, magnification=m)
        assert residual_ratio_analytic(spec, NoiseModel("lorentzian", 28.0), GRID) > 0.0


class TestTrapezoidWeights:
    def test_endpoint_halving(self):
        # weights carry the grid step, with halved endpoints
        w = trapezoid_weights(np.array([0.0, 1.0, 2.0, 3.0]))
        assert np.allclose(w, [0.5, 1.0, 1.0, 0.5])

    def test_integrates_linear_function_exactly(self):
        t = np.linspace(0.0, 2.0, 41)
        w = trapezoid_weights(t)
        integral = float(np.sum(w * (3.0 * t + 1.0)))
        assert integral == pytest.approx(8.0, rel=1e-12)
