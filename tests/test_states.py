"""Initial-state builders: thermal and pseudo-pure states, selective pulses."""

from __future__ import annotations

import numpy as np
import pytest

from spinfid import (
    PulseSpec,
    SpinSystemSpec,
    apply_pulse,
    embed,
    parse_label,
    pauli,
    pps_state,
    thermal_state,
)


class TestParseLabel:
    def test_valid_label(self):
        # returns the computational-basis index with site 0 as the high bit
        assert parse_label("101", 3) == 0b101
        assert parse_label("000", 3) == 0
        assert parse_label("001", 3) == 1

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            parse_label("10", 3)

    def test_non_binary_characters(self):
        with pytest.raises(ValueError):
            parse_label("1a1", 3)


class TestThermalState:
    def test_zero_polarization_is_maximally_mixed(self):
        rho = thermal_state(SpinSystemSpec(polarization=0.0))
        assert np.allclose(rho.matrix, np.eye(8) / 8.0)

    def test_single_spin_pure_limit(self):
        spec = SpinSystemSpec(n_spins=1, delta=(0.0,), j=(), polarization=-1.0)
        rho = thermal_state(spec)
        expected = np.zeros((2, 2), dtype=complex)
        expected[1, 1] = 1.0  # fully polarized against +z
        assert np.allclose(rho.matrix, expected)

    def test_three_spin_z_expectations(self):
        p = -0.8
        rho = thermal_state(SpinSystemSpec(polarization=p))
        for site in range(3):
            assert rho.expect(embed(pauli("z"), site, 3)) == pytest.approx(p, abs=1e-12)

    def test_is_identity_plus_z_terms(self):
        p = 0.3
        rho = thermal_state(SpinSystemSpec(polarization=p))
        built = np.eye(8) / 8.0
        for site in range(3):
            built = built + (p / 8.0) * embed(pauli("z"), site, 3)
        assert np.allclose(rho.matrix, built)

    def test_out_of_range_polarization(self):
        with pytest.raises(ValueError):
            thermal_state(SpinSystemSpec(polarization=1.5))
        # NaN fails every comparison, so the bound is written so that NaN fails it.
        with pytest.raises(ValueError, match="polarization"):
            thermal_state(SpinSystemSpec(polarization=float("nan")))


class TestPseudoPureState:
    def test_full_polarization_is_pure(self):
        rho = pps_state(SpinSystemSpec(polarization=1.0), "101")
        ket = np.zeros(8)
        ket[0b101] = 1.0
        assert np.allclose(rho.matrix, np.outer(ket, ket))

    def test_partial_polarization_spectrum(self):
        # identity background (1-p)/8 on seven levels plus one lifted level
        rho = pps_state(SpinSystemSpec(polarization=0.5), "101")
        eigenvalues = np.sort(np.linalg.eigvalsh(rho.matrix))
        assert np.allclose(eigenvalues[:7], 0.0625, atol=1e-12)
        assert eigenvalues[7] == pytest.approx(0.5625, abs=1e-12)

    def test_label_bit_convention(self):
        # bit '0' marks the +1 eigenstate of the site's z operator
        rho = pps_state(SpinSystemSpec(polarization=1.0), "011")
        assert rho.expect(embed(pauli("z"), 0, 3)) == pytest.approx(1.0)
        assert rho.expect(embed(pauli("z"), 1, 3)) == pytest.approx(-1.0)
        assert rho.expect(embed(pauli("z"), 2, 3)) == pytest.approx(-1.0)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            pps_state(SpinSystemSpec(polarization=1.0), "10")

    def test_polarization_must_be_positive(self):
        with pytest.raises(ValueError):
            pps_state(SpinSystemSpec(polarization=0.0), "101")
        with pytest.raises(ValueError):
            pps_state(SpinSystemSpec(polarization=-0.5), "101")
        with pytest.raises(ValueError):
            pps_state(SpinSystemSpec(polarization=1.0 + 1e-9), "101")


class TestApplyPulse:
    def test_quarter_turn_brings_z_to_x(self):
        spec = SpinSystemSpec(polarization=-1.0)
        rho = apply_pulse(thermal_state(spec), PulseSpec(target=2))
        # spin 2 magnetization rotates from z onto x; the others stay on z
        assert rho.expect(embed(pauli("x"), 2, 3)) == pytest.approx(-1.0, abs=1e-12)
        assert rho.expect(embed(pauli("z"), 2, 3)) == pytest.approx(0.0, abs=1e-12)
        assert rho.expect(embed(pauli("z"), 0, 3)) == pytest.approx(-1.0, abs=1e-12)
        assert rho.expect(embed(pauli("z"), 1, 3)) == pytest.approx(-1.0, abs=1e-12)

    def test_pulse_preserves_spectrum(self):
        rho = pps_state(SpinSystemSpec(polarization=0.7), "101")
        rotated = apply_pulse(rho, PulseSpec(target=1, axis="x", angle=0.3))
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(rho.matrix)),
            np.sort(np.linalg.eigvalsh(rotated.matrix)),
            atol=1e-12,
        )

    def test_full_turn_is_identity(self):
        rho = pps_state(SpinSystemSpec(polarization=1.0), "101")
        back = apply_pulse(rho, PulseSpec(target=0, axis="y", angle=4.0 * np.pi))
        assert np.allclose(back.matrix, rho.matrix, atol=1e-12)

    def test_target_out_of_range(self):
        rho = pps_state(SpinSystemSpec(polarization=1.0), "101")
        with pytest.raises(ValueError):
            apply_pulse(rho, PulseSpec(target=3))

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            PulseSpec(target=0, axis="w")

    @pytest.mark.parametrize("angle", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_angle_rejected(self, angle):
        with pytest.raises(ValueError, match="pulse angle must be finite"):
            PulseSpec(target=0, angle=angle)

    def test_default_pulse_is_quarter_turn_about_y(self):
        pulse = PulseSpec(target=2)
        assert pulse.axis == "y"
        assert pulse.angle == pytest.approx(np.pi / 2.0)
