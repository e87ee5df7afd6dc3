"""Hamiltonian builders: structure, anchor matrix elements, and symmetries."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfid import (
    SpinSystemSpec,
    build_effective,
    build_lab,
    build_rotating_heisenberg,
    embed,
    pauli,
)

TWO_PI = 2.0 * np.pi


def random_spec(rng: np.random.Generator) -> SpinSystemSpec:
    return SpinSystemSpec(
        delta=tuple(rng.uniform(-2000, 2000, size=3)),
        j=tuple(rng.uniform(-200, 200, size=3)),
        magnification=float(rng.uniform(0, 10)),
    )


class TestSpinSystemSpec:
    def test_default_parameters(self):
        spec = SpinSystemSpec()
        assert spec.delta == (0.0, -1393.0, 1027.0)
        assert spec.j == (-130.0, 69.0, 50.0)
        assert spec.n_spins == 3 and spec.dim == 8

    def test_pairs_are_lexicographic(self):
        assert SpinSystemSpec().pairs() == [(0, 1, -130.0), (0, 2, 69.0), (1, 2, 50.0)]

    def test_j_coupling_lookup(self):
        spec = SpinSystemSpec()
        assert spec.j_coupling(0, 1) == -130.0
        assert spec.j_coupling(0, 2) == 69.0
        assert spec.j_coupling(1, 2) == 50.0
        assert spec.j_coupling(2, 1) == 50.0  # symmetric lookup

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            SpinSystemSpec(delta=(0.0, 1.0), j=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            SpinSystemSpec(delta=(0.0, 1.0, 2.0), j=(1.0,))

    def test_negative_magnification_rejected(self):
        with pytest.raises(ValueError):
            SpinSystemSpec(magnification=-1.0)

    # 1e308 Hz is finite, but 2*pi*1e308 rad/s is not.
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 1e308])
    @pytest.mark.parametrize("field", ["delta", "j"])
    def test_non_finite_offset_or_coupling_rejected(self, field, value):
        stock = getattr(SpinSystemSpec(), field)
        with pytest.raises(ValueError, match="finite"):
            SpinSystemSpec(**{field: (*stock[:-1], value)})

    def test_coupling_that_overflows_with_its_magnification_rejected(self):
        with pytest.raises(ValueError, match="finite in rad/s"):
            SpinSystemSpec(j=(1e300, 69.0, 50.0), magnification=1e10)

    def test_scale_flag(self):
        assert SpinSystemSpec().scale == TWO_PI
        assert SpinSystemSpec(angular_units=True).scale == 1.0


class TestAnchorValues:
    def test_effective_corner_element(self):
        # <000|H|000> = (sum of offsets)/2 + (sum of couplings)/4, in rad/s:
        # (0 - 1393 + 1027)/2 + (-130 + 69 + 50)/4 = -185.75 Hz
        h = build_effective(SpinSystemSpec())
        assert h[0, 0] == pytest.approx(TWO_PI * -185.75, rel=1e-12)

    def test_lab_frame_corner_matches_effective(self):
        h_lab = build_lab(SpinSystemSpec())
        assert h_lab[0, 0] == pytest.approx(TWO_PI * -185.75, rel=1e-12)

    def test_largest_flip_flop_element(self):
        # strongest exchange element is |J(0,1)|/2 = 65 Hz at unit magnification
        spec = SpinSystemSpec()
        flip_flop = build_rotating_heisenberg(spec) - build_effective(spec)
        assert np.max(np.abs(flip_flop)) == pytest.approx(TWO_PI * 65.0, rel=1e-12)

    def test_angular_units_disable_two_pi(self):
        h_hz = build_effective(SpinSystemSpec(angular_units=True))
        h_rad = build_effective(SpinSystemSpec())
        assert np.allclose(h_rad, TWO_PI * h_hz)


class TestStructure:
    def test_effective_is_diagonal(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            h = build_effective(random_spec(rng), eta_z=float(rng.normal()))
            assert np.count_nonzero(h - np.diag(np.diag(h))) == 0

    def test_flip_flop_part_has_zero_diagonal(self):
        spec = SpinSystemSpec()
        diff = build_rotating_heisenberg(spec) - build_effective(spec)
        assert np.allclose(np.diag(diff), 0.0)

    def test_zero_parameters_give_zero_matrix(self):
        spec = SpinSystemSpec(delta=(0.0, 0.0, 0.0), j=(0.0, 0.0, 0.0))
        assert np.count_nonzero(build_lab(spec)) == 0
        assert np.count_nonzero(build_effective(spec)) == 0
        assert np.count_nonzero(build_rotating_heisenberg(spec)) == 0

    def test_zero_magnification_suppresses_coupling(self):
        spec = SpinSystemSpec(magnification=0.0)
        h = build_rotating_heisenberg(spec)
        h_free = build_effective(SpinSystemSpec(j=(0.0, 0.0, 0.0)))
        assert np.allclose(h, h_free)

    def test_eta_enters_as_uniform_z_field(self):
        spec = SpinSystemSpec()
        eta = 321.5
        shift = build_effective(spec, eta_z=eta) - build_effective(spec)
        z_total = sum(embed(pauli("z"), i, 3) / 2.0 for i in range(3))
        assert np.allclose(shift, eta * z_total)
        shift_r = build_rotating_heisenberg(spec, eta_z=eta) - build_rotating_heisenberg(spec)
        assert np.allclose(shift_r, eta * z_total)

    def test_total_z_commutes_with_heisenberg(self):
        spec = SpinSystemSpec(magnification=5.0)
        h = build_rotating_heisenberg(spec, eta_z=100.0)
        z_total = sum(embed(pauli("z"), i, 3) / 2.0 for i in range(3))
        comm = h @ z_total - z_total @ h
        assert np.max(np.abs(comm)) < 1e-10

    def test_magnification_linearity(self):
        base = build_rotating_heisenberg(SpinSystemSpec(magnification=0.0))
        d2 = build_rotating_heisenberg(SpinSystemSpec(magnification=2.0)) - base
        d8 = build_rotating_heisenberg(SpinSystemSpec(magnification=8.0)) - base
        # roundoff from the cancelled offset diagonal caps the agreement
        assert np.max(np.abs(4.0 * d2 - d8)) < 1e-10

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_builders_are_hermitian(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng)
        eta = float(rng.normal(scale=100.0))
        h_lab = build_lab(spec, eta_z=eta, omega0=float(rng.uniform(0, 1e5)))
        for h in (h_lab, build_effective(spec, eta_z=eta), build_rotating_heisenberg(spec, eta_z=eta)):
            assert np.allclose(h, h.conj().T)

    def test_lab_frame_contains_full_exchange(self):
        # in the lab frame the transverse coupling is always present,
        # so lab and effective agree only on the diagonal
        spec = SpinSystemSpec()
        diff = build_lab(spec) - build_effective(spec)
        assert np.allclose(np.diag(diff), 0.0)
        assert np.max(np.abs(diff)) > 0.0

    def test_omega0_shifts_lab_diagonal(self):
        spec = SpinSystemSpec()
        shift = build_lab(spec, omega0=1e6) - build_lab(spec)
        z_total = sum(embed(pauli("z"), i, 3) / 2.0 for i in range(3))
        assert np.allclose(shift, TWO_PI * 1e6 * z_total)
