"""Pauli algebra, operator embedding, propagators, and density-matrix basics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfid import (
    DensityMatrix,
    Propagator,
    PulseSpec,
    embed,
    expm_hermitian,
    pauli,
)

RNG = np.random.default_rng(7)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


class TestPauliAlgebra:
    def test_squares_are_identity(self):
        for axis in "xyz":
            assert np.allclose(pauli(axis) @ pauli(axis), np.eye(2))

    def test_cyclic_commutators(self):
        sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
        assert np.allclose(sx @ sy - sy @ sx, 2j * sz)
        assert np.allclose(sy @ sz - sz @ sy, 2j * sx)
        assert np.allclose(sz @ sx - sx @ sz, 2j * sy)

    def test_traceless_hermitian(self):
        for axis in "xyz":
            s = pauli(axis)
            assert abs(np.trace(s)) == 0.0
            assert np.array_equal(s, s.conj().T)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            pauli("q")


class TestEmbed:
    def test_shape(self):
        assert embed(pauli("z"), 0, 3).shape == (8, 8)

    def test_site_zero_is_leftmost_factor(self):
        # site 0 occupies the most-significant qubit of the basis index
        full = embed(pauli("z"), 0, 2)
        assert np.allclose(full, np.kron(pauli("z"), np.eye(2)))

    def test_last_site_is_rightmost_factor(self):
        full = embed(pauli("z"), 1, 2)
        assert np.allclose(full, np.kron(np.eye(2), pauli("z")))

    def test_embedded_operators_on_distinct_sites_commute(self):
        a = embed(pauli("x"), 0, 3)
        b = embed(pauli("y"), 2, 3)
        assert np.allclose(a @ b, b @ a)

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            embed(pauli("x"), 3, 3)

    @pytest.mark.parametrize("n_spins", [1, 2, 3, 4])
    def test_matches_kron_reference_byte_for_byte(self, n_spins):
        # Signed zeros included: the broadcast product must multiply exactly as np.kron does.
        ops = [pauli(axis) for axis in "ixyz"] + [
            PulseSpec(target=0, axis=axis, angle=angle).rotation()
            for axis in "xyz"
            for angle in (np.pi / 2, np.pi, -0.7, 2.5)
        ]
        for site in range(n_spins):
            left = np.eye(2**site, dtype=complex)
            right = np.eye(2 ** (n_spins - site - 1), dtype=complex)
            for op in ops:
                got = embed(op, site, n_spins)
                want = np.kron(np.kron(left, op), right)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    @given(site=st.integers(0, 2), axis=st.sampled_from("xyz"))
    @settings(max_examples=20, deadline=None)
    def test_embedding_preserves_hermiticity(self, site, axis):
        full = embed(pauli(axis), site, 3)
        assert np.allclose(full, full.conj().T)


class TestPropagator:
    def test_unitarity(self):
        h = random_hermitian(8, RNG)
        u = expm_hermitian(h, 0.37)
        assert u.unitarity_defect() < 1e-12

    def test_matches_series_expansion(self):
        h = random_hermitian(4, RNG)
        dt = 1e-6
        u = expm_hermitian(h, dt)
        probs = np.array([0.4, 0.3, 0.2, 0.1])
        rho = DensityMatrix(np.diag(probs).astype(complex))
        evolved = u.evolve(rho).matrix
        # first-order comparison: U rho U† = rho - i dt [H, rho] + O(dt^2)
        expected = rho.matrix - 1j * dt * (h @ rho.matrix - rho.matrix @ h)
        assert np.max(np.abs(evolved - expected)) < 1e-10

    def test_rotation_sense_of_single_spin_coherence(self):
        # H = w * I_z must advance the +1-quantum coherence phase as e^{+iwt}:
        # <I_x> + i <I_y> proportional to e^{i w t} for an initial +x state.
        w = 2.0 * np.pi * 100.0
        h = w * 0.5 * pauli("z")
        plus = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
        t = 1.3e-3
        rho_t = expm_hermitian(h, t).evolve(plus)
        s = rho_t.expect(0.5 * pauli("x")) + 1j * rho_t.expect(0.5 * pauli("y"))
        assert np.abs(s - 0.5 * np.exp(1j * w * t)) < 1e-12

    def test_zero_hamiltonian_is_identity(self):
        u = expm_hermitian(np.zeros((4, 4)), 5.0)
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4.0)
        assert np.allclose(u.evolve(rho).matrix, rho.matrix)

    @given(duration=st.floats(-2.0, 2.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_unitary_for_random_durations(self, duration):
        h = random_hermitian(4, np.random.default_rng(3))
        assert expm_hermitian(h, duration).unitarity_defect() < 1e-11


class TestDensityMatrix:
    def test_dim_and_spin_count(self):
        rho = DensityMatrix(np.eye(8) / 8.0)
        assert rho.dim == 8
        assert rho.n_spins == 3

    def test_trace_must_be_one(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4))

    def test_hermiticity_enforced(self):
        bad = np.eye(2, dtype=complex) / 2.0
        bad[0, 1] = 0.3j
        with pytest.raises(ValueError):
            DensityMatrix(bad)

    def test_min_eigenvalue(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
        assert abs(rho.min_eigenvalue() - 0.25) < 1e-12

    def test_negative_eigenvalues_allowed(self):
        # deviation-style inputs with small negative parts are accepted,
        # and the defect is visible through min_eigenvalue
        rho = DensityMatrix(np.diag([1.1, -0.1]).astype(complex))
        assert rho.min_eigenvalue() < 0.0

    def test_expectation_of_known_state(self):
        one = np.zeros((2, 2), dtype=complex)
        one[1, 1] = 1.0
        rho = DensityMatrix(one)
        assert abs(rho.expect(pauli("z")) + 1.0) < 1e-14

    def test_expectation_rejects_mismatched_dimension(self):
        rho = DensityMatrix(np.eye(4) / 4.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            rho.expect(pauli("z"))

    def test_expectation_rejects_non_hermitian_observable(self):
        rho = DensityMatrix(np.eye(2) / 2.0)
        with pytest.raises(ValueError, match="Hermitian"):
            rho.expect(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
