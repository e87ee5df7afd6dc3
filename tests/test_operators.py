"""Pauli algebra, operator embedding, matrix exponentials, and density-matrix basics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfid import (
    MAX_SPINS,
    DensityMatrix,
    ObservableSpec,
    PulseSpec,
    SpinSystemSpec,
    build_effective,
    build_lab,
    build_rotating_heisenberg,
    embed,
    expm_hermitian,
    pauli,
    spin_operators,
)

RNG = np.random.default_rng(7)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def kron_site(op: np.ndarray, site: int, n_spins: int) -> np.ndarray:
    """Reference embedding by explicit Kronecker products."""
    return np.kron(np.kron(np.eye(2**site, dtype=complex), op), np.eye(2 ** (n_spins - site - 1), dtype=complex))


def kron_hamiltonian(spec: SpinSystemSpec, eta_z: float, carrier: float, couplings) -> np.ndarray:
    """Zeeman terms, then factor * J_ij * I_ia I_ja per (factor, axes) entry, pair and axis, all built by np.kron."""
    n = spec.n_spins
    spin = {(site, axis): 0.5 * kron_site(pauli(axis), site, n) for site in range(n) for axis in "xyz"}
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    for site in range(n):
        h += (spec.scale * (carrier + spec.delta[site]) + eta_z) * spin[site, "z"]
    for factor, axes in couplings:
        for i, j, val in spec.pairs():
            for axis in axes:
                h += factor * val * (spin[i, axis] @ spin[j, axis])
    return h


def kron_ladder(sites: list[int], n_spins: int) -> np.ndarray:
    out = np.zeros((2**n_spins, 2**n_spins), dtype=complex)
    for site in sites:
        out += 0.5 * (kron_site(pauli("x"), site, n_spins) + 1j * kron_site(pauli("y"), site, n_spins))
    return out


SPEC3 = SpinSystemSpec(delta=(0.0, -1393.0, 1027.0), j=(-130.0, 69.0, 50.0), magnification=2.5)
ETA = -183.7
OMEGA0 = 4.0e4
ROTATING = SPEC3.scale * SPEC3.magnification
RUN_PATH_MATRICES = {
    "effective": (
        lambda: build_effective(SPEC3, ETA),
        lambda: kron_hamiltonian(SPEC3, ETA, 0.0, [(ROTATING, "z")]),
    ),
    "heisenberg": (
        lambda: build_rotating_heisenberg(SPEC3, ETA),
        lambda: kron_hamiltonian(SPEC3, ETA, 0.0, [(ROTATING, "z"), (ROTATING, "xy")]),
    ),
    "lab": (
        lambda: build_lab(SPEC3, ETA, omega0=OMEGA0),
        lambda: kron_hamiltonian(SPEC3, ETA, OMEGA0, [(SPEC3.scale, "xyz")]),
    ),
    "ladder-single": (lambda: ObservableSpec.single(1).ladder_matrix(3), lambda: kron_ladder([1], 3)),
    "ladder-total": (lambda: ObservableSpec.total().ladder_matrix(3), lambda: kron_ladder([0, 1, 2], 3)),
}


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
            # The shared operator table holds 0.5 * the same products.
            for a, axis in enumerate("xyz"):
                want = 0.5 * np.kron(np.kron(left, pauli(axis)), right)
                assert spin_operators(n_spins)[site, a].tobytes() == want.tobytes()

    @given(site=st.integers(0, 2), axis=st.sampled_from("xyz"))
    @settings(max_examples=20, deadline=None)
    def test_embedding_preserves_hermiticity(self, site, axis):
        full = embed(pauli(axis), site, 3)
        assert np.allclose(full, full.conj().T)


class TestSpinOperators:
    @pytest.mark.parametrize("n_spins", [1, 2, 3, 4])
    def test_table_is_shared_and_read_only(self, n_spins):
        table = spin_operators(n_spins)
        assert table.shape == (n_spins, 3, 2**n_spins, 2**n_spins) and table.dtype == complex
        assert spin_operators(n_spins) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("n_spins", [0, MAX_SPINS + 1])
    def test_register_size_out_of_range(self, n_spins):
        with pytest.raises(ValueError, match="n_spins"):
            spin_operators(n_spins)

    @pytest.mark.parametrize("name", sorted(RUN_PATH_MATRICES))
    def test_run_path_matrices_match_kron_reference_byte_for_byte(self, name):
        built, reference = RUN_PATH_MATRICES[name]
        got, want = built(), reference()
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))


def evolve(u: np.ndarray, rho: DensityMatrix) -> DensityMatrix:
    return DensityMatrix(u @ rho.matrix @ u.conj().T)


class TestExpmHermitian:
    def test_unitarity(self):
        h = random_hermitian(8, RNG)
        u = expm_hermitian(h, 0.37)
        assert unitarity_defect(u) < 1e-12

    def test_returns_a_read_only_array(self):
        u = expm_hermitian(0.5 * pauli("z"), 0.37)
        assert type(u) is np.ndarray and u.shape == (2, 2)
        with pytest.raises(ValueError):
            u[0, 0] = 1.0

    def test_matches_series_expansion(self):
        h = random_hermitian(4, RNG)
        dt = 1e-6
        u = expm_hermitian(h, dt)
        probs = np.array([0.4, 0.3, 0.2, 0.1])
        rho = DensityMatrix(np.diag(probs).astype(complex))
        evolved = evolve(u, rho).matrix
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
        rho_t = evolve(expm_hermitian(h, t), plus)
        s = rho_t.expect(0.5 * pauli("x")) + 1j * rho_t.expect(0.5 * pauli("y"))
        assert np.abs(s - 0.5 * np.exp(1j * w * t)) < 1e-12

    def test_zero_hamiltonian_is_identity(self):
        u = expm_hermitian(np.zeros((4, 4)), 5.0)
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4.0)
        assert np.allclose(evolve(u, rho).matrix, rho.matrix)

    @given(duration=st.floats(-2.0, 2.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_unitary_for_random_durations(self, duration):
        h = random_hermitian(4, np.random.default_rng(3))
        assert unitarity_defect(expm_hermitian(h, duration)) < 1e-11


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
        # A NaN defect fails the bound too.
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.full((2, 2), np.nan))

    def test_negative_eigenvalues_allowed(self):
        # deviation-style inputs with small negative parts are accepted as they are
        rho = DensityMatrix(np.diag([1.1, -0.1]).astype(complex))
        assert np.linalg.eigvalsh(rho.matrix)[0] < 0.0

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
