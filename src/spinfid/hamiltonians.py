"""Hamiltonian builders for a register of weakly coupled spin-1/2 nuclei.

All couplings and offsets are configured in Hz and multiplied by 2*pi
exactly once, here, when a Hamiltonian matrix is assembled (rad/s, with
hbar = 1).  Setting ``angular_units`` on the ``SpinSystemSpec`` skips that
conversion for sensitivity studies.

Three builders are provided:

* ``build_effective``: rotating-frame secular (weak-coupling) form with
  purely longitudinal Ising couplings; diagonal in the computational
  basis.  The engine uses it for ``hamiltonian = "effective"``.
* ``build_rotating_heisenberg``: rotating-frame form that keeps the full
  isotropic coupling, i.e. the effective form plus the transverse
  flip-flop terms; the engine uses it for ``hamiltonian = "heisenberg"``.
  The dimensionless ``magnification`` scales every coupling in both
  rotating-frame builders, so the flip-flop part can be dialed from
  negligible to dominant while offsets stay fixed.
* ``build_lab``: full lab-frame Hamiltonian with a common carrier
  frequency ``omega0`` (Hz, an argument of the builder) and isotropic
  exchange couplings.  No run evolves under it; only the validation
  battery builds it.

The static noise offset eta_z (rad/s) enters every builder as a common
shift of all spins' longitudinal frequencies.

The builders read every site's I_x, I_y, I_z from the table that
``operators.spin_operators`` builds once per register size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import MAX_SPINS, spin_operators

__all__ = ["SpinSystemSpec", "build_lab", "build_effective", "build_rotating_heisenberg"]


@dataclass(frozen=True)
class SpinSystemSpec:
    """Static description of the spin register.

    delta
        Chemical-shift offsets of each spin from the carrier, Hz.
    j
        Scalar couplings J_ij for i < j in lexicographic pair order,
        Hz; for three spins the order is (J01, J02, J12).
    polarization
        Dimensionless deviation amplitude p of the initial state.
    magnification
        Dimensionless factor m applied to every J_ij in the
        rotating-frame builders.
    """

    n_spins: int = 3
    delta: tuple[float, ...] = (0.0, -1393.0, 1027.0)
    j: tuple[float, ...] = (-130.0, 69.0, 50.0)
    polarization: float = -1.0
    magnification: float = 1.0
    angular_units: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", tuple(float(x) for x in self.delta))
        object.__setattr__(self, "j", tuple(float(x) for x in self.j))
        if not 1 <= self.n_spins <= MAX_SPINS:
            raise ValueError(f"n_spins must be in [1, {MAX_SPINS}], got {self.n_spins}")
        if len(self.delta) != self.n_spins:
            raise ValueError(f"expected {self.n_spins} offsets, got {len(self.delta)}")
        n_pairs = self.n_spins * (self.n_spins - 1) // 2
        if len(self.j) != n_pairs:
            raise ValueError(f"expected {n_pairs} couplings for {self.n_spins} spins, got {len(self.j)}")
        if not (self.magnification >= 0.0 and math.isfinite(self.magnification)):
            raise ValueError(f"magnification must be finite and >= 0, got {self.magnification!r}")
        if not math.isfinite(self.frequency_bound):
            raise ValueError(
                "offsets, and couplings times the magnification, must keep 2 * sum of |value| finite in rad/s; "
                f"got delta = {self.delta}, j = {self.j}, magnification = {self.magnification!r}"
            )
        if not abs(self.polarization) <= 1.0:
            raise ValueError(f"|polarization| must not exceed 1, got {self.polarization!r}")

    @property
    def dim(self) -> int:
        return 2**self.n_spins

    @property
    def scale(self) -> float:
        """Hz -> rad/s conversion applied when matrices are assembled."""
        return 1.0 if self.angular_units else math.tau

    @property
    def frequency_bound(self) -> float:
        """B = 2 (sum_i |delta_i| + m sum_ij |J_ij|) in rad/s: it caps every entry of H0 and, by Gershgorin,
        every line frequency.  Its terms match the build_* products, and construction keeps it finite."""
        coupling_scale = self.scale * self.magnification
        return 2.0 * (sum(abs(self.scale * x) for x in self.delta) + sum(abs(coupling_scale * x) for x in self.j))

    def pairs(self) -> list[tuple[int, int, float]]:
        """Couplings as (i, j, J_ij in Hz) with i < j."""
        out = []
        k = 0
        for i in range(self.n_spins):
            for j in range(i + 1, self.n_spins):
                out.append((i, j, self.j[k]))
                k += 1
        return out

    def j_coupling(self, i: int, j: int) -> float:
        """J between spins i and j in Hz (order insensitive)."""
        if i == j:
            raise ValueError("no self coupling")
        i, j = min(i, j), max(i, j)
        for a, b, val in self.pairs():
            if (a, b) == (i, j):
                return val
        raise ValueError(f"pair ({i}, {j}) out of range")


def _zeeman(spec: SpinSystemSpec, eta_z: float, carrier: float) -> np.ndarray:
    """sum_i (carrier + delta_i) I_iz + eta_z * sum_i I_iz, in rad/s."""
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    for site, iz in enumerate(spin_operators(spec.n_spins)[:, 2]):
        h += (spec.scale * (carrier + spec.delta[site]) + eta_z) * iz
    return h


def _add_exchange(h: np.ndarray, spec: SpinSystemSpec, factor: float, axes: tuple[int, ...]) -> np.ndarray:
    """h += factor * J_ij * I_ia I_ja for every pair i < j and each axis index a in ``axes``."""
    ops = spin_operators(spec.n_spins)
    for i, j, val in spec.pairs():
        for a in axes:
            h += factor * val * (ops[i, a] @ ops[j, a])
    return h


def build_lab(spec: SpinSystemSpec, eta_z: float = 0.0, omega0: float = 0.0) -> np.ndarray:
    """Lab-frame Hamiltonian (rad/s): Zeeman at carrier omega0 (Hz) + isotropic couplings."""
    return _add_exchange(_zeeman(spec, eta_z, carrier=omega0), spec, spec.scale, (0, 1, 2))


def build_effective(spec: SpinSystemSpec, eta_z: float = 0.0) -> np.ndarray:
    """Secular rotating-frame Hamiltonian (rad/s); diagonal, Ising couplings.

    H = sum_i delta_i I_iz + m * sum_{i<j} J_ij I_iz I_jz + eta_z sum_i I_iz
    """
    return _add_exchange(_zeeman(spec, eta_z, carrier=0.0), spec, spec.scale * spec.magnification, (2,))


def build_rotating_heisenberg(spec: SpinSystemSpec, eta_z: float = 0.0) -> np.ndarray:
    """Rotating-frame Hamiltonian with full isotropic couplings (rad/s).

    Equals ``build_effective`` plus the flip-flop perturbation
    m * sum_{i<j} J_ij (I_ix I_jx + I_iy I_jy), which exchanges
    magnetization between spins and is what the secular approximation
    discards.
    """
    return _add_exchange(build_effective(spec, eta_z), spec, spec.scale * spec.magnification, (0, 1))
