"""Initial-state preparation: linearized thermal states, pseudo-pure states,
and ideal hard pulses.

The thermal state is the high-temperature linearization
rho = I/2^n + (p/2^n) sum_i sigma_iz with deviation amplitude p; it is
what a strongly mixed ensemble looks like to any observable linear in
the state.  For n |p| > 1 it is not positive semidefinite, which is
accepted here (see DensityMatrix).

The pseudo-pure state rho = (1-p)/2^n I + p |label><label| behaves, up
to the uniform background, like the pure computational-basis state
``label`` and requires p in (0, 1].

Pulses are instantaneous rotations R = exp(-i angle sigma_axis / 2)
applied to one spin; a y rotation by pi/2 maps sigma_z to sigma_x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonians import SpinSystemSpec
from .operators import DensityMatrix, embed, pauli, spin_operators

__all__ = ["STOCK_LABEL", "PulseSpec", "thermal_state", "pps_state", "apply_pulse", "parse_label"]

# Pseudo-pure label of the stock three-spin preparation, |101>: the default
# wherever a label is optional, and the preparation the first-order
# exchange model describes.
STOCK_LABEL = "101"


@dataclass(frozen=True)
class PulseSpec:
    """One ideal hard pulse: rotation axis, angle (rad), target spin (0-based)."""

    target: int
    axis: str = "y"
    angle: float = math.pi / 2.0

    def __post_init__(self) -> None:
        if self.axis not in ("x", "y", "z"):
            raise ValueError(f"pulse axis must be x, y, or z, got {self.axis!r}")
        if self.target < 0:
            raise ValueError(f"pulse target must be >= 0, got {self.target}")
        if not math.isfinite(self.angle):
            raise ValueError(f"pulse angle must be finite, got {self.angle!r}")

    def rotation(self) -> np.ndarray:
        """2x2 unitary exp(-i angle sigma_axis / 2)."""
        half = 0.5 * self.angle
        return math.cos(half) * pauli("i") - 1j * math.sin(half) * pauli(self.axis)


def thermal_state(spec: SpinSystemSpec) -> DensityMatrix:
    """Linearized thermal state I/2^n + (p/2^n) sum_i sigma_iz, with sigma_iz = 2 I_iz."""
    dim = spec.dim
    rho = np.eye(dim, dtype=complex) / dim
    for iz in spin_operators(spec.n_spins)[:, 2]:
        rho += (spec.polarization / dim) * (2.0 * iz)
    return DensityMatrix(rho)


def parse_label(label: str, n_spins: int) -> int:
    """Validate a computational basis label like '101' and return its index."""
    if len(label) != n_spins or any(c not in "01" for c in label):
        raise ValueError(f"label must be {n_spins} characters of 0/1, got {label!r}")
    return int(label, 2)


def _pps_index(spec: SpinSystemSpec, label: str) -> int:
    """Basis index of ``label``, once ``spec`` and ``label`` pass every check of ``pps_state``."""
    if not 0.0 < spec.polarization <= 1.0:
        raise ValueError(f"pseudo-pure polarization must lie in (0, 1], got {spec.polarization!r}")
    return parse_label(label, spec.n_spins)


def pps_state(spec: SpinSystemSpec, label: str = STOCK_LABEL) -> DensityMatrix:
    """Pseudo-pure state (1-p)/2^n I + p |label><label|, p in (0, 1]."""
    index = _pps_index(spec, label)
    p, dim = spec.polarization, spec.dim
    rho = (1.0 - p) / dim * np.eye(dim, dtype=complex)
    rho[index, index] += p
    return DensityMatrix(rho)


def apply_pulse(rho: DensityMatrix, pulse: PulseSpec) -> DensityMatrix:
    """Conjugate the state by the pulse rotation on its target spin."""
    n = rho.n_spins
    if pulse.target >= n:
        raise ValueError(f"pulse target {pulse.target} out of range for {n} spins")
    r = embed(pulse.rotation(), pulse.target, n)
    return DensityMatrix(r @ rho.matrix @ r.conj().T)
