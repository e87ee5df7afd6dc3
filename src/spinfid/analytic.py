"""Closed-form free-induction-decay signals for the supported preparations.

All formulas share one convention with the numerical engine: the
recorded components are mx = Tr(rho(t) I_x) and my = Tr(rho(t) I_y) of
the observed spin (spin operators, sigma/2), evolved by exp(-i H t), so
the complex signal s = mx + i*my of a free spin rotates with positive
frequency, s ~ (p/2) exp(+i delta t).  A spin whose basis label is 1
starts along -x after the y pi/2 pulse, flipping the overall sign.

Static common-mode noise multiplies every realization's signal by
exp(i eta t); averaging therefore factors into the deterministic
signal times the noise model's ``avg_cos``, which is the whole mean of
exp(i eta t) because every supported distribution is symmetric.  The
thermal and pseudo-pure formulas have ``*_single`` companions evaluated
at one fixed offset, which the engine must reproduce to numerical
precision under the secular (diagonal) Hamiltonian.

The perturbative three-branch formula treats the flip-flop part of the
isotropic coupling as a first-order perturbation on the secular
dynamics and describes the TOTAL transverse readout (sum over spins):
the perturbation bleeds coherence onto the spectator spins, and those
branches beat against the main line only when the readout sees every
spin.  The coherent branch sum is accurate to second order in the
mixing coefficients; the separate linearized envelope factor F also
drops the coupling corrections inside its cosine arguments, so it
degrades faster as magnification grows (the regime flag turns on once
|lambda_1| + |lambda_2| > 0.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonians import SpinSystemSpec
from .noise import NoiseModel
from .states import STOCK_LABEL, parse_label

__all__ = [
    "fid_single",
    "fid_thermal",
    "fid_thermal_single",
    "fid_pps",
    "fid_pps_single",
    "PerturbationCoeffs",
    "perturbation_coeffs",
    "fid_perturbative",
    "envelope_factor",
    "residual_ratio_analytic",
    "trapezoid_weights",
]

Fid = tuple[np.ndarray, np.ndarray, np.ndarray]


def _components(s: np.ndarray) -> Fid:
    mx = np.ascontiguousarray(s.real)
    my = np.ascontiguousarray(s.imag)
    return mx, my, np.hypot(mx, my)


def fid_single(model: NoiseModel, polarization: float, t: np.ndarray | float) -> Fid:
    """Mean FID of one uncoupled on-resonance spin after a y pi/2 pulse.

    mx = (p/2) avg_cos and my = 0, so the transverse modulus decays with
    the envelope alone.
    """
    t = np.asarray(t, dtype=float)
    return _components(0.5 * polarization * model.avg_cos(t))


def _coupling_cosines(spec: SpinSystemSpec, observed: int, t: np.ndarray) -> np.ndarray:
    """prod_{i != observed} cos(m J_i,obs t / 2) in angular units."""
    out = np.ones_like(t)
    for i in range(spec.n_spins):
        if i == observed:
            continue
        j_rad = spec.scale * spec.magnification * spec.j_coupling(i, observed)
        out = out * np.cos(0.5 * j_rad * t)
    return out


def _check_observed(spec: SpinSystemSpec, observed: int) -> None:
    if not 0 <= observed < spec.n_spins:
        raise ValueError(f"observed spin {observed} out of range for {spec.n_spins} spins")


def _thermal_signal(spec: SpinSystemSpec, observed: int, t: np.ndarray) -> np.ndarray:
    """Noise-free secular thermal-state signal of observed spin k.

    s(t) = (p/2) * prod_{i != k} cos(m J_ik t / 2) * exp(i delta_k t): the
    couplings split the observed line into a product of cosine modulations
    while the offset only rotates the phase.
    """
    _check_observed(spec, observed)
    delta_rad = spec.scale * spec.delta[observed]
    return (
        0.5
        * spec.polarization
        * _coupling_cosines(spec, observed, t)
        * np.exp(1j * delta_rad * t)
    )


def fid_thermal_single(
    spec: SpinSystemSpec, eta_z: float, t: np.ndarray | float, observed: int = 2
) -> Fid:
    """Exact secular-model FID of the thermal state at one fixed offset."""
    t = np.asarray(t, dtype=float)
    return _components(_thermal_signal(spec, observed, t) * np.exp(1j * eta_z * t))


def fid_thermal(
    spec: SpinSystemSpec, model: NoiseModel, t: np.ndarray | float, observed: int = 2
) -> Fid:
    """Noise-averaged thermal-state FID under the secular Hamiltonian."""
    t = np.asarray(t, dtype=float)
    return _components(_thermal_signal(spec, observed, t) * model.avg_cos(t))


def _pps_signal(spec: SpinSystemSpec, label: str, observed: int, t: np.ndarray) -> np.ndarray:
    """Noise-free secular pseudo-pure signal of observed spin k.

    The spectator spins sit in definite z states fixed by the label, so
    the observed coherence precesses at delta_k plus half the signed sum
    of its couplings; a label bit 1 on the observed spin flips the
    initial transverse direction.
    """
    _check_observed(spec, observed)
    parse_label(label, spec.n_spins)
    signs = [1 if c == "0" else -1 for c in label]
    rate = spec.scale * spec.delta[observed]
    for i in range(spec.n_spins):
        if i == observed:
            continue
        rate += 0.5 * signs[i] * spec.scale * spec.magnification * spec.j_coupling(i, observed)
    return signs[observed] * 0.5 * spec.polarization * np.exp(1j * rate * t)


def fid_pps_single(
    spec: SpinSystemSpec,
    eta_z: float,
    t: np.ndarray | float,
    label: str = STOCK_LABEL,
    observed: int = 2,
) -> Fid:
    """Exact secular-model FID of the pseudo-pure state at one fixed offset."""
    t = np.asarray(t, dtype=float)
    return _components(_pps_signal(spec, label, observed, t) * np.exp(1j * eta_z * t))


def fid_pps(
    spec: SpinSystemSpec,
    model: NoiseModel,
    t: np.ndarray | float,
    label: str = STOCK_LABEL,
    observed: int = 2,
) -> Fid:
    """Noise-averaged pseudo-pure FID under the secular Hamiltonian.

    The transverse modulus (|p|/2) |avg_cos| is independent of every
    coupling: the label pins the spectator spins, so couplings only
    shift the single coherence frequency, which the modulus ignores.
    """
    t = np.asarray(t, dtype=float)
    return _components(_pps_signal(spec, label, observed, t) * model.avg_cos(t))


@dataclass(frozen=True)
class PerturbationCoeffs:
    """First-order flip-flop mixing coefficients for the |101> preparation.

    lambda_1 weighs the branch created by exchange with the second spin
    and lambda_2 the branch from exchange with the first; both scale
    linearly with magnification and inversely with the offset gaps.
    ``out_of_regime`` flags |lambda_1| + |lambda_2| > 0.2, beyond which
    the first-order formulas stop being quantitative.
    """

    lambda_1: float
    lambda_2: float

    @property
    def out_of_regime(self) -> bool:
        return abs(self.lambda_1) + abs(self.lambda_2) > 0.2


def perturbation_coeffs(spec: SpinSystemSpec) -> PerturbationCoeffs:
    """Mixing coefficients lambda_1, lambda_2 (dimensionless, Hz ratios)."""
    if spec.n_spins != 3:
        raise ValueError("perturbative formulas are defined for three spins")
    d = spec.delta
    if d[2] == d[1] or d[2] == d[0]:
        raise ValueError("offset gaps to the observed spin must be nonzero")
    m = spec.magnification
    lam1 = m * spec.j_coupling(1, 2) / (2.0 * (d[2] - d[1]))
    lam2 = -m * spec.j_coupling(0, 2) / (2.0 * (d[2] - d[0]))
    return PerturbationCoeffs(lambda_1=lam1, lambda_2=lam2)


def _perturbative_branches(spec: SpinSystemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Branch frequencies (rad/s) and weights; the weights see only offset gaps, so a common shift moves every rate."""
    coeffs = perturbation_coeffs(spec)
    m = spec.magnification
    j01 = spec.j_coupling(0, 1)
    j02 = spec.j_coupling(0, 2)
    j12 = spec.j_coupling(1, 2)
    d = spec.delta
    rates = spec.scale * np.array(
        [
            d[2] + 0.5 * m * (j12 - j02),
            d[1] + 0.5 * m * (j12 - j01),
            d[0] + 0.5 * m * (j01 - j02),
        ]
    )
    weights = np.array(
        [1.0 - coeffs.lambda_1 - coeffs.lambda_2, coeffs.lambda_1, coeffs.lambda_2]
    )
    return rates, weights


def envelope_factor(spec: SpinSystemSpec, t: np.ndarray | float) -> np.ndarray:
    """Linearized modulus factor F(t) of the three-branch expansion.

    F = 1 - l1 - l2 + l1 cos((d3 - d2) t) + l2 cos((d3 - d1) t), keeping
    only terms linear in the mixing coefficients and dropping the coupling
    corrections inside the beat frequencies.
    """
    t = np.asarray(t, dtype=float)
    coeffs = perturbation_coeffs(spec)
    gap_32 = spec.scale * (spec.delta[2] - spec.delta[1])
    gap_31 = spec.scale * (spec.delta[2] - spec.delta[0])
    return (
        1.0
        - coeffs.lambda_1
        - coeffs.lambda_2
        + coeffs.lambda_1 * np.cos(gap_32 * t)
        + coeffs.lambda_2 * np.cos(gap_31 * t)
    )


def fid_perturbative(spec: SpinSystemSpec, model: NoiseModel, t: np.ndarray | float) -> Fid:
    """Noise-averaged first-order total-readout FID for the |101> start.

    Every branch is a single-quantum coherence, so the random offset
    contributes one common phase that factors through the model's
    coherence function; the modulus is then exactly
    (|p|/2) |branch sum| |avg_cos|.  The coherent branch sum keeps the
    coupling corrections inside the beat frequencies, unlike the
    linearized :func:`envelope_factor`, which is why its residual
    against the full evolution is second order in the mixing
    coefficients.
    """
    t = np.asarray(t, dtype=float)
    rates, weights = _perturbative_branches(spec)
    branch_sum = np.zeros(t.shape, dtype=complex)
    for rate, weight in zip(rates, weights):
        branch_sum = branch_sum + weight * np.exp(1j * rate * t)
    s = -0.5 * spec.polarization * branch_sum * model.avg_cos(t)
    return _components(s)


def trapezoid_weights(t: np.ndarray) -> np.ndarray:
    """Composite trapezoid quadrature weights for a sorted sample grid."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("need a 1-d grid with at least two points")
    w = np.zeros_like(t)
    gaps = np.diff(t)
    w[:-1] += 0.5 * gaps
    w[1:] += 0.5 * gaps
    return w


def _relative_residual(a: np.ndarray, a_0: np.ndarray, weights: np.ndarray) -> float:
    """The one formula behind both public residual ratios: integral w |a - a_0| / integral w a_0."""
    denominator = float(np.sum(weights * a_0))
    if not denominator > 0.0:  # NaN fails too
        raise ValueError(f"baseline modulus integrates to {denominator:.3g}, not to a positive value")
    return float(np.sum(weights * np.abs(a - a_0)) / denominator)


def residual_ratio_analytic(
    spec: SpinSystemSpec, model: NoiseModel, t: np.ndarray
) -> float:
    """Integrated relative deviation of the first-order model from ideal.

    R = integral |A_m - A_0| dt / integral A_0 dt over the given grid,
    where A_m is the perturbative mperp and A_0 the coupling-free
    modulus (the ideal pseudo-pure decay, which is also the m = 0 limit
    of A_m); with the mixing coefficients linear in magnification, R is
    too, up to second-order corrections.
    """
    t = np.asarray(t, dtype=float)
    a_0 = 0.5 * abs(spec.polarization) * np.abs(model.avg_cos(t))
    return _relative_residual(fid_perturbative(spec, model, t)[2], a_0, trapezoid_weights(t))
