"""Static longitudinal dephasing noise: distributions, sampling, averages.

A noise realization is a single zero-mean offset eta_z (rad/s) added to
every spin's Larmor frequency and held constant for the whole acquisition
(static common-mode dephasing).  Three symmetric distributions are
supported; ``width`` is their scale parameter in Hz unless
``angular_units`` is set, in which case it is already rad/s.

==========  =============================  ==========================
kind        density over eta               ensemble mean of cos(eta t)
==========  =============================  ==========================
white       uniform on [-a, a]             sin(a t) / (a t)
gaussian    normal, std sigma              exp(-(sigma t)^2 / 2)
lorentzian  (gamma/pi) / (eta^2+gamma^2)   exp(-gamma |t|)
==========  =============================  ==========================

The mean of sin(eta t) vanishes for every kind by symmetry, so
``avg_cos`` alone is the characteristic function <exp(i eta t)> that
multiplies the zero-noise signal.

Sampling is counter based and therefore a pure function of
``(seed, index)``: realization ``index`` owns the Philox block ``index``
under key ``seed`` and converts the block's first uniform draw through
the distribution's quantile function.  Results do not depend on batch
boundaries, call order, or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["NOISE_KINDS", "NoiseModel"]

NOISE_KINDS = ("white", "gaussian", "lorentzian")

# Draws per Philox counter block; realization i consumes block i.
_BLOCK = 4

# Half-ulp shift mapping uniform draws from [0, 1) onto (0, 1) so the
# quantile transforms stay finite.
_OPEN_SHIFT = 2.0**-54

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class NoiseModel:
    """Distribution family and scale of the static dephasing offset."""

    kind: str = "lorentzian"
    width: float = 28.0
    angular_units: bool = False

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}, expected one of {NOISE_KINDS}")
        if not (self.width >= 0.0) or not math.isfinite(self.width):
            raise ValueError(f"noise width must be finite and >= 0, got {self.width!r}")

    @property
    def width_rad(self) -> float:
        """Scale parameter in rad/s."""
        return self.width if self.angular_units else TWO_PI * self.width

    def sample_block(self, seed: int, start: int, count: int) -> np.ndarray:
        """Offsets eta_z (rad/s) for realization indices [start, start+count).

        Pure in (seed, index): slicing a block any way yields the same
        values, e.g. ``sample_block(s, 0, 9)[4:] == sample_block(s, 4, 5)``.
        """
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if start < 0 or count < 0:
            raise ValueError("start and count must be non-negative")
        if count == 0:
            return np.empty(0, dtype=float)
        bitgen = np.random.Philox(key=seed)
        if start:
            bitgen.advance(start)
        raw = np.random.Generator(bitgen).random(_BLOCK * count)
        u = raw[::_BLOCK] + _OPEN_SHIFT
        w = self.width_rad
        if w == 0.0:
            return np.zeros(count, dtype=float)
        if self.kind == "white":
            return w * (2.0 * u - 1.0)
        if self.kind == "gaussian":
            # Imported here: scipy.special costs ~0.3 s, and only this branch needs it.
            from scipy.special import ndtri

            return w * ndtri(u)
        return w * np.tan(np.pi * (u - 0.5))  # lorentzian quantile

    def sample(self, seed: int, index: int) -> float:
        """Single offset eta_z (rad/s) for realization ``index``."""
        return float(self.sample_block(seed, index, 1)[0])

    def avg_cos(self, t: np.ndarray | float) -> np.ndarray:
        """Ensemble mean of cos(eta_z t), the decay envelope of the mean FID."""
        t = np.asarray(t, dtype=float)
        w = self.width_rad
        if w == 0.0:
            return np.ones_like(t)
        if self.kind == "white":
            # np.sinc(x) = sin(pi x)/(pi x); want sin(w t)/(w t).
            return np.sinc(w * t / np.pi)
        if self.kind == "gaussian":
            return np.exp(-0.5 * (w * t) ** 2)
        return np.exp(-w * np.abs(t))
