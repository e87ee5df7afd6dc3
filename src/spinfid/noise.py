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
boundaries or call order.  Zero width takes the same quantiles: the
uniform draw is clamped inside (0, 1), so every quantile is finite, each
offset is +0 or -0, and ``avg_cos`` is exactly 1.  At the other end, a
width is refused unless its largest draw, the quantile at one end of the
clamped range (1, 8.29 and 3.53e15 widths out), is finite in rad/s; those
quantiles are evaluated once, at import.

The Gaussian quantile is ``_ndtri``, a numpy port of the Cephes ``ndtri``
(S. L. Moshier, Cephes Mathematical Library) with its coefficients and
Horner order, so the package needs NumPy alone.  It agrees with
``scipy.special.ndtri`` bit for bit except where ``np.log`` and the C
library's ``log`` round differently in the tails (a few ulp).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["NOISE_KINDS", "NoiseModel"]

NOISE_KINDS = ("white", "gaussian", "lorentzian")

# Draws per Philox counter block; realization i consumes block i.
_BLOCK = 4

# A uniform draw is the top 53 bits of a Philox word times 2**-53, as
# Generator.random() forms it: a multiple of 2**-53 in [0, 1 - 2**-53].
# Adding 2**-54 lifts 0 off the boundary, but from 1/2 up every sum is a
# tie that rounds to even, and the top draw rounds to exactly 1.0, where
# the Gaussian quantile is inf.  Clamping at _TOP changes that draw alone,
# so the quantile transforms see u in [2**-54, 1 - 2**-53].
_OPEN_SHIFT = 2.0**-54
_TOP = 1.0 - 2.0**-53

# Cephes ndtri.  exp(-2) splits the central rational approximation in
# u - 1/2 from the tails, which use x = sqrt(-2 ln u) with one fit for
# x < 8 and another for x >= 8 (u < exp(-32)).  Each denominator leads
# with Cephes' implied 1.0, and 1.0 * x + c rounds as x + c does.
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242e0
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.0,
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.0,
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    1.0,
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    """Horner evaluation, highest power first, in one buffer."""
    acc = coeffs[0] * x
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= x
        acc += c
    return acc


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF for u in (0, 1), as Cephes ndtri.

    The central formula runs on the whole block and the tail formulas on
    the tail draws alone (about 27 %), which costs less than running both
    everywhere; x >= 8 is rarely reached.
    """
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    c = y - 0.5
    c2 = c * c
    out = _SQRT_2PI * (c + c * (c2 * _polevl(c2, _P0) / _polevl(c2, _Q0)))
    tails = np.flatnonzero(y <= _EXP_M2)
    x = np.sqrt(-2.0 * np.log(y[tails]))
    z = 1.0 / x
    tail = x - np.log(x) / x - z * _polevl(z, _P1) / _polevl(z, _Q1)
    far = x >= 8.0
    if far.any():
        xf, zf = x[far], z[far]
        tail[far] = xf - np.log(xf) / xf - zf * _polevl(zf, _P2) / _polevl(zf, _Q2)
    out[tails] = np.where(upper[tails], tail, -tail)
    return out


def _unit_quantile(kind: str, u: np.ndarray) -> np.ndarray:
    """Quantile of the unit-width distribution ``kind`` at clamped uniform draws ``u``."""
    if kind == "white":
        return 2.0 * u - 1.0
    if kind == "gaussian":
        return _ndtri(u)
    return np.tan(np.pi * (u - 0.5))  # lorentzian


# Largest |quantile| over the clamped draws, at the ends of [_OPEN_SHIFT, _TOP]: 1, 8.29 and 3.53e15.
# A width whose product with it is finite keeps every draw finite in rad/s.
_REACH = {kind: float(np.abs(_unit_quantile(kind, np.array([_OPEN_SHIFT, _TOP]))).max()) for kind in NOISE_KINDS}


@dataclass(frozen=True)
class NoiseModel:
    """Distribution family and scale of the static dephasing offset."""

    kind: str = "lorentzian"
    width: float = 28.0
    angular_units: bool = False

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}, expected one of {NOISE_KINDS}")
        if not (self.width >= 0.0 and math.isfinite(self.width_rad * _REACH[self.kind])):
            raise ValueError(f"noise width must be >= 0 and keep its largest draw finite in rad/s, got {self.width!r}")

    @property
    def width_rad(self) -> float:
        """Scale parameter in rad/s."""
        return self.width if self.angular_units else math.tau * self.width

    def sample_block(self, seed: int, start: int, count: int) -> np.ndarray:
        """Offsets eta_z (rad/s) for realization indices [start, start+count).

        Pure in (seed, index): slicing a block any way yields the same
        values, e.g. ``sample_block(s, 0, 9)[4:] == sample_block(s, 4, 5)``.
        """
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if start < 0 or count < 0:
            raise ValueError("start and count must be non-negative")
        bitgen = np.random.Philox(key=seed)
        bitgen.advance(start)
        # Only each block's first word is converted; Generator.random() would convert all four.
        words = bitgen.random_raw(_BLOCK * count)[::_BLOCK]
        return self._quantile((words >> np.uint64(11)) * 2.0**-53)

    def _quantile(self, raw: np.ndarray) -> np.ndarray:
        """Offsets eta_z (rad/s) for uniform draws ``raw`` in [0, 1)."""
        return self.width_rad * _unit_quantile(self.kind, np.minimum(raw + _OPEN_SHIFT, _TOP))

    def sample(self, seed: int, index: int) -> float:
        """Single offset eta_z (rad/s) for realization ``index``."""
        return float(self.sample_block(seed, index, 1)[0])

    def avg_cos(self, t: np.ndarray | float) -> np.ndarray:
        """Ensemble mean of cos(eta_z t), the decay envelope of the mean FID."""
        t = np.asarray(t, dtype=float)
        w = self.width_rad
        if self.kind == "white":
            # np.sinc(x) = sin(pi x)/(pi x); want sin(w t)/(w t).
            return np.sinc(w * t / np.pi)
        if self.kind == "gaussian":
            # exp(-800) is already 0, so clamping |w t| at 40 changes no value and keeps the square finite.
            return np.exp(-0.5 * np.minimum(np.abs(w * t), 40.0) ** 2)
        return np.exp(-w * np.abs(t))
