"""Monte-Carlo free-induction-decay engine.

Semantics: for every realization r the static offset eta_r is drawn from
the noise model, the chosen rotating-frame Hamiltonian is built with
that offset, the prepared state evolves under exp(-i H t), and the
transverse spin components mx = Tr(rho(t) I_x), my = Tr(rho(t) I_y) of
the observed spin (or their sum over all spins) are recorded on the time
grid.  The trace holds the ensemble means and the modulus is taken after
averaging: mperp = sqrt(mx^2 + my^2), which decays through ensemble
dephasing even though every single realization keeps its amplitude.

One exact evaluation path serves both Hamiltonian kinds.  The secular
and the isotropic rotating-frame Hamiltonians both conserve total I_z,
and the noise enters as eta_r * sum_i I_iz, so exp(-i H t) factors into
exp(-i H0 t) exp(-i eta_r t sum_i I_iz).  The recorded observable
O = sum (I_x + i I_y) is single-quantum, [sum_i I_iz, O] = O, so the
noise rotation reduces to a global phase and every realization's signal
is D(t) exp(i eta_r t), and the ensemble mean is D(t) times the empirical
characteristic function chi(t) = mean_r exp(i eta_r t) (Anderson, JPSJ 9,
316 (1954); Kubo, JPSJ 9, 935 (1954)).

D(t) is built from the magnetization sectors: with m_j the total I_z of
basis state j, _sectors lists the basis states of each m, lowest first,
once per register size.  Each diagonal block H0_m = V_m diag(l_m) V_m^+
has its own eigh, and since O takes sector m to m + 1, each adjacent pair
contributes the lines A = (V_m^+ rho_(m,m+1) V_m+1) * (V_m+1^+ O_(m+1,m) V_m)^T
at w = l_m - l_m+1 to D(t) = sum A exp(-i w t).  A pair whose rho block is
zero adds nothing, and an amplitude that is exactly zero is dropped; the
lines of roundoff size that one eigh of the whole H0 leaves between other
sectors never enter.  This reads only H0's diagonal blocks and
O's (m + 1, m) blocks, and those are exactly the two conditions checked on
every call: any H0 entry joining different m, or O entry not raising m by
one, must vanish relative to the largest entry of its matrix, else
evolve_fid raises ValueError instead of returning a wrong answer.
SpinSystemSpec's bound B keeps H0 and each w finite, and a grid on which
B t_max 2**-53 exceeds 1e-6 rad, so that the phases w t keep too few
digits, is refused as well.

Shared phase sum: R chi depends only on the noise model, the grid, the
realization count and the seed, not on the spins, the state, the pulse,
the readout or the Hamiltonian.  evolve_fid takes it from a one-entry
cache keyed on exactly those four inputs, so consecutive runs on one
ensemble (a magnification sweep, the fig4a traces) sum it once, and a run
on any other ensemble sums afresh.  The cached array is read-only, and
the product D(t) chi(t) / R is formed in the same order on a hit as on a
miss, so the cache changes no output bit.

Phase sum: the grid is uniform, t_k = k dt, so the sum
R chi(t_k) = sum_r exp(i k x_r) with x_r = eta_r dt mod 2 pi is a type-1
nonuniform FFT (Dutt & Rokhlin, SIAM J. Sci. Comput. 14, 1368 (1993)),
evaluated by the Taylor-series method of Anderson & Dahleh (SIAM J. Sci.
Comput. 17, 913 (1996)).  The period is cut into M bins of width
h = 2 pi / M, M the smallest power of two with M >= 2n, and positions are
counted in bins, so the period is exactly M and wrapping a negative eta
adds no systematic phase.  Each draw goes to its nearest bin centre j_r,
with offset f_r = x_r / h - j_r in [-1/2, 1/2], and
exp(i k x_r) = exp(i k h j_r) sum_{p<P} (i k h f_r)^p / p!.  Row p of a
(P, M) histogram sums f_r^p over the draws in each bin: per chunk, one
np.bincount call per row, with f_r^p formed as a running product of
offsets.  A real FFT of each row, conjugated, weighted by
(i k h)^p / p! and summed over p gives the sum for k < n.  The rows are
transformed five at a time and weighted and added one at a time, the
weights of row p formed from those of row p - 1, so a call holds five
spectra and one weight row besides the histogram, and nothing but the
finished sum outlives it.  Since M >= 2n,
|k h f_r| < pi / 2, so with P = 20 terms the first omitted term is below
(pi / 2)^20 / 20! = 3.4e-15 per draw.  The mean stays within 2e-14 of
the direct sum of exp(i eta_r t_k) for all three noise kinds on grids of
2 to 4001 points; the tests hold it to 1e-12.  The cost is P products
and P bincount weights per draw, whatever n is, plus P M histogram cells
per chunk and P real M-point FFTs per call.  A power-of-two M keeps
pocketfft off its slow path for lengths with a large prime factor.

Determinism: realizations are split into fixed-size chunks whose
boundaries depend only on the realization count, and the chunks run in
order in the calling thread.  Each f_r^p is the product of p offsets
taken in the same order, np.bincount adds each row's weights in input
order, the chunk histograms are added in chunk order, and their total
is finished five rows to an FFT call: each row's FFT is weighted and
added in p order.
No step calls BLAS (bincount, elementwise products, sums along an axis
and numpy's pocketfft have no BLAS call), whose threaded kernels split
sums by the BLAS thread count.  So on one numpy build and SIMD dispatch
level the results are bit-identical for any BLAS thread count.  Across
SIMD levels numpy's exp and complex products take other vector paths,
and the values agree to 1e-15.  D(t) of the exchange-coupled runs goes
through LAPACK eigh of the sector blocks and BLAS products, whose kernels
OpenBLAS picks by CPU (OPENBLAS_CORETYPE forces a set), so the kernel
choice moves their last bits further: the exchange presets' values agree
to 1e-14 across core types.  The secular presets, whose H0 is diagonal,
keep their bytes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import KW_ONLY, dataclass, field

import numpy as np

from .analytic import _relative_residual, trapezoid_weights
from .hamiltonians import SpinSystemSpec, build_effective, build_rotating_heisenberg
from .noise import NoiseModel
from .operators import MAX_SPINS, DensityMatrix, spin_operators

__all__ = [
    "DEFAULT_SEED",
    "TimeGrid",
    "ObservableSpec",
    "FidTrace",
    "zero_noise_signal",
    "evolve_fid",
    "residual_ratio",
]

HAMILTONIAN_KINDS = ("effective", "heisenberg")

# Seed and ensemble size of a run that does not set them.
DEFAULT_SEED = 101
DEFAULT_N_REALIZATIONS = 100_000

# Draws per chunk.  Chunk boundaries fix the reduction order, so changing this
# changes result bytes.
_CHUNK_DRAWS = 4096

# Taylor-series terms of the phase sum (see the module docstring): each draw's
# offset from its bin centre is expanded to _TAYLOR_TERMS powers.
_TAYLOR_TERMS = 20

# Histogram rows per rfft call when the phase sum is finished: fewer calls than
# one row each, and a far smaller spectrum than all _TAYLOR_TERMS rows at once.
_FINISH_ROWS = 5

# Refuse a phase sum that would add more bincount entries plus chunk-histogram
# cells than _MAX_WORK_CELLS (R * _TAYLOR_TERMS + chunks * _TAYLOR_TERMS * M),
# or whose (_TAYLOR_TERMS, M) histogram would hold more than
# _MAX_HISTOGRAM_CELLS.  The work bound caps time but not memory: one draw on
# a huge grid does little work yet needs the whole histogram (8 bytes a cell).
# M <= 2^20 (grids up to 524 288 points, 128 times the largest preset grid)
# gives about 168 MB of histogram.  The finish adds one block of _FINISH_ROWS
# spectra of M / 2 + 1 modes (about 42 MB at this bound) and a few O(n) rows
# (the weight row and the sum, about 8.4 MB each), and no table is kept
# between calls.
_MAX_WORK_CELLS = 20_000_000_000
_MAX_HISTOGRAM_CELLS = _TAYLOR_TERMS << 20

# Relative tolerance of the run-time checks behind the D(t) chi(t) factorisation.
_FACTORISATION_TOL = 1e-9

# Largest rounding error, rad, allowed in the phase w t of D(t)'s fastest line at the end of the grid.
_MAX_PHASE_ERROR = 1e-6


@dataclass(frozen=True)
class TimeGrid:
    """Uniform acquisition grid: n_points samples from 0 to t_max inclusive."""

    t_max: float = 0.024
    n_points: int = 481

    def __post_init__(self) -> None:
        if not (self.t_max > 0.0 and math.isfinite(self.t_max)):
            raise ValueError(f"t_max must be positive and finite, got {self.t_max!r}")
        if self.n_points < 2:
            raise ValueError(f"n_points must be at least 2, got {self.n_points}")

    @functools.cached_property
    def points(self) -> np.ndarray:
        """Sample times np.linspace(0, t_max, n_points), s: built once per grid and shared, so read-only."""
        t = np.linspace(0.0, self.t_max, self.n_points)
        t.setflags(write=False)
        return t

    @property
    def dt(self) -> float:
        return self.t_max / (self.n_points - 1)


@dataclass(frozen=True)
class ObservableSpec:
    """Which transverse magnetization is recorded.

    kind 'single' records I_x, I_y of spin ``index``; kind 'total' sums
    over all spins.  Both are single-quantum, which the D(t) chi(t)
    factorisation relies on.
    """

    kind: str = "single"
    index: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ("single", "total"):
            raise ValueError(f"observable kind must be 'single' or 'total', got {self.kind!r}")
        if self.kind == "single" and self.index < 0:
            raise ValueError(f"observable index must be >= 0, got {self.index}")
        if self.kind == "total":
            object.__setattr__(self, "index", 0)  # a total readout has no spin index

    @classmethod
    def single(cls, index: int) -> "ObservableSpec":
        return cls(kind="single", index=index)

    @classmethod
    def total(cls) -> "ObservableSpec":
        return cls(kind="total")

    def sites(self, n_spins: int) -> list[int]:
        if self.kind == "total":
            return list(range(n_spins))
        if self.index >= n_spins:
            raise ValueError(f"observable spin {self.index} out of range for {n_spins} spins")
        return [self.index]

    def ladder_matrix(self, n_spins: int) -> np.ndarray:
        """Complex observable O = sum_sites (I_x + i I_y); Tr(rho O) = mx + i my."""
        out = np.zeros((2**n_spins, 2**n_spins), dtype=complex)
        for i_x, i_y, _ in spin_operators(n_spins)[self.sites(n_spins)]:
            out += i_x + 1j * i_y
        return out


@dataclass(frozen=True, eq=False)
class FidTrace:
    """Ensemble-averaged FID on a time grid.

    mperp is always the modulus of the averaged components: it is derived
    as hypot(mx, my) and cannot be passed in.  ``polarization``, the
    deviation amplitude of the initial state, feeds the CSV trailer's
    ``# polarization`` line.
    """

    grid: TimeGrid
    mx: np.ndarray
    my: np.ndarray
    _: KW_ONLY
    n_realizations: int
    seed: int
    polarization: float = 1.0
    mperp: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        for name in ("mx", "my"):
            # A private copy: freezing the caller's array would make it read-only.
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (self.grid.n_points,):
                raise ValueError(f"{name} must have shape ({self.grid.n_points},), got {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        mperp = np.hypot(self.mx, self.my)
        mperp.setflags(write=False)
        object.__setattr__(self, "mperp", mperp)

    @classmethod
    def from_components(
        cls,
        grid: TimeGrid,
        mx: np.ndarray,
        my: np.ndarray,
        n_realizations: int,
        seed: int,
        polarization: float = 1.0,
    ) -> "FidTrace":
        """The constructor with positional metadata; kept only for the benchmark's checks in ``perfbench/``."""
        return cls(grid, mx, my, n_realizations=n_realizations, seed=seed, polarization=polarization)


def _resolve_workers(count: int | None) -> int:
    """Validate a worker count for ``run_experiment``; chunks run in the calling thread, so the count used is 1."""
    if count is not None and count < 1:
        raise ValueError(f"worker count must be >= 1, got {count}")
    return 1


def _chunk_bounds(n_realizations: int) -> list[tuple[int, int]]:
    """Fixed chunk boundaries; a function of the realization count only."""
    return [(lo, min(lo + _CHUNK_DRAWS, n_realizations)) for lo in range(0, n_realizations, _CHUNK_DRAWS)]


@functools.lru_cache(maxsize=MAX_SPINS)
def _sectors(n_spins: int) -> tuple[np.ndarray, ...]:
    """Shared read-only basis indices of each total-I_z sector of ``n_spins`` spins, lowest m first."""
    m = spin_operators(n_spins)[:, 2].sum(axis=0).diagonal().real  # total I_z of each basis state
    order = np.broadcast_to(np.argsort(m, kind="stable"), m.shape)  # a read-only view, as are its sectors
    return tuple(np.split(order, np.flatnonzero(np.diff(m[order])) + 1))


def _require_factorisation(h0: np.ndarray, obs: np.ndarray, n_spins: int) -> None:
    """Raise unless H0 keeps and O raises by one the total I_z of each basis state (see the module docstring)."""
    m = np.zeros(2**n_spins)  # m_j: total I_z of basis state j, less the lowest m
    for value, sector in enumerate(_sectors(n_spins)):
        m[sector] = value
    step = m[:, None] - m[None, :]  # [sum_i I_iz, A]_jk = step_jk A_jk for any A
    for matrix, kept, refusal in (
        (h0, 0, "Hamiltonian does not conserve total I_z"), (obs, 1, "observable is not single-quantum")
    ):
        size = np.abs(matrix)
        stray = size[step != kept].max()
        if not stray <= _FACTORISATION_TOL * size.max():
            raise ValueError(
                f"{refusal} (an entry joining states whose m_j - m_k is not {kept} reaches {stray:.3g}, "
                f"the largest entry {size.max():.3g}); the ensemble average does not factorise as D(t) chi(t)"
            )


def _zero_noise_signal(h0: np.ndarray, rho: np.ndarray, obs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """D(t) = Tr(exp(-i H0 t) rho exp(i H0 t) O) = sum_jk A_jk exp(-i w_jk t), from H0's sector blocks."""
    blocks = [(s, *np.linalg.eigh(h0[s][:, s])) for s in _sectors(h0.shape[0].bit_length() - 1)]
    a, w = [np.zeros(0, dtype=complex)], [np.zeros(0)]
    for (lo, vals_lo, vecs_lo), (hi, vals_hi, vecs_hi) in zip(blocks, blocks[1:]):
        if (coherence := rho[lo][:, hi]).any():  # O raises m by one: only rho's (m, m + 1) blocks are read out
            a.append(((vecs_lo.conj().T @ coherence @ vecs_hi) * (vecs_hi.conj().T @ obs[hi][:, lo] @ vecs_lo).T).ravel())
            w.append(np.subtract.outer(vals_lo, vals_hi).ravel())
    a, w = np.concatenate(a), np.concatenate(w)
    return (a[a != 0.0, None] * np.exp(-1j * np.outer(w[a != 0.0], t))).sum(axis=0)


def _bin_count(n_points: int) -> int:
    """Bins M of the phase sum: the smallest power of two with M >= 2 n_points."""
    return 1 << (2 * n_points - 1).bit_length()


def _require_precision(spec: SpinSystemSpec, grid: TimeGrid, noise: NoiseModel | None = None) -> None:
    """Raise unless the grid's phases keep their digits: D(t)'s line phases w t and, given ``noise``,
    the draws' phase positions eta dt M / 2 pi."""
    # |w| <= B, so a phase w t on the grid is rounded by up to B t_max 2**-53 rad.
    phase_error = spec.frequency_bound * grid.t_max * 2.0**-53
    if not phase_error <= _MAX_PHASE_ERROR:
        raise ValueError(
            f"offsets and couplings too large for this grid: their bound B = {spec.frequency_bound:.3g} rad/s "
            f"gives line phases w t a rounding error B t_max 2**-53 = {phase_error:.4g} rad, over the "
            f"{_MAX_PHASE_ERROR:g} rad bound"
        )
    # From 2**53 bins on, a draw of typical size has a phase position with no fraction of a bin.
    if noise is not None and noise.width_rad * (grid.dt * _bin_count(grid.n_points) / math.tau) >= 2.0**53:
        raise ValueError(
            f"noise width {noise.width!r} is too wide for this grid: a typical draw's phase position "
            "eta dt M / 2 pi reaches 2**53 bins and keeps no fraction of a bin"
        )


@functools.lru_cache(maxsize=1)
def _phase_sum(noise: NoiseModel, grid: TimeGrid, n_realizations: int, seed: int) -> np.ndarray:
    """Read-only R chi(t_k) = sum_r exp(i eta_r t_k) on the grid, by a type-1 NUFFT (see the module docstring).

    The last ensemble's sum is cached, so consecutive runs on one ensemble share it.
    """
    n = grid.n_points
    m = _bin_count(n)
    terms = _TAYLOR_TERMS
    work = n_realizations * terms + -(-n_realizations // _CHUNK_DRAWS) * terms * m
    if work > _MAX_WORK_CELLS or terms * m > _MAX_HISTOGRAM_CELLS:
        raise ValueError(
            f"requested {n_realizations} realizations x {n} grid points needs {work} "
            f"bincount entries and histogram cells and a {terms} x {m} histogram, over the "
            f"work limit of {_MAX_WORK_CELLS} cells or {_MAX_HISTOGRAM_CELLS} histogram cells"
        )
    bins_per_rad = m / math.tau
    # Row p of the histogram sums f_r^p over the draws in each bin.
    hist = np.zeros((terms, m))
    for lo, hi in _chunk_bounds(n_realizations):
        # x_r = eta_r dt mod 2 pi, in bins; a period of exactly m bins keeps the wrap exact.
        x = np.mod(noise.sample_block(seed, lo, hi - lo) * (grid.dt * bins_per_rad), m)
        centre = np.rint(x)
        offset = x - centre  # f_r, in [-1/2, 1/2]
        cells = centre.astype(np.intp) & (m - 1)  # centre m (x rounded up to a full period) is bin 0
        power = np.ones_like(offset)
        for row in hist:
            row += np.bincount(cells, weights=power, minlength=m)
            power *= offset
    # Mode k of rfft row p is sum_j H_p[j] exp(-i k h j), so the sum over p of its first n modes
    # times w_p = (-i k h)^p / p! is the conjugate of R chi(t_k).  The rows go through rfft
    # _FINISH_ROWS at a time; w_p = w_{p-1} (-i k h / p), and the rows are added in p order.
    minus_ikh = (-2j * math.pi / m) * np.arange(n)
    weight = np.ones(n, dtype=complex)
    chi = np.zeros(n, dtype=complex)
    for first in range(0, terms, _FINISH_ROWS):
        spectrum = np.fft.rfft(hist[first : first + _FINISH_ROWS], axis=1)
        for p, modes in enumerate(spectrum[:, :n], first):
            if p:
                weight *= minus_ikh / p
            modes *= weight
            chi += modes
        del spectrum, modes  # free this block before the next one is transformed
    np.conjugate(chi, out=chi)
    chi.setflags(write=False)
    return chi


def _checked_parts(
    spec: SpinSystemSpec, initial: DensityMatrix, observable: ObservableSpec | None, hamiltonian: str
) -> tuple[np.ndarray, np.ndarray]:
    """H0 = H(eta = 0) and the ladder observable O, once the D(t) chi(t) factorisation is checked."""
    if initial.dim != spec.dim:
        raise ValueError(f"state dimension {initial.dim} does not match spec dimension {spec.dim}")
    if hamiltonian not in HAMILTONIAN_KINDS:
        raise ValueError(f"hamiltonian must be one of {HAMILTONIAN_KINDS}, got {hamiltonian!r}")
    observable = observable if observable is not None else ObservableSpec.single(spec.n_spins - 1)
    obs = observable.ladder_matrix(spec.n_spins)
    build = build_effective if hamiltonian == "effective" else build_rotating_heisenberg
    h0 = build(spec, eta_z=0.0)  # finite: SpinSystemSpec bounds every entry
    _require_factorisation(h0, obs, spec.n_spins)
    return h0, obs


def zero_noise_signal(
    spec: SpinSystemSpec,
    initial: DensityMatrix,
    grid: TimeGrid,
    observable: ObservableSpec | None = None,
    hamiltonian: str = "effective",
) -> np.ndarray:
    """D(t) on the grid: the complex signal mx + i my of one realization with eta = 0.

    Every realization's signal is D(t) exp(i eta_r t), so ``evolve_fid``
    returns D(t) chi(t).  Raises ValueError where that factorisation
    fails or the line phases on the grid keep too few digits, exactly as
    ``evolve_fid`` does.
    """
    h0, obs = _checked_parts(spec, initial, observable, hamiltonian)
    _require_precision(spec, grid)
    return _zero_noise_signal(h0, initial.matrix, obs, grid.points)


def evolve_fid(
    spec: SpinSystemSpec,
    initial: DensityMatrix,
    noise: NoiseModel,
    grid: TimeGrid,
    observable: ObservableSpec | None = None,
    n_realizations: int = DEFAULT_N_REALIZATIONS,
    seed: int = DEFAULT_SEED,
    hamiltonian: str = "effective",
) -> FidTrace:
    """Ensemble-averaged FID of ``initial`` under the chosen Hamiltonian.

    Raises ValueError if the Hamiltonian does not conserve total I_z or
    the observable is not single-quantum, since the D(t) chi(t)
    factorisation would then give a wrong answer, and where the phases
    on the grid keep too few digits: the line phases once B t_max 2**-53
    exceeds 1e-6 rad (B = ``spec.frequency_bound``), or a typical draw's
    phase position once it reaches 2**53 bins.  A call on the same
    (noise, grid, n_realizations, seed) as the call before reuses that
    call's phase sum, with the same result bytes.
    """
    if n_realizations < 1:
        raise ValueError(f"n_realizations must be >= 1, got {n_realizations}")
    h0, obs = _checked_parts(spec, initial, observable, hamiltonian)
    _require_precision(spec, grid, noise)
    # Summed first: its work limit refuses an oversized grid before D(t) is built on it.
    chi = _phase_sum(noise, grid, n_realizations, seed)
    signal = _zero_noise_signal(h0, initial.matrix, obs, grid.points) * chi
    signal /= n_realizations

    return FidTrace(
        grid, signal.real, signal.imag, n_realizations=n_realizations, seed=seed, polarization=spec.polarization
    )


def residual_ratio(trace: FidTrace, baseline: FidTrace) -> float:
    """Integrated relative deviation between two traces' moduli.

    R = integral |A - A_0| dt / integral A_0 dt with composite trapezoid
    weights on the shared grid; ``baseline`` supplies A_0.
    """
    if trace.grid != baseline.grid:
        raise ValueError("traces live on different grids")
    return _relative_residual(trace.mperp, baseline.mperp, trapezoid_weights(trace.grid.points))
