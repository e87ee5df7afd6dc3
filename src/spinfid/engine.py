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
is D(t) exp(i eta_r t).  D(t) = sum_jk A_jk exp(-i w_jk t) comes from one
eigendecomposition of H0 = H(eta = 0), and the ensemble mean is D(t)
times the empirical characteristic function chi(t) = mean_r exp(i eta_r t)
(Anderson, JPSJ 9, 316 (1954); Kubo, JPSJ 9, 935 (1954)).  Both
assumptions are checked on every call: ||[H0, sum_i I_iz]|| must vanish
relative to ||H0|| and [sum_i I_iz, O] must equal O, else evolve_fid
raises ValueError instead of returning a wrong answer.

Phase sum: the grid is uniform, t_k = k dt, so writing k = a * side + b
with side = isqrt(n - 1) + 1 and a < rows = ceil(n / side) gives
sum_r exp(i eta_r t_k) = sum_r exp(i eta_r a side dt) exp(i eta_r b dt).
A chunk of R draws takes R * (rows + side) ~ 2 R sqrt(n) complex exps,
and one (rows x R)(R x side) contraction does the rest.

Determinism: realizations are split into fixed-size chunks whose
boundaries depend only on the realization count and the grid length,
each chunk is contracted by numpy's single-threaded einsum loop, and
chunk partials are combined in chunk order.  The contraction avoids
BLAS on purpose: a threaded GEMM splits its sums by the BLAS thread
count, so its result bytes would depend on OPENBLAS_NUM_THREADS.
Worker threads only decide who computes a chunk, so results are
bit-identical for any worker count and any BLAS thread count.  The
worker count comes from the ``workers`` argument, else the
SPINFID_WORKERS environment variable, else the CPU count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import trapezoid_weights
from .hamiltonians import SpinSystemSpec, build_effective, build_rotating_heisenberg
from .noise import NoiseModel
from .operators import DensityMatrix, embed, pauli

__all__ = [
    "TimeGrid",
    "ObservableSpec",
    "FidTrace",
    "evolve_fid",
    "residual_ratio",
    "WORKERS_ENV_VAR",
]

WORKERS_ENV_VAR = "SPINFID_WORKERS"

HAMILTONIAN_KINDS = ("effective", "heisenberg")

# Realization x grid-point cells per chunk.  Chunks are the parallel grain
# and their boundaries fix the reduction order, so changing this changes
# result bytes.  A chunk holds size * (rows + side) complex cells, not size * n.
_CHUNK_CELLS = 4_000_000

# Refuse ensembles whose realization x grid-point product exceeds this.
_MAX_WORK_CELLS = 20_000_000_000

# Relative tolerance of the run-time checks behind the D(t) chi(t) factorisation.
_FACTORISATION_TOL = 1e-9


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

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_points)

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

    @classmethod
    def single(cls, index: int) -> "ObservableSpec":
        return cls(kind="single", index=index)

    @classmethod
    def total(cls) -> "ObservableSpec":
        return cls(kind="total", index=0)

    def sites(self, n_spins: int) -> list[int]:
        if self.kind == "total":
            return list(range(n_spins))
        if self.index >= n_spins:
            raise ValueError(f"observable spin {self.index} out of range for {n_spins} spins")
        return [self.index]

    def ladder_matrix(self, n_spins: int) -> np.ndarray:
        """Complex observable O = sum_sites (I_x + i I_y); Tr(rho O) = mx + i my."""
        out = np.zeros((2**n_spins, 2**n_spins), dtype=complex)
        for site in self.sites(n_spins):
            out += 0.5 * (embed(pauli("x"), site, n_spins) + 1j * embed(pauli("y"), site, n_spins))
        return out


@dataclass(frozen=True)
class FidTrace:
    """Ensemble-averaged FID on a time grid.

    mperp is always the modulus of the averaged components.  The
    deviation amplitude of the initial state is carried along so traces
    can be reported per unit polarization.
    """

    grid: TimeGrid
    mx: np.ndarray
    my: np.ndarray
    mperp: np.ndarray
    n_realizations: int
    seed: int
    polarization: float = 1.0

    def __post_init__(self) -> None:
        for name in ("mx", "my", "mperp"):
            # A private copy: freezing the caller's array would make it read-only.
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (self.grid.n_points,):
                raise ValueError(f"{name} must have shape ({self.grid.n_points},), got {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
        return cls(
            grid=grid,
            mx=mx,
            my=my,
            mperp=np.hypot(mx, my),
            n_realizations=n_realizations,
            seed=seed,
            polarization=polarization,
        )

    @property
    def mperp_normalized(self) -> np.ndarray:
        """Transverse modulus per unit deviation amplitude, mperp / |p|."""
        if self.polarization == 0.0:
            raise ValueError("trace has zero polarization")
        return self.mperp / abs(self.polarization)


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(f"{WORKERS_ENV_VAR} must be an integer, got {env!r}") from None
        else:
            workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def _chunk_bounds(n_realizations: int, n_points: int) -> list[tuple[int, int]]:
    """Fixed chunk boundaries; a function of the problem shape only."""
    size = max(1, _CHUNK_CELLS // n_points)
    return [(lo, min(lo + size, n_realizations)) for lo in range(0, n_realizations, size)]


def _map_chunks(fn, bounds: list[tuple[int, int]], workers: int) -> list[np.ndarray]:
    if workers == 1 or len(bounds) == 1:
        return [fn(lo, hi) for lo, hi in bounds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda b: fn(*b), bounds))


def _require_factorisation(h0: np.ndarray, obs: np.ndarray, n_spins: int) -> None:
    """Raise unless [H0, sum_i I_iz] = 0 and [sum_i I_iz, O] = O (see the module docstring)."""
    z_total = sum(0.5 * embed(pauli("z"), s, n_spins) for s in range(n_spins))
    commutator = float(np.linalg.norm(h0 @ z_total - z_total @ h0))
    if commutator > _FACTORISATION_TOL * max(1.0, float(np.linalg.norm(h0))):
        raise ValueError(
            f"Hamiltonian does not conserve total I_z (||[H0, Iz]|| = {commutator:.3g}); "
            "the ensemble average does not factorise as D(t) chi(t)"
        )
    coherence = float(np.linalg.norm(z_total @ obs - obs @ z_total - obs))
    if coherence > _FACTORISATION_TOL * max(1.0, float(np.linalg.norm(obs))):
        raise ValueError(
            f"observable is not single-quantum (||[Iz, O] - O|| = {coherence:.3g}); "
            "the ensemble average does not factorise as D(t) chi(t)"
        )


def _zero_noise_signal(h0: np.ndarray, rho: np.ndarray, obs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """D(t) = Tr(exp(-i H0 t) rho exp(i H0 t) O) = sum_jk A_jk exp(-i w_jk t) in H0's eigenbasis."""
    vals, vecs = np.linalg.eigh(h0)
    vecs_h = vecs.conj().T
    amplitudes = (vecs_h @ rho @ vecs) * (vecs_h @ obs @ vecs).T  # A_jk = rho_jk * O_kj
    omega = vals[:, None] - vals[None, :]
    mask = np.abs(amplitudes) > 0.0
    a = amplitudes[mask]
    w = omega[mask]
    return (a[:, None] * np.exp(-1j * np.outer(w, t))).sum(axis=0)


def evolve_fid(
    spec: SpinSystemSpec,
    initial: DensityMatrix,
    noise: NoiseModel,
    grid: TimeGrid,
    observable: ObservableSpec | None = None,
    n_realizations: int = 100_000,
    seed: int = 101,
    hamiltonian: str = "effective",
    workers: int | None = None,
) -> FidTrace:
    """Ensemble-averaged FID of ``initial`` under the chosen Hamiltonian.

    Raises ValueError if the Hamiltonian does not conserve total I_z or
    the observable is not single-quantum, since the D(t) chi(t)
    factorisation would then give a wrong answer.
    """
    if initial.dim != spec.dim:
        raise ValueError(f"state dimension {initial.dim} does not match spec dimension {spec.dim}")
    if n_realizations < 1:
        raise ValueError(f"n_realizations must be >= 1, got {n_realizations}")
    if n_realizations * grid.n_points > _MAX_WORK_CELLS:
        raise ValueError(
            f"requested {n_realizations} realizations x {grid.n_points} grid points "
            f"exceeds the work limit of {_MAX_WORK_CELLS} cells"
        )
    if hamiltonian not in HAMILTONIAN_KINDS:
        raise ValueError(f"hamiltonian must be one of {HAMILTONIAN_KINDS}, got {hamiltonian!r}")
    observable = observable if observable is not None else ObservableSpec.single(spec.n_spins - 1)
    obs = observable.ladder_matrix(spec.n_spins)
    build = build_effective if hamiltonian == "effective" else build_rotating_heisenberg
    h0 = build(spec, eta_z=0.0)
    _require_factorisation(h0, obs, spec.n_spins)
    t = grid.points
    workers = _resolve_workers(workers)
    deterministic = _zero_noise_signal(h0, initial.matrix, obs, t)

    side = math.isqrt(grid.n_points - 1) + 1

    def chunk_sum(lo: int, hi: int) -> np.ndarray:
        etas = noise.sample_block(seed, lo, hi - lo)
        e_a = np.exp(1j * np.outer(etas, t[::side]))
        e_b = np.exp(1j * np.outer(etas, t[:side]))
        # einsum without optimize stays out of BLAS (see Determinism above).
        return np.einsum("ra,rb->ab", e_a, e_b, optimize=False).ravel()[: grid.n_points]

    partials = _map_chunks(chunk_sum, _chunk_bounds(n_realizations, grid.n_points), workers)
    signal = deterministic * np.sum(np.stack(partials), axis=0)
    signal /= n_realizations

    return FidTrace.from_components(
        grid=grid,
        mx=signal.real,
        my=signal.imag,
        n_realizations=n_realizations,
        seed=seed,
        polarization=spec.polarization,
    )


def residual_ratio(trace: FidTrace, baseline: FidTrace) -> float:
    """Integrated relative deviation between two traces' moduli.

    R = integral |A - A_0| dt / integral A_0 dt with composite trapezoid
    weights on the shared grid; ``baseline`` supplies A_0.
    """
    if trace.grid != baseline.grid:
        raise ValueError("traces live on different grids")
    t = trace.grid.points
    w = trapezoid_weights(t)
    denominator = float(np.sum(w * baseline.mperp))
    if denominator <= 0.0:
        raise ValueError("baseline modulus integrates to zero")
    return float(np.sum(w * np.abs(trace.mperp - baseline.mperp)) / denominator)
