"""Spin-1/2 operator algebra on small tensor-product Hilbert spaces.

Conventions used throughout the package:

* hbar = 1, so Hamiltonians are angular frequencies (rad/s) and spin
  operators are dimensionless: I_a = sigma_a / 2.
* An n-spin operator is a dense complex ndarray of shape (2**n, 2**n).
* Site 0 is the leftmost Kronecker factor.  A computational basis state
  |b0 b1 ... b_{n-1}> maps to the row index with b0 as the most
  significant bit, and |0> is the sigma_z eigenstate with eigenvalue +1.

Matrix exponentials of Hermitian generators are evaluated by scaling and
squaring a Taylor polynomial, with no eigensolver, so that the per-draw
propagation built on them is a reference independent of the engine's
eigh of each magnetization sector.

``spin_operators(n)`` builds every site's I_x, I_y, I_z once per register
size.  Every Hamiltonian, readout and thermal state shares that table, so
it is read-only: one caller's write would change every later run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["MAX_SPINS", "pauli", "embed", "spin_operators", "expm_hermitian", "DensityMatrix"]

HERMITICITY_TOL = 1e-10

# Largest register the dense builders accept.
MAX_SPINS = 4

PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
for _m in PAULI.values():
    _m.setflags(write=False)


def pauli(axis: str) -> np.ndarray:
    """Return the 2x2 Pauli matrix for ``axis`` in {'i', 'x', 'y', 'z'}."""
    try:
        return PAULI[axis]
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}, expected one of i/x/y/z") from None


def require_square(a: np.ndarray) -> int:
    """Check that ``a`` is a square matrix over a power-of-two dimension."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    dim = a.shape[0]
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"dimension {dim} is not a power of two")
    return dim


def require_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    defect = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if not defect <= tol:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {tol:.1e})")


def embed(op: np.ndarray, site: int, n_spins: int) -> np.ndarray:
    """Embed a single-spin operator at ``site`` into an ``n_spins`` register.

    Identity factors fill the remaining sites; site 0 is the leftmost
    Kronecker factor.  embed(pauli('z'), 0, 2) == diag(1, 1, -1, -1).

    The product left (x) op (x) right is one broadcast multiplication over
    the axes (row_left, row_op, row_right, col_left, col_op, col_right),
    reshaped to a matrix.  It multiplies the same factors in the same
    order as np.kron(np.kron(left, op), right), so the result is
    bit-identical to it, signed zeros included, at a fraction of the cost.
    """
    if op.shape != (2, 2):
        raise ValueError(f"expected a 2x2 single-spin operator, got {op.shape}")
    if not 0 <= site < n_spins:
        raise ValueError(f"site {site} out of range for {n_spins} spins")
    left = np.eye(2**site, dtype=complex)
    right = np.eye(2 ** (n_spins - site - 1), dtype=complex)
    out = left[:, None, None, :, None, None] * op[None, :, None, None, :, None] * right[None, None, :, None, None, :]
    return out.reshape(2**n_spins, 2**n_spins)


@functools.lru_cache(maxsize=MAX_SPINS)
def spin_operators(n_spins: int) -> np.ndarray:
    """Shared read-only (n_spins, 3, 2**n, 2**n) table: [site, a] = 0.5 * embed(pauli("xyz"[a]), site, n_spins)."""
    if not 1 <= n_spins <= MAX_SPINS:
        raise ValueError(f"n_spins must be in [1, {MAX_SPINS}], got {n_spins}")
    table = np.array([[0.5 * embed(pauli(axis), site, n_spins) for axis in "xyz"] for site in range(n_spins)])
    table.setflags(write=False)
    return table


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary exp(-i h t) for Hermitian ``h``, with no eigensolver; the returned array is read-only.

    Scaling and squaring (Moler & Van Loan, SIAM Rev. 45, 3 (2003), method 3): A = -i h t / 2**s
    with the least s >= 0 that brings ||A||_1 to at most 1/2, exp(A) from its degree-18 Taylor
    polynomial in Horner form (the first omitted term is below 2**-19 / 19! = 1.6e-23), then s squarings.
    """
    dim = require_square(h)
    require_hermitian(h)
    a = (-1j * t) * np.asarray(h, dtype=complex)
    squarings = max(0, math.frexp(2.0 * np.abs(a).sum(axis=0).max())[1])
    a /= 2.0**squarings
    eye = np.eye(dim, dtype=complex)
    u = eye
    for k in range(18, 0, -1):  # I + A (I + A / 2 (... (I + A / 18)))
        u = eye + (a @ u) / k
    for _ in range(squarings):
        u = u @ u
    u.setflags(write=False)
    return u


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """State of the spin register: Hermitian, unit trace.

    Positivity is deliberately not enforced at construction.  The
    high-temperature (linearized) thermal state used here carries
    negative eigenvalues once n*|p| exceeds 1 while remaining a valid
    source of expectation values, which are linear in the state.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        dim = require_square(self.matrix)
        m = np.array(self.matrix, dtype=complex)
        require_hermitian(m)
        tr = np.trace(m).real
        if not abs(tr - 1.0) <= 1e-10:
            raise ValueError(f"density matrix trace is {tr!r}, expected 1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", dim)

    dim: int = field(init=False, repr=False, default=0)

    @property
    def n_spins(self) -> int:
        return int(self.dim).bit_length() - 1

    def expect(self, observable: np.ndarray) -> float:
        """Real expectation value Tr(rho * observable) of a Hermitian observable."""
        if self.matrix.shape != observable.shape:
            raise ValueError(f"dimension mismatch: state {self.matrix.shape} vs observable {observable.shape}")
        require_hermitian(observable)
        value = np.trace(self.matrix @ observable)
        if abs(value.imag) > 1e-9 * max(1.0, abs(value.real)):
            raise ValueError(f"expectation value has a non-negligible imaginary part: {value}")
        return float(value.real)
