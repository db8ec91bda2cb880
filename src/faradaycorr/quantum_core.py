"""Dense complex operator algebra and spin-system constructors.

Everything here works on small dense matrices (target dimensions of a few
tens at most), stored as ``numpy`` complex arrays.

All functions are pure; returned arrays are fresh and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, NonHermitianError, check_memory
from .tolerances import TOL

Array = np.ndarray

# Final times per block of SpectralData.final_traces, so that its memory grows
# with d and not with the grid length; the benchmark's grids fit in one block.
FINAL_TIME_BLOCK = 512


def as_operator(entries) -> Array:
    """Coerce input to a square complex matrix."""
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def is_hermitian(a: Array, tol: float = TOL.structural) -> bool:
    a = as_operator(a)
    return float(np.max(np.abs(a - a.conj().T))) <= tol


def require_hermitian(a: Array, what: str = "operator", tol: float = TOL.structural) -> Array:
    a = as_operator(a)
    if not is_hermitian(a, tol):
        raise NonHermitianError(f"{what} is not Hermitian within {tol}")
    return a


def hermitian_expm(h: Array, t: float) -> Array:
    """exp(-i h t) for Hermitian h, via eigendecomposition.

    The result is unitary up to roundoff because the eigenvector matrix of a
    Hermitian operator is unitary and the eigenphases have unit modulus.
    """
    h = require_hermitian(h, "generator")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def spin_operators(two_j: int) -> tuple[Array, Array, Array]:
    """Standard spin-j matrices (Jx, Jy, Jz), dim = two_j + 1.

    Satisfy [Ja, Jb] = i eps_abc Jc and Jx^2+Jy^2+Jz^2 = j(j+1) I.
    """
    if two_j < 0 or int(two_j) != two_j:
        raise ValueError("two_j must be a non-negative integer")
    check_memory(6 * 16 * (two_j + 1) ** 2, f"spin-{two_j}/2 operators")  # with temporaries
    j = two_j / 2.0
    m = np.arange(j, -j - 1, -1.0)  # j, j-1, ..., -j
    jz = np.diag(m).astype(complex)
    # <j, m+1| J+ |j, m> = sqrt(j(j+1) - m(m+1)); basis ordered by decreasing m
    lower = m[1:]
    jp = np.zeros((two_j + 1, two_j + 1), dtype=complex)
    jp[np.arange(two_j), np.arange(1, two_j + 1)] = np.sqrt(j * (j + 1) - lower * (lower + 1))
    jm = jp.conj().T
    jx = (jp + jm) / 2
    jy = (jp - jm) / 2j
    return jx, jy, jz


def thermal_state(h: Array, beta: float) -> "DensityMatrix":
    """Gibbs state exp(-beta h)/Z via eigendecomposition."""
    h = require_hermitian(h, "hamiltonian")
    if beta < 0:
        raise ValueError("beta must be >= 0")
    w, v = np.linalg.eigh(h)
    p = np.exp(-beta * (w - w.min()))
    p /= p.sum()
    return DensityMatrix((v * p) @ v.conj().T)


@dataclass(frozen=True)
class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite operator."""

    matrix: Array

    def __post_init__(self):
        m = as_operator(self.matrix)
        object.__setattr__(self, "matrix", m)
        if not is_hermitian(m, TOL.structural):
            raise NonHermitianError("density matrix is not Hermitian within tolerance")
        tr = np.trace(m)
        if abs(tr - 1.0) > TOL.structural:
            raise ValueError(f"density matrix trace {tr} is not 1 within tolerance")
        if np.linalg.eigvalsh(m).min() < -TOL.structural:
            raise ValueError("density matrix has a significantly negative eigenvalue")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def pure_state(ket) -> DensityMatrix:
    """Density matrix of a (normalized) state vector."""
    v = np.asarray(ket, dtype=complex).ravel()
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


@dataclass(frozen=True)
class TargetModel:
    """Target spin system: Hamiltonian, coupling operator, initial state.

    ``hamiltonian`` and ``coupling`` are Hermitian, in rad/s (hbar = 1).
    """

    hamiltonian: Array
    coupling: Array
    initial_state: DensityMatrix

    def __post_init__(self):
        h = require_hermitian(self.hamiltonian, "hamiltonian")
        b = require_hermitian(self.coupling, "coupling")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "coupling", b)
        if not (h.shape[0] == b.shape[0] == self.initial_state.dim):
            raise DimensionMismatchError("hamiltonian, coupling and state dims differ")

    @property
    def dim(self) -> int:
        return self.initial_state.dim

    @cached_property
    def spectral(self) -> "SpectralData":
        """Eigendata of H and B, computed on first use and kept with the model."""
        return SpectralData.of(self)


@dataclass(frozen=True)
class SpectralData:
    """A target model in the eigenbasis of its Hamiltonian.

    With H = V diag(E) V†, the interaction-picture coupling in that basis is
    B(t)_ij = B_ij exp(i (E_i - E_j) t). It is unitarily similar to B, so its
    eigenvalues are those of B and its eigenvectors are diag(exp(iEt)) V_B,
    where B = V_B diag(w_B) V_B† in the H eigenbasis. One eigendecomposition
    of H and one of B therefore serve every shot time.
    """

    energies: Array          # E, eigenvalues of H (ascending)
    basis: Array             # V, columns are the eigenvectors of H
    coupling: Array          # B in the H eigenbasis
    initial_state: Array     # rho0 in the H eigenbasis
    coupling_eigvals: Array  # w_B, eigenvalues of B (ascending)
    coupling_eigvecs: Array  # V_B, eigenvectors of B in the H eigenbasis
    coupling_norm: float     # spectral norm of B, max |w_B|

    @classmethod
    def of(cls, model: TargetModel) -> "SpectralData":
        energies, basis = np.linalg.eigh(model.hamiltonian)
        coupling = basis.conj().T @ model.coupling @ basis
        coupling = (coupling + coupling.conj().T) / 2
        w_b, v_b = np.linalg.eigh(coupling)
        rho = basis.conj().T @ model.initial_state.matrix @ basis
        for a in (energies, basis, coupling, rho, w_b, v_b):
            a.setflags(write=False)  # shared by every caller of the model
        return cls(
            energies=energies,
            basis=basis,
            coupling=coupling,
            initial_state=rho,
            coupling_eigvals=w_b,
            coupling_eigvecs=v_b,
            coupling_norm=float(np.max(np.abs(w_b), initial=0.0)),
        )

    def phases(self, t: float) -> Array:
        """diag(exp(iEt)), the H-eigenbasis form of exp(+iHt)."""
        return np.exp(1j * self.energies * t)

    def coupling_at(self, t: float) -> Array:
        """B(t) in the H eigenbasis: one elementwise phase multiply."""
        p = self.phases(t)
        return p[:, None] * self.coupling * p.conj()[None, :]

    def coupling_eigvecs_at(self, t: float) -> Array:
        """Eigenvectors of B(t) in the model's basis, ordered as ``coupling_eigvals``."""
        return self.basis @ (self.phases(t)[:, None] * self.coupling_eigvecs)

    def to_model_basis(self, x: Array) -> Array:
        return self.basis @ x @ self.basis.conj().T

    def final_traces(self, x: Array, rho: Array, times) -> Array:
        """Tr[X(t) rho] for each t, with X(t) = exp(iHt) X exp(-iHt).

        ``x`` and ``rho`` are in the H eigenbasis. Each time costs O(d^2) and
        no d x d matrix is formed per time. The times are taken in blocks of
        ``FINAL_TIME_BLOCK``: the phases, their product with the weights,
        their conjugate and the product of those two are four block x d
        complex arrays held at once, which is what the memory guard sees.
        """
        times = np.asarray(times, dtype=float)
        d, block = self.energies.size, min(times.size, FINAL_TIME_BLOCK)
        check_memory(4 * 16 * block * d, f"final-time block of {block} times at d={d}")
        weights = x * rho.T
        out = np.empty(times.size, dtype=complex)
        for start in range(0, times.size, FINAL_TIME_BLOCK):
            p = np.exp(1j * np.outer(times[start:start + FINAL_TIME_BLOCK], self.energies))
            out[start:start + FINAL_TIME_BLOCK] = np.sum((p @ weights) * p.conj(), axis=1)
        return out
