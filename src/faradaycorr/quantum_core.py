"""Dense complex operator algebra and spin-system constructors.

Everything here works on dense matrices stored as ``numpy`` complex arrays.
The target dimension is bounded only by the memory guard: the spectral data
of a d = 1024 target take a few seconds.

All functions are pure; returned arrays are fresh and safe to share.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, NonHermitianError, NumericalGuardError, check_memory

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


# Hermiticity (relative to the largest entry), unit trace and positivity of states.
STRUCTURAL_TOL = 1e-10


def is_hermitian(a: Array) -> bool:
    """Whether max|a - a^dag| is at most ``STRUCTURAL_TOL`` times max|a|, so
    that the guard scales with the entries it checks. A difference past the
    float range is infinite, and so not Hermitian."""
    a = as_operator(a)
    with np.errstate(over="ignore"):
        size = float(np.max(np.abs(a)))
        if size == np.inf:  # a modulus past the float range; halves keep the ratio below
            a = a / 2
            size = float(np.max(np.abs(a)))
        asymmetry = float(np.max(np.abs(a - a.conj().T)))
    return asymmetry <= STRUCTURAL_TOL * size


def require_hermitian(a: Array, what: str = "operator") -> Array:
    a = as_operator(a)
    if not is_hermitian(a):
        raise NonHermitianError(f"{what} is not Hermitian within {STRUCTURAL_TOL} of its largest entry")
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
    if not 0 <= beta < np.inf:
        raise ValueError(f"beta must be >= 0 and finite, got {beta}")
    w, v = np.linalg.eigh(h)
    with np.errstate(over="ignore"):  # the beta -> inf limit: exp(-inf) = 0 leaves the ground-state projector
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
        if not is_hermitian(m):
            raise NonHermitianError("density matrix is not Hermitian within tolerance")
        tr = np.trace(m)
        if abs(tr - 1.0) > STRUCTURAL_TOL:
            raise ValueError(f"density matrix trace {tr} is not 1 within tolerance")
        if np.linalg.eigvalsh(m).min() < -STRUCTURAL_TOL:
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


# Degenerate-eigenvalue clustering width, relative to the largest |eigenvalue|.
EIGEN_CLUSTER_TOL = 1e-9


def cluster_eigenvalues(w: Array) -> Array:
    """Snap near-degenerate (sorted) eigenvalues to their cluster means.

    Neighbours closer than ``EIGEN_CLUSTER_TOL`` times the largest |w| form
    one cluster, so the width scales with the spectrum.
    """
    w = np.asarray(w, dtype=float)
    out = w.copy()
    width = EIGEN_CLUSTER_TOL * np.max(np.abs(w), initial=0.0)
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > width:
            out[start:i] = w[start:i].mean()
            start = i
    return out


@dataclass(frozen=True)
class SpectralData:
    """A target model in the eigenbasis of its Hamiltonian.

    With H = V diag(E) V†, the interaction-picture coupling in that basis is
    B(t)_ij = B_ij exp(i (E_i - E_j) t). It is unitarily similar to B, so its
    eigenvalues are those of B and its eigenvectors are diag(exp(iEt)) V_B,
    where B = V_B diag(w_B) V_B† in the H eigenbasis. One eigendecomposition
    of H and one of B, its eigenvalues clustered once here, serve every shot.
    """

    energies: Array          # E, eigenvalues of H (ascending)
    basis: Array             # V, columns are the eigenvectors of H
    coupling: Array          # B in the H eigenbasis
    initial_state: Array     # rho0 in the H eigenbasis
    coupling_eigvals: Array  # w_B, clustered eigenvalues of B (ascending)
    coupling_eigvecs: Array  # V_B, eigenvectors of B in the H eigenbasis
    coupling_norm: float     # spectral norm of B, max |w_B|

    @classmethod
    def of(cls, model: TargetModel) -> "SpectralData":
        """The eigendata of ``model``; ``NumericalGuardError`` if the
        eigenvalues of H or of B leave the float range."""
        energies, basis = np.linalg.eigh(model.hamiltonian)
        if not np.isfinite(energies).all():
            raise NumericalGuardError("the eigenvalues of the hamiltonian leave the float range")
        coupling = basis.conj().T @ model.coupling @ basis
        coupling = coupling / 2 + coupling.conj().T / 2  # halved first, so that the sum stays in range
        if not np.isfinite(coupling).all():  # eigh reads one triangle, and may not carry a NaN through
            raise NumericalGuardError("the coupling leaves the float range in the eigenbasis of the hamiltonian")
        w_b, v_b = np.linalg.eigh(coupling)
        if not np.isfinite(w_b).all():
            raise NumericalGuardError("the eigenvalues of the coupling leave the float range")
        w_b = cluster_eigenvalues(w_b)
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

    def phases(self, t) -> Array:
        """diag(exp(iEt)), the H-eigenbasis form of exp(+iHt); for a column
        of times, one row per time. An angle E t past the float range raises
        ``NumericalGuardError`` naming its time."""
        with np.errstate(over="ignore", invalid="ignore"):
            angle = self.energies * t
        if not np.isfinite(angle).all():
            time = np.broadcast_to(t, angle.shape)[~np.isfinite(angle)][0]
            raise NumericalGuardError(f"the phase exp(iEt) leaves the float range at |t| = {abs(time):.4g}")
        return np.exp(1j * angle)

    def walk(self, times) -> Iterator[Array]:
        """Changes of coordinates from the H eigenbasis into the eigenbasis of
        B(t_j) at each of ``times`` in turn and back, from the time gaps alone:
        V_B† diag(exp(-iE t_1)), then V_B† diag(exp(-iE (t_j - t_{j-1}))) V_B
        per later shot, then diag(exp(iE t_K)) V_B. No times give the identity.
        Each change is formed when it is read, so the walk holds one at a time.
        """
        v = self.coupling_eigvecs
        if len(times) == 0:
            yield np.eye(len(v), dtype=complex)
            return
        with np.errstate(over="ignore"):  # an infinite gap is refused by ``phases``
            gaps = np.diff(np.asarray(times, dtype=float), prepend=0.0)
        yield v.conj().T * self.phases(-gaps[0])
        for gap in gaps[1:]:
            yield (v.conj().T * self.phases(-gap)) @ v
        yield self.phases(times[-1])[:, None] * v

    def final_traces(self, closing, times) -> Array:
        """Tr[X(t) rho] for each (x, rho) pair of ``closing`` and each t, with
        X(t) = exp(iHt) X exp(-iHt): one row of traces per pair.

        ``x`` and ``rho`` are in the H eigenbasis. Each time costs O(d^2) per
        pair and no d x d matrix is formed per time; the pairs share the phases
        of each time. The times are taken in blocks of ``FINAL_TIME_BLOCK``:
        the phases, their conjugate, a pair's product with them and that
        product's product with the conjugate are four block x d complex
        arrays held at once, which is what the memory guard sees.
        """
        times = np.asarray(times, dtype=float)
        d, block = self.energies.size, min(times.size, FINAL_TIME_BLOCK)
        check_memory(4 * 16 * block * d, f"final-time block of {block} times at d={d}")
        weights = [x * rho.T for x, rho in closing]
        out = np.empty((len(weights), times.size), dtype=complex)
        for start in range(0, times.size, FINAL_TIME_BLOCK):
            p = self.phases(times[start:start + FINAL_TIME_BLOCK, None])
            p_conj = p.conj()
            for row, w in zip(out, weights):
                row[start:start + FINAL_TIME_BLOCK] = np.sum((p @ w) * p_conj, axis=1)
        return out
