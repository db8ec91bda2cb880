"""Independent reference implementations that the tests compare the package
against. None of them is runtime code.

* The Liouville chain builds each branch superoperator as a dense d^2 x d^2
  matrix on the column-major vectorization of rho.
* The per-shot chains take a fresh matrix exponential for every B(t) and a
  fresh eigendecomposition of B(t) for every all-orders shot, where the
  package walks from shot to shot on ``TargetModel.spectral``.
* The records are the closed form of ``ShotTable.record``, the dense
  (n_max+1)^2 two-mode Fock computation, and a per-sector one with a
  numerical eigendecomposition of S3 = Jy in each photon-number sector,
  where the package has the sector rows in closed form. ``fock_record`` is
  the package's own sector-row record of one shot, in the form these take.
* The selection traces show which branch each readout basis picks out, from
  the photon-number sector rows of the pulse.
* The Kraus references act on one density matrix per shot, or on n x d x d
  density matrices per chunk, where the Monte Carlo carries state vectors;
  or on the chunk's n x d state vectors at once, with whole-chunk
  temporaries at every step, where the Monte Carlo works in row blocks.
* ``snr_convention_factor`` is the factor between the empirical SNR of the
  per-basis records and the closed-form SNR formulas; only tests apply it.
"""

import math
from dataclasses import dataclass

import numpy as np

from faradaycorr.correlations import BranchSign, CorrelationQuery, apply_branch, real_trace
from faradaycorr.errors import DimensionMismatchError
from faradaycorr.quantum_core import (
    Array,
    DensityMatrix,
    TargetModel,
    as_operator,
    cluster_eigenvalues,
    hermitian_expm,
    require_hermitian,
    spin_operators,
)
from faradaycorr.sensor_optics import (
    MeasurementBasis,
    SectorRows,
    SensorConfig,
    ShotTable,
    _coherent_mode,
    apply_s2,
    apply_s3,
    coherent_state,
    log_factorial,
    required_cutoff,
    stokes_operators,
)
from faradaycorr.trajectory_mc import _branch_probabilities, _draw_branches, _Record
from faradaycorr.weak_measurement import ProtocolSpec


def identity(dim: int) -> Array:
    return np.eye(dim, dtype=complex)


# -- the Liouville-space chain ---------------------------------------------------


def vectorize(rho: Array) -> Array:
    """Column-major (Fortran-order) vectorization of a matrix."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvectorize(v: Array, dim: int) -> Array:
    return np.asarray(v, dtype=complex).reshape(dim, dim, order="F")


def branch_superoperator(b: Array, sign: BranchSign) -> Array:
    """Dense d^2 x d^2 matrix of B^{sign} on column-vectorized states.

    With column-major vectorization, left multiplication by B maps to
    I ⊗ B and right multiplication to B^T ⊗ I.
    """
    b = as_operator(b)
    d = b.shape[0]
    left = np.kron(identity(d), b)
    right = np.kron(b.T, identity(d))
    if sign is BranchSign.PLUS:
        return (left + right) / 2
    return (left - right) / 1j


def liouville_correlation(model: TargetModel, q: CorrelationQuery) -> float:
    """Cross-implementation of ``correlation`` in Liouville space."""
    if q.signs[-1] is BranchSign.MINUS:
        return 0.0
    v = vectorize(model.initial_state.matrix)
    for t, sign in zip(q.times, q.signs):
        v = branch_superoperator(expm_coupling(model, t), sign) @ v
    trace = np.trace(unvectorize(v, model.dim))
    return float(real_trace(trace, model.spectral.coupling_norm**q.order, "Liouville correlation trace"))


# -- per-shot chains ---------------------------------------------------------------


def expm_coupling(model: TargetModel, t: float) -> Array:
    """B(t) = exp(+iHt) B exp(-iHt) from a fresh matrix exponential."""
    u = hermitian_expm(model.hamiltonian, t)
    return u.conj().T @ model.coupling @ u


def spectral_eigvecs(model: TargetModel, t: float) -> Array:
    """Eigenvectors of B(t) in the model's basis, V diag(exp(iEt)) V_B, ordered
    and phased as the package's walk holds them but formed here per time."""
    spec = model.spectral
    return spec.basis @ (np.exp(1j * spec.energies * t)[:, None] * spec.coupling_eigvecs)


def reference_correlation(model: TargetModel, proto: ProtocolSpec) -> float:
    """C of the branches the protocol's bases select, one ``apply_branch`` per shot."""
    rho = model.initial_state.matrix
    for shot in proto.shots:
        rho = apply_branch(expm_coupling(model, shot.time), shot.basis.eta, rho)
    return np.trace(rho).real


def coherent_record(alpha, tau, eigvals, basis: MeasurementBasis) -> Array:
    """Closed-form reference for ``ShotTable.record``: m[i,k] = <chi_k|Lambda|chi_i>
    between the pulses chi_b = (alpha cos theta_b, alpha sin theta_b) rotated
    by theta_b = tau b / 2, with overlap exp(-alpha^2 (1 - cos(theta_i - theta_k)))."""
    theta = 0.5 * tau * np.asarray(eigvals, dtype=float)
    diff = theta[:, None] - theta[None, :]
    overlap = np.exp(-(alpha**2) * (1.0 - np.cos(diff)))
    if basis is MeasurementBasis.S2:
        return 0.5 * alpha**2 * np.sin(theta[:, None] + theta[None, :]) * overlap
    return -1j * alpha**2 * np.sin(diff) * overlap


def fock_record(alpha, tau, eigvals, basis: MeasurementBasis) -> Array:
    """The Fock engine's record of one shot, as the references below give
    theirs: m[i,k] = <chi_k| Lambda |chi_i> between the pulses rotated by
    exp(-i S3 tau b) for the coupling eigenvalues b, from ``SectorRows``."""
    tb = tau * np.asarray(eigvals, dtype=float)
    return SectorRows.of(alpha, tb.size).record(tb, basis)


def dense_fock_records(alpha, tau, eigvals, n_max: int) -> dict:
    """Reference records of both bases on the whole (n_max+1)^2 two-mode
    space: dense Stokes operators, one eigh of S3, and the pulse rotated by
    each eigenvalue."""
    _, _, s3 = stokes_operators(n_max)
    s, f = np.linalg.eigh(s3)
    v0 = f.conj().T @ coherent_state(alpha, n_max)
    chis = [f @ (np.exp(-1j * s * tau * b) * v0) for b in eigvals]
    shape = (n_max + 1, n_max + 1)
    records = {}
    for basis in MeasurementBasis:
        applied = []
        for chi in chis:
            grid = chi.reshape(shape)
            out = apply_s2(grid) if basis is MeasurementBasis.S2 else 2.0 * apply_s3(grid)
            applied.append(out.ravel())
        d = len(chis)
        m = np.empty((d, d), dtype=complex)
        for i in range(d):
            for k in range(d):
                m[i, k] = np.vdot(chis[k], applied[i])
        records[basis] = m
    return records


def eigh_sector_record(n: int, tb, basis: MeasurementBasis) -> Array:
    """Reference record of photon-number sector N = ``n`` alone, from the
    pulse's |N, 0> = |j, j> rotated by exp(-i S3 tb): the eigenvalues s of
    S3 = Jy from ``eigh`` of ``spin_operators(n)``, the components of |j, j>
    on its eigenvectors, and S2 = Jx in that eigenbasis."""
    jx, jy, _ = spin_operators(n)
    s, u = np.linalg.eigh(jy)
    phi = np.exp(-1j * np.outer(s, tb)) * u[0].conj()[:, None]  # |chi_b> per column
    applied = (u.conj().T @ jx @ u) @ phi if basis is MeasurementBasis.S2 else 2.0 * s[:, None] * phi
    return (phi.conj().T @ applied).T


def eigh_fock_record(alpha, tau, eigvals, basis: MeasurementBasis) -> Array:
    """Reference for ``fock_record``: the sector records N <= n_max =
    ``required_cutoff(alpha)`` weighted by the pulse's |c_N|^2, one ``eigh``
    per sector."""
    tb = tau * np.asarray(eigvals, dtype=float)
    weights = np.abs(_coherent_mode(alpha, required_cutoff(alpha) + 1)) ** 2
    return sum(weight * eigh_sector_record(n, tb, basis) for n, weight in enumerate(weights))


def reference_exact(model: TargetModel, proto: ProtocolSpec, engine: str = "coherent") -> float:
    """All-orders count correlation with a fresh eigendecomposition of B(t)
    per shot; the closed-form record, or the per-sector eigh Fock record on the "fock" engine."""
    alpha, tau = proto.sensor.alpha, proto.sensor.tau
    rho = model.initial_state.matrix
    for shot in proto.shots:
        w, v = np.linalg.eigh(expm_coupling(model, shot.time))
        if engine == "fock":
            m = eigh_fock_record(alpha, tau, w, shot.basis)
        else:
            m = coherent_record(alpha, tau, w, shot.basis)
        rho = v @ (m * (v.conj().T @ rho @ v)) @ v.conj().T
    return np.trace(rho).real


# -- selection traces ------------------------------------------------------------------


@dataclass(frozen=True)
class SelectionTraces:
    """The three sensor traces determining what a measurement basis selects.

    t0      = Tr[Lambda rho_s]            (must vanish: no standing signal)
    t_plus  = Tr[Lambda S3+ rho_s]        (coefficient of the commutator branch)
    t_minus = Tr[Lambda S3- rho_s]        (coefficient of the anticommutator branch)
    """

    t0: float
    t_plus: float
    t_minus: float


def selection_traces(alpha: float, basis: MeasurementBasis) -> SelectionTraces:
    """The selection traces of the pulse |alpha, H> on the truncated space.

    For the pure pulse |v>, with u = Lambda|v> and w = S3|v>, one has
    t0 = <v|u>, t_plus = Re<u|w> and t_minus = 2 Im<u|w>: each a sum over
    the photon-number sector rows, on which S3 is diagonal.
    """
    rows = SectorRows.of(alpha, 1)
    v = rows.component[:, None]
    u = rows.apply(basis, v)
    t0 = np.vdot(v, rows.weight[:, None] * u)
    z = np.vdot(u, (rows.weight * rows.s)[:, None] * v)
    return SelectionTraces(t0=float(t0.real), t_plus=float(z.real), t_minus=float(2 * z.imag))


# -- Kraus references ------------------------------------------------------------------


def log_poisson(n, mean: float) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    if mean == 0:
        return np.where(n == 0, 0.0, -np.inf)
    return n * math.log(mean) - mean - log_factorial(n)


class KrausOutcomeSampler:
    """Single-shot reference for the vector Kraus update: the photon-count
    outcome distribution of one shot on a density matrix, its sampling, and
    the post-measurement state, from an eigendecomposition of the coupling."""

    def __init__(self, rho: DensityMatrix, b, cfg: SensorConfig, basis: MeasurementBasis):
        b = require_hermitian(b, "coupling")
        if b.shape[0] != rho.dim:
            raise DimensionMismatchError("coupling and state dims differ")
        w, v = np.linalg.eigh(b)
        self.eigvals = cluster_eigenvalues(w)
        self.table = ShotTable.of(self.eigvals, cfg, basis)
        self.eigvecs = v
        self.rho_eig = v.conj().T @ rho.matrix @ v
        self.branch_probs = _branch_probabilities(np.real(np.diag(self.rho_eig)))
        self.means_c, self.means_d = self.table.means()

    def sample(self, rng: np.random.Generator) -> tuple[int, int]:
        i = rng.choice(len(self.branch_probs), p=self.branch_probs)
        return int(rng.poisson(self.means_c[i])), int(rng.poisson(self.means_d[i]))

    def branch_count_probability(self, i: int, n_c: int, n_d: int) -> float:
        return float(np.exp(log_poisson([n_c], self.means_c[i]) + log_poisson([n_d], self.means_d[i]))[0])

    def probability(self, n_c: int, n_d: int) -> float:
        """P(n_c, n_d) = sum_i rho_ii Pois(n_c; mu_c(b_i)) Pois(n_d; mu_d(b_i))."""
        return sum(p * self.branch_count_probability(i, n_c, n_d) for i, p in enumerate(self.branch_probs))

    def post_state(self, n_c: int, n_d: int) -> DensityMatrix:
        """Normalized post-measurement state K rho K† / P."""
        g = self.table.kraus_diagonal([n_c], [n_d])[0]
        rho = (g[:, None] * g.conj()[None, :]) * self.rho_eig
        rho = self.eigvecs @ (rho / np.real(np.trace(rho))) @ self.eigvecs.conj().T
        return DensityMatrix((rho + rho.conj().T) / 2)


def density_matrix_chunk(n: int, rng: np.random.Generator, model: TargetModel, p: ProtocolSpec) -> tuple:
    """Reference Kraus chunk carrying n x d x d density matrices; same draws
    in the same order as the vector-state chunk."""
    spec = model.spectral
    d = model.dim
    states = np.broadcast_to(model.initial_state.matrix, (n, d, d)).copy()
    prod = np.ones(n)
    s_half = s_half2 = 0.0
    for shot in p.shots:
        v = spectral_eigvecs(model, shot.time)
        table = ShotTable.of(spec.coupling_eigvals, p.sensor, shot.basis)
        rp = np.einsum("ab,nbc,cd->nad", v.conj().T, states, v, optimize=True)
        probs = np.clip(np.real(np.einsum("nii->ni", rp)), 0.0, None)
        probs = probs / probs.sum(axis=1, keepdims=True)
        idx = _draw_branches(probs, np.cumsum(probs, axis=1), rng.random(n))
        means_c, means_d = table.means()
        n_c = rng.poisson(means_c[idx]).astype(float)
        n_d = rng.poisson(means_d[idx]).astype(float)
        half = (n_d - n_c) / 2
        prod = prod * (2.0 * shot.basis.record_scale) * half
        s_half += half.sum()
        s_half2 += (half * half).sum()
        g = table.kraus_diagonal(n_c, n_d)
        rp = rp * (g[:, :, None] * g.conj()[:, None, :])
        rp = rp / np.real(np.einsum("nii->n", rp))[:, None, None]
        states = np.einsum("ab,nbc,cd->nad", v, rp, v.conj().T, optimize=True)
    return prod.sum(), (prod * prod).sum(), s_half, s_half2


def vector_chunk(n: int, rng: np.random.Generator, init_rng: np.random.Generator, plan) -> tuple:
    """Reference Kraus chunk for a plan of ``trajectory_mc._quantum_plan``:
    the loop the Monte Carlo ran before its row blocks, on the whole n x d
    array of state vectors at each step, with the same draws in the same
    order and a branch drawn before every shot, branch-blind or not. It
    renormalizes before the rotation, by ``np.linalg.norm``, and draws from
    normalized probabilities and their ``np.cumsum``, where the blocked chunk
    renormalizes after it by the row totals of its tiled prefix sums; so the
    amplitudes agree to roundoff, and the counts bit for bit short of a draw
    landing within roundoff of a branch boundary."""
    states = plan.kets[init_rng.choice(len(plan.weights), size=n, p=plan.weights)]
    record = _Record(n)
    for j, table in enumerate(plan.tables):
        p = np.clip(states.real**2 + states.imag**2, 0.0, None)
        p = p / p.sum(axis=-1, keepdims=True)
        idx = _draw_branches(p, np.cumsum(p, axis=1), rng.random(n))
        n_c, n_d = record.shot(rng, table, idx)
        if j < len(plan.rotations):
            c_values, c_rank = np.unique(n_c, return_inverse=True)
            d_values, d_rank = np.unique(n_d, return_inverse=True)
            width = len(d_values)
            keys, rows = np.unique(c_rank * width + d_rank, return_inverse=True)
            states = states * table.kraus_diagonal(c_values[keys // width], d_values[keys % width])[rows]
            states = (states / np.linalg.norm(states, axis=1, keepdims=True)) @ plan.rotations[j]
    return record.sums()


def snr_convention_factor(proto: ProtocolSpec) -> float:
    """Ratio between the empirical SNR of the per-basis records and the
    closed-form SNR formulas (which assume mean coefficient alpha^2/2 and
    per-shot noise alpha at every shot): one factor 2 per D/A (S2) shot.
    """
    n_s2 = sum(1 for s in proto.shots if s.basis is MeasurementBasis.S2)
    return 2.0**n_s2
