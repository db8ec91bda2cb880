"""Photon-polarization pseudo-spin sensor: Stokes operators, coherent pulses,
the interferometer network, and the instrument of one shot.

Conventions fixed here, once, for the whole package:

* The sensor space keeps n_max = ``required_cutoff(alpha)`` photons per mode.
  S3 and the recorded observables conserve the photon number N, and sector
  N is a spin N/2 with basis index n_V (|N, 0> = |j, j>): the Fock engine
  sums over these sectors, one row per S3 eigenvector (``SectorRows``). The
  dense helpers order the two-mode space H ⊗ V and store a state as a flat
  vector or a grid psi[n_H, n_V].
* A magnetization eigenvalue b acting for a pulse of duration tau rotates the
  polarization plane by theta = b*tau/2 (the generator is exp(-i S3 b tau),
  and S3 is defined with a 1/2 prefactor).
* The interferometer phase is applied to the transmitted (V) arm, and the
  detector labeling is the one that makes the linear response of the recorded
  observable in b come out with coefficient +alpha^2*tau/2.
* Recorded observable per basis: the D/A basis (phase pi/2) records the
  *half* count difference (n_d - n_c)/2, which coincides with S2; the R/L
  basis (phase 0) records the *raw* difference n_d - n_c, i.e. 2*S3. This
  per-basis normalization gives both bases the same linear-response
  coefficient alpha^2/2 per unit (tau*b), which is what makes the K-shot
  count correlation exactly proportional to a single target correlation.
  (A uniform half-count convention would make the R/L coefficient alpha^2/4
  and break that proportionality; see the README.)
* One shot is one instrument, ``ShotTable``: alpha, the plane rotation theta
  of each coupling value and the readout basis. From these alone it draws the
  Poisson counts of both Monte Carlo modes, and gives the Kraus elements that
  the quantum trajectories apply and the record matrix (their first moment)
  that the exact chain multiplies by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .correlations import BranchSign
from .errors import NumericalGuardError, TruncationError, check_memory
from .quantum_core import Array


class MeasurementBasis(Enum):
    """Polarization readout basis of one measurement shot."""

    S2 = "S2"  # D/A linear basis, phase pi/2, selects the anticommutator branch
    S3 = "S3"  # R/L circular basis, phase 0, selects the commutator branch

    @property
    def phase(self) -> float:
        return math.pi / 2 if self is MeasurementBasis.S2 else 0.0

    @property
    def eta(self) -> BranchSign:
        return BranchSign.PLUS if self is MeasurementBasis.S2 else BranchSign.MINUS

    @property
    def record_scale(self) -> float:
        """Factor applied to the raw count difference n_d - n_c when recording."""
        return 0.5 if self is MeasurementBasis.S2 else 1.0


@dataclass(frozen=True)
class SensorConfig:
    """Coherent pulse amplitude (photons/pulse = alpha^2) and duration.

    The interferometer phase is not a sensor property: each shot takes it
    from its ``MeasurementBasis``.
    """

    alpha: float
    tau: float

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite (real amplitudes only)")
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")


def required_cutoff(alpha: float) -> int:
    """Per-mode cutoff keeping coherent tail population below tolerance. A
    cutoff beyond the float range fails the Fock memory guard."""
    need = alpha * alpha + 10 * alpha + 10
    if need == math.inf:
        check_fock_memory(need, 1)  # refused whatever the coupling
    return int(math.ceil(need))


@lru_cache(maxsize=16)
def _mode_annihilation(mode_dim: int) -> Array:
    a = np.zeros((mode_dim, mode_dim), dtype=complex)
    n = np.arange(1, mode_dim)
    a[n - 1, n] = np.sqrt(n)
    a.setflags(write=False)
    return a


@lru_cache(maxsize=8)
def stokes_operators(n_max: int) -> tuple[Array, Array, Array]:
    """Dense Stokes operators (S1, S2, S3) on the two-mode space truncated at
    n_max photons per mode, for the algebra checks: dim = (n_max+1)^2."""
    a, eye = _mode_annihilation(n_max + 1), np.eye(n_max + 1)
    a_h, a_v = np.kron(a, eye), np.kron(eye, a)
    hd, vd = a_h.conj().T, a_v.conj().T
    s1 = (hd @ a_h - vd @ a_v) / 2
    s2 = (hd @ a_v + vd @ a_h) / 2
    s3 = -0.5j * (hd @ a_v - vd @ a_h)
    for s in (s1, s2, s3):
        s.setflags(write=False)
    return s1, s2, s3


def _coherent_mode(alpha: float, mode_dim: int) -> Array:
    """Single-mode coherent amplitudes, computed stably in log space."""
    if alpha == 0:
        c = np.zeros(mode_dim, dtype=complex)
        c[0] = 1.0
        return c
    n = np.arange(mode_dim)
    log_c = -0.5 * alpha * alpha + n * math.log(abs(alpha)) - 0.5 * log_factorial(n)
    c = np.exp(log_c)
    if alpha < 0:
        c *= (-1.0) ** n
    return c.astype(complex)


def log_factorial(n: np.ndarray) -> np.ndarray:
    """log(n!) for non-negative integers n, from one cumulative table."""
    top = int(np.max(n))
    table = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, top + 1)))])
    return table[np.asarray(n, dtype=int)]


def coherent_grid(alpha_h: float, alpha_v: float, n_max: int) -> Array:
    """Two-mode coherent state |alpha_h, alpha_v> as a grid psi[n_H, n_V],
    truncated at n_max photons per mode (at least the amplitude's cutoff)."""
    need = required_cutoff(math.hypot(alpha_h, alpha_v))
    if n_max < need:
        raise TruncationError(
            f"n_max={n_max} too small for alpha_h={alpha_h}, alpha_v={alpha_v} (need >= {need})"
        )
    return np.outer(_coherent_mode(alpha_h, n_max + 1), _coherent_mode(alpha_v, n_max + 1))


def coherent_state(alpha: float, n_max: int) -> Array:
    """H-polarized coherent pulse |alpha, H> as a flat vector."""
    return coherent_grid(alpha, 0.0, n_max).ravel()


def _exchanges(psi: Array) -> tuple[Array, Array]:
    """(a_H^dag a_V psi, a_V^dag a_H psi), matrix-free on a grid psi[n_H, n_V]."""
    a_h, a_v = _mode_annihilation(psi.shape[0]), _mode_annihilation(psi.shape[1])
    return a_h.conj().T @ (psi @ a_v.T), (a_h @ psi) @ a_v.conj()


def apply_s2(psi: Array) -> Array:
    to_h, to_v = _exchanges(psi)
    return (to_h + to_v) / 2


def apply_s3(psi: Array) -> Array:
    to_h, to_v = _exchanges(psi)
    return -0.5j * (to_h - to_v)


# -- photon-number sectors ---------------------------------------------------

# Peak bytes of ``SectorRows.of`` and ``SectorRows.record``: ROW_BYTES per
# row plus ROW_COLUMN_BYTES per row and coupling value bound their tracemalloc
# peaks at n_max = 34..1210 and 1..64 values. From n_max = 210 on the peaks
# were at most 56 bytes per row plus 32 per row and value (S2; S3 sums half
# the rows); at n_max = 34 fixed costs bring them up to 73% of the bound.
ROW_BYTES = 96
ROW_COLUMN_BYTES = 64


def check_fock_memory(n_max: float, columns: int) -> None:
    """The memory guard of the sector rows at cutoff ``n_max`` for
    ``columns`` coupling values (at most the model dimension): the
    (n_max+1)(n_max+2)/2 rows, here in floats so that a huge n_max is
    refused at once."""
    n = float(n_max)
    nbytes = (n + 1) * (n + 2) / 2 * (ROW_BYTES + columns * ROW_COLUMN_BYTES)
    check_memory(nbytes, f"Fock sector eigendata (n_max={n:.4g})")


@dataclass(frozen=True)
class SectorRows:
    """The photon-number sectors N <= n_max = ``required_cutoff(alpha)`` of
    the pulse |alpha, H>, one row per (N, k), k = 0..N, on the eigenvectors
    of S3.

    Sector N is a spin j = N/2 with basis index n_V (|N, 0> = |j, j>), and
    S3 = Jy there. Jy is Jz rotated by pi/2 about x, and that rotation leaves
    Jx as it is. So the k-th eigenvector of Jy has the eigenvalue s = N/2 - k,
    |j, j> has on it the component (-i)^k sqrt(C(N, k)) / 2^(N/2) (the Wigner
    d-matrix at pi/2), and Jx on the eigenvectors is the tridiagonal Jx of the
    Jz basis. A row holds s, that component, the pulse weight |c_N|^2 of its
    sector, and the Jx element sqrt((k+1)(N-k))/2 to the next row, which is
    0 on each sector's last row, so that no product reaches the next sector.
    """

    s: Array
    component: Array
    weight: Array
    jx: Array

    @classmethod
    def of(cls, alpha: float, columns: int) -> "SectorRows":
        """The rows of the pulse, for a record of ``columns`` coupling values."""
        n_max = required_cutoff(alpha)
        check_fock_memory(n_max, columns)  # before any n_max-sized array
        sector = np.repeat(np.arange(n_max + 1), np.arange(1, n_max + 2))
        k = np.arange(sector.size) - sector * (sector + 1) // 2
        lf = log_factorial(np.arange(n_max + 1))
        log_component = 0.5 * (lf[sector] - lf[k] - lf[sector - k]) - 0.5 * math.log(2.0) * sector
        return cls(
            s=sector / 2 - k,
            component=np.exp(log_component) * np.array([1, -1j, -1, 1j])[k % 4],
            weight=(np.abs(_coherent_mode(alpha, n_max + 1)) ** 2)[sector],
            jx=0.5 * np.sqrt((k + 1) * (sector - k)),
        )

    def apply(self, basis: MeasurementBasis, phi: Array) -> Array:
        """The recorded observable on the columns of ``phi``, amplitudes on
        the rows: S2 = Jx as two shifted products, or 2*S3 = 2s for the raw
        R/L count."""
        if basis is MeasurementBasis.S3:
            return 2.0 * self.s[:, None] * phi
        c = self.jx[:-1, None]
        out = np.zeros_like(phi)
        np.multiply(c, phi[1:], out=out[:-1])
        out[1:] += c * phi[:-1]
        return out

    def record(self, tb: Array, basis: MeasurementBasis) -> Array:
        """m[i,k] = <chi_k| Lambda |chi_i> between the pulses rotated by
        exp(-i S3 tb) for the entries of ``tb``. Each row is summed with the
        row whose alpha^2-sized term it cancels, so an exact zero comes out
        as 0: with d = tb_i - tb_k, 2*S3 pairs s > 0 with -s (same weight w
        and |component| c) into -4i s w c^2 sin(s d), and S2 = Jx each row
        with the next, whose component has one more factor -i, into
        2 sin((tb_i + tb_k)/2) e^{i d/2} jx w c_r c_{r+1} e^{-i s_r d}."""
        c = np.abs(self.component)
        if basis is MeasurementBasis.S3:
            s, coef = self.s[self.s > 0], 4.0 * (self.s * self.weight * c * c)[self.s > 0]
        else:
            s, coef = self.s[:-1], self.jx[:-1] * self.weight[:-1] * c[:-1] * c[1:]
        phase = np.exp(-1j * np.outer(s, tb))
        sums = (phase * coef[:, None]).T @ np.conjugate(phase, out=phase)  # sum_r coef_r e^{-i s_r d}
        if basis is MeasurementBasis.S3:
            return 1j * sums.imag
        return 2.0 * np.sin(0.5 * np.add.outer(tb, tb)) * np.exp(0.5j * np.subtract.outer(tb, tb)) * sums


def _count_log_modulus(beta: Array, counts: Array) -> Array:
    """n log|beta| per (count, branch), with 0^0 = 1 and 0^n = 0 (-inf) for n > 0."""
    counts = np.asarray(counts, dtype=float)[:, None]
    modulus = np.abs(beta)[None, :]
    zero = modulus == 0
    out = counts * np.log(np.where(zero, 1.0, modulus))
    return np.where(zero & (counts > 0), -np.inf, out)


@dataclass(frozen=True)
class ShotTable:
    """The instrument of one shot: a pulse of amplitude ``alpha`` whose plane
    is rotated by ``theta`` = tau b / 2 for each coupling value b (an
    eigenvalue branch of the target, or a classical field value), read out in
    ``basis``.

    The polarizing beam splitter leaves the arms (a, b) = (alpha cos theta,
    alpha sin theta e^{i phase}), the phase on the transmitted arm, and the
    1:1 beam splitter mixes them into the detector amplitudes
    (beta_c, beta_d) = ((a + i b)/sqrt2, (i a + b)/sqrt2). The counts are
    independent Poisson with means |beta|^2, and the Kraus element of an
    outcome (n_c, n_d) is diagonal in the coupling's eigenbasis with entries
    beta_c^n_c beta_d^n_d up to a branch-independent factor.
    """

    alpha: float
    theta: Array
    basis: MeasurementBasis

    @classmethod
    def of(cls, values, sensor: SensorConfig, basis: MeasurementBasis) -> "ShotTable":
        """The shot of ``sensor`` in ``basis`` for coupling values of any shape."""
        return cls(sensor.alpha, 0.5 * sensor.tau * np.asarray(values, dtype=float), basis)

    def _arms(self) -> tuple[Array, Array]:
        return self.alpha * np.cos(self.theta), self.alpha * np.sin(self.theta) * np.exp(1j * self.basis.phase)

    def amplitudes(self) -> tuple[Array, Array]:
        """The coherent amplitudes (beta_c, beta_d) at the two detectors."""
        a, b = self._arms()
        return (a + 1j * b) / math.sqrt(2), (1j * a + b) / math.sqrt(2)

    def means(self) -> tuple[Array, Array]:
        """Mean counts (|beta_c|^2, |beta_d|^2), expanded in real arithmetic to
        (alpha^2/2)(1 -/+ sin(phase) sin(2 theta)): they always sum to alpha^2,
        and the circular basis (phase 0) sees alpha^2/2 at both detectors
        whatever the rotation."""
        half = 0.5 * self.alpha * self.alpha
        shift = half * math.sin(self.basis.phase) * np.sin(2.0 * self.theta)
        return half - shift, half + shift

    @property
    def blind(self) -> bool:
        """Whether every coupling value has the same Poisson means (R/L: alpha^2/2
        at both detectors), so that the counts do not depend on the branch."""
        return all(bool(np.all(means == means[0])) for means in self.means())

    def draw(self, rng: np.random.Generator, rows=slice(None)) -> tuple[Array, Array]:
        """Poisson counts (n_c, n_d), as floats, at the means of the coupling values
        ``rows``. Means that are not finite raise ``NumericalGuardError`` before any draw."""
        means_c, means_d = self.means()
        if not np.isfinite(means_c).all():  # means_d = alpha^2 - means_c
            raise NumericalGuardError(f"the Poisson means of an {self.basis.value} shot are not finite: "
                                      "its rotation tau b / 2 leaves the float range")
        return rng.poisson(means_c[rows]).astype(float), rng.poisson(means_d[rows]).astype(float)

    def record(self) -> Array:
        """m[i,k] = <chi_k| Lambda |chi_i>, the recorded observable
        Lambda = record_scale (n_d - n_c) between the output pulses of branches i, k.

        With x = beta_i beta_k^* per detector, m = record_scale (x_d - x_c) times the
        overlap exp(-(|a_i - a_k|^2 + |b_i - b_k|^2)/2), which is real because
        the interferometer is passive and the input amplitudes are real. The
        difference x_d - x_c = i (a_i b_k^* - b_i a_k^*) is taken from the arms,
        so no alpha^2/2-sized terms cancel; its diagonal,
        2 alpha^2 cos(theta) sin(theta) sin(phase), is exactly 0 for R/L.
        """
        a, b = self._arms()
        x = 1j * (np.outer(a, b.conj()) - np.outer(b, a))
        gap = np.subtract.outer(a, a) ** 2 + np.abs(np.subtract.outer(b, b)) ** 2
        return self.basis.record_scale * x * np.exp(-0.5 * gap)

    def kraus_diagonal(self, n_c: Array, n_d: Array) -> Array:
        """Kraus diagonals beta_c^n_c beta_d^n_d per (outcome, branch), each row
        scaled by a branch-independent factor so that its largest modulus is 1.

        The product is formed in log space: with n ~ alpha^2/2 counts the plain
        powers underflow for alpha above about 33.
        """
        beta_c, beta_d = self.amplitudes()
        n_c = np.asarray(n_c, dtype=float)
        n_d = np.asarray(n_d, dtype=float)
        log_mod = _count_log_modulus(beta_c, n_c) + _count_log_modulus(beta_d, n_d)
        phase = n_c[:, None] * np.angle(beta_c)[None, :] + n_d[:, None] * np.angle(beta_d)[None, :]
        top = np.max(log_mod, axis=1, keepdims=True)
        top = np.where(np.isfinite(top), top, 0.0)  # an outcome no branch can produce
        return np.exp(log_mod - top + 1j * phase)
