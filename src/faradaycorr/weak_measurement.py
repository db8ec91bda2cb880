"""Sequential weak-measurement pipeline.

Each shot couples a fresh coherent pulse to the target through
exp(-i (S3 ⊗ B(t_j)) tau) and reads out the count difference in a chosen
polarization basis. In the eigenbasis of B(t_j) the shot multiplies the
target state elementwise by a d x d record matrix, so both evaluation paths
run the record chain of ``correlations`` and differ only in that matrix:

* ``gk_leading`` keeps the leading order in tau: the record is
  (tau*alpha^2/2) times the branch record selected by the basis
  (``branch_record``), so the K-shot correlation is exactly
  2^-K tau^K alpha^2K times the matching target correlation.
* ``gk_exact_unitary`` keeps all orders in tau. Because the pulse is
  coherent and S3 generates a passive polarization rotation, the joint
  unitary maps the pulse to a rotated coherent state conditioned on each
  eigenvalue of B(t_j); the record holds the recorded observable's matrix
  elements between those rotated pulses. Without a ``FockTruncation`` it
  takes them from the shot instrument, ``sensor_optics.ShotTable.record``
  (exact, no truncation), whose amplitudes the Kraus trajectories sample
  too; given one, it re-derives them numerically on that truncated two-mode
  Fock space as an independent cross-check. The Stokes operators are
  Schwinger bosons: S3 and the recorded observable conserve the photon
  number N, and in sector N they are the spin-N/2 matrices Jy and Jx (or
  2 Jy). The Fock engine sums the record over the sectors N <= n_max with one
  (N+1)-dimensional eigh of Jy each, which is exactly the truncated
  two-mode result. That costs sum (N+1)^3 ~ n_max^4/4 once per n_max
  (cached), and the cached eigendata, sum (N+1)^2 complex numbers (48 MiB
  at alpha = 10), is checked against the memory guard before any sector is
  diagonalized.

A record depends only on the pulse, the eigenvalues of B and the basis, so
it is built once per basis. The ``*_grid`` functions take one protocol and
the final times to evaluate it at, each replacing the time of its last shot:
the state after the first K-1 shots is built once and each final time costs
one O(d^2) trace. The single-protocol functions are those grids at the
protocol's own last time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .correlations import CorrelationQuery, _record_chain, branch_record, correlation
from .errors import check_memory
from .quantum_core import Array, TargetModel, spin_operators
from .sensor_optics import FockTruncation, MeasurementBasis, SensorConfig, ShotTable, _coherent_mode


class ProtocolWarning(UserWarning):
    pass


@dataclass(frozen=True)
class ShotSpec:
    """One measurement shot: nominal start time (s) and readout basis."""

    time: float
    basis: MeasurementBasis


@dataclass(frozen=True)
class ProtocolSpec:
    """Ordered shots sharing one sensor configuration."""

    shots: tuple[ShotSpec, ...]
    sensor: SensorConfig

    def __post_init__(self):
        shots = tuple(self.shots)
        object.__setattr__(self, "shots", shots)
        if len(shots) < 1:
            raise ValueError("protocol needs at least one shot")
        times = [s.time for s in shots]
        if not all(map(math.isfinite, times)) or any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("shot times must be finite and non-decreasing")
        if shots[-1].basis is not MeasurementBasis.S2:
            warnings.warn(
                "last shot is an S3 (commutator) readout: the expected signal "
                "vanishes identically",
                ProtocolWarning,
                stacklevel=2,
            )

    @property
    def order(self) -> int:
        return len(self.shots)

    def query(self) -> CorrelationQuery:
        return CorrelationQuery(
            times=tuple(s.time for s in self.shots),
            signs=tuple(s.basis.eta for s in self.shots),
        )


@dataclass(frozen=True)
class GkResult:
    """K-shot count correlation (counts^K) and its leading-order prediction."""

    value: float
    order: int
    predicted_from_C: float


def _leading_coefficient(sensor: SensorConfig) -> float:
    """tau alpha^2 / 2, the linear response of every shot's record to tau*b."""
    return 0.5 * sensor.tau * sensor.alpha**2


def prediction_factor(proto: ProtocolSpec) -> float:
    """2^-K tau^K alpha^2K: the leading-order count correlation per unit C."""
    return _leading_coefficient(proto.sensor) ** proto.order


def _predicted_from_c(model: TargetModel, proto: ProtocolSpec) -> float:
    return prediction_factor(proto) * correlation(model, proto.query())


def gk_leading_grid(model: TargetModel, proto: ProtocolSpec, finals) -> Array:
    """Leading-order count correlations of ``proto`` with its last shot at
    each of ``finals``: the record chain with (tau alpha^2 / 2) times each
    shot's branch record."""
    spec = model.spectral
    coeff = _leading_coefficient(proto.sensor)
    keys = [s.basis for s in proto.shots]
    records = {b: coeff * branch_record(spec.coupling_eigvals, b.eta) for b in set(keys)}
    scale = (coeff * spec.coupling_norm) ** proto.order
    times = [s.time for s in proto.shots[:-1]]
    return _record_chain(model, records, keys, times, finals, scale, "leading-order count correlation")


def gk_leading(model: TargetModel, proto: ProtocolSpec) -> GkResult:
    """Leading-order K-shot count correlation: ``gk_leading_grid`` at the
    protocol's own last time."""
    value = float(gk_leading_grid(model, proto, [proto.shots[-1].time])[0])
    return GkResult(value=value, order=proto.order, predicted_from_C=_predicted_from_c(model, proto))


@lru_cache(maxsize=1)  # one entry, so the cache never holds more than one guarded size
def _sector_eigendata(n_max: int) -> tuple[tuple[Array, Array, Array], ...]:
    """Per photon-number sector N <= n_max: the eigenvalues s of S3 = Jy,
    the components of |N, 0> = |j, j> on its eigenvectors, and S2 = Jx in
    that eigenbasis (spin j = N/2, basis index n_V, ``spin_operators(N)``).
    The Jx blocks, sum (N+1)^2 complex numbers, are what the cache holds."""
    # 16 sum (N+1)^2 in closed form, so that a huge n_max is refused at once
    nbytes = 16 * (n_max + 1) * (n_max + 2) * (2 * n_max + 3) // 6
    check_memory(nbytes, f"Fock sector eigendata (n_max={n_max})")
    sectors = []
    for n in range(n_max + 1):
        jx, jy, _ = spin_operators(n)
        s, u = np.linalg.eigh(jy)
        sector = (s, u[0].conj(), u.conj().T @ jx @ u)
        for a in sector:
            a.setflags(write=False)  # shared by every later call at this n_max
        sectors.append(sector)
    return tuple(sectors)


def _fock_record_matrix(
    alpha: float, tau: float, eigvals: Array, basis: MeasurementBasis, tr: FockTruncation
) -> Array:
    """Truncated-Fock cross-check of ``ShotTable.record``.

    S3 and the recorded observable conserve the photon number N, and the
    pulse |alpha, H> has weight |c_N|^2 in sector N at |j, j>. On the
    truncated grid the record is therefore an exact sum over sectors
    N <= n_max of (N+1)-dimensional spin-N/2 matrix elements.
    """
    tr.check_alpha(alpha)
    sectors = _sector_eigendata(tr.n_max)  # its memory guard runs before any n_max-sized array
    weights = np.abs(_coherent_mode(alpha, tr.mode_dim)) ** 2
    tb = tau * np.asarray(eigvals, dtype=float)
    m = np.zeros((tb.size, tb.size), dtype=complex)
    for weight, (s, v0, jx) in zip(weights, sectors):
        phi = np.exp(-1j * np.outer(s, tb)) * v0[:, None]  # |chi_b> per column
        lam_phi = jx @ phi if basis is MeasurementBasis.S2 else 2.0 * s[:, None] * phi
        m += weight * (phi.conj().T @ lam_phi)
    return m.T


def gk_exact_unitary_grid(
    model: TargetModel, proto: ProtocolSpec, finals, fock: FockTruncation | None = None
) -> Array:
    """All-orders count correlations of ``proto`` with its last shot at each
    of ``finals``: the record chain with each shot's instrument record, or
    with its cross-check on the truncated Fock space ``fock`` when one is
    given. B is frozen at each shot's start time.
    """
    alpha, tau = proto.sensor.alpha, proto.sensor.tau
    w = model.spectral.coupling_eigvals
    keys = [s.basis for s in proto.shots]
    if fock is None:
        records = {b: ShotTable.of(w, proto.sensor, b).record() for b in set(keys)}
    else:
        records = {b: _fock_record_matrix(alpha, tau, w, b, fock) for b in set(keys)}
    times = [s.time for s in proto.shots[:-1]]
    scale = math.prod(float(np.max(np.abs(records[b]))) for b in keys)
    return _record_chain(model, records, keys, times, finals, scale, "exact count correlation")


def gk_exact_unitary(model: TargetModel, proto: ProtocolSpec, fock: FockTruncation | None = None) -> GkResult:
    """All-orders K-shot count correlation with a fresh pulse per shot:
    ``gk_exact_unitary_grid`` at the protocol's own last time.

    Sensor-target entanglement is discarded between shots (each shot uses a
    new pulse), and B is frozen at each shot's nominal start time.
    """
    values = gk_exact_unitary_grid(model, proto, [proto.shots[-1].time], fock)
    return GkResult(
        value=float(values[0]), order=proto.order, predicted_from_C=_predicted_from_c(model, proto)
    )
