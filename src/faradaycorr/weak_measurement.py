"""Sequential weak-measurement pipeline.

Each shot couples a fresh coherent pulse to the target through
exp(-i (S3 ⊗ B(t_j)) tau) and reads out the count difference in a chosen
polarization basis. In the eigenbasis of B(t_j) the shot multiplies the
target state elementwise by a d x d record matrix, which the record chain of
``correlations`` runs on:

* ``gk_leading`` keeps the leading order in tau, where the record is
  (tau alpha^2 / 2) times the branch record the basis selects. The chain is
  linear in each record, so this is ``prediction_factor`` (2^-K tau^K alpha^2K)
  times the chain for the matching target correlation C, computed as such.
* ``gk_exact_unitary`` keeps all orders in tau. Because the pulse is
  coherent and S3 generates a passive polarization rotation, the joint
  unitary maps the pulse to a rotated coherent state conditioned on each
  eigenvalue of B(t_j); the record holds the recorded observable's matrix
  elements between those rotated pulses. It takes them from the shot
  instrument, ``sensor_optics.ShotTable.record`` (exact, no truncation),
  whose amplitudes the Kraus trajectories sample too; on the "fock" engine
  it re-derives them on the truncated two-mode Fock space instead, from the
  photon-number sector rows of the pulse (``sensor_optics.SectorRows``,
  built once per protocol), as an independent cross-check. Both pair the
  terms that cancel, so a record that vanishes (no coupling) is exactly 0.

An all-orders record depends only on the pulse, the eigenvalues of B and
the basis, so it is built once per basis. ``protocol_grids`` takes one
protocol and the final times to evaluate it at, each replacing the time of
its last shot, and gives C and both count correlations from one walk of
both chains: the state after the first K-1 shots is built once and each
final time costs one O(d^2) trace. ``gk_leading`` and ``gk_exact_unitary``
are its grids at the protocol's own last time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .correlations import CorrelationQuery, _correlation_chain, _record_chain
from .errors import NumericalGuardError
from .quantum_core import Array, TargetModel
from .sensor_optics import MeasurementBasis, SectorRows, SensorConfig, ShotTable


ENGINES = ("coherent", "fock")  # the all-orders engines: the shot instrument, its truncated-Fock cross-check


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
        object.__setattr__(self, "shots", tuple(self.shots))
        self.query()  # the shot times and count follow CorrelationQuery's rules
        if self.warning:
            warnings.warn(self.warning, ProtocolWarning, stacklevel=2)

    @property
    def warning(self) -> str:
        """The text of the ProtocolWarning the constructor raises; "" when it raises none."""
        if self.shots[-1].basis is MeasurementBasis.S2:
            return ""
        return "last shot is an S3 (commutator) readout: the expected signal vanishes identically"

    @property
    def order(self) -> int:
        return len(self.shots)

    def at(self, final: float) -> ProtocolSpec:
        """This protocol with its last shot at ``final``: one point of the
        final-time grids below."""
        return ProtocolSpec((*self.shots[:-1], ShotSpec(final, self.shots[-1].basis)), self.sensor)

    def query(self) -> CorrelationQuery:
        return CorrelationQuery(
            times=tuple(s.time for s in self.shots),
            signs=tuple(s.basis.eta for s in self.shots),
        )


@dataclass(frozen=True)
class GkResult:
    """K-shot count correlation (counts^K)."""

    value: float


def prediction_factor(proto: ProtocolSpec) -> float:
    """2^-K tau^K alpha^2K: the leading-order count correlation per unit C,
    (tau alpha^2 / 2) per shot. Raises ``NumericalGuardError`` if it
    overflows the float range."""
    try:
        return (0.5 * proto.sensor.tau * proto.sensor.alpha**2) ** proto.order
    except OverflowError:
        raise NumericalGuardError(
            f"2^-K tau^K alpha^2K overflows the float range at K={proto.order}, "
            f"tau={proto.sensor.tau!r}, alpha={proto.sensor.alpha!r}"
        ) from None


def _exact_chain(model: TargetModel, proto: ProtocolSpec, engine: str) -> tuple[list[Array], float, str]:
    """``proto``'s all-orders chain on ``engine`` for ``_record_chain``: the
    record of each of its shots, the product of their largest elements, the
    a-priori size of its traces, and the name of its guard. Raises
    ``NumericalGuardError`` if that product overflows the float range."""
    sensor, w = proto.sensor, model.spectral.coupling_eigvals
    keys = [s.basis for s in proto.shots]
    if engine == "fock":
        rows = SectorRows.of(sensor.alpha, w.size)  # one row build for both bases
        records = {b: rows.record(sensor.tau * w, b) for b in set(keys)}
    else:
        records = {b: ShotTable.of(w, sensor, b).record() for b in set(keys)}
    size = math.prod(float(np.max(np.abs(records[b]))) for b in keys)
    if size == math.inf:
        raise NumericalGuardError(f"the product of the {proto.order} shots' largest record elements "
                                  "overflows the float range")
    return [records[b] for b in keys], size, "exact count correlation"


def protocol_grids(
    model: TargetModel, proto: ProtocolSpec, finals, engine: str | None = "coherent"
) -> tuple[Array, Array, Array | None]:
    """C of ``proto``'s query, and its leading-order and all-orders count
    correlations, with its last shot at each of ``finals``, from one walk
    through the eigenbases and one set of final-time phases.

    C is ``correlation_grid``'s, and the leading order is
    ``prediction_factor`` times C. The all-orders grid is the record chain
    with each shot's instrument record, or with its truncated-Fock
    cross-check when ``engine`` is "fock"; None when ``engine`` is None, and
    a ValueError when it is not in ``ENGINES``. B is frozen at each shot's
    start time. ``NumericalGuardError`` is raised, in this order, if the
    factor overflows (before any record is built), if ||B||^K or the product
    of the all-orders records' largest elements does, if C's trace is not real,
    if an all-orders trace is not real, or if a leading-order value overflows.
    """
    if engine is not None and engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES} or None, got {engine!r}")
    factor = prediction_factor(proto)
    q = proto.query()
    chains = [_correlation_chain(model, q)]
    if engine is not None:
        chains.append(_exact_chain(model, proto, engine))
    corr, *exact = _record_chain(model, chains, q.times[:-1], finals)
    with np.errstate(over="ignore"):
        leading = factor * corr
    if not np.all(np.isfinite(leading)):
        raise NumericalGuardError("leading-order count correlation overflows the float range")
    return corr, leading, exact[0] if exact else None


def gk_leading(model: TargetModel, proto: ProtocolSpec) -> GkResult:
    """Leading-order K-shot count correlation: ``protocol_grids`` at the
    protocol's own last time."""
    _, leading, _ = protocol_grids(model, proto, [proto.shots[-1].time], None)
    return GkResult(value=float(leading[0]))


def gk_exact_unitary(model: TargetModel, proto: ProtocolSpec, engine: str = "coherent") -> GkResult:
    """All-orders K-shot count correlation with a fresh pulse per shot:
    ``protocol_grids`` at the protocol's own last time on ``engine``.

    Sensor-target entanglement is discarded between shots (each shot uses a
    new pulse), and B is frozen at each shot's nominal start time.
    """
    _, _, exact = protocol_grids(model, proto, [proto.shots[-1].time], engine)
    return GkResult(value=float(exact[0]))
