"""Time-ordered correlations, and the record chain that evaluates them.

A K-th order time-ordered correlation is the trace of a chain of branch
superoperators applied to the initial state,

    C^{eta_K ... eta_1} = Tr[ B^{eta_K}_K ... B^{eta_1}_1 rho ],

where each B^{+} is the symmetrized product (anticommutator / 2), each B^{-}
the commutator divided by i, and the k-th operator is the coupling taken in
the interaction picture at time t_k.

In the eigenbasis of B(t_j), with eigenvalues w, B^{+} multiplies rho
elementwise by (w_i + w_k)/2 and B^{-} by (w_i - w_k)/i (``branch_record``).
A weak-measurement shot acts the same way with another d x d "record matrix"
(``weak_measurement``), so one chain, ``_record_chain``, evaluates C and the
all-orders count correlation: it holds rho in the current B(t_j) eigenbasis,
multiplies by each shot's record matrix and moves to the next eigenbasis with
W_j = V_B† diag(exp(-iE (t_j - t_{j-1}))) V_B, with H = V diag(E) V† and
B = V_B diag(w_B) V_B† (``SpectralData.walk``), so no shot computes an
exponential or an eigendecomposition. Only the diagonal m_ii
of the last record reaches the trace, so the last shot is the observable
X = V_B diag(m_ii) V_B† and a grid of final times t_K costs O(d^2) each
(``SpectralData.final_traces``). Chains at the same shot times, such as C
and the all-orders column of one protocol, share the walk and the phases of
each final time. The chain returns real grids, each checked by
``real_trace`` against its chain's a-priori size, so no caller sees a
complex trace. A closing "-" branch has a zero diagonal, so its C is
exactly zero. ``correlation_grid`` takes one query and the final times to
evaluate it at; ``correlation`` is that grid at the query's own last time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError, NumericalGuardError
from .quantum_core import Array, TargetModel, as_operator

# Allowed imaginary residue of a physical trace, relative to its a-priori size
# (e.g. ||B||^K for a K-th order C).
TRACE_IMAG_TOL = 1e-10


class BranchSign(Enum):
    PLUS = "+"
    MINUS = "-"


@dataclass(frozen=True)
class CorrelationQuery:
    """Times (finite, non-decreasing, seconds) and branch signs, index k paired with t_k."""

    times: tuple[float, ...]
    signs: tuple[BranchSign, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        signs = tuple(self.signs)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "signs", signs)
        if len(times) != len(signs):
            raise ValueError("times and signs must have the same length")
        if len(times) < 1:
            raise ValueError("need at least one shot")
        if not all(map(math.isfinite, times)) or any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("times must be finite and non-decreasing")

    @property
    def order(self) -> int:
        return len(self.times)

    def label(self) -> str:
        """Sign string in the conventional (last shot first) reading order."""
        return "".join(s.value for s in reversed(self.signs))


def apply_branch(b: Array, sign: BranchSign, rho: Array) -> Array:
    """Apply B^+ (anticommutator/2) or B^- (commutator/i) to rho."""
    b, rho = as_operator(b), as_operator(rho)
    if b.shape[0] != rho.shape[0]:
        raise DimensionMismatchError("operator and state dims differ")
    if sign is BranchSign.PLUS:
        return (b @ rho + rho @ b) / 2
    return (b @ rho - rho @ b) / 1j


def branch_record(w: Array, sign: BranchSign) -> Array:
    """``apply_branch`` in the eigenbasis of B, eigenvalues ``w``: the matrix
    that multiplies rho elementwise."""
    w = np.asarray(w, dtype=float)
    if sign is BranchSign.PLUS:
        return (w[:, None] + w[None, :]) / 2
    return (w[:, None] - w[None, :]) / 1j


def heisenberg_coupling(model: TargetModel, t: float) -> Array:
    """Interaction-picture coupling B(t) = exp(+iHt) B exp(-iHt).

    Read from the model's spectral data: B(t) in the H eigenbasis is B with
    element (i, j) multiplied by exp(i (E_i - E_j) t), rotated back to the
    model's basis. No exponential or eigendecomposition is computed per call.
    """
    spec = model.spectral
    p = spec.phases(t)
    return spec.basis @ (p[:, None] * spec.coupling * p.conj()[None, :]) @ spec.basis.conj().T


def real_trace(values, scale: float, what: str) -> Array:
    """Real parts of traces that are real in exact arithmetic.

    The imaginary roundoff residue is checked against ``TRACE_IMAG_TOL`` times
    ``scale``, the a-priori size of the traces: for a K-shot chain the product
    of the per-shot operator norms, ||B||^K for C. A residue above that, or a
    NaN, raises ``NumericalGuardError``.
    """
    values = np.asarray(values)
    residue = float(np.max(np.abs(values.imag), initial=0.0))
    if not residue <= TRACE_IMAG_TOL * scale:
        raise NumericalGuardError(
            f"{what} has imaginary residue {residue:.3e}, above "
            f"{TRACE_IMAG_TOL:.0e} of its a-priori size {scale:.3e}"
        )
    return values.real


def _record_chain(model: TargetModel, chains, times, finals) -> list[Array]:
    """Real traces of chains of K shots at the same times: one grid per
    chain, one entry per final time.

    Each of ``chains`` is (records, size, name): the record matrix of each of
    its shots, the a-priori size of its traces, and the name its guard error
    gives. Shot j multiplies rho, held in the eigenbasis of B(t_j),
    elementwise by its record; ``times`` are the t_j of the first K-1 shots.
    The last record closes the chain through its diagonal as
    X = V_B diag(m_ii) V_B†, traced at each of ``finals``, which must be
    finite and not before the last of ``times`` (else ``ValueError``). The
    chains share one walk through the eigenbases and the phases of each final
    time. Each grid is checked by ``real_trace`` against its size, in the
    order of ``chains``.
    """
    finals = np.asarray(finals, dtype=float)
    if not np.all(np.isfinite(finals)) or (len(times) and np.any(finals < times[-1])):
        raise ValueError("final times must be finite and not before the shot they follow")
    spec = model.spectral
    *changes, back = spec.walk(times)  # rho0 and X are in the H eigenbasis
    changes = [(w, w.conj().T) for w in changes]
    v_b = spec.coupling_eigvecs
    closing = []
    for records, _, _ in chains:
        rho = spec.initial_state
        for (w, w_h), record in zip(changes, records):
            rho = record * (w @ rho @ w_h)
        closing.append(((v_b * np.diag(records[-1])) @ v_b.conj().T, back @ rho @ back.conj().T))
    traces = spec.final_traces(closing, finals)
    return [real_trace(row, size, name) for row, (_, size, name) in zip(traces, chains)]


def _correlation_chain(model: TargetModel, q: CorrelationQuery) -> tuple[list[Array], float, str]:
    """``q``'s chain for ``_record_chain``: the branch record of each of its
    shots, ||B||^K, the a-priori size of its C, and the name of its guard.
    Raises ``NumericalGuardError`` if ||B||^K overflows the float range."""
    spec = model.spectral
    try:
        size = spec.coupling_norm**q.order
    except OverflowError:
        raise NumericalGuardError(
            f"||B||^K overflows the float range at K={q.order}, ||B||={spec.coupling_norm!r}"
        ) from None
    records = {sign: branch_record(spec.coupling_eigvals, sign) for sign in set(q.signs)}
    return [records[sign] for sign in q.signs], size, "correlation trace"


def correlation_grid(model: TargetModel, q: CorrelationQuery, finals) -> Array:
    """C of ``q`` with its last shot's time replaced by each of ``finals``:
    the first K-1 branches are applied once, then each final time costs one
    O(d^2) trace."""
    (corr,) = _record_chain(model, [_correlation_chain(model, q)], q.times[:-1], finals)
    return corr


def correlation(model: TargetModel, q: CorrelationQuery) -> float:
    """Evaluate C^{eta_K...eta_1}: ``correlation_grid`` at the query's own last time."""
    return float(correlation_grid(model, q, [q.times[-1]])[0])
