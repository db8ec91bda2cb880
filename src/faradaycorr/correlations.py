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
(``weak_measurement``), so one chain, ``_record_chain``, evaluates C and both
count correlations: it holds rho in the current B(t_j) eigenbasis, multiplies
by each shot's record matrix and moves to the next shot's eigenbasis with
W_j = V_j† V_{j-1}. The eigendata come from ``TargetModel.spectral``, so no
shot computes an exponential or an eigendecomposition. Only the diagonal m_ii
of the last record reaches the trace, so the last shot is the observable
X = V_B diag(m_ii) V_B† and a grid of final times t_K costs O(d^2) each
(``SpectralData.final_traces``). A closing "-" branch has a zero diagonal, so
its C is exactly zero. ``correlation`` is ``correlation_grid`` with one point.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain, pairwise

import numpy as np

from .errors import DimensionMismatchError, NumericalGuardError
from .quantum_core import Array, TargetModel, as_operator
from .tolerances import TOL


class BranchSign(Enum):
    PLUS = "+"
    MINUS = "-"


@dataclass(frozen=True)
class CorrelationQuery:
    """Times (non-decreasing, seconds) and branch signs, index k paired with t_k."""

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
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("times must be non-decreasing")

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
    return spec.to_model_basis(spec.coupling_at(t))


def real_trace(values, scale: float, what: str) -> Array:
    """Real parts of traces that are real in exact arithmetic.

    The imaginary roundoff residue is checked against ``TOL.trace_imag`` times
    ``scale``, the a-priori size of the traces: for a K-shot chain the product
    of the per-shot operator norms, ||B||^K for C. A residue above that, or a
    NaN, raises ``NumericalGuardError``.
    """
    values = np.asarray(values)
    residue = float(np.max(np.abs(values.imag), initial=0.0))
    if not residue <= TOL.trace_imag * scale:
        raise NumericalGuardError(
            f"{what} has imaginary residue {residue:.3e}, above "
            f"{TOL.trace_imag:.0e} of its a-priori size {scale:.3e}"
        )
    return values.real


def final_time_grid(queries: Sequence[CorrelationQuery]) -> Array:
    """Final times of queries that differ only in the time of their last shot."""
    if not queries:
        raise ValueError("need at least one query")
    head = queries[0]
    for q in queries[1:]:
        if q.signs != head.signs or q.times[:-1] != head.times[:-1]:
            raise ValueError("queries must differ only in the time of their last shot")
    return np.array([q.times[-1] for q in queries])


def basis_changes(bases: Iterable[Array]) -> Iterator[Array]:
    """W_j = V_j† V_{j-1}: coordinates in basis j-1 to coordinates in basis j."""
    return (v.conj().T @ prev for prev, v in pairwise(bases))


def _record_chain(model: TargetModel, records: dict, keys, times, finals, scale: float, what: str) -> Array:
    """Traces of a chain of K shots, one per final time.

    Shot j multiplies rho, held in the eigenbasis of B(t_j), elementwise by
    ``records[keys[j]]``, the record matrix of its basis; ``times`` are the
    t_j of the first K-1 shots. The last record closes the chain through its
    diagonal as X = V_B diag(m_ii) V_B†, traced at each of ``finals``.
    ``scale`` is the a-priori size of the traces for ``real_trace``.
    """
    spec = model.spectral
    # rho0 and X are in the H eigenbasis; the last change returns there, with no record
    bases = chain([spec.basis], map(spec.coupling_eigvecs_at, times), [spec.basis])
    steps = [*(records[key] for key in keys[:-1]), 1.0]
    rho = spec.initial_state
    for w, record in zip(basis_changes(bases), steps):
        rho = record * (w @ rho @ w.conj().T)
    v_b = spec.coupling_eigvecs
    x = (v_b * np.diag(records[keys[-1]])) @ v_b.conj().T
    return real_trace(spec.final_traces(x, rho, finals), scale, what)


def correlation_grid(model: TargetModel, queries: Sequence[CorrelationQuery]) -> Array:
    """C for queries sharing every shot but the last one's time (see
    ``final_time_grid``): the first K-1 branches are applied once, then each
    final time costs one O(d^2) trace."""
    finals = final_time_grid(queries)
    head = queries[0]
    spec = model.spectral
    records = {sign: branch_record(spec.coupling_eigvals, sign) for sign in set(head.signs)}
    scale = spec.coupling_norm**head.order
    return _record_chain(model, records, head.signs, head.times[:-1], finals, scale, "correlation trace")


def correlation(model: TargetModel, q: CorrelationQuery) -> float:
    """Evaluate C^{eta_K...eta_1}: ``correlation_grid`` with one final time."""
    return float(correlation_grid(model, [q])[0])

