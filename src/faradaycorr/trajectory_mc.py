"""Stochastic shot-by-shot simulation of the counting experiment.

Two modes:

* ``kraus_quantum``: exact quantum trajectories of state vectors. Each
  sequence starts in an eigenvector |u_k> of rho0 = sum_k lambda_k |u_k><u_k|,
  drawn with probability lambda_k; the record statistics are linear in rho0,
  so this unravelling reproduces those of the mixed state exactly. Per shot,
  the state is held in the eigenbasis of the coupling B(t_j) (from the model's
  spectral data, so no shot diagonalizes anything). Each shot's statistics
  come from the shot instrument, ``sensor_optics.ShotTable``, whose first
  moment is the record of the exact chain. Conditioned on an eigenvalue b,
  drawn with probability |psi_b|^2, the detectors see independent Poisson
  counts with the table's means for b. The state is then multiplied by the
  full Kraus element, which is diagonal in that basis and keeps the
  interference between eigenvalue branches, and renormalized. The counts
  are Poisson around alpha^2/2, so a chunk sees far fewer distinct outcomes
  (n_c, n_d) than sequences: each shot evaluates one Kraus diagonal per
  distinct outcome and gathers it to the rows that saw it. Moving to the
  next shot's eigenbasis is one d x d rotation, W_j = V_B^dag
  diag(exp(-iE (t_j - t_{j-1}))) V_B, so a chunk of n sequences holds n x d
  amplitudes and costs O(n d^2) per shot.
* ``semiclassical_field``: the target is a classical stochastic field; each
  shot draws Poisson counts from the same instrument, a ``ShotTable`` over
  the sequences' field values, whose means it reads. Only the
  all-anticommutator correlation survives in this mode.

Reproducibility: the master seed is split into fixed-size chunks of
sequences via ``numpy.random.SeedSequence.spawn``; every run's chunks go
through one thread pool of min(workers, chunks) threads, and results are
combined in chunk-index order, so they do not depend on the worker count
(``default_workers`` picks one per usable core, within the memory guard). A
chunk draws its shots from its own stream and its initial states from a
child of that stream, so the shot draws do not depend on how rho0 is
unravelled: for a pure rho0 they are those of a density-matrix simulation
with the same seed.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import check_memory, fits_memory
from .quantum_core import Array, TargetModel
from .sensor_optics import MeasurementBasis, ShotTable
from .weak_measurement import ProtocolSpec

CHUNK_SIZE = 16384
# Peak bytes a chunk holds per state amplitude and per sequence (counts,
# products, draws), upper bounds on tracemalloc peaks of single 16384-sequence
# chunks (K = 4, alpha = 5: 57-66 bytes per amplitude at d = 8..64 with the
# whole peak charged to the amplitudes, 48-55 beyond 144 per sequence),
# and per chunk for the bookkeeping held for every chunk (seed, size, result;
# 610-635 bytes).
AMPLITUDE_BYTES = 80
SEQUENCE_BYTES = 160
CHUNK_BYTES = 640
# numpy's Generator.poisson refuses a mean above int64 max - 10 sqrt(int64 max).
# A shot's two means sum to alpha^2, so alpha^2 at or below this fits any shot.
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max) - 10 * math.sqrt(np.iinfo(np.int64).max)


class FieldKind(Enum):
    CONSTANT = "constant"
    ORNSTEIN_UHLENBECK = "ornstein_uhlenbeck"
    TELEGRAPH = "telegraph"


@dataclass(frozen=True)
class ClassicalFieldModel:
    """Classical magnetization field b(t) in rad/s.

    ``amplitude`` is the constant value, the stationary standard deviation
    (Ornstein-Uhlenbeck) or the two-state level (telegraph).
    """

    kind: FieldKind
    amplitude: float
    correlation_time: float = math.inf

    def __post_init__(self):
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        if self.kind is not FieldKind.CONSTANT and not self.correlation_time > 0:
            raise ValueError("stochastic field kinds need a positive correlation time")


@dataclass(frozen=True)
class TrajectoryConfig:
    sequences: int
    seed: int
    mode: str  # "kraus_quantum" | "semiclassical_field"
    proto: ProtocolSpec
    model: TargetModel | ClassicalFieldModel
    workers: int = 1

    def __post_init__(self):
        if self.sequences < 1:
            raise ValueError("need at least one sequence")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.mode not in ("kraus_quantum", "semiclassical_field"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "kraus_quantum" and not isinstance(self.model, TargetModel):
            raise ValueError("kraus_quantum mode requires a TargetModel")
        if self.mode == "semiclassical_field" and not isinstance(self.model, ClassicalFieldModel):
            raise ValueError("semiclassical_field mode requires a ClassicalFieldModel")
        photons = self.proto.sensor.alpha * self.proto.sensor.alpha
        if photons > POISSON_MEAN_MAX:
            raise ValueError(
                f"alpha^2 = {photons:.4g} photons per pulse exceeds the largest Poisson mean "
                f"numpy draws, {POISSON_MEAN_MAX:.10g}"
            )


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate of the K-shot count correlation.

    ``per_shot_variance`` is the variance of the half count difference
    (n_d - n_c)/2, independent of the per-basis record normalization;
    ``per_shot_variance_raw`` is the variance of the unhalved difference.
    ``chunks`` is the number of seeded chunks and ``workers`` the pool size
    that ran them, min(requested workers, chunks); neither changes the
    estimate, so neither takes part in comparisons.
    """

    mean: float
    std_error: float
    per_shot_variance: float
    per_shot_variance_raw: float
    n_sequences: int
    workers: int = field(default=1, compare=False)
    chunks: int = field(default=1, compare=False)


def _branch_probabilities(p: Array) -> Array:
    """Clip roundoff negatives and normalize along the last axis."""
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=-1, keepdims=True)


def _draw_branches(p: Array, u: Array) -> Array:
    """The branch of each row of probabilities ``p`` that its uniform draw u
    in [0, 1) falls in: the first whose cumulative sum exceeds u. When
    roundoff leaves a row's total at or below u, no sum exceeds it, and the
    row draws its last branch with nonzero probability rather than branch 0."""
    cum = np.cumsum(p, axis=1)
    idx = (cum > u[:, None]).argmax(axis=1)
    short = np.flatnonzero(cum[:, -1] <= u)
    idx[short] = p.shape[1] - 1 - (p[short, ::-1] > 0).argmax(axis=1)
    return idx


def _kraus_update(states: Array, table: ShotTable, n_c: Array, n_d: Array) -> Array:
    """Apply the Kraus element of each outcome to the state vector in the same
    row (amplitudes in the shot's eigenbasis) and renormalize.

    The counts are Poisson around alpha^2/2, so a batch repeats few outcomes
    many times: each distinct (n_c, n_d) gets one Kraus diagonal, gathered
    back to its rows. A row of ``kraus_diagonal`` depends on its own outcome
    only, so this is the per-row product bit for bit. Outcomes are keyed by
    the ranks of n_c and n_d among the batch's values, which stay below n^2;
    a key built from the counts themselves overflows int64 once alpha^2
    nears 1e10, and the materials preset's pulses carry 1e14 photons.
    """
    c_values, c_rank = np.unique(np.asarray(n_c, dtype=float), return_inverse=True)
    d_values, d_rank = np.unique(np.asarray(n_d, dtype=float), return_inverse=True)
    width = len(d_values)
    keys, rows = np.unique(c_rank * width + d_rank, return_inverse=True)
    states = states * table.kraus_diagonal(c_values[keys // width], d_values[keys % width])[rows]
    return states / np.linalg.norm(states, axis=1, keepdims=True)


# -- batched sequence simulation ---------------------------------------------


@dataclass(frozen=True)
class _QuantumPlan:
    """What every Kraus chunk of one protocol shares."""

    weights: Array                # lambda_k, eigenvalues of rho0
    kets: Array                   # row k: eigenvector u_k of rho0 in the first shot's eigenbasis
    tables: tuple[ShotTable, ...]  # one per shot
    rotations: tuple[Array, ...]  # W_j^T, into the eigenbasis of shot j = 2..K


def _quantum_plan(model: TargetModel, proto: ProtocolSpec) -> _QuantumPlan:
    """Unravelling of rho0 and per-shot tables, shared by all sequences.

    Every B(t_j) has the eigenvalues of B, so the detector statistics depend
    on the shot's basis only; the changes of basis are ``SpectralData.walk``.
    States are rows, so a change of basis multiplies by W_j^T on the right.
    """
    spec = model.spectral
    into_first, *rotations, _ = spec.walk([shot.time for shot in proto.shots])
    tables = {b: ShotTable.of(spec.coupling_eigvals, proto.sensor, b) for b in {s.basis for s in proto.shots}}
    lam, u = np.linalg.eigh(spec.initial_state)
    steps = tuple(tables[shot.basis] for shot in proto.shots)
    return _QuantumPlan(_branch_probabilities(lam), (into_first @ u).T, steps, tuple(w.T for w in rotations))


class _Record:
    """The running record of a chunk of n sequences.

    A shot records (n_d - n_c)/2 times 2 * record_scale of its basis: the half
    difference for S2, the raw difference for S3. Per sequence the record is
    the product over its shots; over all shots the half difference and its
    square are summed for the per-shot variance.
    """

    def __init__(self, n: int):
        self.prod = np.ones(n)
        self.s_half = 0.0
        self.s_half2 = 0.0

    def shot(self, rng: np.random.Generator, table: ShotTable, rows=slice(None)):
        """Draw the counts (n_c, n_d) from the Poisson means of ``table``'s
        coupling values ``rows``, one per sequence, and record them."""
        means_c, means_d = table.means()
        n_c = rng.poisson(means_c[rows]).astype(float)
        n_d = rng.poisson(means_d[rows]).astype(float)
        half = (n_d - n_c) / 2
        self.prod = self.prod * (2.0 * table.basis.record_scale) * half
        self.s_half += half.sum()
        self.s_half2 += (half * half).sum()
        return n_c, n_d

    def sums(self) -> tuple:
        return self.prod.sum(), (self.prod * self.prod).sum(), self.s_half, self.s_half2


def _run_quantum_chunk(
    n: int, rng: np.random.Generator, init_rng: np.random.Generator, plan: _QuantumPlan
) -> tuple:
    states = plan.kets[init_rng.choice(len(plan.weights), size=n, p=plan.weights)]
    record = _Record(n)
    for j, table in enumerate(plan.tables):
        p = _branch_probabilities(states.real**2 + states.imag**2)
        idx = _draw_branches(p, rng.random(n))
        n_c, n_d = record.shot(rng, table, idx)
        if j < len(plan.rotations):  # the state after the last shot is never read
            states = _kraus_update(states, table, n_c, n_d) @ plan.rotations[j]
    return record.sums()


def _sample_field_paths(
    field: ClassicalFieldModel, times: np.ndarray, n: int, rng: np.random.Generator
) -> Array:
    k = len(times)
    if field.kind is FieldKind.CONSTANT:
        return np.full((n, k), field.amplitude)
    gaps = np.diff(times)
    if field.kind is FieldKind.ORNSTEIN_UHLENBECK:
        b = np.empty((n, k))
        b[:, 0] = field.amplitude * rng.standard_normal(n)
        for j, dt in enumerate(gaps):
            r = math.exp(-dt / field.correlation_time)
            b[:, j + 1] = b[:, j] * r + field.amplitude * math.sqrt(1 - r * r) * rng.standard_normal(n)
        return b
    # telegraph: stationary start, flip probability set by the gap length
    b = np.empty((n, k))
    b[:, 0] = np.where(rng.random(n) < 0.5, 1.0, -1.0) * field.amplitude
    for j, dt in enumerate(gaps):
        p_flip = 0.5 * (1.0 - math.exp(-dt / field.correlation_time))
        flip = rng.random(n) < p_flip
        b[:, j + 1] = np.where(flip, -b[:, j], b[:, j])
    return b


def _run_semiclassical_chunk(
    n: int, rng: np.random.Generator, field: ClassicalFieldModel, proto: ProtocolSpec
) -> tuple:
    times = np.array([s.time for s in proto.shots])
    paths = _sample_field_paths(field, times, n, rng)
    record = _Record(n)
    for j, shot in enumerate(proto.shots):
        table = ShotTable.of(paths[:, j], proto.sensor, shot.basis)
        record.shot(rng, table)
    return record.sums()


def chunk_count(sequences: int) -> int:
    """Number of CHUNK_SIZE chunks that ``sequences`` sequences split into."""
    return (sequences + CHUNK_SIZE - 1) // CHUNK_SIZE


def _pool_size(cfg: TrajectoryConfig, n_chunks: int) -> int:
    """Threads in the pool that runs ``n_chunks`` chunks of ``cfg``: the
    requested count, but no more than there are chunks."""
    return min(cfg.workers, n_chunks)


def _memory_bytes(cfg: TrajectoryConfig) -> int:
    """Bytes ``run_sequences`` holds at once: the bookkeeping of every chunk,
    the chunks in flight with their temporaries, and the shared per-shot tables."""
    n = min(CHUNK_SIZE, cfg.sequences)
    n_chunks = chunk_count(cfg.sequences)
    in_flight = _pool_size(cfg, n_chunks)
    k = cfg.proto.order
    bookkeeping = n_chunks * CHUNK_BYTES
    if cfg.mode == "kraus_quantum":
        d = cfg.model.dim
        return bookkeeping + in_flight * n * (d * AMPLITUDE_BYTES + SEQUENCE_BYTES) + 2 * k * d * d * 16
    return bookkeeping + in_flight * n * (8 * k + SEQUENCE_BYTES)


def _estimate(results, cfg: TrajectoryConfig) -> McEstimate:
    """Combine per-chunk sums, in chunk order, into the estimate; every one of
    the L sequences records K shots."""
    L = cfg.sequences
    s1 = sum(r[0] for r in results)
    s2 = sum(r[1] for r in results)
    sh = sum(r[2] for r in results)
    sh2 = sum(r[3] for r in results)
    n_rec = L * cfg.proto.order

    mean = s1 / L
    if L > 1:
        var = max((s2 - L * mean * mean) / (L - 1), 0.0)
        std_error = math.sqrt(var / L)
    else:
        std_error = math.inf
    half_mean = sh / n_rec
    half_var = max(sh2 / n_rec - half_mean * half_mean, 0.0)
    return McEstimate(
        mean=float(mean),
        std_error=float(std_error),
        per_shot_variance=float(half_var),
        per_shot_variance_raw=float(4.0 * half_var),
        n_sequences=L,
        workers=_pool_size(cfg, len(results)),
        chunks=len(results),
    )


def check_mc_memory(cfg: TrajectoryConfig) -> None:
    """Raise ``ResourceGuardError`` if the chunks' bookkeeping and the chunks
    in flight of ``cfg`` would exceed the memory guard."""
    check_memory(_memory_bytes(cfg), f"{cfg.mode} Monte Carlo")


def run_sequences(cfg: TrajectoryConfig) -> McEstimate:
    """Estimate the K-shot count correlation over L independent sequences.

    Runs ``check_mc_memory`` before allocating.
    """
    L = cfg.sequences
    n_chunks = chunk_count(L)
    check_mc_memory(cfg)
    seeds = np.random.SeedSequence(cfg.seed).spawn(n_chunks)
    sizes = [min(CHUNK_SIZE, L - i * CHUNK_SIZE) for i in range(n_chunks)]

    if cfg.mode == "kraus_quantum":
        plan = _quantum_plan(cfg.model, cfg.proto)

        def job(size, seed):
            init_rng = np.random.default_rng(seed.spawn(1)[0])
            return _run_quantum_chunk(size, np.random.default_rng(seed), init_rng, plan)

    else:

        def job(size, seed):
            return _run_semiclassical_chunk(size, np.random.default_rng(seed), cfg.model, cfg.proto)

    with ThreadPoolExecutor(max_workers=_pool_size(cfg, n_chunks)) as pool:
        return _estimate(list(pool.map(job, sizes, seeds)), cfg)


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def default_workers(cfg: TrajectoryConfig) -> int:
    """Worker count for ``cfg`` when none is asked for: one per usable core
    but no more than there are chunks, stepped down to the largest count
    whose chunks in flight pass the memory guard (at least 1).

    ``cfg.workers`` is ignored. Results do not depend on the count, so a
    defaulted run never exits 4 where one worker would fit.
    """
    n_chunks = chunk_count(cfg.sequences)
    workers = max(1, min(usable_cores(), n_chunks))
    while workers > 1 and not fits_memory(_memory_bytes(replace(cfg, workers=workers))):
        workers -= 1
    return workers


def empirical_snr(est: McEstimate) -> float:
    """sqrt(L)-included SNR of the estimate: mean / standard error.

    0 when the standard error is infinite (one sequence). A zero standard
    error (every sequence recorded the same value) gives 0 for a zero mean
    and infinity with the sign of the mean otherwise, never NaN.
    """
    if not math.isfinite(est.std_error):
        return 0.0
    if est.std_error == 0:
        return 0.0 if est.mean == 0 else math.copysign(math.inf, est.mean)
    return est.mean / est.std_error


def snr_convention_factor(proto: ProtocolSpec) -> float:
    """Ratio between the empirical SNR of the per-basis records and the
    closed-form SNR formulas (which assume mean coefficient alpha^2/2 and
    per-shot noise alpha at every shot): one factor 2 per D/A (S2) shot.
    """
    n_s2 = sum(1 for s in proto.shots if s.basis is MeasurementBasis.S2)
    return 2.0**n_s2
