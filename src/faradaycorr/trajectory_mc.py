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
  drawn with probability |psi_b|^2, the table draws independent Poisson
  counts at its means for b. The state is then multiplied by the
  full Kraus element, which is diagonal in that basis and keeps the
  interference between eigenvalue branches, and renormalized. The counts
  are Poisson around alpha^2/2, so a chunk sees far fewer distinct outcomes
  (n_c, n_d) than sequences: each shot evaluates one Kraus diagonal per
  distinct outcome and gathers it to the rows that saw it. Moving to the
  next shot's eigenbasis is one d x d rotation, W_j = V_B^dag
  diag(exp(-iE (t_j - t_{j-1}))) V_B. The chunk holds its n x d amplitudes
  and, per sequence, its counts, draws and record; the per-row arithmetic
  runs over row blocks of ``BLOCK_AMPLITUDES`` amplitudes in buffers that
  every block reuses, so no other temporary grows with the chunk. Per shot
  and block: the Kraus product, the rotation by W_j^T, the next shot's
  weights |psi_b|^2 and their prefix sums along each row, whose last column
  is the row's total, then each row's branch for the next shot, the first
  whose prefix sum exceeds u times the total, and the renormalization by
  that total (W_j is unitary, so rotating first changes no norm). The
  rotation costs O(d^2) per sequence and the prefix sums O(d) (tiles of
  ``TILE_BRANCHES`` branches, each one product with a triangle of ones),
  so a chunk of n sequences costs O(n d^2) per shot. A shot whose Poisson
  means are the same on every branch (R/L, whose means are alpha^2/2 at
  both detectors) is branch-blind: its counts do not depend on the branch,
  so no branch is drawn before it, though its uniform draws are still
  taken, so the random stream is that of a draw before every shot. The
  first shot's branches are drawn from the initial states the same way,
  block by block, with no Kraus product or rotation before them.
* ``semiclassical_field``: the target is a classical stochastic field; each
  shot's counts are drawn by a ``ShotTable`` over the sequences' field
  values. Only the all-anticommutator correlation survives in this mode.

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

from .errors import NumericalGuardError, check_memory, fits_memory
from .quantum_core import Array, TargetModel
from .sensor_optics import ShotTable
from .weak_measurement import ProtocolSpec

MODES = ("kraus_quantum", "semiclassical_field")  # the two modes above
CHUNK_SIZE = 16384
# Amplitudes in one row block of a Kraus chunk, whose per-row arithmetic runs
# block by block in one complex and two real buffers of this many entries:
# 512 KiB, inside a 2 MiB L2. On a 2-vCPU Xeon (AVX-512, one BLAS thread), a
# K = 4 chunk took medians of 35, 94 and 764 ms at d = 16, 64 and 256 with
# this size; 8192 entries lost 6-12%, 4096 lost 16-47%, and 32768 and 65536
# were within 8% (32768 gained 6% at d = 256). Two workers gain more from
# larger blocks (fewer numpy calls under the GIL), but the buffers grow with
# them.
BLOCK_AMPLITUDES = 16384
# Branches per tile of the prefix sums that draw a shot's branches: each tile
# is one product with a triangle of ones, O(TILE_BRANCHES) per entry.
TILE_BRANCHES = 16
# Peak bytes a Kraus chunk holds per state amplitude, per sequence (counts,
# record, draws, outcome keys) and per amplitude of a row block (the block
# buffers and the Kraus diagonals' batch temporaries). They bound tracemalloc
# peaks of single chunks (K = 4, d = 2..256, 4096-16384 sequences) in the
# worst case, every count outcome distinct (alpha = 1e4): 32.0 bytes per
# amplitude, the states and one shot's diagonals; 108-138 per sequence; and
# 1.10-1.15 MB per chunk of 16384-amplitude blocks. At alpha = 5, where a
# shot sees a few hundred outcomes, a chunk peaks at 17-19 bytes per
# amplitude from d = 64 on, about half of its charge. Also per chunk, the
# bookkeeping held for every chunk (seed, size, result; 610-635 bytes).
AMPLITUDE_BYTES = 32
SEQUENCE_BYTES = 160
BLOCK_BYTES = 96
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
    mode: str  # one of MODES
    proto: ProtocolSpec
    model: TargetModel | ClassicalFieldModel
    workers: int = 1

    def __post_init__(self):
        if self.sequences < 1:
            raise ValueError("need at least one sequence")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.mode not in MODES:
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
    (n_d - n_c)/2, independent of the per-basis record normalization; the
    unhalved difference has 4 times that variance.
    ``chunks`` is the number of seeded chunks and ``workers`` the pool size
    that ran them, min(requested workers, chunks). ``smallest_norm2`` is a
    health counter of the Kraus mode: the smallest squared norm that a Kraus
    update left a state with before renormalizing (at most 1, since each
    Kraus diagonal's largest modulus is 1), None where no state was
    renormalized (one shot, or the semiclassical mode). None of the three
    changes the estimate, so none takes part in comparisons.
    """

    mean: float
    std_error: float
    per_shot_variance: float
    n_sequences: int
    workers: int = field(default=1, compare=False)
    chunks: int = field(default=1, compare=False)
    smallest_norm2: float | None = field(default=None, compare=False)


def _branch_probabilities(p: Array) -> Array:
    """Clip roundoff negatives and normalize along the last axis."""
    p = np.maximum(p, 0.0)
    return p / p.sum(axis=-1, keepdims=True)


def _draw_branches(p: Array, cum: Array, u: Array) -> Array:
    """The branch of each row of weights ``p``, whose prefix sums along the
    row are ``cum``, that its uniform draw u in [0, 1) falls in: the first
    whose prefix sum exceeds u times the row's total, its last prefix sum, so
    the weights need not be normalized. When roundoff leaves a total at or
    below u times itself (a subnormal total), no sum exceeds it, and the row
    draws its last branch of nonzero weight rather than branch 0."""
    bound = u * cum[:, -1]
    idx = (cum > bound[:, None]).argmax(axis=1)
    short = np.flatnonzero(cum[:, -1] <= bound)
    if short.size:
        idx[short] = p.shape[1] - 1 - (p[short, ::-1] > 0).argmax(axis=1)
    return idx


def _prefix_sums(p: Array, tile: Array, out: Array) -> Array:
    """The prefix sums along each row of ``p`` into ``out``, both of m x (t w)
    entries for the w x w upper triangle of ones ``tile``. Each tile of w
    columns takes its own prefix sums in one product, p @ tile over all m t
    tiles at once, and is then offset by the totals of the tiles before it.
    The product costs O(w) per entry, and w is at most ``TILE_BRANCHES``."""
    w = len(tile)
    np.matmul(p.reshape(-1, w), tile, out=out.reshape(-1, w))
    if out.shape[1] > w:
        tiles = out.reshape(len(out), -1, w)
        tiles[:, 1:] += np.cumsum(tiles[:, :-1, -1], axis=1)[:, :, None]
    return out


def _outcome_kraus(table: ShotTable, n_c: Array, n_d: Array) -> tuple[Array, Array]:
    """The Kraus diagonal of each distinct outcome (n_c, n_d) of a batch, and
    the index of each row's outcome among them.

    The counts are Poisson around alpha^2/2, so a batch repeats few outcomes
    many times: each distinct outcome gets one Kraus diagonal, to be gathered
    back to its rows. A row of ``kraus_diagonal`` depends on its own outcome
    only, so the gathered rows are the per-row diagonals bit for bit.

    When the outcomes span at most four cells per row of the box between
    their smallest and largest counts, each is keyed by its cell in that box
    and found in a table of the cells, with no sort. Otherwise the keys are
    the ranks of n_c and n_d among the batch's values, which stay below n^2;
    a key built from the counts themselves overflows int64 once alpha^2 nears
    1e10, and the materials preset's pulses carry 1e14 photons. Either way
    the diagonals are taken at the batch's own count values: a cell offset
    is an exact difference of two of them.
    """
    n_c, n_d = np.asarray(n_c, dtype=float), np.asarray(n_d, dtype=float)
    c_low, d_low = n_c.min(), n_d.min()
    width = n_d.max() - d_low + 1
    cells = (n_c.max() - c_low + 1) * width
    if cells <= 4 * n_c.size:
        width = int(width)
        key = ((n_c - c_low) * width + (n_d - d_low)).astype(np.intp)
        seen = np.zeros(int(cells), dtype=bool)
        seen[key] = True
        keys = np.flatnonzero(seen)
        rows = (np.cumsum(seen) - 1)[key]
        return _kraus_diagonals(table, c_low + keys // width, d_low + keys % width), rows
    c_values, c_rank = np.unique(n_c, return_inverse=True)
    d_values, d_rank = np.unique(n_d, return_inverse=True)
    width = len(d_values)
    keys, rows = np.unique(c_rank * width + d_rank, return_inverse=True)
    return _kraus_diagonals(table, c_values[keys // width], d_values[keys % width]), rows


def _kraus_diagonals(table: ShotTable, n_c: Array, n_d: Array) -> Array:
    """``table.kraus_diagonal`` of the outcomes (n_c, n_d), evaluated in
    batches of about ``BLOCK_AMPLITUDES`` entries, so that its temporaries
    (several per entry) stay block-sized however many outcomes there are. A
    row depends on its own outcome only, so the batches change no bit."""
    out = np.empty((len(n_c), len(table.theta)), dtype=complex)
    step = max(1, BLOCK_AMPLITUDES // out.shape[1])
    for a in range(0, len(out), step):
        out[a : a + step] = table.kraus_diagonal(n_c[a : a + step], n_d[a : a + step])
    return out


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
    kets = np.ascontiguousarray((into_first @ u).T)  # laid out as the chunk's rows
    return _QuantumPlan(_branch_probabilities(lam), kets, steps, tuple(w.T for w in rotations))


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
        """Draw the counts of ``table``'s coupling values ``rows`` (``ShotTable.draw``) and record them."""
        n_c, n_d = table.draw(rng, rows)
        half = (n_d - n_c) / 2
        with np.errstate(over="ignore", invalid="ignore"):  # _estimate refuses a record past the float range
            self.prod = self.prod * (2.0 * table.basis.record_scale) * half
            self.s_half += half.sum()
            self.s_half2 += (half * half).sum()
        return n_c, n_d

    def sums(self) -> tuple:
        with np.errstate(over="ignore", invalid="ignore"):
            return self.prod.sum(), (self.prod * self.prod).sum(), self.s_half, self.s_half2


def _block_rows(d: int) -> int:
    """The most rows a row block of a Kraus chunk holds at dimension d: about
    ``BLOCK_AMPLITUDES`` amplitudes, but at least three rows."""
    return max(3, BLOCK_AMPLITUDES // d)


class _Blocks:
    """The row blocks of a chunk of n x d amplitudes, and the work buffers
    that every block reuses: the gathered Kraus diagonals, and the branch
    weights |psi_b|^2 and their prefix sums, t w >= d columns wide for
    ``_prefix_sums`` over t tiles of w <= ``TILE_BRANCHES`` branches (the
    columns past d hold weight 0). ``draw`` is the one place that forms a
    block's weights and prefix sums and draws its branches: before the first
    shot on the initial states, and in each ``step`` after the rotation.

    A block holds at most ``_block_rows(d)`` rows, and the blocks are as even
    as possible, so no block of a chunk of two or more rows has one row:
    numpy hands a one-row product to gemv, whose sums can round apart from
    gemm's.
    """

    def __init__(self, n: int, d: int):
        count = -(-n // _block_rows(d))
        bounds = [n * i // count for i in range(count + 1)]
        self.rows = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        tiles = -(-d // TILE_BRANCHES)
        self.tile = np.triu(np.ones((-(-d // tiles),) * 2))
        size = -(-n // count)
        self.kraus = np.empty((size, d), dtype=complex)
        self.p = np.zeros((size, tiles * len(self.tile)))
        self.cum = np.empty_like(self.p)

    def __iter__(self):
        """Each block's rows, with the buffers cut to its size:
        (rows, kraus, p, cum)."""
        for rows in self.rows:
            m = rows.stop - rows.start
            yield rows, self.kraus[:m], self.p[:m], self.cum[:m]

    def advance(
        self, states: Array, diagonals: Array, outcome: Array, rotation: Array, u: Array | None, idx: Array
    ) -> float:
        """``step`` every block of ``states`` from one shot to the next, with
        row i's Kraus diagonal ``diagonals[outcome[i]]``; where u is given,
        the drawn branches go to ``idx``. Returns the smallest row total."""
        smallest = math.inf
        for rows, kraus, p, cum in self:
            kraus = diagonals.take(outcome[rows], axis=0, out=kraus, mode="clip")
            total, drawn = self.step(states[rows], kraus, rotation, p, cum, None if u is None else u[rows])
            smallest = min(smallest, total.min())
            if drawn is not None:
                idx[rows] = drawn
        return smallest

    def step(self, psi: Array, kraus: Array, rotation: Array, p: Array, cum: Array, u: Array | None):
        """One block's step from one shot to the next. ``kraus`` holds the
        Kraus diagonals gathered to the block's rows and is left holding
        their product with the amplitudes ``psi``, which takes the diagonal
        as its first operand, as the whole-chunk update did: numpy's complex
        product fuses a multiply-add, so swapping the operands can move the
        last bit of an imaginary part. ``psi`` is overwritten with that
        product rotated into the next shot's eigenbasis, whose branches are
        then drawn by ``draw``, and renormalized by the row totals. Returns
        the totals, the squared norms before renormalizing, and the branches
        (None where u is None)."""
        np.matmul(np.multiply(kraus, psi, out=kraus), rotation, out=psi)
        total, drawn = self.draw(psi, p, cum, u)
        flat = psi.view(float)
        np.multiply(flat, np.reciprocal(np.sqrt(total))[:, None], out=flat)
        return total, drawn

    def draw(self, psi: Array, p: Array, cum: Array, u: Array | None):
        """The branch weights |psi_b|^2 of a block's amplitudes ``psi``, formed
        as two real squares into the first d columns of ``p`` (the squared
        imaginary parts go to ``cum``), and their prefix sums along each row
        into ``cum``; where u is given, each row's branch is drawn with its u,
        and None marks a branch-blind shot, which draws none. Returns the row
        totals, the last prefix sums, and the branches (None without u)."""
        d = psi.shape[1]
        q = np.square(psi.real, out=p[:, :d])
        q += np.square(psi.imag, out=cum[:, :d])
        cum = _prefix_sums(p, self.tile, out=cum)[:, :d]
        return cum[:, -1], None if u is None else _draw_branches(q, cum, u)


def _run_quantum_chunk(
    n: int, rng: np.random.Generator, init_rng: np.random.Generator, plan: _QuantumPlan
) -> tuple:
    """The record sums of a chunk of n sequences, and the smallest row total
    that a Kraus update renormalized by (inf where none did)."""
    states = plan.kets[init_rng.choice(len(plan.weights), size=n, p=plan.weights)]
    blocks = _Blocks(n, states.shape[1])
    record = _Record(n)
    idx = np.zeros(n, dtype=np.intp)  # a branch-blind shot reads its means at any branch
    smallest = math.inf
    u = rng.random(n)
    if not plan.tables[0].blind:
        for rows, _, p, cum in blocks:
            idx[rows] = blocks.draw(states[rows], p, cum, u[rows])[1]
    for j, table in enumerate(plan.tables):
        n_c, n_d = record.shot(rng, table, idx)
        if j == len(plan.rotations):  # the state after the last shot is never read
            break
        u = rng.random(n)  # the next shot's draws, read unless it is branch-blind
        draws = None if plan.tables[j + 1].blind else u
        # the diagonals die with the call, before the next shot's are formed
        total = blocks.advance(states, *_outcome_kraus(table, n_c, n_d), plan.rotations[j], draws, idx)
        smallest = min(smallest, total)
    return record.sums(), smallest


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
    record = _Record(n)
    # a field or rotation tau b / 2 beyond the float range overflows quietly, and ShotTable.draw refuses its means
    with np.errstate(over="ignore", invalid="ignore"):
        paths = _sample_field_paths(field, times, n, rng)
        for j, shot in enumerate(proto.shots):
            record.shot(rng, ShotTable.of(paths[:, j], proto.sensor, shot.basis))
    return record.sums()


def chunk_count(sequences: int) -> int:
    """Number of CHUNK_SIZE chunks that ``sequences`` sequences split into."""
    return (sequences + CHUNK_SIZE - 1) // CHUNK_SIZE


def _pool_size(cfg: TrajectoryConfig, n_chunks: int) -> int:
    """Threads in the pool that runs ``n_chunks`` chunks of ``cfg``: the
    requested count, but no more than there are chunks."""
    return min(cfg.workers, n_chunks)


def _chunk_bytes(cfg: TrajectoryConfig) -> int:
    """Bytes one chunk of ``cfg`` in flight holds, with its temporaries."""
    n = min(CHUNK_SIZE, cfg.sequences)
    if cfg.mode == "kraus_quantum":
        d = cfg.model.dim
        block = min(n, _block_rows(d)) * d
        return n * (d * AMPLITUDE_BYTES + SEQUENCE_BYTES) + block * BLOCK_BYTES
    return n * (8 * cfg.proto.order + SEQUENCE_BYTES)


def _memory_bytes(cfg: TrajectoryConfig) -> int:
    """Bytes ``run_sequences`` holds at once: the bookkeeping of every chunk,
    the chunks in flight with their temporaries, and the shared per-shot tables."""
    n_chunks = chunk_count(cfg.sequences)
    shared = 2 * cfg.proto.order * cfg.model.dim**2 * 16 if cfg.mode == "kraus_quantum" else 0
    return n_chunks * CHUNK_BYTES + _pool_size(cfg, n_chunks) * _chunk_bytes(cfg) + shared


def _estimate(results, cfg: TrajectoryConfig, smallest_norm2: float = math.inf) -> McEstimate:
    """Combine per-chunk sums, in chunk order, into the estimate; every one of
    the L sequences records K shots. ``smallest_norm2`` is the chunks'
    smallest renormalization total, inf where none renormalized. A sum
    that is not finite raises ``NumericalGuardError``."""
    L = cfg.sequences
    with np.errstate(over="ignore", invalid="ignore"):
        s1, s2, sh, sh2 = (sum(r[i] for r in results) for i in range(4))
    if not all(map(math.isfinite, (s1, s2, sh, sh2))):
        raise NumericalGuardError("the Monte Carlo record leaves the float range: "
                                  "its sums of records and their squares are not finite")
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
        n_sequences=L,
        workers=_pool_size(cfg, len(results)),
        chunks=len(results),
        smallest_norm2=float(smallest_norm2) if math.isfinite(smallest_norm2) else None,
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
            return _run_semiclassical_chunk(size, np.random.default_rng(seed), cfg.model, cfg.proto), math.inf

    with ThreadPoolExecutor(max_workers=_pool_size(cfg, n_chunks)) as pool:
        sums, smallest = zip(*pool.map(job, sizes, seeds))
    return _estimate(sums, cfg, min(smallest))


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
