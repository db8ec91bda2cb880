import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faradaycorr import errors, trajectory_mc
from faradaycorr.errors import DimensionMismatchError, ResourceGuardError
from faradaycorr.quantum_core import (
    DensityMatrix,
    TargetModel,
    cluster_eigenvalues,
    pure_state,
    spin_operators,
    thermal_state,
)
from faradaycorr.sensor_optics import MeasurementBasis, SensorConfig, ShotTable
from faradaycorr.trajectory_mc import (
    BLOCK_AMPLITUDES,
    CHUNK_SIZE,
    POISSON_MEAN_MAX,
    ClassicalFieldModel,
    FieldKind,
    McEstimate,
    TrajectoryConfig,
    _Blocks,
    _Record,
    _branch_blind,
    _draw_branches,
    _estimate,
    _chunk_bytes,
    _outcome_kraus,
    _quantum_plan,
    _run_quantum_chunk,
    default_workers,
    empirical_snr,
    run_sequences,
)
from faradaycorr.weak_measurement import ProtocolSpec, ProtocolWarning, ShotSpec, gk_exact_unitary

from conftest import SX, SZ, UP, precession_model, random_hermitian
from crosscheck import (
    KrausOutcomeSampler,
    density_matrix_chunk,
    expm_coupling,
    snr_convention_factor,
    spectral_eigvecs,
    vector_chunk,
)

S2, S3 = MeasurementBasis.S2, MeasurementBasis.S3


def proto(bases_times, alpha, tau):
    shots = tuple(ShotSpec(time=t, basis=b) for t, b in bases_times)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ProtocolWarning)  # a closing S3 shot is tested on purpose
        return ProtocolSpec(shots=shots, sensor=SensorConfig(alpha=alpha, tau=tau))


def block_steps(states, diagonals, rotation=None, u=None):
    """The chunk's per-block step over whole rows of ``states``, block by
    block: the Kraus diagonals (one row per state) multiplied in, the product
    rotated (by the identity unless given) and renormalized, and, where u is
    given, the next shot's branches drawn. Returns the products, the new
    states, the row totals and the branches (None without u)."""
    n, d = states.shape
    psi = np.array(states, dtype=complex)
    rotation = np.eye(d) if rotation is None else rotation
    product, totals = np.empty_like(psi), np.empty(n)
    idx = None if u is None else np.empty(n, dtype=np.intp)
    blocks = _Blocks(n, d)
    for rows, kraus, p, cum in blocks:
        kraus[:] = diagonals[rows]
        totals[rows], drawn = blocks.step(psi[rows], kraus, rotation, p, cum, None if u is None else u[rows])
        product[rows] = kraus
        if u is not None:
            idx[rows] = drawn
    return product, psi, totals, idx


def kraus_update(states, table, n_c, n_d):
    """The chunk's Kraus update of whole rows: one diagonal per distinct
    outcome, gathered back to its rows, applied by the per-block step.
    Returns the products, the renormalized states and the row totals."""
    diagonals, outcome = _outcome_kraus(table, n_c, n_d)
    product, psi, totals, _ = block_steps(states, diagonals.take(outcome, axis=0))
    return product, psi, totals


class TestClusterEigenvalues:
    def test_distinct_untouched(self):
        w = np.array([-1.0, 0.5, 2.0])
        assert np.array_equal(cluster_eigenvalues(w), w)

    def test_near_degenerate_snapped(self):
        w = np.array([1.0, 1.0 + 1e-12, 2.0])
        out = cluster_eigenvalues(w)
        assert out[0] == out[1]
        assert out[2] == 2.0

    def test_small_distinct_eigenvalues_stay_apart(self):
        w = np.array([-5e-11, 5e-11])
        assert np.array_equal(cluster_eigenvalues(w), w)

    def test_large_degenerate_pairs_snapped(self):
        # Jx^2 at spin 2 has eigenvalues 0, 1, 1, 4, 4; scaled by 1e7, eigvalsh
        # splits the degenerate pairs by more than an absolute 1e-9
        jx, _, _ = spin_operators(4)
        out = cluster_eigenvalues(np.linalg.eigvalsh(1e7 * jx @ jx))
        assert out[1] == out[2] and out[3] == out[4]
        assert np.allclose(out, 1e7 * np.array([0.0, 1.0, 1.0, 4.0, 4.0]), rtol=0, atol=1e-6)

    def test_zero_spectrum_is_one_cluster(self):
        assert np.array_equal(cluster_eigenvalues(np.zeros(3)), np.zeros(3))

    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3).filter(lambda x: x == 0 or abs(x) > 1e-200),
            min_size=1,
            max_size=6,
        ),
        st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_width_scales_with_the_spectrum(self, values, power):
        # near-degenerate copies cluster at every scale: scaling the spectrum
        # by a power of two scales the result exactly
        v = np.array(values)
        w = np.sort(np.concatenate([v, v * (1 + 1e-12)]))
        c = 2.0**power
        assert np.array_equal(cluster_eigenvalues(c * w), c * cluster_eigenvalues(w))


class TestKrausSampler:
    CFG = SensorConfig(alpha=1.0, tau=0.2)

    def test_zero_coupling_is_passive(self):
        # b = 0: both detectors see alpha^2/2 and the state is unchanged
        rho = pure_state([1, 1j])
        s = KrausOutcomeSampler(rho, np.zeros((2, 2)), self.CFG, S2)
        assert np.allclose(s.means_c, 0.5)
        assert np.allclose(s.means_d, 0.5)
        post = s.post_state(3, 1)
        assert np.max(np.abs(post.matrix - rho.matrix)) < 1e-12

    def test_eigenstate_is_undisturbed(self):
        s = KrausOutcomeSampler(UP, SZ, self.CFG, S2)
        post = s.post_state(2, 0)
        assert np.max(np.abs(post.matrix - UP.matrix)) < 1e-12

    def test_outcome_distribution_normalized(self):
        rho = pure_state([0.6, 0.8])
        s = KrausOutcomeSampler(rho, SZ, self.CFG, S2)
        total = sum(s.probability(nc, nd) for nc in range(15) for nd in range(15))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_branch_distributions_normalized(self):
        # per-branch completeness: sum over outcomes of each Poisson pair is 1
        rho = pure_state([0.6, 0.8])
        s = KrausOutcomeSampler(rho, SX, self.CFG, S3)
        for i in range(2):
            total = sum(
                s.branch_count_probability(i, nc, nd) for nc in range(15) for nd in range(15)
            )
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_post_states_average_to_nonselective_map(self):
        # sum_n P(n) rho_n reproduces the deterministic shot map on rho
        rho = pure_state([0.6, 0.8j])
        cfg = SensorConfig(alpha=1.0, tau=0.3)
        s = KrausOutcomeSampler(rho, SZ, cfg, S2)
        acc = np.zeros((2, 2), dtype=complex)
        for nc in range(15):
            for nd in range(15):
                p = s.probability(nc, nd)
                if p > 1e-300:
                    acc += p * s.post_state(nc, nd).matrix
        # independent route: elementwise damping of coherences by the overlap
        theta = 0.5 * cfg.tau * s.eigvals
        overlap = np.exp(-(cfg.alpha**2) * (1.0 - np.cos(theta[:, None] - theta[None, :])))
        expect = s.eigvecs @ (overlap * s.rho_eig) @ s.eigvecs.conj().T
        assert np.max(np.abs(acc - expect)) < 1e-8

    def test_sampled_counts_match_probabilities(self):
        rho = pure_state([0.6, 0.8])
        s = KrausOutcomeSampler(rho, SZ, self.CFG, S2)
        rng = np.random.default_rng(51)
        draws = 20000
        hits = sum(1 for _ in range(draws) if s.sample(rng) == (0, 0))
        p = s.probability(0, 0)
        sigma = math.sqrt(p * (1 - p) / draws)
        assert hits / draws == pytest.approx(p, abs=4 * sigma)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            KrausOutcomeSampler(UP, np.zeros((3, 3)), self.CFG, S2)


class TestShotRecord:
    def test_per_basis_record(self):
        # S2 records the half difference (n_d - n_c)/2, S3 the raw difference n_d - n_c;
        # the half-difference sums do not depend on the basis. Each sequence draws
        # at the means of its row of the shot's table, every row by default
        sensor, values = SensorConfig(alpha=2.0, tau=0.5), np.array([-3.0, 1.0, 4.0])
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        record = _Record(3)
        expect = np.ones(3)
        halves = []
        for basis, factor, rows in ((S2, 0.5, np.array([2, 0, 2])), (S3, 1.0, None), (S2, 0.5, None)):
            table = ShotTable.of(values, sensor, basis)
            means_c, means_d = (m if rows is None else m[rows] for m in table.means())
            n_c, n_d = record.shot(rng, table) if rows is None else record.shot(rng, table, rows)
            assert np.array_equal(n_c, ref.poisson(means_c)) and np.array_equal(n_d, ref.poisson(means_d))
            expect = expect * (factor * (n_d - n_c))
            halves.append((n_d - n_c) / 2)
        half = np.concatenate(halves)
        assert np.array_equal(record.prod, expect)
        assert record.sums()[2:] == (pytest.approx(half.sum()), pytest.approx((half * half).sum()))

    def test_estimate_counts_every_shot(self):
        # 4 sequences of 2 shots: half differences summing to 8 with squares summing
        # to 40 give mean 1 and variance 4 per shot
        p = proto([(0.0, S2), (1.0, S2)], alpha=1.0, tau=0.1)
        cfg = TrajectoryConfig(sequences=4, seed=0, mode="kraus_quantum", proto=p, model=precession_model())
        est = _estimate([(0.0, 0.0, 6.0, 30.0), (0.0, 0.0, 2.0, 10.0)], cfg)
        assert est.per_shot_variance == 4.0
        assert 4.0 * est.per_shot_variance == 16.0  # the raw difference's

    def test_quantum_and_classical_paths_share_the_record(self):
        # d = 1: the coupling is the number b, so the Kraus path and a constant
        # classical field draw from the same count distributions. The S3 record
        # (raw difference) has mean 0 and variance alpha^2, each S2 record (half
        # difference) mean m = (alpha^2/2) sin(tau b) and variance alpha^2/4.
        b, alpha, tau, L = 2.0, 4.0, 0.1, 100000
        p = proto([(0.0, S3), (0.3, S2), (0.5, S2)], alpha, tau)
        m = alpha**2 / 2 * math.sin(tau * b)
        spread = math.sqrt(alpha**2 * (alpha**2 / 4 + m * m) ** 2)
        model = TargetModel(hamiltonian=[[0.0]], coupling=[[b]], initial_state=pure_state([1.0]))
        field = ClassicalFieldModel(kind=FieldKind.CONSTANT, amplitude=b)
        for mode, target in (("kraus_quantum", model), ("semiclassical_field", field)):
            est = run_sequences(TrajectoryConfig(sequences=L, seed=3, mode=mode, proto=p, model=target))
            assert abs(est.mean) < 5 * est.std_error
            assert est.std_error * math.sqrt(L) == pytest.approx(spread, rel=0.05)


class TestQuantumSequences:
    def test_first_order_mean(self):
        # static B = sz, rho = diag(0.7, 0.3): mean record = (alpha^2/2)(0.4) sin tau
        model = TargetModel(
            hamiltonian=np.zeros((2, 2)),
            coupling=SZ,
            initial_state=DensityMatrix(np.diag([0.7, 0.3])),
        )
        p = proto([(0.0, S2)], alpha=3.0, tau=0.1)
        est = run_sequences(
            TrajectoryConfig(sequences=40000, seed=101, mode="kraus_quantum", proto=p, model=model)
        )
        expect = 9.0 / 2 * 0.4 * math.sin(0.1)
        assert abs(est.mean - expect) < 3 * est.std_error
        assert est.n_sequences == 40000

    def test_second_order_matches_exact(self):
        model = precession_model()
        p = proto([(0.0, S3), (1.5, S2)], alpha=5.0, tau=0.05)
        exact = gk_exact_unitary(model, p).value
        est = run_sequences(
            TrajectoryConfig(sequences=50000, seed=102, mode="kraus_quantum", proto=p, model=model)
        )
        assert abs(est.mean - exact) < 3 * est.std_error

    def test_shot_noise_variance(self):
        # weak shots: raw difference count variance is close to alpha^2
        model = precession_model()
        p = proto([(0.0, S3), (1.5, S2)], alpha=6.0, tau=0.003)
        est = run_sequences(
            TrajectoryConfig(sequences=30000, seed=103, mode="kraus_quantum", proto=p, model=model)
        )
        assert 4.0 * est.per_shot_variance / 36.0 == pytest.approx(1.0, abs=0.05)

    def test_seed_determinism(self):
        model = precession_model()
        p = proto([(0.0, S3), (1.0, S2)], alpha=2.0, tau=0.05)
        cfg = TrajectoryConfig(sequences=5000, seed=7, mode="kraus_quantum", proto=p, model=model)
        a, b = run_sequences(cfg), run_sequences(cfg)
        assert a == b

    def test_worker_count_does_not_change_results(self):
        model = precession_model()
        p = proto([(0.0, S3), (1.0, S2)], alpha=2.0, tau=0.05)
        base = dict(sequences=40000, seed=8, mode="kraus_quantum", proto=p, model=model)
        a = run_sequences(TrajectoryConfig(workers=1, **base))
        b = run_sequences(TrajectoryConfig(workers=4, **base))
        assert a == b

    def test_pool_holds_no_more_threads_than_chunks(self, monkeypatch):
        sizes = []
        real = trajectory_mc.ThreadPoolExecutor

        def recording(max_workers):
            sizes.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(trajectory_mc, "ThreadPoolExecutor", recording)
        p = proto([(0.0, S3), (1.0, S2)], alpha=2.0, tau=0.05)
        base = dict(seed=8, mode="kraus_quantum", proto=p, model=precession_model(), workers=4)
        one = run_sequences(TrajectoryConfig(sequences=CHUNK_SIZE, **base))  # one chunk, a one-thread pool
        two = run_sequences(TrajectoryConfig(sequences=2 * CHUNK_SIZE, **base))
        assert sizes == [1, 2]
        # the estimate reports the pool that ran, not the workers asked for
        assert [one.workers, two.workers] == sizes

    def test_estimate_records_the_pool_that_ran(self):
        # three workers asked for, one chunk to run: the estimate says one ran it
        p = proto([(0.0, S3), (1.0, S2)], alpha=2.0, tau=0.05)
        model = precession_model()
        est = run_sequences(TrajectoryConfig(sequences=100, seed=8, mode="kraus_quantum", proto=p, model=model, workers=3))
        assert (est.workers, est.chunks) == (1, 1)

    def test_default_workers_one_per_core_up_to_the_chunks(self, monkeypatch):
        monkeypatch.setattr(trajectory_mc, "usable_cores", lambda: 3)
        p = proto([(0.0, S2)], alpha=2.0, tau=0.05)
        field = ClassicalFieldModel(kind=FieldKind.CONSTANT, amplitude=1.0)
        base = dict(seed=0, mode="semiclassical_field", proto=p, model=field)
        counts = [default_workers(TrajectoryConfig(sequences=n * CHUNK_SIZE, **base)) for n in (1, 2, 3, 10)]
        assert counts == [1, 2, 3, 3]

    def test_usable_cores_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(trajectory_mc.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(trajectory_mc.os, "cpu_count", lambda: 5)
        assert trajectory_mc.usable_cores() == 5

    def test_large_alpha_amplitudes_do_not_underflow(self):
        # at alpha = 45 a shot records ~1000 photons per detector; the Kraus
        # amplitudes beta^n underflow unless formed in log space
        model = precession_model()
        p = proto([(0.0, S3), (1.0, S2)], alpha=45.0, tau=0.02)
        cfg = TrajectoryConfig(sequences=1024, seed=1, mode="kraus_quantum", proto=p, model=model)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = run_sequences(cfg)
        exact = gk_exact_unitary(model, p).value
        assert math.isfinite(est.mean)
        assert abs(est.mean - exact) <= 5 * est.std_error

    def test_single_sequence(self):
        model = precession_model()
        p = proto([(0.0, S2)], alpha=1.0, tau=0.1)
        est = run_sequences(
            TrajectoryConfig(sequences=1, seed=9, mode="kraus_quantum", proto=p, model=model)
        )
        assert est.std_error == math.inf
        assert empirical_snr(est) == 0.0


def _pure_four_level_model():
    rng = np.random.default_rng(21)
    ket = rng.normal(size=4) + 1j * rng.normal(size=4)
    return TargetModel(
        hamiltonian=random_hermitian(rng, 4),
        coupling=random_hermitian(rng, 4),
        initial_state=pure_state(ket),
    )


def _pure_spin_model(two_j: int = 15):
    jx, _, jz = spin_operators(two_j)
    ket = np.zeros(two_j + 1)
    ket[0] = 1.0
    return TargetModel(hamiltonian=jz + 0.3 * jx, coupling=jx, initial_state=pure_state(ket))


def _thermal_spin_model(d: int):
    jx, _, jz = spin_operators(d - 1)
    h = jz + 0.3 * jx
    return TargetModel(hamiltonian=h, coupling=jx, initial_state=thermal_state(h, 0.1))


def _chunk_rngs(seed: int):
    """A chunk's shot and initial-state generators, as ``run_sequences`` seeds them."""
    seq = np.random.SeedSequence(seed)
    init_rng = np.random.default_rng(seq.spawn(1)[0])
    return np.random.default_rng(seq), init_rng


class TestBlockedChunk:
    """``_run_quantum_chunk`` works in row blocks of ``BLOCK_AMPLITUDES``
    amplitudes and draws no branch before a branch-blind (R/L) shot;
    ``crosscheck.vector_chunk`` is the loop over the whole chunk at every
    step, with a branch drawn before every shot, that it replaced."""

    K4 = [(0.0, S3), (0.3, S2), (0.6, S3), (0.9, S2)]  # branch-blind first and third
    PROTOCOLS = pytest.mark.parametrize(
        "shots",
        [
            K4,
            [(0.0, S3), (0.3, S3), (0.6, S2)],  # blind first, twice in a row
            [(0.0, S2), (0.3, S3), (0.6, S3)],  # blind last, twice in a row
        ],
        ids=["S3_S2_S3_S2", "S3_S3_S2", "S2_S3_S3"],
    )
    ALPHA_TAU = pytest.mark.parametrize("alpha, tau", [(5.0, 0.05), (45.0, 0.02)], ids=["alpha_5", "alpha_45"])
    MODELS = pytest.mark.parametrize(
        "make_model", [_thermal_spin_model, lambda d: _pure_spin_model(d - 1)], ids=["thermal", "pure"]
    )
    # d = 5 and 17: one tile of 5 branches; two of 9, the second padded
    DIMS = pytest.mark.parametrize("d", [2, 5, 16, 17, 64])

    @PROTOCOLS
    @ALPHA_TAU
    @MODELS
    @DIMS
    def test_sums_match_the_whole_chunk_loop(self, d, make_model, alpha, tau, shots):
        plan = _quantum_plan(make_model(d), proto(shots, alpha=alpha, tau=tau))
        assert plan.blind == tuple(b is S3 for _, b in shots)
        rows = BLOCK_AMPLITUDES // d
        for seed, n in enumerate((1, rows - 1, rows + 1, 3000, CHUNK_SIZE)):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                sums, smallest = _run_quantum_chunk(n, *_chunk_rngs(seed), plan)
            assert sums == vector_chunk(n, *_chunk_rngs(seed), plan), n
            assert 0 < smallest <= 1 + 1e-12

    def test_branch_blind_is_read_from_the_means(self):
        sensor = SensorConfig(alpha=5.0, tau=0.1)
        values = np.array([-1.5, 0.0, 2.0])
        assert _branch_blind(ShotTable.of(values, sensor, S3))
        assert not _branch_blind(ShotTable.of(values, sensor, S2))
        # no rotation anywhere: every D/A branch sees alpha^2/2 too
        assert _branch_blind(ShotTable.of(np.zeros(3), sensor, S2))

    @pytest.mark.parametrize("d", [2, 16, 64, 16384])
    def test_blocks_are_even_and_never_one_row(self, d):
        # numpy hands a one-row product to gemv, whose sums round apart from gemm's
        rows = max(3, BLOCK_AMPLITUDES // d)
        for n in (1, 2, rows - 1, rows, rows + 1, 2 * rows + 1, CHUNK_SIZE):
            sizes = [block.stop - block.start for block in _Blocks(n, d).rows]
            assert sum(sizes) == n and max(sizes) <= rows and max(sizes) - min(sizes) <= 1
            assert n == 1 or min(sizes) >= 2

    @pytest.mark.parametrize("d", [2, 16, 64, 256])
    def test_peak_memory_of_a_chunk(self, d):
        # the guard charges the worst case, every count outcome distinct
        # (alpha = 1e4), and stays within 1.5 times its peak; at alpha = 5 a
        # shot sees a few hundred outcomes and the chunk holds less
        cfg = TrajectoryConfig(
            sequences=CHUNK_SIZE,
            seed=0,
            mode="kraus_quantum",
            proto=proto(self.K4, alpha=1e4, tau=1e-5),
            model=_thermal_spin_model(d),
        )
        charge = _chunk_bytes(cfg)
        for alpha, tau in ((1e4, 1e-5), (5.0, 0.05)):
            plan = _quantum_plan(cfg.model, proto(self.K4, alpha=alpha, tau=tau))
            rngs = _chunk_rngs(0)
            tracemalloc.start()
            try:
                _run_quantum_chunk(CHUNK_SIZE, *rngs, plan)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < charge
            if alpha > 5:
                assert charge < 1.5 * peak
            elif d >= 16:  # the whole-chunk loop peaked at 3.6-3.8 times the state array
                assert peak < 2 * CHUNK_SIZE * d * 16


class TestVectorTrajectories:
    def test_vector_update_matches_density_matrix_update(self):
        model = _pure_four_level_model()
        p = proto([(0.0, S3), (0.4, S2), (1.1, S2)], alpha=2.0, tau=0.2)
        plan = _quantum_plan(model, p)
        (psi,) = plan.kets[plan.weights > 0.5]
        rho = model.initial_state
        rotations = (*plan.rotations, None)  # the state after the last shot is never rotated
        for shot, table, rotation, (n_c, n_d) in zip(p.shots, plan.tables, rotations, [(3, 1), (0, 4), (2, 2)]):
            psi = kraus_update(psi[None, :], table, [n_c], [n_d])[1][0]
            b_t = expm_coupling(model, shot.time)
            rho = KrausOutcomeSampler(rho, b_t, p.sensor, shot.basis).post_state(n_c, n_d)
            ket = spectral_eigvecs(model, shot.time) @ psi
            assert np.max(np.abs(np.outer(ket, ket.conj()) - rho.matrix)) < 1e-12
            if rotation is not None:
                psi = psi @ rotation

    def test_mixed_state_matches_exact_for_any_worker_count(self):
        jx, _, jz = spin_operators(7)
        h = jz + 0.3 * jx
        model = TargetModel(hamiltonian=h, coupling=jx, initial_state=thermal_state(h, 0.5))
        p = proto([(0.0, S2), (0.7, S2)], alpha=3.0, tau=0.1)
        base = dict(sequences=40000, seed=31, mode="kraus_quantum", proto=p, model=model)
        a = run_sequences(TrajectoryConfig(workers=1, **base))
        b = run_sequences(TrajectoryConfig(workers=3, **base))
        assert a == b
        exact = gk_exact_unitary(model, p).value
        assert abs(exact) > 10 * a.std_error
        assert abs(a.mean - exact) <= 5 * a.std_error

    @pytest.mark.parametrize(
        "make_model, alpha, sizes",
        [
            (precession_model, 3.0, (CHUNK_SIZE, 3000)),
            (_pure_four_level_model, 3.0, (CHUNK_SIZE, 3000)),
            # the benchmark's size class (d = 16, alpha = 5): within a chunk
            # each shot's count outcomes repeat many times over
            (_pure_spin_model, 5.0, (3000,)),
        ],
        ids=["precession_model", "_pure_four_level_model", "spin_15_half_alpha_5"],
    )
    def test_pure_state_reproduces_density_matrix_chunks(self, make_model, alpha, sizes):
        model = make_model()
        p = proto([(0.0, S3), (0.6, S2), (1.5, S2)], alpha=alpha, tau=0.1)
        seed = 17
        seeds = np.random.SeedSequence(seed).spawn(len(sizes))
        chunks = [density_matrix_chunk(n, np.random.default_rng(s), model, p) for n, s in zip(sizes, seeds)]
        cfg = TrajectoryConfig(sequences=sum(sizes), seed=seed, mode="kraus_quantum", proto=p, model=model, workers=2)
        assert run_sequences(cfg) == _estimate(chunks, cfg)


class _ExactZeros(ShotTable):
    """The instrument with the roundoff of cos - sin at pi/4 set to the 0 it
    stands for, in the amplitudes its Kraus diagonals read."""

    def amplitudes(self):
        return tuple(np.where(np.abs(b) < 1e-12 * self.alpha, 0.0, b) for b in super().amplitudes())


class TestKrausUpdate:
    """``_outcome_kraus`` evaluates one Kraus diagonal per distinct outcome
    and the per-block step multiplies them in; together they must give the
    per-row product bit for bit, which the step then renormalizes."""

    TAU = 0.1
    QUARTER = math.pi / (2 * TAU)  # b tau / 2 = pi/4: an S2 branch with beta_c = 0

    @staticmethod
    def per_row(states, table, n_c, n_d):
        # diagonal first, whatever the size: numpy may swap the operands of
        # ``states * temporary`` to write into the temporary
        return np.multiply(table.kraus_diagonal(n_c, n_d), states)

    def table(self, eigvals, alpha=5.0, exact_zeros=False):
        kind = _ExactZeros if exact_zeros else ShotTable
        return kind.of(np.array(eigvals), SensorConfig(alpha=alpha, tau=self.TAU), S2)

    def check(self, table, n_c, n_d):
        rng = np.random.default_rng(8)
        shape = (len(n_c), len(table.theta))
        states = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        n_c, n_d = np.asarray(n_c, dtype=float), np.asarray(n_d, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):  # a row no branch can produce is 0 * (1/0)
            product, got, totals = kraus_update(states, table, n_c, n_d)
            want = self.per_row(states, table, n_c, n_d)
            # the identity rotation is exact, and each row is scaled by one real factor
            scale = np.reciprocal(np.sqrt(totals))[:, None]
            normalized = np.empty_like(want)
            normalized.real, normalized.imag = want.real * scale, want.imag * scale
        assert np.array_equal(product, want)
        assert np.array_equal(got, normalized, equal_nan=True)
        # the totals are the squared norms: a sum of d nonnegative terms in
        # any order is within (d - 1) eps of the exact sum, and |z|^2 of
        # re^2 + im^2 within two more roundings
        d = want.shape[1]
        np.testing.assert_allclose(totals, (np.abs(want) ** 2).sum(axis=1), rtol=(d + 3) * np.finfo(float).eps, atol=0)
        return got

    def test_heavily_repeated_outcomes(self):
        jx, _, _ = spin_operators(15)
        rng = np.random.default_rng(3)
        n_c, n_d = rng.poisson(12.5, size=(2, 5000))
        assert len(np.unique(n_c * 100 + n_d)) < 1000
        self.check(self.table(np.linalg.eigvalsh(jx)), n_c, n_d)

    def test_all_distinct_outcomes(self):
        n_c = np.arange(400)
        n_d = (7 * n_c) % 401
        assert len(np.unique(n_c * 401 + n_d)) == len(n_c)
        self.check(self.table([-2.0, 0.3, 1.0, 4.5], alpha=20.0), n_c, n_d)

    def test_counts_whose_product_overflows_int64(self):
        # the materials preset's 1e14 photons per pulse: counts near 5e13, so
        # n_c * (max n_d + 1) + n_d would wrap and merge distinct outcomes
        rng = np.random.default_rng(4)
        n_c, n_d = rng.poisson(5e13, size=(2, 300))
        n_c, n_d = np.tile(n_c, 3), np.tile(n_d, 3)
        assert float(n_c.max()) * float(n_d.max()) > np.iinfo(np.int64).max
        self.check(self.table([-2.0, 0.3, 1.0], alpha=1e7), n_c, n_d)

    def test_repeated_counts_near_the_largest_poisson_mean(self):
        # few outcomes over many rows key by their cell in the box of counts;
        # up here neighbouring floats are 1024 apart, and each cell offset is
        # an exact difference of two of them
        top = POISSON_MEAN_MAX
        step = top - np.nextafter(top, 0.0)
        assert step == 1024
        rng = np.random.default_rng(5)
        n_c = top - step * rng.integers(0, 3, size=600)
        n_d = np.full(600, top / 2)
        assert (n_c.max() - n_c.min() + 1) * (n_d.max() - n_d.min() + 1) <= 4 * n_c.size
        self.check(self.table([-2.0, 0.3, 1.0], alpha=math.sqrt(POISSON_MEAN_MAX)), n_c, n_d)

    @pytest.mark.parametrize("exact_zeros", [False, True], ids=["roundoff", "exact-zero"])
    def test_zero_modulus_branch(self, exact_zeros):
        table = self.table([self.QUARTER, 1.0, -0.5], exact_zeros=exact_zeros)
        assert abs(table.amplitudes()[0][0]) < 1e-15
        n_c = np.array([0, 0, 3, 12, 3, 0, 12, 40])
        n_d = np.array([5, 0, 9, 12, 9, 5, 0, 1])
        out = self.check(table, n_c, n_d)
        assert np.all(np.isfinite(out))
        if exact_zeros:  # -inf log modulus: the branch has no weight once n_c > 0
            assert np.all(out[n_c > 0, 0] == 0) and np.all(out[n_c == 0, 0] != 0)

    def test_outcome_no_branch_can_produce(self):
        # branch 0 never fires detector c and branch 1 never fires d, so only
        # rows with n_c = 0 or n_d = 0 are possible; the rest have no weight at all
        table = self.table([self.QUARTER, -self.QUARTER], exact_zeros=True)
        beta_c, beta_d = table.amplitudes()
        assert beta_c[0] == 0 and beta_d[1] == 0
        n_c = np.array([0, 4, 2, 0, 4, 7])
        n_d = np.array([6, 3, 0, 6, 3, 0])
        out = self.check(table, n_c, n_d)
        impossible = (n_c > 0) & (n_d > 0)
        assert np.all(np.isnan(out[impossible])) and np.all(np.isfinite(out[~impossible]))


class TestDrawBranches:
    """Each row draws the first branch whose prefix sum of the weights exceeds
    u times the row total, and the last branch of nonzero weight when
    roundoff leaves no sum above that bound."""

    @staticmethod
    def plain(p, u):
        """The draw, row by row."""
        idx = []
        for row, x in zip(p, u):
            cum = np.cumsum(row)
            above = np.flatnonzero(cum > x * cum[-1])
            idx.append(above[0] if len(above) else np.flatnonzero(row)[-1])
        return np.array(idx)

    @staticmethod
    def step_draws(states, u):
        """The per-block step's draws from ``states``: unit Kraus diagonals and
        no rotation leave the weights |psi_b|^2 of the states themselves."""
        n, d = states.shape
        return block_steps(states, np.ones((n, d), dtype=complex), u=u)[3]

    @staticmethod
    def states(rng, p):
        """Rows with the weights p, in random phases."""
        return np.sqrt(p) * np.exp(2j * np.pi * rng.random(p.shape))

    def test_ordinary_draws_are_the_first_sum_above_u(self):
        rng = np.random.default_rng(11)
        for d in (16, 17, 64):  # one tile, two, four
            states = self.states(rng, rng.random((20000, d)))
            u = rng.random(20000)
            p = states.real**2 + states.imag**2  # the weights the step forms
            want = self.plain(p, u)
            assert np.array_equal(self.step_draws(states, u), want)
            assert np.array_equal(_draw_branches(p, np.cumsum(p, axis=1), u), want)

    def test_a_total_below_u_draws_the_last_possible_branch(self):
        for d in (16, 17):
            self.check_last_possible_branch(d)

    def check_last_possible_branch(self, d):
        # u just below 1: for normalized weights, roundoff leaves many totals
        # at or below u itself, where a plain argmax of the sums above u
        # returns branch 0, whose weight is 0; the bound u times the total
        # stays below the total, so these rows draw their last possible branch
        rng = np.random.default_rng(12)
        p = rng.random((20000, d))
        p[:, 0] = 0.0
        p[:, -3:] = np.where(rng.random((20000, 3)) < 0.5, 0.0, p[:, -3:])
        p /= p.sum(axis=1, keepdims=True)
        u = np.full(20000, np.nextafter(1.0, 0.0))
        short = np.cumsum(p, axis=1)[:, -1] <= u
        assert short.sum() > 1000 and np.all((np.cumsum(p, axis=1) > u[:, None]).argmax(axis=1)[short] == 0)
        states = self.states(rng, p)
        p = states.real**2 + states.imag**2
        idx = self.step_draws(states, u)
        assert np.all(p[np.arange(20000), idx] > 0)
        last = p.shape[1] - 1 - np.argmax(p[:, ::-1] > 0, axis=1)
        assert np.array_equal(idx[short], last[short])
        assert np.array_equal(idx, self.plain(p, u))

    def test_a_subnormal_total_draws_the_last_possible_branch(self):
        # u times a subnormal total rounds back to the total: no sum exceeds it
        tiny = np.nextafter(0.0, 1.0)
        p = np.array([[0.0, tiny, 0.0, tiny, 0.0], [tiny, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.25, 0.5, 0.25]])
        u = np.full(3, np.nextafter(1.0, 0.0))
        cum = np.cumsum(p, axis=1)
        assert np.all((cum[:2, -1] <= u[:2] * cum[:2, -1]))
        assert np.array_equal(_draw_branches(p, cum, u), [3, 0, 4])
        assert np.array_equal(_draw_branches(p, cum, u), self.plain(p, u))


class TestMemoryGuard:
    P = proto([(0.0, S3), (1.0, S2)], alpha=2.0, tau=0.05)

    def test_kraus_guard_raises_before_allocating(self, monkeypatch):
        monkeypatch.setattr(errors, "MEMORY_GUARD_BYTES", 1024**2)
        # one 16384-sequence chunk of a spin-1/2 is charged 16384 (2 * 32 +
        # 160) bytes and 96 per amplitude of its 8192-row blocks, 5.0 MiB;
        # 1000 sequences in one block of 1000 rows, 0.4 MiB
        big = TrajectoryConfig(sequences=CHUNK_SIZE, seed=0, mode="kraus_quantum", proto=self.P, model=precession_model())
        assert _chunk_bytes(big) == CHUNK_SIZE * (2 * 32 + 160) + 2 * 8192 * 96
        with pytest.raises(ResourceGuardError):
            run_sequences(big)
        small = TrajectoryConfig(sequences=1000, seed=0, mode="kraus_quantum", proto=self.P, model=precession_model())
        assert _chunk_bytes(small) == 1000 * (2 * 32 + 160) + 2 * 1000 * 96
        assert run_sequences(small).n_sequences == 1000

    def test_semiclassical_guard(self, monkeypatch):
        monkeypatch.setattr(errors, "MEMORY_GUARD_BYTES", 1024**2)
        field = ClassicalFieldModel(kind=FieldKind.ORNSTEIN_UHLENBECK, amplitude=1.0, correlation_time=1.0)
        cfg = TrajectoryConfig(sequences=CHUNK_SIZE, seed=0, mode="semiclassical_field", proto=self.P, model=field)
        with pytest.raises(ResourceGuardError):
            run_sequences(cfg)

    def test_guard_counts_chunks_in_flight(self, monkeypatch):
        # two chunks of a spin-1/2 are charged 5.0 MiB each: one worker fits 8 MiB, two do not
        monkeypatch.setattr(errors, "MEMORY_GUARD_BYTES", 8 * 1024**2)
        base = dict(sequences=2 * CHUNK_SIZE, seed=0, mode="kraus_quantum", proto=self.P, model=precession_model())
        assert run_sequences(TrajectoryConfig(workers=1, **base)).n_sequences == 2 * CHUNK_SIZE
        with pytest.raises(ResourceGuardError):
            run_sequences(TrajectoryConfig(workers=2, **base))

    def test_default_workers_step_down_to_what_fits(self, monkeypatch):
        # the same two chunks: with four usable cores the default is two
        # workers, and under the 8 MiB guard it steps down to one, which runs
        monkeypatch.setattr(trajectory_mc, "usable_cores", lambda: 4)
        base = dict(sequences=2 * CHUNK_SIZE, seed=0, mode="kraus_quantum", proto=self.P, model=precession_model())
        cfg = TrajectoryConfig(**base)
        assert default_workers(cfg) == 2
        monkeypatch.setattr(errors, "MEMORY_GUARD_BYTES", 8 * 1024**2)
        assert default_workers(cfg) == 1
        assert run_sequences(TrajectoryConfig(workers=default_workers(cfg), **base)).n_sequences == 2 * CHUNK_SIZE
        # nothing fits: the default is still one worker, and the run exits on the guard
        monkeypatch.setattr(errors, "MEMORY_GUARD_BYTES", 1024)
        assert default_workers(cfg) == 1

    def test_guard_counts_every_chunk_bookkeeping(self, monkeypatch):
        # seeds, sizes and results are held for every chunk, not only those in flight:
        # 4096 one-sequence chunks need ~2.5 MiB, 512 of them ~0.3 MiB
        monkeypatch.setattr(errors, "MEMORY_GUARD_BYTES", 1024**2)
        monkeypatch.setattr(trajectory_mc, "CHUNK_SIZE", 1)
        field = ClassicalFieldModel(kind=FieldKind.CONSTANT, amplitude=1.0)
        base = dict(seed=0, mode="semiclassical_field", proto=self.P, model=field)
        with pytest.raises(ResourceGuardError):
            run_sequences(TrajectoryConfig(sequences=4096, **base))
        assert run_sequences(TrajectoryConfig(sequences=512, **base)).n_sequences == 512


class TestSemiclassicalSequences:
    def test_constant_field_mean(self):
        field = ClassicalFieldModel(kind=FieldKind.CONSTANT, amplitude=2.0)
        p = proto([(0.0, S2)], alpha=4.0, tau=0.1)
        est = run_sequences(
            TrajectoryConfig(
                sequences=40000, seed=104, mode="semiclassical_field", proto=p, model=field
            )
        )
        expect = 16.0 / 2 * math.sin(0.1 * 2.0)
        assert abs(est.mean - expect) < 3 * est.std_error

    def test_ou_two_shot_decay(self):
        # <b(0) b(dt)> = amp^2 exp(-dt/tc); product of two weak S2 records
        # estimates (tau alpha^2/2)^2 times that, plus shot-noise scatter
        amp, tc, dt = 1.5, 2.0, 1.0
        field = ClassicalFieldModel(
            kind=FieldKind.ORNSTEIN_UHLENBECK, amplitude=amp, correlation_time=tc
        )
        p = proto([(0.0, S2), (dt, S2)], alpha=6.0, tau=0.04)
        est = run_sequences(
            TrajectoryConfig(
                sequences=200000, seed=105, mode="semiclassical_field", proto=p, model=field
            )
        )
        coeff = 0.04 * 36.0 / 2
        expect = coeff**2 * amp**2 * math.exp(-dt / tc)
        assert abs(est.mean - expect) < 3.5 * est.std_error

    def test_telegraph_levels(self):
        # telegraph field only ever takes the two levels +/- amplitude
        from faradaycorr.trajectory_mc import _sample_field_paths

        field = ClassicalFieldModel(kind=FieldKind.TELEGRAPH, amplitude=3.0, correlation_time=1.0)
        paths = _sample_field_paths(field, np.array([0.0, 0.5, 2.0]), 500, np.random.default_rng(1))
        assert set(np.unique(np.abs(paths))) == {3.0}

    def test_telegraph_decorrelates(self):
        from faradaycorr.trajectory_mc import _sample_field_paths

        field = ClassicalFieldModel(kind=FieldKind.TELEGRAPH, amplitude=1.0, correlation_time=0.5)
        paths = _sample_field_paths(
            field, np.array([0.0, 1.0]), 200000, np.random.default_rng(2)
        )
        corr = float(np.mean(paths[:, 0] * paths[:, 1]))
        assert corr == pytest.approx(math.exp(-2.0), abs=0.01)

    def test_stochastic_field_needs_correlation_time(self):
        with pytest.raises(ValueError):
            ClassicalFieldModel(
                kind=FieldKind.ORNSTEIN_UHLENBECK, amplitude=1.0, correlation_time=0.0
            )


class TestConfigAndSnr:
    def test_mode_model_cross_validation(self):
        p = proto([(0.0, S2)], alpha=1.0, tau=0.1)
        field = ClassicalFieldModel(kind=FieldKind.CONSTANT, amplitude=1.0)
        with pytest.raises(ValueError):
            TrajectoryConfig(sequences=10, seed=0, mode="kraus_quantum", proto=p, model=field)
        with pytest.raises(ValueError):
            TrajectoryConfig(
                sequences=10, seed=0, mode="semiclassical_field", proto=p, model=precession_model()
            )
        with pytest.raises(ValueError):
            TrajectoryConfig(sequences=0, seed=0, mode="kraus_quantum", proto=p, model=precession_model())
        with pytest.raises(ValueError):
            TrajectoryConfig(sequences=10, seed=0, mode="exact", proto=p, model=precession_model())

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_are_refused(self, workers):
        p = proto([(0.0, S2)], alpha=1.0, tau=0.1)
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            TrajectoryConfig(sequences=10, seed=0, mode="kraus_quantum", proto=p, model=precession_model(),
                             workers=workers)

    def test_pulse_photons_stay_within_numpy_poisson_range(self):
        # the largest mean Generator.poisson draws from, bisected over the bit
        # patterns of positive floats, which are ordered like the floats
        rng = np.random.default_rng(0)

        def as_float(bits):
            return float(np.array([bits], dtype=np.int64).view(np.float64)[0])

        def draws(lam):
            try:
                rng.poisson(lam)
            except ValueError:
                return False
            return True

        lo, hi = (int(b) for b in np.array([1e18, 1e19]).view(np.int64))
        assert draws(as_float(lo)) and not draws(as_float(hi))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if draws(as_float(mid)) else (lo, mid)
        limit = as_float(lo)
        # a shot's two means sum to alpha^2: the largest alpha whose square
        # is within the limit is accepted in both modes, the next one refused
        alpha = math.sqrt(limit)
        while alpha * alpha > limit:
            alpha = math.nextafter(alpha, 0.0)
        above = math.nextafter(alpha, math.inf)
        assert above * above > limit
        field = ClassicalFieldModel(kind=FieldKind.CONSTANT, amplitude=1.0)
        for mode, model in (("kraus_quantum", precession_model()), ("semiclassical_field", field)):
            TrajectoryConfig(sequences=10, seed=0, mode=mode, proto=proto([(0.0, S2)], alpha, 0.1), model=model)
            with pytest.raises(ValueError, match="largest Poisson mean"):
                TrajectoryConfig(sequences=10, seed=0, mode=mode, proto=proto([(0.0, S2)], above, 0.1), model=model)

    def test_empirical_snr_arithmetic(self):
        est = McEstimate(mean=0.01, std_error=0.005, per_shot_variance=1.0, n_sequences=10)
        assert empirical_snr(est) == pytest.approx(2.0)
        # every sequence recorded the same value: never NaN, never a ZeroDivisionError
        assert empirical_snr(replace(est, mean=0.0, std_error=0.0)) == 0.0
        assert empirical_snr(replace(est, std_error=0.0)) == math.inf
        assert empirical_snr(replace(est, mean=-0.01, std_error=0.0)) == -math.inf

    def test_convention_factor_counts_s2_shots(self):
        p1 = proto([(0.0, S3), (1.0, S2)], alpha=1.0, tau=0.1)
        assert snr_convention_factor(p1) == 2.0
        p2 = proto([(0.0, S2), (0.5, S3), (1.0, S2)], alpha=1.0, tau=0.1)
        assert snr_convention_factor(p2) == 4.0

    def test_snr_scales_with_sqrt_sequences(self):
        model = precession_model()
        p = proto([(0.0, S3), (1.5, S2)], alpha=5.0, tau=0.05)
        snrs = []
        for L, seed in ((25000, 11), (100000, 11)):
            est = run_sequences(
                TrajectoryConfig(sequences=L, seed=seed, mode="kraus_quantum", proto=p, model=model)
            )
            snrs.append(empirical_snr(est))
        assert snrs[1] / snrs[0] == pytest.approx(2.0, rel=0.25)

    def test_empirical_snr_matches_formula_second_order(self):
        # SNR(2) = 2^-2 sqrt(L) alpha^2 tau^2 C, up to the S2 convention factor
        from faradaycorr.snr import snr_kth_order

        model = precession_model()
        alpha, tau, L = 5.0, 0.02, 400000
        p = proto([(0.0, S3), (1.5, S2)], alpha, tau)
        est = run_sequences(
            TrajectoryConfig(sequences=L, seed=13, mode="kraus_quantum", proto=p, model=model)
        )
        c = 2 * math.sin(1.5)
        formula = snr_kth_order(alpha, tau, L, 2, c)
        got = empirical_snr(est) / snr_convention_factor(p)
        assert got == pytest.approx(formula, rel=0.3)

    def test_empirical_snr_matches_formula_first_order(self):
        # SNR(1) = (sqrt L / 2) alpha tau C+ times the S2 convention factor 2
        model = TargetModel(
            hamiltonian=np.zeros((2, 2)),
            coupling=SZ,
            initial_state=DensityMatrix(np.diag([0.9, 0.1])),
        )
        alpha, tau, L = 4.0, 0.02, 200000
        p = proto([(0.0, S2)], alpha, tau)
        est = run_sequences(
            TrajectoryConfig(sequences=L, seed=12, mode="kraus_quantum", proto=p, model=model)
        )
        c_plus = 0.8  # <sz>
        formula = math.sqrt(L) / 2 * alpha * tau * c_plus
        got = empirical_snr(est) / snr_convention_factor(p)
        assert got == pytest.approx(formula, rel=0.1)
