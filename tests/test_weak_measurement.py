import math
import warnings

import numpy as np
import pytest

from faradaycorr import errors, sensor_optics
from faradaycorr.correlations import (
    BranchSign,
    _correlation_chain,
    _record_chain,
    branch_record,
    correlation_grid,
)
from faradaycorr.errors import ResourceGuardError
from faradaycorr.quantum_core import DensityMatrix, TargetModel, pure_state, spin_operators, thermal_state
from faradaycorr.sensor_optics import (
    MeasurementBasis,
    SensorConfig,
    ShotTable,
    log_factorial,
    required_cutoff,
)
from faradaycorr.weak_measurement import (
    ENGINES,
    ProtocolSpec,
    ProtocolWarning,
    ShotSpec,
    _exact_chain,
    gk_exact_unitary,
    gk_leading,
    prediction_factor,
    protocol_grids,
)

from conftest import SX, SZ, UP, precession_model, random_model
from crosscheck import coherent_record, dense_fock_records, fock_record, reference_correlation

S2, S3 = MeasurementBasis.S2, MeasurementBasis.S3


def proto(bases_times, alpha=1.0, tau=0.01):
    shots = tuple(ShotSpec(time=t, basis=b) for t, b in bases_times)
    return ProtocolSpec(shots=shots, sensor=SensorConfig(alpha=alpha, tau=tau))


class TestProtocolSpec:
    def test_query_maps_bases_to_branches(self):
        p = proto([(0.0, S3), (1.0, S2)])
        q = p.query()
        assert q.times == (0.0, 1.0)
        assert q.signs == (BranchSign.MINUS, BranchSign.PLUS)
        assert q.label() == "+-"

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            proto([(1.0, S3), (0.0, S2)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ProtocolSpec(shots=(), sensor=SensorConfig(alpha=1.0, tau=0.01))

    def test_warns_on_closed_last_shot(self):
        with pytest.warns(ProtocolWarning):
            proto([(0.0, S2), (1.0, S3)])

    def test_no_warning_for_open_last_shot(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            proto([(0.0, S3), (1.0, S2)])

    def test_warning_text_is_the_raised_warnings(self):
        assert proto([(0.0, S3), (1.0, S2)]).warning == ""
        with pytest.warns(ProtocolWarning) as caught:
            closed = proto([(0.0, S2), (1.0, S3)])
        assert [str(w.message) for w in caught] == [closed.warning]
        assert "S3" in closed.warning


class TestLeadingOrder:
    def test_superoperator_coefficient(self):
        # one S2 shot maps rho to (tau alpha^2 / 2) B^+ rho, whose trace is
        # (tau alpha^2 / 2) <B>, here with <sx> = 1
        model = TargetModel(hamiltonian=np.zeros((2, 2)), coupling=SX, initial_state=pure_state([1, 1]))
        p = proto([(0.0, S2)], alpha=3.0, tau=0.02)
        assert gk_leading(model, p).value == pytest.approx(0.5 * 0.02 * 9.0, rel=1e-12)

    def test_first_order_expectation(self):
        model = TargetModel(
            hamiltonian=SZ / 2, coupling=SX, initial_state=pure_state([1, 1])
        )
        p = proto([(0.7, S2)], alpha=2.0, tau=0.01)
        assert gk_leading(model, p).value == pytest.approx(0.5 * 0.01 * 4.0 * math.cos(0.7), rel=1e-12)

    def test_second_order_commutator_pair(self):
        # shots (S3 at 0, S2 at t) measure C^{+-} = 2 sin t at leading order
        model = precession_model()
        alpha, tau = 1.5, 0.02
        for t in (0.4, 1.0):
            value = gk_leading(model, proto([(0.0, S3), (t, S2)], alpha, tau)).value
            expect = 2.0**-2 * tau**2 * alpha**4 * 2 * math.sin(t)
            assert value == pytest.approx(expect, rel=1e-12)

    def test_closed_last_shot_gives_zero(self):
        model = precession_model()
        with pytest.warns(ProtocolWarning):
            p = proto([(0.0, S2), (1.0, S3)])
        assert gk_leading(model, p).value == pytest.approx(0.0, abs=1e-15)

    def test_identity_with_correlations_random_models(self):
        # against the expm/apply_branch chain, which shares no code with C's record chain
        rng = np.random.default_rng(41)
        for trial in range(50):
            d = int(rng.integers(2, 5))
            k = int(rng.integers(1, 5))
            model = random_model(rng, d)
            times = np.sort(rng.random(k) * 2)
            bases = [rng.choice([S2, S3]) for _ in range(k - 1)] + [S2]
            p = proto(list(zip(times, bases)), alpha=1.7, tau=0.03)
            expect = prediction_factor(p) * reference_correlation(model, p)
            assert gk_leading(model, p).value == pytest.approx(expect, rel=1e-12, abs=1e-15)

    def test_large_model_passes_relative_trace_guard(self):
        # spin-63/2, K = 8: C is ~3e6 with an imaginary roundoff residue ~1e-8,
        # which an absolute 1e-10 guard rejected; relative to ||B||^K it is ~1e-22
        jx, _, jz = spin_operators(63)
        h = jz + 0.3 * jx
        model = TargetModel(hamiltonian=h, coupling=1.5 * jx, initial_state=thermal_state(h, 0.1))
        bases = (S2, S3, S2, S3, S2, S2, S3, S2)
        p = proto([(0.3 * i, b) for i, b in enumerate(bases)], alpha=3.0, tau=0.02)
        value = gk_leading(model, p).value
        expect = 2.0**-8 * 0.02**8 * 3.0**16 * reference_correlation(model, p)
        assert value == pytest.approx(expect, rel=1e-9)

    def test_basis_order_matters(self):
        model = precession_model()
        a = gk_leading(model, proto([(0.0, S3), (1.0, S2)])).value
        b = gk_leading(model, proto([(0.0, S2), (1.0, S2)])).value
        # commutator pair ~ 2 sin(1), symmetrized pair ~ cos(1): distinct
        assert a != pytest.approx(b, rel=1e-3)


class TestExactUnitary:
    def test_first_order_closed_form(self):
        # B = sz, rho = diag(p, 1-p): exact K=1 signal is (alpha^2/2)(2p-1) sin tau
        p_up = 0.8
        model = TargetModel(
            hamiltonian=np.zeros((2, 2)),
            coupling=SZ,
            initial_state=DensityMatrix(np.diag([p_up, 1 - p_up])),
        )
        alpha, tau = 2.0, 0.3
        res = gk_exact_unitary(model, proto([(0.0, S2)], alpha, tau))
        assert res.value == pytest.approx(alpha**2 / 2 * (2 * p_up - 1) * math.sin(tau), rel=1e-12)

    def test_zero_coupling_gives_zero(self):
        model = TargetModel(hamiltonian=SZ, coupling=np.zeros((2, 2)), initial_state=UP)
        res = gk_exact_unitary(model, proto([(0.0, S3), (1.0, S2)]))
        assert res.value == 0.0

    def test_reduces_to_leading_order(self):
        model = precession_model()
        p = proto([(0.0, S3), (1.0, S2)], alpha=1.0, tau=1e-3)
        exact = gk_exact_unitary(model, p).value
        lead = gk_leading(model, p).value
        assert exact == pytest.approx(lead, rel=1e-5)

    def test_residual_shrinks_two_orders_faster(self):
        # leading-order error of the K-shot signal scales like tau^(K+2); the
        # K = 1 case needs <B> != 0, else both residuals are roundoff
        tilted = TargetModel(
            hamiltonian=SZ / 2, coupling=SX, initial_state=pure_state([math.cos(0.3), math.sin(0.3)])
        )
        cases = ((tilted, [(0.0, S2)], 3), (precession_model(), [(0.0, S3), (1.0, S2)], 4))
        for model, k_shots, expo in cases:
            res = []
            for tau in (0.2, 0.1):
                p = proto(k_shots, alpha=1.0, tau=tau)
                res.append(abs(gk_exact_unitary(model, p).value - gk_leading(model, p).value))
            assert min(res) > 1e-8
            ratio = res[0] / res[1]
            assert ratio == pytest.approx(2**expo, rel=0.25)

    @pytest.mark.parametrize("basis", [S2, S3])
    def test_coherent_record_approaches_leading_record(self, basis):
        # the all-orders record is (tau alpha^2 / 2) times the branch record up to O(tau^2)
        w, alpha = np.array([-1.3, -0.2, 0.4, 1.1, 2.0]), 1.5
        taus = np.array([0.04, 0.02, 0.01, 0.005])
        deviations = []
        for tau in taus:
            lead = 0.5 * tau * alpha**2 * branch_record(w, basis.eta)
            m = ShotTable.of(w, SensorConfig(alpha, tau), basis).record()
            deviations.append(np.max(np.abs(m - lead)) / np.max(np.abs(lead)))
        exponent = np.polyfit(np.log(taus), np.log(deviations), 1)[0]
        assert exponent >= 1.8

    def test_engines_agree(self):
        rng = np.random.default_rng(42)
        model = random_model(rng, 3)
        p = proto([(0.1, S3), (0.9, S2)], alpha=2.0, tau=0.15)
        a = gk_exact_unitary(model, p).value
        b = gk_exact_unitary(model, p, engine="fock").value
        assert a == pytest.approx(b, rel=1e-10, abs=1e-12)

    def test_large_alpha_is_cheap(self):
        # the closed-form engine has no Fock cutoff, so alpha^2 = 100 is fine
        model = precession_model()
        p = proto([(0.0, S3), (1.5, S2)], alpha=10.0, tau=0.02)
        res = gk_exact_unitary(model, p)
        assert math.isfinite(res.value)
        assert res.value == pytest.approx(gk_leading(model, p).value, rel=0.05)

    @pytest.mark.parametrize("alpha, n_max", [(2.0, 34), (1.0, 30)])
    def test_sector_record_matches_dense_reference(self, alpha, n_max):
        # the dense space at the cutoff (34 at alpha = 2) or above it (30 > 21 at alpha = 1)
        w = np.array([-1.3, -0.2, 0.4, 1.1, 2.0])
        for basis, ref in dense_fock_records(alpha, 0.15, w, n_max).items():
            m = fock_record(alpha, 0.15, w, basis)
            assert np.max(np.abs(m - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_fock_engine_at_alpha_10(self):
        # n_max = 210: a dense two-mode space would have 44521 dimensions
        model = precession_model()
        p, finals = proto([(0.0, S3), (0.5, S2)], alpha=10.0, tau=0.02), [0.5, 1.0, 1.5, 2.0]
        assert required_cutoff(10.0) == 210
        fock = protocol_grids(model, p, finals, "fock")[2]
        coherent = protocol_grids(model, p, finals)[2]
        assert np.max(np.abs(fock - coherent)) <= 1e-10 * np.max(np.abs(coherent))

    def test_fock_engine_at_alpha_30(self):
        # n_max = 1210: 733866 sector rows, which the guard of the per-sector
        # eigendata (16 sum (N+1)^2 bytes) refused above alpha = 22.4
        model = precession_model()
        p, finals = proto([(0.0, S3), (0.5, S2)], alpha=30.0, tau=0.002), [0.5, 1.0, 1.5, 2.0]
        assert required_cutoff(30.0) == 1210
        fock = protocol_grids(model, p, finals, "fock")[2]
        coherent = protocol_grids(model, p, finals)[2]
        assert np.max(np.abs(fock - coherent)) <= 1e-10 * np.max(np.abs(coherent))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_overflowing_prediction_factor_raises(self, engine):
        # the one-point value runs protocol_grids' guards, the first of which
        # refuses the factor before any record is built
        p = proto([(0.0, S3), (1.0, S2)], alpha=1.0, tau=1e300)
        with pytest.raises(errors.NumericalGuardError, match="2\\^-K tau\\^K alpha\\^2K overflows"):
            gk_exact_unitary(precession_model(), p, engine)

    def test_overflowing_record_product_raises(self):
        # the factor (2.5e299) and ||B||^K (4e20) fit, but the two shots'
        # largest record elements, near alpha^2 = 1e160 each, do not: their
        # product, the all-orders traces' a-priori size, is refused, not left inf
        model = TargetModel(hamiltonian=SZ / 2, coupling=2e10 * SX, initial_state=UP)
        p = proto([(0.0, S2), (1.0, S2)], alpha=1e80, tau=1e-10)
        with pytest.raises(errors.NumericalGuardError, match="largest record elements overflows"):
            protocol_grids(model, p, [1.0])

    def test_fock_memory_guard(self):
        # alpha = 70 sets the cutoff 5610, whose 15.7 million sector rows would take 3.3 GiB
        model = precession_model()
        p = proto([(0.0, S2)], alpha=70.0, tau=0.1)
        with pytest.raises(ResourceGuardError):
            gk_exact_unitary(model, p, engine="fock")

    def test_fock_memory_guard_runs_before_any_allocation(self, monkeypatch):
        # the 630 sector rows at the cutoff 34 of alpha = 2 need 138 KiB for two
        # coupling values, above a 64 KiB guard; the pulse weights (n_max + 1
        # entries) must not be built first
        def unreachable(*args):
            raise AssertionError("_coherent_mode ran before the memory guard")

        monkeypatch.setattr(errors, "MEMORY_GUARD_BYTES", 64 * 1024)
        monkeypatch.setattr(sensor_optics, "_coherent_mode", unreachable)
        with pytest.raises(ResourceGuardError):
            fock_record(2.0, 0.1, np.array([-1.0, 1.0]), S2)


@pytest.mark.parametrize("engine", [None, "coherent", "fock"])
def test_one_point_functions_are_protocol_grids(engine):
    # gk_leading and gk_exact_unitary are protocol_grids at the protocol's
    # own last time, bit for bit, for each time a grid of it could hold
    model = random_model(np.random.default_rng(11), 4)
    p = proto([(0.0, S2), (0.4, S3), (0.9, S2)], alpha=2.0, tau=0.05)
    for t in (0.9, 1.7, 3.0):
        at = p.at(t)
        _, leading, exact = protocol_grids(model, at, [t], engine)
        assert gk_leading(model, at).value == leading[0]
        if engine is None:
            assert exact is None
        else:
            assert gk_exact_unitary(model, at, engine).value == exact[0]


@pytest.mark.parametrize("engine", ["Fock", "bogus", ""])
def test_unknown_engine_is_refused(engine):
    # only the names in ENGINES (or None, no all-orders column) run; any other
    # name once ran the coherent engine
    model = random_model(np.random.default_rng(11), 4)
    p = proto([(0.0, S2), (0.4, S3), (0.9, S2)], alpha=2.0, tau=0.05)
    with pytest.raises(ValueError, match=rf"engine must be one of \('coherent', 'fock'\) or None, got {engine!r}"):
        protocol_grids(model, p, [0.9, 1.7], engine)
    with pytest.raises(ValueError, match="engine must be one of"):
        gk_exact_unitary(model, p, engine)


@pytest.mark.parametrize("engine", [None, "coherent", "fock"])
def test_shared_walk_gives_each_chain_alone(engine):
    # one walk for both chains gives each row as a walk of its chain alone,
    # bit for bit, and the leading order is prediction_factor times C
    model = random_model(np.random.default_rng(11), 4)
    p = proto([(0.0, S2), (0.4, S3), (0.9, S2)], alpha=2.0, tau=0.05)
    finals = np.linspace(0.9, 3.0, 9)
    corr, leading, exact = protocol_grids(model, p, finals, engine)
    assert np.array_equal(corr, correlation_grid(model, p.query(), finals))
    assert np.array_equal(leading, prediction_factor(p) * corr)
    if engine is None:
        assert exact is None
        return
    (alone,) = _record_chain(model, [_exact_chain(model, p, engine)], [0.0, 0.4], finals)
    assert np.array_equal(exact, alone)


@pytest.mark.parametrize("engine", [None, "coherent", "fock"])
def test_record_chain_returns_real_grids(engine):
    # C's chain and each all-orders chain come back as float grids, one per
    # chain, already checked real
    model = random_model(np.random.default_rng(11), 4)
    p = proto([(0.0, S2), (0.4, S3), (0.9, S2)], alpha=2.0, tau=0.05)
    chain = _correlation_chain(model, p.query()) if engine is None else _exact_chain(model, p, engine)
    grids = _record_chain(model, [chain], [0.0, 0.4], np.linspace(0.9, 3.0, 9))
    assert [(g.dtype, g.shape) for g in grids] == [(np.dtype(float), (9,))]


class TestShotInstrument:
    """``ShotTable`` is the one per-shot instrument: the exact chain reads its
    first moment and the Monte Carlo samples its Kraus elements."""

    W = np.array([-1.3, -0.2, 0.4, 1.1, 2.0])

    @pytest.mark.parametrize("basis", [S2, S3])
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0, 45.0])
    def test_record_matches_closed_form(self, alpha, basis):
        for tau in (1e-3, 0.02, 0.3):
            table = ShotTable.of(self.W, SensorConfig(alpha, tau), basis)
            ref = coherent_record(alpha, tau, self.W, basis)
            assert np.max(np.abs(table.record() - ref)) <= 1e-12 * basis.record_scale * alpha**2

    @pytest.mark.parametrize("basis", [S2, S3])
    @pytest.mark.parametrize("alpha, tau", [(1.0, 0.3), (2.0, 0.05), (5.0, 0.02)])
    def test_record_is_first_moment_of_kraus_elements(self, alpha, tau, basis):
        # K_n(i) = <n_c, n_d|beta_c,i, beta_d,i>, so sum_n s (n_d - n_c) K_n(i) K_n(k)^*
        # is the record; summed up to the cutoff that bounds the coherent tail
        table = ShotTable.of(self.W, SensorConfig(alpha, tau), basis)
        n = np.arange(required_cutoff(alpha) + 1)
        n_c, n_d = (a.ravel() for a in np.meshgrid(n, n, indexing="ij"))
        log_norm = -0.5 * alpha**2 - 0.5 * (log_factorial(n_c) + log_factorial(n_d))
        beta_c, beta_d = table.amplitudes()
        kraus = np.exp(
            log_norm[:, None]
            + n_c[:, None] * np.log(beta_c.astype(complex))[None, :]
            + n_d[:, None] * np.log(beta_d.astype(complex))[None, :]
        )
        moment = table.basis.record_scale * ((n_d - n_c)[:, None] * kraus).T @ kraus.conj()
        m = table.record()
        assert np.max(np.abs(moment - m)) <= 1e-12 * np.max(np.abs(m))

    @pytest.mark.parametrize("alpha", [1e8, 1e12])
    def test_large_alpha_keeps_the_count_difference(self, alpha):
        # alpha^2 tau = 1: each detector sees ~alpha^2/2 counts while their
        # difference, and with it the all-orders correlation, stays of order 1
        jx, _, jz = spin_operators(1)
        model = TargetModel(hamiltonian=jz, coupling=2 * jx, initial_state=pure_state([math.cos(0.3), math.sin(0.3)]))
        p = proto([(0.0, S3), (0.4, S2)], alpha=alpha, tau=1 / alpha**2)
        lead = gk_leading(model, p).value
        assert lead != 0.0
        assert gk_exact_unitary(model, p).value == pytest.approx(lead, rel=1e-8)

    @pytest.mark.parametrize("alpha", [2.0, 45.0])
    def test_closing_circular_shot_is_exactly_zero(self, alpha):
        m = ShotTable.of(self.W, SensorConfig(alpha, 0.3), S3).record()
        assert np.all(np.diag(m) == 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ProtocolWarning)
            p = proto([(0.0, S2), (0.7, S3)], alpha=alpha, tau=0.02)
        assert gk_exact_unitary(random_model(np.random.default_rng(5), 4), p).value == 0.0
