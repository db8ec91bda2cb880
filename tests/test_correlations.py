import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faradaycorr.correlations import (
    BranchSign,
    CorrelationQuery,
    _correlation_chain,
    _record_chain,
    apply_branch,
    branch_record,
    correlation,
    heisenberg_coupling,
    real_trace,
)
from faradaycorr.errors import NumericalGuardError
from faradaycorr.quantum_core import TargetModel, pure_state, thermal_state

from conftest import SX, SY, SZ, UP, precession_model, random_hermitian, random_model
from crosscheck import branch_superoperator, identity, liouville_correlation, unvectorize, vectorize

PLUS, MINUS = BranchSign.PLUS, BranchSign.MINUS


def signs_from(label: str) -> tuple[BranchSign, ...]:
    """Signs in application order from a label written last-shot-first."""
    return tuple(BranchSign(c) for c in reversed(label))


class TestQuery:
    def test_label_reverses_application_order(self):
        q = CorrelationQuery(times=(0.0, 1.0), signs=(MINUS, PLUS))
        assert q.label() == "+-"
        assert q.order == 2

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            CorrelationQuery(times=(1.0, 0.5), signs=(PLUS, PLUS))

    @pytest.mark.parametrize("times", [(np.nan, 1.0), (0.0, np.nan), (0.0, np.inf), (-np.inf, 0.0)])
    def test_rejects_non_finite_times(self, times):
        # a NaN compares false both ways, so order alone cannot catch it
        with pytest.raises(ValueError, match="finite"):
            CorrelationQuery(times=times, signs=(PLUS, PLUS))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            CorrelationQuery(times=(0.0,), signs=(PLUS, PLUS))


class TestApplyBranch:
    def test_plus_is_half_anticommutator(self):
        out = apply_branch(SX, PLUS, SZ)
        assert np.allclose(out, (SX @ SZ + SZ @ SX) / 2)
        assert np.max(np.abs(out)) < 1e-15  # {sx, sz} = 0

    def test_minus_is_commutator_over_i(self):
        # [sx, sz]/i = -2 sy / i / ... check directly
        assert np.allclose(apply_branch(SX, MINUS, SZ), (SX @ SZ - SZ @ SX) / 1j)

    def test_preserves_hermiticity(self):
        rng = np.random.default_rng(21)
        b, rho = random_hermitian(rng, 3), random_hermitian(rng, 3)
        for sign in (PLUS, MINUS):
            out = apply_branch(b, sign, rho)
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_minus_branch_is_traceless(self):
        rng = np.random.default_rng(22)
        out = apply_branch(random_hermitian(rng, 4), MINUS, random_hermitian(rng, 4))
        assert abs(np.trace(out)) < 1e-12

    def test_branch_record_is_the_branch_in_the_coupling_eigenbasis(self):
        rng = np.random.default_rng(24)
        b, rho = random_hermitian(rng, 4), random_hermitian(rng, 4)
        w, v = np.linalg.eigh(b)
        for sign in (PLUS, MINUS):
            expect = v.conj().T @ apply_branch(b, sign, rho) @ v
            assert np.max(np.abs(branch_record(w, sign) * (v.conj().T @ rho @ v) - expect)) < 1e-12

    def test_branch_record_at_the_edge_of_the_float_range(self):
        # the + record halves before it adds, so its diagonal is w even where
        # w_i + w_k overflows; the - record's diagonal, which a K = 1 chain
        # reads, is zero, and its off-diagonal past the float range raises no warning
        w = np.array([-1.7e308, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plus, minus = branch_record(w, PLUS), branch_record(w, MINUS)
        assert np.array_equal(np.diag(plus), w) and np.array_equal(np.diag(minus), [0, 0])

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        b = random_hermitian(rng, 3)
        x, y = random_hermitian(rng, 3), random_hermitian(rng, 3)
        for sign in (PLUS, MINUS):
            lhs = apply_branch(b, sign, 2.0 * x - 0.5 * y)
            rhs = 2.0 * apply_branch(b, sign, x) - 0.5 * apply_branch(b, sign, y)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestHeisenbergCoupling:
    def test_commuting_hamiltonian_is_static(self):
        model = TargetModel(hamiltonian=SZ, coupling=SZ, initial_state=UP)
        assert np.allclose(heisenberg_coupling(model, 2.3), SZ)

    def test_precession(self):
        # H = sz/2 rotates sx into -sy at rate 1
        model = precession_model()
        for t in (0.0, 0.4, 1.7):
            expect = np.cos(t) * SX - np.sin(t) * SY
            assert np.allclose(heisenberg_coupling(model, t), expect, atol=1e-12)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(23)
        model = random_model(rng, 4)
        w0 = np.linalg.eigvalsh(model.coupling)
        wt = np.linalg.eigvalsh(heisenberg_coupling(model, 0.9))
        assert np.allclose(w0, wt, atol=1e-12)


class TestCorrelation:
    def test_first_order_is_expectation(self):
        model = precession_model()
        q = CorrelationQuery(times=(0.7,), signs=(PLUS,))
        # <B(t)> on |up> with B(t) = cos t sx - sin t sy is 0; use |+x>
        model_x = TargetModel(
            hamiltonian=model.hamiltonian,
            coupling=model.coupling,
            initial_state=pure_state([1, 1]),
        )
        assert correlation(model_x, q) == pytest.approx(np.cos(0.7), abs=1e-12)

    def test_null_law_closed_last_branch(self):
        rng = np.random.default_rng(24)
        model = random_model(rng, 3)
        q = CorrelationQuery(times=(0.0, 0.5, 1.0), signs=(PLUS, MINUS, MINUS))
        assert correlation(model, q) == 0.0
        assert liouville_correlation(model, q) == 0.0

    def test_two_time_keldysh_pair(self):
        # H = sz/2, B = sx, rho = |up>: C^{+-}(t,0) = <[B(t), B(0)]>/i = 2 sin t
        model = precession_model()
        for t in (0.3, 1.0, 2.2):
            q = CorrelationQuery(times=(0.0, t), signs=(MINUS, PLUS))
            assert correlation(model, q) == pytest.approx(2 * np.sin(t), abs=1e-12)

    def test_two_time_symmetrized_pair(self):
        # C^{++}(t,0) = <{B(t), B(0)}>/2 = cos t for the same model
        model = precession_model()
        for t in (0.3, 1.0, 2.2):
            q = CorrelationQuery(times=(0.0, t), signs=(PLUS, PLUS))
            assert correlation(model, q) == pytest.approx(np.cos(t), abs=1e-12)

    def test_classical_reduction(self):
        # all operators commute: every ++...+ correlation is a plain moment
        rng = np.random.default_rng(25)
        p = rng.random(4)
        p /= p.sum()
        vals = rng.normal(size=4)
        from faradaycorr.quantum_core import DensityMatrix

        model = TargetModel(
            hamiltonian=np.zeros((4, 4), dtype=complex),
            coupling=np.diag(vals).astype(complex),
            initial_state=DensityMatrix(np.diag(p).astype(complex)),
        )
        for k in (1, 2, 3, 4):
            q = CorrelationQuery(times=(0.0,) * k, signs=(PLUS,) * k)
            assert correlation(model, q) == pytest.approx(float(p @ vals**k), rel=1e-12)

    def test_operator_ordering_identity(self):
        # C^{+ eta_{K-1} ... eta_1} = (prod eta_k) Tr[rho * B1^{eta1}(...(B_K))]
        # where the k-th map acts on operators, outermost k = 1.
        rng = np.random.default_rng(26)
        for trial in range(20):
            d = int(rng.integers(2, 5))
            k = int(rng.integers(2, 5))
            model = random_model(rng, d)
            times = tuple(np.sort(rng.random(k) * 2))
            signs = tuple(rng.choice([PLUS, MINUS]) for _ in range(k - 1)) + (PLUS,)
            q = CorrelationQuery(times=times, signs=signs)
            x = heisenberg_coupling(model, times[-1])
            pref = 1.0
            for j in range(k - 2, -1, -1):
                x = apply_branch(heisenberg_coupling(model, times[j]), signs[j], x)
                pref *= 1.0 if signs[j] is PLUS else -1.0
            rhs = pref * np.trace(model.initial_state.matrix @ x).real
            assert correlation(model, q) == pytest.approx(rhs, abs=1e-10)

    def test_thermal_state_stationarity(self):
        # thermal state of H: two-time correlations depend only on t2 - t1
        model = TargetModel(hamiltonian=SZ, coupling=SX, initial_state=thermal_state(SZ, 0.8))
        for dt in (0.2, 0.9):
            a = correlation(model, CorrelationQuery((0.0, dt), (PLUS, PLUS)))
            b = correlation(model, CorrelationQuery((0.5, 0.5 + dt), (PLUS, PLUS)))
            assert a == pytest.approx(b, abs=1e-12)


class TestRealTraceGuard:
    def test_residue_is_relative_to_the_bound(self):
        assert real_trace(3.2e6 + 1.5e-8j, 4.0e13, "C") == 3.2e6
        assert list(real_trace(np.array([1.0, 2.0 + 1e-12j]), 1.0, "C")) == [1.0, 2.0]
        with pytest.raises(NumericalGuardError):
            real_trace(3.2e6 + 1e4j, 4.0e13, "C")

    def test_nan_is_rejected(self):
        with pytest.raises(NumericalGuardError):
            real_trace(complex(np.nan, np.nan), 1.0, "C")

    def test_record_chain_checks_each_grid_under_its_own_name(self):
        # a one-shot chain that records 1j everywhere closes on X = 1j I, so
        # its trace is 1j at every final time; C's chain beside it is real
        model = random_model(np.random.default_rng(5), 3)
        c_chain = _correlation_chain(model, CorrelationQuery((0.0,), (PLUS,)))
        imaginary = ([np.full((3, 3), 1j)], 1.0, "imaginary chain")
        with pytest.raises(NumericalGuardError, match=r"^imaginary chain has imaginary residue 1\.000e\+00"):
            _record_chain(model, [c_chain, imaginary], [], [0.0, 1.0])


class TestLiouvilleCrossCheck:
    def test_vectorize_roundtrip(self):
        rng = np.random.default_rng(27)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(unvectorize(vectorize(m), 3), m)

    def test_superoperator_on_matrix_units(self):
        # column e_ij of the superoperator must equal the map applied to |i><j|
        rng = np.random.default_rng(28)
        b = random_hermitian(rng, 3)
        for sign in (PLUS, MINUS):
            s = branch_superoperator(b, sign)
            for i, j in itertools.product(range(3), range(3)):
                unit = np.zeros((3, 3), dtype=complex)
                unit[i, j] = 1.0
                col = s @ vectorize(unit)
                assert np.max(np.abs(unvectorize(col, 3) - apply_branch(b, sign, unit))) < 1e-12

    def test_agreement_with_direct_route(self):
        rng = np.random.default_rng(29)
        for trial in range(200):
            d = int(rng.integers(2, 5))
            k = int(rng.integers(1, 5))
            model = random_model(rng, d)
            times = tuple(np.sort(rng.random(k) * 3))
            signs = tuple(rng.choice([PLUS, MINUS]) for _ in range(k - 1)) + (PLUS,)
            q = CorrelationQuery(times=times, signs=signs)
            a, b = correlation(model, q), liouville_correlation(model, q)
            assert a == pytest.approx(b, abs=1e-10, rel=1e-10)

    def test_identity_coupling(self):
        # B = I: every plus branch is the identity map, so C = 1
        model = TargetModel(hamiltonian=SZ, coupling=identity(2), initial_state=UP)
        q = CorrelationQuery(times=(0.0, 1.0, 2.0), signs=(PLUS, PLUS, PLUS))
        assert liouville_correlation(model, q) == pytest.approx(1.0, abs=1e-12)
