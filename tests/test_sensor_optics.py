import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faradaycorr import errors
from faradaycorr.correlations import BranchSign
from faradaycorr.errors import NumericalGuardError, ResourceGuardError, TruncationError
from faradaycorr.sensor_optics import (
    MeasurementBasis,
    SectorRows,
    SensorConfig,
    ShotTable,
    apply_s2,
    apply_s3,
    check_fock_memory,
    coherent_grid,
    coherent_state,
    log_factorial,
    required_cutoff,
    stokes_operators,
)

from crosscheck import eigh_sector_record, fock_record, selection_traces


def number_projector(n_max: int, max_total: int) -> np.ndarray:
    """Projector onto total photon number <= max_total (safe subspace)."""
    n_h = np.arange(n_max + 1)[:, None]
    n_v = np.arange(n_max + 1)[None, :]
    keep = ((n_h + n_v) <= max_total).ravel()
    return np.diag(keep.astype(float)).astype(complex)


def number_difference(mode_dim: int) -> np.ndarray:
    """(n_H - n_V)/2 on a psi[n_H, n_V] grid: S1, diagonal in the Fock basis."""
    n = np.arange(mode_dim)
    return (n[:, None] - n[None, :]) / 2


def shot(alpha: float, theta, basis) -> ShotTable:
    """The instrument at the plane rotations ``theta`` themselves."""
    return ShotTable(alpha, np.asarray(theta, dtype=float), basis)


def readout(phase: float) -> SimpleNamespace:
    """A readout of any interferometer phase: the instrument reads only the
    phase and the record scale of its basis."""
    return SimpleNamespace(phase=phase, record_scale=1.0)


def expectation(apply_op, alpha_h: float, alpha_v: float, n_max: int) -> complex:
    """<op> in the truncated two-mode coherent state (alpha_h, alpha_v)."""
    psi = coherent_grid(alpha_h, alpha_v, n_max)
    return complex(np.vdot(psi, apply_op(psi)))


class TestStokesAlgebra:
    N_MAX = 6

    def test_hermitian(self):
        for s in stokes_operators(self.N_MAX):
            assert np.max(np.abs(s - s.conj().T)) == 0.0

    def test_su2_commutators_on_safe_subspace(self):
        # ladder terms leak one photon across the cutoff, so test on n <= n_max - 1
        s1, s2, s3 = stokes_operators(self.N_MAX)
        p = number_projector(self.N_MAX, self.N_MAX - 1)
        for a, b, c in ((s1, s2, s3), (s2, s3, s1), (s3, s1, s2)):
            err = p @ (a @ b - b @ a - 1j * c) @ p
            assert np.max(np.abs(err)) < 1e-12

    def test_anomalous_anticommutator_s2_s3(self):
        # {S2, S3} = (i/2)(aV+^2 aH^2) + h.c., a pure two-photon exchange term
        s1, s2, s3 = stokes_operators(self.N_MAX)
        a = np.zeros((self.N_MAX + 1, self.N_MAX + 1), dtype=complex)
        n = np.arange(1, self.N_MAX + 1)
        a[n - 1, n] = np.sqrt(n)
        eye = np.eye(self.N_MAX + 1)
        a_h, a_v = np.kron(a, eye), np.kron(eye, a)
        term = 0.5j * (a_v.conj().T @ a_v.conj().T @ a_h @ a_h)
        rhs = term + term.conj().T
        p = number_projector(self.N_MAX, self.N_MAX - 2)
        err = p @ (s2 @ s3 + s3 @ s2 - rhs) @ p
        assert np.max(np.abs(err)) < 1e-12

    def test_anomalous_square_s3(self):
        # 2 S3^2 = nH nV + (nH + nV)/2 - ((aH+ aV)^2 + h.c.)/2
        s1, s2, s3 = stokes_operators(self.N_MAX)
        a = np.zeros((self.N_MAX + 1, self.N_MAX + 1), dtype=complex)
        n = np.arange(1, self.N_MAX + 1)
        a[n - 1, n] = np.sqrt(n)
        eye = np.eye(self.N_MAX + 1)
        a_h, a_v = np.kron(a, eye), np.kron(eye, a)
        n_h, n_v = a_h.conj().T @ a_h, a_v.conj().T @ a_v
        cross = a_h.conj().T @ a_v
        rhs = n_h @ n_v + (n_h + n_v) / 2 - (cross @ cross + (cross @ cross).conj().T) / 2
        p = number_projector(self.N_MAX, self.N_MAX - 2)
        err = p @ (2 * s3 @ s3 - rhs) @ p
        assert np.max(np.abs(err)) < 1e-12

    def test_matrix_free_matches_dense(self):
        rng = np.random.default_rng(31)
        psi = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        s1, s2, s3 = stokes_operators(self.N_MAX)
        assert np.max(np.abs(s1 - np.diag(number_difference(self.N_MAX + 1).ravel()))) < 1e-12
        for apply_op, dense in ((apply_s2, s2), (apply_s3, s3)):
            got = apply_op(psi).ravel()
            assert np.max(np.abs(got - dense @ psi.ravel())) < 1e-12

    def test_vacuum_expectations_vanish(self):
        vac = np.zeros((7, 7), dtype=complex)
        vac[0, 0] = 1.0
        for op in (apply_s2, apply_s3):
            assert abs(np.vdot(vac, op(vac))) == 0.0


class TestCoherentStates:
    def test_normalization_and_mean_count(self):
        alpha = 2.0
        n_max = required_cutoff(alpha)
        psi = coherent_grid(alpha, 0.0, n_max)
        assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-12)
        n_h = np.arange(n_max + 1)
        mean = float(np.sum(n_h[:, None] * np.abs(psi) ** 2))
        assert mean == pytest.approx(alpha**2, rel=1e-10)

    def test_h_pulse_stokes_vector(self):
        alpha = 1.5
        n_max = required_cutoff(alpha)
        psi = coherent_grid(alpha, 0.0, n_max)
        s1 = float(np.sum(number_difference(n_max + 1) * np.abs(psi) ** 2))
        assert s1 == pytest.approx(alpha**2 / 2, rel=1e-10)
        assert abs(expectation(apply_s2, alpha, 0.0, n_max)) < 1e-12
        assert abs(expectation(apply_s3, alpha, 0.0, n_max)) < 1e-12

    def test_rotated_pulse_s2(self):
        # <S2> of (alpha cos t, alpha sin t) is (alpha^2/2) sin 2t
        alpha, theta = 1.5, 0.23
        n_max = required_cutoff(alpha)
        val = expectation(apply_s2, alpha * math.cos(theta), alpha * math.sin(theta), n_max)
        assert val.real == pytest.approx(alpha**2 / 2 * math.sin(2 * theta), rel=1e-10)

    def test_negative_amplitude_sign(self):
        n_max = required_cutoff(1.0)
        psi = coherent_grid(-1.0, 0.0, n_max)
        assert psi[1, 0].real < 0  # odd components flip sign
        assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-12)

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            coherent_state(5.0, 10)

    def test_cutoff_is_that_of_the_total_amplitude(self):
        # |3, 4> holds the photons of an amplitude-5 pulse, whatever the split
        n_max = required_cutoff(5.0)
        assert coherent_grid(3.0, 4.0, n_max).shape == (n_max + 1, n_max + 1)
        with pytest.raises(TruncationError, match="need >= "):
            coherent_grid(3.0, 4.0, n_max - 1)
        assert required_cutoff(3.0) < n_max

    def test_required_cutoff_tail(self):
        # tail population above the cutoff stays below the tolerance budget
        for alpha in (0.5, 2.0, 4.0):
            n_max = required_cutoff(alpha)
            psi = coherent_grid(alpha, 0.0, n_max)
            top = np.abs(psi[-1, 0]) ** 2
            assert top < 1e-12
            assert 1.0 - np.vdot(psi, psi).real < 1e-12


class TestMeasurementBasis:
    def test_phase_and_branch_mapping(self):
        assert MeasurementBasis.S2.phase == pytest.approx(math.pi / 2)
        assert MeasurementBasis.S3.phase == 0.0
        assert MeasurementBasis.S2.eta is BranchSign.PLUS
        assert MeasurementBasis.S3.eta is BranchSign.MINUS
        assert MeasurementBasis.S2.record_scale == 0.5
        assert MeasurementBasis.S3.record_scale == 1.0

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_selection_traces(self, alpha):
        # S2 basis selects the anticommutator branch with weight alpha^2/2,
        # S3 basis the commutator branch with the same weight; no standing signal.
        n_max = required_cutoff(alpha)
        s2 = selection_traces(alpha, MeasurementBasis.S2)
        s3 = selection_traces(alpha, MeasurementBasis.S3)
        half = alpha**2 / 2
        tol = 1e-10 * alpha**2
        assert abs(s2.t0) < tol and abs(s3.t0) < tol
        assert s2.t_minus == pytest.approx(half, abs=tol)
        assert abs(s2.t_plus) < tol
        assert s3.t_plus == pytest.approx(half, abs=tol)
        assert abs(s3.t_minus) < tol

    @pytest.mark.parametrize("basis", [MeasurementBasis.S2, MeasurementBasis.S3])
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0])
    def test_selection_traces_match_the_dense_pulse(self, alpha, basis):
        # the photon-number sector sums against the dense two-mode pulse |v> at
        # the same cutoff: with u = Lambda|v> (S2, or 2*S3 for the raw R/L
        # count) and w = S3|v>, t0 = <v|u>, t_plus = Re<u|w>, t_minus = 2 Im<u|w>
        n_max = required_cutoff(alpha)
        v = coherent_state(alpha, n_max).reshape(n_max + 1, n_max + 1)
        u = apply_s2(v) if basis is MeasurementBasis.S2 else 2.0 * apply_s3(v)
        z = complex(np.vdot(u, apply_s3(v)))
        dense = (complex(np.vdot(v, u)).real, z.real, 2 * z.imag)
        t = selection_traces(alpha, basis)
        gaps = [abs(a - b) for a, b in zip((t.t0, t.t_plus, t.t_minus), dense)]
        assert max(gaps) <= 1e-12 * alpha**2


class TestSectorRows:
    W = np.array([-1.3, -0.2, 0.4, 1.1, 2.0])

    @pytest.mark.parametrize("basis", [MeasurementBasis.S2, MeasurementBasis.S3])
    def test_each_sector_matches_the_eigh_reference(self, basis):
        # every sector N <= 40 alone, at unit weight: the closed-form rows against
        # one eigh of Jy per sector. The record does not depend on the phases
        # of the eigenvectors, which the two routes choose differently.
        rows = SectorRows.of(3.0, self.W.size)
        assert required_cutoff(3.0) >= 40
        tb = 0.15 * self.W
        for n in range(41):
            sector = slice(n * (n + 1) // 2, (n + 1) * (n + 2) // 2)
            alone = SectorRows(rows.s[sector], rows.component[sector], np.ones(n + 1), rows.jx[sector])
            gap = alone.record(tb, basis) - eigh_sector_record(n, tb, basis)
            assert np.max(np.abs(gap)) <= 1e-13 * (n + 1)

    def test_rows_of_each_sector(self):
        # sector N has N + 1 rows: s from N/2 down to -N/2, a unit component
        # vector, one pulse weight, and no Jx element out of its last row
        n_max = required_cutoff(2.0)
        rows = SectorRows.of(2.0, 1)
        assert rows.s.size == (n_max + 1) * (n_max + 2) // 2
        weights = np.abs(coherent_grid(2.0, 0.0, n_max)[:, 0]) ** 2  # |c_N|^2 of |alpha, H> = sum c_N |N, 0>
        for n in range(n_max + 1):
            sector = slice(n * (n + 1) // 2, (n + 1) * (n + 2) // 2)
            assert np.array_equal(rows.s[sector], n / 2 - np.arange(n + 1))
            assert np.vdot(rows.component[sector], rows.component[sector]).real == pytest.approx(1.0, abs=1e-13)
            assert np.allclose(rows.weight[sector], weights[n], rtol=1e-13, atol=0)
            assert rows.jx[sector][-1] == 0.0

    @pytest.mark.parametrize("basis", [MeasurementBasis.S2, MeasurementBasis.S3])
    @pytest.mark.parametrize("alpha, columns", [(2.0, 1), (5.0, 8), (10.0, 2), (10.0, 64)])
    def test_guard_bounds_the_peak(self, monkeypatch, alpha, columns, basis):
        # a guard just below the traced peak of a record refuses its rows
        eigvals = np.linspace(-1.0, 1.0, columns)
        tracemalloc.start()
        try:
            fock_record(alpha, 0.1, eigvals, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(errors, "MEMORY_GUARD_BYTES", peak - 1)
        with pytest.raises(ResourceGuardError):
            check_fock_memory(required_cutoff(alpha), columns)


def test_log_factorial_matches_lgamma():
    n = np.arange(0, 5000)
    expect = np.array([math.lgamma(k + 1) for k in n])
    assert np.allclose(log_factorial(n), expect, rtol=1e-13, atol=1e-13)


class TestInterferometer:
    ALPHA = 1.3
    BASES = (MeasurementBasis.S2, MeasurementBasis.S3)

    @given(
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_photon_conservation(self, theta, phase):
        beta_c, beta_d = shot(self.ALPHA, theta, readout(phase)).amplitudes()
        assert abs(beta_c) ** 2 + abs(beta_d) ** 2 == pytest.approx(self.ALPHA**2, rel=1e-12)

    def test_balanced_at_zero_rotation(self):
        for basis in self.BASES:
            beta_c, beta_d = shot(self.ALPHA, 0.0, basis).amplitudes()
            assert abs(beta_d) ** 2 - abs(beta_c) ** 2 == pytest.approx(0.0, abs=1e-12)

    def test_raw_difference_matches_stokes_expectations(self):
        # the network's n_d - n_c equals 2<S2> (S2 basis) or 2<S3> (S3 basis)
        # of the rotated pulse, evaluated independently on the truncated space
        alpha = self.ALPHA
        n_max = required_cutoff(alpha)
        for theta in (-0.3, -0.05, 0.12, 0.3):
            ah, av = alpha * math.cos(theta), alpha * math.sin(theta)
            for basis, apply_op in ((MeasurementBasis.S2, apply_s2), (MeasurementBasis.S3, apply_s3)):
                beta_c, beta_d = shot(alpha, theta, basis).amplitudes()
                stokes = expectation(apply_op, ah, av, n_max).real
                assert abs(beta_d) ** 2 - abs(beta_c) ** 2 == pytest.approx(2 * stokes, abs=1e-8 * alpha**2)

    def test_linear_response_coefficient(self):
        # the recorded S2 half difference is alpha^2 tau b / 2 for a weak field b
        tau = 0.05
        for b in (2e-3, 2e-4):
            table = ShotTable.of(b, SensorConfig(self.ALPHA, tau), MeasurementBasis.S2)
            beta_c, beta_d = table.amplitudes()
            half = (abs(beta_d) ** 2 - abs(beta_c) ** 2) / 2
            assert half / (self.ALPHA**2 * tau * b / 2) == pytest.approx(1.0, rel=1e-6)

    def test_rotation_angle_convention(self):
        table = ShotTable.of(3.0, SensorConfig(self.ALPHA, 0.5), MeasurementBasis.S2)
        assert table.theta == pytest.approx(0.75)

    def test_vectorized_amplitudes_match_scalar(self):
        theta = np.linspace(-0.4, 0.4, 12).reshape(3, 4)
        for basis in self.BASES:
            beta_c, beta_d = shot(self.ALPHA, theta, basis).amplitudes()
            assert beta_c.shape == beta_d.shape == theta.shape
            for i, t in np.ndenumerate(theta):
                assert (beta_c[i], beta_d[i]) == shot(self.ALPHA, float(t), basis).amplitudes()
            # |beta_d|^2 - |beta_c|^2 = alpha^2 sin(2 theta) sin(phase)
            diff = np.abs(beta_d) ** 2 - np.abs(beta_c) ** 2
            assert np.allclose(diff, self.ALPHA**2 * np.sin(2 * theta) * math.sin(basis.phase), atol=1e-12)


class TestDetectorMeans:
    @given(
        st.floats(min_value=1e-3, max_value=60.0),
        st.floats(min_value=-4.0, max_value=4.0),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=200, deadline=None)
    def test_means_are_the_squared_amplitudes(self, alpha, theta, phase):
        table = shot(alpha, theta, readout(phase))
        means_c, means_d = table.means()
        beta_c, beta_d = table.amplitudes()
        assert abs(means_c - abs(beta_c) ** 2) <= 1e-14 * alpha**2
        assert abs(means_d - abs(beta_d) ** 2) <= 1e-14 * alpha**2

    @given(st.floats(min_value=1e-3, max_value=60.0), st.floats(min_value=-4.0, max_value=4.0))
    @example(44.93345302461281, 0.3)  # libm pow gives alpha**2 one ulp above alpha * alpha
    @settings(max_examples=60, deadline=None)
    def test_circular_basis_is_balanced_exactly(self, alpha, theta):
        means_c, means_d = shot(alpha, theta, MeasurementBasis.S3).means()
        assert means_c == means_d == alpha * alpha / 2

    def test_elementwise_over_any_shape(self):
        theta = np.linspace(-0.4, 0.4, 12).reshape(3, 4)
        means_c, means_d = shot(1.3, theta, MeasurementBasis.S2).means()
        assert means_c.shape == means_d.shape == theta.shape
        for i, t in np.ndenumerate(theta):
            assert (means_c[i], means_d[i]) == shot(1.3, float(t), MeasurementBasis.S2).means()

    @pytest.mark.parametrize("basis", [MeasurementBasis.S2, MeasurementBasis.S3])
    def test_record_diagonal_is_the_scaled_mean_difference(self, basis):
        # the record's diagonal, formed from the arms, is record_scale (mu_d - mu_c)
        for alpha in (0.5, 3.0, 40.0):
            table = shot(alpha, np.linspace(-0.7, 0.9, 7), basis)
            means_c, means_d = table.means()
            gap = np.diag(table.record()) - table.basis.record_scale * (means_d - means_c)
            assert np.max(np.abs(gap)) <= 1e-14 * alpha**2

    def test_blind_is_read_from_the_means(self):
        sensor = SensorConfig(alpha=5.0, tau=0.1)
        values = np.array([-1.5, 0.0, 2.0])
        assert ShotTable.of(values, sensor, MeasurementBasis.S3).blind
        assert not ShotTable.of(values, sensor, MeasurementBasis.S2).blind
        # no rotation anywhere: every D/A branch sees alpha^2/2 too
        assert ShotTable.of(np.zeros(3), sensor, MeasurementBasis.S2).blind

    def test_draw_refuses_means_that_are_not_finite(self):
        rng = np.random.default_rng(0)
        with np.errstate(invalid="ignore"):  # sin(inf)
            table = shot(3.0, np.array([0.1, np.inf]), MeasurementBasis.S2)
            with pytest.raises(NumericalGuardError, match="the Poisson means of an S2 shot are not finite"):
                table.draw(rng, np.array([0, 0]))
        assert rng.random() == np.random.default_rng(0).random()  # before any draw


class TestConfigValidation:
    def test_sensor_config_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SensorConfig(alpha=0.0, tau=0.1)
        with pytest.raises(ValueError):
            SensorConfig(alpha=1.0, tau=0.0)
