import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faradaycorr.correlations import BranchSign
from faradaycorr.errors import TruncationError
from faradaycorr.sensor_optics import (
    FockTruncation,
    MeasurementBasis,
    SensorConfig,
    apply_s2,
    apply_s3,
    coherent_grid,
    coherent_state,
    detector_amplitudes,
    detector_means,
    log_factorial,
    plane_rotation_angle,
    required_cutoff,
    selection_traces,
    stokes_operators,
)


def number_projector(tr: FockTruncation, max_total: int) -> np.ndarray:
    """Projector onto total photon number <= max_total (safe subspace)."""
    n_h = np.arange(tr.mode_dim)[:, None]
    n_v = np.arange(tr.mode_dim)[None, :]
    keep = ((n_h + n_v) <= max_total).ravel()
    return np.diag(keep.astype(float)).astype(complex)


def number_difference(mode_dim: int) -> np.ndarray:
    """(n_H - n_V)/2 on a psi[n_H, n_V] grid: S1, diagonal in the Fock basis."""
    n = np.arange(mode_dim)
    return (n[:, None] - n[None, :]) / 2


def expectation(apply_op, alpha_h: float, alpha_v: float, tr: FockTruncation) -> complex:
    """<op> in the truncated two-mode coherent state (alpha_h, alpha_v)."""
    psi = coherent_grid(alpha_h, alpha_v, tr)
    return complex(np.vdot(psi, apply_op(psi)))


class TestStokesAlgebra:
    TR = FockTruncation(6)

    def test_hermitian(self):
        for s in stokes_operators(self.TR):
            assert np.max(np.abs(s - s.conj().T)) == 0.0

    def test_su2_commutators_on_safe_subspace(self):
        # ladder terms leak one photon across the cutoff, so test on n <= n_max - 1
        s1, s2, s3 = stokes_operators(self.TR)
        p = number_projector(self.TR, self.TR.n_max - 1)
        for a, b, c in ((s1, s2, s3), (s2, s3, s1), (s3, s1, s2)):
            err = p @ (a @ b - b @ a - 1j * c) @ p
            assert np.max(np.abs(err)) < 1e-12

    def test_anomalous_anticommutator_s2_s3(self):
        # {S2, S3} = (i/2)(aV+^2 aH^2) + h.c., a pure two-photon exchange term
        s1, s2, s3 = stokes_operators(self.TR)
        a = np.zeros((self.TR.mode_dim, self.TR.mode_dim), dtype=complex)
        n = np.arange(1, self.TR.mode_dim)
        a[n - 1, n] = np.sqrt(n)
        eye = np.eye(self.TR.mode_dim)
        a_h, a_v = np.kron(a, eye), np.kron(eye, a)
        term = 0.5j * (a_v.conj().T @ a_v.conj().T @ a_h @ a_h)
        rhs = term + term.conj().T
        p = number_projector(self.TR, self.TR.n_max - 2)
        err = p @ (s2 @ s3 + s3 @ s2 - rhs) @ p
        assert np.max(np.abs(err)) < 1e-12

    def test_anomalous_square_s3(self):
        # 2 S3^2 = nH nV + (nH + nV)/2 - ((aH+ aV)^2 + h.c.)/2
        s1, s2, s3 = stokes_operators(self.TR)
        a = np.zeros((self.TR.mode_dim, self.TR.mode_dim), dtype=complex)
        n = np.arange(1, self.TR.mode_dim)
        a[n - 1, n] = np.sqrt(n)
        eye = np.eye(self.TR.mode_dim)
        a_h, a_v = np.kron(a, eye), np.kron(eye, a)
        n_h, n_v = a_h.conj().T @ a_h, a_v.conj().T @ a_v
        cross = a_h.conj().T @ a_v
        rhs = n_h @ n_v + (n_h + n_v) / 2 - (cross @ cross + (cross @ cross).conj().T) / 2
        p = number_projector(self.TR, self.TR.n_max - 2)
        err = p @ (2 * s3 @ s3 - rhs) @ p
        assert np.max(np.abs(err)) < 1e-12

    def test_matrix_free_matches_dense(self):
        rng = np.random.default_rng(31)
        psi = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        s1, s2, s3 = stokes_operators(self.TR)
        assert np.max(np.abs(s1 - np.diag(number_difference(self.TR.mode_dim).ravel()))) < 1e-12
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
        tr = FockTruncation.for_alpha(alpha)
        psi = coherent_grid(alpha, 0.0, tr)
        assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-12)
        n_h = np.arange(tr.mode_dim)
        mean = float(np.sum(n_h[:, None] * np.abs(psi) ** 2))
        assert mean == pytest.approx(alpha**2, rel=1e-10)

    def test_h_pulse_stokes_vector(self):
        alpha = 1.5
        tr = FockTruncation.for_alpha(alpha)
        psi = coherent_grid(alpha, 0.0, tr)
        s1 = float(np.sum(number_difference(tr.mode_dim) * np.abs(psi) ** 2))
        assert s1 == pytest.approx(alpha**2 / 2, rel=1e-10)
        assert abs(expectation(apply_s2, alpha, 0.0, tr)) < 1e-12
        assert abs(expectation(apply_s3, alpha, 0.0, tr)) < 1e-12

    def test_rotated_pulse_s2(self):
        # <S2> of (alpha cos t, alpha sin t) is (alpha^2/2) sin 2t
        alpha, theta = 1.5, 0.23
        tr = FockTruncation.for_alpha(alpha)
        val = expectation(apply_s2, alpha * math.cos(theta), alpha * math.sin(theta), tr)
        assert val.real == pytest.approx(alpha**2 / 2 * math.sin(2 * theta), rel=1e-10)

    def test_negative_amplitude_sign(self):
        tr = FockTruncation.for_alpha(1.0)
        psi = coherent_grid(-1.0, 0.0, tr)
        assert psi[1, 0].real < 0  # odd components flip sign
        assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-12)

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            coherent_state(5.0, FockTruncation(10))

    def test_required_cutoff_tail(self):
        # tail population above the cutoff stays below the tolerance budget
        for alpha in (0.5, 2.0, 4.0):
            tr = FockTruncation.for_alpha(alpha)
            psi = coherent_grid(alpha, 0.0, tr)
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
        tr = FockTruncation.for_alpha(alpha)
        s2 = selection_traces(alpha, tr, MeasurementBasis.S2)
        s3 = selection_traces(alpha, tr, MeasurementBasis.S3)
        half = alpha**2 / 2
        tol = 1e-10 * alpha**2
        assert abs(s2.t0) < tol and abs(s3.t0) < tol
        assert s2.t_minus == pytest.approx(half, abs=tol)
        assert abs(s2.t_plus) < tol
        assert s3.t_plus == pytest.approx(half, abs=tol)
        assert abs(s3.t_minus) < tol


def test_log_factorial_matches_lgamma():
    n = np.arange(0, 5000)
    expect = np.array([math.lgamma(k + 1) for k in n])
    assert np.allclose(log_factorial(n), expect, rtol=1e-13, atol=1e-13)


class TestInterferometer:
    ALPHA = 1.3
    PHASES = (MeasurementBasis.S2.phase, MeasurementBasis.S3.phase)

    @given(
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_photon_conservation(self, theta, phase):
        beta_c, beta_d = detector_amplitudes(self.ALPHA, theta, phase)
        assert abs(beta_c) ** 2 + abs(beta_d) ** 2 == pytest.approx(self.ALPHA**2, rel=1e-12)

    def test_balanced_at_zero_rotation(self):
        for phase in self.PHASES:
            beta_c, beta_d = detector_amplitudes(self.ALPHA, 0.0, phase)
            assert abs(beta_d) ** 2 - abs(beta_c) ** 2 == pytest.approx(0.0, abs=1e-12)

    def test_raw_difference_matches_stokes_expectations(self):
        # the network's n_d - n_c equals 2<S2> (S2 basis) or 2<S3> (S3 basis)
        # of the rotated pulse, evaluated independently on the truncated space
        alpha = self.ALPHA
        tr = FockTruncation.for_alpha(alpha)
        for theta in (-0.3, -0.05, 0.12, 0.3):
            ah, av = alpha * math.cos(theta), alpha * math.sin(theta)
            for basis, apply_op in ((MeasurementBasis.S2, apply_s2), (MeasurementBasis.S3, apply_s3)):
                beta_c, beta_d = detector_amplitudes(alpha, theta, basis.phase)
                stokes = expectation(apply_op, ah, av, tr).real
                assert abs(beta_d) ** 2 - abs(beta_c) ** 2 == pytest.approx(2 * stokes, abs=1e-8 * alpha**2)

    def test_linear_response_coefficient(self):
        # the recorded S2 half difference is alpha^2 tau b / 2 for a weak field b
        tau = 0.05
        for b in (2e-3, 2e-4):
            theta = plane_rotation_angle(b, tau)
            beta_c, beta_d = detector_amplitudes(self.ALPHA, theta, MeasurementBasis.S2.phase)
            half = (abs(beta_d) ** 2 - abs(beta_c) ** 2) / 2
            assert half / (self.ALPHA**2 * tau * b / 2) == pytest.approx(1.0, rel=1e-6)

    def test_rotation_angle_convention(self):
        assert plane_rotation_angle(3.0, 0.5) == pytest.approx(0.75)

    def test_vectorized_amplitudes_match_scalar(self):
        theta = np.linspace(-0.4, 0.4, 12).reshape(3, 4)
        for phase in self.PHASES:
            beta_c, beta_d = detector_amplitudes(self.ALPHA, theta, phase)
            assert beta_c.shape == beta_d.shape == theta.shape
            for i, t in np.ndenumerate(theta):
                assert (beta_c[i], beta_d[i]) == detector_amplitudes(self.ALPHA, float(t), phase)
            # |beta_d|^2 - |beta_c|^2 = alpha^2 sin(2 theta) sin(phase)
            diff = np.abs(beta_d) ** 2 - np.abs(beta_c) ** 2
            assert np.allclose(diff, self.ALPHA**2 * np.sin(2 * theta) * math.sin(phase), atol=1e-12)


class TestDetectorMeans:
    @given(
        st.floats(min_value=1e-3, max_value=60.0),
        st.floats(min_value=-4.0, max_value=4.0),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=200, deadline=None)
    def test_means_are_the_squared_amplitudes(self, alpha, theta, phase):
        means_c, means_d = detector_means(alpha, theta, phase)
        beta_c, beta_d = detector_amplitudes(alpha, theta, phase)
        assert abs(means_c - abs(beta_c) ** 2) <= 1e-14 * alpha**2
        assert abs(means_d - abs(beta_d) ** 2) <= 1e-14 * alpha**2

    @given(st.floats(min_value=1e-3, max_value=60.0), st.floats(min_value=-4.0, max_value=4.0))
    @example(44.93345302461281, 0.3)  # libm pow gives alpha**2 one ulp above alpha * alpha
    @settings(max_examples=60, deadline=None)
    def test_circular_basis_is_balanced_exactly(self, alpha, theta):
        means_c, means_d = detector_means(alpha, theta, MeasurementBasis.S3.phase)
        assert means_c == means_d == alpha * alpha / 2

    def test_elementwise_over_any_shape(self):
        theta = np.linspace(-0.4, 0.4, 12).reshape(3, 4)
        means_c, means_d = detector_means(1.3, theta, MeasurementBasis.S2.phase)
        assert means_c.shape == means_d.shape == theta.shape
        for i, t in np.ndenumerate(theta):
            assert (means_c[i], means_d[i]) == detector_means(1.3, float(t), MeasurementBasis.S2.phase)


class TestConfigValidation:
    def test_sensor_config_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SensorConfig(alpha=0.0, tau=0.1)
        with pytest.raises(ValueError):
            SensorConfig(alpha=1.0, tau=0.0)

    def test_truncation_rejects_tiny(self):
        with pytest.raises(ValueError):
            FockTruncation(0)

    def test_for_alpha_roundtrip(self):
        tr = FockTruncation.for_alpha(2.0)
        assert tr.n_max == required_cutoff(2.0)
        tr.check_alpha(2.0)  # no raise
