import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faradaycorr.errors import NonHermitianError
from faradaycorr.quantum_core import (
    DensityMatrix,
    hermitian_expm,
    is_hermitian,
    pure_state,
    spin_operators,
    thermal_state,
)

from conftest import SX, SY, SZ, random_density, random_hermitian
from crosscheck import identity


def expm_series_oracle(h, t, terms=60):
    out = identity(h.shape[0])
    term = identity(h.shape[0])
    for n in range(1, terms):
        term = term @ (-1j * t * h) / n
        out = out + term
    return out


class TestHermitianExpm:
    def test_zero_time(self):
        assert np.allclose(hermitian_expm(SX, 0.0), identity(2))

    def test_diagonal_generator(self):
        u = hermitian_expm(SZ, 0.7)
        assert np.allclose(u, np.diag([np.exp(-0.7j), np.exp(0.7j)]))

    def test_against_series(self):
        rng = np.random.default_rng(14)
        for d in (2, 3, 5):
            h = random_hermitian(rng, d)
            t = 0.9
            assert np.max(np.abs(hermitian_expm(h, t) - expm_series_oracle(h, t))) < 1e-12

    def test_unitarity_and_group_property(self):
        rng = np.random.default_rng(15)
        h = random_hermitian(rng, 4)
        u1, u2 = hermitian_expm(h, 0.3), hermitian_expm(h, 1.1)
        assert np.max(np.abs(u1.conj().T @ u1 - identity(4))) < 1e-12
        assert np.allclose(u1 @ u2, hermitian_expm(h, 1.4), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            hermitian_expm(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


def unitary_diagonalized(rng: np.random.Generator, d: int, scale: float) -> np.ndarray:
    """U diag(E) U^dag for a random unitary U and real |E| <= scale: Hermitian
    but for the roundoff of the products, which grows with the scale."""
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return (u * rng.uniform(-scale, scale, d)) @ u.conj().T


class TestIsHermitian:
    """The guard is relative to the matrix's largest entry: the roundoff of a
    Hermitian matrix passes at any scale, a non-Hermitian matrix fails at any."""

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e8, 1e12])
    def test_roundoff_passes_at_any_scale(self, scale):
        rng = np.random.default_rng(30)
        for _ in range(50):
            assert is_hermitian(unitary_diagonalized(rng, 16, scale))

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e8])
    def test_non_hermitian_fails_at_any_scale(self, scale):
        assert not is_hermitian(scale * np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not is_hermitian(scale * np.array([[1.0, 1.0], [1.0 + 1e-9, 1.0]]))

    def test_zero_matrix_is_hermitian(self):
        assert is_hermitian(np.zeros((3, 3)))

    def test_entries_at_the_edge_of_the_float_range(self):
        # a - a^dag overflows to inf, which is not Hermitian, and numpy says nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_hermitian(np.array([[1.0, 1.7e308], [-1.7e308, -1.0]]))
            # an entry whose modulus, 2.4e308, no float holds: an infinite
            # tolerance would pass any matrix
            big = 1.7e308 + 1.7e308j
            assert not is_hermitian(np.array([[0.0, big], [0.0, 0.0]]))
            assert is_hermitian(np.array([[0.0, big], [big.conjugate(), 0.0]]))


class TestSpinOperators:
    def test_spin_half_is_half_pauli(self):
        jx, jy, jz = spin_operators(1)
        assert np.allclose(jx, SX / 2)
        assert np.allclose(jy, SY / 2)
        assert np.allclose(jz, SZ / 2)

    def test_spin_one_jz(self):
        _, _, jz = spin_operators(2)
        assert np.allclose(jz, np.diag([1.0, 0.0, -1.0]))

    @pytest.mark.parametrize("two_j", [1, 2, 3, 7, 16])
    def test_algebra(self, two_j):
        jx, jy, jz = spin_operators(two_j)
        j = two_j / 2
        for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jz, jx, jy)):
            assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-12 * (j + 1)
        casimir = jx @ jx + jy @ jy + jz @ jz
        assert np.allclose(casimir, j * (j + 1) * identity(two_j + 1), atol=1e-11 * (j + 1))

    def test_spin_eight_extremal_moment(self):
        # spin-8 has max |<Jz>| = 8, so max <Jz^2> on eigenstates is 64
        _, _, jz = spin_operators(16)
        assert np.max(np.linalg.eigvalsh(jz @ jz)) == pytest.approx(64.0, abs=1e-10)

    def test_rejects_bad_two_j(self):
        with pytest.raises(ValueError):
            spin_operators(-1)


class TestThermalState:
    def test_infinite_temperature(self):
        rho = thermal_state(SZ, 0.0)
        assert np.allclose(rho.matrix, identity(2) / 2)

    def test_ground_state_limit(self):
        rho = thermal_state(SZ, 60.0)
        assert abs(rho.matrix[0, 0]) < 1e-20
        assert rho.matrix[1, 1] == pytest.approx(1.0)

    def test_two_level_closed_form(self):
        beta, e = 1.3, 0.8
        rho = thermal_state(np.diag([e, -e]).astype(complex), beta)
        z = np.exp(-beta * e) + np.exp(beta * e)
        assert rho.matrix[0, 0] == pytest.approx(np.exp(-beta * e) / z, rel=1e-12)

    def test_random_hamiltonian_invariants(self):
        rng = np.random.default_rng(16)
        h = random_hermitian(rng, 5)
        rho = thermal_state(h, 2.0)  # DensityMatrix validates trace/psd
        assert rho.dim == 5
        # commutes with the Hamiltonian
        assert np.max(np.abs(rho.matrix @ h - h @ rho.matrix)) < 1e-10

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            thermal_state(SZ, -1.0)


class TestStates:
    def test_pure_state_normalizes(self):
        rho = pure_state([3, 4j])
        assert rho.matrix[0, 0] == pytest.approx(9 / 25)
        assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0)

    def test_density_matrix_rejects_bad_input(self):
        with pytest.raises(NonHermitianError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError):
            DensityMatrix(identity(2))  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_density_is_valid(self, seed):
        rho = random_density(np.random.default_rng(seed), 3)
        assert is_hermitian(rho.matrix)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
