"""Independent numpy references for the benchmark's correctness checks.

Nothing here imports faradaycorr. The spin matrices, the interaction-picture
coupling and the branch chain are rebuilt from the config's numbers with a
different method from the package's (one eigendecomposition of H, phases in
its eigenbasis, instead of a fresh matrix exponential per shot), and the
semiclassical record statistics are closed forms rather than sampling.

Record conventions are the package's documented ones: an S2 shot records the
half count difference h = (n_d - n_c)/2, whose mean given a field value b is
(alpha^2/2) sin(tau b) and whose sum of detector means is alpha^2.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_TERMS = ("jx", "jy", "jz")


def spin_matrices(two_j: int) -> dict[str, np.ndarray]:
    """Spin-j matrices in the basis m = j, j-1, ..., -j (index 0 is 'up')."""
    j = two_j / 2.0
    m = j - np.arange(two_j + 1)
    # <m+1| J+ |m> sits one row above the diagonal in decreasing-m order
    raise_amp = np.sqrt((j - m[1:]) * (j + m[1:] + 1))
    j_plus = np.diag(raise_amp, k=1).astype(complex)
    return {
        "jx": (j_plus + j_plus.conj().T) / 2,
        "jy": (j_plus - j_plus.conj().T) / 2j,
        "jz": np.diag(m).astype(complex),
    }


def model_matrices(model_cfg: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H, B, rho0) of a ``single_spin`` model section of a run config."""
    two_j = int(model_cfg["two_j"])
    ops = spin_matrices(two_j)

    def combine(terms: dict) -> np.ndarray:
        return sum(float(terms.get(k, 0.0)) * ops[k] for k in _TERMS)

    h = combine(model_cfg["hamiltonian"])
    b = combine(model_cfg["coupling"])
    state = model_cfg.get("initial_state", "up")
    if state == "thermal":
        e, v = np.linalg.eigh(h)
        p = np.exp(-float(model_cfg["beta"]) * (e - e.min()))
        rho = (v * (p / p.sum())) @ v.conj().T
    else:
        rho = np.zeros((two_j + 1, two_j + 1), dtype=complex)
        idx = 0 if state == "up" else two_j
        rho[idx, idx] = 1.0
    return h, b, rho


class CorrelationChain:
    """C = Tr[B^{eta_K}(t_K) ... B^{eta_1}(t_1) rho], worked in the H eigenbasis.

    There B(t)_ij = B_ij exp(i (E_i - E_j) t), so no shot needs an
    exponential or an eigendecomposition of its own.
    """

    def __init__(self, h: np.ndarray, b: np.ndarray, rho: np.ndarray):
        self.energies, v = np.linalg.eigh(h)
        self.b = v.conj().T @ b @ v
        self.rho = v.conj().T @ rho @ v

    def coupling_at(self, t: float) -> np.ndarray:
        phase = np.exp(1j * self.energies * t)
        return phase[:, None] * self.b * phase.conj()[None, :]

    def apply(self, rho: np.ndarray, t: float, sign: str) -> np.ndarray:
        bt = self.coupling_at(t)
        if sign == "+":
            return (bt @ rho + rho @ bt) / 2
        return (bt @ rho - rho @ bt) / 1j

    def value(self, times, signs) -> float:
        """Real part of the chain's trace; a closing '-' gives exactly 0."""
        if signs[-1] == "-":
            return 0.0
        rho = self.rho
        for t, s in zip(times, signs):
            rho = self.apply(rho, t, s)
        return float(np.trace(rho).real)

    def final_time_grid(self, times, signs, grid) -> np.ndarray:
        """C for each final time in ``grid``, first K-1 shots held fixed.

        The state after the first K-1 shots is built once; each grid point
        is then one weighted sum Tr[B(t) rho'] (closing '+' branch).
        """
        if signs[-1] == "-":
            return np.zeros(len(grid))
        rho = self.rho
        for t, s in zip(times[:-1], signs[:-1]):
            rho = self.apply(rho, t, s)
        grid = np.asarray(grid, dtype=float)
        gaps = self.energies[:, None] - self.energies[None, :]
        phases = np.exp(1j * grid[:, None, None] * gaps[None, :, :])
        weights = self.b * rho.T
        return np.real(np.einsum("gij,ij->g", phases, weights))


# -- semiclassical fields ----------------------------------------------------


def ou_covariance(amplitude: float, correlation_time: float, times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    return amplitude**2 * np.exp(-np.abs(t[:, None] - t[None, :]) / correlation_time)


def ou_mean_sin_product(tau: float, amplitude: float, correlation_time: float, times) -> float:
    """E prod_k sin(tau b_k) for a stationary Ornstein-Uhlenbeck field.

    Write each sine as (e^{i tau b} - e^{-i tau b}) / 2i and sum the Gaussian
    characteristic function over the 2^K sign patterns s.
    """
    cov = ou_covariance(amplitude, correlation_time, times)
    k = len(cov)
    total = 0.0 + 0.0j
    for s in itertools.product((1.0, -1.0), repeat=k):
        s = np.array(s)
        total += np.prod(s) * math.exp(-0.5 * tau**2 * s @ cov @ s)
    return float((total / (2j) ** k).real)


def ou_mean_factor_product(p: float, q: float, tau: float, amplitude: float,
                           correlation_time: float, times) -> float:
    """E prod_k (p - q cos(2 tau b_k)) for a stationary OU field.

    Each factor is a sum over u in {0, +1, -1} of weights (p, -q/2, -q/2)
    times e^{2i tau u b}, which gives a sum over 3^K patterns.
    """
    cov = ou_covariance(amplitude, correlation_time, times)
    k = len(cov)
    weight = {0: p, 1: -q / 2, -1: -q / 2}
    total = 0.0
    for u in itertools.product((0, 1, -1), repeat=k):
        w = math.prod(weight[x] for x in u)
        u = np.array(u, dtype=float)
        total += w * math.exp(-2.0 * tau**2 * u @ cov @ u)
    return float(total)


def telegraph_sign_product(correlation_time: float, times) -> float:
    """E prod_k sigma_k for a stationary symmetric telegraph sign sigma(t).

    Markov product: start from the uniform distribution, multiply by the sign
    at each shot and by the flip matrix over each gap, whose off-diagonal
    element is (1 - e^{-gap/T}) / 2.
    """
    sign = np.diag([1.0, -1.0])
    vec = np.array([0.5, 0.5]) @ sign
    for gap in np.diff(np.asarray(times, dtype=float)):
        flip = 0.5 * (1.0 - math.exp(-gap / correlation_time))
        vec = vec @ np.array([[1 - flip, flip], [flip, 1 - flip]]) @ sign
    return float(vec.sum())


def semiclassical_s2_moments(kind: str, alpha: float, tau: float, amplitude: float,
                             correlation_time: float, times) -> dict[str, float]:
    """Closed-form statistics of K S2 records around a classical field.

    Returns the mean and variance of the record product, the pooled per-shot
    variance of h, and the variance of h^2 (which bounds the standard error of
    the pooled variance estimate by sqrt(var_h2 / L)).
    """
    k = len(times)
    a2 = alpha**2
    if kind == "ornstein_uhlenbeck":
        x = (tau * amplitude) ** 2
        mean_sin = ou_mean_sin_product(tau, amplitude, correlation_time, times)
        # E sin^2 = (1 - E cos 2x)/2, E sin^4 = (3 - 4 E cos 2x + E cos 4x)/8
        e_sin2 = (1.0 - math.exp(-2 * x)) / 2
        e_sin4 = (3.0 - 4 * math.exp(-2 * x) + math.exp(-8 * x)) / 8
        second = ou_mean_factor_product(
            a2 / 4 + a2**2 / 8, a2**2 / 8, tau, amplitude, correlation_time, times
        )
    elif kind == "telegraph":
        sin_a = math.sin(tau * amplitude)
        mean_sin = sin_a**k * telegraph_sign_product(correlation_time, times)
        e_sin2, e_sin4 = sin_a**2, sin_a**4
        second = (a2 / 4 + a2**2 / 4 * sin_a**2) ** k
    else:
        raise ValueError(f"no closed form for field kind {kind!r}")
    mean = (a2 / 2) ** k * mean_sin
    # Skellam difference X = n_d - n_c: odd cumulants s = alpha^2 sin, even ones alpha^2
    e_s2, e_s4 = a2**2 * e_sin2, a2**4 * e_sin4
    e_h2 = (a2 + e_s2) / 4
    e_h4 = (a2 + 4 * e_s2 + 3 * a2**2 + 6 * a2 * e_s2 + e_s4) / 16
    return {
        "mean": mean,
        "var_product": second - mean**2,
        "half_variance": e_h2,
        "var_h2": e_h4 - e_h2**2,
    }
