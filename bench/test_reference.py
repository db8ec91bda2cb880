"""Checks of the benchmark's own references against analytic values and
brute-force sampling. Run with ``python -m pytest bench``."""

import math

import numpy as np
import pytest

from reference import (
    CorrelationChain,
    model_matrices,
    ou_covariance,
    ou_mean_sin_product,
    semiclassical_s2_moments,
    spin_matrices,
    telegraph_sign_product,
)


def precession(omega=1.3, c=2.0, state="up"):
    """Spin-1/2 with H = omega Jz and B = c Jx: B(t) = (c/2)(cos wt sx - sin wt sy)."""
    cfg = {"two_j": 1, "hamiltonian": {"jz": omega}, "coupling": {"jx": c}, "initial_state": state}
    return CorrelationChain(*model_matrices(cfg))


@pytest.mark.parametrize("two_j", [1, 2, 5, 15])
def test_spin_matrices_algebra(two_j):
    ops = spin_matrices(two_j)
    jx, jy, jz = ops["jx"], ops["jy"], ops["jz"]
    j = two_j / 2
    assert np.allclose(jx @ jy - jy @ jx, 1j * jz)
    assert np.allclose(jx @ jx + jy @ jy + jz @ jz, j * (j + 1) * np.eye(two_j + 1))
    assert jz[0, 0] == j


def test_chain_matches_spin_half_precession():
    omega, c = 1.3, 2.0
    chain = precession(omega, c)
    t1, t2 = 0.4, 1.5
    # one shot: <B(t)> = 0 for a spin along z
    assert chain.value((t1,), ("+",)) == pytest.approx(0.0, abs=1e-14)
    # B(t2)B(t1) = (c/2)^2 [cos(w dt) I + i sin(w dt) sz]
    amp = (c / 2) ** 2
    assert chain.value((t1, t2), ("+", "+")) == pytest.approx(amp * math.cos(omega * (t2 - t1)))
    assert chain.value((t1, t2), ("-", "+")) == pytest.approx(2 * amp * math.sin(omega * (t2 - t1)))
    assert chain.value((t1, t2), ("+", "-")) == 0.0
    down = precession(omega, c, state="down")
    assert down.value((t1, t2), ("-", "+")) == pytest.approx(-2 * amp * math.sin(omega * (t2 - t1)))


def test_final_time_grid_matches_pointwise_chain():
    cfg = {
        "two_j": 5,
        "hamiltonian": {"jz": 1.0, "jx": 0.3},
        "coupling": {"jx": 0.4, "jz": 0.1},
        "initial_state": "thermal",
        "beta": 0.5,
    }
    chain = CorrelationChain(*model_matrices(cfg))
    times, signs = (0.0, 0.3, 0.7), ("+", "-", "+")
    grid = np.linspace(0.7, 3.0, 9)
    expect = [chain.value(times[:-1] + (t,), signs) for t in grid]
    assert np.allclose(chain.final_time_grid(times, signs, grid), expect, rtol=1e-12, atol=1e-14)


def test_ou_sin_product_analytic_pair():
    # E sin(x1) sin(x2) = e^{-s^2} sinh(s^2 r) for x_i ~ N(0, s^2), correlation r
    tau, amp, corr, times = 0.2, 3.0, 0.8, (0.0, 0.5)
    s2 = (tau * amp) ** 2
    r = math.exp(-0.5 / corr)
    assert ou_mean_sin_product(tau, amp, corr, times) == pytest.approx(math.exp(-s2) * math.sinh(s2 * r))
    assert ou_mean_sin_product(tau, amp, corr, (0.0, 0.5, 0.9)) == pytest.approx(0.0, abs=1e-15)


def test_telegraph_sign_product_pairs():
    times = (0.0, 0.3, 0.5, 1.1)
    corr = 0.7
    pairs = math.exp(-0.3 / corr) * math.exp(-0.6 / corr)
    assert telegraph_sign_product(corr, times) == pytest.approx(pairs)
    assert telegraph_sign_product(corr, times[:3]) == pytest.approx(0.0, abs=1e-15)


def sample_records(kind, alpha, tau, amp, corr, times, n, rng):
    """Brute force: field paths, then Poisson counts at the two detectors."""
    k = len(times)
    if kind == "ornstein_uhlenbeck":
        chol = np.linalg.cholesky(ou_covariance(amp, corr, times))
        b = rng.standard_normal((n, k)) @ chol.T
    else:
        sigma = np.empty((n, k))
        sigma[:, 0] = rng.choice([-1.0, 1.0], size=n)
        for j, gap in enumerate(np.diff(times)):
            flip = rng.random(n) < 0.5 * (1 - math.exp(-gap / corr))
            sigma[:, j + 1] = np.where(flip, -sigma[:, j], sigma[:, j])
        b = amp * sigma
    theta = tau * b / 2
    mean_d = alpha**2 * (np.cos(theta) + np.sin(theta)) ** 2 / 2
    mean_c = alpha**2 * (np.cos(theta) - np.sin(theta)) ** 2 / 2
    return (rng.poisson(mean_d) - rng.poisson(mean_c)) / 2


@pytest.mark.parametrize("kind", ["ornstein_uhlenbeck", "telegraph"])
def test_semiclassical_moments_match_sampling(kind):
    alpha, tau, amp, corr, times = 2.0, 0.3, 2.5, 1.0, (0.0, 0.2, 0.5, 0.6)
    n = 200_000
    h = sample_records(kind, alpha, tau, amp, corr, times, n, np.random.default_rng(3))
    ref = semiclassical_s2_moments(kind, alpha, tau, amp, corr, times)
    prod = h.prod(axis=1)
    assert abs(prod.mean() - ref["mean"]) < 5 * math.sqrt(ref["var_product"] / n)
    assert prod.var() == pytest.approx(ref["var_product"], rel=0.05)
    assert abs(h.var() - ref["half_variance"]) < 5 * math.sqrt(ref["var_h2"] / n)
    assert (h**2).var() == pytest.approx(ref["var_h2"], rel=0.05)
