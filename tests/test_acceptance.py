"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line. Tolerances are pinned here and must not be loosened."""

import numpy as np
import pytest

from faradaycorr.correlations import correlation
from faradaycorr.quantum_core import TargetModel, pure_state
from faradaycorr.sensor_optics import (
    MeasurementBasis,
    SensorConfig,
    stokes_operators,
)
from faradaycorr.snr import lihof4_scenario, snr_material
from faradaycorr.trajectory_mc import TrajectoryConfig, run_sequences
from faradaycorr.weak_measurement import (
    ProtocolSpec,
    ProtocolWarning,
    ShotSpec,
    gk_exact_unitary,
    gk_leading,
    prediction_factor,
)

from conftest import SX, SZ, precession_model, random_model
from crosscheck import reference_correlation, selection_traces

S2, S3 = MeasurementBasis.S2, MeasurementBasis.S3


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def proto(bases_times, alpha, tau):
    shots = tuple(ShotSpec(time=t, basis=b) for t, b in bases_times)
    return ProtocolSpec(shots=shots, sensor=SensorConfig(alpha=alpha, tau=tau))


def test_criterion_1_leading_order_factorization():
    """K-shot count correlation factorizes as 2^-K tau^K alpha^2K times the
    matching target correlation, to 1e-10 relative, over random models: C
    from the package's chain and from the independent expm/apply_branch one."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(50):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, 5))
        model = random_model(rng, d)
        times = np.sort(rng.random(k) * 2)
        bases = [rng.choice([S2, S3]) for _ in range(k - 1)] + [S2]
        p = proto(list(zip(times, bases)), alpha=1.7, tau=0.03)
        res = gk_leading(model, p)
        c = correlation(model, p.query())
        predicted = 2.0**-k * 0.03**k * 1.7 ** (2 * k) * c
        scale = max(abs(predicted), 1e-15)
        worst = max(worst, abs(res.value - predicted) / scale)
        reference = prediction_factor(p) * reference_correlation(model, p)
        worst = max(worst, abs(res.value - reference) / max(abs(reference), 1e-15))
    _report(
        "criterion 1 (leading-order factorization)",
        worst < 1e-10,
        f"worst relative deviation {worst:.3e} (limit 1e-10) over 50 random models",
    )


def test_criterion_2_convergence_order():
    """Exact-vs-leading residual of the truncated-Fock engine shrinks with a
    fitted exponent >= K + 0.8 for K in {1, 2}."""
    taus = np.array([0.2, 0.1, 0.05, 0.025])
    model_x = TargetModel(hamiltonian=SZ / 2, coupling=SX, initial_state=pure_state([1, 1]))
    cases = {
        1: (model_x, [(0.3, S2)]),
        2: (precession_model(), [(0.0, S3), (1.0, S2)]),
    }
    details = []
    ok = True
    for k, (model, shots) in cases.items():
        residuals = []
        for tau in taus:
            p = proto(shots, alpha=2.0, tau=float(tau))
            exact = gk_exact_unitary(model, p, engine="fock").value
            residuals.append(abs(exact - gk_leading(model, p).value))
        slope = np.polyfit(np.log(taus), np.log(residuals), 1)[0]
        details.append(f"K={k}: exponent {slope:.2f} (need >= {k + 0.8})")
        ok = ok and slope >= k + 0.8
    _report("criterion 2 (residual convergence order)", ok, "; ".join(details))


def test_criterion_3_null_law():
    """A protocol whose last shot reads the commutator branch has zero
    expected signal: exactly (< 1e-12) in both deterministic routes, and
    within 3 standard errors in the stochastic route."""
    model = precession_model()
    with pytest.warns(ProtocolWarning):
        p = proto([(0.0, S2), (1.0, S3)], alpha=2.0, tau=0.05)
    lead = abs(gk_leading(model, p).value)
    exact = abs(gk_exact_unitary(model, p).value)
    est = run_sequences(
        TrajectoryConfig(sequences=20000, seed=33, mode="kraus_quantum", proto=p, model=model)
    )
    sigma = abs(est.mean) / est.std_error
    ok = lead < 1e-12 and exact < 1e-12 and sigma < 3.0
    _report(
        "criterion 3 (null law for closed last shot)",
        ok,
        f"leading {lead:.1e}, exact {exact:.1e} (< 1e-12), MC at {sigma:.2f} sigma (< 3)",
    )


def test_criterion_4_basis_selection_traces():
    """Each readout basis selects exactly one branch with weight alpha^2/2:
    S2 basis gives traces (0, 0, alpha^2/2), S3 basis (0, alpha^2/2, 0),
    to 1e-8 * alpha^2 on the truncated sensor space, up to alpha = 4."""
    ok = True
    details = []
    for alpha in (1.0, 2.0, 4.0):
        tol = 1e-8 * alpha**2
        half = alpha**2 / 2
        t2 = selection_traces(alpha, S2)
        t3 = selection_traces(alpha, S3)
        err = max(
            abs(t2.t0),
            abs(t2.t_plus),
            abs(t2.t_minus - half),
            abs(t3.t0),
            abs(t3.t_plus - half),
            abs(t3.t_minus),
        )
        details.append(f"alpha={alpha}: max deviation {err:.2e} (limit {tol:.0e})")
        ok = ok and err < tol
    _report("criterion 4 (basis selection traces)", ok, "; ".join(details))


def test_criterion_5_shot_noise_floor():
    """With tau * ||B|| <= 0.02 the raw difference-count variance per shot is
    alpha^2 within 5 percent at L = 1e5 sequences."""
    model = precession_model()  # ||B|| = ||sx|| = 1
    p = proto([(0.0, S3), (1.5, S2)], alpha=10.0, tau=0.02)
    est = run_sequences(
        TrajectoryConfig(sequences=100000, seed=55, mode="kraus_quantum", proto=p, model=model)
    )
    ratio = 4.0 * est.per_shot_variance / 100.0
    _report(
        "criterion 5 (shot-noise variance floor)",
        0.95 <= ratio <= 1.05,
        f"raw per-shot variance / alpha^2 = {ratio:.4f} (need within [0.95, 1.05])",
    )


def test_criterion_6_mc_agreement_and_determinism():
    """At alpha^2 = 100 and L = 1e5 the Monte Carlo estimate of a two-shot
    correlation agrees with the all-orders deterministic value within 3
    standard errors, and a fixed seed reproduces results bit-exactly."""
    model = precession_model()
    p = proto([(0.0, S3), (1.5, S2)], alpha=10.0, tau=0.02)
    exact = gk_exact_unitary(model, p).value
    cfg = TrajectoryConfig(sequences=100000, seed=7, mode="kraus_quantum", proto=p, model=model)
    est = run_sequences(cfg)
    sigma = abs(est.mean - exact) / est.std_error
    repeat = run_sequences(cfg)
    parallel = run_sequences(
        TrajectoryConfig(
            sequences=100000, seed=7, mode="kraus_quantum", proto=p, model=model, workers=4
        )
    )
    deterministic = est == repeat == parallel
    ok = sigma < 3.0 and deterministic
    _report(
        "criterion 6 (MC agreement and determinism)",
        ok,
        f"MC {est.mean:.4f} +- {est.std_error:.4f} vs exact {exact:.4f} "
        f"({sigma:.2f} sigma, < 3); bit-exact reruns: {deterministic}",
    )


def test_criterion_7_lihof4_feasibility():
    """The LiHoF4 preset reproduces the reference feasibility numbers within
    one order of magnitude: per-order gain times moment about 8e-12,
    about 1e20 effective emitters, L ~ 1e5 sequences for unit SNR at K = 2,
    and more than 1e49 sequences at K = 4."""
    details = []
    ok = True
    for k in (2, 3, 4):
        rep = snr_material(lihof4_scenario(K=k))
        per_sqrt_l = rep.snr  # L = 1
        reference = (8e-12) ** k * 1e20
        ratio = per_sqrt_l / reference
        details.append(f"K={k}: SNR/sqrt(L) = {per_sqrt_l:.2e} ({ratio:.2f}x reference)")
        ok = ok and 0.1 < ratio < 10.0
    gain = snr_material(lihof4_scenario(K=1)).base_factor * 8.0
    ok = ok and 0.1 < gain / 8e-12 < 10.0
    prefactor = snr_material(lihof4_scenario(K=1)).prefactor
    ok = ok and 0.1 < prefactor / 1e20 < 10.0
    l2 = snr_material(lihof4_scenario(K=2)).L_for_unit_snr
    l4 = snr_material(lihof4_scenario(K=4)).L_for_unit_snr
    details.append(f"gain/order {gain:.2e}, emitters {prefactor:.2e}, L*(2) {l2:.2e}, L*(4) {l4:.2e}")
    ok = ok and 1e4 < l2 < 1e6 and l4 > 1e49
    _report("criterion 7 (LiHoF4 feasibility arithmetic)", ok, "; ".join(details))


def test_criterion_8_stokes_algebra():
    """On the truncated sensor space the Stokes operators satisfy the su(2)
    commutators and both anomalous anticommutator identities exactly
    (1e-12) on the photon-number subspaces unaffected by the cutoff."""
    n_max = 8
    s1, s2, s3 = stokes_operators(n_max)
    n_h = np.arange(n_max + 1)[:, None]
    n_v = np.arange(n_max + 1)[None, :]

    def projector(max_total):
        keep = ((n_h + n_v) <= max_total).ravel()
        return np.diag(keep.astype(float)).astype(complex)

    p1 = projector(n_max - 1)
    p2 = projector(n_max - 2)
    errs = []
    for a, b, c in ((s1, s2, s3), (s2, s3, s1), (s3, s1, s2)):
        errs.append(np.max(np.abs(p1 @ (a @ b - b @ a - 1j * c) @ p1)))
    a = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    n = np.arange(1, n_max + 1)
    a[n - 1, n] = np.sqrt(n)
    eye = np.eye(n_max + 1)
    a_h, a_v = np.kron(a, eye), np.kron(eye, a)
    term = 0.5j * (a_v.conj().T @ a_v.conj().T @ a_h @ a_h)
    errs.append(np.max(np.abs(p2 @ (s2 @ s3 + s3 @ s2 - term - term.conj().T) @ p2)))
    nh_op, nv_op = a_h.conj().T @ a_h, a_v.conj().T @ a_v
    cross = a_h.conj().T @ a_v
    rhs = nh_op @ nv_op + (nh_op + nv_op) / 2 - (cross @ cross + (cross @ cross).conj().T) / 2
    errs.append(np.max(np.abs(p2 @ (2 * s3 @ s3 - rhs) @ p2)))
    worst = max(float(e) for e in errs)
    _report(
        "criterion 8 (Stokes operator algebra)",
        worst < 1e-12,
        f"worst identity residual {worst:.2e} (limit 1e-12)",
    )
