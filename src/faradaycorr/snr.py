"""Closed-form signal-to-noise estimates and material feasibility arithmetic.

All lengths in cm, densities in cm^-3, areas in cm^2; SNR values are
dimensionless. The formulas are order-of-magnitude estimates with the stated
prefactors taken literally, so downstream tolerances are orders of magnitude,
not percent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalGuardError


@dataclass(frozen=True)
class SnrScenario:
    """Material and beam parameters for one feasibility estimate.

    g: Faraday coupling (rad/cm); D: sample thickness (cm); n_s: spin
    density (cm^-3); A: laser spot area (cm^2); N_ph: photons per pulse;
    L: number of repeated sequences; K: correlation order; moment_k: the
    single-spin moment <(J_z)^K> (dimensionless); xi: correlation length
    (cm) for the collective/critical regime, or None for uncorrelated spins.
    """

    g: float
    D: float
    n_s: float
    A: float
    N_ph: float
    L: float
    K: int
    moment_k: float
    xi: float | None = None

    def __post_init__(self):
        for name in ("g", "D", "n_s", "A", "N_ph", "L", "moment_k"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.xi is not None and not 0 < self.xi < math.inf:
            raise ValueError("xi must be positive and finite when given")


@dataclass(frozen=True)
class FeasibilityReport:
    snr: float
    snr_per_sqrt_L: float  # the formula without its sqrt(L), so snr = sqrt(L) * this
    L_for_unit_snr: float
    regime: str  # "uncorrelated" | "critical"
    base_factor: float  # per-order gain factor (excluding the moment)
    prefactor: float  # effective number of independent emitters


def snr_kth_order(alpha: float, tau: float, L: float, K: int, c_k: float) -> float:
    """SNR of a K-th order correlation: 2^-K sqrt(L) alpha^K tau^K C."""
    _require_positive(alpha=alpha, tau=tau, L=L)
    if K < 1:
        raise ValueError("K must be >= 1")
    return 2.0**-K * math.sqrt(L) * alpha**K * tau**K * c_k


def snr_material(s: SnrScenario) -> FeasibilityReport:
    """Evaluate the material-parameter SNR formula for one scenario.

    Uncorrelated spins:  sqrt(L) (g sqrt(N_ph) / (2 n_s A))^K  n_s D A <J^K>.
    Critical regime (xi given): spins within xi^3 act as one large spin:
    sqrt(L) (g xi^3 sqrt(N_ph) / (2 A))^K  (D A / xi^3) <J^K>.
    An SNR that leaves the float range raises ``NumericalGuardError``.
    """
    try:
        if s.xi is None:
            base = s.g * math.sqrt(s.N_ph) / (2.0 * s.n_s * s.A)
            prefactor = s.n_s * s.D * s.A
            regime = "uncorrelated"
        else:
            base = s.g * s.xi**3 * math.sqrt(s.N_ph) / (2.0 * s.A)
            prefactor = s.D * s.A / s.xi**3
            regime = "critical"
        snr_per_sqrt_l = base**s.K * prefactor * s.moment_k
        snr = math.sqrt(s.L) * snr_per_sqrt_l
        l_for_unit_snr = snr_per_sqrt_l**-2
    except (OverflowError, ZeroDivisionError) as exc:
        raise NumericalGuardError(f"order-{s.K} SNR leaves the float range: {exc}") from exc
    if not all(0 < v < math.inf for v in (snr_per_sqrt_l, snr, l_for_unit_snr)):
        raise NumericalGuardError(
            f"order-{s.K} SNR leaves the float range: snr = {snr!r}, L_for_unit_snr = {l_for_unit_snr!r}"
        )
    return FeasibilityReport(
        snr=snr,
        snr_per_sqrt_L=snr_per_sqrt_l,
        L_for_unit_snr=l_for_unit_snr,
        regime=regime,
        base_factor=base,
        prefactor=prefactor,
    )


def faraday_angle(g: float, D: float, j_z: float) -> float:
    """Polarization rotation (rad) produced by magnetization j_z."""
    _require_positive(g=g, D=D)
    return g * D * j_z


# LiHoF4: transparent Ising magnet, J_z = 8 per spin. Constants as commonly
# quoted for a ~435 nm probe; note the spin density below is unusually large
# compared with typical crystal densities but is kept verbatim as the
# reference value this preset reproduces.
LIHOF4 = dict(g=20.0, D=1.0, n_s=1.39e28, A=1e-8, N_ph=1e14, moment=8.0)


def lihof4_scenario(K: int, L: float = 1.0, xi: float | None = None) -> SnrScenario:
    """LiHoF4 preset; the K-th moment is taken as |J_z|^K = 8^K."""
    try:
        moment_k = LIHOF4["moment"] ** K
    except OverflowError:
        raise ValueError("the LiHoF4 moment 8^K leaves the float range") from None
    return SnrScenario(
        g=LIHOF4["g"],
        D=LIHOF4["D"],
        n_s=LIHOF4["n_s"],
        A=LIHOF4["A"],
        N_ph=LIHOF4["N_ph"],
        L=L,
        K=K,
        moment_k=moment_k,
        xi=xi,
    )


def _require_positive(**kwargs):
    for name, value in kwargs.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive")
