from pathlib import Path

import pytest

from faradaycorr.config import build_scenarios
from faradaycorr.errors import ConfigError
from faradaycorr.snr import (
    LIHOF4,
    FeasibilityReport,
    SnrScenario,
    faraday_angle,
    lihof4_scenario,
    snr_kth_order,
    snr_material,
)


class TestClosedForms:
    def test_first_order_value(self):
        # sqrt(1e4)/2 * 0.1 * 0.01 * 2 = 0.1
        assert snr_kth_order(alpha=0.1, tau=0.01, L=1e4, K=1, c_k=2.0) == pytest.approx(0.1)

    def test_kth_order_reduces_to_first(self):
        # K = 1: (sqrt L / 2) alpha tau C+
        a = snr_kth_order(alpha=0.3, tau=0.02, L=1e6, K=1, c_k=1.7)
        assert a == pytest.approx(0.5 * 1e3 * 0.3 * 0.02 * 1.7, rel=1e-15)

    def test_kth_order_per_order_factor(self):
        # each extra order multiplies by alpha * tau / 2
        alpha, tau = 0.5, 0.04
        r = snr_kth_order(alpha, tau, 1e4, 3, 1.0) / snr_kth_order(alpha, tau, 1e4, 2, 1.0)
        assert r == pytest.approx(alpha * tau / 2, rel=1e-12)

    def test_sqrt_l_scaling(self):
        a = snr_kth_order(0.2, 0.1, 100.0, 2, 1.0)
        b = snr_kth_order(0.2, 0.1, 400.0, 2, 1.0)
        assert b / a == pytest.approx(2.0, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            snr_kth_order(alpha=0.0, tau=0.1, L=10, K=1, c_k=1.0)
        with pytest.raises(ValueError):
            snr_kth_order(alpha=0.1, tau=0.1, L=10, K=0, c_k=1.0)


class TestMaterialFormula:
    def test_uncorrelated_hand_computation(self):
        # base = 1 * sqrt(1e4) / (2 * 1e3 * 0.1) = 0.5; prefactor = 1e3*2*0.1 = 200
        s = SnrScenario(g=1.0, D=2.0, n_s=1e3, A=0.1, N_ph=1e4, L=4.0, K=2, moment_k=3.0)
        rep = snr_material(s)
        assert rep.regime == "uncorrelated"
        assert rep.base_factor == pytest.approx(0.5)
        assert rep.prefactor == pytest.approx(200.0)
        assert rep.snr == pytest.approx(2.0 * 0.25 * 200.0 * 3.0)
        assert rep.L_for_unit_snr == pytest.approx((0.25 * 200.0 * 3.0) ** -2)

    def test_critical_regime_switch(self):
        s = SnrScenario(
            g=1.0, D=2.0, n_s=1e3, A=0.1, N_ph=1e4, L=1.0, K=1, moment_k=1.0, xi=0.5
        )
        rep = snr_material(s)
        assert rep.regime == "critical"
        assert rep.base_factor == pytest.approx(1.0 * 0.125 * 100.0 / 0.2)
        assert rep.prefactor == pytest.approx(2.0 * 0.1 / 0.125)

    def test_unit_snr_threshold_consistency(self):
        s = lihof4_scenario(K=2, L=1.0)
        rep = snr_material(s)
        at_threshold = snr_material(lihof4_scenario(K=2, L=rep.L_for_unit_snr))
        assert at_threshold.snr == pytest.approx(1.0, rel=1e-10)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            SnrScenario(g=-1.0, D=1.0, n_s=1.0, A=1.0, N_ph=1.0, L=1.0, K=1, moment_k=1.0)
        with pytest.raises(ValueError):
            SnrScenario(g=1.0, D=1.0, n_s=1.0, A=1.0, N_ph=1.0, L=1.0, K=0, moment_k=1.0)
        with pytest.raises(ValueError):
            SnrScenario(g=1.0, D=1.0, n_s=1.0, A=1.0, N_ph=1.0, L=1.0, K=1, moment_k=1.0, xi=0.0)


class TestFaradayAngle:
    def test_linear_in_everything(self):
        assert faraday_angle(2.0, 0.5, 8.0) == pytest.approx(8.0)

    def test_lihof4_single_spin_angle_order(self):
        # one spin's rotation angle g*D*J / (n_s*D*A effective emitters) ~ 1e-19 rad
        per_spin = LIHOF4["g"] * LIHOF4["moment"] / (LIHOF4["n_s"] * LIHOF4["A"])
        assert 1e-20 < per_spin < 1e-17


class TestLihof4Preset:
    def test_base_factor_order_of_magnitude(self):
        rep = snr_material(lihof4_scenario(K=1))
        # g sqrt(N_ph) / (2 n_s A) with the preset numbers, about 7e-13;
        # one order gains ~ 8x that with the moment, i.e. ~ 6e-12
        assert rep.base_factor == pytest.approx(20.0 * 1e7 / (2 * 1.39e28 * 1e-8), rel=1e-12)
        assert 1e-13 < rep.base_factor < 1e-12

    def test_effective_emitters(self):
        rep = snr_material(lihof4_scenario(K=1))
        assert rep.prefactor == pytest.approx(1.39e20, rel=1e-12)

    def test_moment_powers(self):
        assert lihof4_scenario(K=3).moment_k == pytest.approx(512.0)


class TestScenarioLoading:
    # a preset file maps names to scenarios, each parsed as an inline snr.scenario
    def test_yaml_roundtrip(self, tmp_path):
        path = tmp_path / "scenarios.yaml"
        path.write_text(
            "demo:\n  g: 1.0\n  D: 2.0\n  n_s: 1.0e+3\n  A: 0.1\n"
            "  N_ph: 1.0e+4\n  L: 4.0\n  K: 2\n  moment_k: 3.0\n"
        )
        [scen] = build_scenarios({"preset_file": str(path)})
        assert scen.K == 2
        assert scen.n_s == pytest.approx(1e3)

    def test_packaged_preset_loads(self):
        from importlib import resources

        with resources.as_file(
            resources.files("faradaycorr").joinpath("presets/materials.yaml")
        ) as p:
            [scen] = build_scenarios({"preset_file": str(p)})
        assert scen.K == 2
        rep = snr_material(scen)
        assert rep.regime == "uncorrelated"

    def test_presets_are_package_data(self):
        # the test above reads the src/ tree; an installed package has only
        # the files a [tool.setuptools.package-data] pattern matches
        tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from Python 3.11")
        root = Path(__file__).resolve().parent.parent
        package = root / "src" / "faradaycorr"
        table = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["tool"]["setuptools"]
        patterns = table.get("package-data", {}).get("faradaycorr", [])
        shipped = {path for pattern in patterns for path in package.glob(pattern)}
        presets = {path for path in (package / "presets").rglob("*") if path.is_file()}
        assert presets, "no preset files"
        assert presets <= shipped, f"not package data: {sorted(str(p.relative_to(package)) for p in presets - shipped)}"

    def test_rejects_non_mapping(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("demo: [1, 2, 3]\n")
        with pytest.raises(ConfigError):
            build_scenarios({"preset_file": str(path)})


def test_report_is_plain_data():
    rep = FeasibilityReport(
        snr=1.0, snr_per_sqrt_L=1.0, L_for_unit_snr=1.0, regime="uncorrelated", base_factor=0.1, prefactor=10.0
    )
    assert rep.snr == 1.0
