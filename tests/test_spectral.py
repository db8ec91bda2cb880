"""The spectral target model and the final-time grid path.

The references (``crosscheck``) are the per-shot procedure the spectral data
replaces: a fresh matrix exponential for every B(t), a fresh
eigendecomposition of B(t) for every all-orders shot, and a full chain per
protocol.
"""

import warnings

import numpy as np
import pytest
import yaml

from faradaycorr import cli
from faradaycorr.correlations import correlation, correlation_grid, heisenberg_coupling
from faradaycorr.errors import NumericalGuardError
from faradaycorr.quantum_core import TargetModel, pure_state, spin_operators
from faradaycorr.sensor_optics import MeasurementBasis, SensorConfig, ShotTable
from faradaycorr.trajectory_mc import _quantum_plan
from faradaycorr.weak_measurement import (
    ProtocolSpec,
    ProtocolWarning,
    ShotSpec,
    gk_exact_unitary,
    gk_leading,
    protocol_grids,
)

from conftest import random_model
from crosscheck import expm_coupling, reference_correlation, reference_exact

S2, S3 = MeasurementBasis.S2, MeasurementBasis.S3
GRID_RTOL = 1e-12


def grid_protocols(prefix, last_basis, finals, sensor):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ProtocolWarning)  # a closing S3 shot is tested on purpose
        return [
            ProtocolSpec(shots=prefix + (ShotSpec(time=float(t), basis=last_basis),), sensor=sensor)
            for t in finals
        ]


def shift_protocol(proto, dt):
    shots = tuple(ShotSpec(time=s.time + dt, basis=s.basis) for s in proto.shots)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ProtocolWarning)
        return ProtocolSpec(shots=shots, sensor=proto.sensor)


def assert_grid_close(grid, ref, floor):
    """Deviation within GRID_RTOL of the grid's largest value; ``floor`` sets
    the scale where the grid is identically zero (a closing S3 shot)."""
    scale = max(float(np.max(np.abs(ref))), floor)
    assert np.max(np.abs(np.asarray(grid) - np.asarray(ref))) <= GRID_RTOL * scale


class TestSpectralData:
    @pytest.mark.parametrize("d", [2, 5, 16, 32])
    def test_coupling_matches_matrix_exponential(self, d):
        rng = np.random.default_rng(100 + d)
        model = random_model(rng, d)
        for t in (0.0, 0.37, 2.9, 11.0):
            ref = expm_coupling(model, t)
            assert np.max(np.abs(heisenberg_coupling(model, t) - ref)) <= 1e-12

    def test_eigvecs_diagonalize_coupling_at_any_time(self):
        """The walk's running product W_j ... W_1 takes H-eigenbasis
        coordinates into the eigenbasis of B(t_j) at every shot, a repeated
        time included, and its last change takes them back."""
        model = random_model(np.random.default_rng(7), 6)
        spec = model.spectral
        times = (0.0, 1.3, 1.3, 4.0)
        *changes, back = spec.walk(times)
        u = np.eye(model.dim)
        for t, w in zip(times, changes):
            u = w @ u
            v = spec.basis @ u.conj().T  # eigenvectors of B(t) in the model's basis
            diag = v.conj().T @ expm_coupling(model, t) @ v
            assert np.allclose(diag, np.diag(spec.coupling_eigvals), atol=1e-12)
        assert np.allclose(back @ u, np.eye(model.dim), atol=1e-12)
        assert np.array_equal(next(spec.walk([])), np.eye(model.dim))

    def test_degenerate_eigenvalues_are_one_shared_array(self, monkeypatch):
        """B = U diag(1, 1, -1) U†: the degenerate pair is one number, and the
        exact chain and the Kraus plan build every ShotTable from that one
        array, so an S3 record vanishes exactly on the cluster."""
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        jx, _, jz = spin_operators(2)
        b = u @ np.diag([1.0, 1.0, -1.0]) @ u.conj().T
        model = TargetModel(hamiltonian=jz + 0.3 * jx, coupling=b, initial_state=pure_state([1, 1, 0]))
        w = model.spectral.coupling_eigvals
        assert w[1] == w[2]
        seen = []
        of = ShotTable.of.__func__
        monkeypatch.setattr(ShotTable, "of", classmethod(lambda cls, e, *rest: seen.append(e) or of(cls, e, *rest)))
        p = ProtocolSpec(shots=(ShotSpec(0.0, S3), ShotSpec(0.5, S2)), sensor=SensorConfig(alpha=2.0, tau=0.3))
        gk_exact_unitary(model, p)
        plan = _quantum_plan(model, p)
        assert len(seen) == 4 and all(e is w for e in seen)
        record = plan.tables[0].record()
        assert record[1, 2] == 0 and record[2, 1] == 0

    @pytest.mark.parametrize("operator", ["hamiltonian", "coupling"])
    def test_eigenvalues_past_the_float_range_are_a_numerical_guard(self, operator):
        # finite entries whose eigenvalues, +-2.4e308, are not; the coupling is
        # also symmetrized without its sum overflowing
        big = np.array([[1.7e308, 1.7e308], [1.7e308, -1.7e308]])
        tame = {"hamiltonian": np.diag([1.0, -1.0]), "coupling": np.array([[0.0, 1.0], [1.0, 0.0]])}
        model = TargetModel(initial_state=pure_state([1, 0]), **dict(tame, **{operator: big}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalGuardError, match=f"^the eigenvalues of the {operator} leave the float range$"):
                model.spectral

    def test_computed_once_per_model(self):
        model = random_model(np.random.default_rng(8), 3)
        assert model.spectral is model.spectral
        assert model.spectral.coupling_norm == pytest.approx(np.linalg.norm(model.coupling, 2))


class TestFinalTimeGrid:
    SENSOR = SensorConfig(alpha=1.0, tau=0.1)
    PREFIX = (ShotSpec(0.1, S3), ShotSpec(0.6, S2), ShotSpec(0.9, S3))
    FINALS = np.linspace(1.0, 3.0, 16)

    def _setup(self, last_basis):
        model = random_model(np.random.default_rng(11), 4)
        protos = grid_protocols(self.PREFIX, last_basis, self.FINALS, self.SENSOR)
        bound = (0.5 * self.SENSOR.tau * self.SENSOR.alpha**2 * model.spectral.coupling_norm) ** 4
        return model, protos, bound

    @pytest.mark.parametrize("last_basis", [S2, S3])
    def test_correlation_and_leading(self, last_basis):
        model, protos, bound = self._setup(last_basis)
        ref_c = [reference_correlation(model, p) for p in protos]
        c = correlation_grid(model, protos[0].query(), self.FINALS)
        assert_grid_close(c, ref_c, model.spectral.coupling_norm**4)
        assert_grid_close(c, [correlation(model, p.query()) for p in protos], 0.0)
        coeff = 2.0**-4 * self.SENSOR.tau**4 * self.SENSOR.alpha**8
        _, leading, _ = protocol_grids(model, protos[0], self.FINALS, None)
        assert_grid_close(leading, coeff * np.array(ref_c), bound)
        assert_grid_close(leading, [gk_leading(model, p).value for p in protos], 0.0)

    @pytest.mark.parametrize("last_basis", [S2, S3])
    @pytest.mark.parametrize("engine", ["coherent", "fock"])
    @pytest.mark.parametrize("time_convention", ["start", "midpoint"])
    def test_exact_unitary(self, last_basis, engine, time_convention):
        """``midpoint`` reads each pulse at its centre: every shot time,
        prefix included, moves by tau/2 in the protocol."""
        model, protos, bound = self._setup(last_basis)
        if time_convention == "midpoint":
            protos = [shift_protocol(p, 0.5 * self.SENSOR.tau) for p in protos]
        _, _, grid = protocol_grids(model, protos[0], [p.shots[-1].time for p in protos], engine)
        ref = [reference_exact(model, p, engine) for p in protos]
        assert_grid_close(grid, ref, bound)
        single = [gk_exact_unitary(model, p, engine).value for p in protos]
        assert_grid_close(grid, single, bound)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.89], ids=["nan", "inf", "before-shot-3"])
    def test_rejects_final_times_no_protocol_could_hold(self, bad):
        # a ProtocolSpec refuses a non-finite time or one before the shot it
        # follows; a final time on a grid must be refused the same way
        model, protos, _ = self._setup(S2)
        finals = [1.0, bad]
        with pytest.raises(ValueError):
            correlation_grid(model, protos[0].query(), finals)
        for engine in (None, "coherent", "fock"):
            with pytest.raises(ValueError):
                protocol_grids(model, protos[0], finals, engine)


def _exact_config(grid_points: int) -> dict:
    return {
        "command": "exact",
        "model": {
            "kind": "single_spin",
            "two_j": 3,
            "hamiltonian": {"jz": 1.0, "jx": 0.3},
            "coupling": {"jx": 1.0},
            "initial_state": "thermal",
            "beta": 0.5,
        },
        "protocol": {
            "alpha": 2.0,
            "tau": 0.02,
            "shots": [{"time": 0.0, "basis": "S3"}, {"time": 0.4, "basis": "S2"}, {"time": 0.8, "basis": "S2"}],
            "final_time_grid": [float(t) for t in np.linspace(1.0, 2.0, grid_points)],
        },
        "exact": {"include_exact_unitary": True},
    }


def test_exact_run_eigh_calls_do_not_grow_with_grid(tmp_path, monkeypatch):
    calls = []
    original = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    counts = {}
    for g in (4, 64):
        path = tmp_path / f"grid{g}.yaml"
        path.write_text(yaml.safe_dump(_exact_config(g)))
        calls.clear()
        assert cli.main(["exact", "--config", str(path), "--out", str(tmp_path / f"out{g}")]) == 0
        counts[g] = len(calls)
    assert counts[4] == counts[64]
    assert counts[4] > 0
