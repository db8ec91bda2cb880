import copy
import csv
import datetime
import gc
import io
import json
import math
import tempfile
import warnings
import weakref
from pathlib import Path

import hypothesis
import numpy as np
import pytest
import yaml
from hypothesis import strategies as st

from faradaycorr import cli
from faradaycorr.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_RESOURCE, main
from faradaycorr.config import (
    build_model,
    build_protocols,
    build_scenarios,
    load_config,
    set_config_path,
    validate_config,
)
from faradaycorr import config, correlations, errors, quantum_core, sensor_optics, trajectory_mc, weak_measurement
from faradaycorr.errors import ConfigError


def write_config(tmp_path, doc, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc, sort_keys=False))  # unsorted: a mapping may mix key types
    return path


def read_rows(out_dir):
    with open(out_dir / "results.csv", newline="") as fh:
        return list(csv.DictReader(fh))


EXACT_DOC = {
    "command": "exact",
    "model": {
        "kind": "single_spin",
        "two_j": 1,
        "hamiltonian": {"jz": 1.0},
        "coupling": {"jx": 2.0},
        "initial_state": "up",
    },
    "protocol": {
        "alpha": 1.5,
        "tau": 0.02,
        "shots": [{"time": 0.0, "basis": "S3"}, {"time": 1.0, "basis": "S2"}],
    },
    "exact": {"include_exact_unitary": True},
}

SIM_DOC = {
    "command": "simulate",
    "seed": 7,
    "model": EXACT_DOC["model"],
    "protocol": EXACT_DOC["protocol"],
    "mc": {"sequences": 4000, "mode": "kraus_quantum"},
}

SNR_DOC = {
    "command": "snr",
    "snr": {"preset": "lihof4", "orders": [1, 2, 4], "L": 1.0},
}

CLOSED_SHOTS = [{"time": 0.0, "basis": "S2"}, {"time": 1.0, "basis": "S3"}]


def closed_protocol_warning() -> str:
    """The text of the one ProtocolWarning that a protocol ending on an S3 shot raises."""
    with pytest.warns(weak_measurement.ProtocolWarning) as caught:
        build_protocols(dict(EXACT_DOC["protocol"], shots=CLOSED_SHOTS))
    [warning] = caught
    return str(warning.message)


class TestValidation:
    def test_exact_doc_validates(self):
        validate_config(dict(EXACT_DOC))

    def test_unknown_top_level_key(self):
        doc = dict(EXACT_DOC, extra=1)
        with pytest.raises(ConfigError):
            validate_config(doc)

    def test_unknown_model_key(self):
        doc = dict(EXACT_DOC, model=dict(EXACT_DOC["model"], mass=1.0))
        with pytest.raises(ConfigError):
            validate_config(doc)

    def test_bad_basis(self):
        proto = dict(EXACT_DOC["protocol"], shots=[{"time": 0.0, "basis": "S1"}])
        with pytest.raises(ConfigError):
            validate_config(dict(EXACT_DOC, protocol=proto))

    def test_simulate_requires_seed(self):
        doc = dict(SIM_DOC)
        doc.pop("seed")
        with pytest.raises(ConfigError):
            validate_config(doc)

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            validate_config({"command": "explode"})

    def test_sweep_validates_base_command(self):
        doc = {
            "command": "sweep",
            "model": EXACT_DOC["model"],
            "protocol": EXACT_DOC["protocol"],
            "sweep": {"command": "exact", "path": "protocol.tau", "values": [0.1, 0.2]},
        }
        validate_config(doc)
        bad = dict(doc, sweep=dict(doc["sweep"], path="protocol.missing"))
        with pytest.raises(ConfigError):
            validate_config(bad)

    def test_set_config_path_is_nondestructive(self):
        doc = {"a": {"b": 1}}
        out = set_config_path(doc, "a.b", 2)
        assert out["a"]["b"] == 2 and doc["a"]["b"] == 1


class TestBuilders:
    def test_single_spin_model(self):
        model = build_model(EXACT_DOC["model"])
        assert model.dim == 2
        assert np.allclose(model.hamiltonian, np.diag([0.5, -0.5]))
        assert np.allclose(model.coupling, np.array([[0, 1], [1, 0]]))
        assert model.initial_state.matrix[0, 0] == pytest.approx(1.0)

    def test_thermal_state_model(self):
        cfg = dict(EXACT_DOC["model"], initial_state="thermal", beta=2.0)
        model = build_model(cfg)
        assert np.trace(model.initial_state.matrix).real == pytest.approx(1.0)

    def test_beta_past_the_float_range_is_the_ground_state(self, tmp_path, capsys):
        # beta (E - E_0) overflows to inf and exp(-inf) = 0: the beta -> inf
        # limit, the ground-state projector, which numpy warned about
        with open(Path(__file__).parent / "golden" / "kraus_mc_s0" / "config.yaml") as fh:
            doc = _doc(yaml.safe_load(fh), mc__sequences=300, model__beta=1.7e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = build_model(doc["model"])
            code = main(["simulate", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")])
        assert code == EXIT_OK and capsys.readouterr().err == ""
        _, v = np.linalg.eigh(model.hamiltonian)
        ground = np.outer(v[:, 0], v[:, 0].conj())
        np.testing.assert_allclose(model.initial_state.matrix, ground, rtol=0, atol=1e-15)

    def test_spin_model_guard_covers_the_build_peak(self, monkeypatch):
        # the spin operators alone need 6 (two_j+1)^2 complex numbers, the
        # whole build with the thermal state and the spectral eighs about 10
        cfg = dict(EXACT_DOC["model"], two_j=63, initial_state="thermal", beta=0.5)
        monkeypatch.setattr(errors, "MEMORY_GUARD_BYTES", 8 * 16 * 64**2)
        with pytest.raises(errors.ResourceGuardError):
            build_model(cfg)

    def test_custom_model_complex_entries(self):
        cfg = {
            "kind": "custom",
            "hamiltonian_matrix": [[0.0, [0.0, -1.0]], [[0.0, 1.0], 0.0]],
            "coupling_matrix": [[1.0, 0.0], [0.0, -1.0]],
            "initial_state_matrix": [[0.5, 0.0], [0.0, 0.5]],
        }
        model = build_model(cfg)
        assert model.hamiltonian[0, 1] == -1j

    def test_custom_model_of_large_entries(self):
        # exactly Hermitian U diag(E) U^dag at |E| <= 1e8 rad/s, whose roundoff
        # an absolute 1e-10 guard would reject
        rng = np.random.default_rng(30)
        u, _ = np.linalg.qr(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
        h = (u * rng.uniform(-1e8, 1e8, 16)) @ u.conj().T
        cfg = {
            "kind": "custom",
            "hamiltonian_matrix": [[[float(x.real), float(x.imag)] for x in row] for row in h],
            "coupling_matrix": np.diag(np.arange(16.0)).tolist(),
            "initial_state_matrix": (np.eye(16) / 16).tolist(),
        }
        model = build_model(yaml.safe_load(yaml.safe_dump(cfg)))
        assert np.array_equal(model.hamiltonian, h)

    def test_final_time_grid_expands_protocols(self):
        proto_cfg = dict(EXACT_DOC["protocol"], final_time_grid=[0.5, 1.0, 1.5])
        protos = build_protocols(proto_cfg)
        assert [p.shots[-1].time for p in protos] == [0.5, 1.0, 1.5]
        assert all(p.shots[0].time == 0.0 for p in protos)

    def test_all_int_final_time_grid_parses(self):
        proto_cfg = dict(EXACT_DOC["protocol"], final_time_grid=[1, 2, 3])
        finals = config.parse_config(dict(EXACT_DOC, protocol=proto_cfg)).finals
        assert finals == (1.0, 2.0, 3.0) and all(type(t) is float for t in finals)

    @pytest.mark.parametrize("grid", [None, [0.5, 1.0 / 3.0, 1.5, 2.0]], ids=["own-time", "grid"])
    def test_build_protocols_expands_the_parsed_pair(self, grid):
        shots = [{"time": 0.0, "basis": "S3"}, {"time": 0.25, "basis": "S2"}, {"time": 1.0, "basis": "S2"}]
        proto_cfg = dict(EXACT_DOC["protocol"], shots=shots)
        if grid is not None:
            proto_cfg["final_time_grid"] = grid
        run = config.parse_config(dict(EXACT_DOC, protocol=proto_cfg))
        protocol, finals = run.protocol, run.finals
        assert finals == ((1.0,) if grid is None else tuple(grid))
        expanded = [
            weak_measurement.ProtocolSpec(
                (*protocol.shots[:-1], weak_measurement.ShotSpec(t, protocol.shots[-1].basis)), protocol.sensor
            )
            for t in finals
        ]
        assert build_protocols(proto_cfg) == expanded
        assert expanded[0] == protocol


class TestCliExact:
    def test_end_to_end(self, tmp_path):
        cfg = write_config(tmp_path, EXACT_DOC)
        out = tmp_path / "out"
        assert main(["exact", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["order_K"] == "2"
        assert row["sign_type"] == "+-"
        # H = Jz, B = 2 Jx on spin-1/2 is the sx coupling precessing at rate 1:
        # C^{+-}(1, 0) = 2 sin 1
        assert float(row["correlation_C[(rad/s)^K]"]) == pytest.approx(2 * math.sin(1.0), rel=1e-10)
        # one C, one factor: 2^-K tau^K alpha^2K times C, bit for bit
        tau, alpha = EXACT_DOC["protocol"]["tau"], EXACT_DOC["protocol"]["alpha"]
        corr = float(row["correlation_C[(rad/s)^K]"])
        assert row["gk_leading[counts^K]"] == repr((0.5 * tau * alpha**2) ** 2 * corr)
        lead = float(row["gk_leading[counts^K]"])
        assert float(row["gk_exact_unitary[counts^K]"]) == pytest.approx(lead, rel=1e-2)

    def test_manifest_contents(self, tmp_path):
        cfg = write_config(tmp_path, EXACT_DOC)
        out = tmp_path / "out"
        main(["exact", "--config", str(cfg), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "exact"
        assert len(manifest["config_sha256"]) == 64
        assert manifest["config"]["protocol"]["alpha"] == 1.5
        assert manifest["provenance"]["gk_leading[counts^K]"] == "weak_measurement"
        assert "run" not in manifest  # no Monte Carlo, no worker layout

    def test_warning_column_for_closed_protocol(self, tmp_path):
        doc = dict(EXACT_DOC, protocol=dict(EXACT_DOC["protocol"], shots=CLOSED_SHOTS))
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["exact", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        row = read_rows(out)[0]
        assert row["warning"] == closed_protocol_warning()
        assert float(row["gk_leading[counts^K]"]) == 0.0

    def test_command_mismatch(self, tmp_path, monkeypatch, capsys):
        # named before the parse, which ran first: a spin-99999/2 model given
        # to snr exited 4, and a sweep given to exact parsed every value
        parsed = []
        real = cli.parse_config
        monkeypatch.setattr(cli, "parse_config", lambda raw: parsed.append(raw) or real(raw))
        cases = (("simulate", EXACT_DOC), ("snr", _doc(EXACT_DOC, model__two_j=100000)), ("exact", SWEEP_DOC))
        for command, doc in cases:
            out = tmp_path / command
            assert main([command, "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_CONFIG
            assert capsys.readouterr().err == (
                f"config error: config command {doc['command']!r} does not match CLI command {command!r}\n"
            )
            assert not out.exists()
        assert parsed == []
        # a config with no command is still refused by the parse, which names the key
        doc = {key: value for key, value in EXACT_DOC.items() if key != "command"}
        assert main(["exact", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: missing required key 'command' in top level\n"

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, dict(EXACT_DOC, bogus=1))
        out = tmp_path / "out"
        assert main(["exact", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        out = tmp_path / "out"
        code = main(["exact", "--config", str(tmp_path / "nope.yaml"), "--out", str(out)])
        assert code == EXIT_CONFIG

    def test_resource_guard_exit_code(self, tmp_path, capsys):
        # alpha = 70 needs the cutoff 5610, whose 15.7 million sector rows would take 3.3 GiB
        doc = _doc(EXACT_DOC, protocol__alpha=70.0, exact__engine="fock")
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["exact", "--config", str(cfg), "--out", str(out)]) == EXIT_RESOURCE
        assert "Fock sector eigendata (n_max=5610)" in capsys.readouterr().err


    def test_fock_guard_runs_for_every_sweep_value_before_computing(self, tmp_path, monkeypatch, capsys):
        # alpha = 2 would run, but alpha = 70 needs the cutoff 5610: the sweep
        # exits 4 when the config is parsed, before the first run computes
        calls = []
        real = cli.protocol_grids

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "protocol_grids", counting)
        doc = {
            "command": "sweep",
            "model": EXACT_DOC["model"],
            "protocol": EXACT_DOC["protocol"],
            "exact": {"include_exact_unitary": True, "engine": "fock"},
            "sweep": {"command": "exact", "path": "protocol.alpha", "values": [2.0, 70.0]},
        }
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_RESOURCE
        assert "Fock sector eigendata (n_max=5610)" in capsys.readouterr().err
        assert not (out / "results.csv").exists()
        assert calls == []

    def test_spin_resource_guard_exit_code(self, tmp_path, capsys):
        # spin-100000 operators would need hundreds of GiB: refused before allocating
        doc = _doc(EXACT_DOC, model__two_j=200000)
        out = tmp_path / "out"
        assert main(["exact", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_RESOURCE
        err = capsys.readouterr().err
        assert err.startswith("resource guard:") and "Traceback" not in err
        assert not (out / "results.csv").exists()

    def test_spin_beyond_the_float_range_is_a_resource_guard(self, tmp_path, capsys):
        # two_j = 1e300: the model's bytes are an int that no float holds, refused as any other size
        doc = _doc(EXACT_DOC, model__two_j=1.0e300)
        out = tmp_path / "out"
        assert main(["exact", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_RESOURCE
        err = capsys.readouterr().err
        assert err.startswith("resource guard: spin-") and err.endswith("~inf GiB (> 2 GiB guard)\n")
        assert err.count("\n") == 1
        assert not (out / "results.csv").exists()

    def test_fock_guard_precedes_the_pulse_weights(self, tmp_path, monkeypatch, capsys):
        # alpha = 1e5 needs n_max ~ 1e10: the pulse weights alone would need 75 GiB
        def unreachable(*args):
            raise AssertionError("_coherent_mode ran before the memory guard")

        monkeypatch.setattr(sensor_optics, "_coherent_mode", unreachable)
        doc = _doc(EXACT_DOC, exact__engine="fock", protocol__alpha=1.0e5)
        out = tmp_path / "out"
        assert main(["exact", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_RESOURCE
        assert "Fock sector eigendata" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    @staticmethod
    def _exact_column(tmp_path, engine: str, **paths) -> list[float]:
        """The gk_exact_unitary column of the README Fock example on ``engine``, with ``paths`` set."""
        doc = _doc(EXACT_DOC, protocol__alpha=2.0, protocol__final_time_grid=[0.5, 1.0, 1.5, 2.0],
                   exact__engine=engine, **paths)
        out = tmp_path / engine
        assert main(["exact", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
        return [float(row["gk_exact_unitary[counts^K]"]) for row in read_rows(out)]

    @pytest.mark.parametrize("engine", ["coherent", "fock"])
    @pytest.mark.parametrize("paths", [{"model__coupling": {"jx": 0.0}}, {"model__two_j": 0}],
                             ids=["zero-coupling", "two_j-0"])
    def test_no_coupling_gives_an_all_zero_exact_column(self, tmp_path, engine, paths):
        # no pulse is rotated, so every all-orders record is exactly 0, not
        # roundoff of the alpha^2-sized Fock terms that cancel
        assert self._exact_column(tmp_path, engine, **paths) == [0.0] * 4

    def test_engines_agree_at_a_tiny_tau(self, tmp_path):
        # at tau = 1e-14 the records are ~1e-14 of the alpha^2-sized Fock
        # terms that cancel, so roundoff in them would swamp the column; the
        # README's own tau = 0.02 is checked beside it
        for tau in (1e-14, 0.02):
            fock = self._exact_column(tmp_path, "fock", protocol__tau=tau)
            coherent = self._exact_column(tmp_path, "coherent", protocol__tau=tau)
            top = max(map(abs, coherent))
            assert top > 0 and max(abs(f - c) for f, c in zip(fock, coherent)) <= 1e-12 * top

    def test_final_time_grid_guard_sees_one_block(self, tmp_path, monkeypatch, capsys):
        # d = 64 and 4096 final times: four 4 MiB complex arrays for the whole
        # grid, above a 2 MiB guard, but four 512 KiB arrays per 512-time block
        grid = [1.0 + 1e-3 * i for i in range(4096)]
        doc = _doc(EXACT_DOC, model__two_j=63, protocol__final_time_grid=grid, exact={})
        args = ["exact", "--config", str(write_config(tmp_path, doc)), "--out"]
        monkeypatch.setattr(quantum_core, "FINAL_TIME_BLOCK", 4096)
        assert main([*args, str(tmp_path / "whole")]) == EXIT_OK
        monkeypatch.setattr(errors, "MEMORY_GUARD_BYTES", 2 * 1024**2)
        assert main([*args, str(tmp_path / "refused")]) == EXIT_RESOURCE
        assert "final-time block of 4096 times at d=64" in capsys.readouterr().err
        assert not (tmp_path / "refused" / "results.csv").exists()
        monkeypatch.setattr(quantum_core, "FINAL_TIME_BLOCK", 512)
        assert main([*args, str(tmp_path / "blocked")]) == EXIT_OK
        blocked = (tmp_path / "blocked" / "results.csv").read_bytes()
        assert blocked == (tmp_path / "whole" / "results.csv").read_bytes()


class TestCliExactGrid:
    """A final-time grid is one protocol and its finals from the parse to results.csv."""

    HEAD = [{"time": 0.0, "basis": "S3"}, {"time": 0.1, "basis": "S2"}]
    FINALS = [0.1 + i / 7.0 for i in range(64)]
    COMPUTED = ("correlation_C[(rad/s)^K]", "gk_leading[counts^K]", "gk_exact_unitary[counts^K]")

    def grid_doc(self, last_time, last_basis="S2"):
        shots = [*self.HEAD, {"time": last_time, "basis": last_basis}]
        return _doc(EXACT_DOC, protocol__shots=shots, protocol__final_time_grid=self.FINALS)

    def run_rows(self, tmp_path, doc, name):
        out = tmp_path / name
        assert main(["exact", "--config", str(write_config(tmp_path, doc, f"{name}.yaml")), "--out", str(out)]) == EXIT_OK
        return read_rows(out)

    def test_rows_match_the_run_at_each_final_time(self, tmp_path):
        rows = self.run_rows(tmp_path, self.grid_doc(1.0), "grid")
        assert len(rows) == len(self.FINALS)
        for row, final in zip(rows, self.FINALS):
            assert row["shot_times[s]"] == ";".join(repr(t) for t in [0.0, 0.1, final])
        for i in (0, 1, 37, 63):  # the no-grid run at that final time
            doc = _doc(EXACT_DOC, protocol__shots=[*self.HEAD, {"time": self.FINALS[i], "basis": "S2"}])
            (single,) = self.run_rows(tmp_path, doc, f"point{i}")
            fixed = {key: value for key, value in single.items() if key not in self.COMPUTED}
            assert {key: rows[i][key] for key in fixed} == fixed

    def test_own_last_time_before_its_shot_is_not_read(self, tmp_path):
        # the grid replaces the last shot's own time, which is parsed as a number but never ordered
        early = self.run_rows(tmp_path, self.grid_doc(-5.0), "early")
        assert early == self.run_rows(tmp_path, self.grid_doc(self.FINALS[0]), "valid")

    def test_closing_s3_grid_warns_in_every_row(self, tmp_path):
        rows = self.run_rows(tmp_path, self.grid_doc(1.0, "S3"), "closing-s3")
        text = "last shot is an S3 (commutator) readout: the expected signal vanishes identically"
        assert {row["warning"] for row in rows} == {text}
        assert {row["bases"] for row in rows} == {"S3;S2;S3"}


class TestCliSimulate:
    def test_end_to_end_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, SIM_DOC)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        csv1 = (out1 / "results.csv").read_bytes()
        csv2 = (out2 / "results.csv").read_bytes()
        assert csv1 == csv2  # byte-identical for a fixed seed
        row = read_rows(out1)[0]
        assert row["seed"] == "7"
        assert float(row["sigma_distance"]) < 4.0

    def test_manifest_round_trip(self, tmp_path):
        # the config embedded in the manifest regenerates the CSV byte-for-byte,
        # also where it stores a non-finite number as its YAML spelling
        constant = {"kind": "constant", "amplitude": 1.0, "correlation_time": math.inf}
        infinite = _doc(OU_DOC, mc__field=constant)
        field_sweep = dict(
            _doc(OU_DOC, command="sweep"),
            sweep={"command": "simulate", "path": "mc.field.correlation_time", "values": [1.0, math.inf]},
        )
        for i, doc in enumerate((SIM_DOC, infinite, field_sweep)):
            command = doc["command"]
            out1, out2 = tmp_path / f"{i}a", tmp_path / f"{i}b"
            assert main([command, "--config", str(write_config(tmp_path, doc)), "--out", str(out1)]) == EXIT_OK
            manifest = json.loads((out1 / "manifest.json").read_text())
            cfg2 = write_config(tmp_path, manifest["config"], name="replay.yaml")
            assert main([command, "--config", str(cfg2), "--out", str(out2)]) == EXIT_OK
            assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
            assert json.loads((out2 / "manifest.json").read_text())["config_sha256"] == manifest["config_sha256"]

    @pytest.mark.parametrize("flag", ["0", "-3"])
    def test_threads_below_one_is_a_usage_error(self, tmp_path, capsys, flag):
        args = ["simulate", "--config", str(write_config(tmp_path, SIM_DOC)), "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main([*args, "--threads", flag])
        assert exc.value.code == EXIT_CONFIG
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_default_workers_do_not_change_results(self, tmp_path, monkeypatch):
        # three usable cores, whatever the machine: the default runs three
        # workers on both the Kraus and the multi-chunk semiclassical sweep
        monkeypatch.setattr(trajectory_mc, "usable_cores", lambda: 3)
        field = {"kind": "ornstein_uhlenbeck", "amplitude": 10.0, "correlation_time": 1.0}
        sweep = {
            "command": "sweep",
            "seed": 5,
            "protocol": {
                "alpha": 4.0,
                "tau": 0.05,
                "shots": [{"time": 0.0, "basis": "S2"}, {"time": 0.3, "basis": "S2"}],
            },
            "mc": {"sequences": 3 * trajectory_mc.CHUNK_SIZE, "mode": "semiclassical_field", "field": field},
            "sweep": {"command": "simulate", "path": "mc.field.kind", "values": ["ornstein_uhlenbeck", "telegraph"]},
        }
        kraus = dict(SIM_DOC, mc={"sequences": 2 * trajectory_mc.CHUNK_SIZE, "mode": "kraus_quantum"})
        for doc, workers in ((sweep, [3, 3]), (kraus, [2])):
            cfg = write_config(tmp_path, doc)
            command = doc["command"]
            defaulted, single = tmp_path / f"{command}_default", tmp_path / f"{command}_1"
            assert main([command, "--config", str(cfg), "--out", str(defaulted)]) == EXIT_OK
            assert main([command, "--config", str(cfg), "--out", str(single), "--threads", "1"]) == EXIT_OK
            assert (defaulted / "results.csv").read_bytes() == (single / "results.csv").read_bytes()
            layout = json.loads((defaulted / "manifest.json").read_text())["run"]["protocols"]
            assert [entry["workers"] for entry in layout] == workers
            # a sweep names in each entry the value its protocol ran at
            assert [entry.get("sweep_value") for entry in layout] == doc.get("sweep", {"values": [None]})["values"]

    def test_manifest_records_the_worker_and_chunk_layout(self, tmp_path):
        cfg = write_config(tmp_path, SIM_DOC)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--threads", "3"]) == EXIT_OK
        run = json.loads((out / "manifest.json").read_text())["run"]
        smallest = run["protocols"][0].pop("smallest_norm2")
        # three workers asked for, one chunk to run: one worker runs it
        assert run == {"chunk_size": trajectory_mc.CHUNK_SIZE, "protocols": [{"workers": 1, "chunks": 1}]}
        # the Kraus health counter: the smallest squared norm a Kraus update
        # left a state with, each Kraus diagonal's largest modulus being 1
        assert isinstance(smallest, float) and 0 < smallest <= 1 + 1e-12

    def test_manifest_has_no_norm_without_a_kraus_update(self, tmp_path):
        # a one-shot protocol renormalizes nothing, nor does the semiclassical mode
        one_shot = dict(SIM_DOC, protocol=dict(SIM_DOC["protocol"], shots=SIM_DOC["protocol"]["shots"][:1]))
        field = {"kind": "ornstein_uhlenbeck", "amplitude": 1.0, "correlation_time": 1.0}
        semiclassical = dict(SIM_DOC, mc={"sequences": 1000, "mode": "semiclassical_field", "field": field})
        for name, doc in (("one_shot", one_shot), ("semiclassical", semiclassical)):
            out = tmp_path / name
            assert main(["simulate", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
            (entry,) = json.loads((out / "manifest.json").read_text())["run"]["protocols"]
            assert entry["smallest_norm2"] is None

    def test_defaulted_run_steps_down_where_explicit_threads_exit(self, tmp_path, monkeypatch):
        # two chunks of a spin-1/2 need ~5 MiB each: under an 8 MiB guard one
        # worker fits and two do not
        monkeypatch.setattr(trajectory_mc, "usable_cores", lambda: 2)
        monkeypatch.setattr(errors, "MEMORY_GUARD_BYTES", 8 * 1024**2)
        doc = dict(SIM_DOC, mc={"sequences": 2 * trajectory_mc.CHUNK_SIZE, "mode": "kraus_quantum"})
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == EXIT_OK
        run = json.loads((tmp_path / "a" / "manifest.json").read_text())["run"]
        run["protocols"][0].pop("smallest_norm2")
        assert run["protocols"] == [{"workers": 1, "chunks": 2}]
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b"), "--threads", "2"]) == EXIT_RESOURCE

    def test_threads_do_not_change_results(self, tmp_path):
        # the README simulate example runs seven chunks; with two R/L shots
        # appended, it ends on shots before which no branch is drawn
        with open(Path(__file__).parent / "golden" / "readme0_simulate" / "config.yaml") as fh:
            readme = yaml.safe_load(fh)
        rl = _doc(readme, protocol__shots=[*readme["protocol"]["shots"], {"time": 2.0, "basis": "S3"},
                                           {"time": 2.5, "basis": "S3"}])
        for name, doc, threads in (("doc", SIM_DOC, "4"), ("readme", readme, "2"), ("readme_rl", rl, "2")):
            cfg = write_config(tmp_path, doc, f"{name}.yaml")
            out1, out2 = tmp_path / f"{name}1", tmp_path / f"{name}{threads}"
            assert main(["simulate", "--config", str(cfg), "--out", str(out1), "--threads", "1"]) == EXIT_OK
            assert main(["simulate", "--config", str(cfg), "--out", str(out2), "--threads", threads]) == EXIT_OK
            assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    def test_mc_resource_guard_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(errors, "MEMORY_GUARD_BYTES", 1024)
        cfg = write_config(tmp_path, SIM_DOC)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_RESOURCE
        assert not (out / "results.csv").exists()

    def test_zero_standard_error_is_not_a_crash(self, tmp_path):
        # at alpha = 0.01 every one of the 1000 sequences records 0, so the
        # standard error is 0: the empirical SNR is 0, the sigma distance empty
        protocol = {
            "alpha": 0.01,
            "tau": 0.02,
            "shots": [{"time": 0.0, "basis": "S3"}, {"time": 1.5, "basis": "S2"}],
        }
        doc = dict(SIM_DOC, protocol=protocol, mc={"sequences": 1000, "mode": "kraus_quantum"})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
        row = read_rows(out)[0]
        assert (row["mc_std_error[counts^K]"], row["empirical_snr"], row["sigma_distance"]) == ("0.0", "0.0", "")

    def test_simulate_computes_c_once_over_the_grid(self, tmp_path, monkeypatch):
        # simulate's gk_leading column is prediction_factor times one C chain
        # over the whole grid, with no one-point C per protocol; that chain
        # and the all-orders one share a single walk through the eigenbases
        calls = {"_record_chain": 0, "correlation_grid": 0, "correlation": 0}
        for name in calls:
            real = getattr(correlations, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            for module in (correlations, weak_measurement, cli):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counting)
        protocol = dict(SIM_DOC["protocol"], final_time_grid=[0.5 + 0.25 * i for i in range(8)])
        doc = dict(SIM_DOC, protocol=protocol, mc={"sequences": 500, "mode": "kraus_quantum"})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
        assert len(read_rows(out)) == 8
        assert calls == {"_record_chain": 1, "correlation_grid": 0, "correlation": 0}

    def test_simulate_evaluates_each_column_once_over_the_grid(self, tmp_path, monkeypatch):
        # one evaluation over the whole grid gives both the leading-order and
        # the all-orders column
        calls = []
        real = cli.protocol_grids

        def counting(*args, **kwargs):
            calls.append(kwargs.get("engine", args[3] if len(args) > 3 else "coherent"))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "protocol_grids", counting)
        protocol = dict(SIM_DOC["protocol"], final_time_grid=[0.5 + 0.25 * i for i in range(8)])
        doc = dict(SIM_DOC, protocol=protocol, mc={"sequences": 500, "mode": "kraus_quantum"})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 8
        assert calls == ["coherent"]
        assert all(row["gk_leading[counts^K]"] and row["gk_exact_unitary[counts^K]"] for row in rows)

    def test_warning_column_for_closed_protocol(self, tmp_path):
        protocol = dict(SIM_DOC["protocol"], shots=CLOSED_SHOTS, final_time_grid=[1.0, 2.0])
        doc = dict(SIM_DOC, protocol=protocol, mc={"sequences": 500})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
        assert [row["warning"] for row in read_rows(out)] == [closed_protocol_warning()] * 2

    def test_one_sequence_has_no_sigma_distance(self, tmp_path):
        # one sequence has no standard error (inf): the distance from the
        # exact value cannot be read in standard errors, so its cell is empty
        doc = dict(SIM_DOC, mc={"sequences": 1, "mode": "kraus_quantum"})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
        row = read_rows(out)[0]
        assert row["mc_std_error[counts^K]"] == "inf" and float(row["abs_error[counts^K]"]) > 0
        assert row["sigma_distance"] == ""

    def test_semiclassical_mode(self, tmp_path):
        doc = {
            "command": "simulate",
            "seed": 3,
            "protocol": {
                "alpha": 4.0,
                "tau": 0.05,
                "shots": [{"time": 0.0, "basis": "S2"}],
            },
            "mc": {
                "sequences": 20000,
                "mode": "semiclassical_field",
                "field": {"kind": "constant", "amplitude": 1.0},
            },
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        row = read_rows(out)[0]
        expect = 16.0 / 2 * math.sin(0.05)
        assert float(row["mc_mean[counts^K]"]) == pytest.approx(
            expect, abs=4 * float(row["mc_std_error[counts^K]"])
        )
        assert row["gk_exact_unitary[counts^K]"] == ""


class TestCliSnr:
    def test_lihof4_orders(self, tmp_path):
        cfg = write_config(tmp_path, SNR_DOC)
        out = tmp_path / "out"
        assert main(["snr", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        by_k = {row["order_K"]: row for row in rows}
        assert set(by_k) == {"1", "2", "4"}
        # per-order gain about 5.8e-12, prefactor 1.39e20
        snr2 = float(by_k["2"]["snr_per_sqrt_L"])
        assert snr2 == pytest.approx((5.755e-12) ** 2 * 1.39e20, rel=0.01)
        assert float(by_k["2"]["L_for_unit_snr"]) == pytest.approx(snr2**-2, rel=1e-10)

    def test_snr_per_sqrt_l_is_the_formulas_own_value(self, tmp_path):
        # at L = 3, snr / sqrt(L) differs from the formula in its last bit
        doc = {"command": "snr", "snr": {"preset": "lihof4", "orders": [1], "L": 3.0}}
        out = tmp_path / "out"
        assert main(["snr", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
        (row,) = read_rows(out)
        formula = 20.0 * math.sqrt(1e14) / (2.0 * 1.39e28 * 1e-8) * (1.39e28 * 1.0 * 1e-8) * 8.0
        assert row["snr_per_sqrt_L"] == repr(formula) == "800000000.0"

    def test_order_column_is_each_scenarios_k(self, tmp_path):
        # a preset file's scenarios keep their own K, in file order
        presets = tmp_path / "scenarios.yaml"
        params = "g: 1.0, D: 2.0, n_s: 1.0e+3, A: 0.1, N_ph: 1.0e+4, moment_k: 3.0"
        presets.write_text(f"b: {{{params}, K: 3}}\na: {{{params}, K: 1}}\n")
        for i, snr in enumerate((SNR_DOC["snr"], {"preset_file": str(presets)})):
            out = tmp_path / f"out{i}"
            doc = {"command": "snr", "snr": snr}
            assert main(["snr", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
            orders = [row["order_K"] for row in read_rows(out)]
            assert orders == [str(scenario.K) for scenario in build_scenarios(snr)]
            assert orders == (["1", "2", "4"] if "preset" in snr else ["3", "1"])

    def test_inline_scenario(self, tmp_path):
        doc = {
            "command": "snr",
            "snr": {
                "scenario": {
                    "g": 1.0,
                    "D": 2.0,
                    "n_s": 1.0e3,
                    "A": 0.1,
                    "N_ph": 1.0e4,
                    "L": 4.0,
                    "K": 2,
                    "moment_k": 3.0,
                }
            },
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["snr", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        row = read_rows(out)[0]
        assert float(row["snr"]) == pytest.approx(2.0 * 0.25 * 200.0 * 3.0, rel=1e-10)


class TestCliSweep:
    def test_tau_sweep_over_exact(self, tmp_path):
        doc = {
            "command": "sweep",
            "model": EXACT_DOC["model"],
            "protocol": EXACT_DOC["protocol"],
            "exact": {"include_exact_unitary": False},
            "sweep": {"command": "exact", "path": "protocol.tau", "values": [0.1, 0.05, 0.025]},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        assert [row["sweep_value"] for row in rows] == ["0.1", "0.05", "0.025"]
        # leading-order signal scales as tau^2 for a two-shot protocol
        g = [float(row["gk_leading[counts^K]"]) for row in rows]
        assert g[0] / g[1] == pytest.approx(4.0, rel=1e-10)
        assert g[1] / g[2] == pytest.approx(4.0, rel=1e-10)

    def test_sweep_rejects_bad_value(self, tmp_path):
        doc = {
            "command": "sweep",
            "model": EXACT_DOC["model"],
            "protocol": EXACT_DOC["protocol"],
            "sweep": {"command": "exact", "path": "protocol.tau", "values": ["fast"]},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG


class TestLoadConfig:
    def test_rejects_non_mapping_document(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            load_config(path)



def _doc(base, **paths):
    """A deep copy of ``base`` with each ``a__b`` keyword set at the path a.b."""
    doc = copy.deepcopy(base)
    for path, value in paths.items():
        *parents, key = path.split("__")
        node = doc
        for parent in parents:
            node = node[int(parent) if isinstance(node, list) else parent]
        node[key] = value
    return doc


SCENARIO = {"g": 1.0, "D": 2.0, "n_s": 1.0e3, "A": 0.1, "N_ph": 1.0e4, "L": 4.0, "K": 2, "moment_k": 3.0}
OU_DOC = {
    "command": "simulate",
    "seed": 3,
    "protocol": EXACT_DOC["protocol"],
    "mc": {
        "sequences": 100,
        "mode": "semiclassical_field",
        "field": {"kind": "ornstein_uhlenbeck", "amplitude": 1.0, "correlation_time": 1.0},
    },
}
SWEEP_DOC = {
    "command": "sweep",
    "model": EXACT_DOC["model"],
    "protocol": EXACT_DOC["protocol"],
    "sweep": {"command": "exact", "path": "protocol.alpha", "values": [1.0, -1.0]},
}


MATERIALS = str(Path(cli.__file__).parent / "presets" / "materials.yaml")


def _write_preset(tmp_path, text):
    path = tmp_path / "scenarios.yaml"
    path.write_text(text)
    return str(path)


# (id, document for a tmp_path, text the message must contain). Each of these
# crashed with a traceback, or ran something else than asked, before the
# config was parsed in one step.
INVALID_CONFIGS = [
    ("negative-alpha", lambda tmp: _doc(EXACT_DOC, protocol__alpha=-2), "alpha must be positive"),
    (
        "decreasing-shot-times",
        lambda tmp: _doc(
            EXACT_DOC, protocol__shots=[{"time": 1.0, "basis": "S3"}, {"time": 0.0, "basis": "S2"}]
        ),
        "protocol.shots",
    ),
    ("negative-two-j", lambda tmp: _doc(EXACT_DOC, model__two_j=-3), "model.two_j"),
    (
        "negative-beta",
        lambda tmp: _doc(EXACT_DOC, model__initial_state="thermal", model__beta=-1),
        "model: beta",
    ),
    (
        "infinite-beta",
        lambda tmp: _doc(EXACT_DOC, model__initial_state="thermal", model__beta=math.inf),
        "model: beta must be >= 0 and finite, got inf",
    ),
    (
        "nan-beta",
        lambda tmp: _doc(EXACT_DOC, model__initial_state="thermal", model__beta=math.nan),
        "model: beta must be >= 0 and finite, got nan",
    ),
    # a non-finite model value is named before any arithmetic runs on it
    (
        "nan-coefficient",
        lambda tmp: _doc(EXACT_DOC, model__hamiltonian={"jz": math.nan}),
        "config error: model.hamiltonian.jz must be finite, got nan\n",
    ),
    (
        "infinite-coefficient",
        lambda tmp: _doc(EXACT_DOC, model__hamiltonian={"jz": math.inf}),
        "config error: model.hamiltonian.jz must be finite, got inf\n",
    ),
    (
        "nan-matrix-entry",
        lambda tmp: dict(
            EXACT_DOC,
            model={
                "kind": "custom",
                "hamiltonian_matrix": [[0.0, math.nan], [math.nan, 0.0]],
                "coupling_matrix": [[1.0, 0.0], [0.0, -1.0]],
                "initial_state_matrix": [[1.0, 0.0], [0.0, 0.0]],
            },
        ),
        "config error: model.hamiltonian_matrix[0][1] must be finite, got nan\n",
    ),
    # a matrix entry, and each half of an [re, im] pair, follows the number rules
    ("bool-matrix-entry", lambda tmp: _custom(hamiltonian_matrix=[[True, 0.0], [0.0, 0.0]]),
     "config error: model.hamiltonian_matrix[0][0] must be a number, got True\n"),
    ("text-matrix-entry", lambda tmp: _custom(coupling_matrix=[[0.0, "1"], [1.0, 0.0]]),
     "config error: model.coupling_matrix[0][1] must be a number, got '1'\n"),
    ("bool-matrix-pair-half", lambda tmp: _custom(hamiltonian_matrix=[[[0.0, True], 0.0], [0.0, 0.0]]),
     "config error: model.hamiltonian_matrix[0][0][1] must be a number, got True\n"),
    # an integer literal of 401 digits, well inside Python's 4300-digit limit,
    # that no float holds: OverflowError from float(), a traceback and exit 1
    ("huge-integer-alpha", lambda tmp: _doc(EXACT_DOC, protocol__alpha=10**400),
     "config error: protocol.alpha must lie within the float range, got an integer of 401 digits\n"),
    ("huge-integer-final-time", lambda tmp: _doc(EXACT_DOC, protocol__final_time_grid=[0.5, 10**400]),
     "config error: protocol.final_time_grid[1] must lie within the float range, got an integer of 401 digits\n"),
    ("huge-integer-snr-L", lambda tmp: _doc(SNR_DOC, snr__L=10**400),
     "config error: snr.L must lie within the float range, got an integer of 401 digits\n"),
    ("huge-integer-matrix-entry", lambda tmp: _custom(coupling_matrix=[[0.0, 10**400], [1.0, 0.0]]),
     "config error: model.coupling_matrix[0][1] must lie within the float range, got an integer of 401 digits\n"),
    # H - H^dag leaves the float range: not Hermitian, without numpy's overflow warning first
    ("non-hermitian-past-the-float-range", lambda tmp: _custom(hamiltonian_matrix=[[1.0, 1.7e308], [-1.7e308, -1.0]]),
     "config error: model: hamiltonian is not Hermitian within 1e-10 of its largest entry\n"),
    ("nan-shot-time", lambda tmp: _doc(EXACT_DOC, protocol__shots__0__time=math.nan), "protocol.shots"),
    ("infinite-tau", lambda tmp: _doc(EXACT_DOC, protocol__tau=math.inf), "tau must be positive"),
    # the Fock cutoff comes from alpha; a config that still sets one is refused
    # a Fock run computes only the all-orders column, so it must ask for it
    (
        "fock-without-exact-unitary",
        lambda tmp: _doc(EXACT_DOC, exact__include_exact_unitary=False, exact__engine="fock"),
        "exact.engine: fock computes the all-orders column only, so it needs exact.include_exact_unitary: true",
    ),
    ("n-max-is-unknown", lambda tmp: _doc(EXACT_DOC, exact__n_max=210), "unknown keys in exact: ['n_max']"),
    ("scenario-not-mapping", lambda tmp: {"command": "snr", "snr": {"scenario": 5}}, "snr.scenario"),
    (
        "scenario-negative-g",
        lambda tmp: {"command": "snr", "snr": {"scenario": dict(SCENARIO, g=-1.0)}},
        "snr.scenario",
    ),
    (
        "scenario-without-K",
        lambda tmp: {"command": "snr", "snr": {"scenario": {k: v for k, v in SCENARIO.items() if k != "K"}}},
        "'K'",
    ),
    (
        "scenario-without-g",
        lambda tmp: {"command": "snr", "snr": {"scenario": {k: v for k, v in SCENARIO.items() if k != "g"}}},
        "'g'",
    ),
    ("text-order", lambda tmp: _doc(SNR_DOC, snr__orders=[2, "x"]), "snr.orders"),
    ("zero-order", lambda tmp: _doc(SNR_DOC, snr__orders=[0]), "snr.orders"),
    (
        "missing-preset-file",
        lambda tmp: {"command": "snr", "snr": {"preset_file": str(tmp / "none.yaml")}},
        "snr.preset_file",
    ),
    (
        "preset-file-unknown-key",
        lambda tmp: {
            "command": "snr",
            "snr": {"preset_file": _write_preset(tmp, yaml.safe_dump({"s": dict(SCENARIO, mass=1.0)}))},
        },
        "snr.preset_file",
    ),
    (
        "preset-file-fractional-K",
        lambda tmp: {
            "command": "snr",
            "snr": {"preset_file": _write_preset(tmp, yaml.safe_dump({"s": dict(SCENARIO, K=2.7)}))},
        },
        "snr.preset_file.s.K",
    ),
    (
        "preset-file-boolean-g",
        lambda tmp: {
            "command": "snr",
            "snr": {"preset_file": _write_preset(tmp, yaml.safe_dump({"s": dict(SCENARIO, g=True)}))},
        },
        "snr.preset_file.s.g",
    ),
    (
        "non-hermitian-matrix",
        lambda tmp: dict(
            EXACT_DOC,
            model={
                "kind": "custom",
                "hamiltonian_matrix": [[0.0, 1.0], [0.0, 0.0]],
                "coupling_matrix": [[1.0, 0.0], [0.0, -1.0]],
                "initial_state_matrix": [[1.0, 0.0], [0.0, 0.0]],
            },
        ),
        "hamiltonian",
    ),
    ("negative-correlation-time", lambda tmp: _doc(OU_DOC, mc__field__correlation_time=-1), "mc.field"),
    ("nan-field-amplitude", lambda tmp: _doc(OU_DOC, mc__field__amplitude=math.nan), "mc.field"),
    ("infinite-field-amplitude", lambda tmp: _doc(OU_DOC, mc__field__amplitude=math.inf), "mc.field"),
    ("infinite-xi", lambda tmp: _doc(SNR_DOC, snr__xi=math.inf), "xi must be positive and finite"),
    (
        "scenario-infinite-g",
        lambda tmp: {"command": "snr", "snr": {"scenario": dict(SCENARIO, g=math.inf)}},
        "snr.scenario",
    ),
    ("text-seed", lambda tmp: _doc(SIM_DOC, seed="abc"), "seed"),
    # the top-level seed is checked once, whatever the command
    ("negative-seed", lambda tmp: _doc(SIM_DOC, seed=-1), "seed must be >= 0, got -1"),
    ("negative-seed-exact", lambda tmp: dict(EXACT_DOC, seed=-1), "seed must be >= 0, got -1"),
    ("negative-seed-snr", lambda tmp: dict(SNR_DOC, seed=-1), "seed must be >= 0, got -1"),
    ("sweep-value-negative-alpha", lambda tmp: SWEEP_DOC, "sweep value -1.0"),
    # a path the sweep itself sets would be overwritten, so each value ran the same base command
    ("sweep-path-command", lambda tmp: _doc(SWEEP_DOC, sweep__path="command", sweep__values=["snr"]),
     "sweep.path must not name command or sweep"),
    ("sweep-path-under-sweep", lambda tmp: _doc(SWEEP_DOC, sweep__path="sweep.values", sweep__values=[[1.0]]),
     "sweep.path must not name command or sweep"),
    # values that were silently coerced into another run
    ("fractional-two-j", lambda tmp: _doc(EXACT_DOC, model__two_j=1.5), "model.two_j"),
    (
        "text-include-exact-unitary",
        lambda tmp: _doc(EXACT_DOC, exact__include_exact_unitary="no"),
        "exact.include_exact_unitary",
    ),
    ("boolean-sequences", lambda tmp: _doc(SIM_DOC, mc__sequences=True), "mc.sequences"),
    # a final time that precedes the shot it follows, with valid shots
    (
        "final-time-before-its-shot",
        lambda tmp: _doc(EXACT_DOC, protocol__final_time_grid=[0.5, -1.0]),
        "protocol.final_time_grid[1] = -1 must be finite and not before protocol.shots[0].time = 0",
    ),
    (
        "nan-final-time",
        lambda tmp: _doc(EXACT_DOC, protocol__final_time_grid=[math.nan]),
        "protocol.final_time_grid[0] = nan must be finite",
    ),
    # each kind of bad final time, named at the first index it occurs
    (
        "boolean-final-time",
        lambda tmp: _doc(EXACT_DOC, protocol__final_time_grid=[0.5, True, "soon"]),
        "config error: protocol.final_time_grid[1] must be a number, got True\n",
    ),
    (
        "text-final-time",
        lambda tmp: _doc(EXACT_DOC, protocol__final_time_grid=[0.5, "soon", True]),
        "config error: protocol.final_time_grid[1] must be a number, got 'soon'\n",
    ),
    (
        "spelled-nan-final-time",
        lambda tmp: _doc(EXACT_DOC, protocol__final_time_grid=[0.5, ".nan", -1.0]),
        "config error: protocol.final_time_grid[1] = nan must be finite "
        "and not before protocol.shots[0].time = 0\n",
    ),
    (
        "spelled-minus-inf-final-time",
        lambda tmp: _doc(EXACT_DOC, protocol__final_time_grid=["-.inf", 0.5]),
        "config error: protocol.final_time_grid[0] = -inf must be finite "
        "and not before protocol.shots[0].time = 0\n",
    ),
    (
        "last-of-512-final-times-before-its-shot",
        lambda tmp: _doc(EXACT_DOC, protocol__final_time_grid=[1.0 + i / 512 for i in range(511)] + [-0.25]),
        "config error: protocol.final_time_grid[511] = -0.25 must be finite "
        "and not before protocol.shots[0].time = 0\n",
    ),
    (
        "last-of-512-final-times-text",
        lambda tmp: _doc(EXACT_DOC, protocol__final_time_grid=[-1.0] + [1.0 + i / 512 for i in range(510)] + ["x"]),
        "config error: protocol.final_time_grid[511] must be a number, got 'x'\n",
    ),
    # alpha^2 = 1e20 photons: numpy's Poisson draws refuse the means, after the gk_* grids ran
    ("kraus-pulse-beyond-poisson", lambda tmp: _doc(SIM_DOC, protocol__alpha=1.0e10), "mc: alpha^2 = 1e+20"),
    ("semiclassical-pulse-beyond-poisson", lambda tmp: _doc(OU_DOC, protocol__alpha=1.0e10), "mc: alpha^2 = 1e+20"),
    # the preset's moment 8^K leaves the float range, which raised OverflowError
    (
        "preset-order-1e300",
        lambda tmp: _doc(SNR_DOC, snr__orders=[1, 1.0e300]),
        "config error: snr.orders: the LiHoF4 moment 8^K leaves the float range\n",
    ),
    (
        "preset-order-2-to-63",
        lambda tmp: _doc(SNR_DOC, snr__orders=[2**63]),
        "config error: snr.orders: the LiHoF4 moment 8^K leaves the float range\n",
    ),
    # a run with no rows, which would leave results.csv without a header
    (
        "preset-file-empty",
        lambda tmp: {"command": "snr", "snr": {"preset_file": _write_preset(tmp, "{}\n")}},
        "snr.preset_file has no scenarios",
    ),
    # snr keys that the named source does not read, and more than one source;
    # each of these ran something else than asked
    (
        "preset-file-with-orders",
        lambda tmp: {"command": "snr", "snr": {"preset_file": MATERIALS, "orders": [1, 4]}},
        "snr.orders applies to a preset or a scenario, not to snr.preset_file",
    ),
    (
        "preset-file-with-xi",
        lambda tmp: {"command": "snr", "snr": {"preset_file": MATERIALS, "xi": 1.0e-6}},
        "snr.xi applies to a preset only, not to snr.preset_file",
    ),
    (
        "scenario-with-xi",
        lambda tmp: {"command": "snr", "snr": {"scenario": SCENARIO, "xi": 1.0e-3}},
        "snr.xi applies to a preset only, not to snr.scenario",
    ),
    (
        "preset-and-scenario",
        lambda tmp: _doc(SNR_DOC, snr__orders=[2], snr__scenario=SCENARIO),
        "snr needs exactly one of preset, preset_file and scenario, got ['preset', 'scenario']",
    ),
    # and no source at all
    ("no-snr-source", lambda tmp: {"command": "snr", "snr": {"orders": [2]}}, "got []"),
    # snr.L beside a scenario that sets its own L, which it overrode without a word
    (
        "scenario-own-L-with-snr-L",
        lambda tmp: {"command": "snr", "snr": {"scenario": SCENARIO, "L": 100.0}},
        "snr.L applies to a preset or to scenarios without their own L, "
        "not to snr.scenario, which sets snr.scenario.L",
    ),
    (
        "preset-file-own-L-with-snr-L",
        lambda tmp: {"command": "snr", "snr": {"preset_file": MATERIALS, "L": 100.0}},
        "not to snr.preset_file.lihof4_k2, which sets snr.preset_file.lihof4_k2.L",
    ),
    # a coefficient whose term leaves the float range: "coupling is not
    # Hermitian" after numpy's overflow warnings
    ("coupling-term-overflows", lambda tmp: _doc(EXACT_DOC, model__two_j=15, model__coupling={"jx": 1.7e308}),
     "model.coupling.jx = 1.7e+308 takes the coupling past the float range"),
    # sections snr never reads, holding what manifest.json cannot store
    ("unread-section-date", lambda tmp: dict(SNR_DOC, mc=datetime.date(2024, 1, 1)), "manifest.json"),
    ("unread-section-mixed-keys", lambda tmp: dict(SNR_DOC, mc={1: "a", "b": "c"}), "manifest.json"),
    # and a list that holds itself through a YAML alias, which no JSON text can hold
    ("unread-section-holding-itself", lambda tmp: dict(SNR_DOC, mc=_holding_itself()), "Circular reference"),
]


def _custom(**matrices) -> dict:
    """EXACT_DOC on a custom spin-1/2 model, with ``matrices`` in place of its own."""
    model = {
        "kind": "custom",
        "hamiltonian_matrix": [[1.0, 0.0], [0.0, -1.0]],
        "coupling_matrix": [[0.0, 1.0], [1.0, 0.0]],
        "initial_state_matrix": [[1.0, 0.0], [0.0, 0.0]],
    }
    return dict(EXACT_DOC, model=dict(model, **matrices))


def _holding_itself() -> list:
    items = [0.5]
    items.append(items)
    return items


@pytest.mark.parametrize(
    "make_doc, names", [case[1:] for case in INVALID_CONFIGS], ids=[case[0] for case in INVALID_CONFIGS]
)
def test_invalid_value_is_a_config_error(tmp_path, capsys, make_doc, names):
    doc = make_doc(tmp_path)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no numpy warning before the message
        code = main([doc["command"], "--config", str(write_config(tmp_path, doc)), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error:") and names in err
    assert err.endswith("\n") and err.count("\n") == 1
    assert not (out / "results.csv").exists()


def test_sweep_checks_every_value_before_computing(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "protocol_grids", lambda *args: calls.append(args))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(write_config(tmp_path, SWEEP_DOC)), "--out", str(out)]) == EXIT_CONFIG
    assert calls == []


def test_sweep_holds_one_values_model_at_a_time(tmp_path, monkeypatch):
    # a spin-63/2 model peaks at 11 * 16 * 64^2 bytes, 0.69 MiB, and fits a
    # 1 MiB guard on its own; a sweep holds one value's model at a time, so
    # three values fit it too, and give the rows of three single runs
    monkeypatch.setattr(errors, "MEMORY_GUARD_BYTES", 1024**2)
    betas = [0.1, 0.2, 0.3]
    base = _doc(EXACT_DOC, model__two_j=63, model__initial_state="thermal", model__beta=betas[0])
    sweep = dict(base, command="sweep", sweep={"command": "exact", "path": "model.beta", "values": betas})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(write_config(tmp_path, sweep, "sweep.yaml")), "--out", str(out)]) == EXIT_OK
    singles = []
    for beta in betas:
        single = tmp_path / f"beta_{beta}"
        doc = write_config(tmp_path, _doc(base, model__beta=beta))
        assert main(["exact", "--config", str(doc), "--out", str(single)]) == EXIT_OK
        singles.extend({"sweep_path": "model.beta", "sweep_value": repr(beta), **row} for row in read_rows(single))
    assert read_rows(out) == singles


def test_sweep_frees_each_values_model_once_its_rows_are_formed(tmp_path, monkeypatch):
    # when each value's run starts, no earlier value's model (nor its spectral
    # data) is still held; and from the parse to the last row, no two values'
    # models are alive at once: each model is built with every earlier one freed
    refs, alive, built, held = [], [], [], []
    real, real_model = cli.protocol_grids, config.TargetModel

    def watching(model, *args):
        gc.collect()
        alive.append([ref() is not None for ref in refs])
        refs.append(weakref.ref(model))
        return real(model, *args)

    def building(*args, **kwargs):
        gc.collect()
        held.append(sum(ref() is not None for ref in built))
        model = real_model(*args, **kwargs)
        built.append(weakref.ref(model))
        return model

    monkeypatch.setattr(cli, "protocol_grids", watching)
    monkeypatch.setattr(config, "TargetModel", building)
    doc = _doc(SWEEP_DOC, sweep__values=[1.0, 2.0, 3.0])
    assert main(["sweep", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert alive == [[], [False], [False, False]]
    assert held == [0] * 6  # each value's model is built twice: to check the sweep, and to run it


@pytest.mark.parametrize("command, engine", [("exact", "coherent"), ("exact", "fock"), ("simulate", None)])
def test_coupling_whose_power_leaves_the_float_range_is_a_numerical_guard(tmp_path, capsys, command, engine):
    # ||B||^K, the a-priori size of C, is 2.5e319 at jx = 1e160 and K = 2
    doc = _doc(EXACT_DOC, exact__engine=engine) if command == "exact" else copy.deepcopy(SIM_DOC)
    doc["model"]["coupling"] = {"jx": 1.0e160}
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numerical guard: ||B||^K overflows the float range") and err.count("\n") == 1
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize(
    "out_args, text",
    [
        (["--out", "{tmp}/taken"], "--out {tmp}/taken: {tmp}/taken exists and is not a directory"),
        (["--out", "{tmp}/taken/sub"], "--out {tmp}/taken/sub: {tmp}/taken exists and is not a directory"),
        (["--out", ""], "--out is empty"),
        (["--out="], "--out is empty"),
    ],
    ids=["file", "below-a-file", "empty", "empty-after-equals"],
)
def test_out_that_cannot_be_a_directory_is_a_usage_error(tmp_path, monkeypatch, capsys, out_args, text):
    # --out names a regular file, a path below one, or nothing, which Path
    # reads as the current directory: refused before the config is read, so
    # nothing is written, here or anywhere
    calls = []
    monkeypatch.setattr(cli, "load_config", lambda *args: calls.append(args))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("")
    config = str(write_config(tmp_path, EXACT_DOC))
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--config", config, *(arg.format(tmp=tmp_path) for arg in out_args)])
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_CONFIG
    assert text.format(tmp=tmp_path) in err and "Traceback" not in err
    assert calls == []
    assert (tmp_path / "taken").read_text() == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == ["run.yaml", "taken"]


def test_out_is_made_below_existing_directories(tmp_path):
    # an existing directory, or one to make below directories, is written as before
    cfg = str(write_config(tmp_path, EXACT_DOC))
    (tmp_path / "here").mkdir()
    for out in (tmp_path / "here", tmp_path / "a" / "b"):
        assert main(["exact", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert len(read_rows(out)) == 1


@pytest.mark.parametrize(
    "snr",
    [{"preset": "lihof4", "orders": [30]}, {"scenario": dict(SCENARIO, g=1.0e200, N_ph=1.0e200, K=4)}],
    ids=["snr-underflows", "snr-overflows"],
)
def test_snr_out_of_float_range_is_a_numerical_guard(tmp_path, capsys, snr):
    out = tmp_path / "out"
    code = main(["snr", "--config", str(write_config(tmp_path, {"command": "snr", "snr": snr})), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC
    assert err.startswith("numerical guard:") and "Traceback" not in err
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("path", ["mc__field__amplitude", "protocol__tau"])
def test_semiclassical_rotation_beyond_the_float_range_is_a_numerical_guard(tmp_path, capsys, path):
    # the field paths or the rotations tau b / 2 overflow, whose Poisson means
    # numpy refused with "lam value too large" after RuntimeWarnings
    with open(Path(__file__).parent / "golden" / "semiclassical_mc_s0" / "config.yaml") as fh:
        doc = _doc(yaml.safe_load(fh), mc__sequences=300, **{path: 1.7e308})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning before the guard line
        code = main(["sweep", "--config", str(write_config(tmp_path, doc)), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC
    assert err == "numerical guard: the Poisson means of an S2 shot are not finite: " \
                  "its rotation tau b / 2 leaves the float range\n"
    assert not (out / "results.csv").exists()


# (id, document, exit code, text the short message must contain): pulses
# whose numbers leave the float range, each of which exited 1 with a traceback
# or, where marked, 0 with a nan cell
PULSES_OUT_OF_RANGE = [
    # the Fock cutoff alpha^2 + 10 alpha + 10 is beyond the float range, or its sector bytes are
    ("fock-cutoff-overflows", _doc(EXACT_DOC, protocol__alpha=1.0e200, exact__engine="fock"), EXIT_RESOURCE,
     "Fock sector eigendata (n_max=inf)"),
    # (a 241-digit cutoff, given to four significant digits)
    ("fock-bytes-overflow", _doc(EXACT_DOC, protocol__alpha=1.0e120, exact__engine="fock"), EXIT_RESOURCE,
     "Fock sector eigendata (n_max=1e+240)"),
    # 2^-K tau^K alpha^2K overflows
    ("exact-alpha-factor-overflows", _doc(EXACT_DOC, protocol__alpha=1.0e200), EXIT_NUMERIC, "2^-K tau^K alpha^2K"),
    ("exact-tau-factor-overflows", _doc(EXACT_DOC, protocol__tau=1.0e300), EXIT_NUMERIC, "2^-K tau^K alpha^2K"),
    ("simulate-tau-factor-overflows", _doc(SIM_DOC, protocol__tau=1.0e300), EXIT_NUMERIC, "2^-K tau^K alpha^2K"),
    # the factor, 1.27e308, fits, but times C = 1.68 it does not
    ("exact-leading-overflows", _doc(EXACT_DOC, protocol__tau=1.0e154), EXIT_NUMERIC,
     "leading-order count correlation overflows"),
    # exit 0: a Monte Carlo record whose square overflows (alpha^2 = 1e18
    # photons, twelve shots), or whose product over forty shots does at a tau
    # so short that the leading order, computed first, still fits
    ("semiclassical-record-square-overflows",
     _doc(OU_DOC, protocol__alpha=1.0e9, protocol__tau=1.0, mc__sequences=300,
          mc__field={"kind": "constant", "amplitude": 1.5},
          protocol__shots=[{"time": 0.1 * i, "basis": "S2"} for i in range(12)]),
     EXIT_NUMERIC, "numerical guard: the Monte Carlo record leaves the float range"),
    ("kraus-record-product-overflows",
     _doc(SIM_DOC, protocol__alpha=1.0e9, protocol__tau=1.0e-20, mc__sequences=300,
          protocol__shots=[{"time": 0.1 * i, "basis": "S2"} for i in range(40)]),
     EXIT_NUMERIC, "numerical guard: the Monte Carlo record leaves the float range"),
    # E t leaves the float range (E = +-2) at a shot's time step or at the final
    # time: exit 3 on a nan trace after RuntimeWarnings
    ("exact-shot-time-phase-overflows",
     _doc(EXACT_DOC, model__hamiltonian={"jz": 4.0}, protocol__shots=[
         {"time": 0.0, "basis": "S3"}, {"time": 1.7e308, "basis": "S3"}, {"time": 1.7e308, "basis": "S2"}]),
     EXIT_NUMERIC, "numerical guard: the phase exp(iEt) leaves the float range at |t| = 1.7e+308"),
    ("exact-final-time-phase-overflows",
     _doc(EXACT_DOC, model__hamiltonian={"jz": 4.0}, protocol__final_time_grid=[1.0, 1.7e308]),
     EXIT_NUMERIC, "numerical guard: the phase exp(iEt) leaves the float range at |t| = 1.7e+308"),
    # 0.5 tau alpha^2 overflows without raising: the chains ran, and the run
    # ended on the leading-order overflow
    ("exact-tau-past-the-float-range", _doc(EXACT_DOC, protocol__tau=1.7e308), EXIT_NUMERIC, "2^-K tau^K alpha^2K"),
]


@pytest.mark.parametrize(
    "doc, code, text", [case[1:] for case in PULSES_OUT_OF_RANGE], ids=[case[0] for case in PULSES_OUT_OF_RANGE]
)
def test_pulse_out_of_float_range_exits_with_its_code(tmp_path, capsys, doc, code, text):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning before the guard line
        assert main([doc["command"], "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert text in err and "Traceback" not in err and len(err) < 200
    assert not (out / "results.csv").exists()


def test_exact_column_of_a_huge_pulse(tmp_path):
    # alpha^2 tau = 1 at alpha = 1e100: the detectors' means are 5e199 each,
    # their difference is of order 1, and the all-orders column keeps it
    doc = _doc(EXACT_DOC, protocol__alpha=1.0e100, protocol__tau=1.0e-200)
    out = tmp_path / "out"
    assert main(["exact", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
    (row,) = read_rows(out)
    leading = float(row["gk_leading[counts^K]"])
    assert leading != 0.0
    assert float(row["gk_exact_unitary[counts^K]"]) == pytest.approx(leading, rel=1e-12)


@pytest.mark.parametrize("doc", [EXACT_DOC, SNR_DOC], ids=["exact", "snr"])
def test_threads_is_a_usage_error_where_no_workers_run(tmp_path, capsys, doc):
    args = [doc["command"], "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main([*args, "--threads", "2"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Command lines for the plain reader against argparse, each with the exit code
# of main and a text its stderr holds; main runs in a directory holding
# <command>.yaml for each command. None: exit and text as the parser gives
# them, which differ between Python versions for "--".
PARITY_ARGV = [
    ("exact-spaced", ["exact", "--config", "exact.yaml", "--out", "out"], EXIT_OK, ""),
    ("exact-out-first", ["exact", "--out", "out", "--config", "exact.yaml"], EXIT_OK, ""),
    ("exact-equals", ["exact", "--config=exact.yaml", "--out=out"], EXIT_OK, ""),
    ("exact-mixed", ["exact", "--out=out", "--config", "exact.yaml"], EXIT_OK, ""),
    ("snr", ["snr", "--out", "out", "--config=snr.yaml"], EXIT_OK, ""),
    ("simulate-threads-first", ["simulate", "--threads", "2", "--config", "simulate.yaml", "--out", "out"], EXIT_OK, ""),
    ("simulate-threads-between", ["simulate", "--config", "simulate.yaml", "--threads=1", "--out", "out"], EXIT_OK, ""),
    ("sweep-threads-last", ["sweep", "--config", "sweep.yaml", "--out", "out", "--threads", "2"], EXIT_OK, ""),
    ("sweep-no-threads", ["sweep", "--config=sweep.yaml", "--out=out"], EXIT_OK, ""),
    ("repeated-option", ["exact", "--config", "snr.yaml", "--config", "exact.yaml", "--out", "out"], EXIT_OK, ""),
    ("prefix", ["exact", "--conf", "exact.yaml", "--out", "out"], EXIT_OK, ""),
    ("threads-plus", ["simulate", "--config", "simulate.yaml", "--out", "out", "--threads=+1"], EXIT_OK, ""),
    ("threads-space", ["simulate", "--config", "simulate.yaml", "--out", "out", "--threads", " 2"], EXIT_OK, ""),
    ("threads-underscore", ["simulate", "--config", "simulate.yaml", "--out", "out", "--threads", "1_0"], EXIT_OK, ""),
    ("threads-zero", ["simulate", "--config", "simulate.yaml", "--out", "out", "--threads", "0"], EXIT_CONFIG,
     "faradaycorr: error: --threads must be at least 1, got 0"),
    ("threads-negative", ["simulate", "--config", "simulate.yaml", "--out", "out", "--threads", "-1"], EXIT_CONFIG,
     "faradaycorr: error: --threads must be at least 1, got -1"),
    ("threads-not-int", ["simulate", "--config", "simulate.yaml", "--out", "out", "--threads", "x"], EXIT_CONFIG,
     "argument --threads: invalid int value: 'x'"),
    ("out-starts-with-dash", ["exact", "--config", "exact.yaml", "--out", "-o"], EXIT_CONFIG,
     "argument --out: expected one argument"),
    ("double-dash-first", ["--", "exact", "--config", "exact.yaml", "--out", "out"], None, None),
    ("double-dash-last", ["exact", "--config", "exact.yaml", "--out", "out", "--"], None, None),
    ("help", ["-h"], EXIT_OK, ""),
    ("command-help", ["exact", "-h"], EXIT_OK, ""),
    ("empty", [], EXIT_CONFIG, "the following arguments are required: command"),
    ("unknown-command", ["exect", "--config", "exact.yaml", "--out", "out"], EXIT_CONFIG, "invalid choice: 'exect'"),
    ("missing-out", ["exact", "--config", "exact.yaml"], EXIT_CONFIG, "the following arguments are required: --out"),
    ("positional-left", ["exact", "--config", "exact.yaml", "--out", "out", "x"], EXIT_CONFIG,
     "unrecognized arguments: x"),
    ("threads-on-exact", ["exact", "--config", "exact.yaml", "--out", "out", "--threads", "2"], EXIT_CONFIG,
     "unrecognized arguments: --threads 2"),
    ("threads-on-snr", ["snr", "--threads=2", "--config", "snr.yaml", "--out", "out"], EXIT_CONFIG,
     "unrecognized arguments: --threads=2"),
]


@pytest.mark.parametrize(
    "argv, code, text", [case[1:] for case in PARITY_ARGV], ids=[case[0] for case in PARITY_ARGV]
)
def test_plain_reader_matches_argparse(tmp_path, monkeypatch, capsys, argv, code, text):
    # the plain reader gives argparse's namespace or nothing, and main exits
    # with the code and text it has always given
    monkeypatch.chdir(tmp_path)
    for doc in (EXACT_DOC, OU_DOC, SNR_DOC, _doc(SWEEP_DOC, sweep__values=[1.0, 2.0])):
        write_config(tmp_path, doc, name=f"{doc['command']}.yaml")
    try:
        namespace, refused = vars(cli._parser().parse_args(argv)), None
    except SystemExit as exc:
        namespace, refused = None, (exc.code, capsys.readouterr())
    plain = cli._plain_args(argv)
    assert plain is None or plain == namespace
    try:
        exit_code = main(argv)
    except SystemExit as exc:
        exit_code = exc.code
    printed = capsys.readouterr()
    if refused is not None:  # main refuses it as the parser does, word for word
        assert (exit_code, printed) == refused
    if code is not None:
        assert exit_code == code and text in printed.err
    assert (tmp_path / "out" / "results.csv").exists() == (refused is None and exit_code == EXIT_OK)


def test_help_prints_the_usage_block_as_written(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    usage = [line for line in cli.__doc__.splitlines() if line.lstrip().startswith("faradaycorr ")]
    assert len(usage) == 4 and all(line in lines for line in usage)
    # the developers' notes on the results table are not part of the help
    text = " ".join(lines)
    assert not any(note in text for note in ("Table", "Block", "csv.writer", "repr", "lone empty cell"))
    # it is printed verbatim, so it holds no reST markup, and each command has its line of text
    assert "``" not in text
    words = " ".join(text.split())  # whatever the terminal width
    for command, (help_text, _, _) in cli._COMMANDS.items():
        assert f"{command} {help_text}" in words


@pytest.mark.parametrize("command", ["exact", "simulate"])
def test_command_help_says_what_each_option_is(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == EXIT_OK
    text = " ".join(capsys.readouterr().out.split())  # as one line, whatever the terminal width
    assert "--config CONFIG the YAML run config" in text
    assert "--out OUT the output directory" in text
    threads = "one per usable core, within the memory guard); the count never changes the results"
    assert (threads in text) == (command == "simulate")


def test_mc_guard_runs_for_every_sweep_value_before_computing(tmp_path, monkeypatch, capsys):
    # 4000 sequences: a spin-1/2 chunk needs ~1.3 MiB and fits an 8 MiB guard,
    # a spin-63/2 one ~21 MiB does not. The sweep exits 4 when the config is
    # parsed, before the two_j = 1 run computes
    monkeypatch.setattr(errors, "MEMORY_GUARD_BYTES", 8 * 1024**2)
    calls = []
    for name in ("run_sequences", "protocol_grids"):
        real = getattr(cli, name)

        def counting(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(cli, name, counting)
    doc = dict(SIM_DOC, command="sweep", sweep={"command": "simulate", "path": "model.two_j", "values": [1, 63]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_RESOURCE
    assert "kraus_quantum Monte Carlo would need" in capsys.readouterr().err
    assert not (out / "results.csv").exists()
    assert calls == []


def _reject_constant(token):
    raise ValueError(f"manifest.json holds the non-JSON token {token}")


@pytest.mark.parametrize(
    "doc, path, stored",
    [
        (dict(SNR_DOC, mc=math.nan), ("mc",), ".nan"),
        (
            _doc(OU_DOC, mc__field={"kind": "constant", "amplitude": 1.0, "correlation_time": math.inf}),
            ("mc", "field", "correlation_time"),
            ".inf",
        ),
    ],
    ids=["unread-nan", "infinite-correlation-time"],
)
def test_manifest_is_strict_json(tmp_path, doc, path, stored):
    out = tmp_path / "out"
    assert main([doc["command"], "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
    config = json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)["config"]
    for key in path:
        config = config[key]
    assert config == stored


EXACT_HEADER = (
    "order_K,shot_times[s],bases,sign_type,alpha,tau[s],correlation_C[(rad/s)^K],gk_leading[counts^K],"
    "gk_exact_unitary[counts^K],warning"
)
SIMULATE_HEADER = (
    "order_K,shot_times[s],bases,alpha,tau[s],mode,sequences,seed,mc_mean[counts^K],mc_std_error[counts^K],"
    "per_shot_variance_half[counts^2],empirical_snr,gk_leading[counts^K],gk_exact_unitary[counts^K],"
    "abs_error[counts^K],sigma_distance,warning"
)
SNR_HEADER = "order_K,regime,snr,snr_per_sqrt_L,L_for_unit_snr,base_factor,prefactor[spins]"
SWEEP_OU_DOC = dict(
    OU_DOC, command="sweep", sweep={"command": "simulate", "path": "mc.sequences", "values": [100]}
)

# results.csv headers, pinned literally: the columns are the keys of each
# command's rows, so a reordered row would otherwise move them unnoticed.
HEADERS = [
    ("exact", EXACT_DOC, EXACT_HEADER),
    ("exact-without-exact-unitary", _doc(EXACT_DOC, exact__include_exact_unitary=False), EXACT_HEADER),
    ("simulate-kraus", SIM_DOC, SIMULATE_HEADER),
    ("simulate-semiclassical", OU_DOC, SIMULATE_HEADER),
    ("snr", SNR_DOC, SNR_HEADER),
    ("sweep-simulate", SWEEP_OU_DOC, "sweep_path,sweep_value," + SIMULATE_HEADER),
    ("sweep-exact", _doc(SWEEP_DOC, sweep__values=[1.0]), "sweep_path,sweep_value," + EXACT_HEADER),
]


@pytest.mark.parametrize("doc, header", [case[1:] for case in HEADERS], ids=[case[0] for case in HEADERS])
def test_results_header(tmp_path, doc, header):
    out = tmp_path / "out"
    assert main([doc["command"], "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
    assert (out / "results.csv").read_text().splitlines()[0] == header


# The module each column is read from, for the columns cli does not form itself.
COMPUTED_BY = {
    "correlation_C[(rad/s)^K]": "correlations",
    "gk_leading[counts^K]": "weak_measurement",
    "gk_exact_unitary[counts^K]": "weak_measurement",
    "mc_mean[counts^K]": "trajectory_mc",
    "mc_std_error[counts^K]": "trajectory_mc",
    "per_shot_variance_half[counts^2]": "trajectory_mc",
    "empirical_snr": "trajectory_mc",
    "regime": "snr",
    "snr": "snr",
    "snr_per_sqrt_L": "snr",
    "L_for_unit_snr": "snr",
    "base_factor": "snr",
    "prefactor[spins]": "snr",
}


def test_provenance_names_the_columns_written(tmp_path):
    # each run's manifest gives the provenance of exactly its columns, each
    # the module its cells are read from; the snr report's regime,
    # base_factor and prefactor come from snr, not cli
    for i, (_, doc, _) in enumerate(HEADERS):
        out = tmp_path / str(i)
        assert main([doc["command"], "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
        columns = (out / "results.csv").read_text().splitlines()[0].split(",")
        provenance = json.loads((out / "manifest.json").read_text())["provenance"]
        assert list(provenance) == sorted(columns)
        assert provenance == {column: COMPUTED_BY.get(column, "cli") for column in columns}


def test_results_cells_are_written_exactly(tmp_path):
    # None is an empty cell, a float its repr (the shortest string that reads
    # back to it), and anything else its str; alike whether a block's rows
    # share the cell or each row has its own
    row = {"none": None, "int": 7, "bool": True, "str": "S3;S2", "tenth": 0.1,
           "negative_zero": -0.0, "tiny": 1e-300, "inf": math.inf}
    for block in (cli.Block(same=row), cli.Block(same={}, each={key: [value] for key, value in row.items()})):
        cli._write_outputs(tmp_path, cli.Table(dict.fromkeys(row, "cli"), [block]), "{}", "exact", None)
        assert (tmp_path / "results.csv").read_bytes() == (
            b"none,int,bool,str,tenth,negative_zero,tiny,inf\n"
            b",7,True,S3;S2,0.1,-0.0,1e-300,inf\n"
        )


# Cells a results table may hold: the text has each character csv.writer
# treats apart (delimiter, quote, line ends, space) and non-ASCII ones.
_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=6) | st.sampled_from(
    ["", ",", '"', "\n", "\r", "\r\n", " ", " a ", "é", "a,b", 'say "hi"', "S3;S2", "[1, 2]"]
)
_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072e-308])
_SCALARS = st.none() | st.integers() | st.booleans() | _FLOATS | _TEXT
_CELLS = _SCALARS | st.lists(_SCALARS, max_size=3) | st.dictionaries(_TEXT, _SCALARS, max_size=3)


@st.composite
def _tables(draw):
    columns = tuple(draw(st.lists(_TEXT, min_size=1, max_size=5, unique=True)))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        shared = draw(st.sets(st.sampled_from(columns)))
        rows = draw(st.integers(1, 4)) if len(shared) < len(columns) else 1
        blocks.append(cli.Block(
            same={c: draw(_CELLS) for c in columns if c in shared},
            each={c: draw(st.lists(_CELLS, min_size=rows, max_size=rows)) for c in columns if c not in shared},
        ))
    return cli.Table(dict.fromkeys(columns, "cli"), blocks)


@hypothesis.given(_tables())
@hypothesis.example(cli.Table({"only": "cli"}, [cli.Block({}, {"only": ["", None, "x"]})]))
@hypothesis.example(cli.Table({"": "cli"}, [cli.Block({"": None})]))
@hypothesis.example(cli.Table({"sweep_path": "cli", "sweep_value": "cli", "snr": "snr"}, [
    cli.Block({"sweep_path": "snr.orders", "sweep_value": [1, 2]}, {"snr": [1.5, math.nan]}),
    cli.Block({"sweep_path": "model", "sweep_value": {"kind": "x", "two_j": 1}}, {"snr": [-0.0]}),
]))
@hypothesis.settings(max_examples=300, deadline=None)
def test_results_csv_is_what_csv_writer_writes(table):
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(table.columns)
    for block in table.blocks:
        for i in range(block.rows):
            writer.writerow(block.same[c] if c in block.same else block.each[c][i] for c in table.columns)
    with tempfile.TemporaryDirectory() as out:
        cli._write_outputs(Path(out), table, "{}", "exact", None)
        assert (Path(out) / "results.csv").read_bytes() == expected.getvalue().encode("utf-8")
