import copy
import csv
import datetime
import json
import math

import numpy as np
import pytest
import yaml

from faradaycorr import cli
from faradaycorr.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_RESOURCE, main
from faradaycorr.config import (
    build_model,
    build_protocols,
    load_config,
    set_config_path,
    validate_config,
)
from faradaycorr import errors, quantum_core, trajectory_mc, weak_measurement
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

    def test_final_time_grid_expands_protocols(self):
        proto_cfg = dict(EXACT_DOC["protocol"], final_time_grid=[0.5, 1.0, 1.5])
        protos = build_protocols(proto_cfg)
        assert [p.shots[-1].time for p in protos] == [0.5, 1.0, 1.5]
        assert all(p.shots[0].time == 0.0 for p in protos)


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
        lead = float(row["gk_leading[counts^K]"])
        assert lead == pytest.approx(float(row["gk_predicted_from_C[counts^K]"]), rel=1e-12)
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
        doc = dict(
            EXACT_DOC,
            protocol=dict(
                EXACT_DOC["protocol"],
                shots=[{"time": 0.0, "basis": "S2"}, {"time": 1.0, "basis": "S3"}],
            ),
        )
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["exact", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        row = read_rows(out)[0]
        assert "S3" in row["warning"]
        assert float(row["gk_leading[counts^K]"]) == 0.0

    def test_command_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, EXACT_DOC)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, dict(EXACT_DOC, bogus=1))
        out = tmp_path / "out"
        assert main(["exact", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        out = tmp_path / "out"
        code = main(["exact", "--config", str(tmp_path / "nope.yaml"), "--out", str(out)])
        assert code == EXIT_CONFIG

    def test_resource_guard_exit_code(self, tmp_path, capsys):
        # alpha = 50 needs the cutoff 3010, whose sector eigendata would take 136 GiB
        doc = _doc(EXACT_DOC, protocol__alpha=50.0, exact__engine="fock")
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["exact", "--config", str(cfg), "--out", str(out)]) == EXIT_RESOURCE
        assert "Fock sector eigendata (n_max=3010)" in capsys.readouterr().err


    def test_spin_resource_guard_exit_code(self, tmp_path, capsys):
        # spin-100000 operators would need hundreds of GiB: refused before allocating
        doc = _doc(EXACT_DOC, model__two_j=200000)
        out = tmp_path / "out"
        assert main(["exact", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_RESOURCE
        err = capsys.readouterr().err
        assert err.startswith("resource guard:") and "Traceback" not in err
        assert not (out / "results.csv").exists()

    def test_fock_guard_precedes_the_pulse_weights(self, tmp_path, monkeypatch, capsys):
        # alpha = 1e5 needs n_max ~ 1e10: the pulse weights alone would need 75 GiB
        def unreachable(*args):
            raise AssertionError("_coherent_mode ran before the memory guard")

        monkeypatch.setattr(weak_measurement, "_coherent_mode", unreachable)
        doc = _doc(EXACT_DOC, exact__engine="fock", protocol__alpha=1.0e5)
        out = tmp_path / "out"
        assert main(["exact", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_RESOURCE
        assert "Fock sector eigendata" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

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
        # the config embedded in the manifest regenerates the CSV byte-for-byte
        cfg = write_config(tmp_path, SIM_DOC)
        out1 = tmp_path / "a"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        manifest = json.loads((out1 / "manifest.json").read_text())
        cfg2 = write_config(tmp_path, manifest["config"], name="replay.yaml")
        out2 = tmp_path / "b"
        assert main(["simulate", "--config", str(cfg2), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

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

    def test_manifest_records_the_worker_and_chunk_layout(self, tmp_path):
        cfg = write_config(tmp_path, SIM_DOC)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--threads", "3"]) == EXIT_OK
        run = json.loads((out / "manifest.json").read_text())["run"]
        # three workers asked for, one chunk to run: one worker runs it
        assert run == {"chunk_size": trajectory_mc.CHUNK_SIZE, "protocols": [{"workers": 1, "chunks": 1}]}

    def test_defaulted_run_steps_down_where_explicit_threads_exit(self, tmp_path, monkeypatch):
        # two chunks of a spin-1/2 need ~5 MiB each: under an 8 MiB guard one
        # worker fits and two do not
        monkeypatch.setattr(trajectory_mc, "usable_cores", lambda: 2)
        monkeypatch.setattr(errors, "MEMORY_GUARD_BYTES", 8 * 1024**2)
        doc = dict(SIM_DOC, mc={"sequences": 2 * trajectory_mc.CHUNK_SIZE, "mode": "kraus_quantum"})
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == EXIT_OK
        run = json.loads((tmp_path / "a" / "manifest.json").read_text())["run"]
        assert run["protocols"] == [{"workers": 1, "chunks": 2}]
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b"), "--threads", "2"]) == EXIT_RESOURCE

    def test_threads_do_not_change_results(self, tmp_path):
        cfg = write_config(tmp_path, SIM_DOC)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1), "--threads", "1"])
        main(["simulate", "--config", str(cfg), "--out", str(out2), "--threads", "4"])
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

    def test_simulate_computes_no_correlation(self, tmp_path, monkeypatch):
        # simulate reports gk_leading and gk_exact_unitary only; C is never needed
        calls = []
        real = weak_measurement.correlation

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(weak_measurement, "correlation", counting)
        protocol = dict(SIM_DOC["protocol"], final_time_grid=[0.5 + 0.25 * i for i in range(8)])
        doc = dict(SIM_DOC, protocol=protocol, mc={"sequences": 500, "mode": "kraus_quantum"})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
        assert len(read_rows(out)) == 8
        assert calls == []

    def test_simulate_evaluates_each_column_once_over_the_grid(self, tmp_path, monkeypatch):
        calls = {"leading": 0, "exact": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cli, "gk_leading_grid", counting("leading", cli.gk_leading_grid))
        monkeypatch.setattr(cli, "gk_exact_unitary_grid", counting("exact", cli.gk_exact_unitary_grid))
        protocol = dict(SIM_DOC["protocol"], final_time_grid=[0.5 + 0.25 * i for i in range(8)])
        doc = dict(SIM_DOC, protocol=protocol, mc={"sequences": 500, "mode": "kraus_quantum"})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
        assert len(read_rows(out)) == 8
        assert calls == {"leading": 1, "exact": 1}

    def test_warning_column_for_closed_protocol(self, tmp_path):
        shots = [{"time": 0.0, "basis": "S2"}, {"time": 1.0, "basis": "S3"}]
        doc = dict(SIM_DOC, protocol=dict(SIM_DOC["protocol"], shots=shots), mc={"sequences": 500})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
        assert "S3" in read_rows(out)[0]["warning"]

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
    ("nan-coefficient", lambda tmp: _doc(EXACT_DOC, model__hamiltonian={"jz": math.nan}), "model:"),
    ("nan-shot-time", lambda tmp: _doc(EXACT_DOC, protocol__shots__0__time=math.nan), "protocol.shots"),
    ("infinite-tau", lambda tmp: _doc(EXACT_DOC, protocol__tau=math.inf), "tau must be positive"),
    # the Fock cutoff comes from alpha; a config that still sets one is refused
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
    ("sweep-value-negative-alpha", lambda tmp: SWEEP_DOC, "sweep value -1.0"),
    # values that were silently coerced into another run
    ("fractional-two-j", lambda tmp: _doc(EXACT_DOC, model__two_j=1.5), "model.two_j"),
    (
        "text-include-exact-unitary",
        lambda tmp: _doc(EXACT_DOC, exact__include_exact_unitary="no"),
        "exact.include_exact_unitary",
    ),
    ("boolean-sequences", lambda tmp: _doc(SIM_DOC, mc__sequences=True), "mc.sequences"),
    # a run with no rows, which would leave results.csv without a header
    (
        "preset-file-empty",
        lambda tmp: {"command": "snr", "snr": {"preset_file": _write_preset(tmp, "{}\n")}},
        "snr.preset_file has no scenarios",
    ),
    # sections snr never reads, holding what manifest.json cannot store
    ("unread-section-date", lambda tmp: dict(SNR_DOC, mc=datetime.date(2024, 1, 1)), "manifest.json"),
    ("unread-section-mixed-keys", lambda tmp: dict(SNR_DOC, mc={1: "a", "b": "c"}), "manifest.json"),
]


@pytest.mark.parametrize(
    "make_doc, names", [case[1:] for case in INVALID_CONFIGS], ids=[case[0] for case in INVALID_CONFIGS]
)
def test_invalid_value_is_a_config_error(tmp_path, capsys, make_doc, names):
    doc = make_doc(tmp_path)
    out = tmp_path / "out"
    code = main([doc["command"], "--config", str(write_config(tmp_path, doc)), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error:") and names in err
    assert "Traceback" not in err
    assert not (out / "results.csv").exists()


def test_sweep_checks_every_value_before_computing(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "gk_leading_grid", lambda *args: calls.append(args))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(write_config(tmp_path, SWEEP_DOC)), "--out", str(out)]) == EXIT_CONFIG
    assert calls == []


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
    "gk_predicted_from_C[counts^K],gk_exact_unitary[counts^K],warning"
)
SIMULATE_HEADER = (
    "order_K,shot_times[s],bases,alpha,tau[s],mode,sequences,seed,mc_mean[counts^K],mc_std_error[counts^K],"
    "per_shot_variance_half[counts^2],per_shot_variance_raw[counts^2],empirical_snr,gk_leading[counts^K],"
    "gk_exact_unitary[counts^K],abs_error[counts^K],sigma_distance,warning"
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
