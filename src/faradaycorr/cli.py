"""Command-line front end.

    faradaycorr exact    --config run.yaml --out results/
    faradaycorr simulate --config run.yaml --out results/ [--threads N]
    faradaycorr snr      --config run.yaml --out results/
    faradaycorr sweep    --config run.yaml --out results/

Writes ``results.csv`` (long format, deterministic for a fixed seed) and
``manifest.json`` (config hash, version, seed, timestamps, provenance, and for
Monte Carlo runs the worker and chunk layout) to the output directory. The
columns of ``results.csv`` are the keys of each command's rows, in order.
Without ``--threads``, Monte Carlo runs one worker per usable core, within the
memory guard; the count never changes the results. Exit codes: 0 success,
2 config error, 3 numerical guard, 4 resource guard.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .correlations import correlation_grid
from .config import ExactRun, Run, SimulateRun, SnrRun, SweepRun, load_config, parse_config
from .errors import ConfigError, NumericalGuardError, ResourceGuardError
from .snr import snr_material
from .trajectory_mc import CHUNK_SIZE, default_workers, empirical_snr, run_sequences
from .weak_measurement import gk_exact_unitary_grid, gk_leading_grid, prediction_factor

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_RESOURCE = 4

PROVENANCE = {
    "correlation_C[(rad/s)^K]": "correlations",
    "gk_leading[counts^K]": "weak_measurement",
    "gk_predicted_from_C[counts^K]": "weak_measurement",
    "gk_exact_unitary[counts^K]": "weak_measurement",
    "mc_mean[counts^K]": "trajectory_mc",
    "mc_std_error[counts^K]": "trajectory_mc",
    "per_shot_variance_half[counts^2]": "trajectory_mc",
    "per_shot_variance_raw[counts^2]": "trajectory_mc",
    "empirical_snr": "trajectory_mc",
    "snr": "snr",
    "snr_per_sqrt_L": "snr",
    "L_for_unit_snr": "snr",
}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _protocol_row_base(proto, **after_bases) -> dict:
    return {
        "order_K": proto.order,
        "shot_times[s]": ";".join(repr(s.time) for s in proto.shots),
        "bases": ";".join(s.basis.value for s in proto.shots),
        **after_bases,
        "alpha": proto.sensor.alpha,
        "tau[s]": proto.sensor.tau,
    }


def _final_times(protocols) -> list[float]:
    """The last shot's time of each protocol. build_protocols varies only that
    time, so each column is one grid evaluation of the first protocol: its
    first K-1 shots are applied once per chain."""
    return [proto.shots[-1].time for proto in protocols]


def cmd_exact(run: ExactRun) -> list[dict]:
    model, protocols = run.model, run.protocols
    head, finals = protocols[0], _final_times(protocols)
    query = head.query()
    corr = correlation_grid(model, query, finals)
    leading = gk_leading_grid(model, head, finals)
    exact = None
    if run.include_exact_unitary:
        exact = gk_exact_unitary_grid(model, head, finals, run.fock)
    factor = prediction_factor(head)
    return [
        {
            **_protocol_row_base(proto, sign_type=query.label()),
            "correlation_C[(rad/s)^K]": float(corr[i]),
            "gk_leading[counts^K]": float(leading[i]),
            "gk_predicted_from_C[counts^K]": factor * float(corr[i]),
            "gk_exact_unitary[counts^K]": None if exact is None else float(exact[i]),
            "warning": run.protocol_warning,
        }
        for i, proto in enumerate(protocols)
    ]


def cmd_simulate(run: SimulateRun, threads: int | None) -> tuple[list[dict], list[dict]]:
    """The simulate rows, plus the worker and chunk layout of each
    protocol's Monte Carlo; ``threads`` None takes ``default_workers``."""
    mc = run.mc
    leading = exact = [None] * len(run.protocols)
    if mc.mode == "kraus_quantum":
        head, finals = run.protocols[0], _final_times(run.protocols)
        leading = gk_leading_grid(mc.model, head, finals).tolist()
        exact = gk_exact_unitary_grid(mc.model, head, finals).tolist()
    rows, layout = [], []
    for proto, lead, ex in zip(run.protocols, leading, exact):
        cfg = replace(mc, proto=proto)
        cfg = replace(cfg, workers=default_workers(cfg) if threads is None else threads)
        est = run_sequences(cfg)
        layout.append({"workers": est.workers, "chunks": est.chunks})
        abs_err = None if ex is None else abs(est.mean - ex)
        sigma = None if abs_err is None or est.std_error == 0 else abs_err / est.std_error
        rows.append(
            {
                **_protocol_row_base(proto),
                "mode": mc.mode,
                "sequences": est.n_sequences,
                "seed": mc.seed,
                "mc_mean[counts^K]": est.mean,
                "mc_std_error[counts^K]": est.std_error,
                "per_shot_variance_half[counts^2]": est.per_shot_variance,
                "per_shot_variance_raw[counts^2]": est.per_shot_variance_raw,
                "empirical_snr": empirical_snr(est),
                "gk_leading[counts^K]": lead,
                "gk_exact_unitary[counts^K]": ex,
                "abs_error[counts^K]": abs_err,
                "sigma_distance": sigma,
                "warning": run.protocol_warning,
            }
        )
    return rows, layout


def cmd_snr(run: SnrRun) -> list[dict]:
    rows = []
    for k, scenario in run.scenarios:
        report = snr_material(scenario)
        rows.append(
            {
                "order_K": k,
                "regime": report.regime,
                "snr": report.snr,
                "snr_per_sqrt_L": report.snr / scenario.L**0.5,
                "L_for_unit_snr": report.L_for_unit_snr,
                "base_factor": report.base_factor,
                "prefactor[spins]": report.prefactor,
            }
        )
    return rows


def cmd_sweep(run: SweepRun, threads: int | None) -> tuple[list[dict], list[dict]]:
    rows, layout = [], []
    for value, variant in run.runs:
        sub_rows, sub_layout = _dispatch(variant, threads)
        rows.extend({"sweep_path": run.path, "sweep_value": value, **row} for row in sub_rows)
        layout.extend(dict(entry, sweep_value=value) for entry in sub_layout)
    return rows, layout


def _dispatch(run: Run, threads: int | None) -> tuple[list[dict], list[dict]]:
    """Rows (their keys are the columns) and the Monte Carlo layout, one
    entry per simulated protocol."""
    if isinstance(run, ExactRun):
        return cmd_exact(run), []
    if isinstance(run, SimulateRun):
        return cmd_simulate(run, threads)
    if isinstance(run, SnrRun):
        return cmd_snr(run), []
    return cmd_sweep(run, threads)


def _stored_config(value):
    """The config as manifest.json stores it: each non-finite float becomes
    its YAML spelling as a string (``.nan``, ``.inf``, ``-.inf``), since RFC
    8259 JSON has no token for it."""
    if isinstance(value, float) and not math.isfinite(value):
        return ".nan" if math.isnan(value) else ".inf" if value > 0 else "-.inf"
    if isinstance(value, dict):
        return {key: _stored_config(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_stored_config(item) for item in value]
    return value


def _config_sha256(stored: dict) -> str:
    """Hash of the stored config; a value JSON cannot hold is a config error,
    found before anything runs or is written."""
    try:
        blob = json.dumps(stored, sort_keys=True, allow_nan=False).encode()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config cannot be stored in manifest.json: {exc}") from exc
    return hashlib.sha256(blob).hexdigest()


def _write_outputs(out_dir: Path, rows, layout, stored: dict, config_sha256: str, command: str, seed) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = list(rows[0])
    with open(out_dir / "results.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(value) for value in row.values()] for row in rows)
    manifest = {
        "tool_version": __version__,
        "command": command,
        "config_sha256": config_sha256,
        "seed": seed,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "provenance": {c: PROVENANCE.get(c, "cli") for c in columns},
        "config": stored,
    }
    if layout:
        manifest["run"] = {"chunk_size": CHUNK_SIZE, "protocols": layout}
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="faradaycorr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("exact", "simulate", "snr", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)
    threads = args.threads
    if threads is not None and threads < 1:
        parser.error(f"--threads must be at least 1, got {threads}")
    try:
        raw = load_config(args.config)
        run = parse_config(raw)
        if raw["command"] != args.command:
            raise ConfigError(
                f"config command {raw['command']!r} does not match CLI command {args.command!r}"
            )
        stored = _stored_config(raw)
        config_sha256 = _config_sha256(stored)
        rows, layout = _dispatch(run, threads)
        _write_outputs(Path(args.out), rows, layout, stored, config_sha256, args.command, run.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
