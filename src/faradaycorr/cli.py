"""Command-line front end.

    faradaycorr exact    --config run.yaml --out results/
    faradaycorr simulate --config run.yaml --out results/ [--threads N]
    faradaycorr snr      --config run.yaml --out results/
    faradaycorr sweep    --config run.yaml --out results/

Writes ``results.csv`` (long format, deterministic for a fixed seed) and
``manifest.json`` (config hash, version, seed, timestamps, provenance) to the
output directory. Exit codes: 0 success, 2 config error, 3 numerical guard,
4 resource guard.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import os
import sys
import warnings
from pathlib import Path

from . import __version__
from .correlations import correlation_grid
from .config import (
    build_field,
    build_model,
    build_protocols,
    build_scenarios,
    load_config,
    set_config_path,
    validate_config,
)
from .errors import ConfigError, NumericalGuardError, ResourceGuardError
from .sensor_optics import FockTruncation
from .snr import snr_material
from .trajectory_mc import TrajectoryConfig, empirical_snr, run_sequences
from .weak_measurement import (
    ProtocolWarning,
    gk_exact_unitary_grid,
    gk_leading_grid,
    prediction_factor,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_RESOURCE = 4

EXACT_COLUMNS = [
    "order_K",
    "shot_times[s]",
    "bases",
    "sign_type",
    "alpha",
    "tau[s]",
    "correlation_C[(rad/s)^K]",
    "gk_leading[counts^K]",
    "gk_predicted_from_C[counts^K]",
    "gk_exact_unitary[counts^K]",
    "warning",
]

SIMULATE_COLUMNS = [
    "order_K",
    "shot_times[s]",
    "bases",
    "alpha",
    "tau[s]",
    "mode",
    "sequences",
    "seed",
    "mc_mean[counts^K]",
    "mc_std_error[counts^K]",
    "per_shot_variance_half[counts^2]",
    "per_shot_variance_raw[counts^2]",
    "empirical_snr",
    "gk_leading[counts^K]",
    "gk_exact_unitary[counts^K]",
    "abs_error[counts^K]",
    "sigma_distance",
]

SNR_COLUMNS = [
    "order_K",
    "regime",
    "snr",
    "snr_per_sqrt_L",
    "L_for_unit_snr",
    "base_factor",
    "prefactor[spins]",
]

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


def _protocol_row_base(proto) -> dict:
    return {
        "order_K": proto.order,
        "shot_times[s]": ";".join(repr(s.time) for s in proto.shots),
        "bases": ";".join(s.basis.value for s in proto.shots),
        "alpha": proto.sensor.alpha,
        "tau[s]": proto.sensor.tau,
    }


def cmd_exact(raw: dict) -> tuple[list[str], list[dict]]:
    model = build_model(raw["model"])
    section = raw.get("exact", {})
    include_exact = bool(section.get("include_exact_unitary", False))
    engine = section.get("engine", "coherent")
    tr = FockTruncation(int(section["n_max"])) if "n_max" in section else None
    rows = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ProtocolWarning)
        protocols = build_protocols(raw["protocol"])
    proto_warning = "; ".join(sorted({str(w.message) for w in caught}))
    # build_protocols varies only the last shot's time, so every column is
    # one grid evaluation: the first K-1 shots are applied once per chain.
    queries = [proto.query() for proto in protocols]
    corr = correlation_grid(model, queries)
    leading = gk_leading_grid(model, protocols)
    exact = gk_exact_unitary_grid(model, protocols, tr, engine=engine) if include_exact else None
    factor = prediction_factor(protocols[0])
    for i, (proto, query) in enumerate(zip(protocols, queries)):
        row = _protocol_row_base(proto)
        row.update(
            {
                "sign_type": query.label(),
                "correlation_C[(rad/s)^K]": float(corr[i]),
                "gk_leading[counts^K]": float(leading[i]),
                "gk_predicted_from_C[counts^K]": factor * float(corr[i]),
                "gk_exact_unitary[counts^K]": None if exact is None else float(exact[i]),
                "warning": proto_warning,
            }
        )
        rows.append(row)
    return EXACT_COLUMNS, rows


def cmd_simulate(raw: dict, threads: int) -> tuple[list[str], list[dict]]:
    mc = raw["mc"]
    mode = mc.get("mode", "kraus_quantum")
    seed = int(raw["seed"])
    rows = []
    # one model for every protocol, so its spectral data is computed once
    tgt = build_model(raw["model"]) if mode == "kraus_quantum" else build_field(mc["field"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ProtocolWarning)
        for proto in build_protocols(raw["protocol"]):
            if mode == "kraus_quantum":
                leading = float(gk_leading_grid(tgt, [proto])[0])
                exact = float(gk_exact_unitary_grid(tgt, [proto])[0])
            else:
                leading = exact = None
            cfg = TrajectoryConfig(
                sequences=int(mc["sequences"]),
                seed=seed,
                mode=mode,
                proto=proto,
                model=tgt,
                workers=max(1, threads),
            )
            est = run_sequences(cfg)
            row = _protocol_row_base(proto)
            abs_err = None if exact is None else abs(est.mean - exact)
            row.update(
                {
                    "mode": mode,
                    "sequences": est.n_sequences,
                    "seed": seed,
                    "mc_mean[counts^K]": est.mean,
                    "mc_std_error[counts^K]": est.std_error,
                    "per_shot_variance_half[counts^2]": est.per_shot_variance,
                    "per_shot_variance_raw[counts^2]": est.per_shot_variance_raw,
                    "empirical_snr": empirical_snr(est),
                    "gk_leading[counts^K]": leading,
                    "gk_exact_unitary[counts^K]": exact,
                    "abs_error[counts^K]": abs_err,
                    "sigma_distance": (
                        None
                        if abs_err is None or est.std_error == 0
                        else abs_err / est.std_error
                    ),
                }
            )
            rows.append(row)
    return SIMULATE_COLUMNS, rows


def cmd_snr(raw: dict) -> tuple[list[str], list[dict]]:
    rows = []
    for k, scenario in build_scenarios(raw["snr"]):
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
    return SNR_COLUMNS, rows


def cmd_sweep(raw: dict, threads: int) -> tuple[list[str], list[dict]]:
    sweep = raw["sweep"]
    base_command = sweep["command"]
    columns = None
    rows = []
    for value in sweep["values"]:
        variant = set_config_path(raw, sweep["path"], value)
        variant["command"] = base_command
        variant.pop("sweep")
        validate_config(variant)
        cols, sub_rows = _dispatch(base_command, variant, threads)
        columns = ["sweep_path", "sweep_value"] + cols
        for row in sub_rows:
            row = dict(row)
            row["sweep_path"] = sweep["path"]
            row["sweep_value"] = value
            rows.append(row)
    return columns or ["sweep_path", "sweep_value"], rows


def _dispatch(command: str, raw: dict, threads: int) -> tuple[list[str], list[dict]]:
    if command == "exact":
        return cmd_exact(raw)
    if command == "simulate":
        return cmd_simulate(raw, threads)
    if command == "snr":
        return cmd_snr(raw)
    return cmd_sweep(raw, threads)


def _write_outputs(out_dir: Path, columns, rows, raw: dict, command: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in columns])
    config_blob = json.dumps(raw, sort_keys=True).encode()
    manifest = {
        "tool_version": __version__,
        "command": command,
        "config_sha256": hashlib.sha256(config_blob).hexdigest(),
        "seed": raw.get("seed"),
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "provenance": {c: PROVENANCE.get(c, "cli") for c in columns},
        "config": raw,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
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
    if threads is None:
        threads = int(os.environ.get("FARADAYCORR_THREADS", "1"))
    try:
        raw = load_config(args.config)
        if raw.get("command") != args.command:
            raise ConfigError(
                f"config command {raw.get('command')!r} does not match CLI command {args.command!r}"
            )
        validate_config(raw)
        columns, rows = _dispatch(args.command, raw, threads)
        _write_outputs(Path(args.out), columns, rows, raw, args.command)
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
