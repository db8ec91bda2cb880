"""Command-line front end.

    faradaycorr exact    --config run.yaml --out results/
    faradaycorr simulate --config run.yaml --out results/ [--threads N]
    faradaycorr snr      --config run.yaml --out results/
    faradaycorr sweep    --config run.yaml --out results/ [--threads N]

Writes ``results.csv`` (long format, deterministic for a fixed seed) and
``manifest.json`` (config hash, version, seed, timestamps, provenance, and for
Monte Carlo runs the worker and chunk layout) to the output directory. The
columns of ``results.csv`` are the keys of each command's rows, in order.
``--threads`` exists only on the commands that run Monte Carlo workers, and
sets how many threads run each protocol's chunks; without it, one per usable
core, within the memory guard. The count never changes the results. An
``--out`` that is, or lies below, an existing path other than a directory
is a usage error, found before the config is read. Exit codes: 0 success,
2 config error (and usage errors), 3 numerical guard, 4 resource guard.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from . import __version__
from .correlations import correlation_grid
from .config import NON_FINITE, ExactRun, Run, SimulateRun, SnrRun, SweepRun, load_config, parse_config
from .errors import ConfigError, NumericalGuardError, ResourceGuardError
from .snr import snr_material
from .trajectory_mc import CHUNK_SIZE, default_workers, empirical_snr, run_sequences
from .weak_measurement import ProtocolWarning, gk_exact_unitary_grid, gk_leading_grid, leading_order

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_RESOURCE = 4

PROVENANCE = {
    "correlation_C[(rad/s)^K]": "correlations",
    "gk_leading[counts^K]": "weak_measurement",
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


def _protocol_columns(proto, finals, **after_bases) -> list[dict]:
    """The protocol columns of each final time's row: those of ``proto``
    with its last shot at that time. All but that time are formed once."""
    first = "".join(f"{s.time!r};" for s in proto.shots[:-1])
    fixed = {
        "bases": ";".join(s.basis.value for s in proto.shots),
        **after_bases,
        "alpha": proto.sensor.alpha,
        "tau[s]": proto.sensor.tau,
    }
    return [{"order_K": proto.order, "shot_times[s]": first + repr(t), **fixed} for t in finals]


def cmd_exact(run: ExactRun) -> list[dict]:
    """One row per final time; each column is one grid evaluation of the
    protocol, whose first K-1 shots are applied once per chain."""
    model, proto, finals = run.model, run.protocol, run.finals
    query = proto.query()
    corr = correlation_grid(model, query, finals)
    leading = leading_order(proto, corr)  # gk_leading_grid, from the C already computed
    exact = None
    if run.engine is not None:
        exact = gk_exact_unitary_grid(model, proto, finals, run.engine == "fock")
    return [
        {
            **columns,
            "correlation_C[(rad/s)^K]": float(corr[i]),
            "gk_leading[counts^K]": float(leading[i]),
            "gk_exact_unitary[counts^K]": None if exact is None else float(exact[i]),
            "warning": run.protocol_warning,
        }
        for i, columns in enumerate(_protocol_columns(proto, finals, sign_type=query.label()))
    ]


def cmd_simulate(run: SimulateRun, threads: int | None) -> tuple[list[dict], list[dict]]:
    """The simulate rows, plus the worker and chunk layout of each
    protocol's Monte Carlo; ``threads`` None takes ``default_workers``."""
    mc, finals = run.mc, run.finals
    leading = exact = [None] * len(finals)
    if mc.mode == "kraus_quantum":
        leading = gk_leading_grid(mc.model, run.protocol, finals).tolist()
        exact = gk_exact_unitary_grid(mc.model, run.protocol, finals).tolist()
    rows, layout = [], []
    for t, columns, lead, ex in zip(finals, _protocol_columns(run.protocol, finals), leading, exact):
        with warnings.catch_warnings():  # its text is in the run's warning column already
            warnings.simplefilter("ignore", ProtocolWarning)
            cfg = replace(mc, proto=run.protocol.at(t))
        cfg = replace(cfg, workers=default_workers(cfg) if threads is None else threads)
        est = run_sequences(cfg)
        layout.append({"workers": est.workers, "chunks": est.chunks, "smallest_norm2": est.smallest_norm2})
        abs_err = None if ex is None else abs(est.mean - ex)
        sigma = None if abs_err is None or est.std_error == 0 else abs_err / est.std_error
        rows.append(
            {
                **columns,
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
        layout.extend(dict(entry, sweep_value=_stored_config(value)) for entry in sub_layout)
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
    its YAML spelling from ``config.NON_FINITE`` as a string, since RFC 8259
    JSON has no token for it."""
    if isinstance(value, float) and not math.isfinite(value):
        return next(spelling for spelling, x in NON_FINITE.items() if str(x) == str(value))
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
        writer = csv.writer(fh, lineterminator="\n")  # None as "", floats by repr, the rest by str
        writer.writerow(columns)
        writer.writerows(row.values() for row in rows)
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
    parser.set_defaults(threads=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("exact", "simulate", "snr", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        if name in ("simulate", "sweep"):  # the commands that run Monte Carlo workers
            p.add_argument("--threads", type=int)
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        parser.error(f"--threads must be at least 1, got {args.threads}")
    out = Path(args.out)
    blocker = next(path for path in (out, *out.parents) if path.exists())  # out, or its nearest existing parent
    if not blocker.is_dir():
        parser.error(f"--out {args.out}: {blocker} exists and is not a directory")
    try:
        raw = load_config(args.config)
        run = parse_config(raw)
        if raw["command"] != args.command:
            raise ConfigError(
                f"config command {raw['command']!r} does not match CLI command {args.command!r}"
            )
        stored = _stored_config(raw)
        config_sha256 = _config_sha256(stored)
        rows, layout = _dispatch(run, args.threads)
        _write_outputs(out, rows, layout, stored, config_sha256, args.command, run.seed)
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
