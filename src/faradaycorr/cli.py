"""Command-line front end.

    faradaycorr exact    --config run.yaml --out results/
    faradaycorr simulate --config run.yaml --out results/ [--threads N]
    faradaycorr snr      --config run.yaml --out results/
    faradaycorr sweep    --config run.yaml --out results/ [--threads N]

Writes results.csv (long format, deterministic for a fixed seed) and
manifest.json (config hash, version, seed, timestamps, provenance, and for
Monte Carlo runs the worker and chunk layout) to the output directory.

--threads exists only on the commands that run Monte Carlo workers, and
sets how many threads run each protocol's chunks; without it, one per usable
core, within the memory guard. The count never changes the results. An
option is given as --opt value or --opt=value, and a unique prefix of its
name will do. An empty --out, or one that is, or lies below, an existing
path other than a directory is a usage error, found before the config is
read. Exit codes: 0 success, 2 config error (and usage errors), 3 numerical
guard, 4 resource guard.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import io
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import __version__
from .config import ExactRun, Run, SimulateRun, SnrRun, SweepRun, config_json, load_config, parse_config, spelled
from .errors import ConfigError, NumericalGuardError, ResourceGuardError
from .snr import snr_material
from .trajectory_mc import CHUNK_SIZE, default_workers, empirical_snr, run_sequences
from .weak_measurement import protocol_grids

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_RESOURCE = 4

# Each command's columns of results.csv, in order, with the module that computes
# each (manifest.json's provenance); a sweep prepends sweep_path and sweep_value.
EXACT_COLUMNS = {
    "order_K": "cli", "shot_times[s]": "cli", "bases": "cli", "sign_type": "cli", "alpha": "cli", "tau[s]": "cli",
    "correlation_C[(rad/s)^K]": "correlations", "gk_leading[counts^K]": "weak_measurement",
    "gk_exact_unitary[counts^K]": "weak_measurement", "warning": "cli",
}
SIMULATE_COLUMNS = {
    "order_K": "cli", "shot_times[s]": "cli", "bases": "cli", "alpha": "cli", "tau[s]": "cli", "mode": "cli",
    "sequences": "cli", "seed": "cli", "mc_mean[counts^K]": "trajectory_mc", "mc_std_error[counts^K]": "trajectory_mc",
    "per_shot_variance_half[counts^2]": "trajectory_mc", "empirical_snr": "trajectory_mc",
    "gk_leading[counts^K]": "weak_measurement", "gk_exact_unitary[counts^K]": "weak_measurement",
    "abs_error[counts^K]": "cli", "sigma_distance": "cli", "warning": "cli",
}
SNR_COLUMNS = {
    "order_K": "cli", "regime": "snr", "snr": "snr", "snr_per_sqrt_L": "snr", "L_for_unit_snr": "snr",
    "base_factor": "snr", "prefactor[spins]": "snr",
}


@dataclass(frozen=True)
class Block:
    """Consecutive rows of a results table: ``same`` maps each column whose
    cell is the same on every row to that cell, ``each`` every other column
    to a sequence of one cell per row, and ``layout`` the manifest's
    ``run.protocols`` entry of each Monte Carlo the rows ran."""

    same: dict
    each: dict = field(default_factory=dict)
    layout: list = field(default_factory=list)

    def __post_init__(self):
        if len({len(cells) for cells in self.each.values()}) > 1:
            raise ValueError("the per-row columns of a block differ in length")

    @property
    def rows(self) -> int:
        return len(next(iter(self.each.values()))) if self.each else 1


@dataclass(frozen=True)
class Table:
    """A command's results: the columns of results.csv in order, each mapped
    to the module that computes it, and the blocks of rows, which give each
    column a cell or cells. ``exact`` and ``simulate`` give one block per
    protocol grid, ``snr`` one block, and a sweep each variant's blocks with
    its path and value as shared cells. The cells read as ``csv.writer``
    writes them (``_cell``, docs/output_schema.md)."""

    columns: dict[str, str]
    blocks: list[Block]


def _protocol_cells(proto, finals) -> tuple[dict, dict]:
    """The protocol columns of a block with one row per final time, ``proto``
    with its last shot at that time: the cells all rows share, and the shot
    times of each row."""
    first = "".join(f"{s.time!r};" for s in proto.shots[:-1])
    same = {
        "order_K": proto.order,
        "bases": ";".join(s.basis.value for s in proto.shots),
        "alpha": proto.sensor.alpha,
        "tau[s]": proto.sensor.tau,
    }
    return same, {"shot_times[s]": [first + repr(t) for t in finals]}


def cmd_exact(run: ExactRun) -> Table:
    """One row per final time; the columns come from one walk of the
    protocol's chains over the grid, whose first K-1 shots are applied once."""
    proto = run.protocol
    corr, leading, exact = protocol_grids(run.model, proto, run.finals, run.engine)
    same, each = _protocol_cells(proto, run.finals)
    same.update({"sign_type": proto.query().label(), "warning": proto.warning})
    each.update({"correlation_C[(rad/s)^K]": corr.tolist(), "gk_leading[counts^K]": leading.tolist()})
    each["gk_exact_unitary[counts^K]"] = [None] * len(run.finals) if exact is None else exact.tolist()
    return Table(EXACT_COLUMNS, [Block(same, each)])


def cmd_simulate(run: SimulateRun, threads: int | None) -> Table:
    """One row per final time, each with its own Monte Carlo; ``threads``
    None takes ``default_workers``."""
    first, finals = run.mcs[0], [mc.proto.shots[-1].time for mc in run.mcs]
    leading = exact = [None] * len(finals)
    if first.mode == "kraus_quantum":
        _, leading, exact = protocol_grids(first.model, first.proto, finals)
        leading, exact = leading.tolist(), exact.tolist()
    same, each = _protocol_cells(first.proto, finals)
    same.update({"mode": first.mode, "seed": first.seed, "warning": first.proto.warning})
    rows, layout = [], []
    for mc, lead, ex in zip(run.mcs, leading, exact):
        cfg = replace(mc, workers=default_workers(mc) if threads is None else threads)
        est = run_sequences(cfg)
        layout.append({"workers": est.workers, "chunks": est.chunks, "smallest_norm2": est.smallest_norm2})
        abs_err = None if ex is None else abs(est.mean - ex)
        rows.append({
            "sequences": est.n_sequences, "mc_mean[counts^K]": est.mean, "mc_std_error[counts^K]": est.std_error,
            "per_shot_variance_half[counts^2]": est.per_shot_variance, "empirical_snr": empirical_snr(est),
            "gk_leading[counts^K]": lead, "gk_exact_unitary[counts^K]": ex, "abs_error[counts^K]": abs_err,
            "sigma_distance": abs_err / est.std_error if abs_err is not None and 0 < est.std_error < math.inf else None,
        })
    each.update({column: [row[column] for row in rows] for column in rows[0]})
    return Table(SIMULATE_COLUMNS, [Block(same, each, layout)])


def cmd_snr(run: SnrRun) -> Table:
    rows = []
    for scenario in run.scenarios:
        report = snr_material(scenario)
        rows.append({
            "order_K": scenario.K, "regime": report.regime, "snr": report.snr,
            "snr_per_sqrt_L": report.snr_per_sqrt_L, "L_for_unit_snr": report.L_for_unit_snr,
            "base_factor": report.base_factor, "prefactor[spins]": report.prefactor,
        })
    return Table(SNR_COLUMNS, [Block({}, {column: [row[column] for row in rows] for column in SNR_COLUMNS})])


def cmd_sweep(run: SweepRun, threads: int | None) -> Table:
    """Each variant's blocks, with the sweep path and value in every row and
    the value in every layout entry. Each variant is parsed as it runs, so
    its model and spectral data are freed once its rows are formed."""
    blocks = []
    for value, variant in run.variants:
        table = _table(run.command, parse_config(variant), threads)
        blocks.extend(Block({**block.same, "sweep_path": run.path, "sweep_value": value}, block.each,
                            [dict(entry, sweep_value=spelled(value)) for entry in block.layout])
                      for block in table.blocks)
    return Table({"sweep_path": "cli", "sweep_value": "cli", **table.columns}, blocks)


# Each command's line in the top-level help, its runner, and whether it runs
# Monte Carlo workers, and so takes --threads and passes the count on.
_COMMANDS = {
    "exact": ("the correlation C and its count correlations over the final times, computed exactly", cmd_exact, False),
    "simulate": ("the count correlation by seeded Monte Carlo, beside its exact value", cmd_simulate, True),
    "snr": ("closed-form signal-to-noise ratios of a material scenario", cmd_snr, False),
    "sweep": ("one of the other commands at each value of one config key", cmd_sweep, True),
}


def _table(command: str, run: Run, threads: int | None) -> Table:
    _, runner, workers = _COMMANDS[command]
    return runner(run, threads) if workers else runner(run)


# Text that csv.writer leaves as it is in any dialect with the defaults of
# "excel": no delimiter, quote, line end or space. Other text is quoted by
# csv.writer itself, so each cell is what it writes on every Python version.
_PLAIN = re.compile(r"[\w.;:+\-()\[\]^/]*", re.ASCII)


def _quoted(text: str) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def _cell(value) -> str:
    """A cell of results.csv as csv.writer writes it in a row of several
    cells: None empty, a float its repr, anything else its str, quoted
    where that text needs it."""
    if value is None:
        return ""
    text = repr(value) if isinstance(value, float) else str(value)
    return text if _PLAIN.fullmatch(text) else _quoted(text)


def _cells(values) -> list[str]:
    """``_cell`` of each value; a column of plain floats or of plain text is
    checked once."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return list(map(repr, values))
    if kinds == {str} and _PLAIN.fullmatch("".join(values)):
        return list(values)
    return list(map(_cell, values))


def _lines(table: Table) -> list[str]:
    """The lines of results.csv: the header, then each block's rows. The
    cells a block shares are formatted once."""
    lines = [",".join(map(_cell, table.columns))]
    for block in table.blocks:
        parts = [
            itertools.repeat(_cell(block.same[column]), block.rows) if column in block.same
            else _cells(block.each[column])
            for column in table.columns
        ]
        lines.extend(map(",".join, zip(*parts)))
    if len(table.columns) == 1:  # csv.writer quotes a row's lone empty cell
        lines = [line or '""' for line in lines]
    return lines


def _write_outputs(out_dir: Path, table: Table, config_text: str, command: str, seed) -> None:
    """Write results.csv, then manifest.json: strict JSON with its keys
    sorted, one top-level key per line, each value as ``json.dumps`` writes
    it with sorted keys. Its ``config`` is ``config_text`` as it stands, and
    ``config_sha256`` the SHA-256 of that text."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "results.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(_lines(table)) + "\n")
    fields = {
        "tool_version": __version__,
        "command": command,
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "seed": seed,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "provenance": table.columns,
    }
    if layout := [entry for block in table.blocks for entry in block.layout]:
        fields["run"] = {"chunk_size": CHUNK_SIZE, "protocols": layout}
    texts = {key: json.dumps(value, sort_keys=True, allow_nan=False) for key, value in fields.items()}
    texts["config"] = config_text
    lines = ",\n".join(f"  {json.dumps(key)}: {texts[key]}" for key in sorted(texts))
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        fh.write("{\n" + lines + "\n}\n")


def _parser():
    """The argparse parser: the reader of every command line that
    ``_plain_args`` does not take, and the only source of help and usage
    errors. The module docstring is the help text, printed as written."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="faradaycorr", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.set_defaults(threads=None)
    sub = parser.add_subparsers(dest="command", required=True, title="commands", metavar="command")
    for name, (text, _, workers) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="the YAML run config")
        p.add_argument("--out", required=True, help="the output directory")
        if workers:
            p.add_argument(
                "--threads",
                type=int,
                help="threads that run each protocol's chunks (default: one per usable core, within "
                "the memory guard); the count never changes the results",
            )
    return parser


def _plain_args(argv: list[str]) -> dict | None:
    """``vars(_parser().parse_args(argv))`` for a well-formed command line,
    read without argparse: a command, then each of its own options once, in
    full, as ``--opt value`` or ``--opt=value``, no value starting with "-",
    and --threads a text ``int`` takes. None for any other command line,
    which the parser reads or refuses."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = ("--config", "--out", "--threads") if _COMMANDS[argv[0]][2] else ("--config", "--out")
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        if not eq:
            value = next(tokens, None)
        if name not in options or name in given or value is None or value.startswith("-"):
            return None
        given[name] = value
    if "--config" not in given or "--out" not in given:
        return None
    threads = given.get("--threads")
    if threads is not None:
        try:
            threads = int(threads)  # as argparse's type=int
        except ValueError:
            return None
    return {"command": argv[0], "config": given["--config"], "out": given["--out"], "threads": threads}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or vars(_parser().parse_args(argv))
    command, threads = args["command"], args["threads"]
    if threads is not None and threads < 1:
        _parser().error(f"--threads must be at least 1, got {threads}")
    if not args["out"]:  # Path("") is the current directory
        _parser().error("--out is empty; it names the output directory")
    out = Path(args["out"])
    blocker = next(path for path in (out, *out.parents) if path.exists())  # out, or its nearest existing parent
    if not blocker.is_dir():
        _parser().error(f"--out {args['out']}: {blocker} exists and is not a directory")
    try:
        raw = load_config(args["config"])
        if raw.get("command", command) != command:  # before the parse, whose guards are the other command's
            raise ConfigError(f"config command {raw['command']!r} does not match CLI command {command!r}")
        run = parse_config(raw)
        text = config_json(raw)
        _write_outputs(out, _table(command, run, threads), text, command, run.seed)
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
