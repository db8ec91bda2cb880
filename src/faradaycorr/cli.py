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
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import __version__
from .config import ExactRun, Run, SimulateRun, SnrRun, SweepRun, config_json, load_config, parse_config, spelled
from .errors import ConfigError, NumericalGuardError, ResourceGuardError
from .snr import snr_material
from .trajectory_mc import CHUNK_SIZE, default_workers, empirical_snr, run_sequences
from .weak_measurement import ProtocolWarning, protocol_grids

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
    "empirical_snr": "trajectory_mc",
    "snr": "snr",
    "snr_per_sqrt_L": "snr",
    "L_for_unit_snr": "snr",
}


# The columns of results.csv per command, in order; a sweep puts
# sweep_path and sweep_value before those of its command.
EXACT_COLUMNS = (
    "order_K", "shot_times[s]", "bases", "sign_type", "alpha", "tau[s]",
    "correlation_C[(rad/s)^K]", "gk_leading[counts^K]", "gk_exact_unitary[counts^K]", "warning",
)
SIMULATE_COLUMNS = (
    "order_K", "shot_times[s]", "bases", "alpha", "tau[s]", "mode", "sequences", "seed",
    "mc_mean[counts^K]", "mc_std_error[counts^K]", "per_shot_variance_half[counts^2]", "empirical_snr",
    "gk_leading[counts^K]", "gk_exact_unitary[counts^K]", "abs_error[counts^K]", "sigma_distance", "warning",
)
SNR_COLUMNS = ("order_K", "regime", "snr", "snr_per_sqrt_L", "L_for_unit_snr", "base_factor", "prefactor[spins]")
# The simulate columns that each protocol's Monte Carlo fills, in the order cmd_simulate forms them.
_MC_COLUMNS = (
    "sequences", "mc_mean[counts^K]", "mc_std_error[counts^K]", "per_shot_variance_half[counts^2]",
    "empirical_snr", "gk_leading[counts^K]", "gk_exact_unitary[counts^K]", "abs_error[counts^K]", "sigma_distance",
)


@dataclass(frozen=True)
class Block:
    """Consecutive rows of a results table: ``same`` maps each column whose
    cell is the same on every row to that cell, ``each`` every other column
    to a sequence of one cell per row."""

    same: dict
    each: dict = field(default_factory=dict)

    def __post_init__(self):
        if len({len(cells) for cells in self.each.values()}) > 1:
            raise ValueError("the per-row columns of a block differ in length")

    @property
    def rows(self) -> int:
        return len(next(iter(self.each.values()))) if self.each else 1


@dataclass(frozen=True)
class Table:
    """A command's results: the columns of results.csv, in order, and the
    blocks of rows; every block gives a cell or cells for each column.
    ``exact`` and ``simulate`` give one block per protocol grid, ``snr`` one
    block, and a sweep each variant's blocks with its path and value as
    shared cells. The cells read as ``csv.writer`` writes them (``_cell``,
    docs/output_schema.md)."""

    columns: tuple[str, ...]
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
    if exact is None:
        same["gk_exact_unitary[counts^K]"] = None
    else:
        each["gk_exact_unitary[counts^K]"] = exact.tolist()
    return Table(EXACT_COLUMNS, [Block(same, each)])


def cmd_simulate(run: SimulateRun, threads: int | None) -> tuple[Table, list[dict]]:
    """The simulate rows, plus the worker and chunk layout of each
    protocol's Monte Carlo; ``threads`` None takes ``default_workers``."""
    mc, finals = run.mc, run.finals
    leading = exact = [None] * len(finals)
    if mc.mode == "kraus_quantum":
        _, leading, exact = protocol_grids(mc.model, mc.proto, finals)
        leading, exact = leading.tolist(), exact.tolist()
    same, each = _protocol_cells(mc.proto, finals)
    same.update({"mode": mc.mode, "seed": mc.seed, "warning": mc.proto.warning})
    rows, layout = [], []
    for t, lead, ex in zip(finals, leading, exact):
        with warnings.catch_warnings():  # its text is in the warning column already
            warnings.simplefilter("ignore", ProtocolWarning)
            cfg = replace(mc, proto=mc.proto.at(t))
        cfg = replace(cfg, workers=default_workers(cfg) if threads is None else threads)
        est = run_sequences(cfg)
        layout.append({"workers": est.workers, "chunks": est.chunks, "smallest_norm2": est.smallest_norm2})
        abs_err = None if ex is None else abs(est.mean - ex)
        sigma = abs_err / est.std_error if abs_err is not None and 0 < est.std_error < math.inf else None
        rows.append((est.n_sequences, est.mean, est.std_error, est.per_shot_variance, empirical_snr(est),
                     lead, ex, abs_err, sigma))
    each.update(zip(_MC_COLUMNS, map(list, zip(*rows))))
    return Table(SIMULATE_COLUMNS, [Block(same, each)]), layout


def cmd_snr(run: SnrRun) -> Table:
    rows = []
    for scenario in run.scenarios:
        report = snr_material(scenario)
        rows.append((scenario.K, report.regime, report.snr, report.snr / scenario.L**0.5, report.L_for_unit_snr,
                     report.base_factor, report.prefactor))
    return Table(SNR_COLUMNS, [Block({}, dict(zip(SNR_COLUMNS, map(list, zip(*rows)))))])


def cmd_sweep(run: SweepRun, threads: int | None) -> tuple[Table, list[dict]]:
    """Each variant's blocks, with the sweep path and value as cells of every row."""
    blocks, layout = [], []
    for value, variant in run.runs:
        table, sub_layout = _dispatch(variant, threads)
        blocks.extend(Block({**block.same, "sweep_path": run.path, "sweep_value": value}, block.each)
                      for block in table.blocks)
        layout.extend(dict(entry, sweep_value=spelled(value)) for entry in sub_layout)
    return Table(("sweep_path", "sweep_value", *table.columns), blocks), layout


def _dispatch(run: Run, threads: int | None) -> tuple[Table, list[dict]]:
    """The results table and the Monte Carlo layout, one entry per
    simulated protocol."""
    if isinstance(run, ExactRun):
        return cmd_exact(run), []
    if isinstance(run, SimulateRun):
        return cmd_simulate(run, threads)
    if isinstance(run, SnrRun):
        return cmd_snr(run), []
    return cmd_sweep(run, threads)


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


def _write_outputs(out_dir: Path, table: Table, layout, config_text: str, command: str, seed) -> None:
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
        "provenance": {c: PROVENANCE.get(c, "cli") for c in table.columns},
    }
    if layout:
        fields["run"] = {"chunk_size": CHUNK_SIZE, "protocols": layout}
    texts = {key: json.dumps(value, sort_keys=True, allow_nan=False) for key, value in fields.items()}
    texts["config"] = config_text
    lines = ",\n".join(f"  {json.dumps(key)}: {texts[key]}" for key in sorted(texts))
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        fh.write("{\n" + lines + "\n}\n")


# Each command's own long options; --threads only where Monte Carlo workers run.
_COMMAND_OPTIONS = {
    "exact": ("--config", "--out"),
    "simulate": ("--config", "--out", "--threads"),
    "snr": ("--config", "--out"),
    "sweep": ("--config", "--out", "--threads"),
}
# Each command's line in the top-level help.
_COMMAND_HELP = {
    "exact": "the correlation C and its count correlations over the final times, computed exactly",
    "simulate": "the count correlation by seeded Monte Carlo, beside its exact value",
    "snr": "closed-form signal-to-noise ratios of a material scenario",
    "sweep": "one of the other commands at each value of one config key",
}


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
    for name, options in _COMMAND_OPTIONS.items():
        p = sub.add_parser(name, help=_COMMAND_HELP[name])
        p.add_argument("--config", required=True, help="the YAML run config")
        p.add_argument("--out", required=True, help="the output directory")
        if "--threads" in options:
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
    if not argv or argv[0] not in _COMMAND_OPTIONS:
        return None
    options, given = _COMMAND_OPTIONS[argv[0]], {}
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
        run = parse_config(raw)
        if raw["command"] != command:
            raise ConfigError(f"config command {raw['command']!r} does not match CLI command {command!r}")
        text = config_json(raw)
        table, layout = _dispatch(run, threads)
        _write_outputs(out, table, layout, text, command, run.seed)
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
