"""Every README example runs clean through the CLI: finite cells, a strict-JSON
manifest that replays it, `exact`'s leading order equal to 2^-K tau^K alpha^2K
times its C bit for bit and, with include_exact_unitary, the all-orders column
filled; `simulate` with default workers against one."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import faradaycorr
from faradaycorr.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = re.findall(r"```yaml\n(command: (\w+)\n.*?)```", README.read_text(encoding="utf-8"), re.S)


def run(command, config, out, *extra):
    assert main([command, "--config", str(config), "--out", str(out), *extra]) == EXIT_OK
    return (out / "results.csv").read_bytes()


def reject_constant(token):
    raise ValueError(f"manifest.json holds the non-JSON token {token}")


def non_finite(cell):
    try:
        return not math.isfinite(float(cell))
    except ValueError:
        return False


def test_readme_has_examples():
    assert EXAMPLES, "README.md has no yaml example that starts with command:"


@pytest.mark.parametrize(
    "block, command", EXAMPLES, ids=[f"{i}-{command}" for i, (_, command) in enumerate(EXAMPLES)]
)
def test_readme_example(tmp_path, block, command):
    config = tmp_path / "run.yaml"
    config.write_text(block, encoding="utf-8")
    results = run(command, config, tmp_path / "out")
    rows = list(csv.reader(results.decode("utf-8").splitlines()))
    bad = sorted({cell for row in rows[1:] for cell in row if non_finite(cell)})
    assert not bad, f"non-finite cells {bad}"
    if command == "exact":
        doc = yaml.safe_load(block)
        tau, alpha = doc["protocol"]["tau"], doc["protocol"]["alpha"]
        columns = ("gk_leading[counts^K]", "correlation_C[(rad/s)^K]", "order_K")
        lead, corr, order = (rows[0].index(name) for name in columns)
        differ = [
            n for n, row in enumerate(rows[1:], 1)
            if row[lead] != repr((0.5 * tau * alpha**2) ** int(row[order]) * float(row[corr]))
        ]
        assert not differ, f"gk_leading is not 2^-K tau^K alpha^2K C in rows {differ}"
        if doc.get("exact", {}).get("include_exact_unitary"):
            column = rows[0].index("gk_exact_unitary[counts^K]")
            empty = [n for n, row in enumerate(rows[1:], 1) if not row[column]]
            assert not empty, f"no gk_exact_unitary in rows {empty}"
    manifest_text = (tmp_path / "out" / "manifest.json").read_text(encoding="utf-8")
    manifest = json.loads(manifest_text, parse_constant=reject_constant)
    replay = tmp_path / "replay.yaml"
    replay.write_text(yaml.safe_dump(manifest["config"], sort_keys=False), encoding="utf-8")
    assert run(command, replay, tmp_path / "replay") == results, "the manifest's config changed results.csv"
    if command == "simulate":
        assert run(command, config, tmp_path / "one", "--threads", "1") == results, "--threads 1 changed results.csv"


def test_plain_run_imports_no_argparse(tmp_path):
    # a well-formed command line is read without argparse, whose help and
    # error text (looked up with gettext, which imports locale) a run that
    # succeeds never prints; in a fresh interpreter, as the console script runs
    config = tmp_path / "run.yaml"
    config.write_text(next(block for block, command in EXAMPLES if command == "exact"), encoding="utf-8")
    script = (
        "import sys\nfrom faradaycorr.cli import main\nassert main(sys.argv[1:]) == 0\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
    )
    src = str(Path(faradaycorr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script, "exact", "--config", str(config), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert (tmp_path / "out" / "results.csv").exists()
