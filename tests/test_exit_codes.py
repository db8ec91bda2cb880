"""The exit-code rules over the whole config surface, by leaf mutation.

Each base config (every golden config, the README's examples among them,
and ``CUSTOM``, a custom-model config) has each of its leaves replaced in
turn by each of ``VALUES``: eighteen values of every YAML type and edge of
the float range, and an integer of 401 digits, which Python reads but no
float holds. ``mc.sequences`` is capped at 300 and each grid at three
points, so that a run takes a few milliseconds. The rules: a run exits 0, 2,
3 or 4; a refusal prints exactly one stderr line and writes no results.csv;
a run that succeeds prints nothing to stderr, warns nothing and writes no
non-finite cell.

The full set is about 5500 runs through ``cli.main`` in one process, 20 s on
2 cores. The tests run a fixed, seeded sample of ``SAMPLE`` of them, and
every time the ``PINNED`` mutations, which once broke the rules, each with
its exit code and stderr line.

    PYTHONPATH=src python tests/test_exit_codes.py

runs the full set and prints each run that breaks a rule.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import math
import random
import shutil
import sys
import warnings
from pathlib import Path

import pytest
import yaml

sys.path.insert(0, str(Path(__file__).resolve().parent))  # the golden corpus, when run as a script

from faradaycorr.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_RESOURCE, main
from golden import corpus

VALUES = (0, -1, 0.0, -0.0, 1e-300, 1e300, 1.7e308, math.nan, math.inf, -math.inf,
          True, "3", [], {}, None, 2**63, 1.5, "S4", 10**400)
SEED = 24
SAMPLE = 550  # of about 5500: some 2 s on 2 cores
SEQUENCES = 300
GRID_POINTS = 3

CUSTOM = """\
command: exact
model:
  kind: custom
  hamiltonian_matrix: [[1.0, [0.0, 0.5]], [[0.0, -0.5], -1.0]]
  coupling_matrix: [[0.0, 1.0], [1.0, 0.5]]
  initial_state_matrix: [[0.75, 0.0], [0.0, 0.25]]
protocol:
  alpha: 3.0
  tau: 0.05
  shots:
    - {time: 0.0, basis: S2}
    - {time: 0.4, basis: S3}
  final_time_grid: [0.4, 0.9, 1.7]
exact: {include_exact_unitary: true}
"""


def _capped(doc):
    """``doc`` with ``SEQUENCES`` at most and grids of ``GRID_POINTS``."""
    if isinstance(doc, list):
        return [_capped(item) for item in doc]
    if not isinstance(doc, dict):
        return doc
    doc = {key: _capped(item) for key, item in doc.items()}
    if "sequences" in doc:
        doc["sequences"] = min(doc["sequences"], SEQUENCES)
    if "final_time_grid" in doc:
        doc["final_time_grid"] = doc["final_time_grid"][:GRID_POINTS]
    return doc


def _leaves(doc, path=()):
    """The path of each value in ``doc`` that is not a mapping or a list."""
    if isinstance(doc, (dict, list)):
        for key, item in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _leaves(item, (*path, key))
    else:
        yield path


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    *parents, key = path
    node = doc
    for parent in parents:
        node = node[parent]
    node[key] = value
    return doc


BASES = {name: _capped(yaml.safe_load(text)) for name, text in corpus.configs().items()}
BASES["custom"] = yaml.safe_load(CUSTOM)
MUTATIONS = [(name, path, value) for name, doc in BASES.items() for path in _leaves(doc) for value in VALUES]
SAMPLED = {name: [] for name in BASES}
for _i in sorted(random.Random(SEED).sample(range(len(MUTATIONS)), SAMPLE)):
    SAMPLED[MUTATIONS[_i][0]].append(MUTATIONS[_i][1:])

HUGE = [[1.7e308, 1.7e308], [1.7e308, -1.7e308]]  # finite entries, eigenvalues +-2.4e308
PINNED = [
    ("integer-past-the-float-range", "custom", ("model", "coupling_matrix", 0, 1), 10**400, EXIT_CONFIG,
     "config error: model.coupling_matrix[0][1] must lie within the float range, got an integer of 401 digits\n"),
    ("hamiltonian-eigenvalues-past-the-float-range", "custom", ("model", "hamiltonian_matrix"), HUGE, EXIT_NUMERIC,
     "numerical guard: the eigenvalues of the hamiltonian leave the float range\n"),
    ("hermitian-difference-past-the-float-range", "custom", ("model", "hamiltonian_matrix"),
     [[1.0, 1.7e308], [-1.7e308, -1.0]], EXIT_CONFIG,
     "config error: model: hamiltonian is not Hermitian within 1e-10 of its largest entry\n"),
    # B + B^dag leaves the float range where the symmetrized B/2 + B^dag/2 does not
    ("coupling-sum-past-the-float-range", "custom", ("model", "coupling_matrix", 0, 0), 1.7e308, EXIT_NUMERIC,
     "numerical guard: ||B||^K overflows the float range at K=2, ||B||=1.6999999999999997e+308\n"),
]


def _run(command: str, doc, root: Path) -> tuple[int | str, str]:
    """The exit code of ``command`` on ``doc`` (or the exception it raised)
    and its stderr, each warning it gave as a line of its own; a results.csv
    left on a refusal, or a non-finite cell on exit 0, is a line too."""
    config, out = root / "run.yaml", root / "out"
    config.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main([command, "--config", str(config), "--out", str(out)])
        except Exception as exc:  # the console script would print a traceback and exit 1
            code = f"{type(exc).__name__}: {exc}"
    text = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    results = out / "results.csv"
    if code == EXIT_OK and results.exists():
        rows = list(csv.reader(results.read_text(encoding="utf-8").splitlines()))[1:]
        text += "".join(f"non-finite cell {cell}\n" for row in rows for cell in row
                        if cell.lower() in ("nan", "inf", "-inf"))
    elif code != EXIT_OK and results.exists():
        text += "results.csv written\n"
    shutil.rmtree(out, ignore_errors=True)
    return code, text


def _broken(command: str, doc, root: Path) -> str | None:
    """How a run of ``doc`` breaks the rules, or None."""
    code, err = _run(command, doc, root)
    if code not in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_RESOURCE):
        return f"exit {code!r}"
    if code == EXIT_OK and err:
        return f"exit 0 with {err!r}"
    if code != EXIT_OK and (err.count("\n") != 1 or not err.endswith("\n")):
        return f"exit {code} with {err!r}"
    return None


def _failures(name: str, mutations, root: Path) -> list[str]:
    found = []
    for path, value in mutations:
        problem = _broken(BASES[name]["command"], _mutated(BASES[name], path, value), root)
        if problem:
            found.append(f"{name} {'.'.join(map(str, path))} = {str(value)[:24]}: {problem[:300]}")
    return found


@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_sampled_mutations_keep_the_exit_code_rules(tmp_path, name):
    assert SAMPLED[name], f"the sample holds no mutation of {name}"
    failures = _failures(name, SAMPLED[name], tmp_path)
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("name, path, value, code, line", [case[1:] for case in PINNED],
                         ids=[case[0] for case in PINNED])
def test_pinned_mutation(tmp_path, name, path, value, code, line):
    assert _run(BASES[name]["command"], _mutated(BASES[name], path, value), tmp_path) == (code, line)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        failures = [f for name in BASES for f in _failures(
            name, [(path, value) for base, path, value in MUTATIONS if base == name], Path(tmp))]
    print("\n".join(failures) or f"all {len(MUTATIONS)} runs keep the rules")
    sys.exit(bool(failures))
