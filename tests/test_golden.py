"""Every config of the golden corpus (tests/golden, written by its corpus.py)
gives the results.csv stored beside it, and a manifest.json whose
config_sha256 is the one stored beside it and the SHA-256 of the text the
manifest holds as its config.

On the numpy and BLAS build recorded in tests/golden/build.json the bytes
must be equal. On any other build the floating-point arithmetic may round
differently, so each numeric column must lie within 1e-12 of its largest
magnitude and every other cell must be equal. The mode is part of each
test's id.
"""

import csv
import hashlib
import io
import json
import math

import pytest

from golden import corpus

BUILD_MATCHES = corpus.build() == json.loads((corpus.HERE / "build.json").read_text(encoding="utf-8"))
MODE = "bytes" if BUILD_MATCHES else "within-1e-12"
CASES = [
    (name, threads)
    for name in sorted(p.parent.name for p in corpus.HERE.glob("*/config.yaml"))
    for threads in corpus.thread_counts((corpus.HERE / name / "config.yaml").read_text(encoding="utf-8"))
]
COLUMN_RTOL = 1e-12
CONFIG_LINE = '  "config": '  # manifest.json gives each top-level key a line of its own


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _columns_agree(got: bytes, want: bytes) -> list[str]:
    """The columns where ``got`` is not ``want`` to 1e-12 of the column's largest value."""
    got_rows, want_rows = (list(csv.reader(io.StringIO(b.decode("utf-8")))) for b in (got, want))
    if len(got_rows) != len(want_rows) or got_rows[0] != want_rows[0]:
        return ["the header or the row count"]
    bad = []
    for j, name in enumerate(want_rows[0]):
        want_cells = [row[j] for row in want_rows[1:]]
        got_cells = [row[j] for row in got_rows[1:]]
        numbers = [_number(cell) for cell in want_cells]
        if not all(x is not None and math.isfinite(x) for x in numbers):
            if got_cells != want_cells:
                bad.append(name)
            continue
        top = max(map(abs, numbers))
        if any(_number(g) is None or not abs(_number(g) - w) <= COLUMN_RTOL * top for g, w in zip(got_cells, numbers)):
            bad.append(name)
    return bad


@pytest.mark.parametrize(
    "name, threads", CASES, ids=[f"{name}-threads{threads or 'default'}-{MODE}" for name, threads in CASES]
)
def test_golden_results(tmp_path, name, threads):
    case = corpus.HERE / name
    got, manifest = corpus.run(case / "config.yaml", tmp_path / "out", threads)
    want = (case / "results.csv").read_bytes()
    if BUILD_MATCHES:
        assert got == want, f"{name}: results.csv differs from the golden bytes"
    else:
        assert not _columns_agree(got, want), f"{name}: columns differ beyond 1e-12 of their maximum"
    # the hash does not move with the encoding, and it is the hash of the config as the manifest holds it
    sha = json.loads(manifest)["config_sha256"]
    assert sha == (case / "config_sha256").read_text(encoding="utf-8").strip(), f"{name}: config_sha256 moved"
    (config,) = (line.removeprefix(CONFIG_LINE).removesuffix(",") for line in manifest.splitlines()
                 if line.startswith(CONFIG_LINE))
    assert hashlib.sha256(config.encode()).hexdigest() == sha
    assert json.loads(config) == json.loads(manifest)["config"]


def test_stored_configs_are_what_the_corpus_generates():
    # the bench shapes and the README's examples, as corpus.py writes them
    stored = {p.parent.name: p.read_text(encoding="utf-8") for p in corpus.HERE.glob("*/config.yaml")}
    assert stored == corpus.configs()
