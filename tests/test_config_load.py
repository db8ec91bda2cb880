"""load_config reads a config with a loader built on libyaml's safe loader
when PyYAML has it, else on PyYAML's own; both give the document
``yaml.safe_load`` gives, floats read by its fast path included. A file that
is not a YAML mapping, or a mapping that gives a key twice, is a config
error (exit 2)."""

import re
from pathlib import Path

import pytest
import yaml

from faradaycorr.cli import EXIT_CONFIG, main
from faradaycorr.config import load_config
from faradaycorr.errors import ConfigError

README = Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"
EXAMPLES = re.findall(r"```yaml\n(command: \w+\n.*?)```", README.read_text(encoding="utf-8"), re.S)

GRID = "".join(
    [
        "command: exact\n",
        "model: {kind: single_spin, two_j: 15, hamiltonian: {jz: 1.0}, coupling: {jx: 0.5}}\n",
        "protocol:\n  alpha: 2.0\n  tau: 0.01\n",
        "  shots: [{time: 0.0, basis: S3}, {time: 0.5, basis: S2}]\n",
        "  final_time_grid: [",
        ", ".join(repr(0.5 + i / 97.0) for i in range(512)),
        "]\n",
    ]
)

# Scalars and constructs where a YAML 1.1 loader may read a surprise.
SCALARS = {
    "inf": "a: .inf\nb: -.inf\nc: .nan\nd: [.Inf, -.INF, .NaN]\n",
    "exponent-without-dot": "tau: 1e5\nalpha: 1.0e5\nbeta: 1e+5\n",
    "hex-octal-sexagesimal": "a: 0x10\nb: 010\nc: 0o10\nd: 1:30\n",
    "booleans": "a: yes\nb: no\nc: on\nd: off\ne: True\nf: y\n",
    "nulls": "a: ~\nb: null\nc:\nd: [~, null]\n",
    "dates": "a: 2024-01-01\nb: 2001-12-14t21:59:43.10-05:00\nc: '2024-01-01'\n",
    "byte-order-mark": "\ufeffcommand: snr\nsnr: {preset: lihof4, orders: [1]}\n",
    "anchors": "base: &b {jz: 1.0}\nh: *b\nmerged: {<<: *b, jx: 2.0}\n",
    # keys of different YAML types are different keys, though Python's dict holds them as one
    "equal-keys-of-other-types": "a: {1: x, true: y, 1.0: z}\n",
    # a mapping's own keys override the merged ones, which is no duplicate
    "merge-override": "base: &b {jz: 1.0, jx: 0.5}\nmerged: {<<: *b, jx: 2.0}\nboth: {<<: [*b, {jx: 3.0}], jz: 4.0}\n",
}

# Scalars beside the loader's float fast path: plain floats of its pattern,
# the ones YAML 1.1 reads otherwise or float() would read differently, and
# lists that are, or are nearly, all such floats.
FAST_PATH = {
    "underscore": "a: 1_000.5\nb: [1_000.5, 2.5]\nc: [1__0.5, 1_.5, 1.5_]\n",
    "leading-dot": "a: .5\nb: +.5\nc: [.5, 1.5]\nd: [+.5, 1.5]\n",
    "trailing-dot": "a: 1.\nb: [1., -1., +1.]\n",
    "negative-zero": "a: -0.0\nb: [-0.0, 0.0, +0.0]\n",
    # YAML 1.1 reads 1.0e5 and 1e5 as strings, 1.0e+5 as a float
    "exponents": "a: 1.0e5\nb: 1e5\nc: 1.0e+5\nd: [1.0e5, 1e5, 1.0e+5, 1.0E-5, 2.5]\n",
    "sexagesimal": "a: 1:30.5\nb: [1:30.5, 1.5]\n",
    "non-finite": "a: .Inf\nb: [.Inf, 1.5, -.inf, .NaN]\n",
    "quoted": "a: '1.5'\nb: [\"1.5\", 1.5, '2.5']\n",
    "explicit-tags": "a: !!str 1.5\nb: [!!str 1.5, 1.5]\nc: !!float 1\nd: [!!float 1, !!float 1_0.5, 2.5]\ne: [! 1.5]\n",
    "float-keys": "1.5: a\n-0.0: b\n1.0e5: c\nnested: {0.5: x, 2.50: y, 1e5: z}\n",
    "anchored-floats": "a: [&x 1.5, *x, 2.5]\nb: *x\nc: &l [0.5, 1.5]\nd: *l\n",
    "mixed-lists": "a: [1.5, 2, 3.5]\nb: [1.5, '2.5']\nc: [1.5, null]\nd: [1.5, [2.5]]\ne: [1.5, true]\n",
    "block-list": "a:\n  - 1.5\n  - -2.5\nb:\n  - 1.5\n  - 3\nc: []\n",
    "self-holding-list": "a: &r [1.5, *r]\n",
}

MALFORMED = {
    "unclosed-flow": "a: [1, 2\n",
    "unclosed-mapping": "a: {b: 1\n",
    "unclosed-quote": "a: 'text\n",
    "tab-indent": "a:\n\tb: 1\n",
    "bad-indent": "a: 1\n b: 2\n",
}

DOCUMENTS = {
    **{f"readme{i}": text for i, text in enumerate(EXAMPLES)},
    "grid-512": GRID,
    **SCALARS,
    **FAST_PATH,
    **{f"golden-{path.parent.name}": path.read_text(encoding="utf-8") for path in sorted(GOLDEN.glob("*/config.yaml"))},
}


def write(tmp_path, text, name="doc.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def reference(path):
    with open(path, encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def test_documents_are_the_ones_named():
    assert len(yaml.safe_load(GRID)["protocol"]["final_time_grid"]) == 512
    assert EXAMPLES, "README.md has no yaml example that starts with command:"


def spy_on_loaders(monkeypatch) -> list:
    loaders, real = [], yaml.load

    def spy(stream, Loader):
        loaders.append(Loader)
        return real(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    return loaders


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
def test_libyaml_reads_the_config(tmp_path, monkeypatch):
    loaders = spy_on_loaders(monkeypatch)
    load_config(write(tmp_path, GRID))
    assert len(loaders) == 1 and issubclass(loaders[0], yaml.CSafeLoader)


def test_without_libyaml_pyyaml_reads_the_config(tmp_path, monkeypatch):
    # the loader is chosen at each call, so one without libyaml is PyYAML's own
    loaders = spy_on_loaders(monkeypatch)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    load_config(write(tmp_path, GRID))
    assert len(loaders) == 1 and issubclass(loaders[0], yaml.SafeLoader)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
@pytest.mark.parametrize("text", DOCUMENTS.values(), ids=DOCUMENTS.keys())
def test_libyaml_gives_the_safe_load_document(tmp_path, text):
    path = write(tmp_path, text)
    assert repr(load_config(path)) == repr(reference(path))  # repr: NaN equals itself


@pytest.mark.parametrize("text", DOCUMENTS.values(), ids=DOCUMENTS.keys())
def test_without_libyaml_the_same_document_loads(tmp_path, monkeypatch, text):
    path = write(tmp_path, text)
    expected = repr(reference(path))
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert repr(load_config(path)) == expected


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure"])
@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_yaml_is_the_same_yaml_error(tmp_path, monkeypatch, text, libyaml):
    if libyaml and not yaml.__with_libyaml__:
        pytest.skip("PyYAML was built without libyaml")
    path = write(tmp_path, text)
    with pytest.raises(yaml.YAMLError) as expected:
        reference(path)
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    with pytest.raises(ConfigError, match="cannot read config") as got:
        load_config(path)
    assert type(got.value.__cause__) is type(expected.value)


def cli_error(tmp_path, capsys, path):
    code = main(["exact", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert not (tmp_path / "out" / "results.csv").exists()
    return err


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_yaml_exits_2(tmp_path, capsys, text):
    err = cli_error(tmp_path, capsys, write(tmp_path, text))
    assert err.startswith("config error: cannot read config") and "Traceback" not in err


@pytest.mark.parametrize("text", ["- 1\n- 2\n", "just text\n", "", "~\n"], ids=["list", "scalar", "empty", "null"])
def test_non_mapping_document_exits_2(tmp_path, capsys, text):
    err = cli_error(tmp_path, capsys, write(tmp_path, text))
    assert err == "config error: config document must be a mapping\n"


def test_text_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes('command: snr\nsnr: {preset: lihof4, orders: [1]}\nmc: "caf\u00e9"\n'.encode("latin-1"))
    err = cli_error(tmp_path, capsys, path)
    assert err.startswith(f"config error: cannot read config {path}: 'utf-8' codec can't decode byte 0xe9")


def test_missing_file_exits_2(tmp_path, capsys):
    err = cli_error(tmp_path, capsys, tmp_path / "none.yaml")
    assert err.startswith("config error: cannot read config") and "none.yaml" in err


DUPLICATE_KEYS = {
    "top-level": ("command: snr\nsnr: {preset: lihof4, orders: [1]}\nsnr: {preset: lihof4, orders: [2]}\n",
                  "'snr', first given on line 2", "line 3, column 1"),
    "nested": ("command: snr\nsnr:\n  preset: lihof4\n  orders: [1]\n  orders: [2]\n",
               "'orders', first given on line 4", "line 5, column 3"),
    "in-flow": ("command: snr\nsnr: {preset: lihof4, orders: [1], preset: lihof4}\n",
                "'preset', first given on line 2", "line 2, column 36"),
    "unread-section": ("command: snr\nsnr: {preset: lihof4, orders: [1]}\nmc: {a: 1, a: 1}\n",
                       "'a', first given on line 3", "line 3, column 12"),
    "float-key": ("command: snr\nsnr: {preset: lihof4, orders: [1]}\nmc: {1.5: a, 1.50: b}\n",
                  "1.5, first given on line 3", "line 3, column 14"),
}


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure"])
@pytest.mark.parametrize("text, key, where", DUPLICATE_KEYS.values(), ids=DUPLICATE_KEYS.keys())
def test_duplicate_key_exits_2(tmp_path, capsys, monkeypatch, text, key, where, libyaml):
    # YAML mapping keys are unique; the last value does not silently win
    if libyaml and not yaml.__with_libyaml__:
        pytest.skip("PyYAML was built without libyaml")
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    path = write(tmp_path, text)
    err = cli_error(tmp_path, capsys, path)
    assert err.startswith("config error: cannot read config") and "Traceback" not in err
    assert f"found duplicate key {key}\n  in \"{path}\", {where}" in err


def test_exponent_without_dot_is_not_a_number(tmp_path, capsys):
    # YAML 1.1 reads 1e5 as a string; tau must be a number, so the run exits 2
    grid = GRID.replace("tau: 0.01", "tau: 1e5")
    err = cli_error(tmp_path, capsys, write(tmp_path, grid))
    assert err == "config error: protocol.tau must be a number, got '1e5'\n"
