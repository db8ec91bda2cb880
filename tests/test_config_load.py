"""load_config reads a config with libyaml's safe loader when PyYAML has it,
else with PyYAML's own; both give the document ``yaml.safe_load`` gives, and
a file that is not a YAML mapping is a config error (exit 2)."""

import re
from pathlib import Path

import pytest
import yaml

from faradaycorr.cli import EXIT_CONFIG, main
from faradaycorr.config import load_config
from faradaycorr.errors import ConfigError

README = Path(__file__).resolve().parent.parent / "README.md"
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
    "duplicate-keys": "a: 1\na: 2\nb: {c: 3, c: 4}\n",
    "byte-order-mark": "\ufeffcommand: snr\nsnr: {preset: lihof4, orders: [1]}\n",
    "anchors": "base: &b {jz: 1.0}\nh: *b\nmerged: {<<: *b, jx: 2.0}\n",
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


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
def test_libyaml_reads_the_config(tmp_path, monkeypatch):
    loaders, real = [], yaml.load

    def spy(stream, Loader):
        loaders.append(Loader)
        return real(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    load_config(write(tmp_path, GRID))
    assert loaders == [yaml.CSafeLoader]


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


def test_missing_file_exits_2(tmp_path, capsys):
    err = cli_error(tmp_path, capsys, tmp_path / "none.yaml")
    assert err.startswith("config error: cannot read config") and "none.yaml" in err


def test_exponent_without_dot_is_not_a_number(tmp_path, capsys):
    # YAML 1.1 reads 1e5 as a string; tau must be a number, so the run exits 2
    grid = GRID.replace("tau: 0.01", "tau: 1e5")
    err = cli_error(tmp_path, capsys, write(tmp_path, grid))
    assert err == "config error: protocol.tau must be a number, got '1e5'\n"
