"""The golden corpus: configs whose ``results.csv`` every change must keep.

    python tests/golden/corpus.py

writes each config to ``tests/golden/<case>/config.yaml``, runs the CLI on it
and writes its ``results.csv`` beside it, with the ``config_sha256`` of its
``manifest.json`` in ``config_sha256``, then records the numpy and BLAS
build that produced them in ``tests/golden/build.json``. ``tests/test_golden.py``
runs the same configs and compares the bytes on that build (each column within
1e-12 of its largest value on any other), and the config hash on any build.

The cases are the shapes of the four benchmark workloads at seeds 0 and 1,
drawn here with the same generator calls as ``bench/workloads.py`` (which this
file does not import), and the README's examples. The semiclassical configs
draw ``SEMI_SEQUENCES`` sequences per field kind instead of the benchmark's
10^6, so that the whole corpus runs in a few seconds. Two more Kraus cases
open on S2, so that a branch is drawn before the first shot, which the
benchmark's R/L opening skips: the ``kraus_mc`` shape at seed 0
(``kraus_s2_first``), and a spin 47/2 at seed 1 over ``WIDE_SEQUENCES``
sequences (``kraus_d48``), whose 48 branches span three tiles of prefix sums.
Kraus configs are checked at one and two worker threads; the goldens are
written at one, after checking that two give the same bytes.
"""

from __future__ import annotations

import ctypes
import json
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SEEDS = (0, 1)
KRAUS_SEQUENCES = 32768
KRAUS_BASES = ("S3", "S2", "S2", "S2")
S2_FIRST_BASES = ("S2", "S3", "S2", "S2")
WIDE_SEQUENCES = 4096
SEMI_SEQUENCES = 32768  # two chunks per field kind; the benchmark draws 10^6
EXACT_GRID_POINTS = 512
EXACT_BASES = ("S2", "S3", "S2", "S3", "S2", "S2", "S3", "S2")
FOCK_GRID_POINTS = 8


def _u(rng, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 6)


def _shot_times(rng, k: int, lo: float, hi: float) -> list[float]:
    gaps = [_u(rng, lo, hi) for _ in range(k - 1)]
    return [round(float(t), 6) for t in np.concatenate([[0.0], np.cumsum(gaps)])]


def kraus_mc(rng, bases=KRAUS_BASES, two_j: int = 15, sequences: int = KRAUS_SEQUENCES) -> dict:
    times = _shot_times(rng, 4, 0.3, 0.5)
    return {
        "command": "simulate",
        "seed": int(rng.integers(2**31)),
        "model": {
            "kind": "single_spin",
            "two_j": two_j,
            "hamiltonian": {"jz": 1.0, "jx": _u(rng, 0.2, 0.4)},
            "coupling": {"jx": _u(rng, 0.7, 1.0), "jz": _u(rng, 0.0, 0.2)},
            "initial_state": "thermal",
            "beta": _u(rng, 0.5, 1.0),
        },
        "protocol": {
            "alpha": 5.0,
            "tau": 0.1,
            "shots": [{"time": t, "basis": b} for t, b in zip(times, bases)],
        },
        "mc": {"sequences": sequences, "mode": "kraus_quantum"},
    }


def semiclassical_mc(rng) -> dict:
    kinds = ["ornstein_uhlenbeck", "telegraph"]
    times = _shot_times(rng, 4, 0.2, 0.5)
    return {
        "command": "sweep",
        "seed": int(rng.integers(2**31)),
        "protocol": {"alpha": 10.0, "tau": 0.01, "shots": [{"time": t, "basis": "S2"} for t in times]},
        "mc": {
            "sequences": SEMI_SEQUENCES,
            "mode": "semiclassical_field",
            "field": {
                "kind": kinds[0],
                "amplitude": _u(rng, 8.0, 12.0),
                "correlation_time": _u(rng, 0.5, 2.0),
            },
        },
        "sweep": {"command": "simulate", "path": "mc.field.kind", "values": kinds},
    }


def exact_grid(rng) -> dict:
    times = _shot_times(rng, len(EXACT_BASES), 0.2, 0.4)
    start = times[-2] + 0.05
    grid = np.linspace(start, start + _u(rng, 3.0, 5.0), EXACT_GRID_POINTS)
    return {
        "command": "exact",
        "model": {
            "kind": "single_spin",
            "two_j": 15,
            "hamiltonian": {"jz": 1.0, "jx": _u(rng, 0.2, 0.4)},
            "coupling": {"jx": _u(rng, 0.15, 0.25), "jz": _u(rng, 0.0, 0.1)},
            "initial_state": "thermal",
            "beta": _u(rng, 0.2, 0.6),
        },
        "protocol": {
            "alpha": 3.0,
            "tau": 0.02,
            "shots": [{"time": t, "basis": b} for t, b in zip(times, EXACT_BASES)],
            "final_time_grid": [round(float(t), 6) for t in grid],
        },
        "exact": {"include_exact_unitary": True},
    }


def fock_crosscheck(rng) -> dict:
    grid = np.linspace(0.25, _u(rng, 3.0, 4.0), FOCK_GRID_POINTS)
    return {
        "command": "exact",
        "model": {
            "kind": "single_spin",
            "two_j": 1,
            "hamiltonian": {"jz": _u(rng, 0.8, 1.5)},
            "coupling": {"jx": _u(rng, 1.5, 2.5)},
            "initial_state": "up",
        },
        "protocol": {
            "alpha": 2.0,
            "tau": 0.02,
            "shots": [{"time": 0.0, "basis": "S3"}, {"time": 0.25, "basis": "S2"}],
            "final_time_grid": [round(float(t), 6) for t in grid],
        },
        "exact": {"include_exact_unitary": True, "engine": "fock"},
    }


def configs() -> dict[str, str]:
    """Each case's name and its config text."""
    cases = {}
    for shape in (kraus_mc, semiclassical_mc, exact_grid, fock_crosscheck):
        for seed in SEEDS:
            doc = shape(np.random.default_rng(seed))
            cases[f"{shape.__name__}_s{seed}"] = yaml.safe_dump(doc, sort_keys=False)
    for name, doc in (
        ("kraus_s2_first", kraus_mc(np.random.default_rng(0), S2_FIRST_BASES)),
        ("kraus_d48", kraus_mc(np.random.default_rng(1), S2_FIRST_BASES, two_j=47, sequences=WIDE_SEQUENCES)),
    ):
        cases[name] = yaml.safe_dump(doc, sort_keys=False)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for i, (block, command) in enumerate(re.findall(r"```yaml\n(command: (\w+)\n.*?)```", readme, re.S)):
        cases[f"readme{i}_{command}"] = block
    return cases


def thread_counts(config_text: str) -> tuple[str | None, ...]:
    """The ``--threads`` values a case runs at: 1 and 2 for a Kraus run, else the default."""
    doc = yaml.safe_load(config_text)
    kraus = doc["command"] == "simulate" and doc["mc"].get("mode", "kraus_quantum") == "kraus_quantum"
    return ("1", "2") if kraus else (None,)


def run(config: Path, out: Path, threads: str | None) -> tuple[bytes, str]:
    """The bytes of results.csv and the text of manifest.json from an in-process CLI run."""
    from faradaycorr.cli import EXIT_OK, main

    command = yaml.safe_load(config.read_text(encoding="utf-8"))["command"]
    extra = [] if threads is None else ["--threads", threads]
    code = main([command, "--config", str(config), "--out", str(out), *extra])
    if code != EXIT_OK:
        raise RuntimeError(f"{config} exited {code}")
    return (out / "results.csv").read_bytes(), (out / "manifest.json").read_text(encoding="utf-8")


def _openblas_config() -> str | None:
    """The runtime configuration string of numpy's bundled OpenBLAS, which
    names the kernel set it picked for this CPU; None where it cannot be read."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas*")):
        for symbol in ("scipy_openblas_get_config64_", "scipy_openblas_get_config", "openblas_get_config"):
            try:
                getter = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            getter.argtypes, getter.restype = [], ctypes.c_char_p
            return getter().decode()
    return None


def build() -> dict:
    """The numpy and BLAS build whose arithmetic the golden bytes hold."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its build only
        blas = None
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_runtime": _openblas_config(),
        "machine": platform.machine(),
    }


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in configs().items():
            case = HERE / name
            case.mkdir(exist_ok=True)
            config = case / "config.yaml"
            config.write_text(text, encoding="utf-8")
            runs = [run(config, Path(tmp) / f"{name}-{t}", t) for t in thread_counts(text)]
            results = {data for data, _ in runs}
            if len(results) != 1:
                raise RuntimeError(f"{name}: results.csv depends on --threads")
            (case / "results.csv").write_bytes(runs[0][0])
            (case / "config_sha256").write_text(json.loads(runs[0][1])["config_sha256"] + "\n", encoding="utf-8")
            print(f"{name}: {len(runs[0][0])} bytes")
    (HERE / "build.json").write_text(json.dumps(build(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
