"""The four benchmark workloads: the config each generates from its seed, the
CLI operations it times, the checks on their outputs, and its fault probe.

The seed sets the numbers in a config (couplings, temperatures, shot gaps,
field parameters, the MC seed); it never sets a size. Dimensions, orders,
grid lengths, sequence counts and pulse amplitudes are fixed per workload, so
every seed does the same amount of work and the per-layer call counts repeat
exactly.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import faradaycorr as fc
import numpy as np
import yaml
from faradaycorr.config import build_model, build_protocols

from reference import CorrelationChain, model_matrices, semiclassical_s2_moments

# Tolerances stated in the README.
Z_SIGMA = 5.0            # MC mean / variance vs. reference, in standard errors
RESOLVED_SIGMA = 10.0    # the MC signal must exceed this many standard errors
CHAIN_RTOL = 1e-9        # correlation_C vs. the benchmark's own chain
LEADING_RTOL = 1e-10     # gk_leading vs. 2^-K tau^K alpha^2K C
FOCK_RTOL = 1e-8         # Fock engine vs. coherent engine

KRAUS_SEQUENCES = 32768  # two chunks of the trajectory layer's 16384
SEMI_SEQUENCES = 1_000_000
EXACT_GRID_POINTS = 512
EXACT_BASES = ("S2", "S3", "S2", "S3", "S2", "S2", "S3", "S2")
FOCK_GRID_POINTS = 8


@dataclass(frozen=True)
class Op:
    """One timed CLI invocation: ``faradaycorr <args> --out <dir>``."""

    name: str
    args: tuple[str, ...]
    shots: int


def _u(rng: np.random.Generator, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 6)


def _shot_times(rng, k: int, lo: float, hi: float) -> list[float]:
    gaps = [_u(rng, lo, hi) for _ in range(k - 1)]
    return [round(float(t), 6) for t in np.concatenate([[0.0], np.cumsum(gaps)])]


def _rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _floats(rows, column: str) -> np.ndarray:
    return np.array([float(r[column]) for r in rows])


def _signs(bases) -> tuple[str, ...]:
    return tuple("+" if b == "S2" else "-" for b in bases)


class Workload:
    name = ""
    ops: tuple[Op, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.config = self.make_config()
        self.config_path = workdir / f"{self.name}.yaml"
        self.config_path.write_text(yaml.safe_dump(self.config, sort_keys=False))

    def make_config(self) -> dict:
        raise NotImplementedError

    def check(self, outputs: dict[str, bytes]) -> list[str]:
        """Errors found in the first round's results.csv of each op."""
        raise NotImplementedError

    def probe(self) -> bool | None:
        """True while the known fault shows; None when there is no probe."""
        return None

    def _config_arg(self) -> tuple[str, str]:
        return ("--config", str(self.config_path))

    def _check_exact_grid_rows(self, rows, errors: list[str]) -> None:
        """Checks shared by the two ``exact`` workloads, one row per grid point."""
        cfg = self.config
        proto = cfg["protocol"]
        times = [s["time"] for s in proto["shots"]]
        signs = _signs(s["basis"] for s in proto["shots"])
        chain = CorrelationChain(*model_matrices(cfg["model"]))
        ref = chain.final_time_grid(times, signs, proto["final_time_grid"])
        c_prog = _floats(rows, "correlation_C[(rad/s)^K]")
        if len(c_prog) != len(ref):
            errors.append(f"{len(c_prog)} rows, expected {len(ref)}")
            return
        # Deviations are relative to the largest value on the grid: a grid
        # point where C crosses zero has no relative accuracy of its own.
        worst = np.max(np.abs(c_prog - ref)) / np.max(np.abs(ref))
        if not worst <= CHAIN_RTOL:
            errors.append(f"correlation_C differs from the reference chain by {worst:.3e} (rel.)")
        k, alpha, tau = len(times), float(proto["alpha"]), float(proto["tau"])
        predicted = 2.0**-k * tau**k * alpha ** (2 * k) * c_prog
        leading = _floats(rows, "gk_leading[counts^K]")
        worst = np.max(np.abs(leading - predicted)) / np.max(np.abs(predicted))
        if not worst <= LEADING_RTOL:
            errors.append(f"gk_leading breaks the factorization by {worst:.3e} (rel.)")
        exact = _floats(rows, "gk_exact_unitary[counts^K]")
        _, b, _ = model_matrices(cfg["model"])
        bound = k * tau * np.linalg.norm(b, 2)
        gap = np.max(np.abs(exact - leading)) / np.max(np.abs(leading))
        if not gap <= bound:
            errors.append(f"gk_exact_unitary gap {gap:.3e} above K tau |B| = {bound:.3e}")


class KrausMc(Workload):
    """Thermal spin-15/2 (d = 16), K = 4 Kraus trajectories, two chunks,
    run with one worker and with two."""

    name = "kraus_mc"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        shots = KRAUS_SEQUENCES * 4
        self.ops = tuple(
            Op(f"threads{n}", ("simulate", *self._config_arg(), "--threads", str(n)), shots)
            for n in (1, 2)
        )

    def make_config(self) -> dict:
        rng = self.rng
        times = _shot_times(rng, 4, 0.3, 0.5)
        return {
            "command": "simulate",
            "seed": int(rng.integers(2**31)),
            "model": {
                "kind": "single_spin",
                "two_j": 15,
                "hamiltonian": {"jz": 1.0, "jx": _u(rng, 0.2, 0.4)},
                "coupling": {"jx": _u(rng, 0.7, 1.0), "jz": _u(rng, 0.0, 0.2)},
                "initial_state": "thermal",
                "beta": _u(rng, 0.5, 1.0),
            },
            "protocol": {
                "alpha": 5.0,
                "tau": 0.1,
                "shots": [{"time": t, "basis": b} for t, b in zip(times, ("S3", "S2", "S2", "S2"))],
            },
            "mc": {"sequences": KRAUS_SEQUENCES, "mode": "kraus_quantum"},
        }

    def check(self, outputs):
        errors = []
        if outputs["threads1"] != outputs["threads2"]:
            errors.append("results.csv differs between --threads 1 and --threads 2")
        (row,) = _rows(outputs["threads1"])
        mean = float(row["mc_mean[counts^K]"])
        se = float(row["mc_std_error[counts^K]"])
        exact = float(row["gk_exact_unitary[counts^K]"])
        if not abs(mean - exact) <= Z_SIGMA * se:
            errors.append(f"mc_mean {mean} is {abs(mean - exact) / se:.1f} SE from gk_exact_unitary {exact}")
        if not abs(exact) >= RESOLVED_SIGMA * se:
            errors.append(f"signal {exact} not resolved by SE {se}")
        cfg = self.config
        proto = cfg["protocol"]
        times = [s["time"] for s in proto["shots"]]
        c_ref = CorrelationChain(*model_matrices(cfg["model"])).value(
            times, _signs(s["basis"] for s in proto["shots"])
        )
        predicted = 2.0**-4 * proto["tau"] ** 4 * proto["alpha"] ** 8 * c_ref
        leading = float(row["gk_leading[counts^K]"])
        if not abs(leading - predicted) <= CHAIN_RTOL * abs(predicted):
            errors.append(f"gk_leading {leading} differs from the reference chain's {predicted}")
        return errors

    def probe(self) -> bool:
        """run_sequences at alpha = 45, where the Kraus amplitudes underflow."""
        jx, _, jz = fc.spin_operators(1)
        model = fc.TargetModel(hamiltonian=jz, coupling=2.0 * jx, initial_state=fc.pure_state([1, 0]))
        proto = fc.ProtocolSpec(
            shots=(
                fc.ShotSpec(time=0.0, basis=fc.MeasurementBasis.S3),
                fc.ShotSpec(time=1.0, basis=fc.MeasurementBasis.S2),
            ),
            sensor=fc.SensorConfig(alpha=45.0, tau=0.02),
        )
        cfg = fc.TrajectoryConfig(sequences=1024, seed=1, mode="kraus_quantum", proto=proto, model=model)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = fc.run_sequences(cfg)
        exact = fc.gk_exact_unitary(model, proto).value
        numeric = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        return bool(numeric) or not math.isfinite(est.mean) or abs(est.mean - exact) > Z_SIGMA * est.std_error


class SemiclassicalMc(Workload):
    """K = 4 S2 shots around an Ornstein-Uhlenbeck and a telegraph field,
    one sweep over the field kind."""

    name = "semiclassical_mc"
    kinds = ("ornstein_uhlenbeck", "telegraph")

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.ops = (Op("sweep", ("sweep", *self._config_arg()), SEMI_SEQUENCES * 4 * len(self.kinds)),)

    def make_config(self) -> dict:
        rng = self.rng
        times = _shot_times(rng, 4, 0.2, 0.5)
        return {
            "command": "sweep",
            "seed": int(rng.integers(2**31)),
            "protocol": {
                "alpha": 10.0,
                "tau": 0.01,
                "shots": [{"time": t, "basis": "S2"} for t in times],
            },
            "mc": {
                "sequences": SEMI_SEQUENCES,
                "mode": "semiclassical_field",
                "field": {
                    "kind": self.kinds[0],
                    "amplitude": _u(rng, 8.0, 12.0),
                    "correlation_time": _u(rng, 0.5, 2.0),
                },
            },
            "sweep": {"command": "simulate", "path": "mc.field.kind", "values": list(self.kinds)},
        }

    def check(self, outputs):
        errors = []
        rows = _rows(outputs["sweep"])
        if [r["sweep_value"] for r in rows] != list(self.kinds):
            return [f"sweep rows {[r['sweep_value'] for r in rows]}"]
        proto, field = self.config["protocol"], self.config["mc"]["field"]
        times = [s["time"] for s in proto["shots"]]
        for row in rows:
            ref = semiclassical_s2_moments(
                row["sweep_value"], proto["alpha"], proto["tau"], field["amplitude"],
                field["correlation_time"], times,
            )
            se = math.sqrt(ref["var_product"] / SEMI_SEQUENCES)
            mean = float(row["mc_mean[counts^K]"])
            if not abs(mean - ref["mean"]) <= Z_SIGMA * se:
                errors.append(f"{row['sweep_value']}: mc_mean {mean} is {abs(mean - ref['mean']) / se:.1f} SE from {ref['mean']}")
            if not abs(ref["mean"]) >= RESOLVED_SIGMA * se:
                errors.append(f"{row['sweep_value']}: signal {ref['mean']} not resolved by SE {se}")
            var = float(row["per_shot_variance_half[counts^2]"])
            se_var = math.sqrt(ref["var_h2"] / SEMI_SEQUENCES)
            if not abs(var - ref["half_variance"]) <= Z_SIGMA * se_var:
                errors.append(f"{row['sweep_value']}: per-shot variance {var} vs {ref['half_variance']} (SE {se_var:.3g})")
        return errors


class ExactGrid(Workload):
    """Coherent-engine ``exact`` with ``include_exact_unitary`` on a thermal
    spin-15/2 (d = 16), K = 8, over a 512-point final-time grid."""

    name = "exact_grid"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.ops = (Op("exact", ("exact", *self._config_arg()), EXACT_GRID_POINTS * len(EXACT_BASES)),)

    def make_config(self) -> dict:
        rng = self.rng
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

    def check(self, outputs):
        errors = []
        self._check_exact_grid_rows(_rows(outputs["exact"]), errors)
        return errors

    def probe(self) -> bool:
        """gk_leading on a spin-63/2 model with K = 8, where the absolute
        imaginary-trace guard trips on a large real value."""
        jx, _, jz = fc.spin_operators(63)
        h = jz + 0.3 * jx
        model = fc.TargetModel(hamiltonian=h, coupling=1.5 * jx, initial_state=fc.thermal_state(h, 0.1))
        shots = tuple(
            fc.ShotSpec(time=0.3 * i, basis=fc.MeasurementBasis(b)) for i, b in enumerate(EXACT_BASES)
        )
        proto = fc.ProtocolSpec(shots=shots, sensor=fc.SensorConfig(alpha=3.0, tau=0.02))
        try:
            value = fc.gk_leading(model, proto).value
        except fc.errors.NumericalGuardError:
            return True
        chain = CorrelationChain(h, 1.5 * jx, model.initial_state.matrix)
        expect = 2.0**-8 * 0.02**8 * 3.0**16 * chain.value([s.time for s in shots], _signs(EXACT_BASES))
        return not abs(value - expect) <= CHAIN_RTOL * abs(expect)


class FockCrosscheck(Workload):
    """``exact`` on the truncated-Fock engine at alpha = 2 (n_max = 34), on a
    spin-1/2 precession model with K = 2 and an 8-point grid."""

    name = "fock_crosscheck"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.ops = (Op("fock", ("exact", *self._config_arg()), FOCK_GRID_POINTS * 2),)

    def make_config(self) -> dict:
        rng = self.rng
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

    def check(self, outputs):
        errors = []
        rows = _rows(outputs["fock"])
        self._check_exact_grid_rows(rows, errors)
        model = build_model(self.config["model"])
        coherent = np.array(
            [fc.gk_exact_unitary(model, p).value for p in build_protocols(self.config["protocol"])]
        )
        fock = _floats(rows, "gk_exact_unitary[counts^K]")
        gap = np.max(np.abs(fock - coherent)) / np.max(np.abs(coherent))
        if not gap <= FOCK_RTOL:
            errors.append(f"Fock engine differs from the coherent engine by {gap:.3e} (rel.)")
        return errors


WORKLOADS = {cls.name: cls for cls in (KrausMc, SemiclassicalMc, ExactGrid, FockCrosscheck)}
