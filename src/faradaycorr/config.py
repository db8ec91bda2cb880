"""Run-configuration schema: one parse from the YAML document to domain objects.

``parse_config`` reads each section the command needs once: it checks keys
and types, then builds the domain object. Range rules live in the domain
constructors; their errors come back as a ``ConfigError`` naming the section,
so a value the CLI can read but not use exits 2 before any computation, for
every value of a sweep. Unknown keys are rejected.
"""

from __future__ import annotations

import copy
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import yaml

from .errors import ConfigError, FaradaycorrError, ResourceGuardError, check_memory
from .quantum_core import DensityMatrix, TargetModel, pure_state, spin_operators, thermal_state
from .sensor_optics import FockTruncation, MeasurementBasis, SensorConfig
from .snr import SnrScenario, lihof4_scenario
from .trajectory_mc import ClassicalFieldModel, FieldKind, TrajectoryConfig
from .weak_measurement import ProtocolSpec, ProtocolWarning, ShotSpec

COMMANDS = ("exact", "simulate", "snr", "sweep")
_SECTIONS = ("model", "protocol", "exact", "mc", "snr", "sweep")

_SPIN_TERMS = ("jx", "jy", "jz")
_MATRIX_KEYS = ("hamiltonian_matrix", "coupling_matrix", "initial_state_matrix")
# Peak of a spin model's life in (two_j+1)^2 complex numbers: the spin operators
# with their temporaries, the H and B sums, the thermal state and the eighs of
# TargetModel.spectral (10.2 measured as peak RSS at two_j = 1400).
_SPIN_MODEL_PEAK_MATRICES = 11
_SCENARIO_KEYS = ("g", "D", "n_s", "A", "N_ph", "moment_k")  # required in an inline scenario


@dataclass(frozen=True)
class Run:
    """A parsed config; ``seed`` is the top-level seed (None when absent)."""

    seed: int | None


@dataclass(frozen=True)
class ExactRun(Run):
    model: TargetModel
    protocols: list[ProtocolSpec]
    protocol_warning: str
    include_exact_unitary: bool
    fock: FockTruncation | None  # the Fock cross-check's cutoff, from alpha; None runs the coherent engine


@dataclass(frozen=True)
class SimulateRun(Run):
    protocols: list[ProtocolSpec]
    protocol_warning: str
    mc: TrajectoryConfig  # for the first protocol, one worker


@dataclass(frozen=True)
class SnrRun(Run):
    scenarios: list[tuple[int, SnrScenario]]


@dataclass(frozen=True)
class SweepRun(Run):
    path: str
    runs: list[tuple[object, Run]]  # (value, parsed variant)


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a mapping")
    return raw


# -- value checks ---------------------------------------------------------------


def _check_keys(section, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return section[key]


def _nonempty_list(value, where: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list")
    return value


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    """An int, or a float with an integral value; never a bool or a string."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _choice(value, choices: tuple[str, ...], where: str) -> str:
    if value not in choices:
        raise ConfigError(f"{where} must be {' | '.join(choices)}, got {value!r}")
    return value


@contextmanager
def _constructing(where: str):
    """Re-raise a domain constructor's range error as a ConfigError at ``where``;
    a resource guard passes through (exit 4, not 2)."""
    try:
        yield
    except (ConfigError, ResourceGuardError):
        raise
    except (ValueError, FaradaycorrError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# -- section parsers --------------------------------------------------------------


def _complex_matrix(model_cfg: dict, key: str) -> np.ndarray:
    """The matrix at model.<key>; entries are numbers or [re, im] pairs."""
    rows = _require(model_cfg, key, "model")
    try:
        entries = [[complex(*x) if isinstance(x, list) and len(x) == 2 else complex(x) for x in row]
                   for row in rows]
        return np.array(entries, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model.{key} is not a valid matrix: {exc}") from exc


def build_model(model_cfg: dict) -> TargetModel:
    """Parse the ``model`` section into a TargetModel."""
    if not isinstance(model_cfg, dict):
        raise ConfigError("model must be a mapping")
    kind = _require(model_cfg, "kind", "model")
    if kind == "custom":
        _check_keys(model_cfg, {"kind", *_MATRIX_KEYS}, "model")
        h, b, rho = (_complex_matrix(model_cfg, key) for key in _MATRIX_KEYS)
        with _constructing("model"):
            return TargetModel(hamiltonian=h, coupling=b, initial_state=DensityMatrix(rho))
    if kind != "single_spin":
        raise ConfigError(f"unknown model kind {kind!r}")
    _check_keys(
        model_cfg, {"kind", "two_j", "hamiltonian", "coupling", "initial_state", "beta"}, "model"
    )
    two_j = _integer(model_cfg.get("two_j", 1), "model.two_j")
    if two_j < 0:
        raise ConfigError(f"model.two_j must be >= 0, got {two_j}")
    check_memory(_SPIN_MODEL_PEAK_MATRICES * 16 * (two_j + 1) ** 2, f"spin-{two_j}/2 model")
    with _constructing("model.two_j"):
        ops = dict(zip(_SPIN_TERMS, spin_operators(two_j)))

    def combine(section: str) -> np.ndarray:
        terms = _require(model_cfg, section, "model")
        _check_keys(terms, set(_SPIN_TERMS), f"model.{section}")
        out = np.zeros((two_j + 1, two_j + 1), dtype=complex)
        for key, coeff in terms.items():
            out = out + _number(coeff, f"model.{section}.{key}") * ops[key]
        return out

    h, b = combine("hamiltonian"), combine("coupling")
    state = model_cfg.get("initial_state", "up")
    _choice(state, ("up", "down", "thermal"), "model.initial_state")
    with _constructing("model"):
        if state == "thermal":
            rho = thermal_state(h, _number(_require(model_cfg, "beta", "model"), "model.beta"))
        else:
            ket = np.zeros(two_j + 1)
            ket[0 if state == "up" else two_j] = 1.0
            rho = pure_state(ket)
        return TargetModel(hamiltonian=h, coupling=b, initial_state=rho)


def build_protocols(proto_cfg: dict) -> list[ProtocolSpec]:
    """Parse the ``protocol`` section: one ProtocolSpec per final-time grid
    point (or a single one)."""
    _check_keys(proto_cfg, {"alpha", "tau", "shots", "final_time_grid"}, "protocol")
    alpha = _number(_require(proto_cfg, "alpha", "protocol"), "protocol.alpha")
    tau = _number(_require(proto_cfg, "tau", "protocol"), "protocol.tau")
    shots = []
    shot_cfgs = _nonempty_list(_require(proto_cfg, "shots", "protocol"), "protocol.shots")
    for i, shot in enumerate(shot_cfgs):
        where = f"protocol.shots[{i}]"
        _check_keys(shot, {"time", "basis"}, where)
        time = _number(_require(shot, "time", where), f"{where}.time")
        basis = _require(shot, "basis", where)
        with _constructing(f"{where}.basis"):
            shots.append(ShotSpec(time=time, basis=MeasurementBasis(basis)))
    grid = proto_cfg.get("final_time_grid")
    if grid is not None:
        grid = _nonempty_list(grid, "protocol.final_time_grid")
        grid = [_number(t, "protocol.final_time_grid entry") for t in grid]
    with _constructing("protocol"):
        sensor = SensorConfig(alpha=alpha, tau=tau)
    with _constructing("protocol.shots"):
        if grid is None:
            return [ProtocolSpec(shots=tuple(shots), sensor=sensor)]
        head, last = tuple(shots[:-1]), shots[-1].basis
        return [ProtocolSpec((*head, ShotSpec(t, last)), sensor) for t in grid]


def build_field(field_cfg: dict) -> ClassicalFieldModel:
    """Parse the ``mc.field`` section into a ClassicalFieldModel."""
    _check_keys(field_cfg, {"kind", "amplitude", "correlation_time"}, "mc.field")
    kind = _require(field_cfg, "kind", "mc.field")
    amplitude = _number(_require(field_cfg, "amplitude", "mc.field"), "mc.field.amplitude")
    tc = _number(field_cfg.get("correlation_time", math.inf), "mc.field.correlation_time")
    with _constructing("mc.field"):
        return ClassicalFieldModel(kind=FieldKind(kind), amplitude=amplitude, correlation_time=tc)


def _scenario(params, where: str, L: float, orders) -> list[tuple[int, SnrScenario]]:
    """A scenario mapping at its own K, or at each of ``orders`` when given."""
    _check_keys(params, {*_SCENARIO_KEYS, "L", "K", "xi"}, where)
    values = {k: _number(_require(params, k, where), f"{where}.{k}") for k in _SCENARIO_KEYS}
    values["L"] = _number(params.get("L", L), f"{where}.L")
    own_xi = params.get("xi")
    values["xi"] = None if own_xi is None else _number(own_xi, f"{where}.xi")
    if "K" in params or orders is None:
        k = _integer(_require(params, "K", where), f"{where}.K")
        orders = orders or [k]
    with _constructing(where):
        return [(k, SnrScenario(**values, K=k)) for k in orders]


def build_scenarios(snr_cfg: dict) -> list[tuple[int, SnrScenario]]:
    """Parse the ``snr`` section into (K, scenario) pairs."""
    _check_keys(snr_cfg, {"preset", "preset_file", "scenario", "orders", "L", "xi"}, "snr")
    L = _number(snr_cfg.get("L", 1.0), "snr.L")
    xi = None if snr_cfg.get("xi") is None else _number(snr_cfg["xi"], "snr.xi")
    orders = snr_cfg.get("orders")
    if orders is not None:
        orders = _nonempty_list(orders, "snr.orders")
        orders = [_integer(k, f"snr.orders[{i}]") for i, k in enumerate(orders)]
    if "scenario" in snr_cfg:
        return _scenario(snr_cfg["scenario"], "snr.scenario", L, orders)
    if "preset_file" in snr_cfg:
        path = snr_cfg["preset_file"]
        if not isinstance(path, str):
            raise ConfigError(f"snr.preset_file must be a path, got {path!r}")
        try:
            entries = load_config(path)
        except ConfigError as exc:
            raise ConfigError(f"snr.preset_file: {exc}") from exc
        if not entries:
            raise ConfigError("snr.preset_file has no scenarios")
        # each entry is parsed as an inline scenario at its own K
        return [pair for name, params in entries.items()
                for pair in _scenario(params, f"snr.preset_file.{name}", L, None)]
    if "preset" not in snr_cfg:
        raise ConfigError("snr needs a preset, preset_file, or inline scenario")
    if snr_cfg["preset"] != "lihof4":
        raise ConfigError(f"unknown preset {snr_cfg['preset']!r}")
    if orders is None:
        raise ConfigError("snr.orders is required with a preset")
    with _constructing("snr.orders"):
        return [(k, lihof4_scenario(K=k, L=L, xi=xi)) for k in orders]


def _protocols(proto_cfg: dict) -> tuple[list[ProtocolSpec], str]:
    """The protocols, and the text of the ProtocolWarnings building them raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ProtocolWarning)
        protocols = build_protocols(proto_cfg)
    text = "; ".join(sorted({str(w.message) for w in caught if w.category is ProtocolWarning}))
    return protocols, text


def _parse_exact(raw: dict, seed: int | None) -> ExactRun:
    model = build_model(_require(raw, "model", "top level"))
    protocols, warning = _protocols(_require(raw, "protocol", "top level"))
    section = raw.get("exact", {})
    _check_keys(section, {"include_exact_unitary", "engine"}, "exact")
    include = section.get("include_exact_unitary", False)
    if not isinstance(include, bool):
        raise ConfigError(f"exact.include_exact_unitary must be true or false, got {include!r}")
    engine = _choice(section.get("engine", "coherent"), ("coherent", "fock"), "exact.engine")
    fock = FockTruncation.for_alpha(protocols[0].sensor.alpha) if engine == "fock" else None
    return ExactRun(seed, model, protocols, warning, include, fock)


def _parse_simulate(raw: dict, seed: int | None) -> SimulateRun:
    if seed is None:
        raise ConfigError("simulate requires an explicit top-level seed")
    protocols, warning = _protocols(_require(raw, "protocol", "top level"))
    mc = _require(raw, "mc", "top level")
    _check_keys(mc, {"sequences", "mode", "field"}, "mc")
    sequences = _integer(_require(mc, "sequences", "mc"), "mc.sequences")
    mode = mc.get("mode", "kraus_quantum")
    _choice(mode, ("kraus_quantum", "semiclassical_field"), "mc.mode")
    if mode == "kraus_quantum":
        target = build_model(_require(raw, "model", "top level"))
    else:
        target = build_field(_require(mc, "field", "mc"))
    with _constructing("mc"):
        cfg = TrajectoryConfig(sequences, seed, mode, protocols[0], target)
    return SimulateRun(seed, protocols, warning, cfg)


def _parse_sweep(raw: dict, seed: int | None) -> SweepRun:
    sweep = _require(raw, "sweep", "top level")
    _check_keys(sweep, {"command", "path", "values"}, "sweep")
    base = _require(sweep, "command", "sweep")
    _choice(base, ("exact", "simulate", "snr"), "sweep.command")
    path = _require(sweep, "path", "sweep")
    if not isinstance(path, str) or not path:
        raise ConfigError("sweep.path must be a non-empty dotted key path")
    runs = []
    for value in _nonempty_list(_require(sweep, "values", "sweep"), "sweep.values"):
        variant = set_config_path(raw, path, value)
        variant["command"] = base
        del variant["sweep"]
        try:
            runs.append((value, parse_config(variant)))
        except ConfigError as exc:
            raise ConfigError(f"sweep value {value!r} at {path}: {exc}") from exc
    return SweepRun(seed, path, runs)


def parse_config(raw: dict) -> Run:
    """Parse the document into what its command needs; raises ConfigError."""
    _check_keys(raw, {"command", "seed", *_SECTIONS}, "top level")
    command = _choice(_require(raw, "command", "top level"), COMMANDS, "command")
    seed = None if raw.get("seed") is None else _integer(raw["seed"], "seed")
    if command == "exact":
        return _parse_exact(raw, seed)
    if command == "simulate":
        return _parse_simulate(raw, seed)
    if command == "snr":
        return SnrRun(seed, build_scenarios(_require(raw, "snr", "top level")))
    return _parse_sweep(raw, seed)


def validate_config(raw: dict) -> dict:
    """Parse the whole document; returns it unchanged on success."""
    parse_config(raw)
    return raw


def set_config_path(raw: dict, path: str, value) -> dict:
    """Return a deep copy of the document with the dotted path replaced."""
    doc = copy.deepcopy(raw)
    keys = path.split(".")
    node = doc
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"sweep path {path!r} does not resolve")
        node = node[key]
    if not isinstance(node, dict) or keys[-1] not in node:
        raise ConfigError(f"sweep path {path!r} does not resolve")
    node[keys[-1]] = value
    return doc
