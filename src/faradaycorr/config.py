"""Run-configuration schema: one parse from the YAML document to domain objects.

``parse_config`` reads each section the command needs once: it checks keys
and types, then builds the domain object. Range rules live in the domain
constructors; their errors come back as a ``ConfigError`` naming the section,
so a value the CLI can read but not use exits 2 before any computation, for
every value of a sweep. Unknown keys are rejected.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import re
import warnings
from collections.abc import Hashable
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
import yaml

from .errors import ConfigError, FaradaycorrError, ResourceGuardError, check_memory
from .quantum_core import DensityMatrix, TargetModel, pure_state, spin_operators, thermal_state
from .sensor_optics import MeasurementBasis, SensorConfig, check_fock_memory, required_cutoff
from .snr import SnrScenario, lihof4_scenario
from .trajectory_mc import MODES, ClassicalFieldModel, FieldKind, TrajectoryConfig, check_mc_memory
from .weak_measurement import ENGINES, ProtocolSpec, ProtocolWarning, ShotSpec

_SECTIONS = ("model", "protocol", "exact", "mc", "snr", "sweep")

_SPIN_TERMS = ("jx", "jy", "jz")
_MATRIX_KEYS = ("hamiltonian_matrix", "coupling_matrix", "initial_state_matrix")
# Peak of a spin model's life in (two_j+1)^2 complex numbers: the spin operators
# with their temporaries, the H and B sums, the thermal state and the eighs of
# TargetModel.spectral (10.2 measured as peak RSS at two_j = 1400).
_SPIN_MODEL_PEAK_MATRICES = 11
_SCENARIO_KEYS = ("g", "D", "n_s", "A", "N_ph", "moment_k")  # required in an inline scenario
_DEFAULT_L = 1.0  # snr.L when neither the section nor the scenario sets it
# YAML's spellings of the non-finite floats. manifest.json stores a non-finite
# config value as its spelling (``spelled``), and a number or sweep value
# reads the spelling back (``_unspelled``), so a stored config replays as it stands.
NON_FINITE = {".nan": math.nan, ".inf": math.inf, "-.inf": -math.inf}


@dataclass(frozen=True)
class Run:
    """A parsed config; ``seed`` is the top-level seed (None when absent)."""

    seed: int | None


@dataclass(frozen=True)
class ExactRun(Run):
    model: TargetModel
    protocol: ProtocolSpec  # the protocol at finals[0]
    finals: tuple[float, ...]  # its last shot's times, one row each
    engine: str | None  # the all-orders column's engine, one of ENGINES; None: no such column


@dataclass(frozen=True)
class SimulateRun(Run):
    mcs: tuple[TrajectoryConfig, ...]  # one per final time, in order, each at one worker


@dataclass(frozen=True)
class SnrRun(Run):
    scenarios: list[SnrScenario]


@dataclass(frozen=True)
class SweepRun(Run):
    command: str  # the base command each variant runs
    path: str
    variants: tuple[tuple[object, dict], ...]  # (value, variant config), each parsed again when it runs


_FLOAT_TAG = "tag:yaml.org,2002:float"
_MERGE_TAG = "tag:yaml.org,2002:merge"
# The plain scalars that YAML 1.1 and float() read as the same float: no "_",
# ":" or leading ".", and an exponent only after a dot and with a sign. YAML
# 1.1 reads 1e5 and 1.0e5 as strings; float() does not.
_PLAIN_FLOAT = re.compile(r"[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?")


class _ConfigLoading:
    """What ``load_config`` adds to PyYAML's safe loader. A plain scalar of
    ``_PLAIN_FLOAT`` is tagged a float without trying each implicit resolver,
    and a list of such floats is built with one ``float`` call per item
    instead of one constructor call each: a long final-time grid is most of
    a config. Everything else goes to PyYAML as it is, so the document is
    the one ``yaml.safe_load`` gives, except that a mapping giving one key
    twice is an error rather than keeping its last value. A merge key
    (``<<``) is not such a key: a mapping's own keys still override the
    merged ones."""

    def resolve(self, kind, value, implicit):
        if kind is yaml.ScalarNode and implicit[0] and _PLAIN_FLOAT.fullmatch(value):
            return _FLOAT_TAG
        return super().resolve(kind, value, implicit)

    def construct_sequence(self, node, deep=False):
        children = node.value if isinstance(node, yaml.SequenceNode) else ()
        texts = [child.value for child in children if child.tag == _FLOAT_TAG and isinstance(child, yaml.ScalarNode)]
        if texts and len(texts) == len(children) and all(map(_PLAIN_FLOAT.fullmatch, texts)):
            return list(map(float, texts))
        return super().construct_sequence(node, deep=deep)

    def construct_mapping(self, node, deep=False):
        if isinstance(node, yaml.MappingNode):
            own = [key for key, _ in node.value if key.tag != _MERGE_TAG]
            self.flatten_mapping(node)
            lines = {}  # (type, key) of each own key: its line; 1 and true are two keys, as in YAML
            for key_node in own:
                key = self.construct_object(key_node, deep=deep)
                if not isinstance(key, Hashable):
                    continue  # PyYAML refuses it below
                if (type(key), key) in lines:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {key!r}, first given on line {lines[type(key), key]}",
                        key_node.start_mark,
                    )
                lines[type(key), key] = key_node.start_mark.line + 1
        return super().construct_mapping(node, deep=deep)


@functools.cache
def _loader(base: type) -> type:
    return type(f"Config{base.__name__}", (_ConfigLoading, base), {})


def load_config(path) -> dict:
    """The YAML document at ``path``, as ``yaml.safe_load`` reads it. A file
    that cannot be read, is not UTF-8 or not YAML, has a mapping that gives a
    key twice, or holds an integer past Python's int-string digit limit is a
    config error. The loader is ``_ConfigLoading`` on libyaml's safe loader
    when PyYAML was built with libyaml (chosen at each call), else on
    PyYAML's own: libyaml scans a long final-time grid in a fraction of the
    time, and ``_ConfigLoading`` tags and builds its floats without PyYAML's
    per-scalar Python calls."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)))
    except (OSError, ValueError, yaml.YAMLError) as exc:  # ValueError: not UTF-8, or past the digit limit
        message = str(exc).replace("\n  in ", " in ").replace("\n", "; ")  # PyYAML puts each mark on a line of its own
        raise ConfigError(f"cannot read config {path}: {message}") from exc
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


def _unspelled(value):
    """The float that a spelling in ``NON_FINITE`` names; any other value as it is."""
    return NON_FINITE[value] if isinstance(value, str) and value in NON_FINITE else value


def spelled(value):
    """The config as manifest.json stores it: each non-finite float becomes
    its spelling in ``NON_FINITE`` as a string, since RFC 8259 JSON has no
    token for it."""
    if isinstance(value, float) and not math.isfinite(value):
        return next(spelling for spelling, x in NON_FINITE.items() if str(x) == str(value))
    if isinstance(value, dict):
        return {key: spelled(item) for key, item in value.items()}
    if isinstance(value, list):
        return [spelled(item) for item in value]
    return value


def config_json(raw: dict) -> str:
    """The config as manifest.json stores it (``spelled``), encoded once as
    the text ``config_sha256`` hashes: ``json.dumps`` with sorted keys. A
    value JSON cannot hold is a config error, found before anything runs or
    is written."""
    try:
        try:
            return json.dumps(raw, sort_keys=True, allow_nan=False)
        except ValueError:  # a non-finite float, or a list or mapping that holds itself
            json.dumps(raw, sort_keys=True)  # raises on the latter, which spelled would walk forever
            return json.dumps(spelled(raw), sort_keys=True, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config cannot be stored in manifest.json: {exc}") from exc


def _number(value, where: str) -> float:
    value = _unspelled(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal past the float range
        raise ConfigError(f"{where} must lie within the float range, got an integer of "
                          f"{len(str(abs(value)))} digits") from None


def _numbers(values: list, where: str) -> list[float]:
    """``_number`` of each of ``values``, their types checked at once; an
    error names the first value that is not a number, or that leaves the
    float range, as ``where[i]``."""
    if set(map(type, values)) <= {int, float}:
        try:
            return list(map(float, values))
        except OverflowError:
            pass  # the loop below names the integer
    return [_number(value, f"{where}[{i}]") for i, value in enumerate(values)]


def _integer(value, where: str) -> int:
    """An int, or a float with an integral value; never a bool or a string."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _choice(value, choices, where: str) -> str:
    if value not in tuple(choices):
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


def _entry(x, where: str):
    """A matrix entry: a number, or an [re, im] pair of numbers."""
    if isinstance(x, list) and len(x) == 2:
        return complex(_number(x[0], f"{where}[0]"), _number(x[1], f"{where}[1]"))
    return _number(x, where)


def _complex_matrix(model_cfg: dict, key: str) -> np.ndarray:
    """The matrix at model.<key>; entries are finite numbers or [re, im]
    pairs (``_entry``)."""
    rows = _require(model_cfg, key, "model")
    try:
        entries = [[_entry(x, f"model.{key}[{i}][{j}]") for j, x in enumerate(row)] for i, row in enumerate(rows)]
        matrix = np.array(entries, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model.{key} is not a valid matrix: {exc}") from exc
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        i, j = bad[0]
        raise ConfigError(f"model.{key}[{i}][{j}] must be finite, got {rows[i][j]!r}")
    return matrix


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
            value = _number(coeff, f"model.{section}.{key}")
            if not math.isfinite(value):
                raise ConfigError(f"model.{section}.{key} must be finite, got {value!r}")
            with np.errstate(over="ignore"):
                out = out + value * ops[key]
            if not np.isfinite(out).all():
                raise ConfigError(f"model.{section}.{key} = {value!r} takes the {section} past the float range")
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


def _protocol_grid(proto_cfg: dict) -> tuple[ProtocolSpec, tuple[float, ...]]:
    """Parse the ``protocol`` section into the protocol at the first final
    time and the final times: the grid's, or the last shot's own time. The
    grid checks make every final time one the protocol can hold, so only the
    first protocol is built."""
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
        grid = _numbers(_nonempty_list(grid, "protocol.final_time_grid"), "protocol.final_time_grid")
        prev = len(shots) - 2  # the shot each final time follows
        finals = np.array(grid)
        bad = ~np.isfinite(finals)
        if prev >= 0:
            bad |= finals < shots[prev].time
        if bad.any():
            i = int(np.argmax(bad))
            follows = f" and not before protocol.shots[{prev}].time = {shots[prev].time:g}" if prev >= 0 else ""
            raise ConfigError(f"protocol.final_time_grid[{i}] = {grid[i]:g} must be finite{follows}")
    with _constructing("protocol"):
        sensor = SensorConfig(alpha=alpha, tau=tau)
    with _constructing("protocol.shots"):
        if grid is None:
            return ProtocolSpec(shots=tuple(shots), sensor=sensor), (shots[-1].time,)
        return ProtocolSpec((*shots[:-1], ShotSpec(grid[0], shots[-1].basis)), sensor), tuple(grid)


def build_protocols(proto_cfg: dict) -> list[ProtocolSpec]:
    """Parse the ``protocol`` section: one ProtocolSpec per final-time grid
    point (or a single one)."""
    protocol, finals = _protocol_grid(proto_cfg)
    return [protocol, *map(protocol.at, finals[1:])]


def build_field(field_cfg: dict) -> ClassicalFieldModel:
    """Parse the ``mc.field`` section into a ClassicalFieldModel."""
    _check_keys(field_cfg, {"kind", "amplitude", "correlation_time"}, "mc.field")
    kind = _require(field_cfg, "kind", "mc.field")
    amplitude = _number(_require(field_cfg, "amplitude", "mc.field"), "mc.field.amplitude")
    tc = _number(field_cfg.get("correlation_time", math.inf), "mc.field.correlation_time")
    with _constructing("mc.field"):
        return ClassicalFieldModel(kind=FieldKind(kind), amplitude=amplitude, correlation_time=tc)


def _scenario(params, where: str, L: float | None, orders) -> list[SnrScenario]:
    """A scenario mapping at its own K, or at each of ``orders`` when given;
    ``L`` is snr.L, None when the section does not set it."""
    _check_keys(params, {*_SCENARIO_KEYS, "L", "K", "xi"}, where)
    if "L" in params:
        if L is not None:
            raise ConfigError(f"snr.L applies to a preset or to scenarios without their own L, "
                              f"not to {where}, which sets {where}.L")
        L = _number(params["L"], f"{where}.L")
    values = {k: _number(_require(params, k, where), f"{where}.{k}") for k in _SCENARIO_KEYS}
    values["L"] = _DEFAULT_L if L is None else L
    own_xi = params.get("xi")
    values["xi"] = None if own_xi is None else _number(own_xi, f"{where}.xi")
    if "K" in params or orders is None:
        k = _integer(_require(params, "K", where), f"{where}.K")
        orders = orders or [k]
    with _constructing(where):
        return [SnrScenario(**values, K=k) for k in orders]


def build_scenarios(snr_cfg: dict) -> list[SnrScenario]:
    """Parse the ``snr`` section into scenarios, one per row. It names one
    source: a preset at ``orders`` with its ``xi``, an inline scenario (at
    ``orders`` when given), or a preset file whose scenarios keep their own K."""
    _check_keys(snr_cfg, {"preset", "preset_file", "scenario", "orders", "L", "xi"}, "snr")
    sources = [key for key in ("preset", "preset_file", "scenario") if key in snr_cfg]
    if len(sources) != 1:
        raise ConfigError(f"snr needs exactly one of preset, preset_file and scenario, got {sources}")
    if "orders" in snr_cfg and "preset_file" in snr_cfg:
        raise ConfigError("snr.orders applies to a preset or a scenario, not to snr.preset_file, "
                          "whose scenarios keep their own K")
    if "xi" in snr_cfg and "preset" not in snr_cfg:
        raise ConfigError(f"snr.xi applies to a preset only, not to snr.{sources[0]}, "
                          "whose scenarios set their own xi")
    L = _number(snr_cfg["L"], "snr.L") if "L" in snr_cfg else None
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
        return [scenario for name, params in entries.items()
                for scenario in _scenario(params, f"snr.preset_file.{name}", L, None)]
    if snr_cfg["preset"] != "lihof4":
        raise ConfigError(f"unknown preset {snr_cfg['preset']!r}")
    if orders is None:
        raise ConfigError("snr.orders is required with a preset")
    xi = None if snr_cfg.get("xi") is None else _number(snr_cfg["xi"], "snr.xi")
    with _constructing("snr.orders"):
        return [lihof4_scenario(K=k, L=_DEFAULT_L if L is None else L, xi=xi) for k in orders]


def _parse_exact(raw: dict, seed: int | None) -> ExactRun:
    model = build_model(_require(raw, "model", "top level"))
    protocol, finals = _protocol_grid(_require(raw, "protocol", "top level"))
    section = raw.get("exact", {})
    _check_keys(section, {"include_exact_unitary", "engine"}, "exact")
    include = section.get("include_exact_unitary", False)
    if not isinstance(include, bool):
        raise ConfigError(f"exact.include_exact_unitary must be true or false, got {include!r}")
    engine = _choice(section.get("engine", "coherent"), ENGINES, "exact.engine")
    if engine == "fock" and not include:
        raise ConfigError("exact.engine: fock computes the all-orders column only, so it needs "
                          "exact.include_exact_unitary: true")
    if engine == "fock":  # exit 4 before any run of a sweep computes
        check_fock_memory(required_cutoff(protocol.sensor.alpha), model.dim)
    return ExactRun(seed, model, protocol, finals, engine if include else None)


def _parse_simulate(raw: dict, seed: int | None) -> SimulateRun:
    if seed is None:
        raise ConfigError("simulate requires an explicit top-level seed")
    protocol, finals = _protocol_grid(_require(raw, "protocol", "top level"))
    mc = _require(raw, "mc", "top level")
    _check_keys(mc, {"sequences", "mode", "field"}, "mc")
    sequences = _integer(_require(mc, "sequences", "mc"), "mc.sequences")
    mode = _choice(mc.get("mode", "kraus_quantum"), MODES, "mc.mode")
    if mode == "kraus_quantum":
        target = build_model(_require(raw, "model", "top level"))
    else:
        target = build_field(_require(mc, "field", "mc"))
    with _constructing("mc"):
        cfg = TrajectoryConfig(sequences, seed, mode, protocol, target)
    check_mc_memory(cfg)  # at one worker, the layout default_workers falls back to
    return SimulateRun(seed, (cfg, *(replace(cfg, proto=protocol.at(t)) for t in finals[1:])))


def _parse_snr(raw: dict, seed: int | None) -> SnrRun:
    return SnrRun(seed, build_scenarios(_require(raw, "snr", "top level")))


def _parse_sweep(raw: dict, seed: int | None) -> SweepRun:
    """Every variant's config, each parsed before any runs so that a bad
    value exits 2 and a value past a guard exits 4 before anything computes.
    Only the configs are kept: one value's model is held at a time."""
    sweep = _require(raw, "sweep", "top level")
    _check_keys(sweep, {"command", "path", "values"}, "sweep")
    base = _choice(_require(sweep, "command", "sweep"), [c for c in COMMANDS if c != "sweep"], "sweep.command")
    path = _require(sweep, "path", "sweep")
    if not isinstance(path, str) or not path:
        raise ConfigError("sweep.path must be a non-empty dotted key path")
    if path == "command" or path.split(".")[0] == "sweep":
        raise ConfigError(f"sweep.path must not name command or sweep, which the sweep sets itself, got {path!r}")
    variants = []
    for value in map(_unspelled, _nonempty_list(_require(sweep, "values", "sweep"), "sweep.values")):
        variant = set_config_path(raw, path, value)
        variant["command"] = base
        del variant["sweep"]
        try:
            parse_config(variant)
        except ConfigError as exc:
            raise ConfigError(f"sweep value {value!r} at {path}: {exc}") from exc
        variants.append((value, variant))
    return SweepRun(seed, base, path, tuple(variants))


# Each command's parser.
COMMANDS = {"exact": _parse_exact, "simulate": _parse_simulate, "snr": _parse_snr, "sweep": _parse_sweep}


def parse_config(raw: dict) -> Run:
    """Parse the document into what its command needs; raises ConfigError."""
    _check_keys(raw, {"command", "seed", *_SECTIONS}, "top level")
    command = _choice(_require(raw, "command", "top level"), COMMANDS, "command")
    seed = None if raw.get("seed") is None else _integer(raw["seed"], "seed")
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ProtocolWarning)  # the CLI writes ProtocolSpec.warning to its rows
        return COMMANDS[command](raw, seed)


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
