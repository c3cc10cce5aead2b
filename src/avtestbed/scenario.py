"""Scenario data model: entity types, validation, log-column mapping, JSON documents.

A scenario document is UTF-8 JSON with top-level keys ``"environment"`` and
``"config"``.  All positions are 3-vectors ``[x, height, lateral]``; the
simulation kernel works in the ground plane, so component 0 is planar x and
component 2 is planar y (component 1 is stored but inert).  Orientations used
by the kernel (``current_orientation``) are planar headings in radians,
measured counterclockwise from the +x axis.  The model holds only what the
kernel reads; any other key, including the scenery, sensor and camera fields
of the Webots format, is rejected as an unknown field.

Every model field is named by its document key, and the document schema is
read from the dataclass fields and their annotations, so binding paths,
parse errors and validation violations all use the same names.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import re
import sys
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum, EnumMeta, IntEnum
from typing import Any, Callable, NewType, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .controllers import PEDESTRIAN_CONTROLLERS, ControllerConfigError, make_vehicle_controller
from .controllers import registered_vehicle_controllers


# A position [x, height, lateral]: an array of exactly three numbers.
Vec3 = NewType("Vec3", list[float])


class SyncType(Enum):
    NO_HEART_BEAT = "NO_HEART_BEAT"
    WITHOUT_SYNC = "WITHOUT_SYNC"
    WITH_SYNC = "WITH_SYNC"


class RunMode(Enum):
    REAL_TIME = "REAL_TIME"
    FAST_RUN = "FAST_RUN"
    FAST_NO_GRAPHICS = "FAST_NO_GRAPHICS"


class ItemType(Enum):
    TIME = "TIME"
    VEHICLE = "VEHICLE"
    PEDESTRIAN = "PEDESTRIAN"


class StateId(IntEnum):
    """Loggable per-entity states, in their stable serialization order."""

    POSITION_X = 0
    POSITION_Y = 1
    ORIENTATION = 2
    SPEED = 3
    VELOCITY_X = 4
    VELOCITY_Y = 5


@dataclass
class Vehicle:
    vhc_id: int = 0
    current_position: Vec3 = field(default_factory=lambda: [0.0, 0.3, 0.0])
    current_orientation: float = 0.0
    controller: str = "void"
    controller_arguments: list[str] = field(default_factory=list)


@dataclass
class Pedestrian:
    ped_id: int = 0
    current_position: Vec3 = field(default_factory=lambda: [0.0, 0.0, 0.0])
    controller: str = "void"
    target_speed: float = 0.0
    trajectory: list[float] = field(default_factory=list)


@dataclass
class RoadDisturbance:
    """Repeated bumps on a lane stretch; observable as a lateral log offset."""

    position: Vec3 = field(default_factory=lambda: [0.0, 0.0, 0.0])
    length: float = 100.0
    width: float = 3.5
    height: float = 0.06
    inter_object_spacing: float = 1.0


@dataclass
class ControllerParameter:
    vehicle_id: Optional[int] = None
    parameter_name: str = ""
    parameter_data: list[float] = field(default_factory=list)


@dataclass
class HeartbeatConfig:
    sync_type: SyncType = SyncType.NO_HEART_BEAT
    period_ms: int = 10


@dataclass
class LogItemDescription:
    """One column of the simulation trace.

    TIME entries ignore ``item_index`` and ``item_state_index``.
    """

    item_type: ItemType = ItemType.TIME
    item_index: int = 0
    item_state_index: StateId = StateId.POSITION_X

    def key(self) -> tuple:
        """Canonical identity used for trace-column lookup."""
        if self.item_type is ItemType.TIME:
            return (ItemType.TIME, 0, None)
        return (self.item_type, self.item_index, self.item_state_index)


@dataclass
class InitialStateConfig:
    item: LogItemDescription
    value: float


@dataclass
class SimEnvironment:
    heart_beat_config: Optional[HeartbeatConfig] = None
    ego_vehicles_list: list[Vehicle] = field(default_factory=list)
    agent_vehicles_list: list[Vehicle] = field(default_factory=list)
    pedestrians_list: list[Pedestrian] = field(default_factory=list)
    road_disturbances_list: list[RoadDisturbance] = field(default_factory=list)
    control_params_list: list[ControllerParameter] = field(default_factory=list)
    initial_state_config_list: list[InitialStateConfig] = field(default_factory=list)
    data_log_description_list: list[LogItemDescription] = field(default_factory=list)
    data_log_period_ms: Optional[int] = None

    def all_vehicles(self) -> list[Vehicle]:
        """Ego vehicles first, then agents; list order defines item_index."""
        return list(self.ego_vehicles_list) + list(self.agent_vehicles_list)


@dataclass
class RunConfig:
    simulation_run_mode: RunMode = RunMode.FAST_NO_GRAPHICS


@dataclass
class SimulationConfig:
    server_port: int = 10021
    server_ip: str = "127.0.0.1"
    sim_duration_ms: int = 50000
    sim_step_size: int = 10
    run_config_arr: list[RunConfig] = field(default_factory=list)


@dataclass
class Trajectory:
    """Time-indexed log of entity states; column 0 is time in milliseconds."""

    column_labels: list[LogItemDescription]
    rows: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self.column_labels == other.column_labels and np.array_equal(
            self.rows, other.rows
        )

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])


@dataclass
class Violation:
    """A single invariant violation found by validate_environment."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


class ScenarioFormatError(ValueError):
    """Raised when a scenario document cannot be parsed; carries a field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# --------------------------------------------------------------------------
# Validation


def _check_vec3(report: list[Violation], path: str, vec: list[float]) -> None:
    if len(vec) != 3:
        report.append(Violation(path, f"expected 3 components, got {len(vec)}"))
    _check_finite(report, path, vec)


def _check_finite(report: list[Violation], path: str, values: list[float]) -> None:
    if not all(math.isfinite(v) for v in values):
        report.append(Violation(path, f"must be finite, got {values}"))


def validate_environment(env: SimEnvironment) -> list[Violation]:
    """Collect every invariant violation in env; an empty list means valid."""
    report: list[Violation] = []
    vehicles = env.all_vehicles()

    seen_vhc: dict[int, str] = {}
    for i, vhc in enumerate(env.ego_vehicles_list):
        _validate_vehicle(report, f"ego_vehicles_list[{i}]", vhc, seen_vhc)
    for i, vhc in enumerate(env.agent_vehicles_list):
        _validate_vehicle(report, f"agent_vehicles_list[{i}]", vhc, seen_vhc)

    seen_ped: dict[int, str] = {}
    for i, ped in enumerate(env.pedestrians_list):
        path = f"pedestrians_list[{i}]"
        if ped.ped_id in seen_ped:
            report.append(
                Violation(path, f"duplicate pedestrian id {ped.ped_id} (also {seen_ped[ped.ped_id]})")
            )
        else:
            seen_ped[ped.ped_id] = path
        if ped.controller not in PEDESTRIAN_CONTROLLERS:
            report.append(Violation(path, f"unknown pedestrian controller {ped.controller!r}"))
        if len(ped.trajectory) % 2 != 0:
            report.append(Violation(path, "trajectory must list x,y pairs (even length)"))
        if ped.target_speed < 0:
            report.append(Violation(path, "target_speed must be >= 0"))
        _check_finite(report, path + ".target_speed", [ped.target_speed])
        _check_finite(report, path + ".trajectory", ped.trajectory)
        _check_vec3(report, path + ".current_position", ped.current_position)

    for i, dist in enumerate(env.road_disturbances_list):
        path = f"road_disturbances_list[{i}]"
        for attr in ("length", "width", "inter_object_spacing", "height"):
            value = getattr(dist, attr)
            if value <= 0:
                report.append(Violation(path, f"{attr} must be > 0"))
            _check_finite(report, f"{path}.{attr}", [value])
        _check_vec3(report, path + ".position", dist.position)

    if env.heart_beat_config is not None and env.heart_beat_config.period_ms < 1:
        report.append(Violation("heart_beat_config", "period_ms must be >= 1"))

    for i, par in enumerate(env.control_params_list):
        path = f"control_params_list[{i}]"
        if par.parameter_name != "target_position":
            message = f"parameter_name must be 'target_position', got {par.parameter_name!r}"
            report.append(Violation(path, message))
        if len(par.parameter_data) != 2:
            message = f"parameter_data must be one x,y pair, got {len(par.parameter_data)} numbers"
            report.append(Violation(path, message))
        if par.vehicle_id is not None and par.vehicle_id not in seen_vhc:
            report.append(Violation(path, f"vehicle_id {par.vehicle_id} names no vehicle"))
        _check_finite(report, path + ".parameter_data", par.parameter_data)

    n_vhc = len(vehicles)
    n_ped = len(env.pedestrians_list)

    def check_item(path: str, item: LogItemDescription) -> None:
        if item.item_type is ItemType.VEHICLE and not (0 <= item.item_index < n_vhc):
            report.append(
                Violation(path, f"dangling vehicle index {item.item_index} (have {n_vhc})")
            )
        elif item.item_type is ItemType.PEDESTRIAN and not (0 <= item.item_index < n_ped):
            report.append(
                Violation(path, f"dangling pedestrian index {item.item_index} (have {n_ped})")
            )

    for i, isc in enumerate(env.initial_state_config_list):
        path = f"initial_state_config_list[{i}]"
        if isc.item.item_type is ItemType.TIME:
            report.append(Violation(path, "initial state cannot target TIME"))
        else:
            check_item(path, isc.item)
        if (
            isc.item.item_type is ItemType.PEDESTRIAN
            and isc.item.item_state_index is StateId.ORIENTATION
        ):
            # a walking pedestrian faces its next waypoint; nothing stores a heading
            message = "initial state cannot target a pedestrian's ORIENTATION"
            report.append(Violation(path, message))
        _check_finite(report, path + ".value", [isc.value])

    for i, desc in enumerate(env.data_log_description_list):
        if desc.item_type is not ItemType.TIME:
            check_item(f"data_log_description_list[{i}]", desc)

    if env.data_log_period_ms is not None and env.data_log_period_ms < 1:
        report.append(Violation("data_log_period_ms", "must be a positive integer"))

    return report


def _validate_vehicle(
    report: list[Violation], path: str, vhc: Vehicle, seen: dict[int, str]
) -> None:
    if vhc.vhc_id in seen:
        report.append(Violation(path, f"duplicate vehicle id {vhc.vhc_id} (also {seen[vhc.vhc_id]})"))
    else:
        seen[vhc.vhc_id] = path
    _check_vec3(report, path + ".current_position", vhc.current_position)
    _check_finite(report, path + ".current_orientation", [vhc.current_orientation])
    if vhc.controller not in registered_vehicle_controllers():
        report.append(Violation(path, f"unknown vehicle controller {vhc.controller!r}"))
        return
    try:  # each controller states its own argument rules when it is built
        make_vehicle_controller(vhc.controller, list(vhc.controller_arguments), [])
    except ControllerConfigError as exc:
        report.append(Violation(path + ".controller_arguments", str(exc)))


def validate_config(config: SimulationConfig) -> list[Violation]:
    report: list[Violation] = []
    if not 1 <= config.server_port <= 65535:
        message = f"must be in 1-65535, got {config.server_port}"
        report.append(Violation("config.server_port", message))
    if config.sim_step_size < 1:
        report.append(Violation("config.sim_step_size", "must be a positive integer"))
    if config.sim_duration_ms < 0:
        report.append(Violation("config.sim_duration_ms", "must be >= 0"))
    elif config.sim_step_size >= 1 and config.sim_duration_ms % config.sim_step_size != 0:
        report.append(
            Violation(
                "config.sim_duration_ms",
                f"duration {config.sim_duration_ms} not a multiple of step {config.sim_step_size}",
            )
        )
    return report


def validate_run(env: SimEnvironment, config: SimulationConfig) -> list[Violation]:
    """validate_config(config), plus the rules that running env under config
    adds: a run config to select, and a log period, on the step grid, for
    the declared log columns."""
    report = validate_config(config)
    if not config.run_config_arr:
        report.append(Violation("config.run_config_arr", "must contain at least one entry"))
    period, step = env.data_log_period_ms, config.sim_step_size
    if not env.data_log_description_list:
        return report
    if period is None:
        report.append(Violation("data_log_period_ms", "must be set when log items are declared"))
    elif step >= 1 and (period < 1 or period % step != 0):
        message = f"log period {period} ms is not a positive multiple of the step size {step} ms"
        report.append(Violation("data_log_period_ms", message))
    return report


# --------------------------------------------------------------------------
# Trace-column mapping


def _key_name(key: tuple) -> str:
    item_type, index, state = key
    if item_type is ItemType.TIME:
        return "time_ms"
    return f"{item_type.value.lower()}{index}_{state.name.lower()}"


def column_names(labels: list[LogItemDescription]) -> list[str]:
    """CSV header names: time_ms, then <entity><index>_<state>."""
    return [_key_name(d.key()) for d in labels]


def parse_column_name(name: str) -> LogItemDescription:
    """Inverse of column_names for a single header cell."""
    if name == "time_ms":
        return LogItemDescription(ItemType.TIME, 0, StateId.POSITION_X)
    for prefix, item_type in (("vehicle", ItemType.VEHICLE), ("pedestrian", ItemType.PEDESTRIAN)):
        if name.startswith(prefix):
            rest = name[len(prefix):]
            idx_str, _, state_str = rest.partition("_")
            try:
                return LogItemDescription(item_type, int(idx_str), StateId[state_str.upper()])
            except (ValueError, KeyError):
                break
    raise ValueError(f"unrecognized trace column name {name!r}")


# --------------------------------------------------------------------------
# JSON documents
#
# One converter reads and writes every JSON file: scenario documents here, the
# parameter and bindings files of the covering-array harness, and the study,
# requirement and results files of the falsifier.  A value's kind
# is str, int, float, bool, Vec3 (three numbers), an enum (by member name), a
# dataclass (an object of its fields, in field order; a field with no default
# is required), a record {key: kind} (an object of exactly those keys),
# list[kind], tuple[kind1, kind2] (an array of one value of each kind),
# dict[str, kind] (an object of any keys), dict[int, kind] (an object whose
# keys are decimal integers) or Optional[kind] (kind or null).
# Unknown keys are rejected, and a __post_init__ check that fails is reported
# at its object's path.


@functools.cache
def _spec(cls: type) -> tuple[dict[str, Any], tuple[str, ...]]:
    """The kind of each field of a dataclass, and the names of its required fields."""
    hints = get_type_hints(cls)
    kinds = {f.name: hints[f.name] for f in fields(cls)}
    required = tuple(
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    )
    return kinds, required


# the scenario model classes: a binding path walks only these
_SPECS = {
    cls: _spec(cls)[0]
    for cls in (
        SimEnvironment, SimulationConfig, HeartbeatConfig, Vehicle, Pedestrian,
        RoadDisturbance, ControllerParameter, InitialStateConfig, LogItemDescription, RunConfig,
    )
}


def value_to_json(value: Any, kind: Any) -> Any:
    """The JSON value of a value of the given kind."""
    if kind is str or kind is int or kind is bool:
        return value
    if kind is float:
        return float(value)
    if type(kind) is type:  # a dataclass; list[X] passes isinstance(kind, type) on 3.10
        return {name: value_to_json(getattr(value, name), k) for name, k in _spec(kind)[0].items()}
    if isinstance(kind, EnumMeta):
        return value.name
    if kind is Vec3:
        return [float(v) for v in value]
    if isinstance(kind, dict):
        return {name: value_to_json(value[name], k) for name, k in kind.items()}
    origin, args = get_origin(kind), get_args(kind)
    if origin is list:
        return [value_to_json(v, args[0]) for v in value]
    if origin is Union:
        return None if value is None else value_to_json(value, args[0])
    if origin is tuple:
        return [value_to_json(v, k) for v, k in zip(value, args)]
    if origin is dict:
        return {str(key): value_to_json(v, args[1]) for key, v in value.items()}
    raise AssertionError(f"unhandled kind {kind!r}")


def environment_to_json(env: SimEnvironment) -> dict:
    return value_to_json(env, SimEnvironment)


def config_to_json(config: SimulationConfig) -> dict:
    return value_to_json(config, SimulationConfig)


def trajectory_to_json(traj: Trajectory) -> dict:
    return {
        "column_labels": value_to_json(traj.column_labels, list[LogItemDescription]),
        "rows": traj.rows.astype(np.float64, copy=False).tolist(),
    }


def serialize_scenario(env: SimEnvironment, config: SimulationConfig) -> str:
    """Render the scenario document with every default made explicit."""
    doc = {"environment": environment_to_json(env), "config": config_to_json(config)}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


# ---- parsing -------------------------------------------------------------


def _require_keys(data: dict, spec_keys, path: str) -> None:
    unknown = [k for k in data if k not in spec_keys]
    if unknown:
        raise ScenarioFormatError(f"{path}.{unknown[0]}", "unknown field")


_JSON_TYPE_NAMES = {
    type(None): "null", bool: "boolean", int: "number", float: "number",
    str: "string", list: "array", dict: "object",
}


def _type_error(path: str, expected: str, raw: Any) -> ScenarioFormatError:
    got = _JSON_TYPE_NAMES.get(type(raw), type(raw).__name__)
    return ScenarioFormatError(path, f"expected {expected}, got {got}")


def value_from_json(raw: Any, kind: Any, path: str) -> Any:
    """The value of the given kind that raw, found at path, holds.

    Raises ScenarioFormatError naming the path of the first value that does
    not fit its kind.
    """
    if kind is str:
        if not isinstance(raw, str):
            raise _type_error(path, "string", raw)
        return raw
    if kind is int:
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise _type_error(path, "integer", raw)
        return raw
    if kind is float:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise _type_error(path, "number", raw)
        return float(raw)
    if kind is bool:
        if not isinstance(raw, bool):
            raise _type_error(path, "boolean", raw)
        return raw
    if type(kind) is type:  # a dataclass; list[X] passes isinstance(kind, type) on 3.10
        kwargs = _fields_from_json(raw, *_spec(kind), path)
        try:
            return kind(**kwargs)
        except ValueError as exc:  # a __post_init__ check
            raise ScenarioFormatError(path, str(exc)) from None
    if isinstance(kind, EnumMeta):
        if not isinstance(raw, str):
            raise ScenarioFormatError(path, "expected an enum name string")
        try:
            return kind[raw]
        except KeyError:
            valid = ", ".join(m.name for m in kind)
            message = f"unknown value {raw!r} (expected one of {valid})"
            raise ScenarioFormatError(path, message) from None
    if kind is Vec3:
        if not isinstance(raw, list) or len(raw) != 3:
            raise ScenarioFormatError(path, "expected a 3-element number array")
        return [value_from_json(v, float, f"{path}[{i}]") for i, v in enumerate(raw)]
    if isinstance(kind, dict):
        return _fields_from_json(raw, kind, kind, path)
    origin, args = get_origin(kind), get_args(kind)
    if origin is list:
        if not isinstance(raw, list):
            raise ScenarioFormatError(path, "expected an array")
        return [value_from_json(v, args[0], f"{path}[{i}]") for i, v in enumerate(raw)]
    if origin is Union:
        return None if raw is None else value_from_json(raw, args[0], path)
    if origin is tuple:
        if not isinstance(raw, list) or len(raw) != len(args):
            raise ScenarioFormatError(path, f"expected an array of {len(args)} values")
        return tuple(value_from_json(v, args[i], f"{path}[{i}]") for i, v in enumerate(raw))
    if origin is dict:
        if not isinstance(raw, dict):
            raise _type_error(path, "an object", raw)
        return {
            key if args[0] is str else _int_key(key, f"{path}.{key}"):
                value_from_json(v, args[1], f"{path}.{key}")
            for key, v in raw.items()
        }
    raise AssertionError(f"unhandled kind {kind!r}")


def _int_key(key: str, path: str) -> int:
    """The int an object key spells in decimal digits, with no leading zero."""
    if key.isascii() and key.isdecimal() and str(int(key)) == key:
        return int(key)
    raise ScenarioFormatError(path, "expected a decimal integer key")


def _fields_from_json(data: Any, spec: dict[str, Any], required, path: str) -> dict:
    if not isinstance(data, dict):
        raise _type_error(path, "an object", data)
    _require_keys(data, spec, path)
    for name in required:
        if name not in data:
            raise ScenarioFormatError(f"{path}.{name}", "missing field")
    values = {}
    for name, kind in spec.items():
        if name in data:
            values[name] = value_from_json(data[name], kind, f"{path}.{name}")
    return values


def environment_from_json(data: Any, path: str = "environment") -> SimEnvironment:
    return value_from_json(data, SimEnvironment, path)


def config_from_json(data: Any, path: str = "config") -> SimulationConfig:
    config = value_from_json(data, SimulationConfig, path)
    problems = validate_config(config)
    if problems:
        raise ScenarioFormatError(problems[0].path, problems[0].message)
    return config


def trajectory_from_json(data: Any, path: str = "trajectory") -> Trajectory:
    if not isinstance(data, dict):
        raise ScenarioFormatError(path, "expected an object")
    _require_keys(data, {"column_labels", "rows"}, path)
    labels = value_from_json(
        data.get("column_labels", []), list[LogItemDescription], f"{path}.column_labels"
    )
    raw_rows = data.get("rows", [])
    if not isinstance(raw_rows, list):
        raise ScenarioFormatError(f"{path}.rows", "expected an array of rows")
    n_cols = len(labels)
    for i, row in enumerate(raw_rows):
        if not isinstance(row, list) or len(row) != n_cols:
            raise ScenarioFormatError(f"{path}.rows[{i}]", f"expected {n_cols} numbers")
    # every cell must be a JSON number that is a finite float: not a string,
    # boolean or null, which numpy would convert, and not NaN or infinite
    rows = None
    if set(map(type, itertools.chain.from_iterable(raw_rows))) <= {int, float}:
        with contextlib.suppress(OverflowError):  # an integer beyond any float
            rows = np.array(raw_rows, dtype=np.float64).reshape(len(raw_rows), n_cols)
    if rows is None or not np.isfinite(rows).all():
        i, j = next(
            (i, j) for i, row in enumerate(raw_rows) for j, cell in enumerate(row)
            if type(cell) not in (int, float) or not abs(cell) <= sys.float_info.max
        )
        message = f"expected a finite number, got {json.dumps(raw_rows[i][j])}"
        raise ScenarioFormatError(f"{path}.rows[{i}][{j}]", message)
    return Trajectory(column_labels=labels, rows=rows)


def _reject_non_finite(literal: str) -> float:
    raise ScenarioFormatError("scenario", f"non-finite number {literal} is not allowed")


def parse_scenario(text: str) -> tuple[SimEnvironment, SimulationConfig]:
    """Parse a scenario document; inverse of serialize_scenario on valid input."""
    try:
        data = json.loads(text, parse_constant=_reject_non_finite)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from None
    if not isinstance(data, dict):
        raise ScenarioFormatError("scenario", "top level must be an object")
    _require_keys(data, {"environment", "config"}, "scenario")
    env = environment_from_json(data.get("environment", {}), "environment")
    config = config_from_json(data.get("config", {}), "config")
    return env, config


def load_json(path: str, kind: Any, name: str = "document") -> Any:
    """The value of the given kind that the UTF-8 JSON file at path holds;
    errors name its top level by name."""
    with open(path, "r", encoding="utf-8") as fh:
        return value_from_json(json.load(fh), kind, name)


def load_scenario(path: str) -> tuple[SimEnvironment, SimulationConfig]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def save_scenario(env: SimEnvironment, config: SimulationConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_scenario(env, config))


# --------------------------------------------------------------------------
# Binding paths
#
# A binding path names one float field of an environment by its document
# keys, e.g. 'environment.pedestrians_list[0].target_speed' or
# 'environment.ego_vehicles_list[0].current_position[0]'.

_PATH_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)|\[(\d+)\]")


def _path_tokens(path: str) -> list:
    """Names and list indices of a binding path, in order."""
    if not isinstance(path, str):
        raise ValueError(f"bad path syntax in {path!r}")
    tokens: list = []
    pos = 0
    for match in _PATH_TOKEN.finditer(path):
        if match.start() != pos:
            raise ValueError(f"bad path syntax at offset {pos} in {path!r}")
        tokens.append(match.group(1) if match.group(1) is not None else int(match.group(2)))
        pos = match.end()
        if pos < len(path) and path[pos] == ".":
            pos += 1
    if pos != len(path) or not tokens:
        raise ValueError(f"bad path syntax in {path!r}")
    return tokens


def resolve_binding(env: SimEnvironment, path: str) -> tuple[Callable[[float], None], float]:
    """A setter for the float field of env that path names, and its value now.

    Only model fields, named by their document keys, and in-range list
    indices resolve.  A bound value is a float, so a path to an integer,
    enum, string or config field is rejected here rather than on every run,
    and so is a position's height [1], which no run reads.
    """
    tokens = _path_tokens(path)
    if tokens[0] == "config":
        raise ValueError(
            f"path {path!r} names a config field; only environment fields can be bound"
        )
    if tokens[0] != "environment":
        raise ValueError(f"path {path!r} does not resolve at segment {tokens[0]!r}")
    owner, key, kind, value = None, None, SimEnvironment, env
    for token in tokens[1:]:
        if isinstance(token, int):
            is_list = get_origin(kind) is list
            if not (is_list or kind is Vec3) or token >= len(value):
                raise ValueError(f"path {path!r} does not resolve at segment {token!r}")
            if kind is Vec3 and token == 1:
                raise ValueError(
                    f"path {path!r} names a height; the 2D kernel ignores it, so only "
                    "components [0] (x) and [2] (lateral) can be bound"
                )
            owner, key, kind = value, token, get_args(kind)[0] if is_list else float
            value = value[token]
        else:
            if get_origin(kind) is Union:
                kind = get_args(kind)[0]
            spec = _SPECS.get(kind) if value is not None else None
            if spec is None or token not in spec:
                raise ValueError(f"path {path!r} does not resolve at segment {token!r}")
            owner, key, kind = value, token, spec[token]
            value = getattr(value, token)
    if kind is not float:
        what = "an integer" if kind in (int, Optional[int]) else "a non-numeric"
        raise ValueError(f"path {path!r} is bound to {what} field")
    setter = owner.__setitem__ if isinstance(owner, list) else functools.partial(setattr, owner)
    return functools.partial(setter, key), value
