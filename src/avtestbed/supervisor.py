"""Deterministic 2D simulation kernel and the TCP supervisor serving it.

The kernel advances vehicle states with a kinematic bicycle model at a fixed
step, walks pedestrians along their waypoint lists, samples the configured
data log rows, emits heartbeats, and detects contacts between entity
footprints.  The kernel draws no random numbers: a run is a pure function of
(environment, config), and repeated runs produce bit-identical trajectories.
"""

from __future__ import annotations

import csv
import io
import math
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations, product
from typing import Callable, Optional

import numpy as np

from . import controllers, geometry, wire
from .controllers import (
    ACCEL_MAX,
    ACCEL_MIN,
    STEERING_LIMIT_RAD,
    WHEELBASE_M,
    ControllerConfigError,
    VehicleController,
    wrap_angle,
)
from .scenario import (
    ItemType,
    LogItemDescription,
    RoadDisturbance,
    RunMode,
    SimEnvironment,
    SimulationConfig,
    StateId,
    SyncType,
    Trajectory,
    column_names,
    parse_column_name,
    validate_config,
    validate_environment,
)

VEHICLE_LENGTH_M = 4.8
VEHICLE_WIDTH_M = 1.8
PEDESTRIAN_RADIUS_M = 0.25

# Contact pre-test.  Shapes whose circumscribed circles are apart cannot
# overlap, so detect_collisions runs the exact tests only for pairs whose
# squared centre distance is within the sum of the circumradii, widened by a
# relative margin.  The margin is far above the rounding error of the exact
# tests, so a skipped pair is one they would also have found apart.
_VEHICLE_CIRCUMRADIUS_M = math.hypot(VEHICLE_LENGTH_M / 2.0, VEHICLE_WIDTH_M / 2.0)
_PRETEST_MARGIN = 1e-6
_VEHICLE_PAIR_REACH_SQ = (2.0 * _VEHICLE_CIRCUMRADIUS_M * (1.0 + _PRETEST_MARGIN)) ** 2
_PEDESTRIAN_PAIR_REACH_SQ = (
    (_VEHICLE_CIRCUMRADIUS_M + PEDESTRIAN_RADIUS_M) * (1.0 + _PRETEST_MARGIN)
) ** 2


class ContactKind(Enum):
    VEHICLE_VEHICLE = "VEHICLE_VEHICLE"
    VEHICLE_PEDESTRIAN = "VEHICLE_PEDESTRIAN"


@dataclass
class Contact:
    kind: ContactKind
    ids: tuple[int, int]
    time_ms: int
    penetration: float


@dataclass
class VehicleState:
    id: int
    x: float
    y: float
    heading: float
    speed: float
    controller: VehicleController

    def footprint(self) -> tuple[float, float, float, float, float]:
        return (self.x, self.y, self.heading, VEHICLE_LENGTH_M, VEHICLE_WIDTH_M)


@dataclass
class PedestrianState:
    id: int
    x: float
    y: float
    target_speed: float
    waypoints: list[tuple[float, float]]
    waypoint_index: int = 0
    walking: bool = False

    def heading(self) -> float:
        if self.walking and self.waypoint_index < len(self.waypoints):
            wx, wy = self.waypoints[self.waypoint_index]
            if (wx, wy) != (self.x, self.y):
                return math.atan2(wy - self.y, wx - self.x)
        return 0.0

    def speed(self) -> float:
        if self.walking and self.waypoint_index < len(self.waypoints):
            return self.target_speed
        return 0.0


@dataclass
class WorldState:
    sim_time_ms: int = 0
    vehicles: list[VehicleState] = field(default_factory=list)
    pedestrians: list[PedestrianState] = field(default_factory=list)
    disturbances: list[RoadDisturbance] = field(default_factory=list)
    contacts: list[Contact] = field(default_factory=list)
    min_vehicle_gap: float = math.inf


class SetupError(RuntimeError):
    """World construction failed; surfaced to clients as protocol error 100."""


class SyncTimeoutError(RuntimeError):
    """No continue message arrived in time; protocol error 101."""


# --------------------------------------------------------------------------
# World construction


def build_world(env: SimEnvironment, config: SimulationConfig) -> WorldState:
    """Instantiate world state and controllers from a validated environment,
    with its initial state configs applied."""
    violations = validate_environment(env) + validate_config(config)
    if violations:
        listing = "; ".join(str(v) for v in violations[:5])
        raise SetupError(f"invalid scenario: {listing}")

    world = WorldState(disturbances=list(env.road_disturbances_list))

    for vhc in env.all_vehicles():
        path = [
            (par.parameter_data[0], par.parameter_data[1])
            for par in env.control_params_list
            if par.vehicle_id in (None, vhc.vhc_id)
        ]
        try:
            controller = controllers.make_vehicle_controller(
                vhc.controller, list(vhc.controller_arguments), path
            )
        except ControllerConfigError as exc:
            raise SetupError(str(exc)) from None
        world.vehicles.append(
            VehicleState(
                id=vhc.vhc_id,
                x=vhc.current_position[0],
                y=vhc.current_position[2],
                heading=vhc.current_orientation,
                speed=0.0,
                controller=controller,
            )
        )

    for ped in env.pedestrians_list:
        waypoints = [
            (ped.trajectory[i], ped.trajectory[i + 1]) for i in range(0, len(ped.trajectory), 2)
        ]
        world.pedestrians.append(
            PedestrianState(
                id=ped.ped_id,
                x=ped.current_position[0],
                y=ped.current_position[2],
                target_speed=ped.target_speed,
                waypoints=waypoints,
                walking=(ped.controller == "pedestrian_control"),
            )
        )
    return apply_initial_states(world, env.initial_state_config_list)


def apply_initial_states(world: WorldState, configs) -> WorldState:
    """Overwrite the named entity states; VELOCITY_* set speed to |value|.

    Every config assigns a value, so applying the same list again changes
    nothing.
    """
    for isc in configs:
        item, value = isc.item, isc.value
        if item.item_type is ItemType.VEHICLE:
            vhc = world.vehicles[item.item_index]
            if item.item_state_index is StateId.POSITION_X:
                vhc.x = value
            elif item.item_state_index is StateId.POSITION_Y:
                vhc.y = value
            elif item.item_state_index is StateId.ORIENTATION:
                vhc.heading = value
            elif item.item_state_index in (StateId.SPEED, StateId.VELOCITY_X, StateId.VELOCITY_Y):
                vhc.speed = abs(value)
        elif item.item_type is ItemType.PEDESTRIAN:
            ped = world.pedestrians[item.item_index]
            if item.item_state_index is StateId.POSITION_X:
                ped.x = value
            elif item.item_state_index is StateId.POSITION_Y:
                ped.y = value
            elif item.item_state_index in (StateId.SPEED, StateId.VELOCITY_X, StateId.VELOCITY_Y):
                ped.target_speed = abs(value)
    return world


# --------------------------------------------------------------------------
# Stepping


def step(world: WorldState, dt_ms: int) -> WorldState:
    """Advance every entity by one fixed step.

    Control commands are computed from the pre-step snapshot for all vehicles
    before any state is integrated, so in-step ordering cannot leak.  Each
    raw command is clamped here to the actuator limits, the only place they
    apply.  Each clamp returns what max(lo, min(hi, command)) returns, NaN
    included: min and max keep their first argument unless the second
    compares less or greater.
    """
    dt = dt_ms / 1000.0

    commands = []
    for vhc in world.vehicles:
        controller = vhc.controller
        radar = controllers.radar_sense(world, vhc) if controller.uses_radar else []
        steering, acceleration = controller.control(vhc, radar, dt)
        if not steering < STEERING_LIMIT_RAD:
            steering = STEERING_LIMIT_RAD
        elif not steering > -STEERING_LIMIT_RAD:
            steering = -STEERING_LIMIT_RAD
        if not acceleration < ACCEL_MAX:
            acceleration = ACCEL_MAX
        elif not acceleration > ACCEL_MIN:
            acceleration = ACCEL_MIN
        commands.append((steering, acceleration))

    for vhc, (steering, acceleration) in zip(world.vehicles, commands):
        speed, heading = vhc.speed, vhc.heading
        vhc.x += speed * math.cos(heading) * dt
        vhc.y += speed * math.sin(heading) * dt
        vhc.heading = heading + (speed / WHEELBASE_M) * math.tan(steering) * dt
        speed += acceleration * dt
        vhc.speed = 0.0 if speed < 0.0 else speed

    for ped in world.pedestrians:
        if ped.walking:
            ped.x, ped.y, ped.waypoint_index = controllers.pedestrian_step(
                ped.x, ped.y, ped.waypoint_index, ped.target_speed, ped.waypoints, dt
            )

    world.sim_time_ms += dt_ms
    return world


def detect_collisions(world: WorldState) -> list[Contact]:
    """Footprint overlaps among vehicle pairs and vehicle-pedestrian pairs.

    Pairs whose centres are farther apart than the pre-test reach cannot
    touch and skip the exact tests.
    """
    contacts: list[Contact] = []
    time_ms = world.sim_time_ms
    for a, b in combinations(world.vehicles, 2):
        dx, dy = b.x - a.x, b.y - a.y
        if dx * dx + dy * dy > _VEHICLE_PAIR_REACH_SQ:
            continue
        pen = geometry.rect_rect_penetration(a.footprint(), b.footprint())
        if pen is not None and pen > 0.0:
            contacts.append(Contact(ContactKind.VEHICLE_VEHICLE, (a.id, b.id), time_ms, pen))
    for vhc, ped in product(world.vehicles, world.pedestrians):
        dx, dy = ped.x - vhc.x, ped.y - vhc.y
        if dx * dx + dy * dy > _PEDESTRIAN_PAIR_REACH_SQ:
            continue
        pen = geometry.rect_disc_penetration(vhc.footprint(), ped.x, ped.y, PEDESTRIAN_RADIUS_M)
        if pen is not None and pen > 0.0:
            contacts.append(
                Contact(ContactKind.VEHICLE_PEDESTRIAN, (vhc.id, ped.id), time_ms, pen)
            )
    return contacts


# --------------------------------------------------------------------------
# Sampling


def _bumped_y_getter(world: WorldState, vhc: VehicleState) -> Callable[[], float]:
    """The logged y of vhc: its y plus the bump offset of every disturbance
    region it is inside, with the regions resolved once.  The dynamics never
    see the offset, and adding a zero one logs -0.0 as 0.0."""
    regions = [
        (dist.position[0], dist.position[0] + dist.length, dist.position[2],
         dist.width / 2.0, dist.height, dist.inter_object_spacing)
        for dist in world.disturbances
    ]

    def bumped_y() -> float:
        x, y = vhc.x, vhc.y
        offset = 0.0
        for x0, x1, y0, half_width, height, spacing in regions:
            if x0 <= x <= x1 and abs(y - y0) <= half_width:
                offset += height * math.sin(2.0 * math.pi * x / spacing)
        return y + offset

    return bumped_y


def _column_getter(world: WorldState, desc: LogItemDescription) -> Callable[[], float]:
    """The value of one log column, with its entity and state resolved."""
    if desc.item_type is ItemType.TIME:
        return lambda: float(world.sim_time_ms)
    state = desc.item_state_index
    if desc.item_type is ItemType.VEHICLE:
        vhc = world.vehicles[desc.item_index]
        if state is StateId.POSITION_X:
            return lambda: vhc.x
        if state is StateId.POSITION_Y:
            return _bumped_y_getter(world, vhc)
        if state is StateId.ORIENTATION:
            return lambda: wrap_angle(vhc.heading)
        if state is StateId.SPEED:
            return lambda: vhc.speed
        if state is StateId.VELOCITY_X:
            return lambda: vhc.speed * math.cos(vhc.heading)
        return lambda: vhc.speed * math.sin(vhc.heading)
    ped = world.pedestrians[desc.item_index]
    if state is StateId.POSITION_X:
        return lambda: ped.x
    if state is StateId.POSITION_Y:
        # pedestrians have no bump, but adding a zero one logs -0.0 as 0.0
        # exactly as the vehicle columns do
        return lambda: ped.y + 0.0
    if state is StateId.ORIENTATION:
        return lambda: wrap_angle(ped.heading())
    if state is StateId.SPEED:
        return ped.speed
    if state is StateId.VELOCITY_X:
        return lambda: ped.speed() * math.cos(ped.heading())
    return lambda: ped.speed() * math.sin(ped.heading())


def compile_log_row(
    world: WorldState, descriptions: list[LogItemDescription]
) -> list[Callable[[], float]]:
    """The column getters of the described log row of world, resolved once.

    Each column becomes one getter over its entity, so every later sample
    reads the current state without dispatching on the descriptions again.
    """
    return [_column_getter(world, desc) for desc in descriptions]


def sample_log_row(getters: list[Callable[[], float]]) -> list[float]:
    """One log row: the current value of each column getter."""
    return [get() for get in getters]


# --------------------------------------------------------------------------
# Run loop


def _track_contacts(world: WorldState, seen_pairs: set) -> None:
    for contact in detect_collisions(world):
        key = (contact.kind, contact.ids)
        if key not in seen_pairs:
            seen_pairs.add(key)
            world.contacts.append(contact)
    min_gap = world.min_vehicle_gap
    for a, b in combinations(world.vehicles, 2):
        gap = math.hypot(a.x - b.x, a.y - b.y)
        if gap < min_gap:
            min_gap = gap
    world.min_vehicle_gap = min_gap


def run(
    world: WorldState,
    env: SimEnvironment,
    config: SimulationConfig,
    run_index: int = 0,
    beat: Optional[Callable[[int, bool], None]] = None,
) -> Trajectory:
    """Execute the simulation and return the sampled trajectory.

    A log row is taken at t=0 and every data_log_period_ms through the end of
    the run.  When heartbeats are enabled and beat is given, beat(sim_time_ms,
    finished) is called at every multiple of the heartbeat period after t=0;
    it is responsible for any synchronization semantics.
    """
    problems = validate_config(config)
    if problems:
        raise SetupError(f"invalid config: {problems[0]}")
    if not config.run_config_arr:
        raise SetupError("config.run_config_arr must contain at least one entry")
    if not 0 <= run_index < len(config.run_config_arr):
        raise SetupError(f"run index {run_index} out of range")
    mode = config.run_config_arr[run_index].simulation_run_mode

    descriptions = list(env.data_log_description_list)
    period_ms = env.data_log_period_ms
    if descriptions:
        if period_ms is None:
            raise SetupError("data_log_period_ms must be set when log items are declared")
        if period_ms % config.sim_step_size != 0:
            raise SetupError(
                f"data_log_period_ms {period_ms} is not a multiple of the "
                f"step size {config.sim_step_size}"
            )

    heartbeat = env.heart_beat_config
    beat_enabled = (
        beat is not None
        and heartbeat is not None
        and heartbeat.sync_type is not SyncType.NO_HEART_BEAT
    )

    duration_ms = config.sim_duration_ms
    step_ms = config.sim_step_size
    rows: list[list[float]] = []
    seen_pairs: set = set()

    getters = compile_log_row(world, descriptions)
    _track_contacts(world, seen_pairs)
    if descriptions:
        rows.append(sample_log_row(getters))

    while world.sim_time_ms < duration_ms:
        if mode is RunMode.REAL_TIME:
            time.sleep(step_ms / 1000.0)
        step(world, step_ms)
        _track_contacts(world, seen_pairs)
        if descriptions and world.sim_time_ms % period_ms == 0:
            rows.append(sample_log_row(getters))
        if beat_enabled and world.sim_time_ms % heartbeat.period_ms == 0:
            beat(world.sim_time_ms, world.sim_time_ms >= duration_ms)

    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), len(descriptions))
    return Trajectory(column_labels=descriptions, rows=matrix)


@dataclass
class SimulationResult:
    trajectory: Trajectory
    contacts: list[Contact]
    min_vehicle_gap: float


def run_embedded(
    env: SimEnvironment,
    config: SimulationConfig,
    run_index: int = 0,
    beat: Optional[Callable[[int, bool], None]] = None,
) -> SimulationResult:
    """Build and run a scenario; the server runs its sessions through here too."""
    world = build_world(env, config)
    trajectory = run(world, env, config, run_index=run_index, beat=beat)
    return SimulationResult(
        trajectory=trajectory,
        contacts=list(world.contacts),
        min_vehicle_gap=world.min_vehicle_gap,
    )


# --------------------------------------------------------------------------
# Trace CSV


def trajectory_to_csv(traj: Trajectory) -> str:
    """Header, then each cell as repr(float(v)).

    No cell needs CSV quoting: a float repr holds no comma, quote or newline.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(column_names(traj.column_labels))
    for row in traj.rows.astype(np.float64, copy=False).tolist():
        buf.write(",".join(map(repr, row)))
        buf.write("\n")
    return buf.getvalue()


def trajectory_from_csv(text: str) -> Trajectory:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty trace CSV") from None
    labels = [parse_column_name(name) for name in header]
    rows = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(labels):
            raise ValueError(f"line {line_no}: expected {len(labels)} cells, got {len(row)}")
        values = []
        for name, cell in zip(header, row):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"line {line_no}, column {name}: {cell!r} is not a finite number")
            values.append(value)
        rows.append(values)
    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), len(labels))
    return Trajectory(column_labels=labels, rows=matrix)


def load_trajectory_csv(path: str) -> Trajectory:
    with open(path, "r", encoding="utf-8") as fh:
        return trajectory_from_csv(fh.read())


# --------------------------------------------------------------------------
# TCP server


class SupervisorServer(socketserver.ThreadingTCPServer):
    """Accepts configurator connections; one independent simulation each,
    on its own daemon thread."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 10021,
        sync_timeout_s: float = 120.0,
    ):
        super().__init__((host, port), None)
        self.host, self.port = self.server_address[:2]
        self.sync_timeout_s = sync_timeout_s
        self._serving: Optional[threading.Thread] = None

    def start(self) -> None:
        """Serve on a daemon thread until stop(), which returns within one poll."""
        self._serving = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._serving.start()

    def stop(self) -> None:
        if self._serving is not None:
            self.shutdown()
        self.server_close()

    def finish_request(self, request, client_address) -> None:
        self._handle(request)

    def _handle(self, conn: socket.socket) -> None:
        with conn:
            try:
                self._session(conn)
            except Exception:
                # a broken session must not take the server down; log it
                # before the client sees the connection close.  Imported here
                # so that commands which never serve do not load logging
                # (about 0.7 MB of resident memory on CPython 3.11).
                import logging

                logging.getLogger(__name__).exception("supervisor session failed")

    def _session(self, conn: socket.socket) -> None:
        conn.settimeout(self.sync_timeout_s)

        def fail(code: int, message: str) -> None:
            try:
                wire.send_message(conn, wire.ProtocolErrorMsg(code, message))
            except OSError:
                pass

        def receive(expected: type, name: str):
            """The next message if it is an expected one; else answer with
            error 103 or 102 and return None."""
            try:
                msg = wire.recv_message(conn)
            except wire.WireFormatError as exc:
                fail(wire.ERR_MALFORMED, str(exc))
                return None
            if not isinstance(msg, expected):
                fail(wire.ERR_UNEXPECTED_MESSAGE, f"expected {name}, got {type(msg).__name__}")
                return None
            return msg

        hello = receive(wire.Hello, "hello")
        if hello is None:
            return
        if hello.protocol_version != wire.PROTOCOL_VERSION:
            fail(
                wire.ERR_UNEXPECTED_MESSAGE,
                f"protocol version {hello.protocol_version} is not supported; "
                f"this supervisor speaks version {wire.PROTOCOL_VERSION}",
            )
            return
        wire.send_message(conn, wire.Ack())

        msg = receive(wire.SetupEnvironment, "setup")
        if msg is None:
            return
        env = msg.env
        violations = validate_environment(env)
        if violations:
            fail(wire.ERR_SETUP, f"invalid environment: {violations[0]}")
            return
        wire.send_message(conn, wire.Ack())

        msg = receive(wire.StartSim, "start")
        if msg is None:
            return

        with_sync = (
            env.heart_beat_config is not None
            and env.heart_beat_config.sync_type is SyncType.WITH_SYNC
        )

        def beat(sim_time_ms: int, finished: bool) -> None:
            # in WITH_SYNC mode, block for the continue under the session timeout
            status = wire.HeartbeatStatus.FINISHED if finished else wire.HeartbeatStatus.RUNNING
            wire.send_message(conn, wire.Heartbeat(sim_time_ms, status))
            if not with_sync:
                return
            try:
                reply = wire.recv_message(conn)
            except socket.timeout:
                raise SyncTimeoutError(
                    f"no continue received within {self.sync_timeout_s} s"
                ) from None
            if not isinstance(reply, wire.Continue):
                raise SyncTimeoutError(f"expected continue, got {type(reply).__name__}")

        try:
            result = run_embedded(env, msg.config, run_index=msg.run_index, beat=beat)
        except SetupError as exc:
            fail(wire.ERR_SETUP, str(exc))
            return
        except SyncTimeoutError as exc:
            fail(wire.ERR_SYNC_TIMEOUT, str(exc))
            return
        except wire.WireFormatError as exc:
            fail(wire.ERR_MALFORMED, str(exc))
            return
        try:
            wire.send_message(conn, wire.TraceData(result.trajectory))
        except wire.WireFormatError as exc:
            # the frame is encoded whole before any byte is sent, so an
            # oversized trace can still be answered with an error frame
            fail(wire.ERR_SETUP, str(exc))
