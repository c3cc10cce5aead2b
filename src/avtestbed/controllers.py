"""Entity controllers and the ground-truth radar model.

Controllers are constructed once per vehicle from the scenario's controller
name, argument strings, and any runtime parameters delivered before t=0
(waypoints arrive as repeated "target_position" parameters).  A control step
is a pure function of the pre-step vehicle state, the radar detections, and
dt.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

# actuator limits; the kernel clamps every raw command to them
STEERING_LIMIT_RAD = 0.6
ACCEL_MIN = -8.0
ACCEL_MAX = 3.0

WHEELBASE_M = 2.8

RADAR_RANGE_M = 80.0
RADAR_FOV_RAD = math.pi / 4
BRAKE_TTC_S = 2.0
BRAKE_BEARING_RAD = 0.35

LOOKAHEAD_MIN_M = 5.0
LOOKAHEAD_TIME_S = 1.5
SPEED_GAIN = 1.0

_TWO_PI = 2.0 * math.pi

# a radar detection is held as (sort key, RadarDetection) until it is returned
_KEY, _DETECTION = itemgetter(0), itemgetter(1)


@dataclass(slots=True)
class RadarDetection:
    """A target in the sensing vehicle's frame.

    relative_speed is the closing speed (positive while the range shrinks).
    """

    relative_range: float
    relative_bearing: float
    relative_speed: float


class ControllerConfigError(ValueError):
    """Bad controller name or malformed argument, raised when a controller is built."""


def wrap_angle(a: float) -> float:
    """Normalize to (-pi, pi]."""
    a = math.fmod(a + math.pi, _TWO_PI)
    if a <= 0.0:
        a += _TWO_PI
    return a - math.pi


# --------------------------------------------------------------------------
# Pure pursuit path tracking


PathSegment = tuple[float, float, float, float, float, float, float]


def _path_segments(path: list[tuple[float, float]]) -> list[PathSegment]:
    """The non-degenerate segments of path, resolved once per path.

    Each is (ax, ay, vx, vy, length, length*length, arc length at its start),
    where (vx, vy) runs from the segment's first point to its second.
    """
    segments = []
    arc = 0.0
    for (ax, ay), (bx, by) in zip(path, path[1:]):
        vx, vy = bx - ax, by - ay
        seg_len = math.hypot(vx, vy)
        # a segment whose squared length underflows is as degenerate as an
        # empty one: projecting onto it would divide by zero
        if seg_len * seg_len == 0.0:
            continue
        segments.append((ax, ay, vx, vy, seg_len, seg_len * seg_len, arc))
        arc += seg_len
    return segments


def _pursue(
    x: float,
    y: float,
    heading: float,
    speed: float,
    path: list[tuple[float, float]],
    segments: list[PathSegment],
) -> float:
    """Steering angle toward a lookahead point on the path (0 if no path),
    with segments = _path_segments(path) resolved once by the caller.

    The lookahead point lies the lookahead distance of arc beyond the closest
    path point (the earliest segment wins ties), clamped to the path ends.
    Each clamp below returns what max(lo, min(hi, v)) returns, NaN included:
    min and max keep their first argument unless the second compares less or
    greater.
    """
    if len(path) < 2:
        return 0.0
    lookahead = LOOKAHEAD_TIME_S * speed
    if not lookahead > LOOKAHEAD_MIN_M:
        lookahead = LOOKAHEAD_MIN_M

    best_dist = math.inf
    s = 0.0
    for ax, ay, vx, vy, seg_len, seg_len_sq, arc in segments:
        t = ((x - ax) * vx + (y - ay) * vy) / seg_len_sq
        if not t < 1.0:
            t = 1.0
        elif t <= 0.0:
            t = 0.0
        dist = math.hypot(x - (ax + t * vx), y - (ay + t * vy))
        if dist < best_dist - 1e-12:
            best_dist = dist
            s = arc + t * seg_len

    s += lookahead  # at least LOOKAHEAD_MIN_M, or NaN, so never before path[0]
    tx, ty = path[-1]
    for ax, ay, vx, vy, seg_len, _, arc in segments:
        if s <= arc + seg_len:
            t = (s - arc) / seg_len
            tx, ty = ax + t * vx, ay + t * vy
            break
    dx, dy = tx - x, ty - y
    if dx == 0.0 and dy == 0.0:
        return 0.0
    # alpha = wrap_angle(atan2(dy, dx) - heading)
    alpha = math.fmod(math.atan2(dy, dx) - heading + math.pi, _TWO_PI)
    if alpha <= 0.0:
        alpha += _TWO_PI
    return math.atan2(2.0 * WHEELBASE_M * math.sin(alpha - math.pi), lookahead)


# --------------------------------------------------------------------------
# Controller implementations


class VehicleController:
    """Base controller: no actuation.  The "void" controller is this class.

    control() returns the raw (steering, acceleration) command; the kernel
    clamps it to the actuator limits.
    """

    uses_radar = False

    def __init__(self, args: Sequence[str] = (), path: Sequence[tuple[float, float]] = ()):
        if args:
            raise ControllerConfigError("the void controller takes no arguments")

    def control(self, state, radar: list[RadarDetection], dt: float) -> tuple[float, float]:
        return (0.0, 0.0)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


class PathSpeedFollower(VehicleController):
    """Tracks delivered waypoints with pure pursuit at a fixed target speed (m/s)."""

    def __init__(self, args: list[str], path: list[tuple[float, float]]):
        if not args:
            raise ControllerConfigError("path_and_speed_follower requires a target speed argument")
        try:
            self.target_speed = _finite_float(args[0])
        except ValueError:
            raise ControllerConfigError(
                f"path_and_speed_follower target speed {args[0]!r} is not a finite number"
            ) from None
        self.path = list(path)
        self._segments = _path_segments(self.path)

    def control(self, state, radar, dt):
        steering = _pursue(
            state.x, state.y, state.heading, state.speed, self.path, self._segments
        )
        return (steering, SPEED_GAIN * (self.target_speed - state.speed))


class FusionDrivingController(VehicleController):
    """Lane-keeping driver with radar emergency braking.

    Arguments mirror the scripted driver: car model, target speed in km/h,
    target lateral position, own vehicle id, slow-at-intersection flag, gpu
    flag, processor id.  Only the speed and lateral target are used; the id
    must be an integer, and the perception-related arguments are ignored.
    """

    uses_radar = True

    def __init__(self, args: list[str], path: list[tuple[float, float]]):
        if len(args) < 3:
            raise ControllerConfigError(
                "automated_driving_with_fusion2 requires car_model, target_speed_kmh, target_lat_pos"
            )
        try:
            self.target_speed = _finite_float(args[1]) / 3.6
            self.target_lat_pos = _finite_float(args[2])
        except ValueError:
            raise ControllerConfigError(
                f"automated_driving_with_fusion2 numeric argument is malformed: {args[1:3]!r}"
            ) from None
        if len(args) > 3:
            try:
                int(args[3])
            except ValueError:
                raise ControllerConfigError(
                    f"automated_driving_with_fusion2 vehicle id {args[3]!r} is not an integer"
                ) from None
        # fallback path keeps the vehicle on the target lateral line
        self.path = list(path) if path else [
            (-1.0e6, self.target_lat_pos),
            (1.0e6, self.target_lat_pos),
        ]
        self._segments = _path_segments(self.path)

    def control(self, state, radar, dt):
        steering = _pursue(
            state.x, state.y, state.heading, state.speed, self.path, self._segments
        )
        accel = SPEED_GAIN * (self.target_speed - state.speed)
        for det in radar:
            if abs(det.relative_bearing) >= BRAKE_BEARING_RAD:
                continue
            if det.relative_speed > 0.0 and det.relative_range / det.relative_speed < BRAKE_TTC_S:
                accel = ACCEL_MIN
                break
        return (steering, accel)


def pedestrian_step(
    x: float, y: float, waypoint_index: int, target_speed: float,
    waypoints: list[tuple[float, float]], dt: float,
) -> tuple[float, float, int]:
    """Advance along the waypoint list at target_speed; stop at the last point.

    Returns the new position and waypoint index.  Motion covers at most
    target_speed*dt per call and never skips past a waypoint within a step.
    """
    if waypoint_index >= len(waypoints) or target_speed <= 0.0 or dt <= 0.0:
        return x, y, waypoint_index
    # consume waypoints we are already standing on
    while waypoint_index < len(waypoints):
        wx, wy = waypoints[waypoint_index]
        remaining = math.hypot(wx - x, wy - y)
        if remaining > 0.0:
            break
        waypoint_index += 1
    else:
        return x, y, waypoint_index
    # min(target_speed * dt, remaining): remaining only where it is less
    step_len = target_speed * dt
    if remaining < step_len:
        step_len = remaining
    x += (wx - x) / remaining * step_len
    y += (wy - y) / remaining * step_len
    if step_len == remaining:
        waypoint_index += 1
    return x, y, waypoint_index


# --------------------------------------------------------------------------
# Radar


def radar_sense(world, me) -> list[RadarDetection]:
    """Ground-truth detections, nearest first, of the vehicles other than me
    and of the pedestrians in world.

    Targets beyond RADAR_RANGE_M or outside the +-45 degree field of view are
    dropped.  Ties in range go to vehicles before pedestrians, then to the
    lower id.
    """
    mx, my, mheading = me.x, me.y, me.heading
    mvx = me.speed * math.cos(mheading)
    mvy = me.speed * math.sin(mheading)

    targets = []
    for vhc in world.vehicles:
        if vhc is not me:
            speed, heading = vhc.speed, vhc.heading
            targets.append(
                (0, vhc.id, vhc.x, vhc.y, speed * math.cos(heading), speed * math.sin(heading))
            )
    for ped in world.pedestrians:
        # the velocity of PedestrianState.speed() and .heading(): target speed
        # toward the current waypoint (heading 0 on it), 0 once stopped
        px, py = ped.x, ped.y
        tvx = tvy = 0.0
        index, waypoints = ped.waypoint_index, ped.waypoints
        if ped.walking and index < len(waypoints):
            wx, wy = waypoints[index]
            heading = math.atan2(wy - py, wx - px) if wx != px or wy != py else 0.0
            speed = ped.target_speed
            tvx, tvy = speed * math.cos(heading), speed * math.sin(heading)
        targets.append((1, ped.id, px, py, tvx, tvy))

    detections: list[tuple[tuple, RadarDetection]] = []
    for kind_rank, ident, tx, ty, tvx, tvy in targets:
        dx, dy = tx - mx, ty - my
        rng = math.hypot(dx, dy)
        if rng == 0.0 or rng > RADAR_RANGE_M:
            continue
        # bearing = wrap_angle(atan2(dy, dx) - mheading)
        bearing = math.fmod(math.atan2(dy, dx) - mheading + math.pi, _TWO_PI)
        if bearing <= 0.0:
            bearing += _TWO_PI
        bearing -= math.pi
        if abs(bearing) > RADAR_FOV_RAD:
            continue
        # closing speed: negative range rate
        closing = -((dx * (tvx - mvx) + dy * (tvy - mvy)) / rng)
        detections.append(((rng, kind_rank, ident), RadarDetection(rng, bearing, closing)))

    if len(detections) > 1:
        detections.sort(key=_KEY)
    return list(map(_DETECTION, detections))


# --------------------------------------------------------------------------
# Registry

_VEHICLE_FACTORIES = {
    "void": VehicleController,
    "path_and_speed_follower": PathSpeedFollower,
    "automated_driving_with_fusion2": FusionDrivingController,
}

PEDESTRIAN_CONTROLLERS = frozenset({"void", "pedestrian_control"})


def registered_vehicle_controllers() -> frozenset[str]:
    return frozenset(_VEHICLE_FACTORIES)


def make_vehicle_controller(
    name: str, args: list[str], path: list[tuple[float, float]]
) -> VehicleController:
    factory = _VEHICLE_FACTORIES.get(name)
    if factory is None:
        raise ControllerConfigError(f"unknown vehicle controller {name!r}")
    return factory(args, path)
