"""The scalar kernel against the reference kernel in oracles.py.

The kernel resolves log columns, path segments and contact reach once per
run; the reference resolves them on every step.  Both must give the same
rows (to the bit, so a -0.0 that the reference logs as 0.0 counts), the same
contacts and the same minimum vehicle gap.
"""

import csv
import io
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avtestbed import controllers, presets, supervisor
from avtestbed.scenario import (
    ItemType,
    LogItemDescription,
    StateId,
    Trajectory,
    column_names,
    trajectory_to_json,
)

from oracles import (
    random_kernel_scene,
    reference_detect_collisions,
    reference_pure_pursuit_steering,
    reference_radar_sense,
    reference_run,
)


def assert_same_run(env, config):
    result = supervisor.run_embedded(env, config)
    reference = reference_run(env, config)
    assert np.array_equal(result.trajectory.rows, reference.trajectory.rows)
    assert result.trajectory.rows.tobytes() == reference.trajectory.rows.tobytes()
    assert result.trajectory.column_labels == reference.trajectory.column_labels
    assert result.contacts == reference.contacts
    assert result.min_vehicle_gap == reference.min_vehicle_gap
    return result


class TestAgainstReferenceKernel:
    def test_random_scenes(self):
        seen = {
            "vehicle_states": set(), "pedestrian_states": set(), "fusion": 0,
            "disturbances": 0, "negative_zero_y": 0, "vehicle_contacts": 0,
            "pedestrian_contacts": 0,
        }
        for seed in range(240):
            env, config = random_kernel_scene(random.Random(seed))
            result = assert_same_run(env, config)
            for desc in env.data_log_description_list:
                if desc.item_type is ItemType.VEHICLE:
                    seen["vehicle_states"].add(desc.item_state_index)
                elif desc.item_type is ItemType.PEDESTRIAN:
                    seen["pedestrian_states"].add(desc.item_state_index)
            seen["fusion"] += any(
                v.controller == "automated_driving_with_fusion2" for v in env.all_vehicles()
            )
            seen["disturbances"] += bool(env.road_disturbances_list)
            seen["negative_zero_y"] += any(
                math.copysign(1.0, v.current_position[2]) < 0 and v.current_position[2] == 0
                for v in env.all_vehicles()
            ) or any(
                isc.item.item_state_index is StateId.POSITION_Y
                and math.copysign(1.0, isc.value) < 0 and isc.value == 0
                for isc in env.initial_state_config_list
            )
            kinds = {c.kind for c in result.contacts}
            seen["vehicle_contacts"] += supervisor.ContactKind.VEHICLE_VEHICLE in kinds
            seen["pedestrian_contacts"] += supervisor.ContactKind.VEHICLE_PEDESTRIAN in kinds
        assert seen.pop("vehicle_states") == set(StateId)
        assert seen.pop("pedestrian_states") == set(StateId)
        # each feature shows up in a fair share of the scenes
        assert min(seen.values()) >= 20, seen

    def test_demo_grid(self):
        for speed in np.linspace(0.0, 15.0, 5):
            for x in np.linspace(15.0, 25.0, 5):
                for ped_speed in np.linspace(2.0, 5.0, 4):
                    env = presets.demo_environment(float(speed), float(x), float(ped_speed))
                    assert_same_run(env, presets.demo_config())

    def test_negative_zero_y_logs_as_positive_zero(self):
        env, config = presets.demo_scenario(sim_duration_ms=20)
        env.road_disturbances_list = []
        env.agent_vehicles_list[0].current_position[2] = -0.0
        env.agent_vehicles_list[0].controller = "void"
        env.agent_vehicles_list[0].controller_arguments = []
        env.pedestrians_list[0].current_position[2] = -0.0
        env.pedestrians_list[0].controller = "void"
        rows = assert_same_run(env, config).trajectory.rows
        for column in (6, 10):  # agent y, pedestrian y
            assert not np.signbit(rows[:, column]).any()


class TestSampleLogRow:
    def test_sampler_reads_state_at_call_time(self):
        env, config = presets.demo_scenario()
        world = supervisor.build_world(env)
        descriptions = env.data_log_description_list
        getters = supervisor.compile_log_row(world, descriptions)
        before = supervisor.sample_log_row(getters)
        supervisor.step(world, 10)
        after = supervisor.sample_log_row(getters)
        assert after == supervisor.sample_log_row(supervisor.compile_log_row(world, descriptions))
        assert after != before


# --------------------------------------------------------------------------
# Contact pre-test

RADIUS = math.hypot(supervisor.VEHICLE_LENGTH_M / 2.0, supervisor.VEHICLE_WIDTH_M / 2.0)
VEHICLE_REACH = 2.0 * RADIUS
PEDESTRIAN_REACH = RADIUS + supervisor.PEDESTRIAN_RADIUS_M
# headings that point a corner of the footprint along the line of centres
CORNER = math.atan2(supervisor.VEHICLE_WIDTH_M, supervisor.VEHICLE_LENGTH_M)
CORNER_OFFSETS = [CORNER, -CORNER, math.pi - CORNER, CORNER - math.pi]

coordinate = st.floats(-1e4, 1e4)
angle = st.floats(-math.pi, math.pi)
reach_factor = st.floats(0.99, 1.01)


@st.composite
def heading_towards(draw, bearing):
    """Any heading, or one that aims a corner within a few mrad of bearing."""
    if draw(st.booleans()):
        return draw(angle)
    return bearing - draw(st.sampled_from(CORNER_OFFSETS)) + draw(st.floats(-0.01, 0.01))


def vehicle(ident, x, y, heading):
    return supervisor.VehicleState(
        id=ident, x=x, y=y, heading=heading, speed=0.0,
        controller=controllers.VehicleController(),
    )


@st.composite
def vehicle_pairs(draw):
    x, y, bearing = draw(coordinate), draw(coordinate), draw(angle)
    dist = VEHICLE_REACH * draw(reach_factor)
    world = supervisor.WorldState(sim_time_ms=draw(st.integers(0, 10**6)))
    world.vehicles = [
        vehicle(1, x, y, draw(heading_towards(bearing))),
        vehicle(2, x + dist * math.cos(bearing), y + dist * math.sin(bearing),
                draw(heading_towards(bearing + math.pi))),
    ]
    return world


@st.composite
def vehicle_pedestrian_pairs(draw):
    x, y, bearing = draw(coordinate), draw(coordinate), draw(angle)
    dist = PEDESTRIAN_REACH * draw(reach_factor)
    world = supervisor.WorldState()
    world.vehicles = [vehicle(1, x, y, draw(heading_towards(bearing)))]
    world.pedestrians = [
        supervisor.PedestrianState(
            id=4, x=x + dist * math.cos(bearing), y=y + dist * math.sin(bearing),
            target_speed=0.0, waypoints=[],
        )
    ]
    return world


class TestContactPretest:
    @settings(max_examples=400, deadline=None)
    @given(vehicle_pairs())
    def test_vehicle_pairs_near_reach_match_exact_tests(self, world):
        assert supervisor.detect_collisions(world) == reference_detect_collisions(world)

    @settings(max_examples=400, deadline=None)
    @given(vehicle_pedestrian_pairs())
    def test_vehicle_pedestrian_pairs_near_reach_match_exact_tests(self, world):
        assert supervisor.detect_collisions(world) == reference_detect_collisions(world)

    @pytest.mark.parametrize("factor", [0.999, 0.9999])
    def test_corner_contact_just_inside_reach_is_found(self, factor):
        world = supervisor.WorldState()
        world.vehicles = [
            vehicle(1, 0.0, 0.0, -CORNER),
            vehicle(2, VEHICLE_REACH * factor, 0.0, math.pi - CORNER),
        ]
        contacts = supervisor.detect_collisions(world)
        assert contacts == reference_detect_collisions(world)
        assert [c.kind for c in contacts] == [supervisor.ContactKind.VEHICLE_VEHICLE]


# --------------------------------------------------------------------------
# Pure pursuit with resolved segments

point = st.tuples(st.floats(-200, 200), st.floats(-200, 200))


@settings(max_examples=300, deadline=None)
@given(
    path=st.lists(st.one_of(point, st.just((0.0, 0.0))), max_size=6),
    pose=st.tuples(st.floats(-200, 200), st.floats(-200, 200), angle, st.floats(0, 40)),
)
@example(path=[(0.0, 0.0), (0.0, 0.0), (10.0, 0.0), (10.0, 0.0)], pose=(1.0, 1.0, 0.0, 2.0))
@example(path=[(0.0, 0.0), (0.0, 1e-308)], pose=(0.0, 0.0, 0.0, 0.0))
@example(path=[(5.0, 0.0), (0.0, 0.0), (0.0, 1e-200), (0.0, 9.0)], pose=(1.0, 1.0, 0.5, 3.0))
def test_pure_pursuit_matches_reference(path, pose):
    steering = controllers._pursue(*pose, path, controllers._path_segments(path))
    assert steering == reference_pure_pursuit_steering(*pose, path)


def test_segment_with_underflowing_squared_length_is_skipped():
    # 1e-200 squared underflows to 0: the segment is as degenerate as an
    # empty one, so the agent's run ends normally and matches the reference
    env, config = presets.demo_scenario()
    agent_id = env.agent_vehicles_list[0].vhc_id
    agent_params = [p for p in env.control_params_list if p.vehicle_id == agent_id]
    agent_params[-2].parameter_data = [0.0, 0.0]
    agent_params[-1].parameter_data = [0.0, 1e-200]
    result = assert_same_run(env, config)
    assert result.trajectory.rows.shape == (1501, 11)


# --------------------------------------------------------------------------
# Radar against the reference sensor

# offsets of exactly RADAR_RANGE_M from a sensor at whole-metre coordinates
RANGE_EDGE_OFFSETS = [(80.0, 0.0), (0.0, 80.0), (-80.0, 0.0), (0.0, -80.0), (48.0, -64.0)]
sensor_coordinate = st.one_of(st.integers(-500, 500).map(float), st.floats(-500, 500))
sensor_heading = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2]), angle)
sign = st.sampled_from([1.0, -1.0])


@st.composite
def target_position(draw, me):
    """Anywhere near me, on me (range 0), at exactly RADAR_RANGE_M, or on a
    diagonal: the edge of the field of view while me heads along an axis."""
    kind = draw(st.sampled_from(["near", "on", "range_edge", "diagonal"]))
    if kind == "near":
        dx, dy = draw(st.floats(-120, 120)), draw(st.floats(-120, 120))
    elif kind == "on":
        dx = dy = 0.0
    elif kind == "range_edge":
        dx, dy = draw(st.sampled_from(RANGE_EDGE_OFFSETS))
    else:
        dist = draw(st.floats(0.0, 100.0))
        dx, dy = dist * draw(sign), dist * draw(sign)
    return me.x + dx, me.y + dy


@st.composite
def radar_pedestrian(draw, ident, me):
    """A pedestrian walking, stopped, standing on its waypoint or past its
    last one."""
    x, y = draw(target_position(me))
    waypoints = draw(st.lists(point, min_size=1, max_size=3))
    index = draw(st.integers(0, len(waypoints) - 1))
    kind = draw(st.sampled_from(["walking", "stopped", "on_waypoint", "past_last"]))
    if kind == "on_waypoint":
        waypoints[index] = (x, y)
    elif kind == "past_last":
        index = len(waypoints)
    return supervisor.PedestrianState(
        id=ident, x=x, y=y, target_speed=draw(st.floats(0.0, 5.0)), waypoints=waypoints,
        waypoint_index=index, walking=kind != "stopped",
    )


@st.composite
def radar_worlds(draw):
    """A world and the vehicle in it that senses."""
    me = vehicle(0, draw(sensor_coordinate), draw(sensor_coordinate), draw(sensor_heading))
    me.speed = draw(st.floats(0.0, 40.0))
    others = []
    for ident in range(1, draw(st.integers(0, 3)) + 1):
        x, y = draw(target_position(me))
        other = vehicle(ident, x, y, draw(angle))
        other.speed = draw(st.floats(0.0, 40.0))
        others.append(other)
    world = supervisor.WorldState()
    world.vehicles = others
    world.vehicles.insert(draw(st.integers(0, len(others))), me)
    world.pedestrians = [
        draw(radar_pedestrian(ident, me)) for ident in range(1, draw(st.integers(0, 3)) + 1)
    ]
    return world, me


def detection_bits(detections) -> list[bytes]:
    return [
        struct.pack("<3d", d.relative_range, d.relative_bearing, d.relative_speed)
        for d in detections
    ]


@settings(max_examples=500, deadline=None)
@given(radar_worlds())
def test_radar_matches_reference(world_and_me):
    world, me = world_and_me
    detections = controllers.radar_sense(world, me)
    assert all(type(d) is controllers.RadarDetection for d in detections)
    assert detection_bits(detections) == detection_bits(reference_radar_sense(world, me))


# --------------------------------------------------------------------------
# Trace writers

SPECIAL = [-0.0, 0.0, 5e-324, 1e16, 1e22, -1e22, 0.1, 1.0 / 3.0, 123456789.0, -2.5e-300]
LABELS = [
    LogItemDescription(ItemType.TIME),
    LogItemDescription(ItemType.VEHICLE, 0, StateId.POSITION_X),
    LogItemDescription(ItemType.VEHICLE, 0, StateId.POSITION_Y),
    LogItemDescription(ItemType.PEDESTRIAN, 1, StateId.SPEED),
]


def reference_csv(traj: Trajectory) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(column_names(traj.column_labels))
    for row in traj.rows:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue()


def writer_trajectories():
    rng = random.Random(77)
    values = SPECIAL + [rng.uniform(-1e6, 1e6) for _ in range(30)]
    values += [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300) for _ in range(30)]
    values += [0.0] * (-len(values) % len(LABELS))
    floats = np.array(values, dtype=np.float64).reshape(-1, len(LABELS))
    ints = np.array(
        [[0, -1, 10**16, 2**63 - 1], [-(2**63), 7, 2**53 + 1, 10**18]], dtype=np.int64
    )
    with np.errstate(over="ignore"):  # magnitudes past float32 range become inf
        singles = floats.astype(np.float32)
    return [
        Trajectory(LABELS, floats),
        Trajectory(LABELS, singles),
        Trajectory(LABELS, ints),
        Trajectory(LABELS, ints.astype(np.int32)),
        Trajectory(LABELS, np.zeros((0, len(LABELS)))),
    ]


@pytest.mark.parametrize("traj", writer_trajectories(), ids=lambda t: f"{t.rows.dtype}{t.rows.shape}")
class TestTraceWriters:
    def test_csv_equals_csv_writer_text(self, traj):
        text = supervisor.trajectory_to_csv(traj)
        assert text == reference_csv(traj)
        expected = np.array([[float(v) for v in row] for row in traj.rows]).reshape(traj.rows.shape)
        finite = np.isfinite(expected).all(axis=1)
        if not finite.all():
            # the reader rejects a non-finite cell; the finite rows still read back
            with pytest.raises(ValueError, match="is not a finite number"):
                supervisor.trajectory_from_csv(text)
            text = supervisor.trajectory_to_csv(Trajectory(traj.column_labels, traj.rows[finite]))
            expected = expected[finite]
        back = supervisor.trajectory_from_csv(text)
        assert back.column_labels == traj.column_labels
        assert back.rows.tobytes() == expected.tobytes()

    def test_json_rows_equal_per_element_floats(self, traj):
        rows = trajectory_to_json(traj)["rows"]
        expected = [[float(v) for v in row] for row in traj.rows]
        assert rows == expected
        assert all(type(v) is float for row in rows for v in row)
        assert [[math.copysign(1.0, v) for v in row] for row in rows] == [
            [math.copysign(1.0, v) for v in row] for row in expected
        ]
