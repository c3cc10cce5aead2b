import math

import pytest

from avtestbed import supervisor
from avtestbed.controllers import (
    ACCEL_MAX,
    ACCEL_MIN,
    ControllerConfigError,
    ControlOutput,
    FusionDrivingController,
    PathSpeedFollower,
    RadarDetection,
    VoidController,
    make_vehicle_controller,
    pedestrian_step,
    pure_pursuit_steering,
    radar_sense,
    registered_vehicle_controllers,
    saturate,
)
from avtestbed.scenario import RunConfig, SimEnvironment, SimulationConfig, Vehicle


def make_state(x=0.0, y=0.0, heading=0.0, speed=0.0, vhc_id=1):
    return supervisor.VehicleState(
        id=vhc_id, x=x, y=y, heading=heading, speed=speed, controller=VoidController()
    )


def two_vehicle_world(ego_kwargs, target_kwargs):
    world = supervisor.WorldState()
    world.vehicles.append(make_state(vhc_id=1, **ego_kwargs))
    world.vehicles.append(make_state(vhc_id=2, **target_kwargs))
    return world


class TestSaturation:
    def test_limits(self):
        out = saturate(ControlOutput(steering=2.0, acceleration=-100.0))
        assert out.steering == 0.6
        assert out.acceleration == -8.0
        out = saturate(ControlOutput(steering=-2.0, acceleration=100.0))
        assert out.steering == -0.6
        assert out.acceleration == 3.0

    def test_within_bounds_untouched(self):
        out = saturate(ControlOutput(0.1, -1.0))
        assert (out.steering, out.acceleration) == (0.1, -1.0)


class TestVoid:
    def test_always_zero(self):
        ctrl = make_vehicle_controller("void", [], [])
        out = ctrl.control(make_state(speed=13.0), [], 0.01)
        assert (out.steering, out.acceleration) == (0.0, 0.0)

    def test_speed_and_heading_preserved_over_many_steps(self):
        env = SimEnvironment(ego_vehicles=[Vehicle(vhc_id=1, controller="void")])
        config = SimulationConfig(sim_duration_ms=10000, sim_step_size_ms=10,
                                  run_configs=[RunConfig()])
        world = supervisor.build_world(env, config)
        world.vehicles[0].speed = 8.0
        world.vehicles[0].heading = 0.37
        for _ in range(1000):
            supervisor.step(world, 10)
        assert world.vehicles[0].speed == 8.0
        assert world.vehicles[0].heading == 0.37


class TestPathSpeedFollower:
    def test_equilibrium_on_straight_path(self):
        ctrl = PathSpeedFollower(["20.0"], [(-1000.0, 0.0), (1000.0, 0.0)])
        out = ctrl.control(make_state(x=0.0, y=0.0, heading=0.0, speed=20.0), [], 0.01)
        assert abs(out.steering) < 1e-9
        assert abs(out.acceleration) < 1e-9

    def test_acceleration_saturates_from_standstill(self):
        ctrl = PathSpeedFollower(["20.0"], [(-1000.0, 0.0), (1000.0, 0.0)])
        out = ctrl.control(make_state(speed=0.0), [], 0.01)
        assert out.acceleration == ACCEL_MAX

    def test_steers_toward_lane_change_segment(self):
        # oncoming path drops from y=3.5 to y=-3.5 between x=145 and x=110
        path = [(1000.0, 3.5), (145.0, 3.5), (110.0, -3.5), (-1000.0, -3.5)]
        state = make_state(x=140.0, y=3.5, heading=math.pi, speed=20.0)
        ctrl = PathSpeedFollower(["20.0"], path)
        out = ctrl.control(state, [], 0.01)

        # geometric oracle: the lookahead point must sit to the vehicle's left
        # (negative world y), so the steering command must be positive
        lookahead = max(5.0, 1.5 * state.speed)
        assert lookahead == 30.0
        seg_dir = (110.0 - 145.0, -3.5 - 3.5)
        seg_len = math.hypot(*seg_dir)
        along = lookahead - 5.0  # roughly: 5 m back to (145, 3.5), rest on the diagonal
        target_y = 3.5 + seg_dir[1] * (along / seg_len)
        assert target_y < 0.0
        assert out.steering > 0.0

    def test_empty_path_holds_course(self):
        ctrl = PathSpeedFollower(["20.0"], [])
        out = ctrl.control(make_state(heading=0.4, speed=10.0), [], 0.01)
        assert out.steering == 0.0

    def test_missing_target_speed_is_config_error(self):
        with pytest.raises(ControllerConfigError):
            PathSpeedFollower([], [])
        with pytest.raises(ControllerConfigError):
            PathSpeedFollower(["fast"], [])

    @pytest.mark.parametrize("speed", ["nan", "inf", "-Infinity"])
    def test_non_finite_target_speed_is_config_error(self, speed):
        with pytest.raises(ControllerConfigError, match="finite"):
            PathSpeedFollower([speed], [])

    def test_cross_track_error_decays(self):
        # 1 m initial offset on a straight path at fixed speed 10 m/s.  Pure
        # pursuit with lookahead max(5, 1.5 v) is underdamped (zeta = 1/sqrt 2),
        # so the error crosses zero once with a ~4.3% overshoot (e^-pi); the
        # regression pins: bounded by the 2 s value, a sharply decaying
        # oscillation envelope, and a small terminal error.
        env = SimEnvironment(
            ego_vehicles=[Vehicle(vhc_id=1, controller="path_and_speed_follower",
                                  controller_arguments=["10.0"],
                                  current_position=[0.0, 0.3, 1.0])],
        )
        from avtestbed.scenario import ControllerParameter
        env.controller_params = [
            ControllerParameter(1, "target_position", [-1000.0, 0.0]),
            ControllerParameter(1, "target_position", [1000.0, 0.0]),
        ]
        config = SimulationConfig(sim_duration_ms=10000, sim_step_size_ms=10,
                                  run_configs=[RunConfig()])
        world = supervisor.build_world(env, config)
        world.vehicles[0].speed = 10.0
        offsets = []
        for _ in range(1000):
            supervisor.step(world, 10)
            offsets.append(abs(world.vehicles[0].y))
        tail = offsets[200:]
        assert max(tail) == tail[0]  # never exceeds the 2 s error again
        peaks = [
            tail[i]
            for i in range(1, len(tail) - 1)
            if tail[i] >= tail[i - 1] and tail[i] > tail[i + 1]
        ]
        for previous, nxt in zip([tail[0]] + peaks, peaks):
            assert nxt < 0.15 * previous  # envelope shrinks fast
        assert tail[-1] < 0.01


class TestFusionController:
    def args(self, speed_kmh="70.0", lat="0.0"):
        return ["Toyota", speed_kmh, lat, "1", "True", "False", "0"]

    def test_cruise_at_target_speed(self):
        ctrl = FusionDrivingController(self.args(), [(-1000.0, 0.0), (1000.0, 0.0)])
        state = make_state(x=10.0, speed=19.444)
        out = ctrl.control(state, [], 0.01)
        assert abs(out.acceleration) < 1e-3
        assert abs(out.steering) < 1e-9

    def test_target_speed_is_kmh(self):
        ctrl = FusionDrivingController(self.args(), [])
        assert math.isclose(ctrl.target_speed, 70.0 / 3.6)

    def test_brakes_below_ttc_threshold(self):
        ctrl = FusionDrivingController(self.args(), [])
        detection = RadarDetection(relative_range=10.0, relative_bearing=0.0, relative_speed=10.0)
        out = ctrl.control(make_state(speed=10.0), [detection], 0.01)
        assert out.acceleration == ACCEL_MIN

    def test_no_brake_for_wide_bearing(self):
        ctrl = FusionDrivingController(self.args(), [])
        detection = RadarDetection(relative_range=10.0, relative_bearing=0.5, relative_speed=10.0)
        out = ctrl.control(make_state(speed=19.444), [detection], 0.01)
        assert out.acceleration > ACCEL_MIN

    def test_no_brake_for_receding_target(self):
        ctrl = FusionDrivingController(self.args(), [])
        detection = RadarDetection(relative_range=10.0, relative_bearing=0.0, relative_speed=-5.0)
        out = ctrl.control(make_state(speed=19.444), [detection], 0.01)
        assert out.acceleration > ACCEL_MIN

    def test_follows_lateral_target_without_path(self):
        ctrl = FusionDrivingController(self.args(lat="3.5"), [])
        out = ctrl.control(make_state(x=0.0, y=0.0, heading=0.0, speed=10.0), [], 0.01)
        assert out.steering > 0.0  # steer left toward y=3.5

    def test_perception_arguments_parsed_and_ignored(self):
        ctrl = FusionDrivingController(self.args(), [])
        assert ctrl.self_vhc_id == 1

    def test_malformed_numeric_argument(self):
        with pytest.raises(ControllerConfigError):
            FusionDrivingController(["Toyota", "seventy", "0.0"], [])
        with pytest.raises(ControllerConfigError):
            FusionDrivingController(["Toyota"], [])

    @pytest.mark.parametrize("speed, lat", [("nan", "0.0"), ("70", "inf")])
    def test_non_finite_numeric_argument(self, speed, lat):
        with pytest.raises(ControllerConfigError):
            FusionDrivingController(["Toyota", speed, lat], [])


class TestPedestrianStep:
    def test_step_length(self):
        x, y, idx = pedestrian_step(50.0, 0.0, 0, 3.0, [(80.0, -3.0)], 0.01)
        assert math.isclose(math.hypot(x - 50.0, y - 0.0), 0.03)
        seg = (80.0 - 50.0, -3.0 - 0.0)
        seg_len = math.hypot(*seg)
        assert math.isclose(x, 50.0 + seg[0] / seg_len * 0.03)
        assert math.isclose(y, 0.0 + seg[1] / seg_len * 0.03)
        assert idx == 0

    def test_empty_trajectory(self):
        assert pedestrian_step(1.0, 2.0, 0, 3.0, [], 0.01) == (1.0, 2.0, 0)

    def test_terminal_waypoint_is_sticky(self):
        waypoints = [(10.0, 0.0)]
        x, y, idx = 10.0, 0.0, 0
        for _ in range(100):
            x, y, idx = pedestrian_step(x, y, idx, 3.0, waypoints, 0.01)
        assert (x, y) == (10.0, 0.0)
        assert idx == len(waypoints)

    def test_waypoint_switch_on_arrival(self):
        waypoints = [(0.1, 0.0), (0.1, 1.0)]
        x, y, idx = pedestrian_step(0.0, 0.0, 0, 10.0, waypoints, 0.01)
        assert (x, y) == (0.1, 0.0)
        assert idx == 1
        x, y, idx = pedestrian_step(x, y, idx, 10.0, waypoints, 0.01)
        assert math.isclose(y, 0.1)


class TestRadar:
    def test_lone_vehicle_sees_nothing(self):
        world = supervisor.WorldState()
        world.vehicles.append(make_state(vhc_id=1))
        assert radar_sense(world, 1) == []

    def test_stationary_target_dead_ahead(self):
        world = two_vehicle_world(dict(x=0.0), dict(x=10.0))
        detections = radar_sense(world, 1)
        assert len(detections) == 1
        det = detections[0]
        assert math.isclose(det.relative_range, 10.0)
        assert det.relative_bearing == 0.0
        assert det.relative_speed == 0.0

    def test_target_behind_is_invisible(self):
        world = two_vehicle_world(dict(x=0.0), dict(x=-10.0))
        assert radar_sense(world, 1) == []

    def test_target_beyond_range_invisible(self):
        world = two_vehicle_world(dict(x=0.0), dict(x=90.0))
        assert radar_sense(world, 1) == []

    def test_closing_speed_sign(self):
        world = two_vehicle_world(dict(x=0.0, speed=10.0), dict(x=50.0, speed=0.0))
        det = radar_sense(world, 1)[0]
        assert math.isclose(det.relative_speed, 10.0)
        # receding target: ego stopped, target driving away
        world = two_vehicle_world(dict(x=0.0, speed=0.0), dict(x=50.0, speed=5.0))
        det = radar_sense(world, 1)[0]
        assert math.isclose(det.relative_speed, -5.0)

    def test_pedestrians_are_detected_and_sorted_by_range(self):
        world = supervisor.WorldState()
        world.vehicles.append(make_state(vhc_id=1))
        world.vehicles.append(make_state(vhc_id=2, x=30.0))
        world.pedestrians.append(
            supervisor.PedestrianState(id=1, x=12.0, y=0.5, target_speed=0.0, waypoints=[])
        )
        ranges = [d.relative_range for d in radar_sense(world, 1)]
        assert ranges == sorted(ranges)
        assert len(ranges) == 2


def test_registry_contents():
    assert registered_vehicle_controllers() == {
        "void",
        "path_and_speed_follower",
        "automated_driving_with_fusion2",
    }
    with pytest.raises(ControllerConfigError, match="no_such_ctrl"):
        make_vehicle_controller("no_such_ctrl", [], [])


def test_pure_pursuit_zero_for_short_path():
    assert pure_pursuit_steering(0, 0, 0, 10, [(5.0, 0.0)]) == 0.0
