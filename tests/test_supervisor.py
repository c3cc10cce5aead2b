import math

import numpy as np
import pytest

from avtestbed import presets, supervisor
from avtestbed.scenario import (
    HeartbeatConfig,
    InitialStateConfig,
    ItemType,
    LogItemDescription,
    Pedestrian,
    RoadDisturbance,
    RunConfig,
    RunMode,
    SimEnvironment,
    SimulationConfig,
    StateId,
    SyncType,
    Vehicle,
)
from avtestbed.supervisor import (
    ContactKind,
    SetupError,
    apply_initial_states,
    build_world,
    compile_log_row,
    detect_collisions,
    run,
    run_embedded,
    sample_log_row,
    step,
    trajectory_from_csv,
    trajectory_to_csv,
)

from oracles import point_polyline_distance


def simple_config(duration_ms=1000, step_ms=10):
    return SimulationConfig(
        sim_duration_ms=duration_ms, sim_step_size=step_ms, run_config_arr=[RunConfig()]
    )


class TestBuildWorld:
    def test_demo_world_layout(self):
        env, config = presets.demo_scenario()
        world = build_world(env, config)
        assert len(world.vehicles) == 2
        ego, agent = world.vehicles
        assert (ego.x, ego.y) == (20.0, 0.0)
        assert ego.heading == 0.0
        assert (agent.x, agent.y) == (300.0, 3.5)
        assert agent.heading == math.pi
        assert len(world.pedestrians) == 1
        assert (world.pedestrians[0].x, world.pedestrians[0].y) == (50.0, 0.0)
        # controller paths were delivered before t=0
        assert agent.controller.path[0] == (1000.0, 3.5)
        assert len(agent.controller.path) == 4
        assert ego.controller.path == [(-1000.0, 0.0), (1000.0, 0.0)]

    def test_empty_environment_builds_clock_only_world(self):
        world = build_world(SimEnvironment(), simple_config())
        assert world.vehicles == []
        assert world.pedestrians == []
        assert world.sim_time_ms == 0

    def test_unknown_controller_is_setup_error(self):
        env = SimEnvironment(ego_vehicles_list=[Vehicle(vhc_id=1, controller="no_such_ctrl")])
        with pytest.raises(SetupError, match="no_such_ctrl"):
            build_world(env, simple_config())

    def test_invalid_environment_rejected(self):
        env = SimEnvironment(ego_vehicles_list=[Vehicle(vhc_id=1), Vehicle(vhc_id=1)])
        with pytest.raises(SetupError, match="duplicate"):
            build_world(env, simple_config())


class TestInitialStates:
    def test_velocity_x_sets_speed(self):
        env, config = presets.demo_scenario()
        world = build_world(env, config)
        assert world.vehicles[0].speed == 10.0
        assert world.vehicles[0].heading == 0.0

    def test_build_world_applies_them_and_reapplying_changes_nothing(self):
        env, config = presets.demo_scenario()
        env.initial_state_config_list.append(
            InitialStateConfig(LogItemDescription(ItemType.PEDESTRIAN, 0, StateId.POSITION_Y), -1.0)
        )
        world = build_world(env, config)
        assert (world.vehicles[0].speed, world.pedestrians[0].y) == (10.0, -1.0)
        before = [(v.x, v.y, v.heading, v.speed) for v in world.vehicles]
        apply_initial_states(world, env.initial_state_config_list)
        assert [(v.x, v.y, v.heading, v.speed) for v in world.vehicles] == before
        assert world.pedestrians[0].y == -1.0

    def test_empty_list_is_noop(self):
        env, config = presets.demo_scenario()
        world = build_world(env, config)
        before = [(v.x, v.y, v.heading, v.speed) for v in world.vehicles]
        apply_initial_states(world, [])
        assert [(v.x, v.y, v.heading, v.speed) for v in world.vehicles] == before

    def test_position_y_assignment(self):
        env = SimEnvironment(ego_vehicles_list=[Vehicle(vhc_id=1)])
        world = build_world(env, simple_config())
        apply_initial_states(
            world,
            [
                InitialStateConfig(
                    LogItemDescription(ItemType.VEHICLE, 0, StateId.POSITION_Y), -3.5
                )
            ],
        )
        assert world.vehicles[0].y == -3.5

    def test_negative_velocity_gives_absolute_speed(self):
        env = SimEnvironment(ego_vehicles_list=[Vehicle(vhc_id=1)])
        world = build_world(env, simple_config())
        world.vehicles[0].heading = 0.25
        apply_initial_states(
            world,
            [InitialStateConfig(LogItemDescription(ItemType.VEHICLE, 0, StateId.VELOCITY_X), -7.0)],
        )
        assert world.vehicles[0].speed == 7.0
        assert world.vehicles[0].heading == 0.25


class TestStep:
    def test_straight_line_advance(self):
        env = SimEnvironment(ego_vehicles_list=[Vehicle(vhc_id=1)])
        world = build_world(env, simple_config())
        world.vehicles[0].speed = 10.0
        step(world, 10)
        assert world.vehicles[0].x == pytest.approx(0.1, abs=1e-15)
        assert world.vehicles[0].y == 0.0
        assert world.sim_time_ms == 10

    def test_no_reverse_from_braking(self):
        class HardBrake(supervisor.controllers.VehicleController):
            def control(self, state, radar, dt):
                return (0.0, -5.0)

        env = SimEnvironment(ego_vehicles_list=[Vehicle(vhc_id=1)])
        world = build_world(env, simple_config())
        world.vehicles[0].controller = HardBrake()
        world.vehicles[0].speed = 0.0
        for _ in range(10):
            step(world, 10)
        assert world.vehicles[0].speed == 0.0
        assert world.vehicles[0].x == 0.0

    def test_pedestrian_moves_toward_waypoint(self):
        env = SimEnvironment(
            pedestrians_list=[
                Pedestrian(
                    ped_id=1,
                    controller="pedestrian_control",
                    target_speed=3.0,
                    current_position=[50.0, 1.3, 0.0],
                    trajectory=[50.0, 0.0, 80.0, -3.0, 200.0, 0.0],
                )
            ]
        )
        world = build_world(env, simple_config())
        step(world, 10)
        ped = world.pedestrians[0]
        moved = math.hypot(ped.x - 50.0, ped.y - 0.0)
        assert moved == pytest.approx(0.03, abs=1e-12)
        direction = math.atan2(-3.0 - 0.0, 80.0 - 50.0)
        assert math.atan2(ped.y - 0.0, ped.x - 50.0) == pytest.approx(direction, abs=1e-9)

    def test_void_pedestrian_stays_put(self):
        env = SimEnvironment(
            pedestrians_list=[Pedestrian(ped_id=1, target_speed=3.0, trajectory=[10.0, 0.0])]
        )
        world = build_world(env, simple_config())
        step(world, 10)
        assert (world.pedestrians[0].x, world.pedestrians[0].y) == (0.0, 0.0)


class TestCollisions:
    def world_with_vehicles(self, *poses):
        world = supervisor.WorldState()
        for i, (x, y, heading) in enumerate(poses, start=1):
            world.vehicles.append(
                supervisor.VehicleState(
                    id=i, x=x, y=y, heading=heading, speed=0.0,
                    controller=supervisor.controllers.VehicleController(),
                )
            )
        return world

    def test_far_apart_is_empty(self):
        world = self.world_with_vehicles((0, 0, 0), (100, 0, 0))
        assert detect_collisions(world) == []

    def test_identical_pose_overlaps(self):
        world = self.world_with_vehicles((5, 5, 0.3), (5, 5, 0.3))
        contacts = detect_collisions(world)
        assert len(contacts) == 1
        assert contacts[0].kind is ContactKind.VEHICLE_VEHICLE
        assert contacts[0].ids == (1, 2)
        assert contacts[0].penetration > 0

    def test_ten_centimeter_gap_is_clear(self):
        world = self.world_with_vehicles((0, 0, 0), (4.9, 0, 0))
        assert detect_collisions(world) == []

    def test_symmetry_under_list_order(self):
        world_ab = self.world_with_vehicles((0, 0, 0.2), (3.0, 0.5, -0.4))
        world_ba = self.world_with_vehicles((3.0, 0.5, -0.4), (0, 0, 0.2))
        contacts_ab = detect_collisions(world_ab)
        contacts_ba = detect_collisions(world_ba)
        assert len(contacts_ab) == len(contacts_ba) == 1
        assert contacts_ab[0].penetration == pytest.approx(contacts_ba[0].penetration, abs=1e-12)

    def test_vehicle_pedestrian_contact(self):
        world = self.world_with_vehicles((0, 0, 0))
        world.pedestrians.append(
            supervisor.PedestrianState(id=9, x=2.5, y=0.0, target_speed=0.0, waypoints=[])
        )
        contacts = detect_collisions(world)
        assert len(contacts) == 1
        assert contacts[0].kind is ContactKind.VEHICLE_PEDESTRIAN
        assert contacts[0].ids == (1, 9)


class TestSampling:
    def test_velocity_projection(self):
        env = SimEnvironment(ego_vehicles_list=[Vehicle(vhc_id=1)])
        world = build_world(env, simple_config())
        world.vehicles[0].x = 20.0
        world.vehicles[0].heading = math.pi / 2
        world.vehicles[0].speed = 10.0
        row = sample_log_row(compile_log_row(
            world, [LogItemDescription(ItemType.VEHICLE, 0, StateId.VELOCITY_X)]
        ))
        assert abs(row[0]) < 1e-12

    def test_time_column(self):
        world = supervisor.WorldState(sim_time_ms=2000)
        row = sample_log_row(compile_log_row(world, [LogItemDescription(ItemType.TIME)]))
        assert row == [2000.0]

    def test_demo_row_layout(self):
        env, config = presets.demo_scenario()
        world = build_world(env, config)
        row = sample_log_row(compile_log_row(world, env.data_log_description_list))
        assert len(row) == 11
        assert row[0] == 0.0
        assert row[1] == 20.0  # ego x
        assert row[2] == 0.0  # ego y
        assert row[4] == 10.0  # ego speed
        assert row[5] == 300.0  # agent x
        assert row[6] == 3.5  # agent y
        assert row[9] == 50.0  # pedestrian x

    def test_orientation_wrapped(self):
        env = SimEnvironment(ego_vehicles_list=[Vehicle(vhc_id=1)])
        world = build_world(env, simple_config())
        world.vehicles[0].heading = 3 * math.pi
        row = sample_log_row(compile_log_row(
            world, [LogItemDescription(ItemType.VEHICLE, 0, StateId.ORIENTATION)]
        ))
        assert row[0] == pytest.approx(math.pi)
        assert -math.pi < row[0] <= math.pi

    def test_disturbance_offsets_logged_y_only(self):
        env = SimEnvironment(ego_vehicles_list=[Vehicle(vhc_id=1)])
        env.road_disturbances_list = [
            RoadDisturbance(position=[40.0, 0.0, 0.0], length=3.0, width=3.5,
                            height=0.04, inter_object_spacing=0.5)
        ]
        world = build_world(env, simple_config())
        world.vehicles[0].x = 41.3
        world.vehicles[0].y = 0.2
        row = sample_log_row(compile_log_row(
            world,
            [
                LogItemDescription(ItemType.VEHICLE, 0, StateId.POSITION_X),
                LogItemDescription(ItemType.VEHICLE, 0, StateId.POSITION_Y),
            ],
        ))
        expected = 0.2 + 0.04 * math.sin(2 * math.pi * 41.3 / 0.5)
        assert row[1] == pytest.approx(expected, abs=1e-15)
        assert world.vehicles[0].y == 0.2  # dynamics untouched
        # outside the region there is no offset
        world.vehicles[0].x = 50.0
        row = sample_log_row(compile_log_row(
            world, [LogItemDescription(ItemType.VEHICLE, 0, StateId.POSITION_Y)]
        ))
        assert row[0] == 0.2


class TestRun:
    def test_row_count_for_demo_duration(self):
        env, config = presets.demo_scenario()
        result = run_embedded(env, config)
        assert result.trajectory.rows.shape == (1501, 11)

    def test_zero_duration_gives_single_row(self):
        env, config = presets.demo_scenario()
        config.sim_duration_ms = 0
        result = run_embedded(env, config)
        assert result.trajectory.rows.shape == (1, 11)

    def test_rows_strictly_increasing_in_time(self):
        env, config = presets.demo_scenario()
        config.sim_duration_ms = 2000
        result = run_embedded(env, config)
        times = result.trajectory.rows[:, 0]
        assert np.all(np.diff(times) > 0)

    def test_determinism(self):
        env, config = presets.demo_scenario()
        config.sim_duration_ms = 3000
        a = run_embedded(env, config).trajectory
        b = run_embedded(env, config).trajectory
        assert a == b
        assert trajectory_to_csv(a) == trajectory_to_csv(b)

    def test_coarser_log_period(self):
        env, config = presets.demo_scenario()
        env.data_log_period_ms = 50
        config.sim_duration_ms = 1000
        result = run_embedded(env, config)
        assert result.trajectory.rows.shape[0] == 1000 // 50 + 1

    def test_log_period_must_divide_into_steps(self):
        env, config = presets.demo_scenario()
        env.data_log_period_ms = 15
        with pytest.raises(SetupError, match="multiple"):
            run_embedded(env, config)

    def test_requires_a_run_config(self):
        env, config = presets.demo_scenario()
        config.run_config_arr = []
        with pytest.raises(SetupError, match="run_config_arr"):
            run_embedded(env, config)

    def test_real_time_mode_paces_but_matches_fast_run(self):
        import time

        env, config = presets.demo_scenario()
        config.sim_duration_ms = 100
        fast = run_embedded(env, config).trajectory
        config.run_config_arr = [RunConfig(simulation_run_mode=RunMode.REAL_TIME)]
        t0 = time.monotonic()
        paced = run_embedded(env, config).trajectory
        elapsed = time.monotonic() - t0
        assert paced == fast
        assert elapsed >= 0.08

    def test_run_records_contacts_and_min_gap(self):
        env, config = presets.demo_scenario()
        result = run_embedded(env, config)
        kinds = {c.kind for c in result.contacts}
        assert ContactKind.VEHICLE_VEHICLE in kinds
        assert result.min_vehicle_gap < 2.0

    def test_beat_receives_heartbeats(self):
        beats = []
        env, config = presets.demo_scenario()
        env.heart_beat_config = HeartbeatConfig(sync_type=SyncType.WITHOUT_SYNC, period_ms=2000)
        config.sim_duration_ms = 10000
        run(build_world(env, config), env, config, beat=lambda t, done: beats.append((t, done)))
        assert [t for t, _ in beats] == [2000, 4000, 6000, 8000, 10000]
        assert [finished for _, finished in beats] == [False, False, False, False, True]

    def test_no_heartbeat_mode_never_beats(self):
        beats = []
        env, config = presets.demo_scenario()
        config.sim_duration_ms = 1000
        run(build_world(env, config), env, config, beat=lambda t, done: beats.append(t))
        assert beats == []

    def test_beats_reach_run_embedded_caller(self):
        beats = []
        env, config = presets.demo_scenario()
        env.heart_beat_config = HeartbeatConfig(sync_type=SyncType.WITH_SYNC, period_ms=500)
        config.sim_duration_ms = 1000
        run_embedded(env, config, beat=lambda t, done: beats.append((t, done)))
        assert beats == [(500, False), (1000, True)]

    def test_heartbeat_period_off_the_step_grid(self):
        # period 25 with step 10: only step boundaries divisible by 25 beat
        beats = []
        env, config = presets.demo_scenario()
        env.heart_beat_config = HeartbeatConfig(sync_type=SyncType.WITHOUT_SYNC, period_ms=25)
        config.sim_duration_ms = 200
        run(build_world(env, config), env, config, beat=lambda t, done: beats.append(t))
        assert beats == [50, 100, 150, 200]

    def test_run_index_selects_the_run_config(self):
        env, config = presets.demo_scenario()
        config.sim_duration_ms = 100
        config.run_config_arr = [RunConfig(RunMode.REAL_TIME), RunConfig(RunMode.FAST_NO_GRAPHICS)]
        world = build_world(env, config)
        import time

        t0 = time.monotonic()
        fast = run(world, env, config, run_index=1)
        assert time.monotonic() - t0 < 0.5
        with pytest.raises(SetupError, match="out of range"):
            run(build_world(env, config), env, config, run_index=2)


class TestPedestrianAdherence:
    def test_distance_to_polyline_bounded_by_step(self):
        env, config = presets.demo_scenario()
        world = build_world(env, config)
        waypoints = [(50.0, 0.0), (80.0, -3.0), (200.0, 0.0)]
        dt = config.sim_step_size / 1000.0
        bound = 3.0 * dt
        for _ in range(1500):
            step(world, config.sim_step_size)
            ped = world.pedestrians[0]
            assert point_polyline_distance(ped.x, ped.y, waypoints) <= bound + 1e-12


class TestTraceCsv:
    def test_round_trip(self):
        env, config = presets.demo_scenario()
        config.sim_duration_ms = 500
        trajectory = run_embedded(env, config).trajectory
        text = trajectory_to_csv(trajectory)
        back = trajectory_from_csv(text)
        assert back == trajectory

    def test_header_names(self):
        env, config = presets.demo_scenario()
        config.sim_duration_ms = 0
        trajectory = run_embedded(env, config).trajectory
        header = trajectory_to_csv(trajectory).splitlines()[0]
        assert header.startswith("time_ms,vehicle0_position_x,vehicle0_position_y")
        assert header.endswith("pedestrian0_position_x,pedestrian0_position_y")

    @pytest.mark.parametrize(
        "cell, where",
        [("nan", "line 3, column vehicle0_speed"), ("inf", "line 3, column vehicle0_speed"),
         ("1e400", "line 3, column vehicle0_speed"), ("", "line 3, column vehicle0_speed"),
         ("fast", "line 3, column vehicle0_speed")],
    )
    def test_non_finite_or_non_numeric_cell_is_named(self, cell, where):
        text = f"time_ms,vehicle0_speed\n0,1.5\n10,{cell}\n"
        with pytest.raises(ValueError) as err:
            trajectory_from_csv(text)
        assert str(err.value) == f"{where}: {cell!r} is not a finite number"
