import json
import math
import random

import pytest

from avtestbed import presets
from avtestbed.covering import set_scenario_value
from avtestbed.scenario import (
    ControllerParameter,
    DisturbanceType,
    Fog,
    FogType,
    HeartbeatConfig,
    InitialStateConfig,
    ItemType,
    LogItemDescription,
    Pedestrian,
    Road,
    RoadDisturbance,
    RoadType,
    RunConfig,
    RunMode,
    ScenarioFormatError,
    SensorLocation,
    SensorSpec,
    SimEnvironment,
    SimulationConfig,
    StateId,
    SyncType,
    Vehicle,
    ViewFollowConfig,
    column_names,
    environment_from_json,
    environment_to_json,
    parse_column_name,
    parse_scenario,
    populate_trace_dict,
    serialize_scenario,
    validate_environment,
)

from oracles import random_config, random_environment


class TestDefaults:
    def test_road_defaults(self):
        road = Road()
        assert road.def_name == "STRROAD"
        assert road.road_type is RoadType.STRAIGHT_ROAD_SEGMENT
        assert road.rotation == [0.0, 1.0, 0.0, math.pi / 2]
        assert road.position == [0.0, 0.02, 0.0]
        assert road.number_of_lanes == 2
        assert road.width == 2 * 3.5
        assert road.length == 1000.0

    def test_road_width_follows_lane_count(self):
        assert Road(number_of_lanes=3).width == 10.5
        assert Road(number_of_lanes=3, width=9.0).width == 9.0

    def test_vehicle_defaults(self):
        vhc = Vehicle()
        assert vhc.def_name == ""
        assert vhc.vhc_id == 0
        assert vhc.vehicle_model == "AckermannVehicle"
        assert vhc.rotation == [0.0, 1.0, 0.0, 0.0]
        assert vhc.current_position == [0.0, 0.3, 0.0]
        assert vhc.color == [1.0, 1.0, 1.0]
        assert vhc.controller == "void"
        assert vhc.is_controller_name_absolute is False
        assert vhc.vehicle_parameters == []
        assert vhc.controller_parameters == []
        assert vhc.controller_arguments == []
        assert vhc.sensors == []

    def test_pedestrian_defaults(self):
        ped = Pedestrian()
        assert ped.def_name == "PEDESTRIAN"
        assert ped.ped_id == 0
        assert ped.rotation == [0.0, 1.0, 0.0, math.pi / 2]
        assert ped.current_position == [0.0, 0.0, 0.0]
        assert ped.shirt_color == [0.25, 0.55, 0.2]
        assert ped.pants_color == [0.24, 0.25, 0.5]
        assert ped.shoes_color == [0.28, 0.15, 0.06]
        assert ped.controller == "void"
        assert ped.target_speed == 0.0
        assert ped.trajectory == []

    def test_fog_defaults(self):
        fog = Fog()
        assert fog.def_name == "FOG"
        assert fog.fog_type is FogType.LINEAR
        assert fog.color == [0.93, 0.96, 1.0]
        assert fog.visibility_range == 1000.0

    def test_disturbance_defaults(self):
        dist = RoadDisturbance()
        assert dist.disturbance_id == 1
        assert dist.disturbance_type is DisturbanceType.INTERLEAVED
        assert dist.rotation == [0.0, 1.0, 0.0, 0.0]
        assert dist.position == [0.0, 0.0, 0.0]
        assert (dist.length, dist.width, dist.height) == (100.0, 3.5, 0.06)
        assert dist.surface_height == 0.02
        assert dist.inter_object_spacing == 1.0

    def test_heartbeat_defaults(self):
        hb = HeartbeatConfig()
        assert hb.sync_type is SyncType.NO_HEART_BEAT
        assert hb.period_ms == 10

    def test_sensor_defaults(self):
        sensor = SensorSpec()
        assert sensor.sensor_type == ""
        assert sensor.sensor_location is SensorLocation.FRONT
        assert sensor.fields == []

    def test_config_defaults(self):
        config = SimulationConfig()
        assert config.world_file == "../Webots_Projects/worlds/test_world_1.wbt"
        assert config.server_port == 10021
        assert config.server_ip == "127.0.0.1"
        assert config.sim_duration_ms == 50000
        assert config.sim_step_size_ms == 10
        assert config.run_configs == []
        assert RunConfig().run_mode is RunMode.FAST_NO_GRAPHICS

    def test_environment_defaults(self):
        env = SimEnvironment()
        assert env.fog is None
        assert env.heartbeat_config is None
        assert env.view_follow_config is None
        for attr in (
            "ego_vehicles",
            "agent_vehicles",
            "pedestrians",
            "roads",
            "road_disturbances",
            "generic_objects",
            "controller_params",
            "initial_state_configs",
            "data_log_descriptions",
        ):
            assert getattr(env, attr) == []
        assert env.data_log_period_ms is None


class TestValidation:
    def test_empty_environment_is_valid(self):
        assert validate_environment(SimEnvironment()) == []

    def test_duplicate_vehicle_id(self):
        env = SimEnvironment(ego_vehicles=[Vehicle(vhc_id=1), Vehicle(vhc_id=1)])
        report = validate_environment(env)
        assert len(report) == 1
        assert "duplicate vehicle id" in report[0].message
        assert report[0].path == "ego_vehicles[1]"

    def test_duplicate_id_across_ego_and_agent(self):
        env = SimEnvironment(
            ego_vehicles=[Vehicle(vhc_id=7)], agent_vehicles=[Vehicle(vhc_id=7)]
        )
        assert any("duplicate vehicle id" in v.message for v in validate_environment(env))

    def test_dangling_log_index(self):
        env = SimEnvironment(
            ego_vehicles=[Vehicle(vhc_id=1)],
            agent_vehicles=[Vehicle(vhc_id=2)],
            data_log_descriptions=[
                LogItemDescription(ItemType.VEHICLE, 5, StateId.POSITION_X)
            ],
        )
        report = validate_environment(env)
        assert len(report) == 1
        assert "dangling vehicle index 5" in report[0].message

    def test_color_range(self):
        env = SimEnvironment(ego_vehicles=[Vehicle(color=[1.5, 0.0, 0.0])])
        assert any("color" in v.message for v in validate_environment(env))

    def test_unknown_controller(self):
        env = SimEnvironment(ego_vehicles=[Vehicle(controller="no_such_ctrl")])
        assert any("unknown vehicle controller" in v.message for v in validate_environment(env))

    def test_odd_pedestrian_trajectory(self):
        env = SimEnvironment(pedestrians=[Pedestrian(trajectory=[1.0, 2.0, 3.0])])
        assert any("even length" in v.message for v in validate_environment(env))

    def test_initial_state_cannot_target_time(self):
        env = SimEnvironment(
            initial_state_configs=[
                InitialStateConfig(item=LogItemDescription(ItemType.TIME), value=1.0)
            ]
        )
        assert any("TIME" in v.message for v in validate_environment(env))

    def test_view_follow_reference_checked(self):
        env = SimEnvironment(
            view_follow_config=ViewFollowConfig(item_type=ItemType.VEHICLE, item_index=0)
        )
        assert any("dangling" in v.message for v in validate_environment(env))

    def test_empty_parameter_name(self):
        env = SimEnvironment(controller_params=[ControllerParameter(parameter_name="")])
        assert any("parameter_name" in v.message for v in validate_environment(env))

    def test_demo_scenario_is_valid(self):
        env = presets.demo_environment()
        assert validate_environment(env) == []

    @pytest.mark.parametrize("attr", ["length", "width", "inter_object_spacing", "height"])
    def test_non_finite_disturbance_size_reported(self, attr):
        env = SimEnvironment(road_disturbances=[RoadDisturbance(**{attr: math.inf})])
        report = validate_environment(env)
        assert [v.path for v in report] == [f"road_disturbances[0].{attr}"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "doc_path, violation_path",
        [
            ("ego_vehicles_list[0].current_position[0]", "ego_vehicles[0].current_position"),
            ("ego_vehicles_list[0].current_orientation", "ego_vehicles[0].current_orientation"),
            ("pedestrians_list[0].current_position[2]", "pedestrians[0].current_position"),
            ("pedestrians_list[0].target_speed", "pedestrians[0].target_speed"),
            ("pedestrians_list[0].trajectory[1]", "pedestrians[0].trajectory"),
            ("control_params_list[0].parameter_data[0]", "controller_params[0].parameter_data"),
            ("initial_state_config_list[0].value", "initial_state_configs[0].value"),
        ],
    )
    def test_non_finite_kernel_input_reported(self, doc_path, violation_path, bad):
        doc = environment_to_json(presets.demo_environment())
        set_scenario_value(doc, doc_path, bad)
        report = validate_environment(environment_from_json(doc))
        assert [v.path for v in report if "finite" in v.message] == [violation_path]


class TestTraceDict:
    def test_demo_log_layout(self):
        env = presets.demo_environment()
        mapping = populate_trace_dict(env)
        assert len(mapping) == 11
        assert mapping[(ItemType.TIME, 0, None)] == 0
        assert mapping[(ItemType.VEHICLE, 0, StateId.POSITION_X)] == 1
        assert mapping[(ItemType.VEHICLE, 1, StateId.SPEED)] == 8
        assert mapping[(ItemType.PEDESTRIAN, 0, StateId.POSITION_Y)] == 10

    def test_single_time_entry(self):
        env = SimEnvironment(data_log_descriptions=[LogItemDescription(ItemType.TIME)])
        assert populate_trace_dict(env) == {(ItemType.TIME, 0, None): 0}

    def test_repeated_time_entry_rejected(self):
        env = SimEnvironment(
            data_log_descriptions=[
                LogItemDescription(ItemType.TIME, 0, StateId.POSITION_X),
                LogItemDescription(ItemType.TIME, 3, StateId.SPEED),
            ]
        )
        with pytest.raises(ValueError, match="duplicate.*time_ms"):
            populate_trace_dict(env)

    def test_empty_descriptions_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            populate_trace_dict(SimEnvironment())

    def test_order_matches_description_order(self):
        rng = random.Random(7)
        for _ in range(50):
            env = SimEnvironment(
                ego_vehicles=[Vehicle(vhc_id=1), Vehicle(vhc_id=2)],
                pedestrians=[Pedestrian(ped_id=1)],
            )
            keys = set()
            descriptions = []
            while len(descriptions) < rng.randint(1, 8):
                item_type = rng.choice([ItemType.VEHICLE, ItemType.PEDESTRIAN])
                index = rng.randrange(2) if item_type is ItemType.VEHICLE else 0
                desc = LogItemDescription(item_type, index, rng.choice(list(StateId)))
                if desc.key() not in keys:
                    keys.add(desc.key())
                    descriptions.append(desc)
            env.data_log_descriptions = descriptions
            mapping = populate_trace_dict(env)
            for col, desc in enumerate(descriptions):
                assert mapping[desc.key()] == col

    def test_column_names_round_trip(self):
        env = presets.demo_environment()
        names = column_names(env.data_log_descriptions)
        assert names[0] == "time_ms"
        assert names[1] == "vehicle0_position_x"
        assert names[10] == "pedestrian0_position_y"
        for name, desc in zip(names, env.data_log_descriptions):
            parsed = parse_column_name(name)
            assert parsed.key() == desc.key()


class TestDocuments:
    def test_default_config_document_values(self):
        text = serialize_scenario(SimEnvironment(), SimulationConfig(sim_duration_ms=50000))
        doc = json.loads(text)
        assert doc["config"]["server_port"] == 10021
        assert doc["config"]["sim_step_size"] == 10
        assert doc["config"]["server_ip"] == "127.0.0.1"

    def test_demo_round_trip(self):
        env, config = presets.demo_scenario()
        text = serialize_scenario(env, config)
        env2, config2 = parse_scenario(text)
        assert env2 == env
        assert config2 == config
        assert serialize_scenario(env2, config2) == text

    def test_duration_not_multiple_of_step_rejected(self):
        env, config = presets.demo_scenario()
        config.sim_duration_ms = 15005
        text = serialize_scenario(env, config)
        with pytest.raises(ScenarioFormatError, match="not a multiple"):
            parse_scenario(text)

    def test_unknown_field_rejected(self):
        doc = json.loads(serialize_scenario(SimEnvironment(), SimulationConfig()))
        doc["environment"]["no_such_field"] = 1
        with pytest.raises(ScenarioFormatError, match="no_such_field"):
            parse_scenario(json.dumps(doc))

    def test_unknown_nested_field_rejected(self):
        env = SimEnvironment(ego_vehicles=[Vehicle(vhc_id=1)])
        doc = json.loads(serialize_scenario(env, SimulationConfig()))
        doc["environment"]["ego_vehicles_list"][0]["wheels"] = 6
        with pytest.raises(ScenarioFormatError) as err:
            parse_scenario(json.dumps(doc))
        assert "ego_vehicles_list[0]" in str(err.value)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_rejected(self, literal):
        text = serialize_scenario(*presets.demo_scenario()).replace(
            '"target_speed": 3.0', f'"target_speed": {literal}', 1
        )
        assert literal in text
        with pytest.raises(ScenarioFormatError, match=literal):
            parse_scenario(text)

    def test_parse_error_carries_position(self):
        with pytest.raises(ScenarioFormatError, match="line"):
            parse_scenario('{"environment": {}, "config": \n !}')

    def test_bad_enum_value(self):
        doc = json.loads(serialize_scenario(SimEnvironment(fog=Fog()), SimulationConfig()))
        doc["environment"]["fog"]["fog_type"] = "SQUARE"
        with pytest.raises(ScenarioFormatError, match="SQUARE"):
            parse_scenario(json.dumps(doc))

    def test_missing_fields_default(self):
        env, config = parse_scenario('{"environment": {}, "config": {}}')
        assert env == SimEnvironment()
        assert config == SimulationConfig()

    def test_random_round_trips(self):
        rng = random.Random(99)
        for _ in range(100):
            env = random_environment(rng)
            config = random_config(rng)
            text = serialize_scenario(env, config)
            env2, config2 = parse_scenario(text)
            assert env2 == env
            assert config2 == config

    def test_enum_values_serialized_as_names(self):
        env = presets.demo_environment()
        doc = environment_to_json(env)
        assert doc["road_disturbances_list"][0]["disturbance_type"] == "INTERLEAVED"
        assert doc["data_log_description_list"][0]["item_type"] == "TIME"
        env2 = environment_from_json(doc)
        assert env2 == env
