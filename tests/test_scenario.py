import dataclasses
import json
import math
import random
import re

import pytest

from avtestbed import presets, scenario
from avtestbed.scenario import (
    ControllerParameter,
    HeartbeatConfig,
    InitialStateConfig,
    ItemType,
    LogItemDescription,
    Pedestrian,
    RoadDisturbance,
    RunConfig,
    RunMode,
    ScenarioFormatError,
    SimEnvironment,
    SimulationConfig,
    StateId,
    SyncType,
    Vehicle,
    column_names,
    environment_from_json,
    environment_to_json,
    parse_column_name,
    parse_scenario,
    resolve_binding,
    serialize_scenario,
    validate_environment,
)

from oracles import random_config, random_environment


class TestDefaults:
    def test_vehicle_defaults(self):
        vhc = Vehicle()
        assert vhc.vhc_id == 0
        assert vhc.current_position == [0.0, 0.3, 0.0]
        assert vhc.current_orientation == 0.0
        assert vhc.controller == "void"
        assert vhc.controller_arguments == []

    def test_pedestrian_defaults(self):
        ped = Pedestrian()
        assert ped.ped_id == 0
        assert ped.current_position == [0.0, 0.0, 0.0]
        assert ped.controller == "void"
        assert ped.target_speed == 0.0
        assert ped.trajectory == []

    def test_disturbance_defaults(self):
        dist = RoadDisturbance()
        assert dist.position == [0.0, 0.0, 0.0]
        assert (dist.length, dist.width, dist.height) == (100.0, 3.5, 0.06)
        assert dist.inter_object_spacing == 1.0

    def test_heartbeat_defaults(self):
        hb = HeartbeatConfig()
        assert hb.sync_type is SyncType.NO_HEART_BEAT
        assert hb.period_ms == 10

    def test_config_defaults(self):
        config = SimulationConfig()
        assert config.server_port == 10021
        assert config.server_ip == "127.0.0.1"
        assert config.sim_duration_ms == 50000
        assert config.sim_step_size == 10
        assert config.run_config_arr == []
        assert RunConfig().simulation_run_mode is RunMode.FAST_NO_GRAPHICS

    def test_environment_defaults(self):
        env = SimEnvironment()
        assert env.heart_beat_config is None
        for attr in (
            "ego_vehicles_list",
            "agent_vehicles_list",
            "pedestrians_list",
            "road_disturbances_list",
            "control_params_list",
            "initial_state_config_list",
            "data_log_description_list",
        ):
            assert getattr(env, attr) == []
        assert env.data_log_period_ms is None


class TestValidation:
    def test_empty_environment_is_valid(self):
        assert validate_environment(SimEnvironment()) == []

    def test_duplicate_vehicle_id(self):
        env = SimEnvironment(ego_vehicles_list=[Vehicle(vhc_id=1), Vehicle(vhc_id=1)])
        report = validate_environment(env)
        assert len(report) == 1
        assert "duplicate vehicle id" in report[0].message
        assert report[0].path == "ego_vehicles_list[1]"

    def test_duplicate_id_across_ego_and_agent(self):
        env = SimEnvironment(
            ego_vehicles_list=[Vehicle(vhc_id=7)], agent_vehicles_list=[Vehicle(vhc_id=7)]
        )
        assert any("duplicate vehicle id" in v.message for v in validate_environment(env))

    def test_dangling_log_index(self):
        env = SimEnvironment(
            ego_vehicles_list=[Vehicle(vhc_id=1)],
            agent_vehicles_list=[Vehicle(vhc_id=2)],
            data_log_description_list=[
                LogItemDescription(ItemType.VEHICLE, 5, StateId.POSITION_X)
            ],
        )
        report = validate_environment(env)
        assert len(report) == 1
        assert "dangling vehicle index 5" in report[0].message

    def test_unknown_controller(self):
        env = SimEnvironment(ego_vehicles_list=[Vehicle(controller="no_such_ctrl")])
        assert any("unknown vehicle controller" in v.message for v in validate_environment(env))

    def test_odd_pedestrian_trajectory(self):
        env = SimEnvironment(pedestrians_list=[Pedestrian(trajectory=[1.0, 2.0, 3.0])])
        assert any("even length" in v.message for v in validate_environment(env))

    def test_initial_state_cannot_target_time(self):
        env = SimEnvironment(
            initial_state_config_list=[
                InitialStateConfig(item=LogItemDescription(ItemType.TIME), value=1.0)
            ]
        )
        assert any("TIME" in v.message for v in validate_environment(env))

    def test_pedestrian_orientation_initial_state_reported(self):
        env = presets.demo_environment()
        env.initial_state_config_list.append(
            InitialStateConfig(LogItemDescription(ItemType.PEDESTRIAN, 0, StateId.ORIENTATION), 1.0)
        )
        report = validate_environment(env)
        assert [(v.path, "ORIENTATION" in v.message) for v in report] == [
            ("initial_state_config_list[1]", True)
        ]

    @pytest.mark.parametrize("state", [s for s in StateId if s is not StateId.ORIENTATION])
    def test_other_pedestrian_initial_states_accepted(self, state):
        env = presets.demo_environment()
        env.initial_state_config_list.append(
            InitialStateConfig(LogItemDescription(ItemType.PEDESTRIAN, 0, state), 1.0)
        )
        assert validate_environment(env) == []

    def test_void_controller_arguments_reported(self):
        env = presets.demo_environment()
        env.agent_vehicles_list[0].controller = "void"
        report = validate_environment(env)
        assert [(v.path, "void" in v.message) for v in report] == [
            ("agent_vehicles_list[0].controller_arguments", True)
        ]
        env.agent_vehicles_list[0].controller_arguments = []
        assert validate_environment(env) == []

    def test_empty_parameter_name(self):
        env = SimEnvironment(control_params_list=[ControllerParameter(parameter_name="")])
        assert any("parameter_name" in v.message for v in validate_environment(env))

    def test_controller_param_other_than_target_position_reported(self):
        env = presets.demo_environment()
        env.control_params_list[1].parameter_name = "target_speed"
        report = validate_environment(env)
        assert [(v.path, "target_speed" in v.message) for v in report] == [
            ("control_params_list[1]", True)
        ]

    @pytest.mark.parametrize("data", [[], [5.0], [5.0, 1.0, 9.0]])
    def test_controller_param_that_is_not_one_point_reported(self, data):
        env = presets.demo_environment()
        env.control_params_list[2].parameter_data = data
        report = validate_environment(env)
        assert [(v.path, "x,y pair" in v.message) for v in report] == [
            ("control_params_list[2]", True)
        ]

    def test_controller_param_for_missing_vehicle_reported(self):
        env = presets.demo_environment()
        env.control_params_list[0].vehicle_id = 9
        report = validate_environment(env)
        assert [(v.path, "vehicle_id 9" in v.message) for v in report] == [
            ("control_params_list[0]", True)
        ]

    def test_demo_scenario_is_valid(self):
        env = presets.demo_environment()
        assert validate_environment(env) == []

    @pytest.mark.parametrize("attr", ["length", "width", "inter_object_spacing", "height"])
    def test_non_finite_disturbance_size_reported(self, attr):
        env = SimEnvironment(road_disturbances_list=[RoadDisturbance(**{attr: math.inf})])
        report = validate_environment(env)
        assert [v.path for v in report] == [f"road_disturbances_list[0].{attr}"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "doc_path",
        [
            "ego_vehicles_list[0].current_position[0]",
            "ego_vehicles_list[0].current_orientation",
            "pedestrians_list[0].current_position[2]",
            "pedestrians_list[0].target_speed",
            "pedestrians_list[0].trajectory[1]",
            "control_params_list[0].parameter_data[0]",
            "initial_state_config_list[0].value",
        ],
    )
    def test_non_finite_kernel_input_reported(self, doc_path, bad):
        # a violation names the field by its binding path, less a component index
        env = presets.demo_environment()
        set_value, _ = resolve_binding(env, "environment." + doc_path)
        set_value(bad)
        report = validate_environment(env)
        violation_path = re.sub(r"\[\d+\]$", "", doc_path)
        assert [v.path for v in report if "finite" in v.message] == [violation_path]


class TestBindingPaths:
    def test_set_nested_value(self):
        env = presets.demo_environment()
        set_value, value = resolve_binding(env, "environment.pedestrians_list[0].target_speed")
        assert value == 3.0
        set_value(4.5)
        assert env.pedestrians_list[0].target_speed == 4.5

    def test_set_vector_component(self):
        env = presets.demo_environment()
        path = "environment.ego_vehicles_list[0].current_position[0]"
        set_value, value = resolve_binding(env, path)
        assert value == 20.0
        set_value(25.0)
        assert env.ego_vehicles_list[0].current_position == [25.0, 0.35, 0.0]

    @pytest.mark.parametrize(
        "path, message",
        [
            ("environment.ego_vehicles_list[0].controller", "non-numeric field"),
            ("environment.ego_vehicles_list[0].controller_arguments[0]", "non-numeric field"),
            ("environment.heart_beat_config.sync_type", "non-numeric field"),
            ("environment.ego_vehicles_list[0]", "non-numeric field"),
            ("environment.ego_vehicles_list[0].vhc_id", "integer field"),
            ("environment.data_log_period_ms", "integer field"),
            ("environment.control_params_list[0].vehicle_id", "integer field"),
            ("config.sim_duration_ms", "names a config field"),
            ("environment.__class__", "does not resolve at segment '__class__'"),
            ("environment.pedestrians_list[3].target_speed", "does not resolve at segment 3"),
            ("environment.ego_vehicles_list[0].current_position[3]", "at segment 3"),
            ("environment.ego_vehicles", "does not resolve at segment 'ego_vehicles'"),
            ("document.environment", "does not resolve at segment 'document'"),
            ("a.b.c", "does not resolve at segment 'a'"),
            ("environment..pedestrians_list", "syntax"),
            ("environment.pedestrians_list[-1].target_speed", "syntax"),
            ("", "syntax"),
            (None, "syntax"),
        ],
    )
    def test_path_that_names_no_float_field_rejected(self, path, message):
        env = presets.demo_environment()
        with pytest.raises(ValueError, match=re.escape(message)):
            resolve_binding(env, path)
        assert env == presets.demo_environment()


class TestTraceDict:
    # the trace-column mapping is column_names over the log descriptions
    def test_demo_log_layout(self):
        names = column_names(presets.demo_environment().data_log_description_list)
        assert len(names) == 11
        assert names[0] == "time_ms"
        assert names[1] == "vehicle0_position_x"
        assert names[8] == "vehicle1_speed"
        assert names[10] == "pedestrian0_position_y"

    def test_single_time_entry(self):
        assert column_names([LogItemDescription(ItemType.TIME)]) == ["time_ms"]

    def test_order_matches_description_order(self):
        rng = random.Random(7)
        for _ in range(50):
            keys = set()
            descriptions = []
            while len(descriptions) < rng.randint(1, 8):
                item_type = rng.choice([ItemType.VEHICLE, ItemType.PEDESTRIAN])
                index = rng.randrange(2) if item_type is ItemType.VEHICLE else 0
                desc = LogItemDescription(item_type, index, rng.choice(list(StateId)))
                if desc.key() not in keys:
                    keys.add(desc.key())
                    descriptions.append(desc)
            names = column_names(descriptions)
            for col, desc in enumerate(descriptions):
                assert parse_column_name(names[col]).key() == desc.key()

    def test_column_names_round_trip(self):
        env = presets.demo_environment()
        names = column_names(env.data_log_description_list)
        assert names[0] == "time_ms"
        assert names[1] == "vehicle0_position_x"
        assert names[10] == "pedestrian0_position_y"
        for name, desc in zip(names, env.data_log_description_list):
            parsed = parse_column_name(name)
            assert parsed.key() == desc.key()


# Keys of the Webots scene format that the 2D kernel does not model, with a
# value of the kind that format gives them.
EGO = "environment.ego_vehicles_list[0]"
PEDESTRIAN = "environment.pedestrians_list[0]"
DISTURBANCE = "environment.road_disturbances_list[0]"
WEBOTS_ONLY_KEYS = [
    ("environment", "fog", {"fog_type": "LINEAR", "visibility_range": 700.0}),
    ("environment", "view_follow_config", {"item_type": "VEHICLE", "item_index": 0}),
    ("environment", "road_list", []),
    ("environment", "generic_sim_objects_list", []),
    (EGO, "def_name", "EGO"),
    (EGO, "vehicle_model", "ToyotaPrius"),
    (EGO, "rotation", [0.0, 1.0, 0.0, 0.0]),
    (EGO, "color", [1.0, 1.0, 0.0]),
    (EGO, "is_controller_name_absolute", True),
    (EGO, "vehicle_parameters", []),
    (EGO, "controller_parameters", []),
    (EGO, "sensor_array", [{"sensor_type": "Radar", "sensor_location": "FRONT"}]),
    (PEDESTRIAN, "def_name", "PEDESTRIAN"),
    (PEDESTRIAN, "rotation", [0.0, 1.0, 0.0, 1.5708]),
    (PEDESTRIAN, "shirt_color", [0.0, 0.0, 0.0]),
    (PEDESTRIAN, "pants_color", [0.0, 0.0, 1.0]),
    (PEDESTRIAN, "shoes_color", [0.28, 0.15, 0.06]),
    (DISTURBANCE, "disturbance_id", 1),
    (DISTURBANCE, "disturbance_type", "INTERLEAVED"),
    (DISTURBANCE, "rotation", [0.0, 1.0, 0.0, -1.5708]),
    (DISTURBANCE, "surface_height", 0.02),
    ("config", "world_file", "../Webots_Projects/worlds/test_world_1.wbt"),
]


class TestDocuments:
    def test_demo_fixture_is_the_serialized_demo(self, demo_scenario_path):
        with open(demo_scenario_path, encoding="utf-8") as fh:
            assert fh.read() == serialize_scenario(*presets.demo_scenario())

    def test_document_keys_are_the_field_names(self):
        # one name per field: every model class serializes its dataclass
        # fields, in order, under their own names
        env, config = presets.demo_scenario()
        doc = json.loads(serialize_scenario(env, config))
        seen = set()

        def check(obj, raw):
            if dataclasses.is_dataclass(obj):
                names = [f.name for f in dataclasses.fields(obj)]
                assert list(raw) == names, type(obj).__name__
                seen.add(type(obj))
                for name in names:
                    check(getattr(obj, name), raw[name])
            elif isinstance(obj, list):
                for item, raw_item in zip(obj, raw):
                    check(item, raw_item)

        check(env, doc["environment"])
        check(config, doc["config"])
        assert seen == set(scenario._SPECS)

    @pytest.mark.parametrize(
        "where, key, value", WEBOTS_ONLY_KEYS, ids=[f"{w}.{k}" for w, k, _ in WEBOTS_ONLY_KEYS]
    )
    def test_field_the_kernel_does_not_model_rejected(self, where, key, value):
        doc = json.loads(serialize_scenario(*presets.demo_scenario()))
        env = doc["environment"]
        objects = {
            "environment": env,
            EGO: env["ego_vehicles_list"][0],
            PEDESTRIAN: env["pedestrians_list"][0],
            DISTURBANCE: env["road_disturbances_list"][0],
            "config": doc["config"],
        }
        objects[where][key] = value
        with pytest.raises(ScenarioFormatError) as err:
            parse_scenario(json.dumps(doc))
        assert err.value.path == f"{where}.{key}"

    @pytest.mark.parametrize("value", [None, 1.5, {}, "abc"])
    def test_non_array_initial_state_list_rejected(self, value):
        doc = json.loads(serialize_scenario(*presets.demo_scenario()))
        doc["environment"]["initial_state_config_list"] = value
        with pytest.raises(ScenarioFormatError) as err:
            parse_scenario(json.dumps(doc))
        assert str(err.value) == "environment.initial_state_config_list: expected an array"

    @pytest.mark.parametrize("key", ["item", "value"])
    def test_initial_state_without_a_required_field_rejected(self, key):
        doc = json.loads(serialize_scenario(*presets.demo_scenario()))
        del doc["environment"]["initial_state_config_list"][0][key]
        with pytest.raises(ScenarioFormatError) as err:
            parse_scenario(json.dumps(doc))
        assert str(err.value) == f"environment.initial_state_config_list[0].{key}: missing field"

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

    @pytest.mark.parametrize("port", [0, -1, 65536, 75536])
    def test_server_port_out_of_range_rejected(self, port):
        env, config = presets.demo_scenario()
        config.server_port = port
        with pytest.raises(ScenarioFormatError) as err:
            parse_scenario(serialize_scenario(env, config))
        assert str(err.value) == f"config.server_port: must be in 1-65535, got {port}"

    def test_unknown_field_rejected(self):
        doc = json.loads(serialize_scenario(SimEnvironment(), SimulationConfig()))
        doc["environment"]["no_such_field"] = 1
        with pytest.raises(ScenarioFormatError, match="no_such_field"):
            parse_scenario(json.dumps(doc))

    def test_unknown_nested_field_rejected(self):
        env = SimEnvironment(ego_vehicles_list=[Vehicle(vhc_id=1)])
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
        env = SimEnvironment(heart_beat_config=HeartbeatConfig())
        doc = json.loads(serialize_scenario(env, SimulationConfig()))
        doc["environment"]["heart_beat_config"]["sync_type"] = "SQUARE"
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
        assert doc["heart_beat_config"]["sync_type"] == "NO_HEART_BEAT"
        assert doc["data_log_description_list"][0]["item_type"] == "TIME"
        env2 = environment_from_json(doc)
        assert env2 == env
