import dataclasses
import json
import math
import os
import random
import re
from typing import Union, get_args, get_origin

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
    trajectory_from_json,
    validate_environment,
    validate_run,
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

    @pytest.mark.parametrize(
        "where, args, message",
        [
            ("agent_vehicles_list", [], "requires a target speed"),
            ("ego_vehicles_list", ["Toyota", "fast", "0.0"], "numeric argument is malformed"),
            ("ego_vehicles_list", ["Toyota", "70.0", "0.0", "one"], "'one' is not an integer"),
        ],
        ids=["path-follower-without-speed", "fusion-speed-fast", "fusion-id-one"],
    )
    def test_controller_argument_error_reported_at_its_field(self, where, args, message):
        env = presets.demo_environment()
        getattr(env, where)[0].controller_arguments = args
        report = validate_environment(env)
        assert [(v.path, message in v.message) for v in report] == [
            (f"{where}[0].controller_arguments", True)
        ]

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


class TestViolationsPinned:
    """The exact violations of the demo scene with one fault, as strings and in
    order, so that no change to how the rules are stated changes what they say."""

    FLOAT_PATHS = [
        "ego_vehicles_list[0].current_position[0]",
        "ego_vehicles_list[0].current_position[1]",
        "ego_vehicles_list[0].current_position[2]",
        "ego_vehicles_list[0].current_orientation",
        "agent_vehicles_list[0].current_position[0]",
        "agent_vehicles_list[0].current_position[1]",
        "agent_vehicles_list[0].current_position[2]",
        "agent_vehicles_list[0].current_orientation",
        "pedestrians_list[0].current_position[0]",
        "pedestrians_list[0].current_position[1]",
        "pedestrians_list[0].current_position[2]",
        "pedestrians_list[0].target_speed",
        "pedestrians_list[0].trajectory[0]",
        "pedestrians_list[0].trajectory[5]",
        "road_disturbances_list[0].position[0]",
        "road_disturbances_list[0].position[1]",
        "road_disturbances_list[0].position[2]",
        "road_disturbances_list[0].length",
        "road_disturbances_list[0].width",
        "road_disturbances_list[0].height",
        "road_disturbances_list[0].inter_object_spacing",
        "control_params_list[0].parameter_data[0]",
        "control_params_list[0].parameter_data[1]",
        "initial_state_config_list[0].value",
    ]
    # (float path, value): its violations; every other pair gives none
    FLOAT_VIOLATIONS = {
    ('ego_vehicles_list[0].current_position[0]', 'nan'): [
        'ego_vehicles_list[0].current_position: must be finite, got [nan, 0.35, 0.0]',
    ],
    ('ego_vehicles_list[0].current_position[0]', 'inf'): [
        'ego_vehicles_list[0].current_position: must be finite, got [inf, 0.35, 0.0]',
    ],
    ('ego_vehicles_list[0].current_position[1]', 'nan'): [
        'ego_vehicles_list[0].current_position: must be finite, got [20.0, nan, 0.0]',
    ],
    ('ego_vehicles_list[0].current_position[1]', 'inf'): [
        'ego_vehicles_list[0].current_position: must be finite, got [20.0, inf, 0.0]',
    ],
    ('ego_vehicles_list[0].current_position[2]', 'nan'): [
        'ego_vehicles_list[0].current_position: must be finite, got [20.0, 0.35, nan]',
    ],
    ('ego_vehicles_list[0].current_position[2]', 'inf'): [
        'ego_vehicles_list[0].current_position: must be finite, got [20.0, 0.35, inf]',
    ],
    ('ego_vehicles_list[0].current_orientation', 'nan'): [
        'ego_vehicles_list[0].current_orientation: must be finite, got [nan]',
    ],
    ('ego_vehicles_list[0].current_orientation', 'inf'): [
        'ego_vehicles_list[0].current_orientation: must be finite, got [inf]',
    ],
    ('agent_vehicles_list[0].current_position[0]', 'nan'): [
        'agent_vehicles_list[0].current_position: must be finite, got [nan, 0.35, 3.5]',
    ],
    ('agent_vehicles_list[0].current_position[0]', 'inf'): [
        'agent_vehicles_list[0].current_position: must be finite, got [inf, 0.35, 3.5]',
    ],
    ('agent_vehicles_list[0].current_position[1]', 'nan'): [
        'agent_vehicles_list[0].current_position: must be finite, got [300.0, nan, 3.5]',
    ],
    ('agent_vehicles_list[0].current_position[1]', 'inf'): [
        'agent_vehicles_list[0].current_position: must be finite, got [300.0, inf, 3.5]',
    ],
    ('agent_vehicles_list[0].current_position[2]', 'nan'): [
        'agent_vehicles_list[0].current_position: must be finite, got [300.0, 0.35, nan]',
    ],
    ('agent_vehicles_list[0].current_position[2]', 'inf'): [
        'agent_vehicles_list[0].current_position: must be finite, got [300.0, 0.35, inf]',
    ],
    ('agent_vehicles_list[0].current_orientation', 'nan'): [
        'agent_vehicles_list[0].current_orientation: must be finite, got [nan]',
    ],
    ('agent_vehicles_list[0].current_orientation', 'inf'): [
        'agent_vehicles_list[0].current_orientation: must be finite, got [inf]',
    ],
    ('pedestrians_list[0].current_position[0]', 'nan'): [
        'pedestrians_list[0].current_position: must be finite, got [nan, 1.3, 0.0]',
    ],
    ('pedestrians_list[0].current_position[0]', 'inf'): [
        'pedestrians_list[0].current_position: must be finite, got [inf, 1.3, 0.0]',
    ],
    ('pedestrians_list[0].current_position[1]', 'nan'): [
        'pedestrians_list[0].current_position: must be finite, got [50.0, nan, 0.0]',
    ],
    ('pedestrians_list[0].current_position[1]', 'inf'): [
        'pedestrians_list[0].current_position: must be finite, got [50.0, inf, 0.0]',
    ],
    ('pedestrians_list[0].current_position[2]', 'nan'): [
        'pedestrians_list[0].current_position: must be finite, got [50.0, 1.3, nan]',
    ],
    ('pedestrians_list[0].current_position[2]', 'inf'): [
        'pedestrians_list[0].current_position: must be finite, got [50.0, 1.3, inf]',
    ],
    ('pedestrians_list[0].target_speed', 'nan'): [
        'pedestrians_list[0].target_speed: must be finite, got [nan]',
    ],
    ('pedestrians_list[0].target_speed', 'inf'): [
        'pedestrians_list[0].target_speed: must be finite, got [inf]',
    ],
    ('pedestrians_list[0].target_speed', '-inf'): [
        'pedestrians_list[0]: target_speed must be >= 0',
        'pedestrians_list[0].target_speed: must be finite, got [-inf]',
    ],
    ('pedestrians_list[0].target_speed', '-1.0'): [
        'pedestrians_list[0]: target_speed must be >= 0',
    ],
    ('pedestrians_list[0].trajectory[0]', 'nan'): [
        'pedestrians_list[0].trajectory: must be finite, got [nan, 0.0, 80.0, -3.0, 200.0, 0.0]',
    ],
    ('pedestrians_list[0].trajectory[0]', 'inf'): [
        'pedestrians_list[0].trajectory: must be finite, got [inf, 0.0, 80.0, -3.0, 200.0, 0.0]',
    ],
    ('pedestrians_list[0].trajectory[5]', 'nan'): [
        'pedestrians_list[0].trajectory: must be finite, got [50.0, 0.0, 80.0, -3.0, 200.0, nan]',
    ],
    ('pedestrians_list[0].trajectory[5]', 'inf'): [
        'pedestrians_list[0].trajectory: must be finite, got [50.0, 0.0, 80.0, -3.0, 200.0, inf]',
    ],
    ('road_disturbances_list[0].position[0]', 'nan'): [
        'road_disturbances_list[0].position: must be finite, got [nan, 0.0, 0.0]',
    ],
    ('road_disturbances_list[0].position[0]', 'inf'): [
        'road_disturbances_list[0].position: must be finite, got [inf, 0.0, 0.0]',
    ],
    ('road_disturbances_list[0].position[1]', 'nan'): [
        'road_disturbances_list[0].position: must be finite, got [40.0, nan, 0.0]',
    ],
    ('road_disturbances_list[0].position[1]', 'inf'): [
        'road_disturbances_list[0].position: must be finite, got [40.0, inf, 0.0]',
    ],
    ('road_disturbances_list[0].position[2]', 'nan'): [
        'road_disturbances_list[0].position: must be finite, got [40.0, 0.0, nan]',
    ],
    ('road_disturbances_list[0].position[2]', 'inf'): [
        'road_disturbances_list[0].position: must be finite, got [40.0, 0.0, inf]',
    ],
    ('road_disturbances_list[0].length', 'nan'): [
        'road_disturbances_list[0].length: must be finite, got [nan]',
    ],
    ('road_disturbances_list[0].length', 'inf'): [
        'road_disturbances_list[0].length: must be finite, got [inf]',
    ],
    ('road_disturbances_list[0].length', '-inf'): [
        'road_disturbances_list[0]: length must be > 0',
        'road_disturbances_list[0].length: must be finite, got [-inf]',
    ],
    ('road_disturbances_list[0].length', '-1.0'): [
        'road_disturbances_list[0]: length must be > 0',
    ],
    ('road_disturbances_list[0].length', '0.0'): [
        'road_disturbances_list[0]: length must be > 0',
    ],
    ('road_disturbances_list[0].width', 'nan'): [
        'road_disturbances_list[0].width: must be finite, got [nan]',
    ],
    ('road_disturbances_list[0].width', 'inf'): [
        'road_disturbances_list[0].width: must be finite, got [inf]',
    ],
    ('road_disturbances_list[0].width', '-inf'): [
        'road_disturbances_list[0]: width must be > 0',
        'road_disturbances_list[0].width: must be finite, got [-inf]',
    ],
    ('road_disturbances_list[0].width', '-1.0'): [
        'road_disturbances_list[0]: width must be > 0',
    ],
    ('road_disturbances_list[0].width', '0.0'): [
        'road_disturbances_list[0]: width must be > 0',
    ],
    ('road_disturbances_list[0].height', 'nan'): [
        'road_disturbances_list[0].height: must be finite, got [nan]',
    ],
    ('road_disturbances_list[0].height', 'inf'): [
        'road_disturbances_list[0].height: must be finite, got [inf]',
    ],
    ('road_disturbances_list[0].height', '-inf'): [
        'road_disturbances_list[0]: height must be > 0',
        'road_disturbances_list[0].height: must be finite, got [-inf]',
    ],
    ('road_disturbances_list[0].height', '-1.0'): [
        'road_disturbances_list[0]: height must be > 0',
    ],
    ('road_disturbances_list[0].height', '0.0'): [
        'road_disturbances_list[0]: height must be > 0',
    ],
    ('road_disturbances_list[0].inter_object_spacing', 'nan'): [
        'road_disturbances_list[0].inter_object_spacing: must be finite, got [nan]',
    ],
    ('road_disturbances_list[0].inter_object_spacing', 'inf'): [
        'road_disturbances_list[0].inter_object_spacing: must be finite, got [inf]',
    ],
    ('road_disturbances_list[0].inter_object_spacing', '-inf'): [
        'road_disturbances_list[0]: inter_object_spacing must be > 0',
        'road_disturbances_list[0].inter_object_spacing: must be finite, got [-inf]',
    ],
    ('road_disturbances_list[0].inter_object_spacing', '-1.0'): [
        'road_disturbances_list[0]: inter_object_spacing must be > 0',
    ],
    ('road_disturbances_list[0].inter_object_spacing', '0.0'): [
        'road_disturbances_list[0]: inter_object_spacing must be > 0',
    ],
    ('control_params_list[0].parameter_data[0]', 'nan'): [
        'control_params_list[0].parameter_data: must be finite, got [nan, 0.0]',
    ],
    ('control_params_list[0].parameter_data[0]', 'inf'): [
        'control_params_list[0].parameter_data: must be finite, got [inf, 0.0]',
    ],
    ('control_params_list[0].parameter_data[1]', 'nan'): [
        'control_params_list[0].parameter_data: must be finite, got [-1000.0, nan]',
    ],
    ('control_params_list[0].parameter_data[1]', 'inf'): [
        'control_params_list[0].parameter_data: must be finite, got [-1000.0, inf]',
    ],
    ('initial_state_config_list[0].value', 'nan'): [
        'initial_state_config_list[0].value: must be finite, got [nan]',
    ],
    ('initial_state_config_list[0].value', 'inf'): [
        'initial_state_config_list[0].value: must be finite, got [inf]',
    ],
    }
    SIGNED_PATHS = [
        "pedestrians_list[0].target_speed",
        "road_disturbances_list[0].length",
        "road_disturbances_list[0].width",
        "road_disturbances_list[0].height",
        "road_disturbances_list[0].inter_object_spacing",
    ]

    STRUCTURAL_FAULTS = [
        ("duplicate-vehicle-id", "agent_vehicles_list[0].vhc_id", 1, [
            "agent_vehicles_list[0]: duplicate vehicle id 1 (also ego_vehicles_list[0])",
            "control_params_list[2]: vehicle_id 2 names no vehicle",
            "control_params_list[3]: vehicle_id 2 names no vehicle",
            "control_params_list[4]: vehicle_id 2 names no vehicle",
            "control_params_list[5]: vehicle_id 2 names no vehicle",
        ]),
        ("unknown-vehicle-controller", "ego_vehicles_list[0].controller", "nope",
         ["ego_vehicles_list[0]: unknown vehicle controller 'nope'"]),
        ("controller-arguments", "agent_vehicles_list[0].controller_arguments", [],
         ["agent_vehicles_list[0].controller_arguments: "
          "path_and_speed_follower requires a target speed argument"]),
        ("position-of-two", "ego_vehicles_list[0].current_position", [20.0, 0.35],
         ["ego_vehicles_list[0].current_position: expected 3 components, got 2"]),
        ("duplicate-pedestrian-id", "pedestrians_list[1]", Pedestrian(ped_id=1),
         ["pedestrians_list[1]: duplicate pedestrian id 1 (also pedestrians_list[0])"]),
        ("unknown-pedestrian-controller", "pedestrians_list[0].controller", "nope",
         ["pedestrians_list[0]: unknown pedestrian controller 'nope'"]),
        ("odd-trajectory", "pedestrians_list[0].trajectory", [50.0, 0.0, 80.0],
         ["pedestrians_list[0]: trajectory must list x,y pairs (even length)"]),
        ("heartbeat-period", "heart_beat_config.period_ms", 0,
         ["heart_beat_config: period_ms must be >= 1"]),
        ("parameter-name", "control_params_list[0].parameter_name", "target_speed",
         ["control_params_list[0]: parameter_name must be 'target_position', "
          "got 'target_speed'"]),
        ("parameter-data-count", "control_params_list[0].parameter_data", [1.0, 2.0, 3.0],
         ["control_params_list[0]: parameter_data must be one x,y pair, got 3 numbers"]),
        ("parameter-vehicle-id", "control_params_list[0].vehicle_id", 9,
         ["control_params_list[0]: vehicle_id 9 names no vehicle"]),
        ("initial-state-time", "initial_state_config_list[0].item",
         LogItemDescription(ItemType.TIME),
         ["initial_state_config_list[0]: initial state cannot target TIME"]),
        ("initial-state-dangling-vehicle", "initial_state_config_list[0].item",
         LogItemDescription(ItemType.VEHICLE, 2, StateId.SPEED),
         ["initial_state_config_list[0]: dangling vehicle index 2 (have 2)"]),
        ("initial-state-dangling-pedestrian", "initial_state_config_list[0].item",
         LogItemDescription(ItemType.PEDESTRIAN, 1, StateId.SPEED),
         ["initial_state_config_list[0]: dangling pedestrian index 1 (have 1)"]),
        ("initial-state-pedestrian-orientation", "initial_state_config_list[0].item",
         LogItemDescription(ItemType.PEDESTRIAN, 0, StateId.ORIENTATION),
         ["initial_state_config_list[0]: "
          "initial state cannot target a pedestrian's ORIENTATION"]),
        ("log-dangling-vehicle", "data_log_description_list[1].item_index", 2,
         ["data_log_description_list[1]: dangling vehicle index 2 (have 2)"]),
        ("log-dangling-pedestrian", "data_log_description_list[1]",
         LogItemDescription(ItemType.PEDESTRIAN, 1, StateId.SPEED),
         ["data_log_description_list[1]: dangling pedestrian index 1 (have 1)"]),
        ("log-period", "data_log_period_ms", 0,
         ["data_log_period_ms: must be a positive integer"]),
    ]

    @staticmethod
    def violations_with(path, value):
        """The demo scene's violations once the field or list item at the
        document path holds value (a new last list item, one past the end)."""
        env = presets.demo_environment()
        *parents, last = re.findall(r"[A-Za-z_]+|\d+", path)
        owner = env
        for token in parents:
            owner = owner[int(token)] if token.isdigit() else getattr(owner, token)
        if not last.isdigit():
            setattr(owner, last, value)
        elif int(last) == len(owner):
            owner.append(value)
        else:
            owner[int(last)] = value
        return [str(v) for v in validate_environment(env)]

    @pytest.mark.parametrize("value", ["nan", "inf", "-1.0", "0.0"])
    @pytest.mark.parametrize("path", FLOAT_PATHS)
    def test_float_field_fault(self, path, value):
        expected = self.FLOAT_VIOLATIONS.get((path, value), [])
        assert self.violations_with(path, float(value)) == expected

    @pytest.mark.parametrize("path", SIGNED_PATHS)
    def test_negative_infinity_breaks_the_sign_rule_then_finiteness(self, path):
        assert self.violations_with(path, -math.inf) == self.FLOAT_VIOLATIONS[(path, "-inf")]

    @pytest.mark.parametrize(
        "path, value, expected", [case[1:] for case in STRUCTURAL_FAULTS],
        ids=[case[0] for case in STRUCTURAL_FAULTS],
    )
    def test_structural_fault(self, path, value, expected):
        assert self.violations_with(path, value) == expected


def schema_float_fields(cls) -> set:
    """(dataclass, field) of every float, Vec3 or list-of-floats field under
    the model class cls, found by walking the schema that scenario._spec reads."""
    found = set()
    for name, kind in scenario._spec(cls)[0].items():
        while get_origin(kind) in (list, Union):  # list[X] and Optional[X] hold X
            kind = get_args(kind)[0]
        if kind is float or kind is scenario.Vec3:
            found.add((cls, name))
        elif dataclasses.is_dataclass(kind):
            found |= schema_float_fields(kind)
    return found


class TestFloatRules:
    def test_every_float_field_of_the_schema_has_exactly_one_rule(self):
        assert schema_float_fields(SimEnvironment) == set(scenario.FLOAT_RULES)
        assert schema_float_fields(SimulationConfig) == set()

    def test_rules_are_finiteness_and_a_sign(self):
        assert set(scenario.FLOAT_RULES.values()) == {"finite", ">= 0", "> 0"}


class TestTemplateViolations:
    BINDINGS = [
        "environment.initial_state_config_list[0].value",
        "environment.ego_vehicles_list[0].current_position[0]",
        "environment.pedestrians_list[0].target_speed",
    ]

    def violations(self, env, config, bindings=BINDINGS):
        return [str(v) for v in scenario.template_violations(env, config, bindings)]

    def test_a_bound_number_is_exempt_from_its_float_rule(self):
        env, config = presets.demo_scenario()
        env.pedestrians_list[0].target_speed = -1.0
        env.ego_vehicles_list[0].current_position[0] = math.nan
        env.initial_state_config_list[0].value = math.inf
        assert len(validate_environment(env)) == 3
        assert self.violations(env, config) == []

    def test_an_unbound_number_of_a_bound_field_keeps_its_rule(self):
        env, config = presets.demo_scenario()
        env.ego_vehicles_list[0].current_position[2] = math.nan  # [0] is bound
        assert self.violations(env, config) == [
            "ego_vehicles_list[0].current_position: must be finite, got [1.0, 0.35, nan]"
        ]

    def test_unbound_float_fields_keep_their_rules(self):
        env, config = presets.demo_scenario()
        env.pedestrians_list[0].trajectory[0] = math.nan
        env.agent_vehicles_list[0].current_orientation = math.inf
        env.road_disturbances_list[0].width = 0.0
        assert self.violations(env, config) == [
            "agent_vehicles_list[0].current_orientation: must be finite, got [inf]",
            "pedestrians_list[0].trajectory: must be finite, "
            "got [nan, 0.0, 80.0, -3.0, 200.0, 0.0]",
            "road_disturbances_list[0]: width must be > 0",
        ]

    def test_structural_rules_of_a_bound_entity_hold(self):
        env, config = presets.demo_scenario()
        env.pedestrians_list[0].controller = "nope"
        env.ego_vehicles_list[0].current_position = [20.0, 0.35]
        assert self.violations(env, config) == [
            "pedestrians_list[0]: unknown pedestrian controller 'nope'",
            "ego_vehicles_list[0].current_position: expected 3 components, got 2",
        ]

    def test_run_rules_come_first(self):
        env, config = presets.demo_scenario()
        env.pedestrians_list[0].controller = "nope"
        env.data_log_period_ms = 0
        config.run_config_arr = []
        assert self.violations(env, config) == [
            "config.run_config_arr: must contain at least one entry",
            "data_log_period_ms: log period 0 ms is not a positive multiple of the step size "
            "10 ms",
            "pedestrians_list[0]: unknown pedestrian controller 'nope'",
            "data_log_period_ms: must be a positive integer",
        ]

    @pytest.mark.parametrize(
        "binding",
        ["environment.pedestrians_list[0]", "environment.pedestrians_list[0]..target_speed",
         "config.pedestrians_list[0].target_speed", "pedestrians_list[0].target_speed", None],
    )
    def test_a_path_that_names_no_float_field_exempts_nothing(self, binding):
        env, config = presets.demo_scenario()
        env.pedestrians_list[0].target_speed = -1.0
        assert self.violations(env, config, [binding]) == [
            "pedestrians_list[0]: target_speed must be >= 0"
        ]


class TestDemoDocuments:
    def test_demo_scene_is_the_committed_document(self, fixtures_dir):
        built = parse_scenario(serialize_scenario(*presets.demo_scenario()))
        assert built == scenario.load_scenario(os.path.join(fixtures_dir, "demo_scenario.json"))

    def test_collision_requirement_is_the_committed_document(self, fixtures_dir):
        from avtestbed import robustness

        built = robustness.requirement_from_json(presets.collision_requirement_json())
        path = os.path.join(fixtures_dir, "collision_requirement.json")
        assert built == robustness.load_requirement(path)


class TestValidateRun:
    def test_demo_scenario_runs(self):
        assert validate_run(*presets.demo_scenario()) == []

    def test_config_violations_come_first(self):
        env, config = presets.demo_scenario()
        config.sim_duration_ms = 15
        config.run_config_arr = []
        assert [v.path for v in validate_run(env, config)] == [
            "config.sim_duration_ms", "config.run_config_arr"
        ]

    def test_empty_run_config_arr_reported(self):
        env, config = presets.demo_scenario()
        config.run_config_arr = []
        report = validate_run(env, config)
        assert [(v.path, v.message) for v in report] == [
            ("config.run_config_arr", "must contain at least one entry")
        ]

    def test_log_columns_without_a_period_reported(self):
        env, config = presets.demo_scenario()
        env.data_log_period_ms = None
        report = validate_run(env, config)
        assert [(v.path, v.message) for v in report] == [
            ("data_log_period_ms", "must be set when log items are declared")
        ]

    @pytest.mark.parametrize("period", [15, 5, 0, -10])
    def test_period_off_the_step_grid_reported(self, period):
        env, config = presets.demo_scenario()
        env.data_log_period_ms = period
        report = validate_run(env, config)
        assert [(v.path, v.message) for v in report] == [
            ("data_log_period_ms",
             f"log period {period} ms is not a positive multiple of the step size 10 ms")
        ]

    def test_period_is_not_checked_against_a_step_that_is_itself_invalid(self):
        env, config = presets.demo_scenario()
        config.sim_step_size = 0
        assert [v.path for v in validate_run(env, config)] == ["config.sim_step_size"]

    def test_environment_without_log_columns_needs_no_period(self):
        env, config = parse_scenario('{"environment": {}, "config": {}}')
        assert validate_environment(env) == []
        assert [v.path for v in validate_run(env, config)] == ["config.run_config_arr"]
        config.run_config_arr = [RunConfig()]
        assert validate_run(env, config) == []


class TestTrajectoryFromJson:
    LABELS = [
        {"item_type": "TIME", "item_index": 0, "item_state_index": "POSITION_X"},
        {"item_type": "VEHICLE", "item_index": 0, "item_state_index": "SPEED"},
    ]

    def test_integer_and_float_cells_accepted(self):
        traj = trajectory_from_json({"column_labels": self.LABELS, "rows": [[0, 1.5], [10, 2]]})
        assert traj.rows.tolist() == [[0.0, 1.5], [10.0, 2.0]]

    @pytest.mark.parametrize(
        "cell, shown",
        [("1.5", '"1.5"'), (True, "true"), (None, "null"), ([1.0], "[1.0]"),
         (math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity"),
         (10 ** 400, str(10 ** 400))],
        ids=["string", "boolean", "null", "array", "nan", "inf", "minus-inf", "huge-integer"],
    )
    def test_cell_that_is_not_a_finite_number_rejected(self, cell, shown):
        data = {"column_labels": self.LABELS, "rows": [[0, 1.0], [10, cell], [20, "x"]]}
        with pytest.raises(ScenarioFormatError) as err:
            trajectory_from_json(data)
        assert str(err.value) == f"trajectory.rows[1][1]: expected a finite number, got {shown}"


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

    @pytest.mark.parametrize(
        "path",
        [
            "environment.ego_vehicles_list[0].current_position[1]",
            "environment.agent_vehicles_list[0].current_position[1]",
            "environment.pedestrians_list[0].current_position[1]",
            "environment.road_disturbances_list[0].position[1]",
        ],
    )
    def test_height_binding_rejected(self, path):
        env = presets.demo_environment()
        with pytest.raises(ValueError, match="names a height; the 2D kernel ignores it"):
            resolve_binding(env, path)


class TestIntKeyedObjects:
    def test_decimal_keys_read_back_as_ints(self):
        kind = dict[int, str]
        value = {0: "a", 7: "b", 12: "c"}
        raw = scenario.value_to_json(value, kind)
        assert raw == {"0": "a", "7": "b", "12": "c"}
        assert scenario.value_from_json(json.loads(json.dumps(raw)), kind, "m") == value

    @pytest.mark.parametrize("key", ["x", "01", "-1", "+1", " 1", "1.0", "1_0", "", "\u0661"])
    def test_other_key_rejected_with_its_path(self, key):
        with pytest.raises(scenario.ScenarioFormatError) as info:
            scenario.value_from_json({"3": "a", key: "b"}, dict[int, str], "m")
        assert info.value.path == f"m.{key}"
        assert "decimal integer key" in str(info.value)


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
