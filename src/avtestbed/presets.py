"""Ready-made demo scenario: an ego vehicle approaching a pedestrian who is
crossing a straight road while an oncoming agent changes into their lane.

The ego starts at x=20 m (configurable) holding lane center y=0 toward a
70 km/h target; a pedestrian starts at x=50 m and walks the road at 3 m/s,
drifting to y=-3 and back; the agent starts at x=300 m in the oncoming lane
(y=3.5) at 20 m/s and follows a path that cuts across to y=-3.5 between
x=145 and x=110.  Ego initial speed, ego start position, and pedestrian
speed are the classic search parameters over this scene.
"""

from __future__ import annotations

import math

from .scenario import (
    ControllerParameter,
    HeartbeatConfig,
    InitialStateConfig,
    ItemType,
    LogItemDescription,
    Pedestrian,
    RoadDisturbance,
    RunConfig,
    SimEnvironment,
    SimulationConfig,
    StateId,
    SyncType,
    Vehicle,
)

EGO_VHC_ID = 1
AGENT_VHC_ID = 2


def demo_environment(
    ego_init_speed_m_s: float = 10.0,
    ego_x_pos: float = 20.0,
    pedestrian_speed: float = 3.0,
    log_period_ms: int = 10,
    heartbeat: HeartbeatConfig | None = None,
) -> SimEnvironment:
    env = SimEnvironment()
    env.heart_beat_config = heartbeat if heartbeat is not None else HeartbeatConfig(
        sync_type=SyncType.NO_HEART_BEAT
    )

    ego = Vehicle()
    ego.vhc_id = EGO_VHC_ID
    ego.current_position = [ego_x_pos, 0.35, 0.0]
    ego.current_orientation = 0.0  # facing +x
    ego.controller = "automated_driving_with_fusion2"
    ego.controller_arguments = ["Toyota", "70.0", "0.0", "1", "True", "False", "0"]
    env.ego_vehicles_list.append(ego)

    agent = Vehicle()
    agent.vhc_id = AGENT_VHC_ID
    agent.current_position = [300.0, 0.35, 3.5]
    agent.current_orientation = math.pi  # facing -x, toward the ego
    agent.controller = "path_and_speed_follower"
    agent.controller_arguments = ["20.0", "True", "3.5", "2", "False", "False"]
    env.agent_vehicles_list.append(agent)

    pedestrian = Pedestrian()
    pedestrian.ped_id = 1
    pedestrian.current_position = [50.0, 1.3, 0.0]
    pedestrian.target_speed = pedestrian_speed
    pedestrian.trajectory = [50.0, 0.0, 80.0, -3.0, 200.0, 0.0]
    pedestrian.controller = "pedestrian_control"
    env.pedestrians_list.append(pedestrian)

    disturbance = RoadDisturbance()
    disturbance.position = [40.0, 0.0, 0.0]
    disturbance.width = 3.5
    disturbance.length = 3.0
    disturbance.height = 0.04
    disturbance.inter_object_spacing = 0.5
    env.road_disturbances_list.append(disturbance)

    for x, y in [(-1000.0, 0.0), (1000.0, 0.0)]:
        env.control_params_list.append(
            ControllerParameter(
                vehicle_id=EGO_VHC_ID, parameter_name="target_position", parameter_data=[x, y]
            )
        )
    for x, y in [(1000.0, 3.5), (145.0, 3.5), (110.0, -3.5), (-1000.0, -3.5)]:
        env.control_params_list.append(
            ControllerParameter(
                vehicle_id=AGENT_VHC_ID, parameter_name="target_position", parameter_data=[x, y]
            )
        )

    env.initial_state_config_list.append(
        InitialStateConfig(
            item=LogItemDescription(ItemType.VEHICLE, 0, StateId.VELOCITY_X),
            value=ego_init_speed_m_s,
        )
    )

    env.data_log_description_list.append(LogItemDescription(ItemType.TIME, 0, StateId.POSITION_X))
    for vhc_index in range(2):
        for state in (StateId.POSITION_X, StateId.POSITION_Y, StateId.ORIENTATION, StateId.SPEED):
            env.data_log_description_list.append(
                LogItemDescription(ItemType.VEHICLE, vhc_index, state)
            )
    env.data_log_description_list.append(
        LogItemDescription(ItemType.PEDESTRIAN, 0, StateId.POSITION_X)
    )
    env.data_log_description_list.append(
        LogItemDescription(ItemType.PEDESTRIAN, 0, StateId.POSITION_Y)
    )
    env.data_log_period_ms = log_period_ms
    return env


def demo_config(sim_duration_ms: int = 15000, server_port: int = 10021) -> SimulationConfig:
    config = SimulationConfig()
    config.server_port = server_port
    config.sim_duration_ms = sim_duration_ms
    config.sim_step_size = 10
    config.run_config_arr.append(RunConfig())
    return config


def demo_scenario(
    ego_init_speed_m_s: float = 10.0,
    ego_x_pos: float = 20.0,
    pedestrian_speed: float = 3.0,
    sim_duration_ms: int = 15000,
) -> tuple[SimEnvironment, SimulationConfig]:
    return (
        demo_environment(ego_init_speed_m_s, ego_x_pos, pedestrian_speed),
        demo_config(sim_duration_ms),
    )


def collision_requirement_json() -> dict:
    """The no-collision requirement over the demo log layout: never let the
    agent sit 0..8 m ahead of the ego within 1.5 m laterally."""
    return {
        "formula": "[](!(y_check1 /\\ y_check2 /\\ x_check1 /\\ x_check2))",
        "predicates": [
            {
                "name": "y_check1",
                "a": {"vehicle1_position_y": 1.0, "vehicle0_position_y": -1.0},
                "b": 1.5,
            },
            {
                "name": "y_check2",
                "a": {"vehicle1_position_y": -1.0, "vehicle0_position_y": 1.0},
                "b": 1.5,
            },
            {
                "name": "x_check1",
                "a": {"vehicle1_position_x": 1.0, "vehicle0_position_x": -1.0},
                "b": 8.0,
            },
            {
                "name": "x_check2",
                "a": {"vehicle1_position_x": -1.0, "vehicle0_position_x": 1.0},
                "b": 0.0,
            },
        ],
    }
