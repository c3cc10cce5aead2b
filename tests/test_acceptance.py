"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import itertools
import json
import math
import os
import random
import time

import numpy as np

from avtestbed import covering, falsify as fz, presets, robustness as rb, scenario, supervisor, wire

from oracles import (
    naive_robustness,
    point_polyline_distance,
    random_config,
    random_environment,
    random_formula,
    random_message,
    random_predicates,
    random_trace,
    rects_overlap_oracle,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

DEMO_PARAMS = [
    covering.ParamSpec("ego_init_speed", ["0", "5", "10", "15"]),
    covering.ParamSpec("ego_x_position", ["15", "20", "25"]),
    covering.ParamSpec("pedestrian_speed", ["2", "3", "4", "5"]),
]


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {verdict}{suffix}")
    assert passed, f"criterion {number} {name} failed{suffix}"


def test_criterion_1_test_csv_fidelity():
    start = time.monotonic()
    table = covering.load_experiment_data(
        os.path.join(FIXTURES, "ca_2way.csv"), header_line_count=6
    )
    shape_ok = (
        len(table.rows) == 16
        and table.parameter_names == ["ego_init_speed", "ego_x_position", "pedestrian_speed"]
        and table.rows[0] == ["0", "20", "2"]
        and table.rows[-1] == ["15", "15", "5"]
    )
    uncovered = covering.verify_coverage(table, DEMO_PARAMS, 2)
    sizes = [len(p.values) for p in DEMO_PARAMS]
    n_pairs = sum(sizes[i] * sizes[j] for i, j in itertools.combinations(range(3), 2))
    elapsed = time.monotonic() - start
    report(
        1,
        "test-csv-fidelity",
        shape_ok and uncovered == [] and n_pairs == 40 and elapsed < 1.0,
        f"16x3 exact, {n_pairs - len(uncovered)}/{n_pairs} pairs, {elapsed:.2f}s",
    )


def test_criterion_2_generator_soundness():
    start = time.monotonic()
    rng = random.Random(20260809)
    failures = 0
    for trial in range(50):
        k = rng.randint(2, 6)
        params = [
            covering.ParamSpec(f"p{i}", [str(v) for v in range(rng.randint(2, 5))])
            for i in range(k)
        ]
        strength = min(rng.choice([2, 3]), k)
        table = covering.generate_covering_array(params, strength, seed=trial)
        if covering.verify_coverage(table, params, strength):
            failures += 1
    demo_table = covering.generate_covering_array(DEMO_PARAMS, 2, seed=0)
    demo_rows = len(demo_table.rows)
    demo_ok = (
        covering.verify_coverage(demo_table, DEMO_PARAMS, 2) == [] and 16 <= demo_rows <= 24
    )
    elapsed = time.monotonic() - start
    report(
        2,
        "generator-soundness",
        failures == 0 and demo_ok and elapsed < 30.0,
        f"50/50 randomized systems covered, demo rows={demo_rows}, {elapsed:.1f}s",
    )


def test_criterion_3_robustness_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(4242)
    mismatches = 0
    for _ in range(500):
        dims = rng.randint(1, 4)
        trace = random_trace(rng, max_samples=20, dims=dims)
        preds = random_predicates(rng, rng.randint(1, 4), dims)
        formula = random_formula(rng, [p.name for p in preds], depth=rng.randint(0, 4))
        got = rb.robustness(formula, preds, trace)
        want = naive_robustness(formula, preds, trace)
        if not (got == want or abs(got - want) <= 1e-12):
            mismatches += 1

    # hand-derived single sample: margins 0.5, 2.5, 6.0, 2.0 -> -min = -0.5
    req = rb.requirement_from_json(presets.collision_requirement_json())
    names = scenario.column_names(presets.demo_environment().data_log_description_list)
    preds = req.resolve(names[1:])
    state = np.zeros((1, 10))
    state[0, 0], state[0, 1] = 10.0, 0.0  # ego x, y
    state[0, 4], state[0, 5] = 12.0, 1.0  # agent x, y
    trace = rb.Trace(times=np.array([0.0]), states=state)
    hand = rb.robustness(req.formula(), preds, trace)
    hand_ok = abs(hand - (-0.5)) <= 1e-12
    elapsed = time.monotonic() - start
    report(
        3,
        "robustness-oracle-equivalence",
        mismatches == 0 and hand_ok and elapsed < 10.0,
        f"500/500 dp==naive, single-sample={hand:.6f}, {elapsed:.1f}s",
    )


def test_criterion_4_demo_scenario_reproduction():
    env, config = presets.demo_scenario()
    assert env.ego_vehicles_list[0].current_position[0] == 20.0
    assert env.ego_vehicles_list[0].controller_arguments[1] == "70.0"
    assert env.agent_vehicles_list[0].current_position[0] == 300.0
    assert env.agent_vehicles_list[0].controller_arguments[0] == "20.0"
    assert env.pedestrians_list[0].current_position[0] == 50.0
    assert env.pedestrians_list[0].target_speed == 3.0
    assert env.pedestrians_list[0].trajectory == [50.0, 0.0, 80.0, -3.0, 200.0, 0.0]
    assert config.sim_duration_ms == 15000 and env.data_log_period_ms == 10

    start = time.monotonic()
    first = supervisor.run_embedded(env, config).trajectory
    first_elapsed = time.monotonic() - start
    second = supervisor.run_embedded(env, config).trajectory
    shape_ok = first.rows.shape == (1501, 11)
    identical = (first == second) and (
        supervisor.trajectory_to_csv(first) == supervisor.trajectory_to_csv(second)
    )

    server = supervisor.SupervisorServer(host="127.0.0.1", port=0)
    server.start()
    try:
        over_socket = wire.client_session(("127.0.0.1", server.port), env, config)
    finally:
        server.stop()
    socket_ok = over_socket == first

    report(
        4,
        "demo-scenario-reproduction",
        shape_ok and identical and socket_ok and first_elapsed < 5.0,
        f"rows={first.rows.shape}, run={first_elapsed:.2f}s, socket==embedded={socket_ok}",
    )


def test_criterion_5_falsification_sanity():
    # (a) synthetic objective rob(x) = x1 - 5 over [0,15]^3
    space = fz.SearchSpace(
        [fz.SearchDim("x1", 0.0, 15.0), fz.SearchDim("x2", 0.0, 15.0),
         fz.SearchDim("x3", 0.0, 15.0)]
    )
    preds = [rb.LinearPredicate("p", np.array([-1.0, 0.0, 0.0]), -5.0)]

    def synthetic(sample):
        return rb.Trace(times=np.array([0.0]), states=np.array([list(sample)]))

    synthetic_hits = 0
    for seed in range(10):
        result = fz.falsify(
            synthetic, rb.Atom("p"), preds, space, fz.FalsifyConfig(n_tests=100, seed=seed)
        )
        synthetic_hits += result.falsified
    part_a = synthetic_hits >= 9

    # (b) demo study over the scenario box
    study = fz.load_study(os.path.join(FIXTURES, "demo_study.json"))
    assert study.config.n_tests == 100
    system, formula, predicates = fz.make_study_system(study)

    grid_start = time.monotonic()
    grid_min, grid_argmin = fz.grid_oracle(system, formula, predicates, study.space, [5, 5, 4])
    grid_elapsed = time.monotonic() - grid_start
    with open(os.path.join(FIXTURES, "grid_reference.json")) as fh:
        pinned = json.load(fh)
    pin_ok = abs(grid_min - pinned["min_robustness"]) <= 1e-9

    study_hits = 0
    best_across_seeds = math.inf
    for seed in range(10):
        config = fz.FalsifyConfig(**{**fz.asdict(study.config), "seed": seed})
        result = fz.falsify(system, formula, predicates, study.space, config)
        study_hits += result.falsified
        best_across_seeds = min(best_across_seeds, result.best_robustness)
    if grid_min < 0:
        part_b = study_hits >= 8
        detail_b = f"grid_min={grid_min:.4f}<0, SA falsified {study_hits}/10 seeds"
    else:
        part_b = best_across_seeds <= 1.1 * grid_min + 0.5
        detail_b = f"grid_min={grid_min:.4f}, SA best={best_across_seeds:.4f}"

    report(
        5,
        "falsification-sanity",
        part_a and part_b and pin_ok and grid_elapsed < 600.0,
        f"synthetic {synthetic_hits}/10; {detail_b}; grid {grid_elapsed:.0f}s, pinned ok={pin_ok}",
    )


def test_criterion_6_protocol_correctness():
    start = time.monotonic()
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(1000):
        msg = random_message(rng)
        if wire.decode_message(wire.encode_message(msg)) != msg:
            mismatches += 1

    env, config = presets.demo_scenario()
    env.heart_beat_config = scenario.HeartbeatConfig(
        sync_type=scenario.SyncType.WITH_SYNC, period_ms=10
    )
    config.sim_duration_ms = 100
    server = supervisor.SupervisorServer(host="127.0.0.1", port=0)
    server.start()
    try:
        sync_beats = []
        wire.client_session(
            ("127.0.0.1", server.port), env, config, on_heartbeat=sync_beats.append
        )
        env.heart_beat_config = scenario.HeartbeatConfig(
            sync_type=scenario.SyncType.NO_HEART_BEAT
        )
        silent_beats = []
        wire.client_session(
            ("127.0.0.1", server.port), env, config, on_heartbeat=silent_beats.append
        )
    finally:
        server.stop()
    elapsed = time.monotonic() - start
    report(
        6,
        "protocol-correctness",
        mismatches == 0 and len(sync_beats) == 10 and silent_beats == [] and elapsed < 5.0,
        f"1000/1000 round-trips, {len(sync_beats)} sync beats, "
        f"{len(silent_beats)} silent beats, {elapsed:.1f}s",
    )


def test_criterion_7_kinematics_invariants():
    start = time.monotonic()

    # zero-input coasting over 1e4 steps
    env = scenario.SimEnvironment(ego_vehicles_list=[scenario.Vehicle(vhc_id=1)])
    config = scenario.SimulationConfig(
        sim_duration_ms=100000, sim_step_size=10, run_config_arr=[scenario.RunConfig()]
    )
    world = supervisor.build_world(env)
    world.vehicles[0].speed = 12.5
    world.vehicles[0].heading = 0.61
    for _ in range(10_000):
        supervisor.step(world, 10)
    coast_ok = (
        abs(world.vehicles[0].speed - 12.5) <= 1e-9
        and abs(world.vehicles[0].heading - 0.61) <= 1e-9
    )

    # pedestrian polyline adherence over the demo walk
    demo_env, demo_config = presets.demo_scenario()
    walk_world = supervisor.build_world(demo_env)
    waypoints = [(50.0, 0.0), (80.0, -3.0), (200.0, 0.0)]
    dt = demo_config.sim_step_size / 1000.0
    bound = 3.0 * dt + 1e-12
    adherence_ok = True

    for _ in range(1500):
        supervisor.step(walk_world, demo_config.sim_step_size)
        ped = walk_world.pedestrians[0]
        if point_polyline_distance(ped.x, ped.y, waypoints) > bound:
            adherence_ok = False
            break

    # collision detector against the vertex/edge oracle
    rng = random.Random(41)
    collision_disagreements = 0
    for _ in range(1000):
        rect_a = (rng.uniform(-6, 6), rng.uniform(-6, 6),
                  rng.uniform(-math.pi, math.pi), rng.uniform(1, 6), rng.uniform(0.5, 3))
        rect_b = (rng.uniform(-6, 6), rng.uniform(-6, 6),
                  rng.uniform(-math.pi, math.pi), rng.uniform(1, 6), rng.uniform(0.5, 3))
        from avtestbed.geometry import rect_rect_penetration

        if (rect_rect_penetration(rect_a, rect_b) is not None) != rects_overlap_oracle(
            rect_a, rect_b
        ):
            collision_disagreements += 1

    elapsed = time.monotonic() - start
    report(
        7,
        "kinematics-invariants",
        coast_ok and adherence_ok and collision_disagreements == 0 and elapsed < 10.0,
        f"coast drift<=1e-9, walk adherent, 1000/1000 collision agreement, {elapsed:.1f}s",
    )


def test_criterion_8_persistence_round_trips(tmp_path):
    start = time.monotonic()
    rng = random.Random(808)

    scenario_ok = True
    for _ in range(25):
        env, config = random_environment(rng), random_config(rng)
        text = scenario.serialize_scenario(env, config)
        env2, config2 = scenario.parse_scenario(text)
        if env2 != env or config2 != config:
            scenario_ok = False

    req = rb.requirement_from_json(presets.collision_requirement_json())
    req_path = str(tmp_path / "req.json")
    rb.save_requirement(req, req_path)
    requirement_ok = rb.load_requirement(req_path) == req

    study_src = os.path.join(FIXTURES, "demo_study.json")
    study = fz.load_study(study_src)
    study_ok = (
        [d.name for d in study.space.dims]
        == ["ego_init_speed", "ego_x_position", "pedestrian_speed"]
        and study.config.n_tests == 100
    )

    results_ok = True
    space = fz.SearchSpace([fz.SearchDim("x1", 0.0, 15.0)])
    preds = [rb.LinearPredicate("p", np.array([-1.0]), -5.0)]

    def system(sample):
        return rb.Trace(times=np.array([0.0]), states=np.array([list(sample)]))

    for seed in range(5):
        result = fz.falsify(
            system, rb.Atom("p"), preds, space,
            fz.FalsifyConfig(n_tests=rng.randint(1, 30), seed=seed,
                             falsification_mode=bool(seed % 2)),
        )
        path = str(tmp_path / f"res{seed}.json")
        fz.save_results(result, path)
        if fz.load_results(path) != result:
            results_ok = False

    elapsed = time.monotonic() - start
    report(
        8,
        "persistence-round-trips",
        scenario_ok and requirement_ok and study_ok and results_ok and elapsed < 5.0,
        f"scenario+requirement+study+results all round-trip, {elapsed:.1f}s",
    )
