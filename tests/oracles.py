"""Independent oracles and random-instance generators for the test suite.

Everything here is deliberately written from the definitions, without reusing
the library's dynamic-programming, SAT, or generator code paths, so tests can
compare two unrelated implementations.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Optional

from avtestbed import controllers as ctl
from avtestbed import covering, geometry
from avtestbed import robustness as rb
from avtestbed import scenario as sc
from avtestbed import supervisor as sv
from avtestbed import wire

import numpy as np


# --------------------------------------------------------------------------
# Naive MTL robustness (direct recursion over the definitions)


def naive_robustness(formula, predicates, trace, i: int = 0) -> float:
    pred_map = {p.name: p for p in predicates}
    return _naive(formula, pred_map, trace.times, trace.states, i)


def _in_window(times, i: int, j: int, interval) -> bool:
    if interval is None:
        return j >= i
    return interval.lo <= times[j] - times[i] <= interval.hi


def _naive(f, preds, times, states, i: int) -> float:
    n = len(times)
    if isinstance(f, rb.Atom):
        pred = preds[f.name]
        total = 0.0
        for a_j, x_j in zip(pred.a, states[i]):
            total += float(a_j) * float(x_j)
        return pred.b - total
    if isinstance(f, rb.Not):
        return -_naive(f.operand, preds, times, states, i)
    if isinstance(f, rb.And):
        return min(_naive(f.left, preds, times, states, i), _naive(f.right, preds, times, states, i))
    if isinstance(f, rb.Or):
        return max(_naive(f.left, preds, times, states, i), _naive(f.right, preds, times, states, i))
    if isinstance(f, rb.Implies):
        return max(-_naive(f.left, preds, times, states, i), _naive(f.right, preds, times, states, i))
    if isinstance(f, rb.Always):
        value = math.inf
        for j in range(i, n):
            if _in_window(times, i, j, f.interval):
                value = min(value, _naive(f.operand, preds, times, states, j))
        return value
    if isinstance(f, rb.Eventually):
        value = -math.inf
        for j in range(i, n):
            if _in_window(times, i, j, f.interval):
                value = max(value, _naive(f.operand, preds, times, states, j))
        return value
    if isinstance(f, rb.Until):
        value = -math.inf
        for j in range(i, n):
            if _in_window(times, i, j, f.interval):
                guard = math.inf
                for k in range(i, j):
                    guard = min(guard, _naive(f.left, preds, times, states, k))
                value = max(value, min(_naive(f.right, preds, times, states, j), guard))
        return value
    raise TypeError(f"not a formula: {f!r}")


def naive_boolean(f, predicates, trace, i: int = 0) -> bool:
    """Boolean discrete-time MTL semantics with atoms A.x <= b."""
    pred_map = {p.name: p for p in predicates}
    return _naive_bool(f, pred_map, trace.times, trace.states, i)


def _naive_bool(f, preds, times, states, i: int) -> bool:
    n = len(times)
    if isinstance(f, rb.Atom):
        pred = preds[f.name]
        return float(np.dot(pred.a, states[i])) <= pred.b
    if isinstance(f, rb.Not):
        return not _naive_bool(f.operand, preds, times, states, i)
    if isinstance(f, rb.And):
        return _naive_bool(f.left, preds, times, states, i) and _naive_bool(
            f.right, preds, times, states, i
        )
    if isinstance(f, rb.Or):
        return _naive_bool(f.left, preds, times, states, i) or _naive_bool(
            f.right, preds, times, states, i
        )
    if isinstance(f, rb.Implies):
        return (not _naive_bool(f.left, preds, times, states, i)) or _naive_bool(
            f.right, preds, times, states, i
        )
    if isinstance(f, rb.Always):
        return all(
            _naive_bool(f.operand, preds, times, states, j)
            for j in range(i, n)
            if _in_window(times, i, j, f.interval)
        )
    if isinstance(f, rb.Eventually):
        return any(
            _naive_bool(f.operand, preds, times, states, j)
            for j in range(i, n)
            if _in_window(times, i, j, f.interval)
        )
    if isinstance(f, rb.Until):
        for j in range(i, n):
            if _in_window(times, i, j, f.interval) and _naive_bool(
                f.right, preds, times, states, j
            ):
                if all(_naive_bool(f.left, preds, times, states, k) for k in range(i, j)):
                    return True
        return False
    raise TypeError(f"not a formula: {f!r}")


# --------------------------------------------------------------------------
# Reference greedy covering-array generator (set-based bookkeeping)


def reference_covering_array(
    params: list[covering.ParamSpec], strength: int, seed: int = 0
) -> covering.TestTable:
    """Greedy strength-t covering array: repeatedly keep the best of 50
    candidate rows by newly covered t-tuples, with a seeded tie-break."""
    k = len(params)
    if not 1 <= strength <= k:
        raise ValueError(f"strength {strength} out of range [1, {k}]")
    rng = random.Random(seed)

    combos = list(itertools.combinations(range(k), strength))
    uncovered: set[tuple] = set()
    for combo in combos:
        for values in itertools.product(*(params[i].values for i in combo)):
            uncovered.add((combo, values))

    rows: list[list[str]] = []
    while uncovered:
        best_row: Optional[list[str]] = None
        best_gain = -1
        for _ in range(covering.CANDIDATES_PER_ROW):
            candidate = _build_candidate(params, combos, uncovered, rng)
            gain = _coverage_gain(candidate, combos, uncovered)
            if gain > best_gain:
                best_row, best_gain = candidate, gain
        rows.append(best_row)
        for combo in combos:
            uncovered.discard((combo, tuple(best_row[i] for i in combo)))

    return covering.TestTable(parameter_names=[p.name for p in params], rows=rows)


def naive_uncovered_tuples(
    table: covering.TestTable, params: list[covering.ParamSpec], strength: int
) -> list[tuple]:
    """Every (names, values) t-tuple that no row covers, found by expanding
    each row, "*" cells to every value, into all the rows it stands for."""
    cols = [table.parameter_names.index(p.name) for p in params]
    concrete: set[tuple] = set()
    for row in table.rows:
        domains = [p.values if row[c] == "*" else [row[c]] for p, c in zip(params, cols)]
        concrete.update(itertools.product(*domains))
    uncovered = []
    for combo in itertools.combinations(range(len(params)), strength):
        covered = {tuple(r[i] for i in combo) for r in concrete}
        for values in itertools.product(*(params[i].values for i in combo)):
            if values not in covered:
                uncovered.append((tuple(params[i].name for i in combo), values))
    return uncovered


def _coverage_gain(row: list[str], combos, uncovered: set) -> int:
    return sum(1 for combo in combos if (combo, tuple(row[i] for i in combo)) in uncovered)


def _build_candidate(
    params: list[covering.ParamSpec], combos, uncovered: set, rng: random.Random
) -> list[str]:
    """AETG-style candidate: seed with the value appearing in the most
    uncovered tuples, then fill the other parameters greedily in random order."""
    k = len(params)

    # frequency of each (param, value) among uncovered tuples
    counts: dict[tuple[int, str], int] = {
        (i, v): 0 for i in range(k) for v in params[i].values
    }
    for combo, values in uncovered:
        for i, v in zip(combo, values):
            counts[(i, v)] += 1
    best_count = max(counts.values())
    top = [key for key in counts if counts[key] == best_count]
    seed_param, seed_value = top[rng.randrange(len(top))] if len(top) > 1 else top[0]

    row: list[Optional[str]] = [None] * k
    row[seed_param] = seed_value
    order = [i for i in range(k) if i != seed_param]
    rng.shuffle(order)

    for i in order:
        best_values: list[str] = []
        best_gain = -1
        for v in params[i].values:
            row[i] = v
            gain = sum(
                1
                for combo in combos
                if i in combo
                and all(row[j] is not None for j in combo)
                and (combo, tuple(row[j] for j in combo)) in uncovered
            )
            if gain > best_gain:
                best_gain, best_values = gain, [v]
            elif gain == best_gain:
                best_values.append(v)
        row[i] = best_values[rng.randrange(len(best_values))] if len(best_values) > 1 else best_values[0]
    return row  # type: ignore[return-value]


# --------------------------------------------------------------------------
# Random MTL instances


def random_trace(rng: random.Random, max_samples: int = 20, dims: int = 4):
    n = rng.randint(1, max_samples)
    dt = rng.choice([0.01, 0.1, 0.5])
    times = [round(i * dt, 10) for i in range(n)]
    states = [[rng.uniform(-10, 10) for _ in range(dims)] for _ in range(n)]
    return rb.Trace(times=np.array(times), states=np.array(states))


def random_predicates(rng: random.Random, count: int, dims: int):
    preds = []
    for k in range(count):
        a = [rng.uniform(-2, 2) for _ in range(dims)]
        preds.append(rb.LinearPredicate(f"p{k}", np.array(a), rng.uniform(-5, 5)))
    return preds


def random_formula(rng: random.Random, atom_names: list[str], depth: int):
    if depth <= 0 or rng.random() < 0.25:
        return rb.Atom(rng.choice(atom_names))
    choice = rng.randrange(8)
    if choice == 0:
        return rb.Not(random_formula(rng, atom_names, depth - 1))
    if choice == 1:
        return rb.And(
            random_formula(rng, atom_names, depth - 1), random_formula(rng, atom_names, depth - 1)
        )
    if choice == 2:
        return rb.Or(
            random_formula(rng, atom_names, depth - 1), random_formula(rng, atom_names, depth - 1)
        )
    if choice == 3:
        return rb.Implies(
            random_formula(rng, atom_names, depth - 1), random_formula(rng, atom_names, depth - 1)
        )
    interval = _random_interval(rng)
    if choice == 4:
        return rb.Always(random_formula(rng, atom_names, depth - 1), interval)
    if choice == 5:
        return rb.Eventually(random_formula(rng, atom_names, depth - 1), interval)
    return rb.Until(
        random_formula(rng, atom_names, depth - 1),
        random_formula(rng, atom_names, depth - 1),
        interval,
    )


def _random_interval(rng: random.Random):
    if rng.random() < 0.5:
        return None
    lo = rng.choice([0.0, 0.05, 0.1, 0.25])
    hi = lo + rng.choice([0.0, 0.05, 0.2, 1.0, math.inf])
    return rb.Interval(lo, hi)


# --------------------------------------------------------------------------
# Rectangle overlap oracle (vertex containment + proper edge crossings)


def _corners(rect):
    cx, cy, heading, length, width = rect
    ch, sh = math.cos(heading), math.sin(heading)
    hl, hw = length / 2.0, width / 2.0
    return [
        (cx + ch * hl - sh * hw, cy + sh * hl + ch * hw),
        (cx - ch * hl - sh * hw, cy - sh * hl + ch * hw),
        (cx - ch * hl + sh * hw, cy - sh * hl - ch * hw),
        (cx + ch * hl + sh * hw, cy + sh * hl - ch * hw),
    ]


def _point_strictly_inside(rect, px: float, py: float) -> bool:
    cx, cy, heading, length, width = rect
    ch, sh = math.cos(heading), math.sin(heading)
    dx, dy = px - cx, py - cy
    lx = dx * ch + dy * sh
    ly = -dx * sh + dy * ch
    return abs(lx) < length / 2.0 and abs(ly) < width / 2.0


def _segments_properly_cross(p1, p2, q1, q2) -> bool:
    def orient(a, b, c) -> float:
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(q1, q2, p1), orient(q1, q2, p2)
    d3, d4 = orient(p1, p2, q1), orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and (d1 != 0 and d2 != 0) and (
        (d3 > 0) != (d4 > 0)
    ) and (d3 != 0 and d4 != 0)


def rects_overlap_oracle(rect_a, rect_b) -> bool:
    """Overlap by vertex containment or proper edge intersection."""
    corners_a, corners_b = _corners(rect_a), _corners(rect_b)
    if any(_point_strictly_inside(rect_b, x, y) for x, y in corners_a):
        return True
    if any(_point_strictly_inside(rect_a, x, y) for x, y in corners_b):
        return True
    edges_a = [(corners_a[i], corners_a[(i + 1) % 4]) for i in range(4)]
    edges_b = [(corners_b[i], corners_b[(i + 1) % 4]) for i in range(4)]
    return any(
        _segments_properly_cross(p1, p2, q1, q2) for p1, p2 in edges_a for q1, q2 in edges_b
    )


# --------------------------------------------------------------------------
# Point-to-polyline distance (pedestrian path adherence)


def _point_segment_distance(px: float, py: float, ax: float, ay: float, bx: float, by: float) -> float:
    """Distance from a point to the segment a-b."""
    vx, vy = bx - ax, by - ay
    seg_len_sq = vx * vx + vy * vy
    if seg_len_sq == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * vx + (py - ay) * vy) / seg_len_sq
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (ax + t * vx), py - (ay + t * vy))


def point_polyline_distance(px: float, py: float, points: list[tuple[float, float]]) -> float:
    """Distance from a point to a polyline (inf for an empty polyline)."""
    if not points:
        return math.inf
    if len(points) == 1:
        return math.hypot(px - points[0][0], py - points[0][1])
    return min(
        _point_segment_distance(px, py, *points[i], *points[i + 1])
        for i in range(len(points) - 1)
    )


# --------------------------------------------------------------------------
# Random wire messages and scenario pieces


def random_environment(rng: random.Random) -> sc.SimEnvironment:
    env = sc.SimEnvironment()
    for i in range(rng.randint(0, 2)):
        vhc = sc.Vehicle(vhc_id=i)
        vhc.current_position = [rng.uniform(-100, 100), 0.3, rng.uniform(-5, 5)]
        vhc.current_orientation = rng.uniform(-math.pi, math.pi)
        vhc.controller = rng.choice(["void", "path_and_speed_follower"])
        if vhc.controller == "path_and_speed_follower":
            vhc.controller_arguments = [str(rng.uniform(1, 30))]
        (env.ego_vehicles_list if i == 0 else env.agent_vehicles_list).append(vhc)
    for i in range(rng.randint(0, 2)):
        ped = sc.Pedestrian(ped_id=i, target_speed=rng.uniform(0, 4))
        ped.trajectory = [rng.uniform(0, 50) for _ in range(2 * rng.randint(0, 3))]
        ped.controller = "pedestrian_control"
        env.pedestrians_list.append(ped)
    if rng.random() < 0.5:
        env.heart_beat_config = sc.HeartbeatConfig(
            sync_type=rng.choice(list(sc.SyncType)), period_ms=rng.randint(1, 100)
        )
    if rng.random() < 0.4:
        env.control_params_list.append(
            sc.ControllerParameter(
                vehicle_id=rng.choice([None, 0, 1]),
                parameter_name="target_position",
                parameter_data=[rng.uniform(-100, 100), rng.uniform(-5, 5)],
            )
        )
    if env.all_vehicles():
        env.data_log_description_list = [
            sc.LogItemDescription(sc.ItemType.TIME, 0, sc.StateId.POSITION_X),
            sc.LogItemDescription(sc.ItemType.VEHICLE, 0, sc.StateId.POSITION_X),
        ]
        env.data_log_period_ms = rng.choice([10, 20, 50])
    return env


def random_kernel_scene(rng: random.Random) -> tuple[sc.SimEnvironment, sc.SimulationConfig]:
    """A short scene that exercises every part of the kernel.

    It logs every state of every vehicle and pedestrian, mixes the three
    vehicle controllers (the fusion driver senses with the radar), lays bump
    regions around the vehicles, and sets initial states, among them a -0.0
    y position.  Most entities start within a few metres of the first
    vehicle, so that the contact tests run near touching.
    """
    env = sc.SimEnvironment()
    base_x, base_y = rng.uniform(-50.0, 50.0), rng.uniform(-5.0, 5.0)
    base_heading = rng.uniform(-math.pi, math.pi)

    def near(lo: float, hi: float) -> tuple[float, float]:
        bearing = rng.uniform(-math.pi, math.pi)
        dist = rng.uniform(lo, hi)
        return base_x + dist * math.cos(bearing), base_y + dist * math.sin(bearing)

    ids = rng.sample(range(1, 20), rng.randint(1, 3))
    for i, vhc_id in enumerate(ids):
        vhc = sc.Vehicle(vhc_id=vhc_id)
        if i == 0:
            x, y = base_x, base_y
        elif rng.random() < 0.7:
            x, y = near(3.5, 7.0)
        else:
            x, y = base_x + rng.uniform(-60.0, 60.0), base_y + rng.uniform(-10.0, 10.0)
        vhc.current_position = [x, 0.3, -0.0 if rng.random() < 0.2 else y]
        if rng.random() < 0.5:
            vhc.current_orientation = base_heading + rng.uniform(-0.5, 0.5)
        else:
            vhc.current_orientation = rng.uniform(-math.pi, math.pi)
        vhc.controller = rng.choice(
            ["void", "path_and_speed_follower", "automated_driving_with_fusion2"]
        )
        if vhc.controller == "path_and_speed_follower":
            vhc.controller_arguments = [repr(rng.uniform(0.0, 15.0))]
        elif vhc.controller == "automated_driving_with_fusion2":
            vhc.controller_arguments = [
                "car", repr(rng.uniform(0.0, 60.0)), repr(rng.uniform(-4.0, 4.0))
            ] + ([str(vhc_id)] if rng.random() < 0.5 else [])
        (env.ego_vehicles_list if i == 0 else env.agent_vehicles_list).append(vhc)

    for i in range(rng.randint(0, 2)):
        ped = sc.Pedestrian(ped_id=i, target_speed=rng.uniform(0.0, 3.0))
        x, y = near(1.5, 4.0) if rng.random() < 0.7 else near(4.0, 40.0)
        ped.current_position = [x, 1.3, y]
        for _ in range(rng.randint(0, 3)):
            ped.trajectory += list(near(0.0, 10.0))
        ped.controller = rng.choice(["void", "pedestrian_control", "pedestrian_control"])
        env.pedestrians_list.append(ped)

    for _ in range(rng.randint(0, 2)):
        env.road_disturbances_list.append(
            sc.RoadDisturbance(
                position=[base_x + rng.uniform(-10.0, 5.0), 0.0, base_y + rng.uniform(-2.0, 2.0)],
                length=rng.uniform(2.0, 20.0),
                width=rng.uniform(1.0, 6.0),
                height=rng.uniform(0.01, 0.1),
                inter_object_spacing=rng.uniform(0.3, 2.0),
            )
        )

    if rng.random() < 0.5:
        vhc_id = rng.choice(ids + [None])
        for _ in range(rng.randint(2, 4)):
            env.control_params_list.append(
                sc.ControllerParameter(
                    vehicle_id=vhc_id, parameter_name="target_position",
                    parameter_data=list(near(0.0, 80.0)),
                )
            )

    for _ in range(rng.randint(0, 4)):
        if env.pedestrians_list and rng.random() < 0.3:
            item_type, index = sc.ItemType.PEDESTRIAN, rng.randrange(len(env.pedestrians_list))
            state = rng.choice([s for s in sc.StateId if s is not sc.StateId.ORIENTATION])
        else:
            item_type, index = sc.ItemType.VEHICLE, rng.randrange(len(ids))
            state = rng.choice(list(sc.StateId))
        if state is sc.StateId.POSITION_X:
            value = base_x + rng.uniform(-6.0, 6.0)
        elif state is sc.StateId.POSITION_Y:
            value = -0.0 if rng.random() < 0.5 else base_y + rng.uniform(-3.0, 3.0)
        elif state is sc.StateId.ORIENTATION:
            value = rng.uniform(-4.0, 4.0)
        else:
            value = rng.uniform(-15.0, 15.0)
        env.initial_state_config_list.append(
            sc.InitialStateConfig(sc.LogItemDescription(item_type, index, state), value)
        )

    columns = [sc.LogItemDescription(sc.ItemType.TIME)]
    for item_type, count in ((sc.ItemType.VEHICLE, len(ids)), (sc.ItemType.PEDESTRIAN, len(env.pedestrians_list))):
        for index in range(count):
            columns += [sc.LogItemDescription(item_type, index, state) for state in sc.StateId]
    rng.shuffle(columns)
    env.data_log_description_list = columns

    step = rng.choice([5, 10, 20])
    env.data_log_period_ms = step * rng.choice([1, 2, 5])
    config = sc.SimulationConfig(
        sim_duration_ms=env.data_log_period_ms * rng.randint(0, 30),
        sim_step_size=step,
        run_config_arr=[sc.RunConfig()],
    )
    return env, config


def random_config(rng: random.Random) -> sc.SimulationConfig:
    step = rng.choice([5, 10, 20])
    config = sc.SimulationConfig(
        server_port=rng.randint(1024, 60000),
        sim_duration_ms=step * rng.randint(0, 500),
        sim_step_size=step,
    )
    for _ in range(rng.randint(0, 2)):
        config.run_config_arr.append(sc.RunConfig(simulation_run_mode=rng.choice(list(sc.RunMode))))
    return config


def random_trajectory(rng: random.Random) -> sc.Trajectory:
    labels = [sc.LogItemDescription(sc.ItemType.TIME, 0, sc.StateId.POSITION_X)]
    for i in range(rng.randint(0, 3)):
        labels.append(
            sc.LogItemDescription(
                sc.ItemType.VEHICLE, i, rng.choice(list(sc.StateId))
            )
        )
    n = rng.randint(0, 5)
    rows = [[float(k * 10)] + [rng.uniform(-100, 100) for _ in labels[1:]] for k in range(n)]
    matrix = np.array(rows, dtype=np.float64).reshape(n, len(labels))
    return sc.Trajectory(column_labels=labels, rows=matrix)


def random_message(rng: random.Random) -> wire.WireMessage:
    choice = rng.randrange(8)
    if choice == 0:
        return wire.Hello(protocol_version=rng.randint(0, 65535))
    if choice == 1:
        return wire.Ack()
    if choice == 2:
        return wire.SetupEnvironment(random_environment(rng))
    if choice == 3:
        return wire.StartSim(random_config(rng), run_index=rng.randint(0, 255))
    if choice == 4:
        return wire.Heartbeat(
            sim_time_ms=rng.randint(0, 2**48), status=rng.choice(list(wire.HeartbeatStatus))
        )
    if choice == 5:
        return wire.Continue()
    if choice == 6:
        return wire.TraceData(random_trajectory(rng))
    return wire.ProtocolErrorMsg(code=rng.randint(0, 65535), message="boom " * rng.randint(0, 3))


# --------------------------------------------------------------------------
# Reference scalar kernel: the per-object step, contact and sampling loop
# that resolves every log column, footprint and path segment on every step.
# The kernel in avtestbed.supervisor must give the same rows, contacts and
# minimum gap bit for bit.


def _reference_saturate(command: tuple[float, float]) -> tuple[float, float]:
    steering, acceleration = command
    return (
        max(-ctl.STEERING_LIMIT_RAD, min(ctl.STEERING_LIMIT_RAD, steering)),
        max(ctl.ACCEL_MIN, min(ctl.ACCEL_MAX, acceleration)),
    )


def _reference_project_onto_path(path, x: float, y: float) -> float:
    best_dist = math.inf
    best_arc = 0.0
    arc = 0.0
    for i in range(len(path) - 1):
        ax, ay = path[i]
        bx, by = path[i + 1]
        vx, vy = bx - ax, by - ay
        seg_len = math.hypot(vx, vy)
        if seg_len * seg_len == 0.0:
            continue
        t = ((x - ax) * vx + (y - ay) * vy) / (seg_len * seg_len)
        t = max(0.0, min(1.0, t))
        dist = math.hypot(x - (ax + t * vx), y - (ay + t * vy))
        if dist < best_dist - 1e-12:
            best_dist = dist
            best_arc = arc + t * seg_len
        arc += seg_len
    return best_arc


def _reference_point_at_arc(path, s: float):
    if s <= 0.0:
        return path[0]
    arc = 0.0
    for i in range(len(path) - 1):
        ax, ay = path[i]
        bx, by = path[i + 1]
        seg_len = math.hypot(bx - ax, by - ay)
        if seg_len > 0.0 and s <= arc + seg_len:
            t = (s - arc) / seg_len
            return (ax + t * (bx - ax), ay + t * (by - ay))
        arc += seg_len
    return path[-1]


def reference_pure_pursuit_steering(x: float, y: float, heading: float, speed: float, path) -> float:
    if len(path) < 2:
        return 0.0
    lookahead = max(ctl.LOOKAHEAD_MIN_M, ctl.LOOKAHEAD_TIME_S * speed)
    s = _reference_project_onto_path(path, x, y)
    tx, ty = _reference_point_at_arc(path, s + lookahead)
    dx, dy = tx - x, ty - y
    if dx == 0.0 and dy == 0.0:
        return 0.0
    alpha = ctl.wrap_angle(math.atan2(dy, dx) - heading)
    return math.atan2(2.0 * ctl.WHEELBASE_M * math.sin(alpha), lookahead)


def _reference_control(controller, state, radar, dt: float) -> tuple[float, float]:
    """The control law of each built-in controller, over the reference path
    tracker; any other controller runs its own control()."""
    if type(controller) is ctl.VehicleController:  # "void"
        return (0.0, 0.0)
    if not isinstance(controller, (ctl.PathSpeedFollower, ctl.FusionDrivingController)):
        return controller.control(state, radar, dt)
    steering = reference_pure_pursuit_steering(
        state.x, state.y, state.heading, state.speed, controller.path
    )
    accel = ctl.SPEED_GAIN * (controller.target_speed - state.speed)
    if isinstance(controller, ctl.FusionDrivingController):
        for det in radar:
            if abs(det.relative_bearing) >= ctl.BRAKE_BEARING_RAD:
                continue
            if det.relative_speed > 0.0 and det.relative_range / det.relative_speed < ctl.BRAKE_TTC_S:
                accel = ctl.ACCEL_MIN
                break
    return _reference_saturate((steering, accel))


def reference_pedestrian_velocity(ped) -> tuple[float, float]:
    v, h = ped.speed(), ped.heading()
    return (v * math.cos(h), v * math.sin(h))


def reference_radar_sense(world, me):
    mvx = me.speed * math.cos(me.heading)
    mvy = me.speed * math.sin(me.heading)
    detections = []

    def consider(kind_rank: int, ident: int, tx, ty, tvx, tvy):
        dx, dy = tx - me.x, ty - me.y
        rng = math.hypot(dx, dy)
        if rng == 0.0 or rng > ctl.RADAR_RANGE_M:
            return
        bearing = ctl.wrap_angle(math.atan2(dy, dx) - me.heading)
        if abs(bearing) > ctl.RADAR_FOV_RAD:
            return
        closing = -((dx * (tvx - mvx) + dy * (tvy - mvy)) / rng)
        detections.append(((rng, kind_rank, ident), ctl.RadarDetection(rng, bearing, closing)))

    for vhc in world.vehicles:
        if vhc is me:
            continue
        consider(0, vhc.id, vhc.x, vhc.y, vhc.speed * math.cos(vhc.heading),
                 vhc.speed * math.sin(vhc.heading))
    for ped in world.pedestrians:
        pvx, pvy = reference_pedestrian_velocity(ped)
        consider(1, ped.id, ped.x, ped.y, pvx, pvy)

    detections.sort(key=lambda item: item[0])
    return [det for _, det in detections]


def reference_step(world, dt_ms: int):
    dt = dt_ms / 1000.0

    commands = []
    for vhc in world.vehicles:
        radar = reference_radar_sense(world, vhc) if vhc.controller.uses_radar else []
        commands.append(_reference_saturate(_reference_control(vhc.controller, vhc, radar, dt)))

    for vhc, (steering, acceleration) in zip(world.vehicles, commands):
        vhc.x += vhc.speed * math.cos(vhc.heading) * dt
        vhc.y += vhc.speed * math.sin(vhc.heading) * dt
        vhc.heading += (vhc.speed / ctl.WHEELBASE_M) * math.tan(steering) * dt
        vhc.speed += acceleration * dt
        if vhc.speed < 0.0:
            vhc.speed = 0.0

    for ped in world.pedestrians:
        if ped.walking:
            ped.x, ped.y, ped.waypoint_index = ctl.pedestrian_step(
                ped.x, ped.y, ped.waypoint_index, ped.target_speed, ped.waypoints, dt
            )

    world.sim_time_ms += dt_ms
    return world


def reference_detect_collisions(world) -> list:
    """Every vehicle pair and vehicle-pedestrian pair through the exact tests."""
    contacts = []
    vehicles = world.vehicles
    for i in range(len(vehicles)):
        for j in range(i + 1, len(vehicles)):
            pen = geometry.rect_rect_penetration(vehicles[i].footprint(), vehicles[j].footprint())
            if pen is not None and pen > 0.0:
                contacts.append(
                    sv.Contact(
                        sv.ContactKind.VEHICLE_VEHICLE,
                        (vehicles[i].id, vehicles[j].id),
                        world.sim_time_ms,
                        pen,
                    )
                )
    for vhc in vehicles:
        for ped in world.pedestrians:
            pen = geometry.rect_disc_penetration(
                vhc.footprint(), ped.x, ped.y, sv.PEDESTRIAN_RADIUS_M
            )
            if pen is not None and pen > 0.0:
                contacts.append(
                    sv.Contact(
                        sv.ContactKind.VEHICLE_PEDESTRIAN,
                        (vhc.id, ped.id),
                        world.sim_time_ms,
                        pen,
                    )
                )
    return contacts


def _reference_lateral_offset(world, x: float, y: float) -> float:
    offset = 0.0
    for dist in world.disturbances:
        x0, y0 = dist.position[0], dist.position[2]
        if x0 <= x <= x0 + dist.length and abs(y - y0) <= dist.width / 2.0:
            offset += dist.height * math.sin(2.0 * math.pi * x / dist.inter_object_spacing)
    return offset


def reference_sample_log_row(world, descriptions) -> list[float]:
    row: list[float] = []
    for desc in descriptions:
        if desc.item_type is sc.ItemType.TIME:
            row.append(float(world.sim_time_ms))
            continue
        if desc.item_type is sc.ItemType.VEHICLE:
            vhc = world.vehicles[desc.item_index]
            x, y, heading, speed = vhc.x, vhc.y, vhc.heading, vhc.speed
            bump = _reference_lateral_offset(world, x, y)
        else:
            ped = world.pedestrians[desc.item_index]
            x, y, heading, speed = ped.x, ped.y, ped.heading(), ped.speed()
            bump = 0.0
        state = desc.item_state_index
        if state is sc.StateId.POSITION_X:
            row.append(x)
        elif state is sc.StateId.POSITION_Y:
            row.append(y + bump)
        elif state is sc.StateId.ORIENTATION:
            row.append(ctl.wrap_angle(heading))
        elif state is sc.StateId.SPEED:
            row.append(speed)
        elif state is sc.StateId.VELOCITY_X:
            row.append(speed * math.cos(heading))
        else:
            row.append(speed * math.sin(heading))
    return row


def _reference_track_contacts(world, seen_pairs: set) -> None:
    for contact in reference_detect_collisions(world):
        key = (contact.kind, contact.ids)
        if key not in seen_pairs:
            seen_pairs.add(key)
            world.contacts.append(contact)
    for i in range(len(world.vehicles)):
        for j in range(i + 1, len(world.vehicles)):
            a, b = world.vehicles[i], world.vehicles[j]
            gap = math.hypot(a.x - b.x, a.y - b.y)
            if gap < world.min_vehicle_gap:
                world.min_vehicle_gap = gap


def reference_run(env: sc.SimEnvironment, config: sc.SimulationConfig) -> sv.SimulationResult:
    """Build, initialize and run a scenario through the reference kernel."""
    world = sv.build_world(env)
    descriptions = list(env.data_log_description_list)
    period_ms = env.data_log_period_ms
    duration_ms = config.sim_duration_ms
    step_ms = config.sim_step_size
    rows: list[list[float]] = []
    seen_pairs: set = set()

    _reference_track_contacts(world, seen_pairs)
    if descriptions:
        rows.append(reference_sample_log_row(world, descriptions))

    while world.sim_time_ms < duration_ms:
        reference_step(world, step_ms)
        _reference_track_contacts(world, seen_pairs)
        if descriptions and world.sim_time_ms % period_ms == 0:
            rows.append(reference_sample_log_row(world, descriptions))

    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), len(descriptions))
    return sv.SimulationResult(
        trajectory=sc.Trajectory(column_labels=descriptions, rows=matrix),
        contacts=list(world.contacts),
        min_vehicle_gap=world.min_vehicle_gap,
    )
