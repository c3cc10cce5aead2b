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

from avtestbed import covering
from avtestbed import robustness as rb
from avtestbed import scenario as sc
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
        (env.ego_vehicles if i == 0 else env.agent_vehicles).append(vhc)
    for i in range(rng.randint(0, 2)):
        ped = sc.Pedestrian(ped_id=i, target_speed=rng.uniform(0, 4))
        ped.trajectory = [rng.uniform(0, 50) for _ in range(2 * rng.randint(0, 3))]
        ped.controller = "pedestrian_control"
        env.pedestrians.append(ped)
    if rng.random() < 0.5:
        env.heartbeat_config = sc.HeartbeatConfig(
            sync_type=rng.choice(list(sc.SyncType)), period_ms=rng.randint(1, 100)
        )
    if rng.random() < 0.4:
        env.controller_params.append(
            sc.ControllerParameter(
                vehicle_id=rng.choice([None, 0, 1]),
                parameter_name="target_position",
                parameter_data=[rng.uniform(-100, 100), rng.uniform(-5, 5)],
            )
        )
    if env.all_vehicles():
        env.data_log_descriptions = [
            sc.LogItemDescription(sc.ItemType.TIME, 0, sc.StateId.POSITION_X),
            sc.LogItemDescription(sc.ItemType.VEHICLE, 0, sc.StateId.POSITION_X),
        ]
        env.data_log_period_ms = rng.choice([10, 20, 50])
    return env


def random_config(rng: random.Random) -> sc.SimulationConfig:
    step = rng.choice([5, 10, 20])
    config = sc.SimulationConfig(
        server_port=rng.randint(1024, 60000),
        sim_duration_ms=step * rng.randint(0, 500),
        sim_step_size_ms=step,
    )
    for _ in range(rng.randint(0, 2)):
        config.run_configs.append(sc.RunConfig(run_mode=rng.choice(list(sc.RunMode))))
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
