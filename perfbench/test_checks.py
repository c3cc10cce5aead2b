"""The benchmark's checks catch corrupted outputs.

    python3 -m pytest perfbench

Each test takes a real output of the program at the quick size, shows that
its check passes, corrupts the output and shows that the check then fails.
"""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _first_op(workload):
    op = workload.ops()[0]
    return op, workload.execute(op)


@pytest.fixture
def ca(tmp_path):
    workload = workloads.CaGenerate(str(tmp_path), seed=3, quick=True)
    workload.setup()
    yield workload
    workload.close()


def test_covering_array_check_catches_a_dropped_row(ca):
    op, output = _first_op(ca)
    assert ca.check(op, output).failed == 0
    _, strength, params, _ = op
    names, rows = checks.read_table_csv(open(output[2]).read())
    assert checks.check_covering_array(names, rows, params, strength) == (0, [])

    for k in range(len(rows)):
        uncovered, _ = checks.check_covering_array(names, rows[:k] + rows[k + 1:], params, strength)
        assert uncovered > 0, f"dropping row {k} left every tuple covered"

    with open(output[2]) as fh:
        lines = fh.read().splitlines()
    with open(output[2], "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    checked = ca.check(op, output)
    assert checked.failed == 1 and "uncovered" in checked.notes[0]


def test_covering_array_check_catches_foreign_cells_and_short_arrays():
    params = [("a", ["0", "1"]), ("b", ["x", "y", "z"])]
    full = [[a, b] for a in ("0", "1") for b in ("x", "y", "z")]
    assert checks.check_covering_array(["a", "b"], full, params, 2) == (0, [])
    _, problems = checks.check_covering_array(["a", "b"], full + [["2", "x"]], params, 2)
    assert problems and "not a declared value" in problems[0]
    uncovered, problems = checks.check_covering_array(["a", "b"], full[:4], params, 2)
    assert uncovered == 2 and "lower bound 6" in problems[0]
    # a don't-care cell covers every value of its parameter
    assert checks.check_covering_array(["a", "b"], [["*", "x"], ["*", "y"], ["*", "z"]], params, 1) == (0, [])


@pytest.fixture
def campaign(tmp_path):
    workload = workloads.Campaign(str(tmp_path), seed=3, quick=True)
    workload.setup()
    yield workload
    workload.close()


def _trace_file(output) -> str:
    out_dir = output[2]
    return os.path.join(out_dir, sorted(f for f in os.listdir(out_dir) if f.startswith("trace_"))[0])


def test_trace_check_catches_a_shifted_row(campaign):
    op, output = _first_op(campaign)
    assert campaign.check(op, output).problems == []
    path = _trace_file(output)
    header, rows = checks.read_trace_csv(open(path).read())
    assert checks.check_trace(header, rows, campaign.duration_ms, workloads.STEP_MS) == []

    # one row moved one step later in time
    shifted = rows[:5] + [rows[6]] + rows[6:]
    assert checks.check_trace(header, shifted[: len(rows)], campaign.duration_ms, workloads.STEP_MS)
    # one row's ego position moved by a micrometre
    moved = [list(r) for r in rows]
    moved[7][header.index("vehicle0_position_x")] += 1e-6
    problems = checks.check_trace(header, moved, campaign.duration_ms, workloads.STEP_MS)
    assert problems and "bicycle model" in problems[0]
    # a non-finite cell
    moved[7][header.index("vehicle1_speed")] = math.nan
    assert checks.check_trace(header, moved, campaign.duration_ms, workloads.STEP_MS)

    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[3], lines[4] = lines[4], lines[3]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert campaign.check(op, output).problems


def test_campaign_check_catches_an_unbound_cell(campaign):
    op, output = _first_op(campaign)
    table_path, rows = op
    wrong = [list(r) for r in rows]
    wrong[0][1] = "24.5" if wrong[0][1] != "24.5" else "15.5"
    problems = campaign.check((table_path, wrong), output).problems
    assert any("ego starts at x" in p for p in problems)


@pytest.fixture
def falsify(tmp_path):
    workload = workloads.FalsifyBounded(str(tmp_path), seed=3, quick=True)
    workload.setup()
    yield workload
    workload.close()


def test_robustness_check_catches_a_perturbed_value(falsify):
    op, output = _first_op(falsify)
    assert falsify.check(op, output).problems == []
    assert falsify.finish().problems == []

    sample, rob = falsify.evaluated[0]
    falsify.evaluated[0] = (sample, rob + 1e-6)
    problems = falsify.finish().problems
    assert problems and "naive evaluator" in problems[0]

    results = json.load(open(output[2]))
    results["results"][0]["history"][0][1] -= 1.0
    with open(output[2], "w") as fh:
        json.dump(results, fh)
    problems = falsify.check(op, output).problems
    assert problems and "not the history minimum" in problems[0]


def test_falsify_check_counts_infinite_robustness_as_failed(falsify):
    op, output = _first_op(falsify)
    results = json.load(open(output[2]))
    results["results"][0]["history"][0][1] = math.inf
    with open(output[2], "w") as fh:
        json.dump(results, fh)
    checked = falsify.check(op, output)
    assert checked.failed == 1 and checked.ops == falsify.budget


def test_naive_until_follows_the_definition():
    times = [0.0, 0.5, 1.0, 1.5, 2.0]
    atoms = {"p": [3.0, 2.0, 1.0, 0.5, 4.0], "q": [-1.0, -2.0, 5.0, 0.0, 6.0]}
    until = ("until", (0.0, 1.0), ("atom", "p"), ("atom", "q"))
    # at t=0 the witnesses are t=0 (q=-1), t=0.5 (min(q=-2, p0=3)) and
    # t=1.0 (min(q=5, p0..p1=2)); the best is 2
    assert checks.naive_signal(until, atoms, times)[0] == 2.0
    assert checks.naive_signal(("always", (0.5, 1.0), ("atom", "p")), atoms, times)[0] == 1.0
    assert checks.naive_signal(("eventually", (5.0, 6.0), ("atom", "p")), atoms, times)[0] == -math.inf


@pytest.fixture
def socket_sync(tmp_path):
    workload = workloads.SocketSync(str(tmp_path), seed=3, quick=True)
    workload.setup()
    yield workload
    workload.close()


def test_socket_checks_catch_lost_heartbeats_and_foreign_traces(socket_sync):
    op, output = _first_op(socket_sync)
    assert socket_sync.check(op, output).problems == []
    trajectory, beats = output
    assert socket_sync.check(op, (trajectory, beats[:-1])).problems

    other = socket_sync.execute(1)[0]
    checked = socket_sync.check(op, (other, beats))
    assert checked.failed == 1 and "differs from the embedded run" in checked.notes[0]


def test_quick_mode_passes(capsys):
    assert run.run_quick() == 0
    assert '{"quick": "pass"}' in capsys.readouterr().out


def test_printed_metrics_are_the_declared_ones():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    units = lambda group: {m["name"]: m["unit"] for m in declared[group]}  # noqa: E731

    tally = run.Tally()
    # three rounds of two commands: 2 operations, then 1
    samples = [(0, 0, 0.5, 2), (0, 1, 0.25, 1), (1, 0, 0.75, 2), (1, 1, 0.5, 1), (2, 0, 0.25, 2), (2, 1, 0.5, 1)]
    end_to_end = run.end_to_end_metrics(samples, tally, [0.3, 0.2, 0.4], 40.0)
    assert {k: m["unit"] for k, m in end_to_end.items()} == units("end_to_end")
    # each command at its median time: 3 operations in 0.5 + 0.5 s
    assert end_to_end["ops_per_s"]["value"] == 3.0
    # per-operation command times: 250, 250, 375, 500, 125 and 500 ms
    assert end_to_end["op_p50_ms"]["value"] == 312.5
    assert end_to_end["setup_s"]["value"] == 0.3

    per_layer = run.run_traced("falsify_bounded", seed=2, seconds=0, quick=True)["metrics"]
    assert {k: m["unit"] for k, m in per_layer.items()} == units("per_layer")
    assert per_layer["falsify.evaluations"]["value"] == 2
    assert per_layer["falsify.finite_ratio"]["value"] == 1.0
