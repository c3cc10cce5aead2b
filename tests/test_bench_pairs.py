"""tools/bench_pairs.py: the per-workload summary of alternated runs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def run(side, seed, ops, p50, rows=10.0, failed=0):
    return {
        "side": side, "workload": "w", "seed": seed, "trace": 0, "correct": True,
        "attempted": 100, "failed": failed,
        "metrics": {"ops_per_s": ops, "op_p50_ms": p50, "rows_per_op": rows},
    }


def test_pairs_won_follow_each_metric_direction_and_ties_count_for_neither():
    runs = [
        run("parent", 1, 10.0, 5.0), run("change", 1, 12.0, 4.0),
        run("change", 2, 9.0, 5.0, rows=11.0), run("parent", 2, 11.0, 5.0),
        run("parent", 3, 10.0, 6.0, failed=2), run("change", 3, 10.0, 7.0),
    ]
    better = {"ops_per_s": "higher", "op_p50_ms": "lower", "rows_per_op": "lower"}
    summary = bench_pairs.summarize(runs, better)
    assert summary["seeds"] == [1, 2, 3]
    assert summary["ops_per_s_pairs_won_by_change"] == "1/3"
    assert summary["op_p50_ms_pairs_won_by_change"] == "1/3"
    assert summary["rows_per_op_equal_in_pairs"] == "2/3"
    assert summary["failed_ops"] == {"parent": 2, "change": 0}
    ops = summary["metrics"]["ops_per_s"]
    assert (ops["parent_median"], ops["change_median"]) == (10.0, 10.0)
    assert (ops["parent_q1"], ops["parent_q3"]) == (10.0, 10.5)
    assert (ops["change_min"], ops["change_max"]) == (9.0, 12.0)
    assert ops["ratio"] == pytest.approx(1.0)
