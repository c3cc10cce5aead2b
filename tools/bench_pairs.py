"""Alternated parent/change benchmark pairs, written as one BENCH_<n>.json.

    git clone . ../parent && git -C ../parent checkout <parent commit>
    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --pairs ca_generate=10 --pairs campaign=3 --first-seed 20201 \\
        --claim ca_generate:ops_per_s --what "..." --out BENCH_20.json

Each pair runs ``python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0`` from the root of each checkout, the parent first on odd seeds and
the change first on even ones, so a drift in the host's speed falls on both
sides alike.  Every workload uses the seeds first-seed, first-seed+1, ...
With --trace-pair W, one more pair of W runs with --trace 1 and its per-layer
metrics are recorded beside the end-to-end ones.

The output holds every run, and for each workload and end-to-end metric the
median, minimum and maximum of each side, the parent's quartiles (inclusive
method), the change/parent ratio of the medians and how many pairs the change
won (ties count for neither side).  The file is rewritten after every pair,
so an interrupted series keeps the pairs it made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _commit(checkout: str) -> str:
    try:
        return subprocess.run(
            ["git", "-C", checkout, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _host() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "os": f"{platform.system()} {platform.release()}",
    }


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; its last output line is the run's JSON result."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(argv)} in {checkout} exited {proc.returncode}: {proc.stderr.strip()}"
        )
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric medians, spreads and pairs won for one workload's runs."""
    sides = {side: [r for r in runs if r["side"] == side] for side in ("parent", "change")}
    pairs = list(zip(sides["parent"], sides["change"]))
    summary: dict = {"seeds": [p["seed"] for p, _ in pairs], "pairs": len(pairs), "metrics": {}}
    for name, direction in better.items():
        parent = [r["metrics"][name] for r in sides["parent"]]
        change = [r["metrics"][name] for r in sides["change"]]
        q1, _, q3 = (
            statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1
            else (parent[0],) * 3
        )
        summary["metrics"][name] = {
            "parent_median": statistics.median(parent),
            "parent_q1": q1,
            "parent_q3": q3,
            "change_median": statistics.median(change),
            "change_min": min(change),
            "change_max": max(change),
            "parent_min": min(parent),
            "parent_max": max(parent),
            "ratio": statistics.median(change) / statistics.median(parent),
        }
        sign = 1 if direction == "higher" else -1
        won = sum(
            1 for p, c in pairs
            if sign * (c["metrics"][name] - p["metrics"][name]) > 0
        )
        summary[f"{name}_pairs_won_by_change"] = f"{won}/{len(pairs)}"
    if "rows_per_op" in better:
        same = sum(
            1 for p, c in pairs
            if p["metrics"]["rows_per_op"] == c["metrics"]["rows_per_op"]
        )
        summary["rows_per_op_equal_in_pairs"] = f"{same}/{len(pairs)}"
    summary["failed_ops"] = {side: sum(r["failed"] for r in rs) for side, rs in sides.items()}
    summary["all_checks_correct"] = all(r["correct"] for r in runs)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument(
        "--change", default=ROOT, help="checkout of the change (default: this one)"
    )
    parser.add_argument(
        "--pairs", action="append", required=True, metavar="WORKLOAD=N",
        help="run N pairs of WORKLOAD; repeat for each workload",
    )
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace-pair", metavar="WORKLOAD", help="add one --trace 1 pair")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the claimed metric")
    parser.add_argument("--what", default="", help="one line on what the change does")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)

    plan = []
    for spec in args.pairs:
        workload, sep, count = spec.partition("=")
        if not sep or not count.isdecimal() or int(count) < 1:
            parser.error(f"bad --pairs {spec!r}; expected WORKLOAD=N with N >= 1")
        plan.append((workload, int(count)))
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    doc: dict = {
        "what": args.what,
        "parent_commit": _commit(args.parent),
        "change_commit": _commit(args.change),
        "host": _host(),
        "command": (
            f"python3 perfbench/run.py --workload W --seed N --seconds {args.seconds:g} "
            "--trace T (run from the root of each checkout; the benchmark pins itself "
            "to one CPU)"
        ),
        "order": (
            "pairs alternate which side runs first (parent first on odd seeds); each "
            "figure is the median over a side's runs, with the parent's quartiles "
            "(inclusive method)"
        ),
    }
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        doc["claimed"] = {"workload": workload, "metric": metric}
    doc["workloads"] = {}
    doc["runs"] = []
    checkouts = {"parent": args.parent, "change": args.change}

    def save() -> None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")

    def run_pair(workload: str, seed: int, trace: int) -> list[dict]:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        made = []
        for side in order:
            result = run_once(checkouts[side], workload, seed, args.seconds, trace)
            made.append(
                {"side": side, "workload": workload, "seed": seed, "trace": trace, **result}
            )
            print(f"{workload} seed {seed} trace {trace} {side}: "
                  f"{json.dumps(result['metrics'])}", file=sys.stderr, flush=True)
        return made

    for workload, count in plan:
        for seed in range(args.first_seed, args.first_seed + count):
            doc["runs"] += run_pair(workload, seed, 0)
            runs = [r for r in doc["runs"] if r["workload"] == workload and r["trace"] == 0]
            doc["workloads"][workload] = summarize(runs, better)
            save()
    if args.trace_pair:
        seed = args.first_seed + max(count for _, count in plan)
        pair = run_pair(args.trace_pair, seed, 1)
        doc["runs"] += pair
        doc[f"trace_1_{args.trace_pair}"] = {
            "seed": seed, **{r["side"]: r["metrics"] for r in pair}
        }
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
