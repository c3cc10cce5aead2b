"""avtestbed benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --quick

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it runs
the same operations untraced and then traced, and prints the per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  --quick runs
every workload at a tiny size, traced and untraced, with all checks.

The program under test is the avtestbed package under src/ of the checkout
that holds this directory; the run writes only under .perfbench_runs/ there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Tally:
    """Attempted and failed operations, problems and per-op digests of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.rows = 0
        self.row_outputs = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.digests: dict[int, str] = {}

    def add(self, checked, op_index: int | None = None) -> None:
        self.attempted += checked.ops
        self.failed += checked.failed
        self.rows += checked.rows
        self.row_outputs += checked.row_outputs
        self.problems += checked.problems
        self.notes += checked.notes
        if op_index is not None and checked.digest:
            # every round repeats the same inputs, so outputs must repeat
            first = self.digests.setdefault(op_index, checked.digest)
            if first != checked.digest:
                self.problems.append(f"operation {op_index} gave different output in a later round")


def timed_rounds(workload, tally: Tally, seconds: float, rounds: int | None = None):
    """Whole rounds until `seconds` of timed work (or exactly `rounds`).

    Returns per-command (round, index in round, wall seconds, operations)
    samples; checks run between commands and are not timed.
    """
    samples = []
    busy = 0.0
    done = 0
    while (done < rounds) if rounds is not None else (done == 0 or busy < seconds):
        for index, op in enumerate(workload.ops()):
            start = time.perf_counter()
            output = workload.execute(op)
            wall = time.perf_counter() - start
            checked = workload.check(op, output)
            tally.add(checked, index)
            samples.append((done, index, wall, checked.ops))
            busy += wall
        done += 1
    return samples, done


def _robust_throughput(samples) -> float:
    """Operations per second of a round whose every command took its median
    time over the rounds; the median keeps a burst of load on the shared
    machine out of the figure."""
    walls: dict[int, list[float]] = {}
    ops: dict[int, int] = {}
    for _, index, wall, n in samples:
        walls.setdefault(index, []).append(wall)
        ops[index] = n
    return sum(ops.values()) / sum(statistics.median(w) for w in walls.values())


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident memory of another process, from /proc/<pid>/status."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _workdir(workload: str, seed: int, tag: str) -> str:
    return os.path.join(RUNS_DIR, f"{workload}-s{seed}-{tag}-p{os.getpid()}")


def probe_setup(workload_name: str, seed: int) -> None:
    """Set up and warm up once, print READY, tear down (one setup sample)."""
    import workloads

    workdir = _workdir(workload_name, seed, "probe")
    workload = workloads.WORKLOADS[workload_name](workdir, seed)
    try:
        workload.setup()
        workload.warm_up()
        print("READY", flush=True)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload_name: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to ready-to-time, per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", workload_name,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "READY" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode}, said {line!r})")
        times.append(ready)
    return times


def end_to_end_metrics(samples, tally: Tally, setup_times: list[float], peak_mb: float) -> dict:
    return {
        "ops_per_s": _metric(_robust_throughput(samples), "1/s"),
        "op_p50_ms": _metric(statistics.median(1000.0 * wall / n for _, _, wall, n in samples if n), "ms"),
        "rows_per_op": _metric(tally.rows / max(1, tally.row_outputs), "rows"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
    }


def run_untraced(workload_name: str, seed: int, seconds: float) -> dict:
    import workloads

    setup_times = measure_setup(workload_name, seed)
    workdir = _workdir(workload_name, seed, "run")
    workload = workloads.WORKLOADS[workload_name](workdir, seed)
    tally = Tally()
    try:
        workload.setup()
        workload.warm_up()
        samples, rounds = timed_rounds(workload, tally, seconds)
        tally.add(workload.finish())
        helper_mb = sum(_vm_hwm_mb(pid) for pid in workload.helper_pids())
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = end_to_end_metrics(samples, tally, setup_times, own_mb + helper_mb)
    busy = sum(wall for _, _, wall, _ in samples)
    ops = sum(n for _, _, _, n in samples)
    print(
        f"# {workload_name} seed={seed}: {rounds} rounds, {len(samples)} timed commands, "
        f"{ops} operations in {busy:.3f} s; setup probes {[round(t, 3) for t in setup_times]}",
        file=sys.stderr,
    )
    return _result(tally, metrics)


def run_traced(workload_name: str, seed: int, seconds: float, quick: bool = False) -> dict:
    """The same rounds untraced and traced; per-layer metrics from the spans."""
    import layers
    import tracing
    import workloads

    workdir = _workdir(workload_name, seed, "trace")
    spans_dir = os.path.join(RUNS_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    client_spans = os.path.join(spans_dir, f"{workload_name}-s{seed}.client.csv.gz")
    helper_spans = os.path.join(spans_dir, f"{workload_name}-s{seed}.server.csv.gz")
    if os.path.exists(helper_spans):
        os.remove(helper_spans)
    workload = workloads.WORKLOADS[workload_name](workdir, seed, quick)
    tally = Tally()
    tracer = tracing.Tracer()
    try:
        workload.setup()
        workload.warm_up()
        samples, rounds = timed_rounds(workload, tally, seconds / 2)
        untraced_s = sum(wall for _, _, wall, _ in samples)
        tally.add(workload.finish())

        workload.use_traced_helpers(helper_spans)
        tracing.instrument(tracer)
        try:
            samples, _ = timed_rounds(workload, tally, 0, rounds=rounds)
            traced_s = sum(wall for _, _, wall, _ in samples)
        finally:
            tracer.unpatch()
        tally.add(workload.finish())
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    tracer.write(client_spans)
    server = None
    if os.path.exists(helper_spans) and workload.helper_pids():
        server = tracing.read_spans(helper_spans)
    metrics = layers.per_layer_metrics(tracing.LayerStats(tracer.rows()), tracer.units, server)
    metrics["trace.overhead_pct"] = _metric(100.0 * (traced_s / untraced_s - 1.0), "%")
    print(
        f"# {workload_name} seed={seed}: {rounds} rounds untraced in {untraced_s:.3f} s, "
        f"traced in {traced_s:.3f} s; spans in {client_spans}",
        file=sys.stderr,
    )
    return _result(tally, metrics)


def _result(tally: Tally, metrics: dict) -> dict:
    for problem in tally.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for note in tally.notes[:20]:
        print(f"failed operation: {note}", file=sys.stderr)
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def run_quick() -> int:
    """Every workload at a tiny size, untraced and traced, with all checks."""
    import workloads

    ok = True
    for name in workloads.WORKLOADS:
        result = run_traced(name, seed=1, seconds=0, quick=True)
        ok = ok and result["correct"] and result["failed"] == 0
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    print(json.dumps({"quick": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["campaign", "falsify_bounded", "socket_sync", "ca_generate"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true", help="tiny run of every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "avtestbed", "__init__.py")):
        print(f"error: no avtestbed package under {SRC}", file=sys.stderr)
        return 2
    # One CPU for the benchmark and every process it starts.  socket_sync's
    # client and server hand over control at every 10 ms step; with a CPU
    # each, every handover waits for the shared host to wake the other CPU,
    # which made sessions 1.5 to 2 times slower and far less steady.  The
    # other workloads run one process and read the same either way.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")

    if args.quick:
        return run_quick()
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    if args.setup_probe:
        probe_setup(args.workload, args.seed)
        return 0
    if args.trace:
        result = run_traced(args.workload, args.seed, args.seconds)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"attempted = {result['attempted']}, failed = {result['failed']}, correct = {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
