"""Span tracing from outside the program, and the per-layer statistics.

The traced run replaces module attributes that avtestbed looks up at call
time (``supervisor.step``, ``controllers.radar_sense``,
``robustness.robustness``, ...) and controller ``control`` methods with
wrappers that record one span per call: name, start, end, parent span and
the id of the scenario or session being run.  Spans are kept in a flat
in-memory array and written out when the run ends.  A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import array
import gzip
import inspect
import itertools
import math
import threading
import time
from typing import Callable, Optional

# Called after a traced call returns, with the tracer's unit counters, the
# call's arguments and its result; it adds the call's rows, samples or bytes.
CountFn = Callable[[dict, tuple, object], None]


class Tracer:
    """Records spans of wrapped calls, with one span stack per thread.

    A thread whose stack is empty, such as a worker thread the program
    starts, takes the innermost open span of the thread that created the
    tracer as its parent.
    """

    FIELDS = 6  # seq, name id, start ns, end ns, parent seq, op id

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array.array("q")
        self.units: dict[str, int] = {}
        self.op_id = 0
        self._seq = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._patches: list[tuple[object, str, object]] = []

    def set_thread_op(self, op_id: int) -> None:
        """Tag spans of the calling thread with op_id instead of self.op_id."""
        self._local.op_id = op_id

    def wrap(self, fn, name: str, count: Optional[CountFn] = None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        local, spans, units, seq_counter = self._local, self.spans, self.units, self._seq
        main_stack = self._main_stack
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            seq = next(seq_counter)
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            stack.append(seq)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.extend((seq, name_id, start, end, parent, getattr(local, "op_id", tracer.op_id)))
            if count is not None:
                count(units, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count: Optional[CountFn] = None) -> None:
        """Replace owner.attr by its traced wrapper until unpatch()."""
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def replace(self, owner, attr: str, make: Callable) -> None:
        """Replace owner.attr by make(current value) until unpatch()."""
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def rows(self):
        """Spans as (seq, name, start_ns, end_ns, parent_seq, op_id) tuples."""
        s, f = self.spans, self.FIELDS
        for k in range(0, len(s), f):
            yield (s[k], self.names[s[k + 1]], s[k + 2], s[k + 3], s[k + 4], s[k + 5])

    def write(self, path: str) -> None:
        """All spans as gzip CSV, then one '# units' line per counter."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("seq,name,start_ns,end_ns,parent_seq,op_id\n")
            for row in self.rows():
                fh.write(",".join(map(str, row)) + "\n")
            for name, value in sorted(self.units.items()):
                fh.write(f"# units,{name},{value}\n")


def read_spans(path: str) -> tuple[list[tuple], dict[str, int]]:
    """Spans and unit counters written by Tracer.write."""
    spans, units = [], {}
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            cells = line.rstrip("\n").split(",")
            if cells[0] == "# units":
                units[cells[1]] = int(cells[2])
            else:
                seq, name, start, end, parent, op = cells
                spans.append((int(seq), name, int(start), int(end), int(parent), int(op)))
    return spans, units


class LayerStats:
    """Per-name call count, total and self time in ns, over one process's spans."""

    def __init__(self, spans):
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        child_ns: dict[int, int] = {}
        spans = list(spans)
        for _, _, start, end, parent, _ in spans:
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        for seq, name, start, end, _, _ in spans:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + (end - start)
            self.self_ns[name] = self.self_ns.get(name, 0) + (end - start) - child_ns.get(seq, 0)

    def merged(self, other: "LayerStats") -> "LayerStats":
        out = LayerStats([])
        for mine, theirs, merged in (
            (self.calls, other.calls, out.calls),
            (self.total_ns, other.total_ns, out.total_ns),
            (self.self_ns, other.self_ns, out.self_ns),
        ):
            for key in set(mine) | set(theirs):
                merged[key] = mine.get(key, 0) + theirs.get(key, 0)
        return out

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def total(self, name: str) -> int:
        return self.total_ns.get(name, 0)

    def self_total(self, name: str) -> int:
        return self.self_ns.get(name, 0)


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0 for a layer the workload never calls."""
    return numerator / denominator if denominator else 0.0


def _add(units: dict, key: str, amount: int) -> None:
    units[key] = units.get(key, 0) + amount


def _count_tuples(units, args, table) -> None:
    params, strength = args[0], args[1]
    _add(units, "covering.rows", len(table.rows))
    _add(
        units,
        "covering.tuples",
        sum(
            math.prod(len(params[i].values) for i in combo)
            for combo in itertools.combinations(range(len(params)), strength)
        ),
    )


def _count_decoded(units, args, msg) -> None:
    from avtestbed import wire

    _add(units, "wire.bytes", len(args[0]))
    if isinstance(msg, wire.Heartbeat):
        _add(units, "wire.heartbeats", 1)


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports."""
    from avtestbed import cli, controllers, covering, falsify, robustness, scenario, supervisor, wire

    tracer.patch(cli, "run_command", "cli.run_command")
    for name in ("run", "step", "detect_collisions", "sample_log_row", "build_world"):
        tracer.patch(supervisor, name, f"supervisor.{name}")
    tracer.patch(
        supervisor, "trajectory_to_csv", "supervisor.trajectory_to_csv",
        lambda units, args, result: _add(units, "csv.rows", args[0].n_rows),
    )
    tracer.patch(supervisor.SupervisorServer, "_handle", "supervisor.server_session")
    tracer.patch(controllers, "radar_sense", "controllers.radar_sense")
    tracer.patch(controllers, "pedestrian_step", "controllers.pedestrian_step")
    for cls in list(vars(controllers).values()):
        if (
            isinstance(cls, type)
            and issubclass(cls, controllers.VehicleController)
            and "control" in vars(cls)
        ):
            tracer.patch(cls, "control", "controllers.control")
    for name in ("environment_from_json", "environment_to_json", "validate_environment"):
        tracer.patch(scenario, name, f"scenario.{name}")
    # the kernel imported the validator by name, so it holds its own reference
    tracer.patch(supervisor, "validate_environment", "scenario.validate_environment")
    tracer.patch(
        robustness, "robustness", "robustness.robustness",
        lambda units, args, value: (
            _add(units, "robustness.samples", len(args[2].times)),
            _add(units, "robustness.finite", int(math.isfinite(value))),
        ),
    )
    tracer.patch(robustness, "convert_trajectory", "robustness.convert_trajectory")
    tracer.patch(falsify, "falsify", "falsify.search")

    def traced_study_system(make):
        def make_study_system(study):
            system, formula, predicates = make(study)
            return tracer.wrap(system, "falsify.system"), formula, predicates

        return make_study_system

    tracer.replace(falsify, "make_study_system", traced_study_system)
    tracer.patch(
        wire, "encode_message", "wire.encode_message",
        lambda units, args, frame: _add(units, "wire.bytes", len(frame)),
    )
    tracer.patch(wire, "decode_message", "wire.decode_message", _count_decoded)
    tracer.patch(wire, "recv_message", "wire.recv_message")
    tracer.patch(wire, "client_session", "wire.client_session")
    tracer.patch(
        covering, "generate_covering_array", "covering.generate_covering_array", _count_tuples
    )
    tracer.patch(covering, "verify_coverage", "covering.verify_coverage")
    tracer.patch(
        covering, "run_test_suite", "covering.run_test_suite",
        lambda units, args, result: _add(units, "suite.rows", len(args[0].rows)),
    )
