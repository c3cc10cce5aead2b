"""The benchmark's four workloads.

Each workload makes its inputs from the seed in ``setup``, runs one
operation of its own on a separate input in ``warm_up``, and then offers a
round of operations.  ``execute`` is the timed part: it drives the public
CLI (``avtestbed.cli.run_command``) or the library as a user would.
``check`` then reads what the operation produced and judges it with the
independent checks in ``checks.py``; it is never timed.

Why these four: each later optimisation has one workload where its layer
does most of the work and one where it does almost none (see README.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
from dataclasses import dataclass, field

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
STEP_MS = 10

# The demo box (tests/fixtures/demo_study.json): ego initial speed, ego start
# x and pedestrian speed, with the scenario paths they bind to.
DEMO_BOX = [
    ("ego_init_speed", 0.0, 15.0, "environment.initial_state_config_list[0].value"),
    ("ego_x_position", 15.0, 25.0, "environment.ego_vehicles_list[0].current_position[0]"),
    ("pedestrian_speed", 2.0, 5.0, "environment.pedestrians_list[0].target_speed"),
]
DEMO_DEFAULTS = {"ego_init_speed": 10.0, "ego_x_position": 20.0, "pedestrian_speed": 3.0}

# The bounded response requirement of bounded_requirement.json, as the
# naive evaluator's formula tuple.
BOUNDED_FORMULA = (
    "always",
    None,
    (
        "implies",
        ("and", ("atom", "ped_near"), ("atom", "ped_ahead")),
        ("until", (0.0, 1.0), ("atom", "ego_moving"), ("atom", "ego_slow")),
    ),
)

# ca_generate: one round is this fixed mix of (strength, domain sizes), so
# every seed carries the same amount of generator work.  The seed picks the
# parameter order, names and value labels and the generator seed.  The mix
# has an odd count, so the median command is one system, among systems of
# similar cost, rather than the mean of two that differ.
CA_MIX = [
    (2, [2, 3, 4, 5]),
    (2, [2, 2, 3, 4, 5]),
    (2, [3, 3, 3, 3, 4, 4]),
    (2, [2, 2, 3, 3, 4, 4, 5]),
    (2, [2, 2, 2, 3, 3, 3, 4, 5]),
    (3, [2, 3, 4, 5]),
    (3, [2, 2, 3, 3, 4]),
    (3, [2, 2, 2, 3, 3, 3]),
    (3, [2, 2, 2, 2, 2, 3, 3]),
    (3, [2, 2, 2, 2, 2, 2, 2, 2]),
    (3, [2, 2, 2, 2, 3, 3]),
]
CA_MIX_QUICK = [(2, [2, 3, 2, 2]), (3, [2, 2, 3, 2])]


@dataclass
class Checked:
    """What check() found for one operation."""

    ops: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # wrong output of ops that did not fail
    notes: list[str] = field(default_factory=list)  # why ops failed
    rows: int = 0  # rows of the outputs counted in row_outputs
    row_outputs: int = 0  # traces or arrays whose rows were counted
    digest: str = ""


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha1()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _quiet_command(argv: list[str]):
    """avtestbed.cli.run_command with its stdout and stderr captured."""
    from avtestbed import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        outcome = cli.run_command(argv)
    return outcome, err.getvalue()


_PATH_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)|\[(\d+)\]")


def bind(doc: dict, path: str, value: float) -> None:
    """Set the field at a dotted/indexed scenario path, e.g. 'a.b[0].c'."""
    keys = [m.group(1) if m.group(1) is not None else int(m.group(2)) for m in _PATH_TOKEN.finditer(path)]
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value


class Workload:
    name = ""

    def __init__(self, workdir: str, seed: int, quick: bool = False):
        self.workdir = workdir
        self.seed = seed
        self.quick = quick
        self.rng = random.Random(f"{self.name}:{seed}")
        os.makedirs(workdir, exist_ok=True)

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def ops(self) -> list:
        """One round of operations; every round repeats the same inputs."""
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def check(self, op, output) -> Checked:
        raise NotImplementedError

    def finish(self) -> Checked:
        """Checks that run once after timing; ops=0 adds no operations."""
        return Checked(ops=0)

    def helper_pids(self) -> list[int]:
        """Processes of the workload whose memory counts toward its peak."""
        return []

    def use_traced_helpers(self, spans_path: str) -> None:
        """Restart helper processes with tracing, writing spans to spans_path."""

    def close(self) -> None:
        """Stop every helper process; helper spans are written on close."""


# --------------------------------------------------------------------------
# campaign: run-ca over seeded tables of the demo scene's bound parameters


def _demo_scenario_doc(duration_ms: int) -> dict:
    from avtestbed import presets, scenario

    env, config = presets.demo_scenario(sim_duration_ms=duration_ms)
    return {"environment": scenario.environment_to_json(env), "config": scenario.config_to_json(config)}


def _table_csv(rows: list[list[str]]) -> str:
    names = [name for name, *_ in DEMO_BOX]
    preamble = [
        "# campaign table over the demo scene",
        "# columns: ego_init_speed (m/s), ego_x_position (m), pedestrian_speed (m/s)",
        "# '*' cells keep the template value",
        "# degree of interaction coverage: none (random rows)",
        f"# number of parameters: {len(names)}",
        f"# number of configurations: {len(rows)}",
    ]
    return "\n".join(preamble + [",".join(names)] + [",".join(r) for r in rows]) + "\n"


class Campaign(Workload):
    """avtestbed run-ca over seeded tables; 15 s scenes, every trace written."""

    name = "campaign"

    def setup(self) -> None:
        self.duration_ms = 1000 if self.quick else 15000
        n_tables, rows_per_table = (1, 2) if self.quick else (4, 4)
        _write_json(self.path("scenario.json"), _demo_scenario_doc(self.duration_ms))
        _write_json(self.path("bindings.json"), {name: binding for name, _, _, binding in DEMO_BOX})
        self.tables = []
        for t in range(n_tables + 1):
            rows = [self._row() for _ in range(1 if t == n_tables else rows_per_table)]
            table_path = self.path(f"table_{t}.csv")
            with open(table_path, "w", encoding="utf-8") as fh:
                fh.write(_table_csv(rows))
            self.tables.append((table_path, rows))
        self.warm_table = self.tables.pop()

    def _row(self) -> list[str]:
        # one cell in ten is don't-care, which keeps the template value
        return [
            "*" if self.rng.random() < 0.1 else f"{self.rng.uniform(lo, hi):.3f}"
            for _, lo, hi, _ in DEMO_BOX
        ]

    def warm_up(self) -> None:
        self.check(self.warm_table, self.execute(self.warm_table))

    def ops(self) -> list:
        return self.tables

    def execute(self, op):
        table_path, _ = op
        out_dir = self.path("out_" + os.path.basename(table_path)[:-4])
        outcome, err = _quiet_command(
            ["run-ca", table_path, self.path("scenario.json"), self.path("bindings.json"),
             "--out-dir", out_dir, "--seed", "0"]
        )
        return outcome.exit_code, err, out_dir

    def check(self, op, output) -> Checked:
        _, rows = op
        exit_code, err, out_dir = output
        result = Checked(ops=len(rows))
        if exit_code != 0:
            result.failed = len(rows)
            result.notes.append(f"run-ca exited {exit_code}: {err.strip()}")
            return result
        summary_bytes = _read(os.path.join(out_dir, "summary.json"))
        entries = json.loads(summary_bytes)["rows"]
        if len(entries) != len(rows):
            result.problems.append(f"summary has {len(entries)} rows for {len(rows)} table rows")
            return result
        names = [name for name, *_ in DEMO_BOX]
        chunks = [summary_bytes]
        for entry, row in zip(entries, rows):
            if entry["case"] != dict(zip(names, row)):
                result.problems.append(f"summary row {entry['index']} case {entry['case']} != {row}")
            if entry["status"] == "failed":
                result.failed += 1
                result.notes.append(f"row {entry['index']} failed: {entry.get('error')}")
                continue
            trace_bytes = _read(os.path.join(out_dir, entry["trace"]))
            chunks.append(trace_bytes)
            header, trace = checks.read_trace_csv(trace_bytes.decode("utf-8"))
            result.rows += len(trace)
            result.row_outputs += 1
            problems = checks.check_trace(header, trace, self.duration_ms, STEP_MS)
            problems += self._check_start(header, trace, dict(zip(names, row)))
            result.problems += [f"{entry['trace']}: {p}" for p in problems]
        result.digest = _sha(*chunks)
        return result

    @staticmethod
    def _check_start(header, trace, case) -> list[str]:
        """The bound cells show in the first step: ego x and speed at t=0,
        and the pedestrian's first step length."""
        want = {name: DEMO_DEFAULTS[name] if cell == "*" else float(cell) for name, cell in case.items()}
        col = {name: i for i, name in enumerate(header)}
        got_x = trace[0][col["vehicle0_position_x"]]
        got_v = trace[0][col["vehicle0_speed"]]
        step = math.hypot(
            trace[1][col["pedestrian0_position_x"]] - trace[0][col["pedestrian0_position_x"]],
            trace[1][col["pedestrian0_position_y"]] - trace[0][col["pedestrian0_position_y"]],
        )
        problems = []
        if got_x != want["ego_x_position"]:
            problems.append(f"ego starts at x={got_x!r}, table says {want['ego_x_position']!r}")
        if got_v != want["ego_init_speed"]:
            problems.append(f"ego starts at {got_v!r} m/s, table says {want['ego_init_speed']!r}")
        if abs(step - want["pedestrian_speed"] * STEP_MS / 1000.0) > checks.XY_TOLERANCE:
            problems.append(f"pedestrian first step {step!r} m for {want['pedestrian_speed']!r} m/s")
        return problems


# --------------------------------------------------------------------------
# falsify_bounded: full-budget annealing against a bounded-until requirement


class FalsifyBounded(Workload):
    """avtestbed falsify over the demo box with falsification_mode off."""

    name = "falsify_bounded"

    def setup(self) -> None:
        with open(os.path.join(HERE, "bounded_study.json"), encoding="utf-8") as fh:
            study = json.load(fh)
        with open(os.path.join(HERE, "bounded_requirement.json"), encoding="utf-8") as fh:
            self.requirement = json.load(fh)
        if self.requirement["formula"] != checks.format_formula(BOUNDED_FORMULA):
            raise ValueError("bounded_requirement.json and BOUNDED_FORMULA disagree")
        if self.quick:
            study["config"].update(n_tests=2, sim_duration_s=1.0)
        self.budget = study["config"]["n_tests"]
        self.duration_ms = round(1000 * study["config"]["sim_duration_s"])
        self.period_ms = round(1000 * study["config"]["samp_time_s"])
        self.box = [(d["lo"], d["hi"]) for d in study["space"]]
        self.bindings = [d["binding"] for d in study["space"]]
        self.scenario_doc = _demo_scenario_doc(self.duration_ms)
        _write_json(self.path("scenario.json"), self.scenario_doc)
        _write_json(self.path("bounded_requirement.json"), self.requirement)
        _write_json(self.path("study.json"), study)
        study["config"]["n_tests"] = 1
        _write_json(self.path("warm_study.json"), study)
        n_commands = 1 if self.quick else 2
        self.seeds = [self.rng.randrange(2**31) for _ in range(n_commands)]
        self.evaluated: list[tuple[list[float], float]] = []

    def warm_up(self) -> None:
        _quiet_command(["falsify", self.path("warm_study.json"), "--out", self.path("warm.json")])

    def ops(self) -> list:
        return self.seeds

    def execute(self, op):
        out = self.path(f"results_{op}.json")
        outcome, err = _quiet_command(
            ["falsify", self.path("study.json"), "--out", out, "--seed", str(op)]
        )
        return outcome.exit_code, err, out

    def check(self, op, output) -> Checked:
        exit_code, err, out = output
        result = Checked(ops=self.budget)
        if exit_code != 0:
            result.failed = self.budget
            result.notes.append(f"falsify exited {exit_code}: {err.strip()}")
            return result
        data = _read(out)
        result.digest = _sha(data)
        runs = json.loads(data)["results"]
        if len(runs) != 1:
            result.problems.append(f"{len(runs)} runs in the results, expected 1")
            return result
        run = runs[0]
        history = [(sample, float(rob)) for sample, rob in run["history"]]
        if run["n_simulations_used"] != self.budget or len(history) != self.budget:
            result.problems.append(
                f"{run['n_simulations_used']} simulations and {len(history)} history entries "
                f"for a budget of {self.budget}"
            )
        for sample, rob in history:
            if len(sample) != len(self.box) or not all(
                lo <= v <= hi for v, (lo, hi) in zip(sample, self.box)
            ):
                result.problems.append(f"sample {sample} lies outside the box {self.box}")
            if math.isinf(rob) and rob > 0:
                # the search records a failed evaluation as +inf, with no reason
                result.failed += 1
                result.notes.append(f"evaluation of {sample} gave +inf")
            else:
                self.evaluated.append((sample, rob))
        robs = [rob for _, rob in history]
        if history and float(run["best_robustness"]) != min(robs):
            result.problems.append(
                f"best_robustness {run['best_robustness']!r} is not the history minimum {min(robs)!r}"
            )
        return result

    def finish(self) -> Checked:
        """Re-simulate the best and the worst evaluated samples and recompute
        their robustness with the naive evaluator."""
        result = Checked(ops=0)
        if not self.evaluated:
            return result
        by_rob = sorted(self.evaluated, key=lambda item: item[1])
        for sample, recorded in {id(x): x for x in (by_rob[0], by_rob[-1])}.values():
            header, rows = self.simulate(sample)
            result.rows += len(rows)
            result.row_outputs += 1
            result.problems += checks.check_trace(header, rows, self.duration_ms, self.period_ms)
            recomputed = checks.naive_robustness(
                BOUNDED_FORMULA, self.requirement["predicates"], header, rows
            )
            if not checks.same_robustness(recorded, recomputed):
                result.problems.append(
                    f"sample {sample}: recorded robustness {recorded!r}, naive evaluator gives {recomputed!r}"
                )
        return result

    def simulate(self, sample) -> tuple[list[str], list[list[float]]]:
        from avtestbed import scenario, supervisor

        doc = json.loads(json.dumps(self.scenario_doc))
        for path, value in zip(self.bindings, sample):
            bind(doc, path, float(value))
        env = scenario.environment_from_json(doc["environment"])
        config = scenario.config_from_json(doc["config"])
        env.data_log_period_ms = self.period_ms
        config.sim_duration_ms = self.duration_ms
        trajectory = supervisor.run_embedded(env, config).trajectory
        return scenario.column_names(trajectory.column_labels), trajectory.rows.tolist()


# --------------------------------------------------------------------------
# socket_sync: back-to-back WITH_SYNC sessions against `avtestbed serve`


class ServerProcess:
    """`avtestbed serve` (or the traced launcher) as a child process."""

    def __init__(self, spans_path: str | None = None):
        env = dict(os.environ, PYTHONPATH=SRC)
        if spans_path is None:
            argv = [sys.executable, "-u", "-m", "avtestbed.cli", "serve", "--port", "0"]
        else:
            argv = [sys.executable, "-u", os.path.join(HERE, "traced_server.py"), spans_path]
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
        line = self.proc.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.endpoint = (match.group(1), int(match.group(2)))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class SocketSync(Workload):
    """client_session of a 3 s demo scene, heartbeat every step, WITH_SYNC."""

    name = "socket_sync"

    def setup(self) -> None:
        from avtestbed import presets
        from avtestbed.scenario import HeartbeatConfig, SyncType

        self.duration_ms = 300 if self.quick else 3000
        self.server = ServerProcess()
        self.scenes = []
        for _ in range(2 if self.quick else 8):
            values = [self.rng.uniform(lo, hi) for _, lo, hi, _ in DEMO_BOX]
            env = presets.demo_environment(
                *values, heartbeat=HeartbeatConfig(SyncType.WITH_SYNC, period_ms=STEP_MS)
            )
            self.scenes.append((env, presets.demo_config(self.duration_ms)))
        self.references: dict[int, object] = {}

    def warm_up(self) -> None:
        self.execute(0)

    def ops(self) -> list:
        return list(range(len(self.scenes)))

    def execute(self, op):
        from avtestbed import wire

        env, config = self.scenes[op]
        beats = []
        try:
            trajectory = wire.client_session(self.server.endpoint, env, config, on_heartbeat=beats.append)
        except wire.ProtocolSessionError as exc:
            return exc, beats
        return trajectory, beats

    def check(self, op, output) -> Checked:
        from avtestbed import scenario, wire

        trajectory, beats = output
        result = Checked(ops=1)
        if isinstance(trajectory, Exception):
            result.failed = 1
            result.notes.append(f"session failed: {trajectory}")
            return result
        n_beats = self.duration_ms // STEP_MS
        statuses = [wire.HeartbeatStatus.RUNNING] * (n_beats - 1) + [wire.HeartbeatStatus.FINISHED]
        if [b.sim_time_ms for b in beats] != [STEP_MS * (k + 1) for k in range(n_beats)] or [
            b.status for b in beats
        ] != statuses:
            result.problems.append(f"{len(beats)} heartbeats, expected {n_beats} ending FINISHED")
        rows = trajectory.rows.tolist()
        header = scenario.column_names(trajectory.column_labels)
        result.problems += checks.check_trace(header, rows, self.duration_ms, STEP_MS)
        result.rows, result.row_outputs = len(rows), 1
        result.digest = _sha(trajectory.rows.tobytes())
        if trajectory != self._embedded(op):
            result.failed = 1
            result.notes.append(f"session trace of scene {op} differs from the embedded run")
        return result

    def _embedded(self, op):
        """The embedded run of scene op, made once in the first (untraced)
        round that checks it."""
        from avtestbed import supervisor

        if op not in self.references:
            env, config = self.scenes[op]
            self.references[op] = supervisor.run_embedded(env, config).trajectory
        return self.references[op]

    def helper_pids(self) -> list[int]:
        return [self.server.proc.pid]

    def use_traced_helpers(self, spans_path: str) -> None:
        self.server.stop()
        self.server = ServerProcess(spans_path)

    def close(self) -> None:
        self.server.stop()


# --------------------------------------------------------------------------
# ca_generate: gen-ca over a seeded set of parameter systems


class CaGenerate(Workload):
    """avtestbed gen-ca over a seeded set of t=2 and t=3 parameter systems."""

    name = "ca_generate"

    def setup(self) -> None:
        self.systems = []
        mix = CA_MIX_QUICK if self.quick else CA_MIX
        for k, (strength, sizes) in enumerate(mix + [(2, [2, 2, 2, 2])]):
            sizes = list(sizes)
            self.rng.shuffle(sizes)
            params = []
            for i, size in enumerate(sizes):
                labels = self.rng.sample(range(100), size)
                params.append((f"p{i}_{self.rng.randrange(1000)}", [f"v{v}" for v in labels]))
            path = self.path(f"system_{k}.json")
            _write_json(path, {"parameters": [{"name": n, "values": v} for n, v in params]})
            self.systems.append((path, strength, params, self.rng.randrange(2**31)))
        self.warm_system = self.systems.pop()

    def warm_up(self) -> None:
        self.execute(self.warm_system)

    def ops(self) -> list:
        return self.systems

    def execute(self, op):
        path, strength, _, gen_seed = op
        out = path[:-5] + ".csv"
        outcome, err = _quiet_command(
            ["gen-ca", path, "--strength", str(strength), "--out", out, "--seed", str(gen_seed)]
        )
        return outcome.exit_code, err, out

    def check(self, op, output) -> Checked:
        _, strength, params, _ = op
        exit_code, err, out = output
        result = Checked(ops=1)
        if exit_code != 0:
            result.failed = 1
            result.notes.append(f"gen-ca exited {exit_code}: {err.strip()}")
            return result
        data = _read(out)
        result.digest = _sha(data)
        names, rows = checks.read_table_csv(data.decode("utf-8"))
        uncovered, problems = checks.check_covering_array(names, rows, params, strength)
        if uncovered:
            result.failed = 1
            result.notes.append(f"{out}: {uncovered} uncovered {strength}-tuples")
        else:
            result.rows, result.row_outputs = len(rows), 1
        result.problems += problems
        return result


WORKLOADS = {w.name: w for w in (Campaign, FalsifyBounded, SocketSync, CaGenerate)}
