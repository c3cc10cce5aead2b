"""Command-line entry point.

Commands: serve, run-scenario, run-ca, gen-ca, falsify, plot.  Exit codes:
0 on success, 2 for usage or validation problems, 3 for protocol or session
failures.  Each input file is read by one library loader through _load, so a
file that cannot be read or parsed exits 2 with one line, ``error: cannot
load <what> <path>: <detail>``; an output path that cannot be written exits 2
with ``error: cannot write <path>: <reason>``.  Simulation outputs are
deterministic functions of the input files; gen-ca and falsify outputs also
of their --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

from . import covering, falsify as fz, scenario, supervisor, wire

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PROTOCOL = 3


@dataclass
class CommandOutcome:
    """What a command did: its exit code and every file it wrote."""

    exit_code: int = EXIT_OK
    artifacts: list[str] = field(default_factory=list)


class CommandError(Exception):
    def __init__(self, message: str, exit_code: int = EXIT_USAGE):
        self.exit_code = exit_code
        super().__init__(message)


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdecimal() or not 1 <= int(port) <= 65535:
        raise CommandError(f"bad endpoint {text!r}; expected host:port with a port in 1-65535")
    return host, int(port)


def _load(what: str, load, path: str, *args):
    """load(path, *args); a file that cannot be read or parsed is a usage error."""
    try:
        return load(path, *args)
    except (OSError, ValueError) as exc:
        detail = exc.strerror if getattr(exc, "filename", None) == path else exc
        raise CommandError(f"cannot load {what} {path}: {detail}") from None


# --------------------------------------------------------------------------
# serve


def cmd_serve(args: argparse.Namespace) -> CommandOutcome:
    if not 0 <= args.port <= 65535:
        raise CommandError(f"--port must be in 0-65535, got {args.port}")
    try:
        server = supervisor.SupervisorServer(host=args.host, port=args.port)
    except OSError as exc:
        raise CommandError(f"cannot listen on {args.host}:{args.port}: {exc}")
    print(f"supervisor listening on {server.host}:{server.port}")
    with server:
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
    return CommandOutcome()


# --------------------------------------------------------------------------
# run-scenario


def cmd_run_scenario(args: argparse.Namespace) -> CommandOutcome:
    env, config = _load("scenario", scenario.load_scenario, args.scenario)
    violations = scenario.validate_environment(env)
    if violations:
        for v in violations:
            print(f"validation: {v}", file=sys.stderr)
        raise CommandError(f"scenario has {len(violations)} validation problem(s)")

    if args.embedded:
        try:
            result = supervisor.run_embedded(env, config)
        except supervisor.SetupError as exc:
            raise CommandError(str(exc))
        trajectory = result.trajectory
    else:
        endpoint = (
            _parse_endpoint(args.endpoint)
            if args.endpoint
            else (config.server_ip, config.server_port)
        )
        try:
            trajectory = wire.client_session(endpoint, env, config)
        except wire.ProtocolSessionError as exc:
            raise CommandError(str(exc), EXIT_PROTOCOL)

    print(f"simulated {config.sim_duration_ms} ms, {trajectory.n_rows} trace rows")
    outcome = CommandOutcome()
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write(supervisor.trajectory_to_csv(trajectory))
        outcome.artifacts.append(args.trace_out)
        print(f"trace written to {args.trace_out}")
    return outcome


# --------------------------------------------------------------------------
# run-ca


def cmd_run_ca(args: argparse.Namespace) -> CommandOutcome:
    if args.header_lines < 0:
        raise CommandError(f"--header-lines must be >= 0, got {args.header_lines}")
    binding = _load("bindings file", scenario.load_json, args.bindings, dict[str, str])
    env, config = _load("scenario", scenario.load_scenario, args.scenario)
    table = _load("test CSV", covering.load_experiment_data, args.csv, args.header_lines)

    try:
        result = covering.run_test_suite(table, env, config, binding, supervisor.run_embedded)
    except ValueError as exc:
        raise CommandError(str(exc))
    os.makedirs(args.out_dir, exist_ok=True)
    outcome = CommandOutcome()
    summary = {"rows": []}
    for index in range(len(table.rows)):
        entry: dict = {"index": index, "case": covering.get_experiment_all_fields(table, index)}
        if index in result.failures:
            entry["status"] = "failed"
            entry["error"] = result.failures[index]
        else:
            sim = result.outputs[index]
            trace_path = os.path.join(args.out_dir, f"trace_{index:03d}.csv")
            with open(trace_path, "w", encoding="utf-8") as fh:
                fh.write(supervisor.trajectory_to_csv(sim.trajectory))
            outcome.artifacts.append(trace_path)
            entry["status"] = "ok"
            entry["trace"] = os.path.basename(trace_path)
            entry["min_vehicle_gap_m"] = (
                None if math.isinf(sim.min_vehicle_gap) else sim.min_vehicle_gap
            )
            entry["collision"] = bool(sim.contacts)
        summary["rows"].append(entry)

    summary_path = os.path.join(args.out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    outcome.artifacts.append(summary_path)
    ok = sum(1 for e in summary["rows"] if e["status"] == "ok")
    print(f"{ok}/{len(table.rows)} test cases succeeded; summary at {summary_path}")
    return outcome


# --------------------------------------------------------------------------
# gen-ca


def cmd_gen_ca(args: argparse.Namespace) -> CommandOutcome:
    if args.strength < 1:
        raise CommandError(f"strength must be >= 1, got {args.strength}")
    params = _load("parameter file", covering.load_param_specs, args.params)
    if args.strength > len(params):
        raise CommandError(
            f"strength {args.strength} exceeds the {len(params)} declared parameters"
        )
    table = covering.generate_covering_array(params, args.strength, seed=args.seed)
    uncovered = covering.verify_coverage(table, params, args.strength)
    if uncovered:
        raise CommandError(f"internal error: generator left {len(uncovered)} tuples uncovered")
    covering.write_experiment_data(table, args.out)
    print(f"{len(table.rows)} test cases with full {args.strength}-way coverage -> {args.out}")
    return CommandOutcome(artifacts=[args.out])


# --------------------------------------------------------------------------
# falsify


def cmd_falsify(args: argparse.Namespace) -> CommandOutcome:
    study = _load("study", fz.load_study, args.study)
    if args.seed is not None:
        # set after the config is built, so its own check does not see it
        if args.seed < 0:
            raise CommandError(f"--seed must be >= 0, got {args.seed}")
        study.config.seed = args.seed

    try:
        results = fz.run_study(study)
    except (ValueError, fz.AllEvaluationsFailedError) as exc:
        raise CommandError(str(exc))
    fz.save_results(results, args.out)

    best = min(results, key=lambda r: r.best_robustness)
    if best.falsified:
        print(f"FALSIFIED rob={best.best_robustness!r} sample={best.best_sample}")
    else:
        print(f"NOT FALSIFIED best={best.best_robustness!r}")
    total = sum(r.n_simulations_used for r in results)
    print(f"{len(results)} run(s), {total} simulations; results at {args.out}")
    return CommandOutcome(artifacts=[args.out])


# --------------------------------------------------------------------------
# plot

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def render_svg(trajectory, pairs: list[tuple[str, str]]) -> str:
    """One polyline per requested x:y column pair, margins at 5% of extents."""
    names = scenario.column_names(trajectory.column_labels)
    col = {name: i for i, name in enumerate(names)}
    for x_name, y_name in pairs:
        for name in (x_name, y_name):
            if name not in col:
                raise CommandError(f"unknown trace column {name!r}; have {', '.join(names)}")
    if trajectory.n_rows == 0:
        raise CommandError("trace has no rows to plot")

    xs_all, ys_all = [], []
    series = []
    for x_name, y_name in pairs:
        xs = [float(v) for v in trajectory.rows[:, col[x_name]]]
        ys = [float(v) for v in trajectory.rows[:, col[y_name]]]
        series.append((xs, ys))
        xs_all.extend(xs)
        ys_all.extend(ys)

    def padded(lo: float, hi: float) -> tuple[float, float]:
        span = hi - lo
        pad = 0.05 * span if span > 0 else max(0.5, 0.05 * abs(hi) if hi else 0.5)
        return lo - pad, hi + pad

    x_lo, x_hi = padded(min(xs_all), max(xs_all))
    y_lo, y_hi = padded(min(ys_all), max(ys_all))

    width, height = 640.0, 480.0

    def to_px(x: float, y: float) -> tuple[float, float]:
        px = (x - x_lo) / (x_hi - x_lo) * width
        py = height - (y - y_lo) / (y_hi - y_lo) * height
        return px, py

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}" '
        f'data-extent-x="{x_lo!r} {x_hi!r}" data-extent-y="{y_lo!r} {y_hi!r}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    for k, ((xs, ys), (x_name, y_name)) in enumerate(zip(series, pairs)):
        color = _PALETTE[k % len(_PALETTE)]
        points = " ".join(
            f"{px:.3f},{py:.3f}" for px, py in (to_px(x, y) for x, y in zip(xs, ys))
        )
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'data-x="{x_name}" data-y="{y_name}" points="{points}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_plot(args: argparse.Namespace) -> CommandOutcome:
    trajectory = _load("trace", supervisor.load_trajectory_csv, args.trace)
    pairs = []
    for spec in args.columns:
        x_name, sep, y_name = spec.partition(":")
        if not sep or not x_name or not y_name:
            raise CommandError(f"bad column pair {spec!r}; expected xcol:ycol")
        pairs.append((x_name, y_name))
    svg = render_svg(trajectory, pairs)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"{len(pairs)} series plotted to {args.out}")
    return CommandOutcome(artifacts=[args.out])


# --------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avtestbed",
        description="Scenario simulation, combinatorial testing, and falsification tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="start a simulation supervisor server")
    p.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=10021, help="TCP port (default 10021)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("run-scenario", help="execute one scenario and collect its trace")
    p.add_argument("scenario", help="scenario JSON document")
    p.add_argument("--endpoint", help="supervisor host:port (default: from the scenario config)")
    p.add_argument("--embedded", action="store_true", help="run in-process without sockets")
    p.add_argument("--trace-out", help="write the trace as CSV to this path")
    p.set_defaults(func=cmd_run_scenario)

    p = sub.add_parser("run-ca", help="run every test case of a covering-array CSV")
    p.add_argument("csv", help="test table CSV")
    p.add_argument("scenario", help="scenario template JSON document")
    p.add_argument("bindings", help="JSON mapping of parameter name to scenario path")
    p.add_argument("--out-dir", default="ca_out", help="directory for traces and summary")
    p.add_argument("--header-lines", type=int, default=6, help="comment lines before the name row")
    p.add_argument("--seed", type=int, help="accepted for compatibility; has no effect")
    p.set_defaults(func=cmd_run_ca)

    p = sub.add_parser("gen-ca", help="generate a t-way covering array")
    p.add_argument("params", help="parameter system JSON file")
    p.add_argument("--strength", "-t", type=int, required=True, help="interaction strength t")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.set_defaults(func=cmd_gen_ca)

    p = sub.add_parser("falsify", help="robustness-guided search over a study file")
    p.add_argument("study", help="falsification study JSON file")
    p.add_argument("--out", default="results.json", help="results output path")
    p.add_argument("--seed", type=int, default=None, help="override the study seed")
    p.set_defaults(func=cmd_falsify)

    p = sub.add_parser("plot", help="render trace columns as an SVG path plot")
    p.add_argument("trace", help="trace CSV file")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument(
        "--columns",
        nargs="+",
        required=True,
        metavar="XCOL:YCOL",
        help="one or more column pairs, e.g. vehicle0_position_x:vehicle0_position_y",
    )
    p.set_defaults(func=cmd_plot)
    return parser


def run_command(argv: list[str] | None = None) -> CommandOutcome:
    """Parse and execute one command, reporting what it wrote."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CommandOutcome(exit_code=exc.exit_code)
    except OSError as exc:  # every read goes through _load, so this is an output path
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return CommandOutcome(exit_code=EXIT_USAGE)


def main(argv: list[str] | None = None) -> int:
    return run_command(argv).exit_code


if __name__ == "__main__":
    sys.exit(main())
