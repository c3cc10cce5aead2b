"""Per-layer metrics of a traced run, from the spans of tracing.Tracer.

Every workload prints every metric; a layer the workload never calls reads
0, which is the predicted flat value (README.md maps each metric to the
end-to-end metric it should move).
"""

from __future__ import annotations

from tracing import LayerStats, ratio

US, MS = 1e3, 1e6


def per_layer_metrics(client: LayerStats, units: dict, server=None) -> dict:
    """Metrics from the benchmark process's spans, plus the server's spans
    (spans, units) on the socket workload.

    Kernel, controller, scenario and wire timings are taken over both
    processes; client waiting, bytes and heartbeats per session over the
    client alone, and the session time over the server alone.
    """
    both = client
    server_stats = LayerStats([])
    if server is not None:
        server_stats = LayerStats(server[0])
        both = client.merged(server_stats)

    def per_call(stats, name, scale):
        return ratio(stats.total(name) / scale, stats.count(name))

    def per_unit(stats, name, unit, scale):
        return ratio(stats.total(name) / scale, units.get(unit, 0))

    sessions = client.count("wire.client_session")
    m = {
        "supervisor.run.ms_per_call": (per_call(both, "supervisor.run", MS), "ms"),
        "supervisor.step.us_per_call": (per_call(both, "supervisor.step", US), "us"),
        "supervisor.steps": (ratio(both.count("supervisor.step"), both.count("supervisor.run")), "count"),
        "supervisor.detect_collisions.us_per_call": (per_call(both, "supervisor.detect_collisions", US), "us"),
        "supervisor.sample_log_row.us_per_call": (per_call(both, "supervisor.sample_log_row", US), "us"),
        "supervisor.build_world.ms_per_call": (per_call(both, "supervisor.build_world", MS), "ms"),
        "supervisor.trajectory_to_csv.us_per_row": (
            per_unit(client, "supervisor.trajectory_to_csv", "csv.rows", US), "us"),
        "supervisor.server_session.ms": (per_call(server_stats, "supervisor.server_session", MS), "ms"),
        "controllers.radar_sense.us_per_call": (per_call(both, "controllers.radar_sense", US), "us"),
        "controllers.control.us_per_call": (per_call(both, "controllers.control", US), "us"),
        "controllers.pedestrian_step.us_per_call": (per_call(both, "controllers.pedestrian_step", US), "us"),
        "scenario.environment_from_json.ms_per_call": (
            per_call(both, "scenario.environment_from_json", MS), "ms"),
        "scenario.environment_to_json.ms_per_call": (
            per_call(both, "scenario.environment_to_json", MS), "ms"),
        "scenario.validate_environment.ms_per_call": (
            per_call(both, "scenario.validate_environment", MS), "ms"),
        "robustness.robustness.us_per_sample": (
            per_unit(client, "robustness.robustness", "robustness.samples", US), "us"),
        "robustness.convert_trajectory.ms_per_call": (
            per_call(client, "robustness.convert_trajectory", MS), "ms"),
        "falsify.system.ms_per_call": (per_call(client, "falsify.system", MS), "ms"),
        "falsify.search.self_ms": (ratio(client.self_total("falsify.search") / MS, client.count("falsify.search")), "ms"),
        "falsify.evaluations": (client.count("falsify.system"), "count"),
        "falsify.finite_ratio": (ratio(units.get("robustness.finite", 0), client.count("falsify.system")), "ratio"),
        "wire.encode_message.us_per_frame": (per_call(both, "wire.encode_message", US), "us"),
        "wire.decode_message.us_per_frame": (per_call(both, "wire.decode_message", US), "us"),
        "wire.bytes_per_session": (ratio(units.get("wire.bytes", 0), sessions), "bytes"),
        "wire.heartbeats_per_session": (ratio(units.get("wire.heartbeats", 0), sessions), "count"),
        "wire.client_wait_ms_per_session": (ratio(client.self_total("wire.recv_message") / MS, sessions), "ms"),
        "covering.generate_covering_array.ms_per_row": (
            per_unit(client, "covering.generate_covering_array", "covering.rows", MS), "ms"),
        "covering.verify_coverage.ms_per_call": (per_call(client, "covering.verify_coverage", MS), "ms"),
        "covering.tuples_per_row": (ratio(units.get("covering.tuples", 0), units.get("covering.rows", 0)), "ratio"),
        "covering.run_test_suite.ms_per_row": (
            per_unit(client, "covering.run_test_suite", "suite.rows", MS), "ms"),
        "cli.run_command.self_ms": (
            ratio(client.self_total("cli.run_command") / MS, client.count("cli.run_command")), "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
