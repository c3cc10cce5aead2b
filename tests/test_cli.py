import functools
import json
import operator
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading

import pytest

from avtestbed import covering, presets, scenario, supervisor, wire
from avtestbed.cli import main, run_command


def write_demo_scenario(path, duration_ms=200, **kwargs):
    env, config = presets.demo_scenario(sim_duration_ms=duration_ms, **kwargs)
    scenario.save_scenario(env, config, str(path))
    return str(path)


def write_edited_demo_scenario(path, keys, value, duration_ms=200):
    """The demo scenario document with the value at keys replaced."""
    env, config = presets.demo_scenario(sim_duration_ms=duration_ms)
    doc = json.loads(scenario.serialize_scenario(env, config))
    *parents, last = keys
    functools.reduce(operator.getitem, parents, doc)[last] = value
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


# (document keys, value, the one violation) of scenarios that no run accepts:
# first for the rules of a run, then for the arguments of a controller
RUN_RULE_CASES = [
    (("environment", "data_log_period_ms"), 15,
     "data_log_period_ms: log period 15 ms is not a positive multiple of the step size 10 ms"),
    (("config", "run_config_arr"), [], "config.run_config_arr: must contain at least one entry"),
    (("environment", "data_log_period_ms"), None,
     "data_log_period_ms: must be set when log items are declared"),
]
RUN_RULE_IDS = ["period-off-the-step-grid", "no-run-config", "columns-without-period"]
CONTROLLER_ARGUMENT_CASES = [
    (("environment", "agent_vehicles_list", 0, "controller_arguments"), [],
     "agent_vehicles_list[0].controller_arguments: "
     "path_and_speed_follower requires a target speed argument"),
    (("environment", "ego_vehicles_list", 0, "controller_arguments", 1), "fast",
     "ego_vehicles_list[0].controller_arguments: "
     "automated_driving_with_fusion2 numeric argument is malformed: ['fast', '0.0']"),
    (("environment", "ego_vehicles_list", 0, "controller_arguments", 3), "one",
     "ego_vehicles_list[0].controller_arguments: "
     "automated_driving_with_fusion2 vehicle id 'one' is not an integer"),
]
CONTROLLER_ARGUMENT_IDS = ["follower-without-speed", "fusion-speed-fast", "fusion-id-one"]


class TestHelp:
    @pytest.mark.parametrize(
        "command", ["serve", "run-scenario", "run-ca", "gen-ca", "falsify", "plot"]
    )
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "usage" in out

    @pytest.mark.parametrize(
        "argv",
        [["serve", "--port", "0", "--seed", "0"], ["run-scenario", "s.json", "--seed", "0"]],
    )
    def test_kernel_seed_option_is_rejected(self, argv, capsys, monkeypatch):
        def no_command(*args, **kwargs):
            raise AssertionError("ran a command with a --seed it should reject")

        monkeypatch.setattr(supervisor, "SupervisorServer", no_command)
        monkeypatch.setattr(supervisor, "run_embedded", no_command)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err

    def test_commands_in_one_process_share_the_parser(
        self, tmp_path, fixtures_dir, capsys, monkeypatch
    ):
        from avtestbed import cli

        build, built = cli.build_parser, []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        params = os.path.join(fixtures_dir, "demo_params.json")
        outcomes = []
        for name in ("a.csv", "b.csv"):
            out = str(tmp_path / name)
            outcomes.append((main(["gen-ca", params, "-t", "2", "--out", out]),
                             open(out).read()))
            outcomes.append((main(["gen-ca", params, "-t", "0", "--out", out]),
                             capsys.readouterr().err))
            with pytest.raises(SystemExit) as exit_info:
                main(["gen-ca", "--help"])
            outcomes.append((exit_info.value.code, capsys.readouterr().out))
        assert len(built) == 1
        assert outcomes[:3] == outcomes[3:]
        assert outcomes[1] == (2, "error: strength must be >= 1, got 0\n")
        assert outcomes[2][0] == 0 and outcomes[2][1].startswith("usage: avtestbed gen-ca")


class TestRunScenario:
    def test_embedded_run_writes_trace(self, tmp_path, demo_scenario_path):
        out = tmp_path / "trace.csv"
        outcome = run_command(
            ["run-scenario", demo_scenario_path, "--embedded", "--trace-out", str(out)]
        )
        assert outcome.exit_code == 0
        assert outcome.artifacts == [str(out)]
        text = out.read_text()
        lines = text.strip().splitlines()
        assert len(lines) == 1 + 1501
        assert lines[0].startswith("time_ms,")

    def test_invalid_scenario_exits_2(self, tmp_path, capsys):
        env, config = presets.demo_scenario()
        env.ego_vehicles_list[0].controller = "no_such_ctrl"
        bad = tmp_path / "bad.json"
        scenario.save_scenario(env, config, str(bad))
        code = main(["run-scenario", str(bad), "--embedded"])
        assert code == 2
        err = capsys.readouterr().err
        assert "validation" in err

    def test_missing_file_exits_2(self):
        assert main(["run-scenario", "/nonexistent.json", "--embedded"]) == 2

    @pytest.mark.parametrize("port", ["0", "65536", "75536"])
    def test_endpoint_port_out_of_range_exits_2(self, tmp_path, capsys, monkeypatch, port):
        def no_session(*args, **kwargs):
            raise AssertionError("opened a session to an out-of-range port")

        monkeypatch.setattr(wire, "client_session", no_session)
        scenario_path = write_demo_scenario(tmp_path / "scn.json")
        assert main(["run-scenario", scenario_path, "--endpoint", f"127.0.0.1:{port}"]) == 2
        assert capsys.readouterr().err == (
            f"error: bad endpoint '127.0.0.1:{port}'; expected host:port with a port in 1-65535\n"
        )

    def test_config_port_out_of_range_exits_2(self, tmp_path, capsys):
        scenario_path = write_demo_scenario(tmp_path / "scn.json")
        with open(scenario_path) as fh:
            text = fh.read().replace('"server_port": 10021', '"server_port": 75536')
        with open(scenario_path, "w") as fh:
            fh.write(text)
        assert main(["run-scenario", scenario_path]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot load scenario {scenario_path}: "
            "config.server_port: must be in 1-65535, got 75536\n"
        )

    def test_socket_and_embedded_traces_are_identical(self, tmp_path):
        scenario_path = write_demo_scenario(tmp_path / "scn.json", duration_ms=1000)
        embedded_csv = tmp_path / "embedded.csv"
        assert main(["run-scenario", scenario_path, "--embedded",
                     "--trace-out", str(embedded_csv)]) == 0

        server = supervisor.SupervisorServer(host="127.0.0.1", port=0)
        server.start()
        try:
            socket_csv = tmp_path / "socket.csv"
            code = main([
                "run-scenario", scenario_path,
                "--endpoint", f"127.0.0.1:{server.port}",
                "--trace-out", str(socket_csv),
            ])
            assert code == 0
            assert socket_csv.read_bytes() == embedded_csv.read_bytes()
        finally:
            server.stop()

    def test_embedded_run_that_overflows_exits_2_and_writes_no_trace(self, tmp_path, capsys):
        # finite inputs, but the ego's first step overflows its x position
        scenario_path = write_demo_scenario(
            tmp_path / "scn.json", duration_ms=100,
            ego_init_speed_m_s=1e308, ego_x_pos=1.797e308,
        )
        out = tmp_path / "trace.csv"
        assert main(["run-scenario", scenario_path, "--embedded", "--trace-out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: the run overflowed: column vehicle0_position_x is inf at 10 ms\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "duration_ms, kwargs, message",
        [
            (100, {"ego_init_speed_m_s": 1e308, "ego_x_pos": 1.797e308},
             "the run overflowed: column vehicle0_position_x is inf at 10 ms"),
            (10**10, {},
             "a trace of 1000000001 rows of 11 columns cannot fit in a frame of 67108864 bytes"),
        ],
        ids=["overflow", "cannot-fit"],
    )
    def test_supervisor_error_100_exits_2_as_embedded(
        self, tmp_path, capsys, duration_ms, kwargs, message
    ):
        scenario_path = write_demo_scenario(tmp_path / "scn.json", duration_ms, **kwargs)
        out = tmp_path / "trace.csv"
        server = supervisor.SupervisorServer(host="127.0.0.1", port=0)
        server.start()
        try:
            code = main([
                "run-scenario", scenario_path,
                "--endpoint", f"127.0.0.1:{server.port}",
                "--trace-out", str(out),
            ])
        finally:
            server.stop()
        assert code == 2
        assert capsys.readouterr().err == f"error: supervisor error 100: {message}\n"
        assert not out.exists()

    def test_embedded_and_endpoint_together_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("ran a scenario given both --embedded and --endpoint")

        monkeypatch.setattr(supervisor, "run_embedded", no_run)
        monkeypatch.setattr(wire, "client_session", no_run)
        scenario_path = write_demo_scenario(tmp_path / "scn.json")
        with pytest.raises(SystemExit) as exit_info:
            main(["run-scenario", scenario_path, "--embedded", "--endpoint", "127.0.0.1:1"])
        assert exit_info.value.code == 2
        assert "argument --endpoint: not allowed with argument --embedded" in (
            capsys.readouterr().err
        )

    def test_unreachable_endpoint_exits_3(self, tmp_path):
        scenario_path = write_demo_scenario(tmp_path / "scn.json")
        # grab a port and leave it closed
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        code = main(["run-scenario", scenario_path, "--endpoint", f"127.0.0.1:{dead_port}"])
        assert code == 3

    @pytest.mark.parametrize(
        "keys, value, violation", RUN_RULE_CASES + CONTROLLER_ARGUMENT_CASES,
        ids=RUN_RULE_IDS + CONTROLLER_ARGUMENT_IDS,
    )
    def test_scenario_that_cannot_run_exits_2_on_both_paths_alike(
        self, tmp_path, capsys, monkeypatch, keys, value, violation
    ):
        def no_session(*args, **kwargs):
            raise AssertionError("attempted a round trip for a scenario that cannot run")

        monkeypatch.setattr(wire, "client_session", no_session)
        scenario_path = write_edited_demo_scenario(tmp_path / "scn.json", keys, value)
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()

        assert main(["run-scenario", scenario_path, "--embedded"]) == 2
        embedded = capsys.readouterr().err
        assert main(["run-scenario", scenario_path, "--endpoint", f"127.0.0.1:{dead_port}"]) == 2
        assert capsys.readouterr().err == embedded == (
            f"validation: {violation}\nerror: scenario has 1 validation problem(s)\n"
        )

    @pytest.mark.parametrize(
        "answer_hello, message",
        [
            # a 1-byte frame whose tag names no message
            (lambda conn: conn.sendall(struct.pack(">I", 1) + b"\x7f"),
             "session failed: unknown message tag 0x7f"),
            # linger 0 makes close() reset the connection
            (lambda conn: conn.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)),
             "session failed: "),
        ],
        ids=["unknown_tag", "reset"],
    )
    def test_bad_peer_exits_3(self, tmp_path, capsys, answer_hello, message):
        scenario_path = write_demo_scenario(tmp_path / "scn.json")
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()

        def stub_server():
            conn, _ = listener.accept()
            with conn:
                assert isinstance(wire.recv_message(conn), wire.Hello)
                answer_hello(conn)

        thread = threading.Thread(target=stub_server, daemon=True)
        thread.start()
        try:
            endpoint = f"127.0.0.1:{listener.getsockname()[1]}"
            code = main(["run-scenario", scenario_path, "--endpoint", endpoint])
        finally:
            thread.join(timeout=5.0)
            listener.close()
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


class TestServe:
    def test_port_in_use_exits_2(self, capsys):
        blocker = socket.socket()
        blocker.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen()
        port = blocker.getsockname()[1]
        try:
            code = main(["serve", "--port", str(port)])
            assert code == 2
            assert "cannot listen" in capsys.readouterr().err
        finally:
            blocker.close()


    @pytest.mark.parametrize("port", ["-1", "65536", "99999"])
    def test_port_out_of_range_exits_2(self, capsys, port):
        assert main(["serve", "--port", port]) == 2
        assert capsys.readouterr().err == f"error: --port must be in 0-65535, got {port}\n"

    def test_sigint_stops_serve_with_exit_0(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(supervisor.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        argv = [sys.executable, "-u", "-m", "avtestbed.cli", "serve", "--port", "0"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
        try:
            match = re.search(r"listening on ([\d.]+):(\d+)", proc.stdout.readline())
            assert match is not None
            scene, config = presets.demo_scenario(sim_duration_ms=100)
            endpoint = (match.group(1), int(match.group(2)))
            assert wire.client_session(endpoint, scene, config).n_rows == 11
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()


class TestGenCa:
    def test_pairwise_output_passes_coverage(self, tmp_path, fixtures_dir, capsys):
        out = tmp_path / "ca.csv"
        params_file = os.path.join(fixtures_dir, "demo_params.json")
        code = main(["gen-ca", params_file, "--strength", "2", "--out", str(out)])
        assert code == 0
        table = covering.load_experiment_data(str(out))
        params = covering.load_param_specs(params_file)
        assert covering.verify_coverage(table, params, 2) == []
        assert 16 <= len(table.rows) <= 24

    def test_full_strength_is_exhaustive(self, tmp_path, fixtures_dir):
        out = tmp_path / "ca3.csv"
        params_file = os.path.join(fixtures_dir, "demo_params.json")
        assert main(["gen-ca", params_file, "--strength", "3", "--out", str(out)]) == 0
        table = covering.load_experiment_data(str(out))
        assert len(table.rows) == 48

    def test_zero_strength_is_usage_error(self, tmp_path, fixtures_dir):
        params_file = os.path.join(fixtures_dir, "demo_params.json")
        code = main(["gen-ca", params_file, "--strength", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_negative_seed_exits_2(self, tmp_path, fixtures_dir, capsys):
        # random.Random(-5) is random.Random(5): the two would write one table
        params_file = os.path.join(fixtures_dir, "demo_params.json")
        out = tmp_path / "ca.csv"
        assert main(["gen-ca", params_file, "-t", "2", "--out", str(out), "--seed", "-5"]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -5\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "parameters, named",
        [
            ([("a", ["1", "2"]), ("a", ["1", "2"]), ("b", ["1", "2"])], "'a'"),
            ([("a", ["1,5", "2"]), ("b", ["1", "2"])], "'a'"),
            ([("a", ["1", "2"]), ("b", ["*", "2"])], "'b'"),
            ([("a", ["1", "2"]), ("b", ["1", " 2"])], "'b'"),
            ([("a", ["1", "2"]), ("b\nc", ["1", "2"])], "'b\\nc'"),
            ([("a", ["1", "1.0", "2"]), ("b", ["5", "6"])], "'a'"),
        ],
        ids=[
            "duplicate-name",
            "comma-value",
            "dont-care-value",
            "padded-value",
            "newline-name",
            "numerically-equal-values",
        ],
    )
    def test_system_that_cannot_round_trip_exits_2(self, tmp_path, capsys, parameters, named):
        params_file = tmp_path / "params.json"
        params_file.write_text(
            json.dumps({"parameters": [{"name": n, "values": v} for n, v in parameters]})
        )
        out = tmp_path / "ca.csv"
        code = main(["gen-ca", str(params_file), "--strength", "2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and named in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "document, message",
        [
            ({"parameters": [{"name": "a", "values": ["1", None, True]}]},
             "document.parameters[0].values[1]: expected string, got null"),
            ({"parameters": [{"name": 5, "values": ["x", "y"]}]},
             "document.parameters[0].name: expected string, got number"),
            ({"parameters": [{"name": "a", "values": ["1", "2"]}], "extra": 1},
             "document.extra: unknown field"),
            ({"parameters": [{"name": "a", "values": ["1"], "weight": 2}]},
             "document.parameters[0].weight: unknown field"),
            ({"parameters": [{"name": "a", "values": [1, None, True]},
                             {"name": 5, "values": ["x", "y"]}], "extra": 1},
             "document.extra: unknown field"),
        ],
        ids=["null-value", "numeric-name", "unknown-top-level-key", "unknown-entry-key",
             "all-at-once"],
    )
    def test_parameter_file_of_non_strings_or_unknown_keys_exits_2(
        self, tmp_path, capsys, document, message
    ):
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps(document))
        out = tmp_path / "ca.csv"
        code = main(["gen-ca", str(params_file), "--strength", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: cannot load parameter file {params_file}: {message}\n"
        )
        assert not out.exists()


class TestRunCa:
    def make_inputs(self, tmp_path, rows):
        csv_path = tmp_path / "cases.csv"
        lines = ["#"] * 6 + ["ego_init_speed,ego_x_position,pedestrian_speed"] + rows
        csv_path.write_text("\n".join(lines) + "\n")
        scenario_path = write_demo_scenario(tmp_path / "scn.json", duration_ms=200)
        bindings_path = tmp_path / "bindings.json"
        bindings_path.write_text(json.dumps({
            "ego_init_speed": "environment.initial_state_config_list[0].value",
            "ego_x_position": "environment.ego_vehicles_list[0].current_position[0]",
            "pedestrian_speed": "environment.pedestrians_list[0].target_speed",
        }))
        return str(csv_path), scenario_path, str(bindings_path)

    def test_traces_and_summary_written(self, tmp_path):
        csv_path, scenario_path, bindings = self.make_inputs(
            tmp_path, ["0,20,2", "5,25,3", "10,15,4"]
        )
        out_dir = tmp_path / "out"
        outcome = run_command(
            ["run-ca", csv_path, scenario_path, bindings, "--out-dir", str(out_dir)]
        )
        assert outcome.exit_code == 0
        assert len(outcome.artifacts) == 4  # three traces plus the summary
        assert outcome.artifacts[-1].endswith("summary.json")
        summary = json.loads((out_dir / "summary.json").read_text())
        assert len(summary["rows"]) == 3
        for i, entry in enumerate(summary["rows"]):
            assert entry["status"] == "ok"
            assert (out_dir / entry["trace"]).exists()
            assert "min_vehicle_gap_m" in entry
            assert entry["collision"] in (False, True)

    def test_bad_row_marked_failed_but_exit_0(self, tmp_path):
        csv_path, scenario_path, bindings = self.make_inputs(
            tmp_path, ["0,20,2", "oops,20,3"]
        )
        out_dir = tmp_path / "out"
        code = main(["run-ca", csv_path, scenario_path, bindings, "--out-dir", str(out_dir)])
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        statuses = [e["status"] for e in summary["rows"]]
        assert statuses == ["ok", "failed"]

    def test_row_that_overflows_is_recorded_failed(self, tmp_path):
        csv_path, scenario_path, bindings = self.make_inputs(
            tmp_path, ["0,20,2", "1e308,1.797e308,3"]
        )
        out_dir = tmp_path / "out"
        assert main(["run-ca", csv_path, scenario_path, bindings, "--out-dir", str(out_dir)]) == 0
        rows = json.loads((out_dir / "summary.json").read_text())["rows"]
        assert [entry["status"] for entry in rows] == ["ok", "failed"]
        assert rows[1]["error"] == (
            "the run overflowed: column vehicle0_position_x is inf at 10 ms"
        )
        assert sorted(os.listdir(out_dir)) == ["summary.json", "trace_000.csv"]

    @pytest.mark.parametrize(
        "keys, value, violation", RUN_RULE_CASES + CONTROLLER_ARGUMENT_CASES,
        ids=RUN_RULE_IDS + CONTROLLER_ARGUMENT_IDS,
    )
    def test_template_no_row_can_run_exits_2_before_any_row(
        self, tmp_path, capsys, monkeypatch, keys, value, violation
    ):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a row of a template that cannot run")

        monkeypatch.setattr(supervisor, "run_embedded", no_simulation)
        csv_path, scenario_path, bindings = self.make_inputs(tmp_path, ["0,20,2", "5,25,3"])
        write_edited_demo_scenario(scenario_path, keys, value)
        out_dir = tmp_path / "out"
        assert main(["run-ca", csv_path, scenario_path, bindings, "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: scenario cannot run: {violation}\n"
        assert not out_dir.exists()

    def test_row_with_pedestrian_orientation_initial_state_fails(self, tmp_path, capsys):
        csv_path, scenario_path, bindings = self.make_inputs(tmp_path, ["0,20,2"])
        env, config = scenario.load_scenario(scenario_path)
        env.initial_state_config_list.append(
            scenario.InitialStateConfig(
                scenario.LogItemDescription(
                    scenario.ItemType.PEDESTRIAN, 0, scenario.StateId.ORIENTATION
                ),
                1.0,
            )
        )
        scenario.save_scenario(env, config, scenario_path)
        out_dir = tmp_path / "out"
        assert main(["run-ca", csv_path, scenario_path, bindings, "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == (
            "error: scenario cannot run: initial_state_config_list[1]: "
            "initial state cannot target a pedestrian's ORIENTATION\n"
        )
        assert not out_dir.exists()

    def test_template_rule_a_bound_field_mends_runs_every_row(self, tmp_path):
        # the template's negative pedestrian speed is overwritten by every row
        csv_path, scenario_path, bindings = self.make_inputs(tmp_path, ["0,20,2", "5,25,3"])
        write_edited_demo_scenario(
            scenario_path, ("environment", "pedestrians_list", 0, "target_speed"), -1.0
        )
        out_dir = tmp_path / "out"
        assert main(["run-ca", csv_path, scenario_path, bindings, "--out-dir", str(out_dir)]) == 0
        rows = json.loads((out_dir / "summary.json").read_text())["rows"]
        assert [entry["status"] for entry in rows] == ["ok", "ok"]

    def test_empty_body_gives_empty_summary(self, tmp_path):
        csv_path, scenario_path, bindings = self.make_inputs(tmp_path, [])
        out_dir = tmp_path / "out"
        assert main(["run-ca", csv_path, scenario_path, bindings, "--out-dir", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["rows"] == []

    def test_bindings_file_that_is_not_json_exits_2(self, tmp_path, capsys):
        csv_path, scenario_path, bindings = self.make_inputs(tmp_path, ["0,20,2"])
        with open(bindings, "w") as fh:
            fh.write('{"ego_init_speed": ')
        out_dir = tmp_path / "out"
        assert main(["run-ca", csv_path, scenario_path, bindings, "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: cannot load bindings file {bindings}: ")
        assert not out_dir.exists()

    def test_repeated_column_exits_2_before_simulating(self, tmp_path, capsys, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a table with a repeated column")

        monkeypatch.setattr(supervisor, "run_embedded", no_simulation)
        _, scenario_path, bindings = self.make_inputs(tmp_path, [])
        csv_path = tmp_path / "repeated.csv"
        csv_path.write_text("#\n" * 6 + "ego_init_speed,ego_init_speed\n0,15\n")
        out_dir = tmp_path / "out"
        assert main(["run-ca", str(csv_path), scenario_path, bindings,
                     "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot load test CSV {csv_path}: line 7: column 'ego_init_speed' repeats\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"ego_init_speed": 5}, "document.ego_init_speed: expected string, got number"),
            (["ego_init_speed"], "document: expected an object, got array"),
        ],
        ids=["number-path", "array"],
    )
    def test_bindings_that_are_not_a_map_of_strings_exit_2(
        self, tmp_path, capsys, document, message
    ):
        csv_path, scenario_path, bindings = self.make_inputs(tmp_path, ["0,20,2"])
        with open(bindings, "w") as fh:
            json.dump(document, fh)
        out_dir = tmp_path / "out"
        assert main(["run-ca", csv_path, scenario_path, bindings, "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot load bindings file {bindings}: {message}\n"
        )
        assert not out_dir.exists()

    def test_negative_header_lines_exits_2(self, tmp_path, capsys):
        csv_path, scenario_path, bindings = self.make_inputs(tmp_path, ["0,20,2"])
        out_dir = tmp_path / "out"
        argv = ["run-ca", csv_path, scenario_path, bindings, "--out-dir", str(out_dir)]
        assert main([*argv, "--header-lines", "-3"]) == 2
        assert capsys.readouterr().err == "error: --header-lines must be >= 0, got -3\n"
        assert not out_dir.exists()

    def test_binding_to_unknown_parameter_exits_2(self, tmp_path, fixtures_dir, capsys):
        bindings_path = tmp_path / "bindings.json"
        bindings_path.write_text(json.dumps({"nope": "config.server_port"}))
        out_dir = tmp_path / "out"
        code = main([
            "run-ca",
            os.path.join(fixtures_dir, "ca_2way.csv"),
            os.path.join(fixtures_dir, "demo_scenario.json"),
            str(bindings_path),
            "--out-dir",
            str(out_dir),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown parameter 'nope'" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "name, path, message",
        [
            ("pedestrian_speed", "environment.pedestrians_list[3].target_speed",
             "does not resolve at segment 3"),
            ("ego_x_position", "environment.ego_vehicles_list[0].vhc_id",
             "is bound to an integer field"),
        ],
    )
    def test_unbindable_path_exits_2_before_simulating(
        self, tmp_path, capsys, monkeypatch, name, path, message
    ):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a suite whose binding cannot be set")

        monkeypatch.setattr(supervisor, "run_embedded", no_simulation)
        csv_path, scenario_path, bindings = self.make_inputs(tmp_path, ["0,20,2", "5,25,3"])
        binding = json.loads(open(bindings).read())
        binding[name] = path
        with open(bindings, "w") as fh:
            json.dump(binding, fh)
        out_dir = tmp_path / "out"
        code = main(["run-ca", csv_path, scenario_path, bindings, "--out-dir", str(out_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: parameter {name!r}: path {path!r} {message}\n"
        assert not out_dir.exists()

    def test_traces_equal_the_preset_scene(self, tmp_path, fixtures_dir, ca_csv_path):
        # the oracle builds each row's scene directly, with no binding path
        scenario_path = write_demo_scenario(tmp_path / "scn.json", duration_ms=300)
        bindings = os.path.join(fixtures_dir, "demo_bindings.json")
        out_dir = tmp_path / "out"
        code = main(["run-ca", ca_csv_path, scenario_path, bindings, "--out-dir", str(out_dir)])
        assert code == 0
        table = covering.load_experiment_data(ca_csv_path)
        defaults = {"ego_init_speed": 10.0, "ego_x_position": 20.0, "pedestrian_speed": 3.0}
        for index in range(len(table.rows)):
            case = covering.get_experiment_all_fields(table, index)
            speed, x, ped = (
                defaults[name] if case[name] == "*" else float(case[name]) for name in defaults
            )
            env, config = presets.demo_scenario(speed, x, ped, sim_duration_ms=300)
            expected = supervisor.trajectory_to_csv(supervisor.run_embedded(env, config).trajectory)
            assert (out_dir / f"trace_{index:03d}.csv").read_text() == expected

    def test_seed_has_no_effect(self, tmp_path, fixtures_dir):
        inputs = [
            os.path.join(fixtures_dir, name)
            for name in ("ca_2way.csv", "demo_scenario.json", "demo_bindings.json")
        ]
        outputs = []
        for i, seed_args in enumerate([["--seed", "0"], ["--seed", "5"], []]):
            out_dir = tmp_path / f"out{i}"
            assert main(["run-ca", *inputs, "--out-dir", str(out_dir), *seed_args]) == 0
            outputs.append({path.name: path.read_bytes() for path in out_dir.iterdir()})
        assert len(outputs[0]) == 17  # 16 traces and the summary
        assert outputs[0] == outputs[1] == outputs[2]

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        csv_path, scenario_path, bindings = self.make_inputs(
            tmp_path, ["0,20,2", "5,25,3", "10,15,4", "15,20,5"]
        )
        first_dir, second_dir = tmp_path / "first", tmp_path / "second"
        assert main(["run-ca", csv_path, scenario_path, bindings, "--out-dir", str(first_dir)]) == 0
        assert main(["run-ca", csv_path, scenario_path, bindings, "--out-dir", str(second_dir)]) == 0
        for name in [f"trace_{i:03d}.csv" for i in range(4)] + ["summary.json"]:
            assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes()


class TestFalsifyCommand:
    def make_study(self, tmp_path, fixtures_dir, n_tests=3, duration_s=0.2):
        study = {
            "scenario": os.path.join(fixtures_dir, "demo_scenario.json"),
            "requirement": os.path.join(fixtures_dir, "collision_requirement.json"),
            "space": [
                {"name": "ego_init_speed", "lo": 0.0, "hi": 15.0,
                 "binding": "environment.initial_state_config_list[0].value"},
                {"name": "ego_x_position", "lo": 15.0, "hi": 25.0,
                 "binding": "environment.ego_vehicles_list[0].current_position[0]"},
                {"name": "pedestrian_speed", "lo": 2.0, "hi": 5.0,
                 "binding": "environment.pedestrians_list[0].target_speed"},
            ],
            "config": {"n_tests": n_tests, "seed": 7, "sim_duration_s": duration_s,
                       "samp_time_s": 0.01},
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(study))
        return str(path)

    def test_results_written_and_verdict_printed(self, tmp_path, fixtures_dir, capsys):
        from avtestbed import falsify as fz

        study_path = self.make_study(tmp_path, fixtures_dir)
        out = tmp_path / "results.json"
        code = main(["falsify", study_path, "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert re.search(r"^(FALSIFIED rob=|NOT FALSIFIED best=)", stdout, re.M)
        result = fz.load_results(str(out))
        assert result.n_simulations_used <= 3

    def test_exit_zero_even_when_falsified(self, tmp_path, fixtures_dir, capsys):
        # long enough horizon that the default scene produces a violation
        study_path = self.make_study(tmp_path, fixtures_dir, n_tests=4, duration_s=15.0)
        out = tmp_path / "results.json"
        code = main(["falsify", study_path, "--out", str(out), "--seed", "1"])
        assert code == 0

    def test_missing_study_exits_2(self, tmp_path):
        assert main(["falsify", str(tmp_path / "none.json"), "--out",
                     str(tmp_path / "r.json")]) == 2

    def test_duration_off_the_step_grid_exits_2_before_simulating(
        self, tmp_path, fixtures_dir, capsys, monkeypatch
    ):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a study that cannot run")

        monkeypatch.setattr(supervisor, "run_embedded", no_simulation)
        study_path = self.make_study(tmp_path, fixtures_dir, n_tests=100, duration_s=0.015)
        out = tmp_path / "results.json"
        assert main(["falsify", study_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: study cannot run: config.sim_duration_ms: "
            "duration 15 not a multiple of step 10\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "binding, message",
        [
            (None, "dimension 'ego_init_speed' has no scenario binding"),
            (..., "dimension 'ego_init_speed' has no scenario binding"),
            (
                "environment.initial_state_config_list[7].value",
                "dimension 'ego_init_speed': path "
                "'environment.initial_state_config_list[7].value' does not resolve at segment 7",
            ),
        ],
    )
    def test_bad_binding_exits_2_before_simulating(
        self, tmp_path, fixtures_dir, capsys, monkeypatch, binding, message
    ):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a study whose binding cannot be set")

        monkeypatch.setattr(supervisor, "run_embedded", no_simulation)
        study_path = self.make_study(tmp_path, fixtures_dir, n_tests=100)
        study = json.loads(open(study_path).read())
        if binding is ...:  # a dimension without the key loads like a null binding
            del study["space"][0]["binding"]
        else:
            study["space"][0]["binding"] = binding
        with open(study_path, "w") as fh:
            json.dump(study, fh)
        out = tmp_path / "results.json"
        assert main(["falsify", study_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda text: text[:-2] + ', "scenery": {"roads": []}}',
             "scenario.scenery: unknown field"),
            (lambda text: text.replace('"target_speed": 3.0', '"target_speed": NaN'),
             "scenario: non-finite number NaN is not allowed"),
        ],
        ids=["scenery_key", "nan_literal"],
    )
    def test_study_scenario_is_parsed_as_a_scenario_document(
        self, tmp_path, fixtures_dir, capsys, monkeypatch, edit, message
    ):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a study whose scenario is invalid")

        monkeypatch.setattr(supervisor, "run_embedded", no_simulation)
        text = open(os.path.join(fixtures_dir, "demo_scenario.json")).read()
        edited = edit(text)
        assert edited != text
        scenario_path = tmp_path / "scn.json"
        scenario_path.write_text(edited)
        study_path = self.make_study(tmp_path, fixtures_dir)
        study = json.loads(open(study_path).read())
        study["scenario"] = str(scenario_path)
        with open(study_path, "w") as fh:
            json.dump(study, fh)
        out = tmp_path / "results.json"
        assert main(["falsify", study_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot load study {study_path}: {scenario_path}: {message}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("literal", ["NaN", "1e999"])
    def test_non_finite_requirement_bound_named_at_load(
        self, tmp_path, fixtures_dir, capsys, monkeypatch, literal
    ):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a study whose requirement is invalid")

        monkeypatch.setattr(supervisor, "run_embedded", no_simulation)
        text = open(os.path.join(fixtures_dir, "collision_requirement.json")).read()
        edited = text.replace('"b": 1.5', f'"b": {literal}', 1)
        assert edited != text
        requirement_path = tmp_path / "req.json"
        requirement_path.write_text(edited)
        study_path = self.make_study(tmp_path, fixtures_dir)
        study = json.loads(open(study_path).read())
        study["requirement"] = str(requirement_path)
        with open(study_path, "w") as fh:
            json.dump(study, fh)
        out = tmp_path / "results.json"
        assert main(["falsify", study_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot load study {study_path}: {requirement_path}: "
            "requirement.predicates[0].b: must be finite\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"name": "y_check2"', '"name": "y_check1"',
             "requirement.predicates[1].name: duplicate predicate name 'y_check1'"),
            ("x_check2))", "nope))",
             "requirement.formula: atom 'nope' names no predicate"),
        ],
        ids=["duplicate_name", "undeclared_atom"],
    )
    def test_requirement_predicate_names_checked_at_load(
        self, tmp_path, fixtures_dir, capsys, monkeypatch, old, new, message
    ):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a study whose requirement is invalid")

        monkeypatch.setattr(supervisor, "run_embedded", no_simulation)
        text = open(os.path.join(fixtures_dir, "collision_requirement.json")).read()
        edited = text.replace(old, new, 1)
        assert edited != text
        requirement_path = tmp_path / "req.json"
        requirement_path.write_text(edited)
        study_path = self.make_study(tmp_path, fixtures_dir, n_tests=20)
        study = json.loads(open(study_path).read())
        study["requirement"] = str(requirement_path)
        with open(study_path, "w") as fh:
            json.dump(study, fh)
        out = tmp_path / "results.json"
        assert main(["falsify", study_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot load study {study_path}: {requirement_path}: {message}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda study: study.update(config={"n_test": 3}),
             "study.config.n_test: unknown field"),
            (lambda study: study.update(space=[1]),
             "study.space[0]: expected an object, got number"),
            (lambda study: study["config"].update(n_tests="3"),
             "study.config.n_tests: expected integer, got string"),
            (lambda study: study["space"][0].update(name=["a"]),
             "study.space[0].name: expected string, got array"),
            (lambda study: study["space"][1].pop("lo"), "study.space[1].lo: missing field"),
            (lambda study: study["config"].update(falsification_mode=1),
             "study.config.falsification_mode: expected boolean, got number"),
        ],
        ids=["misspelt_config_key", "space_entry_not_an_object", "string_n_tests", "list_name",
             "missing_lo", "numeric_flag"],
    )
    def test_malformed_study_exits_2(self, tmp_path, fixtures_dir, capsys, edit, message):
        study_path = self.make_study(tmp_path, fixtures_dir)
        study = json.loads(open(study_path).read())
        edit(study)
        with open(study_path, "w") as fh:
            json.dump(study, fh)
        out = tmp_path / "results.json"
        assert main(["falsify", study_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot load study {study_path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, literal, message",
        [
            ("sim_duration_s", "1e400", "sim_duration_s must be finite, got inf"),
            ("samp_time_s", "NaN", "samp_time_s must be finite, got nan"),
        ],
    )
    def test_non_finite_study_number_exits_2(
        self, tmp_path, fixtures_dir, capsys, field, literal, message
    ):
        study_path = self.make_study(tmp_path, fixtures_dir)
        study = json.loads(open(study_path).read())
        study["config"][field] = "LITERAL"
        with open(study_path, "w") as fh:
            fh.write(json.dumps(study).replace('"LITERAL"', literal))
        out = tmp_path / "results.json"
        assert main(["falsify", study_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot load study {study_path}: study.config: {message}\n"
        )
        assert not out.exists()

    def test_negative_study_seed_exits_2(self, tmp_path, fixtures_dir, capsys):
        study_path = self.make_study(tmp_path, fixtures_dir)
        study = json.loads(open(study_path).read())
        study["config"]["seed"] = -1
        with open(study_path, "w") as fh:
            json.dump(study, fh)
        out = tmp_path / "results.json"
        assert main(["falsify", study_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot load study {study_path}: study.config: seed must be >= 0, got -1\n"
        )
        assert not out.exists()

    def test_negative_seed_override_exits_2(self, tmp_path, fixtures_dir, capsys):
        study_path = self.make_study(tmp_path, fixtures_dir)
        out = tmp_path / "results.json"
        assert main(["falsify", study_path, "--out", str(out), "--seed", "-5"]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -5\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, content, detail",
        [
            ("scenario", None, "No such file or directory"),
            ("scenario", b'{"caf\xe9": 1}\n',
             "'utf-8' codec can't decode byte 0xe9 in position 5: invalid continuation byte"),
            ("requirement", None, "No such file or directory"),
            ("requirement", b"{", "Expecting property name enclosed in double quotes: "
             "line 1 column 2 (char 1)"),
        ],
        ids=["missing-scenario", "non-utf8-scenario", "missing-requirement",
             "truncated-requirement"],
    )
    def test_unreadable_file_of_a_study_is_named(
        self, tmp_path, fixtures_dir, capsys, key, content, detail
    ):
        study_path = self.make_study(tmp_path, fixtures_dir)
        study = json.loads(open(study_path).read())
        study[key] = "named.json"  # relative to the study's directory
        with open(study_path, "w") as fh:
            json.dump(study, fh)
        if content is not None:
            (tmp_path / "named.json").write_bytes(content)
        out = tmp_path / "results.json"
        assert main(["falsify", study_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot load study {study_path}: named.json: {detail}\n"
        )
        assert not out.exists()

    def test_repeated_dimension_name_exits_2(self, tmp_path, fixtures_dir, capsys):
        study_path = self.make_study(tmp_path, fixtures_dir)
        study = json.loads(open(study_path).read())
        study["space"][2]["name"] = "ego_init_speed"
        with open(study_path, "w") as fh:
            json.dump(study, fh)
        out = tmp_path / "results.json"
        assert main(["falsify", study_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot load study {study_path}: search dimension name 'ego_init_speed' "
            "repeats at space[0], space[2]\n"
        )
        assert not out.exists()

    def test_study_top_level_not_an_object_exits_2(self, tmp_path, capsys):
        study_path = tmp_path / "study.json"
        study_path.write_text("[1, 2]")
        assert main(["falsify", str(study_path), "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot load study {study_path}: study: expected an object, got array\n"
        )

    def test_unknown_top_level_key_exits_2(self, tmp_path, fixtures_dir, capsys):
        study_path = self.make_study(tmp_path, fixtures_dir)
        study = json.loads(open(study_path).read())
        study["budget"] = 10
        with open(study_path, "w") as fh:
            json.dump(study, fh)
        out = tmp_path / "results.json"
        assert main(["falsify", study_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot load study {study_path}: study.budget: unknown field\n"
        )
        assert not out.exists()

    def test_every_simulation_failing_exits_2(self, tmp_path, fixtures_dir, capsys):
        study_path = self.make_study(tmp_path, fixtures_dir)
        study = json.loads(open(study_path).read())
        # a negative pedestrian speed fails validation in every simulation
        study["space"][2].update(lo=-5.0, hi=-1.0)
        with open(study_path, "w") as fh:
            json.dump(study, fh)
        out = tmp_path / "results.json"
        assert main(["falsify", study_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: every simulation failed; evaluation 0 was the first: "
            "invalid scenario: pedestrians_list[0]: target_speed must be >= 0\n"
        )
        assert not out.exists()


class TestPlot:
    def make_trace(self, tmp_path, duration_ms=500):
        env, config = presets.demo_scenario(sim_duration_ms=duration_ms)
        trajectory = supervisor.run_embedded(env, config).trajectory
        path = tmp_path / "trace.csv"
        path.write_text(supervisor.trajectory_to_csv(trajectory))
        return str(path), trajectory

    def test_single_polyline_with_padded_extents(self, tmp_path):
        trace_path, trajectory = self.make_trace(tmp_path)
        out = tmp_path / "plot.svg"
        code = main(["plot", trace_path, "--out", str(out),
                     "--columns", "vehicle0_position_x:vehicle0_position_y"])
        assert code == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 1

        xs = trajectory.rows[:, 1]
        match = re.search(r'data-extent-x="([-0-9.e]+) ([-0-9.e]+)"', svg)
        lo, hi = float(match.group(1)), float(match.group(2))
        span = xs.max() - xs.min()
        assert lo == pytest.approx(xs.min() - 0.05 * span, rel=1e-9)
        assert hi == pytest.approx(xs.max() + 0.05 * span, rel=1e-9)

    def test_two_pairs_two_polylines(self, tmp_path):
        trace_path, _ = self.make_trace(tmp_path)
        out = tmp_path / "plot.svg"
        code = main(["plot", trace_path, "--out", str(out), "--columns",
                     "vehicle0_position_x:vehicle0_position_y",
                     "vehicle1_position_x:vehicle1_position_y"])
        assert code == 0
        assert out.read_text().count("<polyline") == 2

    def test_deterministic_bytes(self, tmp_path):
        trace_path, _ = self.make_trace(tmp_path)
        out_a, out_b = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (out_a, out_b):
            assert main(["plot", trace_path, "--out", str(out),
                         "--columns", "time_ms:vehicle0_speed"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_empty_trace_exits_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("time_ms,vehicle0_position_x\n")
        code = main(["plot", str(empty), "--out", str(tmp_path / "x.svg"),
                     "--columns", "time_ms:vehicle0_position_x"])
        assert code == 2

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0,nan\n10,inf\n", "line 2, column vehicle0_position_x: 'nan' is not a finite number"),
            ("0,1\n10,-inf\n", "line 3, column vehicle0_position_x: '-inf' is not a finite number"),
            ("0,1\nx,2\n", "line 3, column time_ms: 'x' is not a finite number"),
        ],
        ids=["nan", "minus-inf", "text"],
    )
    def test_non_finite_trace_cell_exits_2(self, tmp_path, capsys, body, message):
        trace = tmp_path / "trace.csv"
        trace.write_text("time_ms,vehicle0_position_x\n" + body)
        out = tmp_path / "x.svg"
        code = main(["plot", str(trace), "--out", str(out),
                     "--columns", "time_ms:vehicle0_position_x"])
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot load trace {trace}: {message}\n"
        assert not out.exists()

    def test_unknown_column_exits_2(self, tmp_path):
        trace_path, _ = self.make_trace(tmp_path)
        code = main(["plot", trace_path, "--out", str(tmp_path / "x.svg"),
                     "--columns", "bogus:vehicle0_position_y"])
        assert code == 2


# every file argument and output option of every command; BROKEN marks the
# path under test, OUT an output path and TRACE a readable trace CSV, both in
# the test's directory
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
SCENARIO, CA_CSV, BINDINGS, PARAMS, STUDY = (
    os.path.join(FIXTURES, name)
    for name in ("demo_scenario.json", "ca_2way.csv", "demo_bindings.json",
                 "demo_params.json", "demo_study.json")
)
BROKEN, OUT, TRACE = "<broken>", "<out>", "<trace>"
PLOT_COLUMNS = ["--columns", "time_ms:vehicle0_position_x"]

INPUT_ARGUMENTS = {
    "run-scenario": ["run-scenario", BROKEN, "--embedded"],
    "run-ca csv": ["run-ca", BROKEN, SCENARIO, BINDINGS, "--out-dir", OUT],
    "run-ca scenario": ["run-ca", CA_CSV, BROKEN, BINDINGS, "--out-dir", OUT],
    "run-ca bindings": ["run-ca", CA_CSV, SCENARIO, BROKEN, "--out-dir", OUT],
    "gen-ca": ["gen-ca", BROKEN, "-t", "2", "--out", OUT],
    "falsify": ["falsify", BROKEN, "--out", OUT],
    "plot": ["plot", BROKEN, "--out", OUT, *PLOT_COLUMNS],
}

OUTPUT_OPTIONS = {
    "run-scenario --trace-out": ["run-scenario", SCENARIO, "--embedded", "--trace-out", BROKEN],
    "gen-ca --out": ["gen-ca", PARAMS, "-t", "2", "--out", BROKEN],
    "falsify --out": ["falsify", STUDY, "--out", BROKEN],
    "plot --out": ["plot", TRACE, "--out", BROKEN, *PLOT_COLUMNS],
    "run-ca --out-dir": ["run-ca", CA_CSV, SCENARIO, BINDINGS, "--out-dir", BROKEN],
}


def make_broken_path(tmp_path, kind: str) -> str:
    """A path that is missing, a directory, a non-UTF-8 file or a regular file."""
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    elif kind == "non-utf8":
        path.write_bytes(b'{"caf\xe9": 1}\n')
    elif kind == "regular-file":
        path.write_text("{}\n")
    return str(path)


def count_work(monkeypatch) -> list[str]:
    """The names of the simulation and generator calls made from now on."""
    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(supervisor, "run_embedded", counted(supervisor.run_embedded))
    monkeypatch.setattr(
        covering, "generate_covering_array", counted(covering.generate_covering_array)
    )
    return calls


def run_broken(tmp_path, capsys, argv: list[str], broken: str) -> tuple[int, str]:
    trace = tmp_path / "trace.csv"
    trace.write_text("time_ms,vehicle0_position_x\n0,1.5\n10,2.5\n")
    paths = {BROKEN: broken, OUT: str(tmp_path / "out"), TRACE: str(trace)}
    code = main([paths.get(arg, arg) for arg in argv])
    return code, capsys.readouterr().err


class TestBrokenPaths:
    @pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
    @pytest.mark.parametrize("argument", INPUT_ARGUMENTS)
    def test_unreadable_input_exits_2_with_one_line(self, tmp_path, capsys, argument, kind):
        broken = make_broken_path(tmp_path, kind)
        code, err = run_broken(tmp_path, capsys, INPUT_ARGUMENTS[argument], broken)
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: cannot load "), err
        assert f" {broken}: " in err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("option", OUTPUT_OPTIONS)
    def test_unwritable_output_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch, option):
        calls = count_work(monkeypatch)
        kind = "regular-file" if option == "run-ca --out-dir" else "directory"
        reason = "Not a directory" if kind == "regular-file" else "Is a directory"
        broken = make_broken_path(tmp_path, kind)
        code, err = run_broken(tmp_path, capsys, OUTPUT_OPTIONS[option], broken)
        assert (code, err) == (2, f"error: cannot write {broken}: {reason}\n")
        # found before any work, and the failed command leaves no new file behind
        assert calls == []
        assert sorted(os.listdir(tmp_path)) == sorted([kind, "trace.csv"])
        if kind == "directory":
            assert os.listdir(broken) == []
        else:
            assert open(broken).read() == "{}\n"

    @pytest.mark.parametrize("option", OUTPUT_OPTIONS)
    def test_output_under_a_missing_or_file_parent_exits_2(
        self, tmp_path, capsys, monkeypatch, option
    ):
        calls = count_work(monkeypatch)
        if option == "run-ca --out-dir":  # made with its parents, but not under a file
            broken = os.path.join(make_broken_path(tmp_path, "regular-file"), "sub")
            reason, left = "Not a directory", ["regular-file", "trace.csv"]
        else:
            broken = str(tmp_path / "missing" / "out")
            reason, left = "No such file or directory", ["trace.csv"]
        code, err = run_broken(tmp_path, capsys, OUTPUT_OPTIONS[option], broken)
        assert (code, err) == (2, f"error: cannot write {broken}: {reason}\n")
        assert calls == []
        assert sorted(os.listdir(tmp_path)) == left

    def test_module_entry_point_exits_2_without_a_traceback(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(supervisor.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        argv = [sys.executable, "-m", "avtestbed.cli", "run-scenario", str(tmp_path), "--embedded"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"error: cannot load scenario {tmp_path}: Is a directory\n"
