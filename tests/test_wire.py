import json
import math
import random
import struct
import threading

import pytest

from avtestbed import presets, scenario, supervisor, wire
from avtestbed.scenario import HeartbeatConfig, SyncType

from oracles import random_kernel_scene, random_message


@pytest.fixture
def server():
    srv = supervisor.SupervisorServer(host="127.0.0.1", port=0, sync_timeout_s=5.0)
    srv.start()
    yield srv
    srv.stop()


def test_server_never_started_stops_and_frees_its_port():
    srv = supervisor.SupervisorServer(host="127.0.0.1", port=0)
    srv.stop()
    supervisor.SupervisorServer(host="127.0.0.1", port=srv.port).stop()


class TestFraming:
    def test_ack_frame_is_exactly_five_bytes(self):
        frame = wire.encode_message(wire.Ack())
        assert len(frame) == 5
        assert frame[:4] == struct.pack(">I", 1)
        assert frame[4] == wire.TAG_ACK

    def test_heartbeat_round_trip(self):
        msg = wire.Heartbeat(sim_time_ms=2000, status=wire.HeartbeatStatus.RUNNING)
        decoded = wire.decode_message(wire.encode_message(msg))
        assert decoded == msg

    def test_heartbeat_payload_is_fixed_width(self):
        frame = wire.encode_message(wire.Heartbeat(2000, wire.HeartbeatStatus.FINISHED))
        assert len(frame) == 4 + 1 + 8 + 1

    def test_unknown_tag_rejected(self):
        frame = struct.pack(">I", 1) + bytes([0x7F])
        with pytest.raises(wire.WireFormatError, match="unknown message tag"):
            wire.decode_message(frame)

    def test_truncated_payload_rejected(self):
        frame = wire.encode_message(wire.Heartbeat(1, wire.HeartbeatStatus.RUNNING))
        with pytest.raises(wire.WireFormatError, match="incomplete frame"):
            wire.decode_message(frame[:-2])

    def test_oversize_frame_rejected(self):
        header = struct.pack(">I", wire.MAX_FRAME_BYTES + 1)
        with pytest.raises(wire.WireFormatError, match="too large"):
            wire.decode_message(header + b"x")

    def test_empty_payload_enforced(self):
        frame = struct.pack(">I", 2) + bytes([wire.TAG_CONTINUE]) + b"x"
        with pytest.raises(wire.WireFormatError, match="must be empty"):
            wire.decode_message(frame)

    def test_round_trip_corpus(self):
        rng = random.Random(2024)
        for _ in range(1000):
            msg = random_message(rng)
            decoded = wire.decode_message(wire.encode_message(msg))
            assert decoded == msg

    def test_canonical_encoding(self):
        rng_a, rng_b = random.Random(5), random.Random(5)
        for _ in range(100):
            msg_a, msg_b = random_message(rng_a), random_message(rng_b)
            assert msg_a == msg_b
            assert wire.encode_message(msg_a) == wire.encode_message(msg_b)

    @pytest.mark.parametrize("run_index", [256, -1])
    def test_run_index_outside_one_byte_rejected(self, run_index):
        with pytest.raises(wire.WireFormatError, match="run index"):
            wire.encode_message(wire.StartSim(run_index=run_index))

    def test_protocol_error_message_utf8(self):
        msg = wire.ProtocolErrorMsg(code=100, message="entité inconnue")
        assert wire.decode_message(wire.encode_message(msg)) == msg


class TestClientSession:
    def test_no_server_fails_after_n_attempts(self):
        attempts = {"count": 0}
        original = wire.socket.create_connection

        def counting(*args, **kwargs):
            attempts["count"] += 1
            raise ConnectionRefusedError("nope")

        wire.socket.create_connection = counting
        try:
            env, config = presets.demo_scenario()
            with pytest.raises(wire.ConnectError, match="could not connect"):
                wire.client_session(
                    ("127.0.0.1", 1), env, config, max_connection_retry=3, retry_backoff_s=0.0
                )
        finally:
            wire.socket.create_connection = original
        assert attempts["count"] == 3

    def test_port_out_of_range_is_not_wrapped_onto_a_listening_port(self, server):
        env, config = presets.demo_scenario(sim_duration_ms=100)
        endpoint = ("127.0.0.1", server.port + 65536)
        with pytest.raises(wire.ConnectError, match="port out of range"):
            wire.client_session(endpoint, env, config, max_connection_retry=1)

    def test_session_returns_demo_trajectory(self, server):
        env, config = presets.demo_scenario()
        config.sim_duration_ms = 1000
        trajectory = wire.client_session(("127.0.0.1", server.port), env, config)
        assert trajectory.rows.shape == (101, 11)

    def test_with_sync_exchanges_one_continue_per_heartbeat(self, server):
        env, config = presets.demo_scenario()
        env.heart_beat_config = HeartbeatConfig(sync_type=SyncType.WITH_SYNC, period_ms=10)
        config.sim_duration_ms = 100
        beats = []
        trajectory = wire.client_session(
            ("127.0.0.1", server.port), env, config, on_heartbeat=beats.append
        )
        assert trajectory.rows.shape == (11, 11)
        assert len(beats) == 10
        assert [b.sim_time_ms for b in beats] == list(range(10, 101, 10))
        assert [b.status for b in beats[:-1]] == [wire.HeartbeatStatus.RUNNING] * 9
        assert beats[-1].status is wire.HeartbeatStatus.FINISHED

    def test_no_heartbeat_mode_has_zero_heartbeat_frames(self, server):
        env, config = presets.demo_scenario()
        config.sim_duration_ms = 100
        beats = []
        wire.client_session(("127.0.0.1", server.port), env, config, on_heartbeat=beats.append)
        assert beats == []

    def test_without_sync_heartbeats_arrive_but_need_no_reply(self, server):
        env, config = presets.demo_scenario()
        env.heart_beat_config = HeartbeatConfig(sync_type=SyncType.WITHOUT_SYNC, period_ms=20)
        config.sim_duration_ms = 100
        beats = []
        wire.client_session(("127.0.0.1", server.port), env, config, on_heartbeat=beats.append)
        assert [b.sim_time_ms for b in beats] == [20, 40, 60, 80, 100]

    def test_invalid_environment_reports_error_100(self, server):
        env, config = presets.demo_scenario()
        env.ego_vehicles_list[0].controller = "no_such_ctrl"
        with pytest.raises(wire.ProtocolSessionError) as err:
            wire.client_session(("127.0.0.1", server.port), env, config)
        assert err.value.code == wire.ERR_SETUP

    def test_pedestrian_orientation_initial_state_reports_error_100(self, server):
        env, config = presets.demo_scenario()
        env.initial_state_config_list.append(
            scenario.InitialStateConfig(
                scenario.LogItemDescription(
                    scenario.ItemType.PEDESTRIAN, 0, scenario.StateId.ORIENTATION
                ),
                1.0,
            )
        )
        with pytest.raises(wire.ProtocolSessionError, match=r"initial_state_config_list\[1\]") as err:
            wire.client_session(("127.0.0.1", server.port), env, config)
        assert err.value.code == wire.ERR_SETUP

    def test_non_finite_environment_reports_error_100(self, server):
        import socket as socket_module

        env, _ = presets.demo_scenario()
        doc = scenario.environment_to_json(env)
        doc["ego_vehicles_list"][0]["current_position"][0] = math.nan
        body = bytes([wire.TAG_SETUP_ENVIRONMENT]) + json.dumps(doc).encode("utf-8")
        assert b"NaN" in body
        sock = socket_module.create_connection(("127.0.0.1", server.port), timeout=5.0)
        try:
            wire.send_message(sock, wire.Hello())
            assert isinstance(wire.recv_message(sock), wire.Ack)
            sock.sendall(struct.pack(">I", len(body)) + body)
            reply = wire.recv_message(sock)
            assert isinstance(reply, wire.ProtocolErrorMsg)
            assert reply.code == wire.ERR_SETUP and "finite" in reply.message
        finally:
            sock.close()

    def test_field_the_kernel_does_not_model_reports_malformed(self, server):
        import socket as socket_module

        env, _ = presets.demo_scenario()
        doc = scenario.environment_to_json(env)
        doc["fog"] = {"fog_type": "LINEAR", "visibility_range": 700.0}
        body = bytes([wire.TAG_SETUP_ENVIRONMENT]) + json.dumps(doc).encode("utf-8")
        sock = socket_module.create_connection(("127.0.0.1", server.port), timeout=5.0)
        try:
            wire.send_message(sock, wire.Hello())
            assert isinstance(wire.recv_message(sock), wire.Ack)
            sock.sendall(struct.pack(">I", len(body)) + body)
            reply = wire.recv_message(sock)
            assert isinstance(reply, wire.ProtocolErrorMsg)
            assert reply.code == wire.ERR_MALFORMED and "environment.fog" in reply.message
        finally:
            sock.close()

    def test_other_protocol_version_is_refused_with_error_102(self, server):
        import socket as socket_module

        sock = socket_module.create_connection(("127.0.0.1", server.port), timeout=5.0)
        try:
            wire.send_message(sock, wire.Hello(protocol_version=999))
            reply = wire.recv_message(sock)
            assert isinstance(reply, wire.ProtocolErrorMsg)
            assert reply.code == wire.ERR_UNEXPECTED_MESSAGE
            assert "version 999" in reply.message
            assert f"version {wire.PROTOCOL_VERSION}" in reply.message
            assert sock.recv(1) == b""  # the session is over
        finally:
            sock.close()

    def test_failed_session_is_logged_and_server_stays_up(self, server, monkeypatch, caplog):
        def broken_run(*args, **kwargs):
            raise ZeroDivisionError("kernel fault")

        env, config = presets.demo_scenario()
        config.sim_duration_ms = 200
        monkeypatch.setattr(supervisor, "run", broken_run)
        with pytest.raises(wire.ProtocolSessionError, match="connection closed"):
            wire.client_session(("127.0.0.1", server.port), env, config)
        [record] = [r for r in caplog.records if r.name == "avtestbed.supervisor"]
        assert record.levelname == "ERROR"
        assert record.exc_info[0] is ZeroDivisionError
        monkeypatch.undo()
        trace = wire.client_session(("127.0.0.1", server.port), env, config)
        assert trace == supervisor.run_embedded(env, config).trajectory

    def test_socket_trace_equals_embedded(self, server):
        env, config = presets.demo_scenario()
        config.sim_duration_ms = 2000
        over_socket = wire.client_session(("127.0.0.1", server.port), env, config)
        embedded = supervisor.run_embedded(env, config).trajectory
        assert over_socket == embedded
        assert supervisor.trajectory_to_csv(over_socket) == supervisor.trajectory_to_csv(embedded)

    @pytest.mark.parametrize("sync", list(SyncType))
    def test_socket_trace_equals_embedded_on_random_scenes(self, server, sync):
        # the server session runs run_embedded, so both paths give the same
        # bytes whatever the heartbeat mode
        for seed in range(12):
            env, config = random_kernel_scene(random.Random(seed))
            assert config.sim_duration_ms <= 3000
            env.heart_beat_config = HeartbeatConfig(
                sync_type=sync, period_ms=config.sim_step_size * (1 + seed % 3)
            )
            beats = []
            over_socket = wire.client_session(
                ("127.0.0.1", server.port), env, config, on_heartbeat=beats.append
            )
            embedded = supervisor.run_embedded(env, config).trajectory
            assert over_socket.rows.tobytes() == embedded.rows.tobytes()
            assert over_socket.column_labels == embedded.column_labels
            assert supervisor.trajectory_to_csv(over_socket) == supervisor.trajectory_to_csv(
                embedded
            )
            expected_beats = 0 if sync is SyncType.NO_HEART_BEAT else (
                config.sim_duration_ms // env.heart_beat_config.period_ms
            )
            assert len(beats) == expected_beats

    def test_concurrent_sessions_are_independent(self, server):
        results = {}

        def one(label, duration):
            env, config = presets.demo_scenario()
            config.sim_duration_ms = duration
            results[label] = wire.client_session(("127.0.0.1", server.port), env, config)

        threads = [
            threading.Thread(target=one, args=("a", 500)),
            threading.Thread(target=one, args=("b", 1000)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results["a"].rows.shape == (51, 11)
        assert results["b"].rows.shape == (101, 11)

    def test_finished_heartbeat_is_last_before_trace(self, server):
        env, config = presets.demo_scenario()
        env.heart_beat_config = HeartbeatConfig(sync_type=SyncType.WITH_SYNC, period_ms=50)
        config.sim_duration_ms = 200
        statuses = []
        wire.client_session(
            ("127.0.0.1", server.port), env, config,
            on_heartbeat=lambda b: statuses.append(b.status),
        )
        finished_positions = [
            i for i, s in enumerate(statuses) if s is wire.HeartbeatStatus.FINISHED
        ]
        assert finished_positions == [len(statuses) - 1]

    def test_missing_continue_aborts_with_error_101(self):
        import socket as socket_module

        srv = supervisor.SupervisorServer(host="127.0.0.1", port=0, sync_timeout_s=0.3)
        srv.start()
        try:
            env, config = presets.demo_scenario()
            env.heart_beat_config = HeartbeatConfig(sync_type=SyncType.WITH_SYNC, period_ms=10)
            config.sim_duration_ms = 100
            sock = socket_module.create_connection(("127.0.0.1", srv.port), timeout=5.0)
            try:
                wire.send_message(sock, wire.Hello())
                assert isinstance(wire.recv_message(sock), wire.Ack)
                wire.send_message(sock, wire.SetupEnvironment(env))
                assert isinstance(wire.recv_message(sock), wire.Ack)
                wire.send_message(sock, wire.StartSim(config))
                first = wire.recv_message(sock)
                assert isinstance(first, wire.Heartbeat)
                # never send CONTINUE; the supervisor must give up with 101
                final = wire.recv_message(sock)
                assert isinstance(final, wire.ProtocolErrorMsg)
                assert final.code == wire.ERR_SYNC_TIMEOUT
            finally:
                sock.close()
        finally:
            srv.stop()

    def test_silent_server_times_out_the_session(self):
        import socket as socket_module

        listener = socket_module.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        try:
            env, config = presets.demo_scenario()
            with pytest.raises(wire.ProtocolSessionError, match="timed out"):
                wire.client_session(
                    ("127.0.0.1", listener.getsockname()[1]), env, config, timeout_s=0.3
                )
        finally:
            listener.close()

    def test_out_of_range_run_index_is_setup_error(self, server):
        env, config = presets.demo_scenario()
        config.sim_duration_ms = 100
        with pytest.raises(wire.ProtocolSessionError) as err:
            wire.client_session(("127.0.0.1", server.port), env, config, run_index=3)
        assert err.value.code == wire.ERR_SETUP

    def test_oversized_trace_reports_error_100_and_server_stays_up(self, server, monkeypatch):
        # a 1 s demo trace frame is about 15 kB, its environment frame about 2 kB
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 8192)
        env, config = presets.demo_scenario()
        config.sim_duration_ms = 1000
        with pytest.raises(wire.ProtocolSessionError, match="frame too large") as err:
            wire.client_session(("127.0.0.1", server.port), env, config)
        assert err.value.code == wire.ERR_SETUP
        config.sim_duration_ms = 100
        assert wire.client_session(("127.0.0.1", server.port), env, config).n_rows == 11
