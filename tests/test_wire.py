import json
import math
import random
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize(
        "tag, prefix, what",
        [(wire.TAG_SETUP_ENVIRONMENT, b"", "environment"),
         (wire.TAG_START_SIM, b"\x00", "config"),
         (wire.TAG_TRACE_DATA, b"", "trajectory")],
    )
    @pytest.mark.parametrize(
        "payload, detail",
        [(b"\xff", "'utf-8' codec can't decode"), (b"{", "Expecting property name"),
         (b'{"nope": 1}', ".nope: unknown field")],
        ids=["utf8", "json", "schema"],
    )
    def test_json_payload_errors_name_their_payload(self, tag, prefix, what, payload, detail):
        body = bytes([tag]) + prefix + payload
        with pytest.raises(wire.WireFormatError) as err:
            wire.decode_message(struct.pack(">I", len(body)) + body)
        assert str(err.value).startswith(f"malformed {what} payload: ")
        assert detail in str(err.value)

    @pytest.mark.parametrize("cell", ["1.5", True, None, math.nan])
    def test_trace_cell_that_is_not_a_finite_number_rejected(self, cell):
        labels = [scenario.LogItemDescription(), scenario.LogItemDescription()]
        doc = {
            "column_labels": scenario.value_to_json(labels, list[scenario.LogItemDescription]),
            "rows": [[0.0, 1.0], [10.0, cell]],
        }
        body = bytes([wire.TAG_TRACE_DATA]) + json.dumps(doc).encode("utf-8")
        with pytest.raises(wire.WireFormatError) as err:
            wire.decode_message(struct.pack(">I", len(body)) + body)
        assert str(err.value).startswith(
            "malformed trajectory payload: trajectory.rows[1][1]: expected a finite number, got "
        )

    def test_protocol_error_message_utf8(self):
        msg = wire.ProtocolErrorMsg(code=100, message="entité inconnue")
        assert wire.decode_message(wire.encode_message(msg)) == msg

    @pytest.mark.parametrize(
        "msg, message",
        [
            (wire.Hello(70000), "hello protocol_version 70000 does not fit in two bytes"),
            (wire.ProtocolErrorMsg(70000, "x"), "error code 70000 does not fit in two bytes"),
            (wire.Heartbeat(-1), "heartbeat sim_time_ms -1 does not fit in eight unsigned bytes"),
            (wire.Heartbeat(2**64),
             f"heartbeat sim_time_ms {2**64} does not fit in eight unsigned bytes"),
            (wire.Heartbeat(10, 1), "heartbeat status 1 is not a HeartbeatStatus"),
            (wire.Heartbeat(10, SyncType.WITH_SYNC),
             "heartbeat status <SyncType.WITH_SYNC: 'WITH_SYNC'> is not a HeartbeatStatus"),
            (wire.ProtocolErrorMsg(100, "bad \ud800"),
             "error message 'bad \\ud800' is not UTF-8 text: 'utf-8' codec can't encode"),
            (wire.TraceData(scenario.Trajectory(
                [scenario.LogItemDescription()] * 2, np.array([[0.0, 1.0], [10.0, np.inf]]))),
             "trajectory.rows[1][1]: inf is not a finite number"),
        ],
        ids=["hello-version", "error-code", "negative-time", "time-above-64-bits",
             "status-int", "status-other-enum", "lone-surrogate", "trace-inf"],
    )
    def test_field_a_frame_cannot_carry_is_a_format_error_naming_it(self, msg, message):
        with pytest.raises(wire.WireFormatError) as err:
            wire.encode_message(msg)
        assert str(err.value).startswith(message)

    def test_non_finite_environment_value_is_named_by_its_path(self):
        env, _ = presets.demo_scenario()
        env.ego_vehicles_list[0].current_position[2] = math.nan
        with pytest.raises(wire.WireFormatError) as err:
            wire.encode_message(wire.SetupEnvironment(env))
        assert str(err.value) == (
            "environment.ego_vehicles_list[0].current_position[2]: nan is not a finite number"
        )

    def test_object_that_is_not_a_message_is_a_type_error(self):
        with pytest.raises(TypeError, match="not a wire message"):
            wire.encode_message(wire.HeartbeatStatus.RUNNING)


class OneByteSocket:
    """A socket stand-in whose every recv returns at most one byte of data,
    then b"" as a closed peer does."""

    def __init__(self, data: bytes):
        self.data = data

    def recv(self, n: int) -> bytes:
        assert n > 0
        chunk, self.data = self.data[:1], self.data[1:]
        return chunk


SHORT_READ_MESSAGES = [
    wire.Heartbeat(2**40, wire.HeartbeatStatus.FINISHED),
    wire.Continue(),
    wire.ProtocolErrorMsg(100, "entité inconnue"),
    wire.SetupEnvironment(presets.demo_environment()),
]


class TestShortReads:
    @pytest.mark.parametrize("msg", SHORT_READ_MESSAGES, ids=lambda m: type(m).__name__)
    def test_one_byte_per_recv_yields_the_same_message(self, msg):
        frame = wire.encode_message(msg)
        sock = OneByteSocket(frame + wire.encode_message(wire.Ack()))
        assert wire.recv_message(sock) == msg
        assert wire.recv_message(sock) == wire.Ack()

    @pytest.mark.parametrize("msg", SHORT_READ_MESSAGES, ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("keep", [0, 2, 4, -1])
    def test_peer_closed_mid_frame_is_a_session_error(self, msg, keep):
        frame = wire.encode_message(msg)
        with pytest.raises(wire.ProtocolSessionError, match="connection closed mid-frame"):
            wire.recv_message(OneByteSocket(frame[:keep % len(frame)]))


def _replace_json_value(doc, rng, value):
    """doc with one value, picked by rng among all of its values, replaced."""
    if not isinstance(doc, (dict, list)) or rng.random() < 0.2:
        return value
    keys = list(doc) if isinstance(doc, dict) else list(range(len(doc)))
    if not keys:
        return value
    key = rng.choice(keys)
    doc[key] = _replace_json_value(doc[key], rng, value)
    return doc


JSON_REPLACEMENTS = [None, True, -1, 0, 2**70, 1.5, -0.0, 1e308, "x", "", [], {}, [1.0], {"a": 1}]


@st.composite
def mutated_frames(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    frame = bytearray(wire.encode_message(random_message(rng)))
    mutation = draw(st.sampled_from(["flip", "truncate", "tag", "json"]))
    if mutation == "flip":
        at = draw(st.integers(0, len(frame) - 1))
        frame[at] ^= draw(st.integers(1, 255))
    elif mutation == "truncate":
        frame = frame[:draw(st.integers(0, len(frame) - 1))]
    elif mutation == "tag":
        frame[wire.HEADER_BYTES] = draw(st.integers(0, 255))
    else:
        start = wire.HEADER_BYTES + 1 + (frame[wire.HEADER_BYTES] == wire.TAG_START_SIM)
        try:
            doc = json.loads(bytes(frame[start:]))
        except ValueError:  # not a JSON payload: replace the payload whole
            doc = None
        value = draw(st.sampled_from(JSON_REPLACEMENTS))
        doc = _replace_json_value(doc, rng, value)
        body = bytes(frame[wire.HEADER_BYTES:start]) + json.dumps(doc).encode("utf-8")
        frame = bytearray(struct.pack(">I", len(body)) + body)
    return bytes(frame)


@settings(max_examples=400, deadline=None)
@given(frame=mutated_frames())
def test_mutated_frame_decodes_or_is_a_format_error(frame):
    try:
        msg = wire.decode_message(frame)
    except wire.WireFormatError:
        return
    assert type(msg) in (
        wire.Hello, wire.Ack, wire.SetupEnvironment, wire.StartSim, wire.Heartbeat,
        wire.Continue, wire.TraceData, wire.ProtocolErrorMsg,
    )


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

    def test_bad_controller_arguments_on_the_setup_frame_report_error_100(self, server):
        import socket as socket_module

        env, _ = presets.demo_scenario()
        env.ego_vehicles_list[0].controller_arguments[1] = "fast"
        sock = socket_module.create_connection(("127.0.0.1", server.port), timeout=5.0)
        try:
            wire.send_message(sock, wire.Hello())
            assert isinstance(wire.recv_message(sock), wire.Ack)
            wire.send_message(sock, wire.SetupEnvironment(env))
            reply = wire.recv_message(sock)
            assert isinstance(reply, wire.ProtocolErrorMsg)
            assert reply.code == wire.ERR_SETUP
            assert "ego_vehicles_list[0].controller_arguments" in reply.message
        finally:
            sock.close()

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

    def test_trace_that_cannot_fit_is_refused_before_simulating(self, server, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a run whose trace frame cannot fit")

        # 101 rows of 11 columns need at least 1 + 4 * 1111 bytes
        monkeypatch.setattr(supervisor, "run_embedded", no_simulation)
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 4 * 101 * 11)
        env, config = presets.demo_scenario(sim_duration_ms=1000)
        with pytest.raises(wire.ProtocolSessionError) as err:
            wire.client_session(("127.0.0.1", server.port), env, config)
        assert err.value.code == wire.ERR_SETUP
        assert str(err.value) == (
            "supervisor error 100: a trace of 101 rows of 11 columns cannot fit in "
            "a frame of 4444 bytes"
        )
        monkeypatch.undo()
        assert wire.client_session(("127.0.0.1", server.port), env, config).n_rows == 101

    def test_trace_that_overflows_reports_error_100_and_server_stays_up(self, server):
        env, config = presets.demo_scenario(1e308, 1.797e308, sim_duration_ms=100)
        with pytest.raises(wire.ProtocolSessionError) as err:
            wire.client_session(("127.0.0.1", server.port), env, config)
        assert err.value.code == wire.ERR_SETUP
        assert str(err.value) == (
            "supervisor error 100: the run overflowed: column vehicle0_position_x is inf at 10 ms"
        )
        env, config = presets.demo_scenario(sim_duration_ms=100)
        assert wire.client_session(("127.0.0.1", server.port), env, config).n_rows == 11


def _raw_frame(tag: int, payload: bytes = b"") -> bytes:
    return struct.pack(">I", 1 + len(payload)) + bytes([tag]) + payload


_SYNCED_ENV, _CONFIG = presets.demo_scenario(sim_duration_ms=100)
_SYNCED_ENV.heart_beat_config = HeartbeatConfig(sync_type=SyncType.WITH_SYNC, period_ms=10)
_SETUP = wire.SetupEnvironment(_SYNCED_ENV)
_START = wire.StartSim(_CONFIG)


@pytest.mark.parametrize(
    "frames, code, message",
    [
        ([_START], wire.ERR_UNEXPECTED_MESSAGE, "expected hello, got StartSim"),
        ([wire.Hello(), wire.Hello()], wire.ERR_UNEXPECTED_MESSAGE, "expected setup, got Hello"),
        (
            [wire.Hello(), _SETUP, wire.Hello()],
            wire.ERR_UNEXPECTED_MESSAGE,
            "expected start, got Hello",
        ),
        ([_raw_frame(0x7F)], wire.ERR_MALFORMED, "unknown message tag 0x7f"),
        (
            [wire.Hello(), _SETUP, _START, wire.Hello()],
            wire.ERR_SYNC_TIMEOUT,
            "expected continue, got Hello",
        ),
        (
            [wire.Hello(), _SETUP, _START, _raw_frame(wire.TAG_CONTINUE, b"x")],
            wire.ERR_MALFORMED,
            "continue payload must be empty",
        ),
        (
            [wire.Hello(), _SETUP, wire.StartSim(_CONFIG, run_index=9)],
            wire.ERR_SETUP,
            "run index 9 out of range",
        ),
    ],
    ids=[
        "start-first",
        "second-hello",
        "hello-for-start",
        "unknown-tag",
        "hello-for-continue",
        "continue-with-payload",
        "run-index-out-of-range",
    ],
)
def test_session_refusal_is_one_error_frame(server, frames, code, message):
    # every frame but the last is answered by an ack or, once started, a
    # heartbeat; the last is answered by the error frame, and the session ends
    import socket as socket_module

    sock = socket_module.create_connection(("127.0.0.1", server.port), timeout=5.0)
    try:
        for frame in frames[:-1]:
            wire.send_message(sock, frame)
            assert isinstance(wire.recv_message(sock), (wire.Ack, wire.Heartbeat))
        last = frames[-1]
        sock.sendall(last if isinstance(last, bytes) else wire.encode_message(last))
        assert wire.recv_message(sock) == wire.ProtocolErrorMsg(code, message)
        assert sock.recv(1) == b""
    finally:
        sock.close()
