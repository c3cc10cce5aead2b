"""Framed TCP protocol between the test configurator (client) and the
simulation supervisor (server).

Frame layout: 4-byte big-endian unsigned body length, then the body, whose
first byte is the message tag and the remainder the payload.  Structured
payloads reuse the scenario JSON serializer in compact canonical form;
heartbeats use fixed-width big-endian integers.  Frames above 64 MiB are
rejected on both ends.
"""

from __future__ import annotations

import json
import socket
import struct
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

from . import scenario
from .scenario import SimEnvironment, SimulationConfig, SyncType, Trajectory

PROTOCOL_VERSION = 1
MAX_FRAME_BYTES = 64 * 1024 * 1024
HEADER_BYTES = 4

TAG_HELLO = 0x01
TAG_ACK = 0x02
TAG_SETUP_ENVIRONMENT = 0x03
TAG_START_SIM = 0x04
TAG_HEARTBEAT = 0x05
TAG_CONTINUE = 0x06
TAG_TRACE_DATA = 0x07
TAG_PROTOCOL_ERROR = 0x08

# protocol error codes
ERR_SETUP = 100
ERR_SYNC_TIMEOUT = 101
ERR_UNEXPECTED_MESSAGE = 102
ERR_MALFORMED = 103


class HeartbeatStatus(Enum):
    RUNNING = 0
    FINISHED = 1


@dataclass
class Hello:
    protocol_version: int = PROTOCOL_VERSION


@dataclass
class Ack:
    pass


@dataclass
class SetupEnvironment:
    env: SimEnvironment = field(default_factory=SimEnvironment)


@dataclass
class StartSim:
    config: SimulationConfig = field(default_factory=SimulationConfig)
    run_index: int = 0


@dataclass
class Heartbeat:
    sim_time_ms: int = 0
    status: HeartbeatStatus = HeartbeatStatus.RUNNING


@dataclass
class Continue:
    pass


@dataclass
class TraceData:
    trajectory: Trajectory = None


@dataclass
class ProtocolErrorMsg:
    code: int = 0
    message: str = ""


WireMessage = Union[
    Hello, Ack, SetupEnvironment, StartSim, Heartbeat, Continue, TraceData, ProtocolErrorMsg
]


class WireFormatError(ValueError):
    """A frame that cannot be decoded (bad tag, truncation, oversize)."""


class ProtocolSessionError(RuntimeError):
    """A live session failed; carries the peer's error code when known."""

    def __init__(self, message: str, code: Optional[int] = None):
        self.code = code
        super().__init__(message)


class ConnectError(ProtocolSessionError):
    pass


def _canonical_json(data) -> bytes:
    return json.dumps(data, separators=(",", ":"), allow_nan=False).encode("utf-8")


def encode_message(msg: WireMessage) -> bytes:
    """Encode one message into a complete frame (header + tag + payload)."""
    if isinstance(msg, Hello):
        tag, payload = TAG_HELLO, struct.pack(">H", msg.protocol_version)
    elif isinstance(msg, Ack):
        tag, payload = TAG_ACK, b""
    elif isinstance(msg, SetupEnvironment):
        tag = TAG_SETUP_ENVIRONMENT
        payload = _canonical_json(scenario.environment_to_json(msg.env))
    elif isinstance(msg, StartSim):
        tag = TAG_START_SIM
        if not 0 <= msg.run_index <= 255:
            raise WireFormatError(f"run index {msg.run_index} does not fit in one byte")
        payload = struct.pack(">B", msg.run_index) + _canonical_json(
            scenario.config_to_json(msg.config)
        )
    elif isinstance(msg, Heartbeat):
        tag = TAG_HEARTBEAT
        payload = struct.pack(">QB", msg.sim_time_ms, msg.status.value)
    elif isinstance(msg, Continue):
        tag, payload = TAG_CONTINUE, b""
    elif isinstance(msg, TraceData):
        tag = TAG_TRACE_DATA
        payload = _canonical_json(scenario.trajectory_to_json(msg.trajectory))
    elif isinstance(msg, ProtocolErrorMsg):
        tag = TAG_PROTOCOL_ERROR
        encoded = msg.message.encode("utf-8")
        payload = struct.pack(">H", msg.code) + encoded
    else:
        raise TypeError(f"not a wire message: {msg!r}")
    body = bytes([tag]) + payload
    if len(body) > MAX_FRAME_BYTES:
        raise WireFormatError(f"frame too large: {len(body)} bytes")
    return struct.pack(">I", len(body)) + body


def _decode_json(payload: bytes, what: str, from_json: Callable):
    """from_json of the JSON document in payload; any error in its encoding,
    syntax or schema is a WireFormatError."""
    try:
        return from_json(json.loads(payload.decode("utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError, scenario.ScenarioFormatError) as exc:
        raise WireFormatError(f"malformed {what} payload: {exc}") from None


def decode_message(frame: bytes) -> WireMessage:
    """Decode a complete frame produced by encode_message."""
    if len(frame) < HEADER_BYTES + 1:
        raise WireFormatError("incomplete frame: missing header or tag")
    (length,) = struct.unpack(">I", frame[:HEADER_BYTES])
    if length > MAX_FRAME_BYTES:
        raise WireFormatError(f"frame too large: {length} bytes")
    body = frame[HEADER_BYTES:]
    if len(body) != length:
        raise WireFormatError(f"incomplete frame: body has {len(body)} of {length} bytes")
    tag, payload = body[0], body[1:]

    if tag == TAG_HELLO:
        if len(payload) != 2:
            raise WireFormatError("hello payload must be 2 bytes")
        return Hello(struct.unpack(">H", payload)[0])
    if tag == TAG_ACK:
        _expect_empty(payload, "ack")
        return Ack()
    if tag == TAG_SETUP_ENVIRONMENT:
        env = _decode_json(payload, "environment", scenario.environment_from_json)
        return SetupEnvironment(env)
    if tag == TAG_START_SIM:
        if len(payload) < 1:
            raise WireFormatError("start payload missing run index")
        config = _decode_json(payload[1:], "config", scenario.config_from_json)
        return StartSim(config, run_index=payload[0])
    if tag == TAG_HEARTBEAT:
        if len(payload) != 9:
            raise WireFormatError("heartbeat payload must be 9 bytes")
        sim_time_ms, status = struct.unpack(">QB", payload)
        try:
            return Heartbeat(sim_time_ms, HeartbeatStatus(status))
        except ValueError:
            raise WireFormatError(f"unknown heartbeat status {status}") from None
    if tag == TAG_CONTINUE:
        _expect_empty(payload, "continue")
        return Continue()
    if tag == TAG_TRACE_DATA:
        return TraceData(_decode_json(payload, "trajectory", scenario.trajectory_from_json))
    if tag == TAG_PROTOCOL_ERROR:
        if len(payload) < 2:
            raise WireFormatError("error payload missing code")
        code = struct.unpack(">H", payload[:2])[0]
        try:
            message = payload[2:].decode("utf-8")
        except UnicodeDecodeError:
            raise WireFormatError("error message is not valid UTF-8") from None
        return ProtocolErrorMsg(code, message)
    raise WireFormatError(f"unknown message tag 0x{tag:02x}")


def _expect_empty(payload: bytes, name: str) -> None:
    if payload:
        raise WireFormatError(f"{name} payload must be empty")


# --------------------------------------------------------------------------
# Socket helpers


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            raise ProtocolSessionError("connection closed mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def send_message(sock: socket.socket, msg: WireMessage) -> None:
    sock.sendall(encode_message(msg))


def recv_message(sock: socket.socket) -> WireMessage:
    header = _recv_exact(sock, HEADER_BYTES)
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise WireFormatError(f"frame too large: {length} bytes")
    body = _recv_exact(sock, length)
    return decode_message(header + body)


# --------------------------------------------------------------------------
# Client session


def client_session(
    endpoint: tuple[str, int],
    env: SimEnvironment,
    config: SimulationConfig,
    run_index: int = 0,
    max_connection_retry: int = 3,
    retry_backoff_s: float = 1.0,
    timeout_s: float = 120.0,
    on_heartbeat: Optional[Callable[[Heartbeat], None]] = None,
) -> Trajectory:
    """Run one simulation through a supervisor and return its trajectory.

    Connection attempts are retried max_connection_retry times with a fixed
    backoff.  Heartbeats are consumed as they arrive; in WITH_SYNC mode each
    one is answered with a continue message.  A protocol error from the peer,
    a frame that cannot be decoded, a socket error or timeout_s of silence
    aborts the session with ProtocolSessionError.
    """
    sock = _connect_with_retry(endpoint, max_connection_retry, retry_backoff_s)
    sync = (
        env.heart_beat_config.sync_type
        if env.heart_beat_config is not None
        else SyncType.NO_HEART_BEAT
    )
    try:
        sock.settimeout(timeout_s)
        send_message(sock, Hello())
        _expect_ack(recv_message(sock))
        send_message(sock, SetupEnvironment(env))
        _expect_ack(recv_message(sock))
        send_message(sock, StartSim(config, run_index=run_index))
        while True:
            msg = recv_message(sock)
            if isinstance(msg, Heartbeat):
                if on_heartbeat is not None:
                    on_heartbeat(msg)
                if sync is SyncType.WITH_SYNC:
                    send_message(sock, Continue())
                continue
            if isinstance(msg, TraceData):
                return msg.trajectory
            if isinstance(msg, ProtocolErrorMsg):
                raise ProtocolSessionError(
                    f"supervisor error {msg.code}: {msg.message}", code=msg.code
                )
            raise ProtocolSessionError(f"unexpected message {type(msg).__name__}")
    except socket.timeout:
        raise ProtocolSessionError(f"session timed out after {timeout_s} s") from None
    except (WireFormatError, OSError) as exc:
        raise ProtocolSessionError(f"session failed: {exc}") from None
    finally:
        sock.close()


def _connect_with_retry(
    endpoint: tuple[str, int], max_connection_retry: int, backoff_s: float
) -> socket.socket:
    if not 1 <= endpoint[1] <= 65535:  # the resolver would wrap it onto another port
        raise ConnectError(f"could not connect to {endpoint[0]}:{endpoint[1]}: port out of range")
    last_error: Optional[Exception] = None
    for attempt in range(max_connection_retry):
        try:
            return socket.create_connection(endpoint, timeout=10.0)
        except OSError as exc:
            last_error = exc
            if attempt + 1 < max_connection_retry:
                time.sleep(backoff_s)
    raise ConnectError(
        f"could not connect to {endpoint[0]}:{endpoint[1]} "
        f"after {max_connection_retry} attempts: {last_error}"
    )


def _expect_ack(msg: WireMessage) -> None:
    if isinstance(msg, ProtocolErrorMsg):
        raise ProtocolSessionError(f"supervisor error {msg.code}: {msg.message}", code=msg.code)
    if not isinstance(msg, Ack):
        raise ProtocolSessionError(f"expected ack, got {type(msg).__name__}")
