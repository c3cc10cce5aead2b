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
import math
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


_LENGTH = struct.Struct(">I")
_HEADER = struct.Struct(">IB")  # body length, tag
_HEARTBEAT_FRAME = struct.Struct(">IBQB")  # body length, tag, sim_time_ms, status
_U16 = struct.Struct(">H")
_U8 = struct.Struct(">B")
_PAYLOAD_START = HEADER_BYTES + 1
_HEARTBEAT_BODY_BYTES = _HEARTBEAT_FRAME.size - HEADER_BYTES

# a heartbeat's status byte is its status's value, which indexes _STATUSES
_STATUSES = tuple(HeartbeatStatus)
_STATUS_BYTES = {status: status.value for status in _STATUSES}

_ACK_FRAME = _HEADER.pack(1, TAG_ACK)
_CONTINUE_FRAME = _HEADER.pack(1, TAG_CONTINUE)


def _frame(tag: int, payload: bytes) -> bytes:
    length = len(payload) + 1
    if length > MAX_FRAME_BYTES:
        raise WireFormatError(f"frame too large: {length} bytes")
    return _HEADER.pack(length, tag) + payload


def _non_finite(value, path: str) -> Optional[str]:
    """'<path>: <value> is not a finite number' for the first float of a
    JSON document that is not finite, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else f"{path}: {value!r} is not a finite number"
    if isinstance(value, dict):
        children = ((f"{path}.{key}", item) for key, item in value.items())
    elif isinstance(value, list):
        children = ((f"{path}[{i}]", item) for i, item in enumerate(value))
    else:
        return None
    for child_path, item in children:
        problem = _non_finite(item, child_path)
        if problem:
            return problem
    return None


def _json_payload(data, what: str) -> bytes:
    try:
        return json.dumps(data, separators=(",", ":"), allow_nan=False).encode("utf-8")
    except ValueError as exc:
        raise WireFormatError(_non_finite(data, what) or f"{what}: {exc}") from None


def _u16(value, what: str) -> bytes:
    try:
        return _U16.pack(value)
    except struct.error:
        raise WireFormatError(f"{what} {value!r} does not fit in two bytes") from None


def _encode_hello(msg: Hello) -> bytes:
    return _frame(TAG_HELLO, _u16(msg.protocol_version, "hello protocol_version"))


def _encode_setup(msg: SetupEnvironment) -> bytes:
    return _frame(
        TAG_SETUP_ENVIRONMENT, _json_payload(scenario.environment_to_json(msg.env), "environment")
    )


def _encode_start(msg: StartSim) -> bytes:
    try:
        run_index = _U8.pack(msg.run_index)
    except struct.error:
        raise WireFormatError(f"run index {msg.run_index} does not fit in one byte") from None
    config = _json_payload(scenario.config_to_json(msg.config), "config")
    return _frame(TAG_START_SIM, run_index + config)


def _encode_heartbeat(msg: Heartbeat) -> bytes:
    try:
        return _HEARTBEAT_FRAME.pack(
            _HEARTBEAT_BODY_BYTES, TAG_HEARTBEAT, msg.sim_time_ms, _STATUS_BYTES[msg.status]
        )
    except (KeyError, TypeError):
        raise WireFormatError(f"heartbeat status {msg.status!r} is not a HeartbeatStatus") from None
    except struct.error:
        raise WireFormatError(
            f"heartbeat sim_time_ms {msg.sim_time_ms!r} does not fit in eight unsigned bytes"
        ) from None


def _encode_trace(msg: TraceData) -> bytes:
    return _frame(
        TAG_TRACE_DATA, _json_payload(scenario.trajectory_to_json(msg.trajectory), "trajectory")
    )


def _encode_error(msg: ProtocolErrorMsg) -> bytes:
    code = _u16(msg.code, "error code")
    try:
        text = msg.message.encode("utf-8")
    except (AttributeError, UnicodeEncodeError) as exc:
        raise WireFormatError(f"error message {msg.message!r} is not UTF-8 text: {exc}") from None
    return _frame(TAG_PROTOCOL_ERROR, code + text)


_ENCODERS: dict[type, Callable[..., bytes]] = {
    Hello: _encode_hello,
    Ack: lambda msg: _ACK_FRAME,
    SetupEnvironment: _encode_setup,
    StartSim: _encode_start,
    Heartbeat: _encode_heartbeat,
    Continue: lambda msg: _CONTINUE_FRAME,
    TraceData: _encode_trace,
    ProtocolErrorMsg: _encode_error,
}


def encode_message(msg: WireMessage) -> bytes:
    """Encode one message into a complete frame (header + tag + payload).

    A field the frame cannot carry raises WireFormatError naming it; an
    object of any other class than the eight messages raises TypeError.
    """
    try:
        encode = _ENCODERS[type(msg)]
    except KeyError:
        raise TypeError(f"not a wire message: {msg!r}") from None
    return encode(msg)


def _decode_json(payload: bytes, what: str, from_json: Callable):
    """from_json of the JSON document in payload; any error in its encoding,
    syntax or schema is a WireFormatError."""
    try:
        return from_json(json.loads(payload.decode("utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError, scenario.ScenarioFormatError) as exc:
        raise WireFormatError(f"malformed {what} payload: {exc}") from None


# Each decoder takes a whole frame whose length header matches its size.


def _decode_hello(frame: bytes) -> Hello:
    if len(frame) != _PAYLOAD_START + 2:
        raise WireFormatError("hello payload must be 2 bytes")
    return Hello(_U16.unpack_from(frame, _PAYLOAD_START)[0])


def _empty_decoder(cls: type, name: str) -> Callable[[bytes], WireMessage]:
    def decode(frame: bytes) -> WireMessage:
        if len(frame) != _PAYLOAD_START:
            raise WireFormatError(f"{name} payload must be empty")
        return cls()

    return decode


def _decode_setup(frame: bytes) -> SetupEnvironment:
    payload = frame[_PAYLOAD_START:]
    return SetupEnvironment(_decode_json(payload, "environment", scenario.environment_from_json))


def _decode_start(frame: bytes) -> StartSim:
    if len(frame) == _PAYLOAD_START:
        raise WireFormatError("start payload missing run index")
    payload = frame[_PAYLOAD_START + 1:]
    config = _decode_json(payload, "config", scenario.config_from_json)
    return StartSim(config, run_index=frame[_PAYLOAD_START])


def _decode_heartbeat(frame: bytes) -> Heartbeat:
    if len(frame) != _HEARTBEAT_FRAME.size:
        raise WireFormatError("heartbeat payload must be 9 bytes")
    _, _, sim_time_ms, status = _HEARTBEAT_FRAME.unpack(frame)
    if status >= len(_STATUSES):
        raise WireFormatError(f"unknown heartbeat status {status}")
    return Heartbeat(sim_time_ms, _STATUSES[status])


def _decode_trace(frame: bytes) -> TraceData:
    payload = frame[_PAYLOAD_START:]
    return TraceData(_decode_json(payload, "trajectory", scenario.trajectory_from_json))


def _decode_error(frame: bytes) -> ProtocolErrorMsg:
    if len(frame) < _PAYLOAD_START + 2:
        raise WireFormatError("error payload missing code")
    try:
        message = frame[_PAYLOAD_START + 2:].decode("utf-8")
    except UnicodeDecodeError:
        raise WireFormatError("error message is not valid UTF-8") from None
    return ProtocolErrorMsg(_U16.unpack_from(frame, _PAYLOAD_START)[0], message)


_DECODERS: dict[int, Callable[[bytes], WireMessage]] = {
    TAG_HELLO: _decode_hello,
    TAG_ACK: _empty_decoder(Ack, "ack"),
    TAG_SETUP_ENVIRONMENT: _decode_setup,
    TAG_START_SIM: _decode_start,
    TAG_HEARTBEAT: _decode_heartbeat,
    TAG_CONTINUE: _empty_decoder(Continue, "continue"),
    TAG_TRACE_DATA: _decode_trace,
    TAG_PROTOCOL_ERROR: _decode_error,
}


def decode_message(frame: bytes) -> WireMessage:
    """Decode a complete frame produced by encode_message."""
    if len(frame) < _PAYLOAD_START:
        raise WireFormatError("incomplete frame: missing header or tag")
    length, tag = _HEADER.unpack_from(frame)
    if length > MAX_FRAME_BYTES:
        raise WireFormatError(f"frame too large: {length} bytes")
    if len(frame) - HEADER_BYTES != length:
        raise WireFormatError(
            f"incomplete frame: body has {len(frame) - HEADER_BYTES} of {length} bytes"
        )
    try:
        decode = _DECODERS[tag]
    except KeyError:
        raise WireFormatError(f"unknown message tag 0x{tag:02x}") from None
    return decode(frame)


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
    """The next frame's message.  One recv of the header and one of the body
    is the usual case; a short read is completed by _recv_exact."""
    header = sock.recv(HEADER_BYTES)
    if len(header) != HEADER_BYTES:
        header += _recv_exact(sock, HEADER_BYTES - len(header))
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireFormatError(f"frame too large: {length} bytes")
    body = sock.recv(length)
    if len(body) != length:
        body += _recv_exact(sock, length - len(body))
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
    with_sync = (
        env.heart_beat_config is not None
        and env.heart_beat_config.sync_type is SyncType.WITH_SYNC
    )
    try:
        sock.settimeout(timeout_s)
        send_message(sock, Hello())
        _expect_ack(recv_message(sock))
        send_message(sock, SetupEnvironment(env))
        _expect_ack(recv_message(sock))
        send_message(sock, StartSim(config, run_index=run_index))
        sendall = sock.sendall
        while True:
            msg = recv_message(sock)
            if type(msg) is Heartbeat:
                if on_heartbeat is not None:
                    on_heartbeat(msg)
                if with_sync:
                    sendall(encode_message(Continue()))
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
