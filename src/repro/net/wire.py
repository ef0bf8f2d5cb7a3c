"""Length-prefixed JSON framing for the real-socket runtime.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON. The JSON object is either a control frame (a plain
dict with a ``"t"`` type key, used on worker↔coordinator links) or a
batch frame (``"t": "batch"``, an envelope around a list of
:func:`repro.sim.messages.to_wire` dicts, used on worker↔worker links)
— both share the same byte-level framing, so one reader serves every
connection.

msgpack would be denser, but it is not in the environment and the
determinism contract only cares about the *logical* message content;
model byte counters use the simulator's cost model, never
``len(frame)``. The codec (ndarray/tuple encoding, version checks)
lives in :mod:`repro.sim.messages` so sim and net literally share it.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any

from repro.sim.messages import WireFormatError

__all__ = [
    "MAX_FRAME_BYTES",
    "FrameError",
    "encode_json",
    "pack_frame",
    "unpack_frame",
    "read_frame",
    "expect_frame",
    "write_frame",
]

_LEN = struct.Struct(">I")

#: Upper bound on one frame's payload. Batch frames are cut near 1 MiB
#: and a 1,024-rank move list is a few megabytes; anything bigger is a
#: corrupted length prefix, and failing fast beats a 4 GiB alloc.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameError(WireFormatError):
    """A byte stream that does not follow the framing protocol."""


def encode_json(obj: Any) -> bytes:
    """Compact UTF-8 JSON — the one encoding every frame body uses."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def pack_frame(obj: dict[str, Any], msgs: list[bytes] | None = None) -> bytes:
    """Serialize one frame: length prefix + compact JSON.

    ``msgs`` — JSON values already encoded by :func:`encode_json`, so
    that the sender could measure them — become the frame's ``"msgs"``
    array without being encoded a second time (a batch frame).
    """
    body = encode_json(obj)
    if msgs is not None:
        sep = b"," if obj else b""
        body = body[:-1] + sep + b'"msgs":[' + b",".join(msgs) + b"]}"
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LEN.pack(len(body)) + body


def unpack_frame(data: bytes) -> tuple[dict[str, Any], bytes]:
    """Split one complete frame off ``data``; returns (frame, rest).

    Raises :class:`FrameError` if ``data`` does not hold a complete,
    well-formed frame (the synchronous counterpart of
    :func:`read_frame`, used by tests and the log replayer).
    """
    if len(data) < _LEN.size:
        raise FrameError("incomplete length prefix")
    (length,) = _LEN.unpack_from(data)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    end = _LEN.size + length
    if len(data) < end:
        raise FrameError(f"truncated frame: need {end} bytes, have {len(data)}")
    return _decode_body(data[_LEN.size : end]), data[end:]


def _decode_body(body: bytes) -> dict[str, Any]:
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame body: {exc}") from exc
    if not isinstance(obj, dict):
        raise FrameError(f"frame body must be an object, got {type(obj).__name__}")
    return obj


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    EOF mid-frame raises :class:`FrameError` — a peer that dies between
    the prefix and the body must not look like a graceful close.
    """
    try:
        prefix = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError("connection closed inside a length prefix") from exc
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError("connection closed inside a frame body") from exc
    return _decode_body(body)


async def expect_frame(reader: asyncio.StreamReader, *types: str) -> dict[str, Any]:
    """Read one control frame and require its ``"t"`` to be in ``types``."""
    frame = await read_frame(reader)
    if frame is None:
        raise FrameError(f"peer closed while a {types} frame was expected")
    if frame.get("t") not in types:
        raise FrameError(f"expected control frame {types}, got {frame.get('t')!r}")
    return frame


async def write_frame(writer: asyncio.StreamWriter, obj: dict[str, Any]) -> None:
    """Write one frame and drain the transport buffer."""
    writer.write(pack_frame(obj))
    await writer.drain()
