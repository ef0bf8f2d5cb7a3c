"""Length-prefixed framing for the real-socket runtime.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of body. The body's first byte says which of two kinds it is:

- ``{`` — a **control frame**: one compact UTF-8 JSON object with a
  ``"t"`` type key (``assign``, ``sent``, ``commit``, ``decide``,
  ``apply``, ``stats``, …), used on worker↔coordinator links; a body
  that starts with any other byte and is not a JSON object is refused;
- :data:`BATCH_MAGIC` — a **batch frame**, the only worker↔worker
  frame: one barrier step's gossip and transfer messages for one
  destination worker, laid out as::

      offset 0   u8    BATCH_MAGIC
             1   u8    BATCH_VERSION
             2   2 B   zero
             4   <u4   E, the envelope's length (a multiple of 8)
             8   E B   JSON envelope {"t":"batch","src","iter","seq","n"},
                       space-padded to E
         8 + E   n × RECORD   one record per message
                 Σ count × <i8  every message's member ids, concatenated

  A :data:`RECORD` is 32 little-endian bytes: ``kind`` (:data:`GOSSIP`
  / :data:`XFER`), ``src`` and ``dst`` rank, ``count`` (member ids it
  owns in the id array; 0 for a transfer), ``step`` (the gossip round,
  or the transfer's task id) and ``size`` (the simulator's model wire
  size). The ids are ``<i8``, the dtype ``NodeCore`` keeps its shards
  in, and both arrays start 8-byte aligned, so a receiver reads them
  with two ``np.frombuffer`` calls and hands out views, no copy.

Dedup, early-batch parking and ``seq`` stamping read only the small
JSON envelope. :func:`read_frame` / :func:`unpack_frame` decode either
kind: a control frame to its dict, a batch to its envelope dict plus
``"records"`` and ``"ids"`` (read-only arrays). An unknown first byte,
a wrong version, an unknown kind or counts that do not account for the
body byte for byte raise :class:`FrameError`. Model byte counters use
the simulator's cost model, never ``len(frame)``.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Sequence

import numpy as np

from repro.sim.messages import WireFormatError

__all__ = [
    "MAX_FRAME_BYTES",
    "BATCH_MAGIC",
    "BATCH_VERSION",
    "GOSSIP",
    "XFER",
    "KINDS",
    "RECORD",
    "MEMBER_ID",
    "FrameError",
    "encode_json",
    "pack_frame",
    "pack_batch",
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

#: First body byte of a batch frame; a JSON control body starts with ``{``.
BATCH_MAGIC = 0xBA
#: Bump on any incompatible change to the batch layout.
BATCH_VERSION = 1
_BATCH_TAG = bytes([BATCH_MAGIC])
_BATCH_HEAD = struct.Struct("<BBxxI")  # magic, version, envelope length

#: Record kinds, and the message tags they stand for.
GOSSIP, XFER = 0, 1
KINDS = ("gossip", "xfer")

#: One message of a batch frame (32 bytes, little-endian, unpadded).
RECORD = np.dtype(
    [("kind", "<i4"), ("src", "<i4"), ("dst", "<i4"), ("count", "<i4"),
     ("step", "<i8"), ("size", "<i8")]
)
#: A gossip member id on the wire: the dtype of ``NodeCore.shard``.
MEMBER_ID = np.dtype("<i8")


class FrameError(WireFormatError):
    """A byte stream that does not follow the framing protocol."""


def encode_json(obj: Any) -> bytes:
    """Compact UTF-8 JSON — the encoding of every control body."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def _framed(body: bytes) -> bytes:
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LEN.pack(len(body)) + body


def pack_frame(obj: dict[str, Any]) -> bytes:
    """Serialize one control frame: length prefix + compact JSON.

    The runtime sends no message this way any more; the repo
    benchmark's ``net.wire.pack_us`` microbenchmark still times it on a
    ``to_wire`` dict, so it and :func:`unpack_frame` keep their shape.
    """
    return _framed(encode_json(obj))


def pack_batch(
    envelope: dict[str, Any], records: Sequence[tuple], ids: Sequence[np.ndarray] = ()
) -> bytes:
    """Serialize one batch frame: ``envelope`` (which gains ``"n"``),
    ``records`` — ``(kind, src, dst, count, step, size)`` tuples in
    :data:`RECORD` field order — and the member-id arrays the gossip
    records' ``count`` fields account for, in record order."""
    head = encode_json({**envelope, "n": len(records)})
    head += b" " * (-len(head) % 8)
    members = np.concatenate(ids, dtype=MEMBER_ID).tobytes() if len(ids) else b""
    return _framed(
        _BATCH_HEAD.pack(BATCH_MAGIC, BATCH_VERSION, len(head))
        + head
        + np.array(records, dtype=RECORD).tobytes()
        + members
    )


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
    if body[:1] == _BATCH_TAG:
        return _decode_batch(body)
    return _decode_json(body)  # any other first byte fails here unless it is JSON


def _decode_json(body: bytes) -> dict[str, Any]:
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FrameError(
            f"undecodable frame body (first byte {body[:1]!r}): {exc}"
        ) from exc
    if not isinstance(obj, dict):
        raise FrameError(f"frame body must be an object, got {type(obj).__name__}")
    return obj


def _decode_batch(body: bytes) -> dict[str, Any]:
    if len(body) < _BATCH_HEAD.size:
        raise FrameError("truncated batch header")
    _, version, head_len = _BATCH_HEAD.unpack_from(body)
    if version != BATCH_VERSION:
        raise FrameError(f"batch version {version}, expected {BATCH_VERSION}")
    start = _BATCH_HEAD.size + head_len
    if head_len % 8 or start > len(body):
        raise FrameError(f"batch envelope of {head_len} bytes does not fit the body")
    batch = _decode_json(body[_BATCH_HEAD.size : start])
    for key in ("src", "iter", "seq", "n"):
        if type(batch.get(key)) is not int:
            raise FrameError(f"batch envelope field {key!r} must be an integer")
    n = batch["n"]
    if batch.get("t") != "batch" or n < 0:
        raise FrameError(f"malformed batch envelope {batch}")
    ids_start = start + n * RECORD.itemsize
    if ids_start > len(body):
        raise FrameError(f"{n} records run past a {len(body)}-byte body")
    records = np.frombuffer(body, RECORD, n, start)
    kinds, counts = records["kind"], records["count"]
    if not ((kinds == GOSSIP) | (kinds == XFER)).all():
        raise FrameError(f"unknown record kind in {sorted(set(kinds.tolist()))}")
    if ((counts < 0) | ((kinds == XFER) & (counts != 0))).any():
        raise FrameError("negative member count, or members on a transfer record")
    total = int(counts.sum(dtype=np.int64))
    if len(body) - ids_start != total * MEMBER_ID.itemsize:
        raise FrameError(
            f"member counts sum to {total} ids, body holds "
            f"{len(body) - ids_start} bytes after the records"
        )
    batch["records"] = records
    batch["ids"] = np.frombuffer(body, MEMBER_ID, total, ids_start)
    return batch


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
    """Write one control frame and drain the transport buffer."""
    writer.write(pack_frame(obj))
    await writer.drain()
