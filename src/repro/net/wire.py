"""Length-prefixed framing for the real-socket runtime: one frame layout.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of body; every body, batch or control frame, is laid out as::

    offset 0   u8    BATCH_MAGIC
           1   u8    BATCH_VERSION
           2   2 B   zero
           4   <u4   E, the envelope's length (a multiple of 8)
           8   E B   JSON envelope, space-padded to E
       8 + E   one binary section after another, each zero-padded to a
               multiple of 8 bytes, so every section starts 8-byte aligned

The envelope is one compact JSON object with a ``"t"`` type key; its
``"sections"`` key, absent in a JSON-only frame, lists the sections in
body order as ``[name, code, shape]``, ``code`` a key of :data:`DTYPES`
and ``shape`` one or two dimensions; no section shadows an envelope key
or ``"t"``. :func:`pack_frame` turns each
NumPy array value of a dict into a section and the rest into the
envelope; :func:`read_frame` / :func:`unpack_frame` give the dict back,
each section a read-only ``np.frombuffer`` view into the body. Nothing
received is decoded but by ``json`` and ``np.frombuffer``.

A **batch frame** (``"t": "batch"``, the only worker↔worker frame)
carries one barrier step's messages for one destination worker:
envelope ``{"t","src","iter","seq","step","cut","cuts","sent"}`` (the
step: a gossip round, or 0 for the transfers; this frame's index among
the ``cuts`` frames its sender sends that worker in the step; the
messages its sender sent in the step to all workers), a ``records``
section of one :data:`RECORD` per message and an ``ids`` section,
every gossip message's member ids as ``<i8`` (the dtype of
``GossipSends.ids``). A
:data:`RECORD` is 32 little-endian bytes: ``kind`` (:data:`GOSSIP` /
:data:`XFER`), ``src`` and ``dst`` rank, ``count`` (its ids; 0 for a
transfer), ``step`` (the gossip round, or the transfer's task id) and
``size`` (the simulator's model wire size, which byte counters use).

An unknown first byte, a wrong version, a dtype code off the
whitelist, a section table that does not account for the body byte for
byte, a batch envelope field that is not an integer, a ``cut`` outside
``[0, cuts)``, a negative ``sent``, or a batch whose records and ids
disagree raise :class:`FrameError`.
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
from typing import Any

import numpy as np

from repro.sim.messages import WireFormatError

__all__ = [
    "MAX_FRAME_BYTES",
    "BATCH_MAGIC",
    "BATCH_VERSION",
    "DTYPES",
    "GOSSIP",
    "XFER",
    "KINDS",
    "RECORD",
    "MEMBER_ID",
    "FrameError",
    "pack_frame",
    "unpack_frame",
    "read_frame",
    "expect_frame",
    "write_frame",
]

_LEN = struct.Struct(">I")

#: Upper bound on one frame's payload. Batch frames are cut near 1 MiB
#: and a 1,024-rank control frame is tens of kilobytes; anything bigger
#: is a corrupted length prefix, and failing fast beats a 4 GiB alloc.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: First body byte of every frame.
BATCH_MAGIC = 0xBA
#: Bump on any incompatible change to the frame layout.
BATCH_VERSION = 2
_HEAD = struct.Struct("<BBxxI")  # magic, version, envelope length

#: Record kinds, and the message tags they stand for.
GOSSIP, XFER = 0, 1
KINDS = ("gossip", "xfer")

#: One message of a batch frame (32 bytes, little-endian, unpadded).
RECORD = np.dtype(
    [("kind", "<i4"), ("src", "<i4"), ("dst", "<i4"), ("count", "<i4"),
     ("step", "<i8"), ("size", "<i8")]
)
#: A gossip member id on the wire: the dtype of ``GossipSends.ids``.
MEMBER_ID = np.dtype("<i8")

#: The section dtype whitelist: wire code -> dtype.
DTYPES = {
    "<i8": np.dtype("<i8"), "<f8": np.dtype("<f8"), "<i4": np.dtype("<i4"),
    "|b1": np.dtype(bool), "rec": RECORD,
}
_CODES = {dtype: code for code, dtype in DTYPES.items()}
#: Compact JSON; one encoder (``json.dumps(separators=...)`` builds one per call).
_ENVELOPE = json.JSONEncoder(separators=(",", ":"))


class FrameError(WireFormatError):
    """A byte stream that does not follow the framing protocol."""


def pack_frame(frame: dict[str, Any]) -> bytes:
    """Serialize one frame: each NumPy array value of ``frame`` becomes a
    section (dtype on :data:`DTYPES`' whitelist), the rest the envelope."""
    envelope, table, sections = {}, [], []
    for name, value in frame.items():
        if not isinstance(value, np.ndarray):
            envelope[name] = value
            continue
        code = _CODES.get(value.dtype)
        if code is None or not 1 <= value.ndim <= 2:
            raise FrameError(f"section {name!r}: {value.dtype} {value.shape} is not wire-safe")
        table.append([name, code, list(value.shape)])
        data = value.tobytes()
        sections += [data, bytes(-len(data) % 8)]
    if table:
        if "sections" in envelope:
            raise FrameError("'sections' is the section table's key")
        envelope["sections"] = table
    head = _ENVELOPE.encode(envelope).encode("utf-8")
    head += b" " * (-len(head) % 8)
    length = _HEAD.size + len(head) + sum(map(len, sections))
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    prefix = _LEN.pack(length) + _HEAD.pack(BATCH_MAGIC, BATCH_VERSION, len(head))
    return b"".join([prefix, head, *sections])


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
    if len(body) < _HEAD.size or body[0] != BATCH_MAGIC:
        raise FrameError(f"not a frame body (first byte {body[:1]!r})")
    _, version, head_len = _HEAD.unpack_from(body)
    if version != BATCH_VERSION:
        raise FrameError(f"frame version {version}, expected {BATCH_VERSION}")
    at = _HEAD.size + head_len
    if head_len % 8 or at > len(body):
        raise FrameError(f"envelope of {head_len} bytes does not fit the body")
    try:
        frame = json.loads(body[_HEAD.size : at].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FrameError(f"undecodable envelope: {exc}") from exc
    if not isinstance(frame, dict):
        raise FrameError(f"envelope must be an object, got {type(frame).__name__}")
    table = frame.pop("sections", [])
    for entry in table if type(table) is list else [table]:  # a non-list: one bad entry
        if not (type(entry) is list and len(entry) == 3 and type(entry[0]) is str
                and entry[0] not in frame and entry[0] != "t" and type(entry[1]) is str
                and entry[1] in DTYPES and type(entry[2]) is list and 1 <= len(entry[2]) <= 2
                and all(type(d) is int and 0 <= d <= MAX_FRAME_BYTES for d in entry[2])):
            raise FrameError(f"malformed section entry {entry!r}")
        name, code, shape = entry
        count = math.prod(shape)
        nbytes = count * DTYPES[code].itemsize
        if at + nbytes > len(body):
            raise FrameError(f"section {name!r} of {nbytes} bytes runs past the body")
        frame[name] = np.frombuffer(body, DTYPES[code], count, at).reshape(shape)
        at += nbytes + -nbytes % 8
    if at != len(body):
        raise FrameError(f"sections account for {at} of the body's {len(body)} bytes")
    if frame.get("t") == "batch":
        _check_batch(frame)
    return frame


def _check_batch(batch: dict[str, Any]) -> None:
    keys = ("src", "iter", "seq", "step", "cut", "cuts", "sent")
    if any(type(batch.get(key)) is not int for key in keys):
        raise FrameError(f"batch envelope fields {', '.join(keys)} must be integers")
    if not 0 <= batch["cut"] < batch["cuts"] or batch["sent"] < 0:
        raise FrameError(f"cut {batch['cut']} of {batch['cuts']}, or sent {batch['sent']} < 0")
    records, ids = batch.get("records"), batch.get("ids")
    if not (isinstance(records, np.ndarray) and records.dtype == RECORD and records.ndim == 1
            and isinstance(ids, np.ndarray) and ids.dtype == MEMBER_ID and ids.ndim == 1):
        raise FrameError("a batch needs a 1-D 'records' and a 1-D '<i8' 'ids' section")
    kinds, counts = records["kind"], records["count"]
    if not ((kinds == GOSSIP) | (kinds == XFER)).all():
        raise FrameError(f"unknown record kind in {sorted(set(kinds.tolist()))}")
    if ((counts < 0) | ((kinds == XFER) & (counts != 0))).any():
        raise FrameError("negative member count, or members on a transfer record")
    total = int(counts.sum(dtype=np.int64))
    if total != ids.size:
        raise FrameError(f"member counts sum to {total} ids, the batch holds {ids.size}")


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    EOF mid-frame raises :class:`FrameError` — a peer that dies between
    the prefix and the body must not look like a graceful close. Only
    ``reader.readexactly`` is called.
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
    """Read one frame and require its ``"t"`` to be in ``types``."""
    frame = await read_frame(reader)
    if frame is None:
        raise FrameError(f"peer closed while a {types} frame was expected")
    if frame.get("t") not in types:
        raise FrameError(f"expected frame {types}, got {frame.get('t')!r}")
    return frame


async def write_frame(writer: asyncio.StreamWriter, frame: dict[str, Any]) -> int:
    """Write one frame, drain the transport buffer; returns its length."""
    data = pack_frame(frame)
    writer.write(data)
    await writer.drain()
    return len(data)
