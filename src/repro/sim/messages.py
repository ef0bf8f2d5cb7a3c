"""Typed active messages exchanged between simulated ranks.

Besides the in-simulator :class:`Message` dataclass, this module keeps
a JSON-safe *wire dict* for one message (:func:`to_wire`, versioned by
:data:`WIRE_VERSION`). The real-socket runtime (:mod:`repro.net`) no
longer uses it: gossip and transfer messages cross its sockets as
fixed-layout records inside binary batch frames
(:func:`repro.net.wire.pack_batch`). :func:`to_wire` and
:func:`encode_payload` stay because the repo benchmark's
``net.wire.pack_us`` microbenchmark times them;
:class:`WireFormatError` is the base of every framing error.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "Message",
    "WIRE_VERSION",
    "WireFormatError",
    "encode_payload",
    "to_wire",
]

_ids = itertools.count()

#: Schema version stamped on every wire dict. Bump on any incompatible
#: change to its layout or payload encoding.
WIRE_VERSION = 1


class WireFormatError(ValueError):
    """A frame or payload that does not follow the wire schema."""


def encode_payload(payload: Any) -> Any:
    """Recursively convert a message payload to JSON-safe values.

    Handled types: None/bool/int/float/str pass through; numpy scalars
    become Python scalars; numpy arrays become ``{"__nd__": ..,
    "dtype": ..}``; tuples become ``{"__tuple__": [..]}`` (so tuple and
    list stay distinct); lists and string-keyed
    dicts recurse. Anything else is a :class:`WireFormatError` — the
    wire schema is deliberately closed. (Kept, with :func:`to_wire`, for
    the repo benchmark's ``net.wire.pack_us`` microbenchmark.)
    """
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    if isinstance(payload, np.generic):
        return payload.item()
    if isinstance(payload, np.ndarray):
        return {"__nd__": payload.tolist(), "dtype": payload.dtype.name}
    if isinstance(payload, tuple):
        return {"__tuple__": [encode_payload(v) for v in payload]}
    if isinstance(payload, list):
        return [encode_payload(v) for v in payload]
    if isinstance(payload, dict):
        out = {}
        for key, value in payload.items():
            if not isinstance(key, str) or key in ("__nd__", "__tuple__"):
                raise WireFormatError(f"unencodable payload dict key {key!r}")
            out[key] = encode_payload(value)
        return out
    raise WireFormatError(f"unencodable payload type {type(payload).__name__}")


def to_wire(msg: "Message") -> dict[str, Any]:
    """The JSON-safe wire dict for one message."""
    return {
        "v": WIRE_VERSION,
        "src": int(msg.src),
        "dst": int(msg.dst),
        "tag": msg.tag,
        "payload": encode_payload(msg.payload),
        "size": int(msg.size),
    }


@dataclass(frozen=True)
class Message:
    """One active message.

    ``tag`` routes the message to a registered handler on the
    destination process (vt's "registered handler" dispatch). ``size``
    is the wire size in bytes used by the network cost model.
    """

    src: int
    dst: int
    tag: str
    payload: Any = None
    size: int = 64
    send_time: float = 0.0
    msg_id: int = field(default_factory=lambda: next(_ids))

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("message size must be non-negative")
