"""Per-rank JSONL *message* logs.

Every hosted rank gets one JSON object per logical message it sends
(``tx``) or receives (``rx``) in its own ``wire_rank<NNNNN>.jsonl`` —
whatever batch frame carried the message — and a worker's failed
connection attempts land as ``retry`` rows (``peer`` = the worker
dialled) in its first rank's file. Records carry both clocks:

``t_mono``
    ``time.monotonic()`` — orders events *within* one node; never goes
    backwards, unrelated across nodes.
``t_wall``
    ``time.time()`` — loosely aligns events *across* nodes (same host,
    same clock) for human debugging; may step.

The schema is flat and closed (see :data:`RECORD_FIELDS`) so
``repro net analyze`` can consume logs without guessing:

``{"t_mono": .., "t_wall": .., "rank": .., "dir": "tx"|"rx"|"retry",
  "tag": .., "peer": .., "round": ..|null, "size": ..,
  "frame_bytes": .., "iter": ..}``

``size`` is the *model* wire size (the simulator's cost model);
``frame_bytes`` is the bytes the message occupies inside its batch
frame, so Σ ``frame_bytes`` + the batch envelopes (reported per worker
in the ``stats`` frame) = bytes written — keeping both makes the "model
vs reality" gap measurable.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, IO, Iterator

__all__ = [
    "RECORD_FIELDS",
    "WireLog",
    "iter_records",
    "log_path",
]

#: Every record carries exactly these keys (``round`` may be null).
RECORD_FIELDS = (
    "t_mono",
    "t_wall",
    "rank",
    "dir",
    "tag",
    "peer",
    "round",
    "size",
    "frame_bytes",
    "iter",
)

_DIRS = ("tx", "rx", "retry")


def log_path(log_dir: Path | str, rank: int) -> Path:
    """The canonical log file for one rank."""
    return Path(log_dir) / f"wire_rank{int(rank):05d}.jsonl"


class WireLog:
    """Append-only JSONL log for one rank.

    Writes are line-buffered through a single file handle; each record
    is one ``json.dumps`` line, so a crash can truncate at most the
    final line (and :func:`iter_records` skips a torn tail).
    """

    def __init__(self, log_dir: Path | str, rank: int) -> None:
        self.rank = int(rank)
        self.path = log_path(log_dir, rank)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: IO[str] | None = self.path.open("w", encoding="utf-8")

    def record(
        self,
        direction: str,
        tag: str,
        peer: int,
        size: int,
        frame_bytes: int,
        round_index: int | None = None,
        iteration: int = 0,
    ) -> None:
        """Append one wire event."""
        if self._fh is None:
            return
        if direction not in _DIRS:
            raise ValueError(f"dir must be one of {_DIRS}, got {direction!r}")
        row = {
            "t_mono": time.monotonic(),
            "t_wall": time.time(),
            "rank": self.rank,
            "dir": direction,
            "tag": tag,
            "peer": int(peer),
            "round": None if round_index is None else int(round_index),
            "size": int(size),
            "frame_bytes": int(frame_bytes),
            "iter": int(iteration),
        }
        self._fh.write(json.dumps(row, separators=(",", ":")) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "WireLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def iter_records(path: Path | str) -> Iterator[dict[str, Any]]:
    """Yield records from one log file, validating the schema.

    A torn final line (crash mid-write) is skipped silently; a
    malformed line anywhere else raises ``ValueError`` — that is
    corruption, not a crash artifact.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        lines = fh.readlines()
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                return  # torn tail from a crash — tolerated
            raise ValueError(f"{path}:{i + 1}: malformed JSONL record")
        missing = [k for k in RECORD_FIELDS if k not in row]
        if missing:
            raise ValueError(f"{path}:{i + 1}: record missing fields {missing}")
        yield row
