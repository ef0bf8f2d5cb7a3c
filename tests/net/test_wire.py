"""Framing and the binary batch codec of the real-socket runtime."""

import asyncio
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.wire import (
    BATCH_MAGIC,
    BATCH_VERSION,
    GOSSIP,
    MAX_FRAME_BYTES,
    MEMBER_ID,
    RECORD,
    XFER,
    FrameError,
    pack_batch,
    pack_frame,
    read_frame,
    unpack_frame,
)
from repro.sim.messages import WireFormatError


class TestFraming:
    def test_round_trip(self):
        obj = {"t": "commit", "round": 3, "expect": {"0": 2, "1": 0}}
        frame, rest = unpack_frame(pack_frame(obj))
        assert frame == obj
        assert rest == b""

    def test_concatenated_frames_split_cleanly(self):
        a, b = {"t": "a"}, {"t": "b", "n": 1}
        data = pack_frame(a) + pack_frame(b)
        first, rest = unpack_frame(data)
        second, tail = unpack_frame(rest)
        assert (first, second, tail) == (a, b, b"")

    def test_truncated_frame_raises(self):
        data = pack_frame({"t": "x", "pad": "y" * 100})
        with pytest.raises(FrameError, match="truncated"):
            unpack_frame(data[:-1])
        with pytest.raises(FrameError, match="length prefix"):
            unpack_frame(data[:3])

    def test_oversized_length_prefix_rejected(self):
        bogus = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"x"
        with pytest.raises(FrameError, match="exceeds"):
            unpack_frame(bogus)

    def test_non_object_body_rejected(self):
        data = len(b"[1,2]").to_bytes(4, "big") + b"[1,2]"
        with pytest.raises(FrameError, match="object"):
            unpack_frame(data)

    def test_frame_error_is_wire_format_error(self):
        # One except-clause catches both codec and framing faults.
        assert issubclass(FrameError, WireFormatError)


# -- the binary batch --------------------------------------------------------

ENVELOPE = {"t": "batch", "src": 1, "iter": 0, "seq": 0}


def section(messages):
    """``(records, ids)`` for ``("gossip", src, dst, round, members)`` /
    ``("xfer", src, dst, task)`` messages, the way ``NetWorker.post``
    lays them out."""
    records, ids = [], []
    for kind, src, dst, step, *members in messages:
        if kind == "gossip":
            (m,) = members
            records.append((GOSSIP, src, dst, len(m), step, 64 + 32 * len(m)))
            ids.append(np.asarray(m, dtype=np.int64))
        else:
            records.append((XFER, src, dst, 0, step, 96))
    return records, ids


def body_of(frame: bytes) -> bytes:
    return frame[4:]


def framed(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


def decoded(frame):
    """The decoded batch back in ``section``'s message form."""
    out, end = [], 0
    for kind, src, dst, count, step, _size in frame["records"].tolist():
        if kind == GOSSIP:
            out.append(("gossip", src, dst, step, frame["ids"][end : end + count].tolist()))
            end += count
        else:
            out.append(("xfer", src, dst, step))
    return out


@st.composite
def batches(draw):
    """A step's messages at up to 64 ranks: mixed kinds, empty shards,
    ids up to ``n_ranks - 1``, task ids past 2**32."""
    n_ranks = draw(st.integers(1, 64))
    rank = st.integers(0, n_ranks - 1)
    gossip = st.tuples(
        st.just("gossip"), rank, rank, st.integers(1, 12),
        st.lists(rank, unique=True, max_size=n_ranks).map(sorted),
    )
    xfer = st.tuples(st.just("xfer"), rank, rank, st.integers(0, 2**40))
    return draw(st.lists(st.one_of(gossip, xfer), max_size=40))


class TestBatchCodec:
    def test_layout_is_pinned(self):
        """Header, space-padded envelope, 32-byte records, <i8 ids."""
        frame = pack_batch(ENVELOPE, *section([("gossip", 3, 7, 1, [4, 9]), ("xfer", 3, 5, 2**33)]))
        head = b'{"t":"batch","src":1,"iter":0,"seq":0,"n":2}'
        head += b" " * (-len(head) % 8)
        expected = (
            struct.pack("<BBxxI", BATCH_MAGIC, BATCH_VERSION, len(head)) + head
            + struct.pack("<iiiiqq", GOSSIP, 3, 7, 2, 1, 128)
            + struct.pack("<iiiiqq", XFER, 3, 5, 0, 2**33, 96)
            + struct.pack("<qq", 4, 9)
        )
        assert body_of(frame) == expected
        assert RECORD.itemsize == 32 and MEMBER_ID.itemsize == 8

    def test_empty_batch_round_trips(self):
        frame, rest = unpack_frame(pack_batch(ENVELOPE, []))
        assert rest == b"" and frame["n"] == 0
        assert frame["records"].size == 0 and frame["ids"].size == 0

    def test_ids_arrive_as_read_only_int64_views(self):
        members = np.array([0, 3, 7, 12], dtype=np.int64)
        frame, _ = unpack_frame(pack_batch(ENVELOPE, *section([("gossip", 3, 7, 2, members)])))
        ids = frame["ids"]
        assert not ids.flags.writeable and ids.flags.aligned
        assert np.asarray(ids, dtype=np.int64) is ids  # NodeCore.receive: no cast
        np.testing.assert_array_equal(ids, members)

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(messages=batches(), cuts=st.lists(st.integers(0, 40), max_size=3),
           chunk=st.integers(1, 97))
    def test_round_trip_across_cuts_and_socket_reads(self, messages, cuts, chunk):
        """Any split of a step into cut frames, fed to ``read_frame`` in
        arbitrary socket-sized chunks, decodes back to the step."""
        bounds = sorted({0, len(messages), *(min(c, len(messages)) for c in cuts)})
        parts = [messages[a:b] for a, b in zip(bounds, bounds[1:])] or [[]]
        stream = b"".join(
            pack_batch({**ENVELOPE, "seq": seq}, *section(part)) for seq, part in enumerate(parts)
        )

        async def read_all():
            reader = asyncio.StreamReader()
            for i in range(0, len(stream), chunk):
                reader.feed_data(stream[i : i + chunk])
            reader.feed_eof()
            frames = []
            while (frame := await read_frame(reader)) is not None:
                frames.append(frame)
            return frames

        frames = asyncio.run(read_all())
        assert [f["seq"] for f in frames] == list(range(len(parts)))
        assert [m for f in frames for m in decoded(f)] == [
            (kind, src, dst, step, *[list(m) for m in members])
            for kind, src, dst, step, *members in messages
        ]
        for frame in frames:
            assert frame["ids"].dtype == MEMBER_ID and not frame["ids"].flags.writeable


# -- malformed bodies: only FrameError escapes ------------------------------

def valid_body() -> bytes:
    return body_of(pack_batch(ENVELOPE, *section(
        [("gossip", 0, 1, 1, [2, 3, 5]), ("xfer", 1, 2, 40), ("gossip", 2, 3, 1, [])]
    )))


def records_at(body: bytes) -> int:
    return 8 + struct.unpack_from("<I", body, 4)[0]


def patched(body: bytes, offset: int, fmt: str, value) -> bytes:
    out = bytearray(body)
    struct.pack_into(fmt, out, offset, value)
    return bytes(out)


class TestMalformedBatch:
    def test_truncated_section(self):
        body = valid_body()
        for cut in range(len(body)):
            with pytest.raises(FrameError):
                unpack_frame(framed(body[:cut]))

    def test_member_count_runs_past_the_body(self):
        body = patched(valid_body(), records_at(valid_body()) + 12, "<i", 4)
        with pytest.raises(FrameError, match="member counts"):
            unpack_frame(framed(body))
        huge = patched(valid_body(), records_at(valid_body()) + 12, "<i", 2**31 - 1)
        with pytest.raises(FrameError, match="member counts"):
            unpack_frame(framed(huge))

    def test_negative_count_and_members_on_a_transfer(self):
        at = records_at(valid_body())
        for body in (patched(valid_body(), at + 12, "<i", -1),
                     patched(valid_body(), at + 32 + 12, "<i", 1)):
            with pytest.raises(FrameError):
                unpack_frame(framed(body))

    @pytest.mark.parametrize("kind", [2, 7, -1])
    def test_unknown_kind(self, kind):
        body = patched(valid_body(), records_at(valid_body()) + 32, "<i", kind)
        with pytest.raises(FrameError, match="kind"):
            unpack_frame(framed(body))

    @pytest.mark.parametrize("version", [0, 2, 255])
    def test_wrong_version(self, version):
        with pytest.raises(FrameError, match="version"):
            unpack_frame(framed(patched(valid_body(), 1, "<B", version)))

    @pytest.mark.parametrize("extra", [b"\0", b"\0" * 8, b"\0" * 32])
    def test_trailing_bytes(self, extra):
        with pytest.raises(FrameError):
            unpack_frame(framed(valid_body() + extra))

    @pytest.mark.parametrize("envelope", [
        {"t": "batch", "src": 1, "iter": 0},  # no seq
        {"t": "batch", "src": "1", "iter": 0, "seq": 0},
        {"t": "batch", "src": 1, "iter": 0, "seq": True},
        {"t": "commit", "src": 1, "iter": 0, "seq": 0},
    ])
    def test_malformed_envelope(self, envelope):
        head = json.dumps({**envelope, "n": 0}).encode()
        head += b" " * (-len(head) % 8)
        body = struct.pack("<BBxxI", BATCH_MAGIC, BATCH_VERSION, len(head)) + head
        with pytest.raises(FrameError):
            unpack_frame(framed(body))

    def test_unknown_first_byte(self):
        with pytest.raises(FrameError, match="first byte"):
            unpack_frame(framed(b"\x01" + valid_body()[1:]))

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=200), magic=st.booleans())
    def test_random_bytes(self, data, magic):
        body = bytes([BATCH_MAGIC, BATCH_VERSION]) + data if magic else data
        try:
            frame, _ = unpack_frame(framed(body))
        except FrameError:
            return
        assert not magic and isinstance(frame, dict)  # random bytes that are a JSON object

    @settings(max_examples=300, deadline=None)
    @given(flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), min_size=1, max_size=4))
    def test_corrupted_valid_body_decodes_or_raises_frame_error(self, flips):
        body = bytearray(valid_body())
        for at, value in flips:
            body[at % len(body)] = value
        try:
            frame, rest = unpack_frame(framed(bytes(body)))
        except FrameError:
            return
        assert rest == b""
        if "records" in frame:  # it still parses: then it is self-consistent
            assert frame["ids"].size == int(frame["records"]["count"].sum())
