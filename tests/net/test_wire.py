"""Framing and the one frame layout of the real-socket runtime: a JSON
envelope followed by named, 8-byte-aligned binary sections."""

import asyncio
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net import wire
from repro.net.wire import (
    BATCH_MAGIC,
    BATCH_VERSION,
    DTYPES,
    GOSSIP,
    MAX_FRAME_BYTES,
    MEMBER_ID,
    RECORD,
    XFER,
    FrameError,
    pack_frame,
    read_frame,
    unpack_frame,
)
from repro.sim.messages import WireFormatError


def body_of(frame: bytes) -> bytes:
    return frame[4:]


def framed(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


def raw_body(envelope, sections=b"", version=BATCH_VERSION) -> bytes:
    """A body with ``envelope`` (any JSON value) as written, padded."""
    head = json.dumps(envelope, separators=(",", ":")).encode()
    head += b" " * (-len(head) % 8)
    return struct.pack("<BBxxI", BATCH_MAGIC, version, len(head)) + head + sections


def read_chunked(stream: bytes, chunk: int) -> list[dict]:
    """Every frame of ``stream``, fed to ``read_frame`` in ``chunk``-byte reads."""

    async def read_all():
        reader = asyncio.StreamReader()
        for i in range(0, len(stream), chunk):
            reader.feed_data(stream[i : i + chunk])
        reader.feed_eof()
        frames = []
        while (frame := await read_frame(reader)) is not None:
            frames.append(frame)
        return frames

    return asyncio.run(read_all())


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
        with pytest.raises(FrameError, match="object"):
            unpack_frame(framed(raw_body([1, 2])))

    def test_frame_error_is_wire_format_error(self):
        # One except-clause catches both codec and framing faults.
        assert issubclass(FrameError, WireFormatError)

    def test_json_only_frame_is_the_zero_section_case(self):
        """A dict without arrays is header + padded envelope, nothing else."""
        obj = {"t": "hello", "worker": 3}
        assert body_of(pack_frame(obj)) == raw_body(obj)
        frame, _ = unpack_frame(pack_frame(obj))
        assert frame == obj and "sections" not in frame


# -- sections ---------------------------------------------------------------

class TestSections:
    def test_layout_is_pinned(self):
        """Envelope with the section table, then each section zero-padded
        to 8 bytes, in table order."""
        frame = {"t": "decide", "hits": np.array([1, 2, 3], np.int32),
                 "under": np.array([True, False]), "loads": np.array([0.5], np.float64)}
        table = [["hits", "<i4", [3]], ["under", "|b1", [2]], ["loads", "<f8", [1]]]
        expected = raw_body({"t": "decide", "sections": table}) + (
            struct.pack("<3i", 1, 2, 3) + b"\0" * 4
            + b"\x01\x00" + b"\0" * 6
            + struct.pack("<d", 0.5)
        )
        assert body_of(pack_frame(frame)) == expected

    def test_sections_arrive_as_read_only_aligned_views(self):
        moves = np.arange(12, dtype=np.int32).reshape(4, 3)
        frame, _ = unpack_frame(pack_frame({"t": "apply", "moves": moves, "pad": np.ones(1, bool)}))
        got = frame["moves"]
        assert got.shape == (4, 3) and got.dtype == np.dtype("<i4")
        assert not got.flags.writeable and got.flags.aligned
        np.testing.assert_array_equal(got, moves)

    @pytest.mark.parametrize("value", [
        np.zeros(3, np.float32), np.zeros(3, ">i8"), np.zeros((2, 2, 2), np.int64),
        np.zeros((), np.int64), np.array(["a"]), np.zeros(2, np.uint8),
    ])
    def test_pack_refuses_arrays_off_the_whitelist(self, value):
        with pytest.raises(FrameError, match="wire-safe"):
            pack_frame({"t": "x", "a": value})

    def test_pack_refuses_a_sections_key(self):
        with pytest.raises(FrameError, match="section table"):
            pack_frame({"t": "x", "sections": 1, "a": np.zeros(1, np.int64)})

    def test_pack_refuses_frames_over_the_limit(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 1024)
        pack_frame({"t": "x", "a": np.zeros(100, np.int64)})
        with pytest.raises(FrameError, match="exceeds"):
            pack_frame({"t": "x", "a": np.zeros(200, np.int64)})

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), chunk=st.integers(1, 97))
    def test_random_frames_round_trip_through_chunked_reads(self, data, chunk):
        """Random envelopes and sections of every whitelisted dtype —
        empty ones and ``(0, 3)`` move rows included — survive a stream
        of several frames read in arbitrary socket-sized chunks."""
        scalars = st.one_of(st.integers(-2**40, 2**40), st.text(max_size=8), st.booleans(), st.none())
        frames = []
        for _ in range(data.draw(st.integers(1, 3))):
            names = data.draw(st.lists(st.sampled_from("abcdefgh"), unique=True, max_size=6))
            frame = {"t": data.draw(st.text(max_size=6).filter(lambda t: t != "batch")), **{
                k: data.draw(scalars) for k in names[: len(names) // 2]}}
            for name in names[len(names) // 2 :]:
                code = data.draw(st.sampled_from(sorted(DTYPES)))
                shape = data.draw(st.sampled_from([(0,), (0, 3), (1,), (5,), (7, 3), (2, 1)]))
                raw = data.draw(st.binary(min_size=DTYPES[code].itemsize * int(np.prod(shape)),
                                          max_size=DTYPES[code].itemsize * int(np.prod(shape))))
                frame[name] = np.frombuffer(raw, np.uint8).view(DTYPES[code]).reshape(shape)
                if code == "|b1":
                    frame[name] = frame[name].view(np.uint8).astype(bool)
            frames.append(frame)
        decoded = read_chunked(b"".join(pack_frame(f) for f in frames), chunk)
        assert len(decoded) == len(frames)
        for sent, got in zip(frames, decoded):
            assert sent.keys() == got.keys()
            for key, value in sent.items():
                if isinstance(value, np.ndarray):
                    assert got[key].dtype == value.dtype and got[key].shape == value.shape
                    assert got[key].tobytes() == value.tobytes()
                    assert not got[key].flags.writeable
                else:
                    assert got[key] == value


# -- the batch frame -------------------------------------------------------

ENVELOPE = {"t": "batch", "src": 1, "iter": 0, "seq": 0}


def batch(envelope, messages):
    """The batch frame dict for ``("gossip", src, dst, round, members)`` /
    ``("xfer", src, dst, task)`` messages, laid out as ``NetWorker.post``
    lays them out."""
    records, ids = [], [np.empty(0, MEMBER_ID)]
    for kind, src, dst, step, *members in messages:
        if kind == "gossip":
            (m,) = members
            records.append((GOSSIP, src, dst, len(m), step, 64 + 32 * len(m)))
            ids.append(np.asarray(m, dtype=np.int64))
        else:
            records.append((XFER, src, dst, 0, step, 96))
    return {**envelope, "records": np.array(records, dtype=RECORD), "ids": np.concatenate(ids)}


def decoded(frame):
    """The decoded batch back in ``batch``'s message form."""
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
        """Header, padded envelope with its section table, 32-byte
        records, <i8 ids."""
        frame = pack_frame(batch(ENVELOPE, [("gossip", 3, 7, 1, [4, 9]), ("xfer", 3, 5, 2**33)]))
        table = [["records", "rec", [2]], ["ids", "<i8", [2]]]
        expected = raw_body({**ENVELOPE, "sections": table}) + (
            struct.pack("<iiiiqq", GOSSIP, 3, 7, 2, 1, 128)
            + struct.pack("<iiiiqq", XFER, 3, 5, 0, 2**33, 96)
            + struct.pack("<qq", 4, 9)
        )
        assert body_of(frame) == expected
        assert RECORD.itemsize == 32 and MEMBER_ID.itemsize == 8
        assert BATCH_VERSION == 2

    def test_empty_batch_round_trips(self):
        frame, rest = unpack_frame(pack_frame(batch(ENVELOPE, [])))
        assert rest == b"" and frame["records"].size == 0
        assert frame["records"].dtype == RECORD and frame["ids"].size == 0

    def test_ids_arrive_as_read_only_int64_views(self):
        members = np.array([0, 3, 7, 12], dtype=np.int64)
        frame, _ = unpack_frame(pack_frame(batch(ENVELOPE, [("gossip", 3, 7, 2, members)])))
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
            pack_frame(batch({**ENVELOPE, "seq": seq}, part)) for seq, part in enumerate(parts)
        )
        frames = read_chunked(stream, chunk)
        assert [f["seq"] for f in frames] == list(range(len(parts)))
        assert [m for f in frames for m in decoded(f)] == [
            (kind, src, dst, step, *[list(m) for m in members])
            for kind, src, dst, step, *members in messages
        ]
        for frame in frames:
            assert frame["ids"].dtype == MEMBER_ID and not frame["ids"].flags.writeable


# -- malformed bodies: only FrameError escapes ------------------------------

def valid_body() -> bytes:
    return body_of(pack_frame(batch(ENVELOPE,
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

    @pytest.mark.parametrize("version", [0, 1, 3, 255])  # 1: the JSON-control-era layout
    def test_wrong_version(self, version):
        with pytest.raises(FrameError, match="version"):
            unpack_frame(framed(patched(valid_body(), 1, "<B", version)))

    @pytest.mark.parametrize("extra", [b"\0", b"\0" * 8, b"\0" * 32])
    def test_trailing_bytes(self, extra):
        with pytest.raises(FrameError, match="account"):
            unpack_frame(framed(valid_body() + extra))

    @pytest.mark.parametrize("envelope", [
        {"t": "batch", "src": 1, "iter": 0},  # no seq
        {"t": "batch", "src": "1", "iter": 0, "seq": 0},
        {"t": "batch", "src": 1, "iter": 0, "seq": True},
    ])
    def test_malformed_envelope(self, envelope):
        with pytest.raises(FrameError, match="integer"):
            unpack_frame(pack_frame(batch(envelope, [])))

    @pytest.mark.parametrize("frame", [
        {**ENVELOPE},  # no sections
        {**ENVELOPE, "records": np.zeros(0, RECORD)},  # no ids
        {**ENVELOPE, "records": np.zeros(0, RECORD), "ids": np.zeros(0, np.int32)},
        {**ENVELOPE, "records": np.zeros((0, 3), np.int64), "ids": np.zeros(0, MEMBER_ID)},
        {**ENVELOPE, "records": [], "ids": np.zeros(0, MEMBER_ID)},
    ])
    def test_batch_without_its_two_sections(self, frame):
        with pytest.raises(FrameError, match="needs"):
            unpack_frame(pack_frame(frame))

    def test_unknown_first_byte(self):
        with pytest.raises(FrameError, match="first byte"):
            unpack_frame(framed(b"\x01" + valid_body()[1:]))
        with pytest.raises(FrameError, match="first byte"):  # a bare JSON body
            unpack_frame(framed(b'{"t":"commit"}'))

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=200), magic=st.booleans())
    def test_random_bytes(self, data, magic):
        body = bytes([BATCH_MAGIC, BATCH_VERSION]) + data if magic else data
        try:
            frame, _ = unpack_frame(framed(body))
        except FrameError:
            return
        assert isinstance(frame, dict) and body[0] == BATCH_MAGIC

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
        if frame.get("t") == "batch":  # it still parses: then it is self-consistent
            assert frame["ids"].size == int(frame["records"]["count"].sum())


# -- malformed section tables: only FrameError escapes -----------------------

def with_table(table, sections=b"", envelope=None) -> bytes:
    return framed(raw_body({**(envelope or {"t": "x"}), "sections": table}, sections))


class TestMalformedSections:
    @pytest.mark.parametrize("code", ["<u8", "<f4", "i8", "", "REC", 8, None, ["<i8"]])
    def test_unknown_dtype_code(self, code):
        with pytest.raises(FrameError, match="malformed section"):
            unpack_frame(with_table([["a", code, [1]]], b"\0" * 8))

    @pytest.mark.parametrize("shape", [
        [-1], [1, -3], [2**70], [MAX_FRAME_BYTES + 1], [0, 2**70], [], [1, 1, 1],
        [1.0], [True], ["1"], None, 3,
    ])
    def test_negative_overflowing_or_odd_shapes(self, shape):
        with pytest.raises(FrameError):
            unpack_frame(with_table([["a", "<i8", shape]], b"\0" * 8))

    @pytest.mark.parametrize("nbytes", [0, 8, 16, 24, 40])
    def test_byte_counts_other_than_dtype_times_shape(self, nbytes):
        # 4 <i8 take 32 bytes: any other section length is refused.
        with pytest.raises(FrameError, match="past the body|account"):
            unpack_frame(with_table([["a", "<i8", [4]]], b"\0" * nbytes))

    def test_unpadded_section_is_refused(self):
        # 3 <i4 take 12 bytes, padded to 16; the unpadded 12 do not fit.
        with pytest.raises(FrameError, match="account"):
            unpack_frame(with_table([["a", "<i4", [3]]], b"\0" * 12))
        frame, _ = unpack_frame(with_table([["a", "<i4", [3]]], b"\0" * 16))
        assert frame["a"].tolist() == [0, 0, 0]

    def test_trailing_bytes_after_the_last_section(self):
        with pytest.raises(FrameError, match="account"):
            unpack_frame(with_table([["a", "<i8", [1]]], b"\0" * 16))

    @pytest.mark.parametrize("table, envelope", [
        ([["a", "<i8", [1]], ["a", "<i8", [1]]], None),  # duplicate
        ([["seq", "<i8", [1]]], {"t": "x", "seq": 0}),  # shadows the envelope
        ([["t", "<i8", [1]]], {}),  # the type key is always JSON
        ([[1, "<i8", [1]]], None),
        ([["a", "<i8"]], None),
        ([["a", "<i8", [1], 0]], None),
        (["a", "<i8", [1]], None),
        ({"a": 1}, None),
        ("a", None),
    ])
    def test_malformed_table(self, table, envelope):
        with pytest.raises(FrameError):
            unpack_frame(with_table(table, b"\0" * 16, envelope))

    def test_body_over_the_limit(self, monkeypatch):
        data = with_table([["a", "<i8", [200]]], b"\0" * 1600)
        unpack_frame(data)
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 1024)
        with pytest.raises(FrameError, match="exceeds"):
            unpack_frame(data)
        with pytest.raises(FrameError, match="exceeds"):
            read_chunked(data, 64)

    @settings(max_examples=300, deadline=None)
    @given(table=st.recursive(
        st.one_of(st.integers(-2**65, 2**65), st.text(max_size=4), st.booleans(), st.none(),
                  st.sampled_from(sorted(DTYPES)), st.floats(allow_nan=False)),
        lambda inner: st.lists(inner, max_size=4), max_leaves=12,
    ), tail=st.binary(max_size=64))
    def test_random_tables_decode_or_raise_frame_error(self, table, tail):
        try:
            frame, _ = unpack_frame(with_table(table, tail))
        except FrameError:
            return
        for value in frame.values():  # a table that parses accounts for every byte
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable
