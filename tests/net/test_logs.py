"""JSONL wire-log schema round-trip and analyzer cross-checks."""

import json

import numpy as np
import pytest

from repro.core.knowledge import row_ids
from repro.net import EpisodeSpec, NetOptions, NodeCore, run_episode_net, save_result
from repro.net.analyze import analyze_episode, analyze_logs, format_report
from repro.net.logging_jsonl import RECORD_FIELDS, WireLog, iter_records, log_path
from repro.net.node import NetWorker
from repro.net.wire import GOSSIP, RECORD, XFER, FrameError, pack_frame, unpack_frame
from repro.obs import StatsRegistry


def batch_frame(envelope, records, ids=()):
    """A batch frame through the codec, as a worker receives it."""
    sections = {"records": np.array(records, dtype=RECORD),
                "ids": np.concatenate([np.empty(0, np.int64), *ids])}
    frame, rest = unpack_frame(pack_frame({**envelope, **sections}))
    assert rest == b""
    return frame


def known(core, rank):
    """The sorted ids hosted rank ``rank`` of ``core`` knows (its row of ``known``)."""
    return row_ids(core.known[rank - core.ranks.start], core.n_ranks).tolist()


def arrivals(worker):
    """Per hosted rank, its nonzero arrival counts per step."""
    out = {}
    for step, counts in worker.arrivals.items():
        for i in np.flatnonzero(counts).tolist():
            out.setdefault(worker.ranks[i], {})[step] = int(counts[i])
    return out


class TestWireLog:
    def test_schema_round_trip(self, tmp_path):
        with WireLog(tmp_path, 3) as log:
            log.record("tx", "gossip", peer=5, size=96, frame_bytes=120,
                       round_index=2, iteration=1)
            log.record("rx", "xfer", peer=1, size=48, frame_bytes=60)
            log.record("retry", "gossip", peer=5, size=0, frame_bytes=0)
        rows = list(iter_records(log_path(tmp_path, 3)))
        assert len(rows) == 3
        for row in rows:
            assert tuple(sorted(row)) == tuple(sorted(RECORD_FIELDS))
        tx, rx, retry = rows
        assert (tx["dir"], tx["tag"], tx["peer"], tx["round"], tx["iter"]) == (
            "tx", "gossip", 5, 2, 1
        )
        assert (rx["round"], rx["iter"]) == (None, 0)
        assert retry["dir"] == "retry"
        assert tx["t_mono"] <= rx["t_mono"] <= retry["t_mono"]

    def test_invalid_direction_rejected(self, tmp_path):
        with WireLog(tmp_path, 0) as log:
            with pytest.raises(ValueError, match="dir"):
                log.record("sideways", "gossip", 1, 0, 0)

    def test_torn_tail_tolerated_mid_corruption_not(self, tmp_path):
        path = log_path(tmp_path, 0)
        with WireLog(tmp_path, 0) as log:
            log.record("tx", "gossip", 1, 10, 20)
        good = path.read_text()
        path.write_text(good + '{"t_mono": 1.0, "t_wall"')  # crash mid-write
        assert len(list(iter_records(path))) == 1
        path.write_text('{"broken\n' + good)  # corruption before valid rows
        with pytest.raises(ValueError, match="malformed"):
            list(iter_records(path))

    def test_missing_field_rejected(self, tmp_path):
        path = log_path(tmp_path, 0)
        row = {k: 0 for k in RECORD_FIELDS if k != "peer"}
        path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(ValueError, match="missing fields.*peer"):
            list(iter_records(path))


class TestAnalyzer:
    @pytest.fixture(scope="class")
    def episode_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("episode")
        spec = EpisodeSpec.synthetic(16, seed=4, n_iters=2)
        options = NetOptions(log_dir=str(out / "logs"))
        result = run_episode_net(spec, options)
        save_result(out / "result.json", spec, result, options)
        return out, spec, result

    def test_logs_agree_with_result_per_round(self, episode_dir):
        out, spec, result = episode_dir
        report = analyze_episode(out)
        assert report["consistent"] is True
        assert report["logs"]["per_round_tx"] == result.per_round_messages
        assert report["logs"]["nodes"] == spec.n_ranks
        assert report["logs"]["per_tag_tx"]["xfer"] == result.transfer_messages
        # bytes_sent already folds in the transfer messages (the tally
        # charges XFER_BYTES per move), so the log total matches it.
        assert report["logs"]["model_bytes"] == result.bytes_sent

    def test_divergence_is_reported_not_averaged(self, episode_dir):
        out, _, result = episode_dir
        doctored = json.loads((out / "result.json").read_text())
        doctored["result"]["per_round_messages"][0] += 1
        (out / "result.json").write_text(json.dumps(doctored))
        report = analyze_episode(out)
        assert report["consistent"] is False
        assert report["mismatch"]["logs"] == result.per_round_messages
        # Restore for other tests in the class.
        doctored["result"]["per_round_messages"][0] -= 1
        (out / "result.json").write_text(json.dumps(doctored))

    def test_format_report_renders(self, episode_dir):
        out, _, _ = episode_dir
        text = format_report(analyze_episode(out))
        assert "CONSISTENT" in text
        assert "wire logs: 16 nodes" in text

    def test_analyze_logs_keys_rounds_by_iteration(self, episode_dir):
        out, spec, result = episode_dir
        logs = analyze_logs(out / "logs")
        # Two iterations: the analyzer must not collapse equal round
        # numbers across them.
        iters = {i for i, _ in (tuple(r) for r in logs["rounds"])}
        assert iters == {0, 1}
        assert len(logs["per_round_tx"]) == len(result.per_round_messages)


class TestBatchedTransport:
    """The log stays one row per logical message, whatever batch frame
    carried it, and a retransmitted batch counts once."""

    def test_batch_delivered_twice_counts_once(self):
        worker = NetWorker(0, EpisodeSpec.synthetic(8, seed=0), range(8))
        worker.begin_iteration(0)
        members = np.array([1, 5], dtype=np.int64)
        records = [
            (GOSSIP, 5, 2, 2, 1, 96),
            (GOSSIP, 1, 2, 2, 1, 96),
            (GOSSIP, 5, 7, 2, 1, 96),
            (XFER, 3, 4, 0, 11, 48),
        ]
        envelope = {"t": "batch", "src": 1, "iter": 0, "seq": 0}
        frame = batch_frame(envelope, records, [members] * 3)
        assert len(frame["records"]) == 4
        worker.on_batch(frame)
        worker.on_batch(frame)  # the stubborn link's retransmission
        assert worker.deduped == 1
        assert arrivals(worker) == {2: {1: 2}, 7: {1: 1}, 4: {None: 1}}
        # The slice's one registry: rank 2's two messages and rank 7's one.
        assert worker.core.registry.counters["gossip.received"] == 3
        assert worker.core.registry.counters["xfer.received"] == 1
        # Same seq from another worker is another batch.
        worker.on_batch({**frame, "src": 2})
        assert worker.deduped == 1 and arrivals(worker)[2][1] == 4
        assert worker.core.registry.counters["gossip.received"] == 6
        worker.core.advance(1)
        for rank in (2, 7):
            assert {1, 5} <= set(known(worker.core, rank))

    def test_bulk_delivery_equals_one_receive_per_record(self):
        """Handing the slice a whole batch in one call gives the arrivals,
        the counters, the merged knowledge and the next sends that one-rank
        cores fed one record at a time give, whatever the record order,
        rounds and kinds are mixed (empty payloads included)."""
        spec = EpisodeSpec.synthetic(12, seed=3)
        rng = np.random.default_rng(5)
        records, ids = [], []
        for _ in range(60):
            dst, src = int(rng.integers(4, 10)), int(rng.integers(12))
            if rng.random() < 0.3:
                records.append((XFER, src, dst, 0, int(rng.integers(400)), 48))
                continue
            members = np.unique(rng.integers(0, 12, int(rng.integers(0, 5))))
            records.append((GOSSIP, src, dst, members.size, int(rng.integers(1, 3)), 64))
            ids.append(members)
        worker = NetWorker(0, spec, range(4, 10))
        worker.begin_iteration(0)
        worker.on_batch(batch_frame({"t": "batch", "src": 0, "iter": 0, "seq": 0}, records, ids))
        reference = {r: NodeCore(spec, r) for r in range(4, 10)}
        expected: dict = {}
        payloads = iter(ids)
        for core in reference.values():
            core.begin_iteration()
        for kind, _src, dst, _count, step, _size in records:
            if kind == GOSSIP:
                reference[dst].receive(step, next(payloads))
            else:
                reference[dst].receive_xfer(step)
                step = None
            expected.setdefault(dst, {}).setdefault(step, 0)
            expected[dst][step] += 1
        assert arrivals(worker) == expected

        def merged():
            registry = StatsRegistry()
            for ref in reference.values():
                registry.merge(ref.registry)
            return registry.counters

        assert worker.core.registry.counters == merged()
        for round_index in (1, 2):
            sends = [(s.src, s.dst, s.round, s.members.tolist(), s.size)
                     for s in worker.core.advance(round_index)]
            assert sends == [(s.src, s.dst, s.round, s.members.tolist(), s.size)
                             for ref in reference.values() for s in ref.advance(round_index)]
        assert worker.core.registry.counters == merged()
        for rank, ref in reference.items():
            assert known(worker.core, rank) == known(ref, rank)

    @staticmethod
    def _gossip_batch(iteration, seq):
        """Rank 3 tells rank 1 about {3} in round 1, from worker 1."""
        envelope = {"t": "batch", "src": 1, "iter": iteration, "seq": seq}
        return batch_frame(envelope, [(GOSSIP, 3, 1, 1, 1, 64)], [np.array([3])])

    def test_batch_ahead_of_the_epoch_waits_for_begin_iteration(self):
        """A peer may cross an epoch boundary first; what it sends then
        must survive this worker's per-iteration reset."""
        worker = NetWorker(0, EpisodeSpec.synthetic(4, seed=0), range(4))
        batch = self._gossip_batch

        worker.on_batch(batch(0, 0))  # before the first begin_iteration
        assert not arrivals(worker)
        worker.begin_iteration(0)
        assert arrivals(worker) == {1: {1: 1}}
        worker.on_batch(batch(1, 1))  # the peer is already in iteration 1
        assert arrivals(worker) == {1: {1: 1}}
        worker.begin_iteration(1)
        assert arrivals(worker) == {1: {1: 1}}  # reset, then the parked one
        worker.core.advance(1)  # the payload reached the core's inbox
        assert 3 in known(worker.core, 1)

    def test_batch_from_an_earlier_iteration_is_refused(self):
        """The barriers make a batch from a finished iteration impossible;
        one that passes dedup anyway must fail loudly, not count toward
        the current barrier."""
        worker = NetWorker(0, EpisodeSpec.synthetic(4, seed=0), range(4))
        worker.begin_iteration(0)
        worker.begin_iteration(1)
        with pytest.raises(FrameError, match=r"worker 1 \(seq 5, iter 0\)"):
            worker.on_batch(self._gossip_batch(0, 5))
        assert not arrivals(worker)
        assert worker.core.registry.counters.get("gossip.received", 0) == 0

    def test_batch_for_a_rank_hosted_elsewhere_is_refused(self):
        worker = NetWorker(0, EpisodeSpec.synthetic(8, seed=0), range(2, 5))
        worker.begin_iteration(0)
        frame = batch_frame({"t": "batch", "src": 1, "iter": 0, "seq": 0},
                            [(XFER, 0, 3, 0, 1, 48), (XFER, 0, 5, 0, 2, 48)])
        with pytest.raises(FrameError, match="hosts range"):
            worker.on_batch(frame)
        with pytest.raises(FrameError, match="worker-to-worker"):
            worker.on_batch({"t": "commit", "src": 1, "iter": 0, "seq": 1})

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_consistent_for_any_worker_count(self, workers, tmp_path):
        spec = EpisodeSpec.synthetic(16, seed=9, n_iters=2)
        options = NetOptions(workers=workers, log_dir=str(tmp_path / "logs"))
        transport: list[dict] = []
        result = run_episode_net(spec, options, transport)
        save_result(tmp_path / "result.json", spec, result, options)
        report = analyze_episode(tmp_path)
        assert report["consistent"] is True
        logs = report["logs"]
        assert logs["nodes"] == spec.n_ranks
        assert logs["per_round_rx"] == logs["per_round_tx"] == result.per_round_messages
        assert logs["model_bytes"] == result.bytes_sent
        # One row per message; the physical frames are far fewer, and
        # sum(frame_bytes) + batch envelopes = bytes written.
        assert [row["worker"] for row in transport] == list(range(workers))
        messages = sum(logs["per_tag_tx"].values())
        assert 0 < sum(row["frames"] for row in transport) < messages / 4
        assert logs["frame_bytes"] + sum(r["envelope_bytes"] for r in transport) == (
            sum(r["wire_bytes"] for r in transport)
        )
        assert all(r["retries"] == r["deduped"] == 0 for r in transport)

    def test_log_off_writes_no_rows(self, tmp_path):
        spec = EpisodeSpec.synthetic(8, seed=1)
        run_episode_net(spec, NetOptions(workers=2))
        assert not list(tmp_path.iterdir())
