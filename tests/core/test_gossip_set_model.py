"""Both production stores against an oracle that shares no storage code.

Each container runs its own store at every rank count and cap: a
packed stage runs bit rows, a sparse one sorted id arrays.
``tests/core/oracles.py::inform_set_model`` drives the real round loop
over plain Python sets; because the sampler's control flow depends only
on candidate counts, both stores must agree with it *bit for bit* —
member sets, per-round accounting, byte and message totals, the five
fault counters and the final sampler-RNG state — on both sides of
``n_ranks <= 32 * max_known`` (a bit row no larger than a full shard),
at every row-width and cap alignment, with and without faults. The biased split (packed-only, not modelled by the
set store) is pinned against the parent commit's rank-order results.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core import gossip as gossip_module
from repro.core import knowledge as knowledge_module
from repro.core.gossip import GossipConfig, run_inform_stage
from repro.sim.faults import FaultConfig
from tests.core.oracles import inform_set_model, member_sets

FAULTS = FaultConfig(loss_rate=0.2, delay_rate=0.3, duplicate_rate=0.25, seed=7)
RETRANSMIT = dataclasses.replace(FAULTS, retransmit=True)
ACCOUNTING = (
    "n_messages", "bytes_sent", "inter_node_messages", "rounds_run",
    "per_round_messages", "per_round_senders",
    "dropped", "delayed", "duplicated", "retransmits", "expired",
)


def _loads(n_ranks, seed):
    """All load on a hot prefix: a wide underloaded gossip population."""
    rng = np.random.default_rng(seed)
    task_loads = rng.gamma(3.0, 0.3, size=3 * n_ranks)
    assignment = rng.integers(0, max(2, n_ranks // 32), size=task_loads.size)
    return np.bincount(assignment, weights=task_loads, minlength=n_ranks)


def _assert_matches_set_model(loads, config, seed, containers=("packed", "sparse")):
    rng = np.random.default_rng(seed)
    sets, oracle = inform_set_model(loads, config, rng)
    state = rng.bit_generator.state
    for container in containers:
        rng = np.random.default_rng(seed)
        cfg = dataclasses.replace(config, knowledge=container)
        result = run_inform_stage(loads, cfg, rng)
        assert member_sets(result.knowledge) == sets, container
        for name in ACCOUNTING:
            assert getattr(result, name) == getattr(oracle, name), (container, name)
        assert rng.bit_generator.state == state, container
    return oracle


class TestStraddlingTheRule:
    """(P, cap) pairs on both sides of ``P <= 32 * cap``: 512/48 and
    4096/256 below it, 512/8 and 4096/64 above. On every pair a packed
    container runs bit rows and a sparse one sorted arrays."""

    @pytest.mark.parametrize(
        "extra",
        [{}, {"faults": FAULTS}, {"faults": RETRANSMIT}, {"avoid_known": False}],
        ids=["plain", "faults", "retransmit", "no-avoid"],
    )
    @pytest.mark.parametrize("cap", [48, 8, None], ids=["cap48", "cap8", "uncapped"])
    def test_512_ranks(self, cap, extra):
        config = GossipConfig(
            fanout=3, rounds=5, max_known=cap, trim_policy="lowest", **extra
        )
        for seed in range(4):
            _assert_matches_set_model(_loads(512, seed), config, seed + 1)

    @pytest.mark.parametrize("cap", [64, 256])
    @pytest.mark.parametrize("faults", [None, FAULTS], ids=["plain", "faults"])
    def test_4096_ranks(self, cap, faults):
        config = GossipConfig(
            fanout=3, rounds=3, max_known=cap, trim_policy="lowest", faults=faults
        )
        _assert_matches_set_model(_loads(4096, 0), config, 1)

    def test_default_fanout_converges_and_skips(self):
        # f=6, k=10 at 512/48: most rows are complete by round 6, so the
        # later rounds exercise the merge/trim skip and finish()'s
        # shared decode on both containers.
        config = GossipConfig(max_known=48, trim_policy="lowest")
        for seed in range(3):
            _assert_matches_set_model(_loads(512, seed), config, seed + 1)
        result = run_inform_stage(
            _loads(512, 0), dataclasses.replace(config, knowledge="sparse"), rng=1
        )
        shards = result.knowledge.shards
        assert len({id(s) for s in shards}) < len(shards) // 2

    @pytest.mark.parametrize("cap", [None, "seeds", "above"])
    def test_converged_shards_share_one_object_without_a_binding_lowest_cap(self, cap):
        # Uncapped, or a "random" cap at or above the seed count (a trim
        # that never binds): a complete shard holds every seed, and all
        # of them are one object, as under "lowest".
        for seed in range(3):
            loads = _loads(512, seed)
            seeds = np.flatnonzero(loads < loads.mean())
            max_known = {None: None, "seeds": seeds.size, "above": seeds.size + 7}[cap]
            config = GossipConfig(max_known=max_known, trim_policy="random")
            _assert_matches_set_model(loads, config, seed + 1)
            result = run_inform_stage(
                loads, dataclasses.replace(config, knowledge="sparse"), rng=seed + 1
            )
            knowledge = result.knowledge
            full = [s for s in knowledge.shards if s.size == seeds.size]
            assert len(full) > len(knowledge.shards) // 2
            assert len({id(s) for s in full}) == 1
            partial = sum(s.nbytes for s in knowledge.shards if s.size < seeds.size)
            assert knowledge.memory_bytes() <= full[0].nbytes + partial


class TestSparseCompleteShards:
    """``_SparseStore``'s complete-row rule, call by call."""

    @pytest.mark.parametrize(
        "cap, trim",
        [(None, "random"), (8, "random"), (20, "random"), (3, "lowest"), (8, "lowest")],
    )
    def test_receiver_handed_a_complete_payload_adopts_it(self, cap, trim):
        # Seeds (below the mean) are ranks 0..7, in priority order.
        seeds = np.arange(8)
        loads = np.full(24, 10.0)
        loads[seeds] = seeds / 8
        store = knowledge_module._SparseStore(
            24, seeds, cap, trim, loads, np.random.default_rng(0)
        )
        # Rank 0 takes every seed's shard: its row is complete.
        snap, _ = store.snapshot(seeds)
        store.merge(np.array([0]), np.array([0, seeds.size]), snap, np.arange(seeds.size))
        store.trim(np.array([0]))
        assert store.complete[0]
        whole = store.knowledge.shards[0]
        # Seed 5 and non-seed 20 are each handed it beside another payload.
        snap, _ = store.snapshot(np.array([0, 3]))
        store.merge(np.array([5, 20]), np.array([0, 2, 4]), snap, np.array([1, 0, 0, 1]))
        store.trim(np.array([5, 20]))
        for r in (5, 20):
            assert store.complete[r]
            assert store.knowledge.shards[r] is whole
        assert not store.complete[[1, 2, 3, 4, 6, 7]].any()
        store.finish()
        full = set(seeds.tolist()[: cap if trim == "lowest" else None])
        assert member_sets(store.knowledge)[20] == full

    def test_no_row_completes_under_a_binding_random_cap(self, monkeypatch):
        stores = []

        def capture(*args, **kwargs):
            stores.append(knowledge_module.inform_store(*args, **kwargs))
            return stores[-1]

        monkeypatch.setattr(gossip_module, "inform_store", capture)
        loads = _loads(512, 0)
        seeds = np.flatnonzero(loads < loads.mean())
        for cap in (1, seeds.size // 4, seeds.size - 1):
            config = GossipConfig(max_known=cap, trim_policy="random", knowledge="sparse")
            result = run_inform_stage(loads, config, rng=1)
            assert result.knowledge.counts().max() == cap
            # Flags are never cleared, so an unflagged end means never flagged.
            assert not stores[-1].complete.any()


class TestWordAndByteBoundaries:
    """Row widths that are not a multiple of 8 bytes, caps that are not
    a multiple of 8, cap >= P, and cuts whose crossing byte is the row's
    last byte."""

    @pytest.mark.parametrize("n_ranks", [2, 5, 63, 64, 65, 200])
    def test_edge_shapes(self, n_ranks):
        caps = sorted({1, 3, 8, 9, 63, 64, n_ranks - 1, n_ranks, n_ranks + 5} - {0})
        for cap in caps:
            config = GossipConfig(
                fanout=3, rounds=6, max_known=cap, trim_policy="lowest"
            )
            for seed in range(2):
                loads = _loads(n_ranks, seed)
                if not (loads < loads.mean()).any():
                    continue
                _assert_matches_set_model(loads, config, seed + 1)

    def test_prefix_cut_against_sorted_positions(self):
        from repro.core.knowledge import keep_first_bits

        rng = np.random.default_rng(0)
        for width, cap in [(8, 1), (8, 9), (16, 64), (24, 100), (128, 512)]:
            bools = rng.random((40, 8 * width)) < rng.random((40, 1))
            bools[0] = False
            bools[1] = True
            bools[2] = False
            bools[2, -(cap + 1) :] = True  # the crossing byte is the last byte
            rows = np.packbits(bools, axis=1)
            counts, over = keep_first_bits(rows, cap)
            np.testing.assert_array_equal(counts, bools.sum(axis=1))
            np.testing.assert_array_equal(over, np.flatnonzero(bools.sum(axis=1) > cap))
            expect = bools & (np.cumsum(bools, axis=1) <= cap)
            np.testing.assert_array_equal(
                np.unpackbits(rows, axis=1).view(bool), expect
            )


class TestLatePayloadAtCompleteReceiver:
    def test_delayed_payloads_reach_complete_rows(self, monkeypatch):
        # Every message is delayed by >= 1 round, so every delivery is a
        # late one; with a tiny cap most receivers are complete by the
        # time it lands and must ignore it, exactly as the set model's
        # union-then-trim does.
        hits = []
        merge = knowledge_module._PackedStore.merge

        def spy(self, receivers, bounds, payloads, src):
            hits.append(int(self.complete[receivers].sum()))
            merge(self, receivers, bounds, payloads, src)

        monkeypatch.setattr(knowledge_module._PackedStore, "merge", spy)
        faults = FaultConfig(delay_rate=1.0, loss_rate=0.3, retransmit=True, seed=3)
        config = GossipConfig(
            fanout=4, rounds=10, max_known=4, trim_policy="lowest", faults=faults
        )
        for seed in range(3):
            oracle = _assert_matches_set_model(_loads(64, seed), config, seed + 1)
            assert oracle.delayed > 0 and oracle.retransmits > 0
        assert sum(hits) > 0


class TestCompleteRows:
    """k = 10 rounds converge, and a receiver whose row can grow no
    further takes no merge: one holding every seed, uncapped or under a
    cap at or above the seed count (a random trim that never binds, or
    "lowest"), or one holding a binding "lowest" cap's lowest members.
    The stores with that skip match the set model, faults on and off,
    and every row flagged complete holds exactly that full set."""

    @pytest.mark.parametrize("faults", [None, FAULTS], ids=["plain", "faults"])
    @pytest.mark.parametrize("n_ranks", [64, 400])
    @pytest.mark.parametrize(
        "cap, trim",
        [("none", "random"), ("seeds", "random"), ("above", "random"),
         ("seeds", "lowest"), ("above", "lowest"), ("below", "lowest")],
    )
    def test_skips_match_the_set_model(self, monkeypatch, n_ranks, cap, trim, faults):
        loads = _loads(n_ranks, n_ranks)
        seeds = np.flatnonzero(loads < loads.mean())
        max_known = {
            "none": None, "seeds": seeds.size, "above": n_ranks + 3, "below": seeds.size // 4,
        }[cap]
        by_priority = sorted(seeds.tolist(), key=lambda q: (loads[q], q))
        full = set(by_priority[:max_known])
        flagged = []
        merge = knowledge_module._PackedStore.merge

        def spy(self, receivers, bounds, payloads, src):
            for r in np.flatnonzero(self.complete).tolist():
                ids = knowledge_module.row_ids(self.rows[r], self.n_ranks)
                assert set((ids if self.dec is None else self.dec[ids]).tolist()) == full
            flagged.append(int(self.complete[receivers].sum()))
            merge(self, receivers, bounds, payloads, src)

        monkeypatch.setattr(knowledge_module._PackedStore, "merge", spy)
        config = GossipConfig(max_known=max_known, trim_policy=trim, faults=faults)
        _assert_matches_set_model(loads, config, 3)
        assert sum(flagged) > 0


#: (n_messages, inter_node_messages, bytes_sent, sha256(packed)[:16],
#: the sampler's next 32-bit draw) at the parent commit `1482e56`
#: (rank-order rows, argpartition trim), 256 ranks, seeds 0, 1, 2.
BIASED_AT_PARENT = {
    0.5: [
        (6000, 3741, 1295872, "07c92b859b08b25b", 1465571590),
        (6028, 3783, 1294144, "f19a9ac22fcd7ec0", 2654053432),
        (5988, 3717, 1287872, "23aa234fdf86730f", 2601785532),
    ],
    1.0: [
        (5968, 2978, 1292224, "f14b448c22204ef5", 3467468214),
        (5984, 2995, 1296384, "33d1fecc65f7a0c3", 3632247553),
        (5964, 2934, 1286016, "579eee97c54cedca", 3421115217),
    ],
}


def _biased_digest(bias, seed):
    config = GossipConfig(
        fanout=4, rounds=6, max_known=16, trim_policy="lowest",
        ranks_per_node=4, intra_node_bias=bias, knowledge="packed",
    )
    rng = np.random.default_rng(seed + 1)
    result = run_inform_stage(_loads(256, seed), config, rng)
    return (
        result.n_messages,
        result.inter_node_messages,
        result.bytes_sent,
        hashlib.sha256(result.knowledge.packed.tobytes()).hexdigest()[:16],
        int(rng.integers(2**32)),
    )


class TestBiasedCappedLowest:
    @pytest.mark.parametrize("bias", [0.5, 1.0])
    def test_matches_parent_rank_order_result(self, bias):
        for seed, expected in enumerate(BIASED_AT_PARENT[bias]):
            assert _biased_digest(bias, seed) == expected
