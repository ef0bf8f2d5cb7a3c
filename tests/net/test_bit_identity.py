"""The tentpole contract: same seed -> bit-identical LB decisions
between the real-socket runtime and the discrete-event simulator.

Equality is asserted on the canonical ``EpisodeResult.to_dict()`` —
final assignment, move list, per-round message counts and senders,
byte totals, coverage, imbalance figures, and every merged registry
counter. Any divergence in RNG consumption, merge order, message
accounting, or counter attribution fails here.
"""

import numpy as np
import pytest

from repro.net import (
    EpisodeSpec,
    NetOptions,
    episode_streams,
    run_episode_net,
    run_episode_sim,
)

N_SEEDS = 20
N_RANKS = 64


class TestBitIdentity:
    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_net_equals_sim_per_seed(self, seed):
        spec = EpisodeSpec.synthetic(N_RANKS, seed=seed)
        sim = run_episode_sim(spec).to_dict()
        net = run_episode_net(spec).to_dict()
        assert net == sim

    def test_registry_counters_match_exactly(self):
        spec = EpisodeSpec.synthetic(N_RANKS, seed=7)
        sim = run_episode_sim(spec)
        net = run_episode_net(spec)
        assert sim.counters == net.counters
        # The counters cover both protocol stages, not just totals.
        for key in ("gossip.messages", "gossip.received", "xfer.sent"):
            assert key in net.counters, f"missing counter family {key}"

    def test_multi_iteration_episode_identical(self):
        spec = EpisodeSpec.synthetic(32, seed=11, n_iters=3)
        sim = run_episode_sim(spec)
        net = run_episode_net(spec)
        assert net.to_dict() == sim.to_dict()
        # Iterations concatenate: more rounds recorded than one pass.
        assert len(net.per_round_messages) > spec.rounds - 1

    def test_sharded_workers_identical(self):
        """Rank placement across worker shards must be invisible."""
        spec = EpisodeSpec.synthetic(32, seed=5)
        reference = run_episode_net(spec, NetOptions(workers=1)).to_dict()
        sharded = run_episode_net(spec, NetOptions(workers=4)).to_dict()
        assert sharded == reference

    @pytest.mark.slow
    def test_subprocess_workers_identical(self):
        """Real OS worker processes (true process-per-shard, still
        loopback TCP) reproduce the in-process result bit for bit."""
        spec = EpisodeSpec.synthetic(16, seed=2)
        sim = run_episode_sim(spec).to_dict()
        net = run_episode_net(
            spec, NetOptions(workers=2, processes=True, timeout=120.0)
        ).to_dict()
        assert net == sim

    def test_episode_improves_balance(self):
        """Sanity on the shared protocol itself: the episode actually
        balances (the identity above would hold for a no-op too)."""
        spec = EpisodeSpec.synthetic(N_RANKS, seed=0)
        result = run_episode_sim(spec)
        assert result.final_imbalance < result.initial_imbalance / 2
        assert result.coverage > 0.9


class TestStreams:
    def test_streams_are_rank_independent(self):
        """Rank r's generators depend only on (seed, n_ranks, r) — the
        property that lets net nodes draw without any coordination."""
        a = episode_streams(3, 8, 5)
        b = episode_streams(3, 8, 5)
        for x, y in zip(a, b):
            assert x.random() == y.random()
        g0 = episode_streams(3, 8, 0)[0]
        g5 = episode_streams(3, 8, 5)[0]
        assert g0.random() != g5.random()


class TestWorkerShapes:
    """The same identity for every way of slicing ranks over workers
    (new in the worker-level transport; the suites above are unedited)."""

    _sims: dict = {}

    @classmethod
    def _pair(cls, n_ranks, seed, workers, **kwargs):
        spec = EpisodeSpec.synthetic(n_ranks, seed=seed, **kwargs)
        key = (n_ranks, seed, tuple(sorted(kwargs.items())))
        if key not in cls._sims:
            cls._sims[key] = run_episode_sim(spec).to_dict()
        net = run_episode_net(spec, NetOptions(workers=workers))
        return net.to_dict(), cls._sims[key]

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_two_workers_per_seed(self, seed):
        net, sim = self._pair(N_RANKS, seed, workers=2)
        assert net == sim

    @pytest.mark.parametrize("workers", [3, 5, 8])
    @pytest.mark.parametrize("seed", range(5))
    def test_uneven_rank_slices(self, seed, workers):
        net, sim = self._pair(N_RANKS, seed, workers=workers)
        assert net == sim

    def test_one_rank_per_worker(self):
        net, sim = self._pair(4, 3, workers=4)
        assert net == sim

    def test_more_workers_than_ranks_is_clamped(self):
        net, sim = self._pair(4, 3, workers=9)
        assert net == sim

    def test_multi_iteration_sharded(self):
        net, sim = self._pair(32, 11, workers=3, n_iters=3)
        assert net == sim


class TestEpisodeHelpers:
    @pytest.mark.parametrize("seed", [0, 7, 5046])
    @pytest.mark.parametrize("n_ranks", [1, 8, 64])
    def test_streams_equal_the_double_spawn(self, seed, n_ranks):
        """``spawn_key=(family, rank)`` names the very child the literal
        spawn-everything form picks out."""
        for rank in sorted({0, n_ranks // 2, n_ranks - 1}):
            gossip_seq, transfer_seq = np.random.SeedSequence(seed).spawn(2)
            literal = (
                np.random.default_rng(gossip_seq.spawn(n_ranks)[rank]),
                np.random.default_rng(transfer_seq.spawn(n_ranks)[rank]),
            )
            for new, old in zip(episode_streams(seed, n_ranks, rank), literal):
                assert new.bit_generator.state == old.bit_generator.state

    def test_streams_reject_out_of_range_rank(self):
        with pytest.raises(IndexError):
            episode_streams(0, 8, 8)

    def test_moves_extend_a_plain_list_as_a_transport_free_driver_does(self):
        """A driver may extend a list with each rank's
        ``TransferStats.moves`` (rows of an ``(n, 3)`` array), hand that
        list to ``apply_moves`` and compare its rows, as lists, with the
        simulator's JSON moves — the loop every NodeCore runs in one
        process, with messages handed over as calls."""
        from repro.net.episode import NodeCore

        spec = EpisodeSpec.synthetic(16, seed=4, n_iters=2)
        cores = [NodeCore(spec, rank) for rank in range(spec.n_ranks)]
        moves = []
        for _ in range(spec.n_iters):
            sends = [s for core in cores for s in core.begin_iteration()]
            round_index = 1
            while sends:
                for s in sends:
                    cores[s.dst].receive(s.round, s.members)
                sends = [s for core in cores for s in core.advance(round_index)]
                round_index += 1
            iteration_moves = []
            for core in cores:
                stats = core.decide_transfers()
                for dst, task in core.xfer_sends(stats):
                    cores[dst].receive_xfer(task)
                iteration_moves += stats.moves
            for core in cores:
                core.apply_moves(iteration_moves)
            moves += iteration_moves
        sim = run_episode_sim(spec).to_dict()
        assert moves and [list(m) for m in moves] == sim["moves"]
        for core in cores:
            assert core.assignment.tolist() == sim["assignment"]

    @pytest.mark.parametrize(
        "moves",
        [
            [],
            [(3, 0, 2)],
            [(3, 0, 2), (5, 1, 0), (3, 2, 1), (0, 0, 3)],  # task 3 moves twice
        ],
    )
    def test_apply_moves_equals_the_loop(self, moves):
        from repro.net.episode import NodeCore, assemble_assignment

        spec = EpisodeSpec.synthetic(4, n_tasks=8, seed=1)
        expected = np.asarray(spec.assignment, dtype=np.int64).copy()
        for task, _src, dst in moves:
            expected[task] = dst  # last write wins
        core = NodeCore(spec, 0)
        core.apply_moves(moves)
        assert core.assignment.tolist() == expected.tolist()
        assert assemble_assignment(spec, moves).tolist() == expected.tolist()
        assert list(spec.assignment) != expected.tolist() or not moves
        as_array = NodeCore(spec, 1)
        as_array.apply_moves(np.asarray(moves, dtype=np.int64).reshape(-1, 3))
        assert as_array.assignment.tolist() == expected.tolist()
