"""A ``NodeCore`` hosting a rank slice is its ranks' one-rank cores, exactly.

Any contiguous cut of the ranks into slices — one slice for all, one
per rank, or anything between — must send the same messages in every
round, accept the same moves and merge to the same counters as one
core per rank driven message by message. Rank counts that are not a
multiple of 8 put the knowledge rows' padding bits in play, and an
overload threshold below 1 ranks that both receive and send tasks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import EpisodeSpec, NodeCore
from repro.obs import StatsRegistry


def _messages(sends):
    return [(s.src, s.dst, s.round, s.members.tolist(), s.size) for s in sends]


def _merged(cores):
    registry = StatsRegistry()
    for core in cores:
        registry.merge(core.registry)
    return registry.counters


def _assignments(cores):
    """The distinct assignments the cores end on (one, when they agree)."""
    return {tuple(core.assignment.tolist()) for core in cores}


def drive_one_rank_cores(spec):
    """The reference: a core per rank, every message handed over alone."""
    cores = [NodeCore(spec, rank) for rank in range(spec.n_ranks)]
    rounds, moves = [], []
    for _ in range(spec.n_iters):
        sends = [s for core in cores for s in core.begin_iteration()]
        round_index = 1
        while sends:
            rounds.append(_messages(sends))
            for s in sends:
                cores[s.dst].receive(s.round, s.members)
            sends = [s for core in cores for s in core.advance(round_index)]
            round_index += 1
        iteration = []
        for core in cores:
            stats = core.decide_transfers()
            for dst, task in core.xfer_sends(stats):
                cores[dst].receive_xfer(task)
            iteration += stats.moves
        for core in cores:
            core.apply_moves(iteration)
        moves.append([list(m) for m in iteration])
    return rounds, moves, _merged(cores), _assignments(cores)


def drive_slices(spec, bounds):
    """Cores over the slices ``bounds`` cuts, each fed one batch per step."""
    cores = [NodeCore(spec, range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    rounds, moves = [], []
    for _ in range(spec.n_iters):
        steps = [core.begin_iteration() for core in cores]
        round_index = 1
        while sum(map(len, steps)):
            rounds.append([m for sends in steps for m in _messages(sends)])
            for core in cores:
                mine = [s for sends in steps for s in sends if s.dst in core.ranks]
                if mine:
                    core.receive([s.round for s in mine],
                                 np.concatenate([s.members for s in mine]),
                                 [s.members.size for s in mine], [s.dst for s in mine])
            steps = [core.advance(round_index) for core in cores]
            round_index += 1
        iteration = np.concatenate([core.decide()["moves"] for core in cores])
        for core in cores:
            arrived = int(np.isin(iteration[:, 2], core.ranks).sum())
            if arrived:
                core.receive_xfer(messages=arrived)
            core.apply_moves(iteration)
        moves.append(iteration.tolist())
    return rounds, moves, _merged(cores), _assignments(cores)


@st.composite
def episodes(draw):
    n_ranks = draw(st.integers(1, 96))
    cuts = draw(st.sets(st.integers(1, n_ranks - 1))) if n_ranks > 1 else set()
    # h < 1 makes ranks both underloaded and above the threshold: a rank
    # may then decide after another one in its slice sent it tasks.
    spec = EpisodeSpec.synthetic(
        n_ranks, seed=draw(st.integers(0, 2**16)), n_iters=draw(st.integers(1, 3)),
        threshold=draw(st.sampled_from([1.0, 0.6, 1.3])),
    )
    return spec, [0, *sorted(cuts), n_ranks]


@settings(max_examples=30, deadline=None)
@given(episodes())
def test_any_slicing_equals_one_rank_cores(episode):
    spec, bounds = episode
    rounds, moves, counters, assignments = drive_slices(spec, bounds)
    ref_rounds, ref_moves, ref_counters, ref_assignments = drive_one_rank_cores(spec)
    assert len(rounds) == len(ref_rounds)
    for got, expected in zip(rounds, ref_rounds):
        assert got == expected
    assert moves == ref_moves
    assert counters == ref_counters
    assert len(ref_assignments) == 1 and assignments == ref_assignments


def test_whole_and_single_rank_cuts_of_a_ragged_rank_count():
    """The two extreme cuts of 37 ranks (five padding bits per row)."""
    spec = EpisodeSpec.synthetic(37, seed=4, n_iters=2)
    reference = drive_one_rank_cores(spec)
    assert reference[0] and any(reference[1])  # gossip ran and tasks moved
    assert drive_slices(spec, [0, 37]) == reference
    assert drive_slices(spec, list(range(38))) == reference
