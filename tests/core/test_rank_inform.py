"""The per-rank inform rule (:class:`repro.core.gossip.RankInform`) and
the packed-row helpers of :mod:`repro.core.knowledge` it runs on."""

import numpy as np
import pytest

from repro.core.gossip import ENTRY_BYTES, HEADER_BYTES, RankInform
from repro.core.knowledge import (
    add_bits,
    ids_to_row,
    merge_row,
    row_count,
    row_ids,
    unknown_targets,
)

P = 13  # two bytes per row, three padding bits in the second


def _rule(rank=0, fanout=3, rounds=4, seed=0):
    return RankInform(rank, P, fanout, rounds, np.random.default_rng(seed))


class TestRowHelpers:
    @pytest.mark.parametrize("ids", [[], [0], [12], [0, 5, 7, 8, 12], list(range(P))])
    def test_ids_row_ids_round_trip(self, ids):
        row = ids_to_row(np.array(ids, dtype=np.int64), P)
        assert row.size == 2
        assert row_ids(row, P).tolist() == ids
        assert row_count(row) == len(ids)

    def test_duplicate_ids_set_one_bit(self):
        row = ids_to_row(np.array([3, 3, 4, 3]), P)
        assert row_ids(row, P).tolist() == [3, 4]

    def test_add_bits_and_merge_row_are_unions(self):
        row = ids_to_row(np.array([1]), P)
        add_bits(row, 9)
        add_bits(row, np.array([0, 1, 2, 3]))  # several ids in one byte
        merge_row(row, ids_to_row(np.array([2, 12]), P))
        assert row_ids(row, P).tolist() == [0, 1, 2, 3, 9, 12]

    def test_unknown_targets_never_yield_padding_bits(self):
        row = ids_to_row(np.arange(P), P)
        row[-1] = 0xFF  # even with the padding bits set
        assert unknown_targets(row, 0, P).size == 0
        row[:] = 0
        assert unknown_targets(row, 4, P).tolist() == [q for q in range(P) if q != 4]


class TestRankInform:
    def test_seed_knows_itself_and_sends_round_one(self):
        rule = _rule(rank=5)
        targets, round_index, row, size = rule.seed()
        assert row_ids(rule.row, P).tolist() == [5]
        assert round_index == 1
        assert len(targets) == 3 and 5 not in targets
        assert row_ids(row, P).tolist() == [5]
        assert size == HEADER_BYTES + ENTRY_BYTES

    def test_repeated_round_forwards_once(self):
        rule = _rule()
        payload = ids_to_row(np.array([7]), P)
        assert rule.on_inform(2, payload) is not None
        # A duplicated or re-delivered round-2 message merges, no forward.
        later = ids_to_row(np.array([8]), P)
        assert rule.on_inform(2, later) is None
        assert rule.on_inform(2, payload) is None
        assert row_ids(rule.row, P).tolist() == [7, 8]
        assert rule.on_inform(1, payload) is not None  # a new round does

    @pytest.mark.parametrize("round_index", [4, 5, 9])
    def test_round_at_or_past_k_never_forwards(self, round_index):
        rule = _rule(rounds=4)
        assert rule.on_inform(round_index, ids_to_row(np.array([6]), P)) is None
        assert row_ids(rule.row, P).tolist() == [6]  # but it still merges

    def test_candidates_exclude_known_self_suspects_and_padding(self):
        # A fanout above the candidate count takes every candidate, no draw.
        rule = _rule(rank=2, fanout=P)
        rule.row[-1] = 0b00000111  # padding bits of the second byte
        known = ids_to_row(np.array([0, 5, 12]), P)
        targets, round_index, row, size = rule.on_inform(1, known, exclude={7, 9})
        assert targets.tolist() == [1, 3, 4, 6, 8, 10, 11]
        assert round_index == 2
        assert size == HEADER_BYTES + ENTRY_BYTES * row_count(rule.row)

    def test_no_candidate_left_means_no_forward(self):
        rule = _rule(rank=0)
        everyone_else = ids_to_row(np.arange(1, P), P)
        assert rule.on_inform(1, everyone_else, exclude=None) is None

    def test_forward_draws_fanout_distinct_targets_from_its_stream(self):
        rule = _rule(rank=1, fanout=3, seed=11)
        targets, *_ = rule.on_inform(1, ids_to_row(np.array([4]), P))
        twin = np.random.default_rng(11)
        candidates = [q for q in range(P) if q not in (1, 4)]
        assert targets.tolist() == twin.choice(candidates, 3, replace=False).tolist()

    def test_forwarded_row_is_a_snapshot(self):
        rule = _rule()
        _, _, row, _ = rule.on_inform(1, ids_to_row(np.array([3]), P))
        rule.on_inform(2, ids_to_row(np.array([9]), P))
        assert row_ids(row, P).tolist() == [3]

    def test_final_row_does_not_depend_on_payload_order(self):
        rng = np.random.default_rng(3)
        payloads = [
            (int(rng.integers(1, 6)), ids_to_row(rng.choice(P, 4, replace=False), P))
            for _ in range(12)
        ]
        rows = []
        for order in (range(12), reversed(range(12)), rng.permutation(12)):
            rule = _rule(rank=0, rounds=3)
            for i in order:
                rule.on_inform(*payloads[int(i)])
            rows.append(row_ids(rule.row, P).tolist())
        assert rows[0] == rows[1] == rows[2]

    def test_rule_writes_through_a_shared_row_view(self):
        matrix = np.zeros((P, 2), dtype=np.uint8)
        rule = RankInform(4, P, 3, 4, np.random.default_rng(0), matrix[4])
        rule.seed()
        assert row_ids(matrix[4], P).tolist() == [4]
