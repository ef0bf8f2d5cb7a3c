"""A stateful Hypothesis machine over the three knowledge stores.

``_PackedStore`` (rank-order rows when uncapped, priority-ordered rows
under a "lowest" cap), ``_SparseStore``
(id-space or priority-space shards) and the oracle
``tests/core/oracles.SetStore`` are driven through one random sequence
of the round loop's calls: seed (construction), ``snapshot``,
``candidates``, ``merge`` — of the latest or of a stale snapshot, as a
late delivery is — ``trim`` and ``finish``, at P <= 200 with caps of 1,
in between, at or past P, and uncapped. Snapshot sizes, candidate
counts, ``test`` and ``extract`` must agree at every step; after every
``finish`` the member sets and ``counts()`` must be equal.

The loop never snapshots or finishes between a merge and its trim (the
bit rows hold the untrimmed union until then), so neither does the
machine.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro.core.gossip import GossipConfig
from repro.core.knowledge import _PackedStore, _SparseStore
from tests.core.oracles import SetStore, member_sets


def _ranks(data, n, label, min_size=0, max_size=12):
    """A sorted array of distinct rank ids."""
    ids = data.draw(
        st.sets(st.integers(0, n - 1), min_size=min_size, max_size=max_size), label=label
    )
    return np.array(sorted(ids), dtype=np.int64)


class StoreMachine(RuleBasedStateMachine):
    @initialize(data=st.data())
    def seed(self, data):
        n = data.draw(st.integers(1, 200), label="P")
        cap = data.draw(
            st.one_of(st.sampled_from([None, 1, n, n + 3]), st.integers(1, n)), label="cap"
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="stream"))
        if data.draw(st.booleans(), label="tied loads"):
            loads = rng.choice([0.0, 0.5, 1.0, 2.0], size=n)
        else:
            loads = rng.gamma(2.0, 1.0, size=n)
        seeds = np.flatnonzero(rng.random(n) < data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])))
        # "lowest" and uncapped stages draw nothing, so one stream serves all.
        stream = np.random.default_rng(0)
        self.n, self.rng = n, rng
        self.stores = {
            "bit-rows": _PackedStore(n, seeds, cap, "lowest", loads, stream),
            "sorted-arrays": _SparseStore(n, seeds, cap, "lowest", loads, stream),
            "set": SetStore(n, seeds, GossipConfig(max_known=cap, trim_policy="lowest"), loads),
        }
        self.history = []
        self.dirty = set()

    @precondition(lambda self: not self.dirty)
    @rule(data=st.data())
    def snapshot(self, data):
        senders = _ranks(data, self.n, "senders")
        snaps = {name: store.snapshot(senders) for name, store in self.stores.items()}
        sizes = {name: entries.tolist() for name, (_, entries) in snaps.items()}
        assert len({tuple(s) for s in sizes.values()}) == 1, sizes
        self.history.append((senders, snaps))

    @precondition(lambda self: self.history)
    @rule(full=st.booleans(), n_excluded=st.integers(0, 4))
    def candidates(self, full, n_excluded):
        senders, snaps = self.history[-1]
        views = {
            name: store.candidates(senders, snaps[name][0], snaps[name][1], full)
            for name, store in self.stores.items()
        }
        ref_counts, ref = views.pop("set")
        rows = np.arange(senders.size)
        draws = self.rng.integers(0, self.n, size=(senders.size, 6))
        k = n_excluded if senders.size else 0
        excluded = (
            self.rng.integers(0, senders.size or 1, size=k),
            self.rng.integers(0, self.n, size=k),
        )
        ref_test = ref.test(rows, draws)
        ref_members = ref.extract(rows, excluded)
        for name, (counts, view) in views.items():
            assert counts.tolist() == ref_counts.tolist(), name
            np.testing.assert_array_equal(view.test(rows, draws), ref_test, err_msg=name)
            for got, want in zip(view.extract(rows, excluded), ref_members):
                np.testing.assert_array_equal(got, want, err_msg=name)

    @precondition(lambda self: self.history)
    @rule(data=st.data())
    def merge(self, data):
        at = data.draw(st.integers(0, len(self.history) - 1), label="snapshot")
        senders, snaps = self.history[at]
        if senders.size == 0:
            return
        receivers = _ranks(data, self.n, "receivers", min_size=1, max_size=8)
        group = st.lists(st.integers(0, senders.size - 1), min_size=1, max_size=3)
        groups = [data.draw(group, label=f"payloads of {r}") for r in receivers.tolist()]
        bounds = np.concatenate(([0], np.cumsum([len(g) for g in groups])))
        src = np.array([j for g in groups for j in g], dtype=np.int64)
        for name, store in self.stores.items():
            store.merge(receivers, bounds, snaps[name][0], src)
        self.dirty |= set(receivers.tolist())

    @rule(data=st.data())
    def trim(self, data):
        extra = _ranks(data, self.n, "also trimmed", max_size=4)
        receivers = np.array(sorted(self.dirty | set(extra.tolist())), dtype=np.int64)
        for store in self.stores.values():
            store.trim(receivers)
        self.dirty = set()

    def _compare_finished(self):
        for store in self.stores.values():
            store.finish()
        ref = self.stores.pop("set").know
        for name, store in self.stores.items():
            assert member_sets(store.knowledge) == ref, name
            assert store.knowledge.counts().tolist() == [len(s) for s in ref], name

    @precondition(lambda self: not self.dirty)
    @rule(data=st.data())
    def finish(self, data):
        """Compare, then start the next stage."""
        self._compare_finished()
        self.seed(data)

    def teardown(self):
        if not hasattr(self, "stores"):  # seeding itself failed
            return
        dirty = np.array(sorted(self.dirty), dtype=np.int64)
        for store in self.stores.values():
            store.trim(dirty)
        self._compare_finished()


TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)
