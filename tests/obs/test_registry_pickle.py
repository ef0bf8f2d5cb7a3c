"""Registry pickle round-trips.

The process-backed trial executor builds a ``StatsRegistry`` inside
each worker and ships it back over IPC, so registries must pickle
losslessly. The pickle format is pinned to ``to_dict``/``from_dict``
(the registry's stable JSON snapshot), which also guards against a
future unpicklable field silently breaking worker round-trips.
"""

import pickle

from repro.obs import StatsRegistry


def populated_registry():
    registry = StatsRegistry()
    registry.inc("gossip.messages", 120)
    registry.inc("transfer.accepted", 7)
    registry.gauge("engine.queue_depth", 42.0)
    registry.add_time("wall.inform", 0.25)
    registry.observe("lb.iteration", trial=1, iteration=1, imbalance=0.5)
    registry.observe("lb.iteration", trial=1, iteration=2, imbalance=0.25)
    registry.event("lb.refinement", n_trials=2, best_imbalance=0.25)
    registry.event("lb.episode", time=1.5, rank=3, migrations=9)
    return registry


class TestStatsRegistryPickle:
    def test_round_trip_preserves_everything(self):
        original = populated_registry()
        restored = pickle.loads(pickle.dumps(original))
        assert restored.to_dict() == original.to_dict()

    def test_restored_registry_is_independent(self):
        original = populated_registry()
        restored = pickle.loads(pickle.dumps(original))
        restored.inc("gossip.messages", 1)
        assert original.counter("gossip.messages") == 120
        assert restored.counter("gossip.messages") == 121

    def test_restored_registry_merges(self):
        a = populated_registry()
        b = pickle.loads(pickle.dumps(populated_registry()))
        a.merge(b)
        assert a.counter("gossip.messages") == 240
        assert len(a.series_rows("lb.iteration")) == 4
        assert a.gauges["engine.queue_depth"] == 42.0  # high-water, not sum

    def test_events_round_trip_with_time_and_rank(self):
        original = populated_registry()
        restored = pickle.loads(pickle.dumps(original))
        assert restored.events == original.events
        episode = restored.events_of("lb.episode")[0]
        assert episode.time == 1.5
        assert episode.rank == 3

    def test_empty_registry_round_trips(self):
        restored = pickle.loads(pickle.dumps(StatsRegistry()))
        assert restored.to_dict() == StatsRegistry().to_dict()

