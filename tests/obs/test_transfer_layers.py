"""The transfer stage's wall time split into its three layers.

With a registry attached, :func:`repro.core.transfer.transfer_stage`
adds ``wall.transfer.prologue`` (preparing senders), ``.walk`` (their
RNG-ordered passes) and ``.apply`` (writing the accepts). The split is
telemetry only: results are byte-identical without it, it reads no
clock without a registry, and the three layers fit inside the
``wall.transfer`` span that the refinement loop times around the stage.
"""

import numpy as np
import pytest

import repro.core.transfer as transfer_module
from repro.core.gossip import GossipConfig
from repro.core.refinement import iterative_refinement
from repro.core.transfer import TransferConfig
from repro.obs import StatsRegistry
from repro.workloads import paper_analysis_scenario

LAYERS = ("wall.transfer.prologue", "wall.transfer.walk", "wall.transfer.apply")
#: The default stage prepares a block of senders at once; h < 1 makes
#: senders known recipients, so each is prepared and applied alone.
CONFIGS = {
    "independent": TransferConfig(ordering="fewest_migrations"),
    "one-by-one": TransferConfig(threshold=0.9, max_passes=2),
}


def _episode(config, registry):
    dist = paper_analysis_scenario(n_tasks=2000, n_loaded_ranks=8, n_ranks=256, seed=4)
    rng = np.random.default_rng(9)
    result = iterative_refinement(
        dist, n_trials=1, n_iters=3, gossip=GossipConfig(), transfer=config,
        rng=rng, registry=registry,
    )
    records = [
        (r.iteration, r.transfers, r.rejections, r.imbalance) for r in result.records
    ]
    return result.best_assignment.tobytes(), records, rng.bit_generator.state


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_layer_timers_change_nothing(name):
    registry = StatsRegistry()
    assert _episode(CONFIGS[name], registry) == _episode(CONFIGS[name], None)
    assert registry.counter("transfer.accepted") > 0


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_layers_sum_to_at_most_the_stage_span(name):
    registry = StatsRegistry()
    _episode(CONFIGS[name], registry)
    assert all(registry.timers[layer] > 0.0 for layer in LAYERS)
    assert sum(registry.timers[layer] for layer in LAYERS) <= registry.timers["wall.transfer"]


def test_no_registry_reads_no_clock(monkeypatch):
    class NoClock:
        @staticmethod
        def perf_counter():
            raise AssertionError("clock read without a registry")

    monkeypatch.setattr(transfer_module, "time", NoClock)
    for config in CONFIGS.values():
        _episode(config, None)
