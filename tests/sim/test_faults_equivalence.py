"""Zero-fault invisibility: the fault layer at loss=0/delay=0/no-churn
is bit-identical to not installing it.

This is the contract that lets the fault subsystem ride along in the
default build: every decision, migration count and telemetry counter
must match the undecorated pipeline exactly — same RNG draws, same
message timestamps, same registry keys — across seeds, at phase level
(the batched driver, the only one with a fault branch) and event level.
"""

import re

import numpy as np
import pytest

from repro.core.distribution import Distribution
from repro.core.gossip import GossipConfig, run_inform_stage
from repro.core.tempered import TemperedConfig, TemperedLB
from repro.obs import StatsRegistry
from repro.runtime.amt import AMTRuntime
from repro.runtime.lbmanager import LBManager
from repro.sim.faults import FaultConfig, FaultyLink
from repro.workloads import paper_analysis_scenario

SEEDS = list(range(20))

#: The phase-level drivers with a fault branch (one; the id is kept in
#: the test names so the zero-fault suites stay addressable as before).
ENGINES = ["batched"]

INACTIVE = FaultConfig()  # every knob at zero


def _normalize_counters(counters):
    """Registry counters with protocol-instance suffixes folded away
    (tags like ``inform_7`` are numbered per process, not per run)."""
    out = {}
    for key, value in counters.items():
        key = re.sub(r"_\d+$", "", key)
        out[key] = out.get(key, 0) + value
    return out


def test_inactive_config_is_inactive():
    assert not INACTIVE.active
    assert FaultConfig(loss_rate=0.1).active
    assert FaultConfig(delay_rate=0.1).active
    assert FaultConfig(duplicate_rate=0.1).active
    assert FaultConfig(reorder_window=1e-6).active


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
def test_phase_gossip_bit_identical(engine, seed):
    rng = np.random.default_rng(seed)
    loads = rng.gamma(2.0, 1.0, size=96)
    bare = run_inform_stage(
        loads, GossipConfig(fanout=3, rounds=4), rng=seed
    )
    wrapped = run_inform_stage(
        loads,
        GossipConfig(fanout=3, rounds=4, faults=INACTIVE),
        rng=seed,
    )
    assert np.array_equal(bare.knowledge.rows, wrapped.knowledge.rows)
    assert bare.n_messages == wrapped.n_messages
    assert bare.bytes_sent == wrapped.bytes_sent
    assert bare.per_round_messages == wrapped.per_round_messages
    assert wrapped.dropped == wrapped.delayed == wrapped.duplicated == 0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
def test_phase_rebalance_bit_identical(engine, seed):
    dist = paper_analysis_scenario(
        n_tasks=400, n_loaded_ranks=4, n_ranks=48, seed=seed
    )

    def run(faults):
        registry = StatsRegistry()
        lb = TemperedLB(
            TemperedConfig(
                n_trials=1, n_iters=2, fanout=3, rounds=4,
                faults=faults,
            )
        )
        lb.instrument(registry)
        result = lb.rebalance(dist, rng=np.random.default_rng(seed))
        return result, registry

    bare, reg_bare = run(None)
    wrapped, reg_wrapped = run(INACTIVE)
    assert np.array_equal(bare.assignment, wrapped.assignment)
    assert bare.final_imbalance == wrapped.final_imbalance
    assert bare.n_migrations == wrapped.n_migrations
    assert reg_bare.counters == reg_wrapped.counters


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_event_episode_bit_identical(seed):
    def episode(install_layer):
        rng = np.random.default_rng(seed)
        task_loads = rng.gamma(2.0, 1.0, size=192)
        assignment = rng.integers(0, 12, size=192)
        registry = StatsRegistry()
        runtime = AMTRuntime(12, task_loads, assignment, registry=registry)
        if install_layer:
            link = FaultyLink(runtime.system, INACTIVE, registry=registry)
            assert not link.enabled
        manager = LBManager(
            runtime,
            TemperedConfig(n_trials=1, n_iters=2, fanout=3, rounds=4),
            seed=seed,
            registry=registry,
        )
        return manager.run_episode(task_loads), registry

    bare, reg_bare = episode(False)
    wrapped, reg_wrapped = episode(True)
    assert np.array_equal(bare.assignment, wrapped.assignment)
    assert bare.final_imbalance == wrapped.final_imbalance
    assert bare.t_lb == wrapped.t_lb
    assert bare.n_migrations == wrapped.n_migrations
    assert _normalize_counters(reg_bare.counters) == _normalize_counters(
        reg_wrapped.counters
    )
    # The inactive layer never wrote a fault counter.
    assert not any(k.startswith("faults.") for k in reg_wrapped.counters)


@pytest.mark.parametrize("engine", ENGINES)
def test_active_faults_are_deterministic(engine):
    """Active fault injection is seeded: the same (sampling seed,
    fault seed) pair reproduces the exact degraded outcome."""
    rng = np.random.default_rng(3)
    loads = rng.gamma(2.0, 1.0, size=96)
    faulty_cfg = GossipConfig(
        fanout=3, rounds=4, faults=FaultConfig(loss_rate=0.3, seed=5),
    )
    first = run_inform_stage(loads, faulty_cfg, rng=11)
    second = run_inform_stage(loads, faulty_cfg, rng=11)
    assert first.dropped > 0
    assert first.dropped == second.dropped
    assert np.array_equal(first.knowledge.rows, second.knowledge.rows)
    assert first.n_messages == second.n_messages
