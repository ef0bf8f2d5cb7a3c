"""Zero-fault invisibility: the fault layer at loss=0/delay=0/no-churn
is bit-identical to not installing it.

This is the contract that lets the fault subsystem ride along in the
default build: every decision, migration count and telemetry counter
must match the undecorated pipeline exactly — same RNG draws, same
message timestamps, same registry keys — across seeds, at phase level
(the one round loop, over both knowledge stores) and event level.

The fates act on payload handles in that shared loop, so *active*
faults must also be store-independent: sparse ≡ packed bit for bit —
knowledge, per-round accounting, fault counters and the sampler's final
RNG state.
"""

import dataclasses
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

#: Test id -> knowledge store the phase-level round loop runs over
#: ("batched" is the packed store's historical id, kept so the
#: zero-fault suites stay addressable as before).
ENGINES = {"batched": "packed", "sparse": "sparse"}

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
    base = GossipConfig(fanout=3, rounds=4, knowledge=ENGINES[engine])
    bare = run_inform_stage(loads, base, rng=seed)
    wrapped = run_inform_stage(
        loads, dataclasses.replace(base, faults=INACTIVE), rng=seed
    )
    assert bare.knowledge_backend == wrapped.knowledge_backend == ENGINES[engine]
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
                knowledge=ENGINES[engine], faults=faults,
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
        fanout=3, rounds=4, knowledge=ENGINES[engine],
        faults=FaultConfig(loss_rate=0.3, seed=5),
    )
    first = run_inform_stage(loads, faulty_cfg, rng=11)
    second = run_inform_stage(loads, faulty_cfg, rng=11)
    assert first.dropped > 0
    assert first.dropped == second.dropped
    assert np.array_equal(first.knowledge.rows, second.knowledge.rows)
    assert first.n_messages == second.n_messages


@pytest.mark.parametrize("retransmit", [True, False], ids=["retransmit", "lossy"])
@pytest.mark.parametrize(
    "cap",
    [
        {},
        {"max_known": 24, "trim_policy": "random"},
        {"max_known": 24, "trim_policy": "lowest"},
    ],
    ids=["uncapped", "random", "lowest"],
)
def test_active_faults_sparse_equals_packed_20_seeds(cap, retransmit):
    """Loss, delay, duplication and retransmission all active: the
    sparse store takes every decision the packed store takes."""
    for seed in SEEDS:
        loads = np.random.default_rng(seed).gamma(2.0, 1.0, size=192)
        faults = FaultConfig(
            loss_rate=0.2, delay_rate=0.3, duplicate_rate=0.25,
            retransmit=retransmit, seed=seed,
        )
        runs = {}
        for knowledge in ("packed", "sparse"):
            rng = np.random.default_rng(seed + 1)
            stage = run_inform_stage(
                loads,
                GossipConfig(
                    fanout=3, rounds=6, knowledge=knowledge, faults=faults, **cap
                ),
                rng,
            )
            assert stage.knowledge_backend == knowledge
            runs[knowledge] = (stage, rng.bit_generator.state)
        (ref, ref_state), (new, new_state) = runs["packed"], runs["sparse"]
        np.testing.assert_array_equal(new.knowledge.rows, ref.knowledge.rows)
        for name in (
            "n_messages", "bytes_sent", "inter_node_messages", "rounds_run",
            "per_round_messages", "per_round_senders",
            "dropped", "delayed", "duplicated", "retransmits", "expired",
        ):
            assert getattr(new, name) == getattr(ref, name), (seed, name)
        assert new_state == ref_state
        # The faults really fired (retransmission turns losses into delays).
        assert ref.delayed > 0 and ref.duplicated > 0
        assert (ref.retransmits > 0) if retransmit else (ref.dropped > 0)
