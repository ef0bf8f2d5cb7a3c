"""Nested balancer configs: every knob is validated where it is declared
and reaches, or is refused by, the code it is handed to.

``TemperedConfig`` nests ``GossipConfig`` and ``TransferConfig``;
``EmpireConfig`` nests a ``TemperedConfig`` as ``lb``. These tests pin what that shape guarantees:

- a bad balancer knob fails at construction, whichever configuration
  (even ``"spmd"``, which runs no balancer) it was given to;
- the ``"grapevine"`` EMPIRE configuration runs the inform stage and
  threshold it is given, faults included, is unchanged without them,
  and refuses every other transfer knob; ``GrapevineLB`` itself takes
  no transfer or loop knob but the threshold;
- ``LBManager`` refuses knobs its event-level episode does not
  implement instead of running without them, and phase-level gossip
  refuses the event-level fault knobs;
- counts (``EpisodeSpec``'s, ``event_inform_stage``'s) are integers.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.grapevine import GRAPEVINE_TRANSFER, GrapevineLB
from repro.core.gossip import GossipConfig
from repro.core.tempered import TemperedConfig
from repro.core.transfer import TransferConfig
from repro.empire.app import EmpireConfig, _make_balancer
from repro.net.episode import EpisodeSpec
from repro.obs import StatsRegistry
from repro.runtime.amt import AMTRuntime
from repro.runtime.lbmanager import LBManager, event_inform_stage
from repro.sim.faults import EVENT_ONLY_FAULTS, FaultConfig
from repro.sim.process import System
from repro.workloads import paper_analysis_scenario
from tests.empire.test_identity import QUICK, _app_digest

BAD_KNOBS = [
    {"ordering": "bogus"},
    {"n_trials": 0},
    {"fanout": 2.5},
    {"rounds": -1},
    {"max_known": 0},
    {"n_workers": 0},
    {"threshold": 0.0},
]


class TestValidationAtConstruction:
    @pytest.mark.parametrize("knob", BAD_KNOBS, ids=lambda k: next(iter(k)))
    @pytest.mark.parametrize("configuration", ["spmd", "tempered", "grapevine"])
    def test_empire_config_rejects_bad_balancer_knobs(self, configuration, knob):
        with pytest.raises(ValueError, match=next(iter(knob))):
            EmpireConfig(configuration, **knob)

    def test_all_at_once(self):
        with pytest.raises(ValueError):
            EmpireConfig("spmd", ordering="bogus", n_trials=0, fanout=2.5, rounds=-1)


#: ``run_empire`` digests of the lossless ``"grapevine"`` configuration,
#: taken with ``tests/empire/test_identity.py::_app_digest`` before the
#: configuration took its inform stage whole from ``EmpireConfig.lb``.
GRAPEVINE_PINNED = {
    0: "47a2ec11e66cbc231d1032caeec586fb5fbe7dfb18931c6a721849b4a3e05920",
    11: "1b9c5c7398e75db1a865f355fb31af75dec9affc728a6ac579c3c691c08af71c",
}


class TestGrapevineInEmpire:
    def _dropped(self, config: EmpireConfig) -> int:
        registry = StatsRegistry()
        balancer = _make_balancer(config).instrument(registry)
        dist = paper_analysis_scenario(n_tasks=400, n_loaded_ranks=4, n_ranks=32, seed=1)
        balancer.rebalance(dist, rng=np.random.default_rng(0))
        return registry.counter("faults.gossip.dropped")

    def test_loss_reaches_the_inform_stage(self):
        lossy = EmpireConfig("grapevine", faults=FaultConfig(loss_rate=0.5, seed=1))
        assert self._dropped(lossy) > 0
        assert self._dropped(EmpireConfig("grapevine")) == 0

    def test_takes_the_whole_inform_stage(self):
        gossip = GossipConfig(fanout=3, rounds=4, max_known=8, trim_policy="lowest")
        balancer = _make_balancer(EmpireConfig("grapevine", n_iters=5, gossip=gossip))
        assert balancer.config.gossip == gossip
        assert (balancer.config.n_trials, balancer.config.n_iters) == (1, 5)
        assert balancer.config.n_workers is None

    def test_threshold_reaches_the_transfer_stage(self):
        balancer = _make_balancer(EmpireConfig("grapevine", threshold=1.2))
        assert balancer.config.transfer == replace(GRAPEVINE_TRANSFER, threshold=1.2)

    @pytest.mark.parametrize(
        "knob",
        [{"nacks": True}, {"ordering": "lightest"}, {"view": "shared"}, {"cascade": True}],
        ids=lambda k: next(iter(k)),
    )
    def test_other_transfer_knobs_raise(self, knob):
        with pytest.raises(ValueError, match=next(iter(knob))):
            EmpireConfig("grapevine", **knob)

    @pytest.mark.parametrize("seed", sorted(GRAPEVINE_PINNED))
    def test_lossless_run_is_unchanged(self, seed):
        digest = _app_digest(EmpireConfig("grapevine", seed=seed, **QUICK))
        assert digest == GRAPEVINE_PINNED[seed]

    def test_lossy_run_differs(self):
        lossy = EmpireConfig(
            "grapevine", seed=0, faults=FaultConfig(loss_rate=0.5, seed=1), **QUICK
        )
        assert _app_digest(lossy) != GRAPEVINE_PINNED[0]


class TestGrapevinePreset:
    def test_takes_the_inform_stage_and_threshold(self):
        balancer = GrapevineLB(n_iters=3, threshold=1.1, gossip=GossipConfig(fanout=4), rounds=7)
        assert balancer.config.gossip == GossipConfig(fanout=4, rounds=7)
        assert balancer.config.transfer.threshold == 1.1
        assert (balancer.config.n_trials, balancer.config.n_iters) == (1, 3)

    @pytest.mark.parametrize(
        "knob",
        [
            {"criterion": "relaxed"},
            {"cmf": "modified"},
            {"recompute_cmf": True},
            {"n_trials": 2},
            {"transfer": TransferConfig()},
        ],
        ids=lambda k: next(iter(k)),
    )
    def test_transfer_and_loop_knobs_are_a_type_error(self, knob):
        with pytest.raises(TypeError):
            GrapevineLB(**knob)


class TestPhaseGossipRefusesEventOnlyFaults:
    """The round loop has no clock, membership or control traffic."""

    @pytest.mark.parametrize(
        "knob",
        [
            {"churn": "crash:3@0"},
            {"reorder_window": 1e-6},
            {"drop_control": True},
            {"heartbeat_period": 2e-4},
            {"suspect_timeout": 1e-3},
            {"stage_timeout": 1e-3},
        ],
        ids=lambda k: next(iter(k)),
    )
    def test_each_knob_raises(self, knob):
        faults = FaultConfig(loss_rate=0.1, **knob)
        with pytest.raises(ValueError, match=f"phase-level gossip cannot honour {next(iter(knob))}"):
            GossipConfig(faults=faults)
        with pytest.raises(ValueError, match=next(iter(knob))):
            TemperedConfig(faults=faults)

    def test_error_names_every_dropped_knob(self):
        faults = FaultConfig(
            churn="crash:3@0", reorder_window=1e-6, drop_control=True,
            heartbeat_period=2e-4, suspect_timeout=1e-3, stage_timeout=1e-3,
        )
        with pytest.raises(ValueError) as info:
            GossipConfig(faults=faults)
        for name in EVENT_ONLY_FAULTS:
            assert name in str(info.value)

    def test_phase_knobs_are_accepted(self):
        faults = FaultConfig(
            loss_rate=0.2, delay_rate=0.3, delay_scale=2.0, duplicate_rate=0.1,
            retransmit=True, max_retries=3, retry_rounds=2, seed=4,
        )
        assert GossipConfig(faults=faults).faults is faults


class TestCountsMustBeIntegers:
    """A fractional or boolean count is refused where it is declared,
    instead of failing later inside numpy or being truncated."""

    @pytest.mark.parametrize(
        "knob",
        [{"n_ranks": True}, {"fanout": 2.5}, {"rounds": 2.5}, {"n_iters": 1.5}],
        ids=lambda k: next(iter(k)),
    )
    def test_episode_spec(self, knob):
        base = dict(n_ranks=4, task_loads=(1.0, 2.0), assignment=(0, 0))
        with pytest.raises(ValueError, match=f"{next(iter(knob))} must be a positive integer"):
            EpisodeSpec(**{**base, **knob})

    @pytest.mark.parametrize(
        "knob", [{"fanout": 2.5}, {"rounds": 3.7}], ids=lambda k: next(iter(k))
    )
    def test_event_inform_stage(self, knob):
        with pytest.raises(ValueError, match=f"{next(iter(knob))} must be a positive integer"):
            event_inform_stage(System(4), np.ones(4), **knob)


def _runtime() -> AMTRuntime:
    loads = np.random.default_rng(0).gamma(4.0, 0.25, size=24)
    return AMTRuntime(4, loads, np.zeros(24, dtype=np.int64), task_overhead=0.001)


class TestLBManagerRefusesWhatItCannotHonour:
    @pytest.mark.parametrize(
        "knobs, named",
        [
            ({"max_known": 2, "trim_policy": "lowest"}, ["max_known", "trim_policy"]),
            ({"avoid_known": False}, ["avoid_known"]),
            ({"ranks_per_node": 2, "intra_node_bias": 0.5}, ["ranks_per_node", "intra_node_bias"]),
            ({"faults": FaultConfig(loss_rate=0.1)}, ["faults"]),
            ({"cascade": True}, ["cascade"]),
            ({"n_workers": 2}, ["n_workers"]),
            ({"knowledge": "sparse"}, ["knowledge"]),
        ],
        ids=["cap", "avoid_known", "topology", "faults", "cascade", "n_workers", "knowledge"],
    )
    def test_unsupported_gossip_knobs_raise(self, knobs, named):
        with pytest.raises(ValueError) as info:
            LBManager(_runtime(), TemperedConfig(**knobs))
        for name in named:
            assert name in str(info.value)

    def test_lbaf_variant_raises_for_its_cascade(self):
        with pytest.raises(ValueError, match="cascade"):
            LBManager(_runtime(), TemperedConfig().lbaf_variant())

    def test_implemented_knobs_are_accepted(self):
        config = TemperedConfig(
            n_trials=1, n_iters=3, fanout=2, rounds=3, knowledge="packed", ordering="lightest"
        )
        assert LBManager(_runtime(), config).config is config
        LBManager(_runtime(), TemperedConfig(n_trials=1, n_iters=3))
