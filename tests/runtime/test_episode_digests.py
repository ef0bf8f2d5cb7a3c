"""Pinned digests of the event-level family: LB episodes on the
discrete-event engine, the simulator reference of the per-rank
protocol, and the runtime's standalone protocols.

The ``System`` / ``Engine`` / Safra hot path and the event-level inform
stage are rewritten for speed under the rule that *no event moves*:
every message arrives at the same float time, in the same ``(time,
seq)`` order, and draws the same RNG values. Each digest is the
``sha256`` of everything a run hands back or leaves behind:

- the result: assignment, iteration records, ``t_lb``,
  ``gossip_time``, migration totals (an ``EpisodeResult`` for the
  ``NodeCore`` reference);
- the system: ``engine.now``, ``events_processed``, the queue depth,
  message and byte totals, and every rank's ``busy_until``,
  ``compute_time`` and send / receive counts;
- the randomness: every per-rank stream's and ``decision_rng``'s final
  ``bit_generator.state``;
- the telemetry: registry counters, timers, gauges, series and events,
  with the ``_<n>`` instance suffixes of stage tags folded away (so a
  digest does not depend on how tags are numbered);
- under faults: the link's drop / delay / duplicate / churn counters
  and the heartbeat detector's suspicions.

Cases: lossless ``LBManager`` episodes at 64 and 256 ranks over three
seeds each; two consecutive episodes on one runtime; one three-trial
episode (its winner is trial 2's last iteration, so the cross-trial
best-of selection is pinned); episodes under an
active ``FaultyLink`` (loss, delay spikes past the stage timeout,
duplication, the heartbeat detector and one crash, so the peek / step
stage-timeout path runs); ``run_episode_sim`` on ``net_64``'s spec
shape; and a standalone ``migrate_tasks``, ``allreduce``, Safra and
Dijkstra–Scholten run. The digests were generated before the hot-path
rewrite by ``python tests/runtime/test_episode_digests.py`` with numpy
2.4.6 on x86-64, and must never be regenerated to make a change pass.
``lb-p64-trials3`` was generated the same way at commit ``71c4fa4``,
before the trial loop moved into one function shared with the
phase-level family.
"""

from __future__ import annotations

import hashlib
import re
from contextlib import contextmanager

import numpy as np
import pytest

import repro.net.simref as simref
from repro.core.tempered import TemperedConfig
from repro.net.episode import EpisodeSpec
from repro.obs import StatsRegistry
from repro.runtime.amt import AMTRuntime
from repro.runtime.lbmanager import LBManager
from repro.runtime.migration import migrate_tasks
from repro.sim.faults import FaultConfig, FaultyLink
from repro.sim.network import NetworkModel
from repro.sim.process import System
from repro.sim.reductions import allreduce
from repro.sim.termination import DijkstraScholten, SafraDetector
from repro.workloads import paper_analysis_scenario


def _fold(mapping: dict) -> list[tuple[str, object]]:
    """A registry mapping with ``_<n>`` tag suffixes folded away."""
    out: dict[str, object] = {}
    for key, value in mapping.items():
        key = re.sub(r"_\d+$", "", key)
        out[key] = out.get(key, 0) + value
    return sorted(out.items())


def _hash_registry(h, registry: StatsRegistry) -> None:
    h.update(repr(_fold(registry.counters)).encode())
    h.update(repr(_fold(registry.timers)).encode())
    h.update(repr(_fold(registry.gauges)).encode())
    for name in sorted(registry.series):
        h.update(name.encode())
        h.update(repr([sorted(row.items()) for row in registry.series[name]]).encode())
    for event in registry.events:
        h.update(repr((event.kind, event.time, event.rank, sorted(event.fields.items()))).encode())


def _hash_system(h, system: System) -> None:
    engine = system.engine
    h.update(repr((engine.now, engine.events_processed, engine.pending)).encode())
    h.update(repr((system.messages_sent, system.bytes_sent)).encode())
    procs = system.processes
    h.update(np.array([p.busy_until for p in procs], dtype=np.float64).tobytes())
    h.update(np.array([p.compute_time for p in procs], dtype=np.float64).tobytes())
    h.update(repr([(p.sent, p.received) for p in procs]).encode())


def _hash_rng(h, rng: np.random.Generator) -> None:
    h.update(repr(rng.bit_generator.state).encode())


def _hash_lb_result(h, result) -> None:
    h.update(np.ascontiguousarray(result.assignment, dtype=np.int64).tobytes())
    h.update(
        repr((
            result.initial_imbalance, result.final_imbalance, result.n_migrations,
            result.t_lb, result.gossip_time, result.gossip_messages, result.gossip_bytes,
        )).encode()
    )
    for r in result.records:
        h.update(
            repr((r.trial, r.iteration, r.transfers, r.rejections, r.imbalance,
                  r.gossip_messages, r.gossip_bytes)).encode()
        )
    m = result.migration
    if m is not None:
        h.update(repr((m.n_migrations, m.bytes_moved, m.start_time, m.end_time)).encode())


def _lb_digest(
    n_ranks: int, n_tasks: int, n_loaded: int, seed: int,
    episodes: int = 1, faults: FaultConfig | None = None,
    config: TemperedConfig = TemperedConfig(n_trials=1, n_iters=3),
) -> str:
    """``episodes`` LB episodes on one runtime. Lossless runs execute a
    phase before each episode; faulty runs (whose crash would stall the
    phase barrier) balance the scenario's loads directly, twice."""
    dist = paper_analysis_scenario(n_tasks, n_loaded, n_ranks, seed=seed)
    registry = StatsRegistry()
    runtime = AMTRuntime(
        n_ranks, dist.task_loads, dist.assignment, task_overhead=1e-3, registry=registry
    )
    link = None
    if faults is not None:
        link = FaultyLink(runtime.system, faults, registry=registry)
    manager = LBManager(runtime, config, seed=seed + 1, registry=registry)
    h = hashlib.sha256()
    for _ in range(episodes):
        if link is None:
            runtime.execute_phase()
            result = manager.run_episode()
        else:
            result = manager.run_episode(dist.task_loads)
        _hash_lb_result(h, result)
    _hash_system(h, runtime.system)
    for rank in range(n_ranks):
        _hash_rng(h, manager.streams[rank])
    _hash_rng(h, manager.decision_rng)
    _hash_registry(h, registry)
    if link is not None:
        h.update(repr((link.drops, link.delayed, link.duplicates, link.crashes,
                       link.restarts, link.alive.tobytes())).encode())
        detector = manager.failure_detector
        h.update(repr((detector.suspicions, sorted(detector.suspected),
                       detector.timeouts.tobytes())).encode())
    return h.hexdigest()


@contextmanager
def _recording_systems():
    """Capture every ``System`` the simulator reference builds."""
    built: list[System] = []

    class Recording(System):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            built.append(self)

    original = simref.System
    simref.System = Recording
    try:
        yield built
    finally:
        simref.System = original


def _sim_reference_digest(seed: int) -> str:
    """``run_episode_sim`` on ``net_64``'s spec shape."""
    spec = EpisodeSpec.synthetic(64, seed=seed, n_iters=2)
    with _recording_systems() as built:
        result = simref.run_episode_sim(spec)
    h = hashlib.sha256()
    h.update(repr(sorted(result.to_dict().items())).encode())
    (system,) = built
    _hash_system(h, system)
    return h.hexdigest()


def _protocols_digest(seed: int) -> str:
    """A standalone all-reduce, Safra-detected ring app, diffusing
    computation under Dijkstra–Scholten and a migration, in sequence on
    one 48-rank system."""
    n = 48
    rng = np.random.default_rng(seed)
    registry = StatsRegistry()
    system = System(n, network=NetworkModel(ranks_per_node=4), registry=registry)
    h = hashlib.sha256()

    completions: list[tuple[int, float, float]] = []
    allreduce(
        system, [float(x) for x in rng.random(n)], lambda a, b: a + b,
        lambda rank, value: completions.append((rank, value, system.engine.now)),
        size=48, root=int(rng.integers(n)),
    )
    system.run()
    h.update(repr(completions).encode())

    hops = [int(x) for x in rng.integers(1, 12, size=n)]

    def ring(proc, msg):
        proc.compute(hops[proc.rank] * 1e-7)
        if msg.payload > 0:
            proc.send((proc.rank + hops[proc.rank]) % n, "ring", payload=msg.payload - 1)

    def spread(proc, msg):
        if msg.payload > 0:
            for k in (1, 5):
                proc.send((proc.rank * 7 + k) % n, "spread", payload=msg.payload - 1, size=96)

    for proc in system.processes:
        proc.register("ring", ring)
        proc.register("spread", spread)
    detected: list[float] = []
    safra = SafraDetector(system, on_terminate=detected.append)
    for start in (0, 11, 29):
        system.processes[start].send(start + 1, "ring", payload=40)
    safra.start()
    system.run()
    ds = DijkstraScholten(system, root=3, on_terminate=detected.append)
    system.processes[3].send(9, "spread", payload=6)
    ds.start()
    system.run()
    h.update(repr((detected, safra.rounds)).encode())

    task_loads = rng.gamma(2.0, 1.0, size=300)
    moves = [
        (int(t), int(rng.integers(n)), int(rng.integers(n)))
        for t in rng.integers(0, 300, size=120)
    ]
    result = migrate_tasks(system, moves, task_loads, bytes_per_unit_load=4e5)
    h.update(repr((result.n_migrations, result.bytes_moved,
                   result.start_time, result.end_time)).encode())
    _hash_system(h, system)
    _hash_registry(h, registry)
    return h.hexdigest()


def _faults(seed: int, **extra) -> FaultConfig:
    return FaultConfig(
        loss_rate=0.05, delay_rate=0.1, delay_scale=1.5e-3, duplicate_rate=0.05,
        churn="crash:5@1.5e-4", stage_timeout=2e-3, seed=seed, **extra,
    )


CASES = {
    **{f"lb-p64-s{s}": (_lb_digest, (64, 1024, 4, s)) for s in (1, 2, 3)},
    **{f"lb-p256-s{s}": (_lb_digest, (256, 4096, 16, s)) for s in (5, 6, 7)},
    "lb-p64-two-episodes": (_lb_digest, (64, 1024, 4, 4, 2)),
    "lb-p64-trials3": (
        _lb_digest, (64, 1024, 4, 1, 1, None, TemperedConfig(n_trials=3, n_iters=2)),
    ),
    "lb-p64-faults-s1": (_lb_digest, (64, 1024, 4, 1, 2, _faults(1))),
    "lb-p64-faults-s2": (_lb_digest, (64, 1024, 4, 2, 2, _faults(2))),
    "lb-p64-faults-control": (
        _lb_digest, (64, 1024, 4, 3, 2, _faults(3, reorder_window=2e-6, drop_control=True)),
    ),
    "simref-p64-s5": (_sim_reference_digest, (5,)),
    "simref-p64-s7": (_sim_reference_digest, (7,)),
    "protocols-s1": (_protocols_digest, (1,)),
    "protocols-s2": (_protocols_digest, (2,)),
}


def _compute(case: str) -> str:
    fn, args = CASES[case]
    return fn(*args)


PINNED: dict[str, str] = {
    "lb-p256-s5": "36ab59a7146226609fc7b99aeddc509469987bb6a8cdfc238a7350c8dab58377",
    "lb-p256-s6": "a1e10e79c91faa074975b8535fe5bdaf3e52f420cdc83b51be05209ed02e6404",
    "lb-p256-s7": "373c9474a0b06e490f76dc358be804e628337c61d85e1e541df4b9bd06955f74",
    # Re-pinned once, on purpose, when the all-reduce and the phase
    # barrier began to count each child and each rank once: a duplicated
    # ``__allreduce_up`` had stood in for a lost sibling's. Both episodes
    # keep their assignment, imbalance and migrations; the first sends
    # one message fewer (13,409), the second four more (25,447), and the
    # second's t_lb moves from 0.0341971 to 0.0341975 s.
    # Was 3a982d72e960b59644243e974b561f2e215564051ad6e7f7cb92e8c13431ae03.
    "lb-p64-faults-control": "12e9f96623bddd018443fc11573875eebc35d9dec0f044f508aa2bfc59408da5",
    "lb-p64-faults-s1": "93424a33f96a1fcc98d759a36efaae23afd0431d3588e998fb42aeb4590dab5a",
    "lb-p64-faults-s2": "4548c2f844c821cd7f63b40b0bf88587d1decee4321df8f1601d19c3119417ca",
    "lb-p64-s1": "2bd75a4a2fb859591ddbcbcb86c0039e5b40724301f21bea6d97caf42d740961",
    "lb-p64-s2": "55b547a1919e31ca960742db7671b1bb6118a41d1d7daa29e9b2298dde3153ba",
    "lb-p64-s3": "323c6c89e62fc5feafc77f4a9fb22eb0d718332b026cc28af3e1ad10718effa8",
    "lb-p64-two-episodes": "e34cdaf849aa863d2a02039fb567e63ceaff98faf86157070603cae192923fc3",
    "lb-p64-trials3": "c447f31679bdb1faa3fb3c28c0efa9845de39650d4a4af9d35826b2ed76a77cd",
    "protocols-s1": "1a5878ef512ef1a8bf4fa1979d583c69be89f11df58eaf185f856e08a32748ff",
    "protocols-s2": "84c3750e89811931e325431645b98309015a073dfa3298fc5a5bbc7193936eb7",
    "simref-p64-s5": "e0f6ca43355e36ebe1c59c9195f8edf1802c177480ac42051e5182b17754d008",
    "simref-p64-s7": "2fb1baa8c4c36e34fb013f0ba54181b9def78db8bb745482ff96692032472590",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_event_family_is_bit_identical_to_the_pinned_parent(case):
    assert _compute(case) == PINNED[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{_compute(case)}",')
