"""The LB manager: a full distributed load-balancing episode in simulation.

Sequence per episode (what vt does at an LB phase boundary):

1. constant-size statistics all-reduce (``l_ave``, ``l_max``);
2. ``n_trials x n_iters`` refinement iterations (Algorithm 3), each an
   asynchronous inform stage (:func:`event_inform_stage`) followed by
   local transfer decisions (Algorithm 2, snapshot view — senders see
   only their own knowledge) and an all-reduce evaluating the proposed
   imbalance, run by the phase level's trial loop
   (:func:`repro.core.refinement.run_trials`);
3. one migration episode executing the best proposal (Alg. 3 l.13).

The returned :class:`DistributedLBResult` carries the simulated cost of
the whole episode — the ``t_lb`` column of Fig. 3.

In :func:`event_inform_stage` each rank runs
:class:`repro.core.gossip.RankInform` on every inform message as it
lands: rounds "proceed without barriers, relying on distributed
termination detection" (Safra's). A payload is ``(row, round)``, one
copy of the sender's packed row per fan-out. Each stage retires its
``inform_<n>`` tag when it ends, so a message delayed past the stage
timeout is discarded on arrival instead of forwarding into the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.base import IterationRecord
from repro.core.gossip import GossipConfig, GossipResult, RankInform
from repro.core.knowledge import PackedKnowledgeBitmap
from repro.core.metrics import imbalance
from repro.core.refinement import run_trials
from repro.core.tempered import TemperedConfig
from repro.core.transfer import TransferStats, transfer_from_rank
from repro.obs import StatsRegistry
from repro.runtime.amt import AMTRuntime
from repro.runtime.migration import MigrationResult, migrate_tasks
from repro.sim.faults import FaultyLink, HeartbeatFailureDetector
from repro.sim.process import System
from repro.sim.reductions import allreduce
from repro.sim.rng import RankStreams
from repro.sim.termination import SafraDetector
from repro.util.validation import check_positive_int, refuse_changed

__all__ = [
    "DistributedLBResult", "LBManager", "check_event_level", "event_inform_stage",
    "failover_assignment",
]

#: CPU seconds charged per transfer-loop attempt (criterion + CMF sample).
_ATTEMPT_COST = 5e-7


def check_event_level(config: TemperedConfig) -> None:
    """Raise ``ValueError`` on a knob an episode cannot honour: any
    gossip knob but ``fanout``, ``rounds`` and ``knowledge="packed"``
    (the store an episode always uses; faults come from the
    ``System``), ``cascade`` (ranks decide one at a time) and
    ``n_workers`` (trials run serially in simulated time)."""
    gossip = config.gossip
    if gossip.knowledge == "packed":  # the store an episode runs anyway
        gossip = replace(gossip, knowledge=GossipConfig.knowledge)
    refuse_changed("LBManager", gossip, GossipConfig(), ("fanout", "rounds"))
    refuse_changed("LBManager", config.transfer, replace(config.transfer, cascade=False))
    refuse_changed("LBManager", config, replace(config, n_workers=None))


def event_inform_stage(
    system: System, rank_loads: np.ndarray, average_load: float | None = None,
    fanout: int = 6, rounds: int = 10, streams: RankStreams | None = None,
    detector: HeartbeatFailureDetector | None = None,
) -> tuple[GossipResult, float]:
    """Run one asynchronous inform stage to quiescence on ``system``.

    Returns the stage's :class:`~repro.core.gossip.GossipResult` and the
    simulated seconds from its start to detected quiescence (or to the
    stage timeout under faults); the clock advances by that much. Rank
    ``p`` draws its targets from ``streams[p]``. Under an active fault
    layer only live underloaded ranks seed, the stage is bounded by
    ``stage_timeout``, and the optional ``detector``'s heartbeats run
    for the stage alone; its suspects are never picked as targets.
    """
    check_positive_int("fanout", fanout)
    check_positive_int("rounds", rounds)
    n = system.n_ranks
    loads = np.ascontiguousarray(rank_loads, dtype=np.float64)
    if loads.ndim != 1:
        raise ValueError(f"rank_loads must be one load per rank (1-D), got shape {loads.shape}")
    if loads.size != n:
        raise ValueError("need one load per rank")
    l_ave = float(loads.mean()) if average_load is None else float(average_load)
    streams = streams or RankStreams(n, seed=0)
    faults = system.faults if system.faults is not None and system.faults.enabled else None
    tag = system.stage_tag("inform")
    start_time = system.engine.now

    underloaded = loads < l_ave
    seeds = np.flatnonzero(underloaded)
    if faults is not None:
        # Crashed ranks cannot initiate gossip about themselves.
        seeds = seeds[faults.alive[seeds]]
    know = PackedKnowledgeBitmap(n)
    cores = [RankInform(p, n, fanout, rounds, streams[p], know.row(p)) for p in range(n)]
    # The detector's live set: suspicions raised mid-stage apply at once.
    suspects = detector.suspected if detector is not None else None
    sent = [0, 0]  # messages, bytes

    def send(proc, forward) -> None:
        if forward is not None:
            targets, next_round, row, size = forward
            proc.send_many(targets.tolist(), tag, payload=(row, next_round), size=size)
            sent[0] += len(targets)
            sent[1] += len(targets) * size

    def on_inform(proc, msg) -> None:
        row, round_index = msg.payload
        send(proc, cores[proc.rank].on_inform(round_index, row, suspects))

    for proc in system.processes:
        proc.register(tag, on_inform)

    detected: list[float] = []
    # Scoped to this stage's tag: with faults, messages can linger past
    # the stage (delay spikes) and must not poison the next stage.
    safra = SafraDetector(system, on_terminate=detected.append, scope=lambda t: t == tag)
    try:
        if faults is not None and detector is not None:
            detector.start()
        for p in seeds.tolist():
            send(system.processes[p], cores[p].seed(suspects))
        safra.start()
        if faults is None:
            system.run()
            if not detected:
                raise RuntimeError("gossip termination was not detected")
            elapsed = detected[0] - start_time
        else:
            # A crashed member breaks the Safra ring, so the stage is
            # also bounded by a timeout. Events are stepped one at a time
            # so the clock stops at detection (or at the deadline)
            # instead of draining unrelated events.
            deadline = start_time + faults.config.stage_timeout
            engine = system.engine
            while not detected:
                nxt = engine.peek()
                if nxt is None or nxt > deadline:
                    break
                engine.step()
            if not detected:
                safra.cancel()
                engine.run(until=deadline)  # advance the clock, only
            if detector is not None:
                detector.stop()
            elapsed = (detected[0] if detected else deadline) - start_time
    finally:
        # Late messages (delayed past the stage timeout) are discarded
        # instead of sending into the next stage.
        safra.cancel()
        system.retire(tag)

    result = GossipResult(
        know, underloaded, loads.copy(), l_ave, n_messages=sent[0], bytes_sent=sent[1]
    )
    return result, elapsed


def failover_assignment(
    assignment: np.ndarray,
    task_loads: np.ndarray,
    alive: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Reassign every task on a dead rank to a live rank (checkpoint
    restart semantics: the work restarts elsewhere, total load is
    conserved).

    Deterministic greedy: orphaned tasks in descending load order, each
    to the currently least-loaded live rank. Returns the repaired
    assignment and the number of tasks moved.
    """
    assignment = np.asarray(assignment)
    alive = np.asarray(alive, dtype=bool)
    out = assignment.copy()
    if alive.all():
        return out, 0
    if not alive.any():
        raise ValueError("no live ranks to fail over to")
    rank_loads = np.bincount(out, weights=task_loads, minlength=alive.size)
    rank_loads[~alive] = np.inf  # dead ranks are never failover targets
    orphans = np.flatnonzero(~alive[out])
    order = orphans[np.argsort(-task_loads[orphans], kind="stable")]
    for t in order:
        dst = int(np.argmin(rank_loads))
        out[t] = dst
        rank_loads[dst] += task_loads[t]
    return out, int(orphans.size)


@dataclass
class DistributedLBResult:
    """Outcome and cost of one simulated LB episode."""

    assignment: np.ndarray
    initial_imbalance: float
    final_imbalance: float
    n_migrations: int
    t_lb: float  #: total simulated episode time (decision + migration)
    gossip_time: float
    migration: MigrationResult | None
    gossip_messages: int = 0
    gossip_bytes: int = 0
    records: list[IterationRecord] = field(default_factory=list)


class LBManager:
    """Runs TemperedLB-family episodes inside a simulated AMT runtime.

    ``config`` must pass :func:`check_event_level`."""

    def __init__(
        self,
        runtime: AMTRuntime,
        config: TemperedConfig | None = None,
        seed: int = 0,
        bytes_per_unit_load: float = 1e6,
        migration_fixed_bytes: int = 2048,
        registry: StatsRegistry | None = None,
    ) -> None:
        self.runtime = runtime
        self.config = config or TemperedConfig()
        check_event_level(self.config)
        self.streams = RankStreams(runtime.n_ranks, seed=seed)
        self.decision_rng = np.random.default_rng(seed)
        self.bytes_per_unit_load = float(bytes_per_unit_load)
        self.migration_fixed_bytes = int(migration_fixed_bytes)
        #: Optional telemetry sink: per-episode ``lb.episode`` events
        #: (imbalance before/after, migration volume, t_lb), the
        #: ``episode.iteration`` series, and the transfer counters.
        #: Never consumes RNG, so episode outcomes are unchanged.
        self.registry = registry
        #: Lazily created when the system has an active fault layer;
        #: heartbeats run only inside gossip stages (started/stopped by
        #: :func:`event_inform_stage`).
        self.failure_detector: HeartbeatFailureDetector | None = None

    def run_episode(self, predicted_loads: np.ndarray | None = None) -> DistributedLBResult:
        """Balance using the given (or instrumented) per-task loads.

        Advances the runtime's simulated clock by the full episode cost.
        """
        runtime = self.runtime
        system = runtime.system
        cfg = self.config
        task_loads = (
            np.ascontiguousarray(predicted_loads, dtype=np.float64)
            if predicted_loads is not None
            else runtime.instrumentation.latest()
        )
        if task_loads.shape != runtime.assignment.shape:
            raise ValueError("predicted loads must match the task count")

        t0 = system.engine.now
        original = runtime.assignment.copy()
        n_ranks = runtime.n_ranks

        faults = system.faults
        if faults is None or not faults.enabled:
            faults = None
        if faults is not None:
            if self.failure_detector is None:
                self.failure_detector = HeartbeatFailureDetector(
                    system, faults.config, registry=self.registry
                )
            # Checkpoint-restart failover: tasks stranded on dead ranks
            # restart on the least-loaded live ranks before balancing.
            # (Restart cost is checkpoint I/O, not a live migration, so
            # it is not charged to the migration episode.)
            if faults.dead_ranks().size:
                original, n_failover = failover_assignment(
                    original, task_loads, faults.alive
                )
                if n_failover and self.registry is not None:
                    self.registry.inc("faults.failover_tasks", n_failover)

        # 1. Statistics all-reduce: (total, max) of rank loads.
        rank_loads = np.bincount(original, weights=task_loads, minlength=n_ranks)
        self._stats_allreduce(rank_loads)
        l_ave = float(rank_loads.mean())
        initial_imbalance = imbalance(rank_loads)

        # 2. Iterative refinement (Algorithm 3) with event-level informs.
        gossip_time = 0.0

        def iterate(trial, iteration, working, loads):
            nonlocal gossip_time
            gossip, gossip_elapsed = event_inform_stage(
                system, loads, average_load=l_ave, fanout=cfg.gossip.fanout,
                rounds=cfg.gossip.rounds, streams=self.streams, detector=self.failure_detector,
            )
            gossip_time += gossip_elapsed
            stats = self._transfer(working, task_loads, loads, l_ave, gossip, faults)
            loads = np.bincount(working, weights=task_loads, minlength=n_ranks)
            proposed = imbalance(loads)
            # Evaluating I_proposed is an all-reduce in the real system.
            self._stats_allreduce(loads)
            if self.registry is not None:
                self.registry.inc("episode.iterations")
                self.registry.inc("gossip.messages", gossip.n_messages)
                self.registry.inc("gossip.bytes", gossip.bytes_sent)
                self.registry.observe(
                    "episode.iteration",
                    trial=trial,
                    iteration=iteration,
                    proposed=stats.proposed,
                    accepted=stats.transfers,
                    rejected=stats.rejections,
                    rejection_rate=stats.rejection_rate,
                    cmf_builds=stats.cmf_builds,
                    imbalance=proposed,
                    gossip_messages=gossip.n_messages,
                    gossip_bytes=gossip.bytes_sent,
                    gossip_elapsed=gossip_elapsed,
                )
            return proposed, stats, gossip

        refined = run_trials(
            iterate, original, task_loads, n_ranks, cfg.n_trials, cfg.n_iters, initial_imbalance
        )
        best, best_imbalance = refined.best_assignment, refined.best_imbalance

        # 3. Execute the winning proposal's migrations.
        moves = [
            (int(t), int(original[t]), int(best[t]))
            for t in np.flatnonzero(best != original)
        ]
        migration = None
        if moves:
            migration = migrate_tasks(
                system,
                moves,
                task_loads,
                bytes_per_unit_load=self.bytes_per_unit_load,
                fixed_bytes=self.migration_fixed_bytes,
            )
        runtime.apply_assignment(best)

        result = DistributedLBResult(
            assignment=best,
            initial_imbalance=initial_imbalance,
            final_imbalance=best_imbalance,
            n_migrations=len(moves),
            t_lb=system.engine.now - t0,
            gossip_time=gossip_time,
            migration=migration,
            gossip_messages=refined.total_gossip_messages,
            gossip_bytes=refined.total_gossip_bytes,
            records=refined.records,
        )
        if self.registry is not None:
            reg = self.registry
            bytes_moved = migration.bytes_moved if migration is not None else 0
            reg.inc("episode.runs")
            reg.inc("episode.migrations", len(moves))
            reg.inc("episode.migration_bytes", bytes_moved)
            reg.add_time("episode.t_lb", result.t_lb)
            reg.add_time("episode.gossip_time", gossip_time)
            if migration is not None:
                reg.add_time("episode.migration_time", migration.duration)
            reg.event(
                "lb.episode",
                time=system.engine.now,
                initial_imbalance=initial_imbalance,
                final_imbalance=best_imbalance,
                n_migrations=len(moves),
                migration_bytes=bytes_moved,
                t_lb=result.t_lb,
                gossip_time=gossip_time,
                gossip_messages=result.gossip_messages,
                gossip_bytes=result.gossip_bytes,
            )
        return result

    def _transfer(
        self, working: np.ndarray, task_loads: np.ndarray, loads: np.ndarray,
        l_ave: float, gossip: GossipResult, faults: FaultyLink | None,
    ) -> TransferStats:
        """Algorithm 2 rank by rank on ``working``, each overloaded rank's
        CPU charged for its own attempts."""
        transfer_cfg = self.config.transfer
        stats = TransferStats()
        overloaded = np.flatnonzero(loads > transfer_cfg.threshold * l_ave)
        if faults is not None:
            # Dead and suspected ranks receive no work this iteration;
            # only dead ones are kept from deciding (a live suspect
            # still sends).
            excluded = {int(r) for r in faults.dead_ranks()}
            excluded |= {int(r) for r in self.failure_detector.suspected}
            if excluded:
                gossip.knowledge.discard_members(
                    np.fromiter(sorted(excluded), dtype=np.int64)
                )
            overloaded = overloaded[faults.alive[overloaded]]
        per_rank = []
        for p in overloaded:
            rank_stats = transfer_from_rank(
                int(p), working, task_loads, gossip, transfer_cfg,
                rng=self.decision_rng, registry=self.registry,
            )
            attempts = rank_stats.transfers + rank_stats.rejections
            if attempts:
                self.runtime.system.processes[int(p)].compute(attempts * _ATTEMPT_COST)
            per_rank.append(rank_stats)
        stats.merge(*per_rank)
        return stats

    def _stats_allreduce(self, rank_loads: np.ndarray) -> None:
        """Simulate the constant-size (total, max) all-reduce."""
        contributions = [(float(l), float(l)) for l in rank_loads]
        op = allreduce(
            self.runtime.system,
            contributions,
            combine=lambda a, b: (a[0] + b[0], max(a[1], b[1])),
            on_complete=lambda rank, value: None,
            size=32,
        )
        self.runtime.system.run()
        op.close()
