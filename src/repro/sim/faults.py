"""Fault injection under the simulated message path.

TemperedLB's inform/transfer loop was built (like the paper's runs)
on a lossless network with fixed membership. This module puts a
lossy link and a failure detector under the existing
:class:`~repro.sim.process.System` so every protocol above it can be
exercised — and regression-tested — against message loss, delay
spikes, reordering, duplication and membership churn:

:class:`FaultyLink`
    A fair-lossy link decorating ``System.transmit_many``: seeded
    per-link Bernoulli drops, exponential delay spikes, a bounded
    reorder window and duplicate deliveries. Installs drop accounting
    hooks so termination detectors stay *sound* under loss (a dropped
    message is un-counted at its sender — the simulator knows the
    message can never trigger work, so quiescence detection remains
    exact).
:class:`HeartbeatFailureDetector`
    An eventually-perfect (◇P-style) detector driven by periodic
    heartbeats: a rank unheard-from beyond its timeout becomes
    *suspected*; a late heartbeat unsuspects it and backs the timeout
    off, giving eventual accuracy. One global observer tracks
    last-heard times (a simulator simplification that keeps heartbeat
    traffic O(P) per period instead of O(P^2)).
:class:`ChurnEvent` / :func:`parse_churn`
    Membership churn — rank crash/restart (equivalently leave/join) —
    injected into the discrete-event engine at scheduled times.
:class:`PhaseFaultModel`
    The same drop/delay/duplicate fates re-expressed in *round* units
    for the phase-level gossip engines of :mod:`repro.core.gossip`
    (which have no clock, only synchronized rounds).

Zero-fault invisibility: a :class:`FaultyLink` whose config has no
active fault source (``FaultConfig.active`` False) never intercepts a
message, never consumes RNG and never touches a registry, so installing
it is bit-identical to not installing it. The equivalence suite
(``tests/sim/test_faults_equivalence.py``) pins this.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.sim.messages import Message
from repro.sim.termination import is_control_tag
from repro.util.validation import check_nonnegative, check_positive, refuse_changed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (process imports us)
    from repro.sim.process import System

__all__ = [
    "FaultConfig",
    "EVENT_ONLY_FAULTS",
    "PHASE_ONLY_FAULTS",
    "ChurnEvent",
    "parse_churn",
    "FaultyLink",
    "HeartbeatFailureDetector",
    "PhaseFaultModel",
]

#: Churn actions that take a rank down / bring it (back) up.
_DOWN_ACTIONS = ("crash", "leave")
_UP_ACTIONS = ("restart", "join")


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change at an absolute simulated time."""

    when: float
    action: str  #: "crash"/"leave" (down) or "restart"/"join" (up)
    rank: int

    def __post_init__(self) -> None:
        check_nonnegative("when", self.when)
        if self.action not in _DOWN_ACTIONS + _UP_ACTIONS:
            raise ValueError(
                f"churn action must be one of {_DOWN_ACTIONS + _UP_ACTIONS}, "
                f"got {self.action!r}"
            )
        if self.rank < 0:
            raise ValueError("churn rank must be non-negative")

    @property
    def down(self) -> bool:
        """Whether this event takes the rank down."""
        return self.action in _DOWN_ACTIONS


def parse_churn(spec: str) -> tuple[ChurnEvent, ...]:
    """Parse a CLI churn spec: ``action:rank@time[,action:rank@time...]``.

    Example: ``crash:3@2e-3,restart:3@4e-3``.
    """
    events = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            action_rank, when = part.split("@")
            action, rank = action_rank.split(":")
            events.append(ChurnEvent(float(when), action.strip(), int(rank)))
        except ValueError as exc:
            raise ValueError(
                f"bad churn entry {part!r} (expected action:rank@time)"
            ) from exc
    return tuple(events)


#: Knobs only one level can honour, each refused by the other: the
#: phase-level round loop has no clock, membership or control traffic,
#: and the event-level link has no rounds to retry in.
PHASE_ONLY_FAULTS = ("retransmit", "max_retries", "retry_rounds")
EVENT_ONLY_FAULTS = (
    "reorder_window", "churn", "drop_control",
    "heartbeat_period", "suspect_timeout", "stage_timeout",
)


@dataclass(frozen=True)
class FaultConfig:
    """Every fault-injection knob in one frozen config.

    Probabilities are per message; ``seed`` drives the *fault* RNG
    streams, which are independent of the balancer's decision RNG — so
    turning faults on never changes which targets the gossip sampler
    draws, only which messages survive the wire. Phase-level gossip
    refuses the :data:`EVENT_ONLY_FAULTS`, :class:`FaultyLink` the
    :data:`PHASE_ONLY_FAULTS`.
    """

    #: Per-message Bernoulli drop probability on every link.
    loss_rate: float = 0.0
    #: Probability a surviving message takes a delay spike.
    delay_rate: float = 0.0
    #: Mean spike magnitude: *seconds* (exponential) at the event
    #: level, *rounds* (geometric, >= 1) at the phase level.
    delay_scale: float = 1.0
    #: Uniform extra latency in [0, reorder_window) seconds on every
    #: event-level message — adjacent messages inside the window may
    #: swap order; messages farther apart than the window cannot.
    reorder_window: float = 0.0
    #: Probability a delivered message arrives twice.
    duplicate_rate: float = 0.0
    #: Scheduled membership changes. A CLI-style spec string
    #: (``"crash:3@2e-4,restart:3@4e-4"``) is accepted and parsed.
    churn: "tuple[ChurnEvent, ...] | str" = ()
    #: Seed for all fault RNG streams (per-link streams derive from it).
    seed: int = 0
    #: Whether control traffic (``__*`` tags: termination tokens, acks,
    #: heartbeats) is also subject to loss/delay. Dead ranks never send
    #: or receive anything regardless.
    drop_control: bool = False
    #: Phase level only (:class:`FaultyLink` refuses them): retransmit
    #: lost sends, giving up after ``max_retries`` retries (None = retry
    #: forever, eventual delivery for loss_rate < 1), each retry
    #: arriving ``retry_rounds`` rounds after the previous one.
    retransmit: bool = False
    max_retries: int | None = 10
    retry_rounds: int = 1
    #: Failure detector: heartbeat period and initial suspect timeout
    #: (seconds); the timeout backs off on every false suspicion.
    heartbeat_period: float = 1e-4
    suspect_timeout: float = 5e-4
    #: Event-level gossip stages give up waiting for termination this
    #: many simulated seconds after they start (the per-round timeout
    #: replacing the assumed lossless barrier).
    stage_timeout: float = 2e-3

    def __post_init__(self) -> None:
        if isinstance(self.churn, str):
            object.__setattr__(self, "churn", parse_churn(self.churn))
        for name in ("loss_rate", "delay_rate", "duplicate_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        check_nonnegative("reorder_window", self.reorder_window)
        check_positive("delay_scale", self.delay_scale)
        check_positive("retry_rounds", self.retry_rounds)
        check_positive("heartbeat_period", self.heartbeat_period)
        check_positive("suspect_timeout", self.suspect_timeout)
        check_positive("stage_timeout", self.stage_timeout)
        if self.max_retries is not None:
            check_nonnegative("max_retries", self.max_retries)

    def refuse(self, owner: str, knobs: tuple[str, ...]) -> None:
        """Raise ``ValueError`` naming every one of ``knobs`` this config
        sets away from its default: ``owner`` would run without it."""
        defaults = {name: getattr(FaultConfig, name) for name in knobs}
        refuse_changed(owner, self, replace(self, **defaults))

    @property
    def active(self) -> bool:
        """Whether any fault source is switched on. False means the
        whole layer is a provable no-op (zero-fault invisibility)."""
        return (
            self.loss_rate > 0.0
            or self.delay_rate > 0.0
            or self.duplicate_rate > 0.0
            or self.reorder_window > 0.0
            or bool(self.churn)
        )


class FaultyLink:
    """Fair-lossy link semantics for a :class:`System`'s message path.

    Construction installs the layer (``system.faults = self``); the
    system consults :meth:`fates` per transmitted message and
    :meth:`blocks_delivery` per arrival. Per-link RNG streams are
    seeded from ``(seed, src, dst)``, so the fate sequence on a link
    depends only on that link's own message order — not on global
    interleaving.

    The phase-level retransmission knobs (``retransmit``,
    ``max_retries``, ``retry_rounds``) have no event-level meaning; a
    config that changes any of them is refused.
    """

    def __init__(
        self,
        system: "System",
        config: FaultConfig,
        registry=None,
    ) -> None:
        config.refuse("FaultyLink", PHASE_ONLY_FAULTS)
        self.system = system
        self.config = config
        #: False when the config has no active fault source: the system
        #: then never calls into this layer (zero-fault invisibility).
        self.enabled = config.active
        self.registry = registry if registry is not None else system.registry
        self.alive = np.ones(system.n_ranks, dtype=bool)
        self._link_rngs: dict[tuple[int, int], np.random.Generator] = {}
        #: Counters (mirrored into the registry when one is attached).
        self.drops = 0
        self.delayed = 0
        self.duplicates = 0
        self.crashes = 0
        self.restarts = 0
        #: Callbacks for membership changes (LB failover hooks in here).
        self.on_crash: list[Callable[[int], None]] = []
        self.on_restart: list[Callable[[int], None]] = []
        system.faults = self
        for event in config.churn:
            if event.rank >= system.n_ranks:
                raise ValueError(
                    f"churn rank {event.rank} out of range for {system.n_ranks} ranks"
                )
            system.engine.schedule_at(
                max(event.when, system.engine.now), self._apply_churn, event
            )

    # -- fate decisions ------------------------------------------------------

    def _rng(self, src: int, dst: int) -> np.random.Generator:
        key = (src, dst)
        rng = self._link_rngs.get(key)
        if rng is None:
            rng = np.random.default_rng((self.config.seed, src, dst))
            self._link_rngs[key] = rng
        return rng

    def fates(self, msg: Message) -> tuple[float, ...]:
        """Arrival-latency offsets for each delivered copy of ``msg``.

        An empty tuple means the message was dropped (accounting
        already done); one entry is a normal delivery; two entries a
        duplicated one. Entries are extra seconds past the nominal
        arrival time.
        """
        cfg = self.config
        if not (self.alive[msg.src] and self.alive[msg.dst]):
            self._record_drop(msg, "dead")
            return ()
        if is_control_tag(msg.tag) and not cfg.drop_control:
            return (0.0,)
        rng = self._rng(msg.src, msg.dst)
        if cfg.loss_rate > 0.0 and rng.random() < cfg.loss_rate:
            self._record_drop(msg, "loss")
            return ()
        extra = 0.0
        if cfg.delay_rate > 0.0 and rng.random() < cfg.delay_rate:
            extra += rng.exponential(cfg.delay_scale)
            self.delayed += 1
            if self.registry is not None:
                self.registry.inc("faults.delayed")
        if cfg.reorder_window > 0.0:
            extra += rng.uniform(0.0, cfg.reorder_window)
        if cfg.duplicate_rate > 0.0 and rng.random() < cfg.duplicate_rate:
            self.duplicates += 1
            if self.registry is not None:
                self.registry.inc("faults.duplicates")
            second = extra + (
                rng.uniform(0.0, cfg.reorder_window)
                if cfg.reorder_window > 0.0
                else extra
            )
            return (extra, second)
        return (extra,)

    def blocks_delivery(self, msg: Message) -> bool:
        """Whether an in-flight message must be discarded at arrival
        (its destination died while it was on the wire)."""
        if self.alive[msg.dst]:
            return False
        self._record_drop(msg, "dead")
        return True

    def _record_drop(self, msg: Message, reason: str) -> None:
        self.drops += 1
        if self.registry is not None:
            self.registry.inc("faults.drops")
            self.registry.inc(f"faults.drops.{reason}")
        self.system._notify_drop(msg)

    # -- membership ----------------------------------------------------------

    def is_alive(self, rank: int) -> bool:
        return bool(self.alive[rank])

    def dead_ranks(self) -> np.ndarray:
        """Ranks currently down, as a sorted id array."""
        return np.flatnonzero(~self.alive)

    def crash(self, rank: int) -> None:
        """Take ``rank`` down: its mailbox is lost, in-flight messages
        to it will be discarded, and it sends nothing until restart."""
        if not self.alive[rank]:
            return
        self.alive[rank] = False
        self.crashes += 1
        self.system.processes[rank].reset()
        if self.registry is not None:
            self.registry.inc("faults.crashes")
            self.registry.event("fault.crash", time=self.system.engine.now, rank=rank)
        for hook in self.on_crash:
            hook(rank)

    def restart(self, rank: int) -> None:
        """Bring ``rank`` back with empty protocol state (its mailbox
        was cleared at crash time; per-stage knowledge re-grows from
        nothing, as after a checkpoint restart)."""
        if self.alive[rank]:
            return
        self.alive[rank] = True
        self.restarts += 1
        if self.registry is not None:
            self.registry.inc("faults.restarts")
            self.registry.event("fault.restart", time=self.system.engine.now, rank=rank)
        for hook in self.on_restart:
            hook(rank)

    def _apply_churn(self, event: ChurnEvent) -> None:
        if event.down:
            self.crash(event.rank)
        else:
            self.restart(event.rank)


class HeartbeatFailureDetector:
    """Eventually-perfect failure detection from periodic heartbeats.

    Every ``heartbeat_period`` simulated seconds each live rank sends
    one ``__hb`` message to its ring successor, and a global check
    marks any rank unheard-from for longer than its (per-rank,
    adaptive) timeout as *suspected*. Any later delivery from a
    suspected rank unsuspects it and multiplies its timeout by 1.5 —
    strong completeness (a crashed rank is eventually suspected
    forever) plus eventual accuracy (false suspicions die out as
    timeouts adapt).

    The single observer tracking ``last_heard`` per rank is a
    simulator shortcut: it stands in for P per-rank detector instances
    without P^2 heartbeat traffic.
    """

    def __init__(self, system: "System", config: FaultConfig, registry=None) -> None:
        self.system = system
        self.config = config
        self.registry = registry if registry is not None else system.registry
        self._hb_tag = system.stage_tag("__hb")
        n = system.n_ranks
        self.last_heard = np.full(n, system.engine.now)
        self.timeouts = np.full(n, config.suspect_timeout)
        self.suspected: set[int] = set()
        self.suspicions = 0
        self._running = False
        for proc in system.processes:
            proc.register(self._hb_tag, lambda proc, msg: None)
        system.add_deliver_hook(self._on_deliver)

    def start(self) -> None:
        """Begin the heartbeat/check loop (idempotent)."""
        if self._running:
            return
        self._running = True
        self.last_heard[:] = np.maximum(self.last_heard, self.system.engine.now)
        self.system.engine.schedule(self.config.heartbeat_period, self._tick)

    def stop(self) -> None:
        """Stop the loop; at most one stale tick event remains queued."""
        self._running = False

    def _on_deliver(self, msg: Message) -> None:
        src = msg.src
        self.last_heard[src] = self.system.engine.now
        if src in self.suspected:
            self.suspected.discard(src)
            # False suspicion: back the timeout off (eventual accuracy).
            self.timeouts[src] *= 1.5
            if self.registry is not None:
                self.registry.inc("faults.unsuspected")

    def _tick(self) -> None:
        if not self._running:
            return
        system = self.system
        now = system.engine.now
        faults = system.faults
        alive = (
            faults.alive
            if faults is not None and faults.enabled
            else np.ones(system.n_ranks, dtype=bool)
        )
        live = np.flatnonzero(alive)
        # One heartbeat per live rank, to its ring successor among the
        # live ranks (the global observer sees every delivery anyway).
        if live.size > 1:
            for i, rank in enumerate(live):
                nxt = int(live[(i + 1) % live.size])
                system.processes[int(rank)].send(nxt, self._hb_tag, size=16)
        overdue = np.flatnonzero((now - self.last_heard) > self.timeouts)
        for rank in overdue:
            rank = int(rank)
            if rank not in self.suspected:
                self.suspected.add(rank)
                self.suspicions += 1
                if self.registry is not None:
                    self.registry.inc("faults.suspected")
                    self.registry.event(
                        "fault.suspect", time=now, rank=rank
                    )
        system.engine.schedule(self.config.heartbeat_period, self._tick)


class PhaseFaultModel:
    """Drop/delay/duplicate fates in round units for the phase-level
    gossip engines (:mod:`repro.core.gossip`).

    The phase-level engines have no clock — only synchronized rounds —
    so fates are expressed as *delivery-round offsets*: 0 = delivered
    in the round it was sent, ``d`` > 0 = delivered ``d`` rounds late,
    no copies = lost. Retransmission (``FaultConfig.retransmit``) turns
    a loss into a delayed delivery after a geometric number of retries,
    each ``retry_rounds`` apart.

    One generator seeded from ``FaultConfig.seed`` drives all fates;
    it is distinct from the engine's sampling RNG, so fault injection
    never perturbs which targets get sampled.
    """

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.drops = 0
        self.delayed = 0
        self.duplicates = 0
        self.retransmits = 0
        self.expired = 0

    @staticmethod
    def create(config: FaultConfig | None) -> "PhaseFaultModel | None":
        """A model when the config has an active fault source, else
        None — the engines then take their original code path."""
        if config is None or not config.active:
            return None
        return PhaseFaultModel(config)

    def fates(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Fates for ``n`` messages sent this round.

        Returns ``(offsets, copies)``: ``copies[i]`` in {0, 1, 2} is
        how many deliveries message ``i`` gets (0 = lost); the first
        copy arrives ``offsets[i]`` rounds after the send round, a
        duplicate one round after that.
        """
        cfg = self.config
        rng = self.rng
        offsets = np.zeros(n, dtype=np.int64)
        copies = np.ones(n, dtype=np.int64)
        if cfg.loss_rate > 0.0:
            lost = rng.random(n) < cfg.loss_rate
            n_lost = int(lost.sum())
            if n_lost:
                if cfg.retransmit and cfg.loss_rate < 1.0:
                    # Retries to first success are geometric; each retry
                    # costs retry_rounds of delay.
                    retries = rng.geometric(1.0 - cfg.loss_rate, size=n_lost)
                    if cfg.max_retries is not None:
                        gave_up = retries > cfg.max_retries
                        copies[np.flatnonzero(lost)[gave_up]] = 0
                        self.drops += int(gave_up.sum())
                        retries = np.minimum(retries, cfg.max_retries)
                    offsets[lost] += retries * cfg.retry_rounds
                    self.retransmits += int(retries.sum())
                else:
                    copies[lost] = 0
                    self.drops += n_lost
        delivered = copies > 0
        if cfg.delay_rate > 0.0:
            spiked = delivered & (rng.random(n) < cfg.delay_rate)
            n_spiked = int(spiked.sum())
            if n_spiked:
                p = min(1.0, 1.0 / max(cfg.delay_scale, 1.0))
                offsets[spiked] += rng.geometric(p, size=n_spiked)
                self.delayed += n_spiked
        if cfg.duplicate_rate > 0.0:
            dup = delivered & (rng.random(n) < cfg.duplicate_rate)
            n_dup = int(dup.sum())
            if n_dup:
                copies[dup] = 2
                self.duplicates += n_dup
        return offsets, copies
