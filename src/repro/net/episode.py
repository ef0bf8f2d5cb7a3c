"""The deterministic distributed-episode protocol shared by sim and net.

One LB episode — gossip inform rounds followed by local transfer
decisions — expressed as a *transport-agnostic* per-rank state machine
(:class:`NodeCore`) plus a frozen :class:`EpisodeSpec`. Two runtimes
drive the same state machine:

- :mod:`repro.net.simref` sends the protocol's messages through the
  discrete-event simulator (:class:`repro.sim.process.System`), with
  network latencies and per-message delivery events;
- :mod:`repro.net.node`/:mod:`repro.net.coordinator` send them as
  length-prefixed frames over real loopback TCP sockets between
  asyncio nodes.

The determinism contract that makes sim<->net **bit-identity** possible
(and is pinned by ``tests/net/test_bit_identity.py``):

1. *Per-rank RNG streams.* Every random draw a rank makes — gossip
   target selection, transfer CMF sampling — comes from that rank's own
   generator, spawned from ``SeedSequence(spec.seed)`` exactly as
   :func:`episode_streams` does. No draw ever depends on another rank's
   schedule.
2. *Round barriers with order-free merges.* Gossip round ``r``'s
   messages are all delivered before any rank acts on them, and a
   rank's merge of its round-``r`` payloads is a set union of sorted id
   shards — the result is independent of arrival order, which is the
   one thing a real network refuses to promise.
3. *Snapshot transfer view.* Transfer decisions read only the rank's
   own knowledge shard, the episode's load snapshot and its own RNG
   (``view="snapshot"`` semantics of Algorithm 2), so the decision set
   is a pure function of (spec, rank) once gossip has converged.

Under these rules the episode outcome — per-round message counts,
knowledge shards, accepted moves, the final assignment, and every
protocol counter — is a pure function of the spec, whatever transport
carried the bytes.

Message sizes use the simulator's cost model
(:data:`~repro.core.gossip.HEADER_BYTES` +
:data:`~repro.core.gossip.ENTRY_BYTES` per knowledge entry) so byte
counters agree across transports even though a message's physical
length inside a batch frame (a 32-byte record plus 8 bytes per member
id) differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any

import numpy as np

from repro.core.gossip import ENTRY_BYTES, HEADER_BYTES, GossipResult
from repro.core.metrics import imbalance
from repro.core.knowledge import SparseKnowledge
from repro.core.transfer import TransferConfig, TransferStats, transfer_from_rank
from repro.obs import StatsRegistry
from repro.util.validation import check_positive_int

__all__ = [
    "EpisodeSpec",
    "EpisodeResult",
    "EpisodeTally",
    "GossipSend",
    "NodeCore",
    "XFER_BYTES",
    "episode_streams",
    "episode_coverage",
    "assemble_assignment",
    "build_result",
]

#: Model wire size of one transfer message (header + one task entry);
#: shared by both transports so byte counters agree.
XFER_BYTES = HEADER_BYTES + ENTRY_BYTES


@dataclass(frozen=True)
class EpisodeSpec:
    """Everything both runtimes need to run one identical episode.

    The spec is JSON-serializable (:meth:`to_dict`/:meth:`from_dict`)
    because the net coordinator ships it to worker processes inside the
    ``start`` frame.
    """

    n_ranks: int
    task_loads: tuple[float, ...]
    assignment: tuple[int, ...]
    seed: int = 0
    fanout: int = 6  #: f — gossip fanout
    rounds: int = 10  #: k — gossip rounds
    n_iters: int = 1  #: inform+transfer iterations per episode
    criterion: str = "relaxed"
    cmf: str = "modified"
    ordering: str = "arbitrary"
    threshold: float = 1.0  #: h — overload threshold multiplier

    def __post_init__(self) -> None:
        check_positive_int("n_ranks", self.n_ranks)
        check_positive_int("fanout", self.fanout)
        check_positive_int("rounds", self.rounds)
        check_positive_int("n_iters", self.n_iters)
        if len(self.task_loads) != len(self.assignment):
            raise ValueError("task_loads and assignment must have equal length")
        if len(self.assignment) and not (
            0 <= min(self.assignment) and max(self.assignment) < self.n_ranks
        ):
            raise ValueError("assignment references ranks out of range")
        # Delegate the knob validation to TransferConfig.
        self.transfer_config()

    @staticmethod
    def synthetic(
        n_ranks: int,
        n_tasks: int | None = None,
        n_loaded_ranks: int | None = None,
        seed: int = 0,
        **kwargs: Any,
    ) -> "EpisodeSpec":
        """A paper-shaped scenario spec (§ V synthetic distribution)."""
        from repro.workloads import paper_analysis_scenario

        n_tasks = 32 * n_ranks if n_tasks is None else n_tasks
        n_loaded_ranks = (
            max(n_ranks // 8, 1) if n_loaded_ranks is None else n_loaded_ranks
        )
        dist = paper_analysis_scenario(
            n_tasks=n_tasks,
            n_loaded_ranks=n_loaded_ranks,
            n_ranks=n_ranks,
            seed=seed,
        )
        return EpisodeSpec(
            n_ranks=n_ranks,
            task_loads=tuple(float(x) for x in dist.task_loads),
            assignment=tuple(int(x) for x in dist.assignment),
            seed=seed,
            **kwargs,
        )

    @cached_property
    def task_loads_array(self) -> np.ndarray:
        """``task_loads`` as one read-only float64 array, built once per
        spec; every :class:`NodeCore` of the spec holds this same array."""
        return _read_only(np.asarray(self.task_loads, dtype=np.float64))

    @cached_property
    def assignment_array(self) -> np.ndarray:
        """The initial ``assignment`` as one read-only int64 array, built
        once per spec (a core copies it: its assignment is private)."""
        return _read_only(np.asarray(self.assignment, dtype=np.int64))

    def transfer_config(self) -> TransferConfig:
        """The Algorithm 2 configuration these decisions run under."""
        return TransferConfig(
            criterion=self.criterion,
            cmf=self.cmf,
            ordering=self.ordering,
            threshold=self.threshold,
        )

    def to_dict(self) -> dict[str, Any]:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["task_loads"] = list(self.task_loads)
        data["assignment"] = list(self.assignment)
        return data

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "EpisodeSpec":
        known = {f.name for f in fields(cls)}
        data = {k: v for k, v in payload.items() if k in known}
        data["task_loads"] = tuple(float(x) for x in data["task_loads"])
        data["assignment"] = tuple(int(x) for x in data["assignment"])
        return cls(**data)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def episode_streams(
    seed: int, n_ranks: int, rank: int
) -> tuple[np.random.Generator, np.random.Generator]:
    """Rank ``rank``'s (gossip, transfer) generators for an episode.

    One root ``SeedSequence(seed)`` spawns a gossip family (child 0) and
    a transfer family (child 1), each with one child per rank — the
    standard parallel-stochastic recipe (:mod:`repro.sim.rng`). A child
    *is* its ``spawn_key`` path, so a rank names its own pair directly,
    ``(0, rank)`` and ``(1, rank)``, in O(1) and with no generator state
    ever crossing the wire.
    """
    if not 0 <= rank < n_ranks:
        raise IndexError(f"rank {rank} out of range for {n_ranks} ranks")
    gossip, transfer = (
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(family, rank)))
        for family in (0, 1)
    )
    return gossip, transfer


@dataclass(frozen=True)
class GossipSend:
    """One outbound gossip message: rank ``src`` tells ``dst`` about
    ``members`` (a sorted array of underloaded rank ids) in ``round``."""

    src: int
    dst: int
    round: int
    members: np.ndarray

    @property
    def size(self) -> int:
        """Model wire size (shared cost model, not the JSON frame length)."""
        return HEADER_BYTES + ENTRY_BYTES * int(self.members.size)


@dataclass
class EpisodeResult:
    """The episode's LB decisions and protocol accounting.

    Two results from the same spec must compare equal field-for-field
    across transports; :meth:`to_dict` gives the canonical comparable
    form (plain Python containers only).
    """

    assignment: np.ndarray
    moves: list[tuple[int, int, int]]  #: (task, src, dst) accepted transfers
    per_round_messages: list[int]
    per_round_senders: list[int]
    n_messages: int
    bytes_sent: int
    transfer_messages: int
    coverage: float
    initial_imbalance: float
    final_imbalance: float
    counters: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "assignment": [int(x) for x in self.assignment],
            "moves": [[int(a), int(b), int(c)] for a, b, c in self.moves],
            "per_round_messages": list(self.per_round_messages),
            "per_round_senders": list(self.per_round_senders),
            "n_messages": int(self.n_messages),
            "bytes_sent": int(self.bytes_sent),
            "transfer_messages": int(self.transfer_messages),
            "coverage": float(self.coverage),
            "initial_imbalance": float(self.initial_imbalance),
            "final_imbalance": float(self.final_imbalance),
            "counters": {k: float(v) for k, v in sorted(self.counters.items())},
        }


class NodeCore:
    """Rank ``rank``'s half of the episode protocol, transport-free.

    The driver (simulated or sockets) calls, per iteration:

    1. :meth:`begin_iteration` — returns the round-1 sends (empty unless
       this rank seeds gossip, i.e. is underloaded);
    2. :meth:`receive` for every arriving gossip message (any order);
    3. :meth:`advance` once round ``r`` is *barrier-complete* — returns
       the round ``r+1`` sends;
    4. :meth:`decide_transfers` after the last round — returns this
       rank's accepted moves;
    5. :meth:`apply_moves` with the episode-wide move list (the
       migration/epoch boundary) before the next iteration.

    All counters a rank can observe locally are accumulated in
    :attr:`registry` so the coordinator-side merge is comparable across
    transports.
    """

    def __init__(self, spec: EpisodeSpec, rank: int) -> None:
        self.spec = spec
        self.rank = int(rank)
        self.n_ranks = spec.n_ranks
        self.task_loads = spec.task_loads_array  # shared and read-only
        #: private: transfer decisions and apply_moves write it
        self.assignment = spec.assignment_array.copy()
        rank_loads = np.bincount(
            self.assignment, weights=self.task_loads, minlength=self.n_ranks
        )
        #: l_ave is fixed for the whole episode (the one statistics
        #: all-reduce the paper's episode opens with).
        self.average_load = float(rank_loads.mean())
        self.gossip_rng, self.transfer_rng = episode_streams(
            spec.seed, self.n_ranks, self.rank
        )
        self.registry = StatsRegistry()
        #: S^p — sorted underloaded-rank ids this rank knows.
        self.shard = np.empty(0, dtype=np.int64)
        #: Payload buffer per round, merged only at the round barrier.
        self._inbox: dict[int, list[np.ndarray]] = {}
        self._load_snapshot: np.ndarray | None = None
        self._underloaded: np.ndarray | None = None

    # -- gossip --------------------------------------------------------------

    def begin_iteration(self) -> list[GossipSend]:
        """Reset per-iteration gossip state; seed round 1 if underloaded."""
        loads = np.bincount(
            self.assignment, weights=self.task_loads, minlength=self.n_ranks
        )
        self._load_snapshot = loads
        self._underloaded = loads < self.average_load
        self.shard = np.empty(0, dtype=np.int64)
        self._inbox = {}
        if not self._underloaded[self.rank]:
            return []
        self.shard = np.array([self.rank], dtype=np.int64)
        return self._forward(next_round=1)

    def _forward(self, next_round: int) -> list[GossipSend]:
        """Draw up to ``fanout`` targets from P \\ S^p (minus self) and
        emit this rank's merged shard — the coalesced forwarding rule of
        Algorithm 1 with this rank's own stream."""
        mask = np.ones(self.n_ranks, dtype=bool)
        mask[self.shard] = False
        mask[self.rank] = False
        candidates = np.flatnonzero(mask)
        if candidates.size == 0:
            return []
        if candidates.size <= self.spec.fanout:
            targets = candidates
        else:
            targets = self.gossip_rng.choice(
                candidates, size=self.spec.fanout, replace=False
            )
        members = self.shard
        sends = [
            GossipSend(self.rank, int(dst), next_round, members) for dst in targets
        ]
        self.registry.inc("gossip.messages", len(sends))
        self.registry.inc("gossip.bytes", sum(s.size for s in sends))
        return sends

    def receive(self, round_index: int, members: np.ndarray) -> None:
        """Buffer one arriving gossip payload (order-free by design)."""
        self._inbox.setdefault(int(round_index), []).append(
            np.asarray(members, dtype=np.int64)
        )
        self.registry.inc("gossip.received")

    def advance(self, round_index: int) -> list[GossipSend]:
        """Merge round ``round_index``'s payloads; forward once if the
        round cap allows. Call only once all of the round's messages
        are in (the barrier)."""
        payloads = self._inbox.pop(int(round_index), [])
        if not payloads:
            return []
        merged = np.union1d(self.shard, np.concatenate(payloads))
        self.shard = merged.astype(np.int64)
        if round_index >= self.spec.rounds:
            return []
        return self._forward(next_round=round_index + 1)

    # -- transfer ------------------------------------------------------------

    def gossip_result(self) -> GossipResult:
        """This rank's snapshot view of the finished inform stage."""
        assert self._load_snapshot is not None and self._underloaded is not None
        know = SparseKnowledge(self.n_ranks)
        know.add(self.rank, self.shard)
        return GossipResult(
            knowledge=know,
            underloaded=self._underloaded,
            load_snapshot=self._load_snapshot,
            average_load=self.average_load,
        )

    def coverage_hits(self) -> int:
        """|S^p ∩ U| — this rank's contribution to episode coverage."""
        assert self._underloaded is not None
        if self.shard.size == 0:
            return 0
        return int(np.count_nonzero(self._underloaded[self.shard]))

    def decide_transfers(self) -> TransferStats:
        """Algorithm 2 for this rank alone, on its snapshot view."""
        return transfer_from_rank(
            self.rank,
            self.assignment,
            self.task_loads,
            self.gossip_result(),
            self.spec.transfer_config(),
            rng=self.transfer_rng,
            registry=self.registry,
        )

    def xfer_sends(self, stats: TransferStats) -> list[tuple[int, int]]:
        """The ``(dst, task)`` transfer messages this rank's decisions
        imply — one per accepted move, in decision order. Records the
        sender-side counters (both transports call this exactly once)."""
        sends = [(int(dst), int(task)) for task, _src, dst in stats.moves]
        if sends:
            self.registry.inc("xfer.sent", len(sends))
            self.registry.inc("xfer.bytes", XFER_BYTES * len(sends))
        return sends

    def receive_xfer(self, task: int) -> None:
        """Record one arriving transfer message (the task lands here)."""
        self.registry.inc("xfer.received")

    def apply_moves(self, moves: list[tuple[int, int, int]] | np.ndarray) -> None:
        """Apply the episode-wide accepted moves (epoch boundary). A driver
        applying one list to many ranks passes an ``(n, 3)`` array built once
        (one fancy assignment per rank; no task moves twice in an iteration);
        a list is walked — turning it into an array costs three such walks."""
        if isinstance(moves, np.ndarray):
            self.assignment[moves[:, 0]] = moves[:, 2]
            return
        for task, _src, dst in moves:
            self.assignment[task] = dst


def assemble_assignment(
    spec: EpisodeSpec, moves: list[tuple[int, int, int]]
) -> np.ndarray:
    """The final global assignment from the initial one plus all moves."""
    assignment = spec.assignment_array.copy()
    for task, _src, dst in moves:
        assignment[task] = dst
    return assignment


def episode_coverage(hits: list[int], underloaded_count: int) -> float:
    """Mean fraction of the underloaded set known per rank.

    Same denominator rule as
    :meth:`repro.core.knowledge.SparseKnowledge.coverage` (via
    ``_coverage_denominator``): an empty underloaded set counts as full
    coverage.
    """
    if underloaded_count == 0:
        return 1.0
    return float(np.asarray(hits, dtype=np.float64).mean() / underloaded_count)


class EpisodeTally:
    """Transport-side message accounting, shared so both runtimes count
    the same way. One instance per episode; rounds across iterations
    concatenate (the per-iteration gossip stages back to back)."""

    def __init__(self) -> None:
        self.per_round_messages: list[int] = []
        self.per_round_senders: list[int] = []
        self.n_messages = 0
        self.bytes_sent = 0
        self.transfer_messages = 0

    def record_round(self, sends_by_rank: dict[int, list[GossipSend]]) -> int:
        """Account one gossip round's sends; returns the message count."""
        return self.record_round_counts(
            {r: len(s) for r, s in sends_by_rank.items()},
            sum(s.size for sends in sends_by_rank.values() for s in sends),
        )

    def record_round_counts(self, counts: dict[int, int], nbytes: int) -> int:
        """Count-level variant of :meth:`record_round`, for drivers that
        see per-rank send *reports* rather than the sends themselves
        (the net coordinator). Identical bookkeeping by construction."""
        n = sum(counts.values())
        if n == 0:
            return 0
        self.per_round_messages.append(n)
        self.per_round_senders.append(sum(1 for c in counts.values() if c))
        self.n_messages += n
        self.bytes_sent += int(nbytes)
        return n

    def record_xfers(self, n: int) -> None:
        """Account ``n`` transfer messages."""
        self.transfer_messages += int(n)
        self.bytes_sent += XFER_BYTES * int(n)


def build_result(
    spec: EpisodeSpec,
    moves: list[tuple[int, int, int]],
    tally: EpisodeTally,
    counters: dict[str, float],
    coverage: float,
) -> EpisodeResult:
    """Assemble the canonical :class:`EpisodeResult`.

    Both runtimes call this with transport-independent inputs, so any
    sim↔net difference in a result field traces back to a difference in
    those inputs — never to the assembly arithmetic.
    """
    n_ranks = spec.n_ranks
    task_loads = spec.task_loads_array
    initial = spec.assignment_array
    final = assemble_assignment(spec, moves)
    return EpisodeResult(
        assignment=final,
        moves=[(int(a), int(b), int(c)) for a, b, c in moves],
        per_round_messages=list(tally.per_round_messages),
        per_round_senders=list(tally.per_round_senders),
        n_messages=tally.n_messages,
        bytes_sent=tally.bytes_sent,
        transfer_messages=tally.transfer_messages,
        coverage=coverage,
        initial_imbalance=imbalance(
            np.bincount(initial, weights=task_loads, minlength=n_ranks)
        ),
        final_imbalance=imbalance(
            np.bincount(final, weights=task_loads, minlength=n_ranks)
        ),
        counters=dict(counters),
    )

