"""The deterministic distributed-episode protocol shared by sim and net.

One LB episode — gossip inform rounds followed by local transfer
decisions — expressed as a *transport-agnostic* per-rank state machine
(:class:`NodeCore`) plus a frozen :class:`EpisodeSpec`. A core's inform
stage is :class:`repro.core.gossip.RankInform`, the per-rank rule the
asynchronous event-level stage of :mod:`repro.runtime.lbmanager` runs
too; :class:`NodeCore` is its round-barrier driver. Two runtimes drive
the same state machine:

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
   rank merges its round-``r`` payloads as one union (an OR of packed
   rows) — the result is independent of arrival order, which is the
   one thing a real network refuses to promise.
3. *Snapshot transfer view.* Transfer decisions read only the rank's
   own knowledge, the episode's load snapshot and its own RNG
   (``view="snapshot"`` semantics of Algorithm 2), so the decision set
   is a pure function of (spec, rank) once gossip has converged.

Under these rules the episode outcome — per-round message counts,
knowledge sets, accepted moves, the final assignment, and every
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
from typing import Any, Iterable

import numpy as np

from repro.core.gossip import ENTRY_BYTES, HEADER_BYTES, GossipResult, RankInform
from repro.core.knowledge import SparseKnowledge, ids_to_row, row_ids
from repro.core.metrics import imbalance
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
    "round_report",
    "decide_iteration",
    "fold_decisions",
    "assemble_assignment",
    "build_result",
]

#: Model wire size of one transfer message (header + one task entry);
#: shared by both transports so byte counters agree.
XFER_BYTES = HEADER_BYTES + ENTRY_BYTES


@dataclass(frozen=True)
class EpisodeSpec:
    """Everything both runtimes need to run one identical episode.

    The spec is JSON-serializable (:meth:`to_dict`/:meth:`from_dict`,
    which also takes ``task_loads`` / ``assignment`` as the arrays the
    net coordinator's ``assign`` frame carries them in).
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
        if max(self.n_ranks, len(self.assignment)) > np.iinfo(np.int32).max:
            raise ValueError("ranks and task ids travel as <i4: at most 2**31 - 1 of each")
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

        check_positive_int("n_ranks", n_ranks)
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
        data["task_loads"] = tuple(np.asarray(data["task_loads"], np.float64).tolist())
        data["assignment"] = tuple(np.asarray(data["assignment"], np.int64).tolist())
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
       rank's accepted moves (:func:`decide_iteration` runs it for every
       core a driver hosts);
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
        #: This iteration's inform stage: S^p as a packed row, the
        #: coalescing guard and the gossip stream.
        self.inform = self._new_inform()
        #: Payload buffer per round, merged only at the round barrier.
        self._inbox: dict[int, list[np.ndarray]] = {}
        self._load_snapshot: np.ndarray | None = None
        #: This iteration's underloaded mask (``l^q < l_ave``), set by
        #: :meth:`begin_iteration`.
        self.underloaded: np.ndarray | None = None

    # -- gossip --------------------------------------------------------------

    def _new_inform(self) -> RankInform:
        spec = self.spec
        return RankInform(self.rank, self.n_ranks, spec.fanout, spec.rounds, self.gossip_rng)

    @property
    def shard(self) -> np.ndarray:
        """S^p — the sorted underloaded-rank ids this rank knows."""
        return row_ids(self.inform.row, self.n_ranks)

    def begin_iteration(self) -> list[GossipSend]:
        """Reset per-iteration gossip state; seed round 1 if underloaded."""
        loads = np.bincount(
            self.assignment, weights=self.task_loads, minlength=self.n_ranks
        )
        self._load_snapshot = loads
        self.underloaded = loads < self.average_load
        self.inform = self._new_inform()
        self._inbox = {}
        if not self.underloaded[self.rank]:
            return []
        return self._sends(self.inform.seed())

    def _sends(self, forward: tuple | None) -> list[GossipSend]:
        """One :class:`GossipSend` per target of a :class:`RankInform`
        forward, all sharing the forwarded row's sorted ids."""
        if forward is None:
            return []
        targets, next_round, row, size = forward
        members = row_ids(row, self.n_ranks)
        sends = [GossipSend(self.rank, int(dst), next_round, members) for dst in targets]
        self.registry.inc("gossip.messages", len(sends))
        self.registry.inc("gossip.bytes", size * len(sends))
        return sends

    def receive(self, round_index: int, members: np.ndarray, messages: int = 1) -> None:
        """Buffer arriving gossip payloads (order-free by design):
        ``members`` holds the ids of ``messages`` messages, concatenated."""
        self._inbox.setdefault(int(round_index), []).append(
            np.asarray(members, dtype=np.int64)
        )
        self.registry.inc("gossip.received", messages)

    def advance(self, round_index: int) -> list[GossipSend]:
        """Merge round ``round_index``'s payloads as one union; forward
        once if the round cap allows. Call only once all of the round's
        messages are in (the barrier)."""
        payloads = self._inbox.pop(int(round_index), [])
        if not payloads:
            return []
        union = ids_to_row(np.concatenate(payloads), self.n_ranks)
        return self._sends(self.inform.on_inform(round_index, union))

    # -- transfer ------------------------------------------------------------

    def gossip_result(self) -> GossipResult:
        """This rank's snapshot view of the finished inform stage."""
        assert self._load_snapshot is not None and self.underloaded is not None
        know = SparseKnowledge(self.n_ranks)
        know.add(self.rank, self.shard)
        return GossipResult(
            knowledge=know,
            underloaded=self.underloaded,
            load_snapshot=self._load_snapshot,
            average_load=self.average_load,
        )

    def coverage_hits(self) -> int:
        """|S^p ∩ U| — this rank's contribution to episode coverage."""
        assert self.underloaded is not None
        return int(np.count_nonzero(self.underloaded[self.shard]))

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
        sends = list(zip(stats.moves[:, 2].tolist(), stats.moves[:, 0].tolist()))
        if sends:
            self.registry.inc("xfer.sent", len(sends))
            self.registry.inc("xfer.bytes", XFER_BYTES * len(sends))
        return sends

    def receive_xfer(self, task: int | None = None, messages: int = 1) -> None:
        """Record ``messages`` arriving transfers (a rank keeps only the count)."""
        self.registry.inc("xfer.received", messages)

    def apply_moves(self, moves: list[tuple[int, int, int]] | np.ndarray) -> None:
        """Apply the episode-wide accepted moves (epoch boundary). A driver
        applying one list to many ranks passes an ``(n, 3)`` array built once
        (one fancy assignment per rank; no task moves twice in an iteration);
        a list — of triples, or of the rows of :attr:`TransferStats.moves`
        arrays it was extended with — is walked: turning it into an array
        costs three such walks."""
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


def round_report(sends: dict[int, list[GossipSend]], n_ranks: int) -> dict[str, Any]:
    """One gossip round's report for the cores a driver hosts, as the
    ``sent`` frame carries it: ``<i4`` messages per hosted rank and per
    destination rank, and their model bytes."""
    step = [s for batch in sends.values() for s in batch]
    return {
        "rank_counts": np.array([len(b) for b in sends.values()], dtype=np.int32),
        "bytes": sum(s.size for s in step),
        "dst_counts": np.bincount([s.dst for s in step], minlength=n_ranks).astype(np.int32),
    }


def decide_iteration(
    cores: Iterable[NodeCore],
) -> tuple[dict[str, np.ndarray], list[tuple[int, int, int]]]:
    """One iteration's decide step, after the last gossip round, for the
    cores a driver hosts (in rank order): the ``decide`` frame's report —
    ``(n, 3)`` accepted ``(task, src, dst)`` moves in rank then decision
    order, hits and underloaded flags per hosted rank, transfers per
    destination rank — and the ``(src, dst, task)`` transfers to send."""
    cores = list(cores)
    xfers: list[tuple[int, int, int]] = []
    moves, hits, under = [np.empty((0, 3), dtype=np.int32)], [], []
    for core in cores:
        hits.append(core.coverage_hits())
        under.append(bool(core.underloaded[core.rank]))
        stats = core.decide_transfers()
        xfers += [(core.rank, dst, task) for dst, task in core.xfer_sends(stats)]
        moves.append(stats.moves)
    report = {
        "moves": np.concatenate(moves, dtype=np.int32),
        "hits": np.array(hits, dtype=np.int32),
        "under": np.array(under, dtype=bool),
        "xfer_counts": np.bincount(
            [dst for _, dst, _ in xfers], minlength=cores[0].n_ranks).astype(np.int32),
    }
    return report, xfers


def fold_decisions(
    reports: Iterable[dict[str, np.ndarray]], tally: EpisodeTally
) -> tuple[np.ndarray, float]:
    """Fold every driver's :func:`decide_iteration` report, in rank-slice
    order, into the iteration's ``(n, 3)`` moves and its coverage — the
    mean fraction of the underloaded set known per rank, full when that
    set is empty (:meth:`repro.core.knowledge.SparseKnowledge.coverage`'s
    rule) — and account the transfer messages in ``tally``."""
    reports = list(reports)
    moves = np.concatenate([r["moves"] for r in reports]).reshape(-1, 3)
    tally.transfer_messages += len(moves)
    tally.bytes_sent += XFER_BYTES * len(moves)
    under = int(sum(np.count_nonzero(r["under"]) for r in reports))
    if under == 0:
        return moves, 1.0
    hits = np.concatenate([r["hits"] for r in reports]).astype(np.float64)
    return moves, float(hits.mean() / under)


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

    def record_round(self, reports: Iterable[dict[str, Any]]) -> int:
        """Account one gossip round from every driver's :func:`round_report`;
        returns the round's message count (0: the inform stage is over)."""
        reports = list(reports)
        counts = np.concatenate([r["rank_counts"] for r in reports])
        n = int(counts.sum())
        if n == 0:
            return 0
        self.per_round_messages.append(n)
        self.per_round_senders.append(int(np.count_nonzero(counts)))
        self.n_messages += n
        self.bytes_sent += sum(int(r["bytes"]) for r in reports)
        return n


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

