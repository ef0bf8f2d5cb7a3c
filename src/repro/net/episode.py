"""The deterministic distributed-episode protocol shared by sim and net.

One LB episode — gossip inform rounds followed by local transfer
decisions — expressed as a *transport-agnostic* state machine for a
contiguous rank slice (:class:`NodeCore`) plus a frozen
:class:`EpisodeSpec`. A rank's inform stage is
:class:`repro.core.gossip.RankInform`, the per-rank rule the
asynchronous event-level stage of :mod:`repro.runtime.lbmanager` runs
too; :class:`NodeCore` drives its hosted ranks' rules at round barriers
in array passes over the slice (one batch in, one scatter-merge, one
set of send arrays out). Two runtimes drive the same class:

- :mod:`repro.net.simref` hosts every rank in one core and sends the
  protocol's messages through the discrete-event simulator
  (:class:`repro.sim.process.System`), with network latencies and
  per-message delivery events;
- :mod:`repro.net.node`/:mod:`repro.net.coordinator` host one core per
  worker and send its messages as batch frames over real loopback TCP.

The determinism contract that makes sim<->net **bit-identity** possible
(and is pinned by ``tests/net/test_bit_identity.py``):

1. *Per-rank RNG streams.* Every random draw a rank makes — gossip
   target selection, transfer CMF sampling — comes from that rank's own
   generator, spawned from ``SeedSequence(spec.seed)`` exactly as
   :func:`episode_streams` does. No draw ever depends on another rank's
   schedule, or on which slice hosts the rank.
2. *Round barriers with order-free merges.* Gossip round ``r``'s
   messages are all delivered before any rank acts on them, and a
   rank merges its round-``r`` payloads as one union (an OR of packed
   rows) — the result is independent of arrival order, which is the
   one thing a real network refuses to promise.
3. *Snapshot transfer view.* Transfer decisions read only the rank's
   own knowledge, the iteration's load snapshot and its own RNG
   (``view="snapshot"`` semantics of Algorithm 2), so the decision set
   is a pure function of (spec, rank) once gossip has converged.

Under these rules the episode outcome — per-round message counts,
knowledge sets, accepted moves, the final assignment, and every
protocol counter — is a pure function of the spec, whatever transport
carried the bytes and however the ranks were sliced. Message sizes use
the simulator's cost model (:data:`~repro.core.gossip.HEADER_BYTES` +
:data:`~repro.core.gossip.ENTRY_BYTES` per knowledge entry), not a
message's length inside a batch frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any, Iterable

import numpy as np

from repro.core.gossip import ENTRY_BYTES, HEADER_BYTES, GossipResult, RankInform
from repro.core.knowledge import SparseKnowledge, row_ids
from repro.core.metrics import imbalance
from repro.core.transfer import TransferConfig, TransferStats, transfer_from_rank
from repro.obs import StatsRegistry
from repro.util.validation import check_positive_int

__all__ = [
    "EpisodeSpec", "EpisodeResult", "GossipSend", "GossipSends", "NodeCore", "XFER_BYTES",
    "episode_streams", "fold_decisions", "assemble_assignment", "build_result",
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
    ``members`` (a sorted array of underloaded rank ids) in ``round``;
    ``size`` is its model wire size (the shared cost model, not the
    frame length), set when the send is built."""

    src: int
    dst: int
    round: int
    members: np.ndarray
    size: int


@dataclass(frozen=True)
class GossipSends:
    """One barrier step's gossip messages from a slice, as arrays in send
    order (by rank, then in each forward's target order): ``src``,
    ``dst``, member ``counts`` and model ``sizes`` per message, every
    message's member ids concatenated in ``ids``, all in one ``round``.
    Iterating yields the :class:`GossipSend` s (``members`` are views)."""

    round: int
    src: np.ndarray
    dst: np.ndarray
    counts: np.ndarray
    ids: np.ndarray
    sizes: np.ndarray

    def __len__(self) -> int:
        return len(self.dst)

    def __iter__(self):
        ends = np.cumsum(self.counts).tolist()
        for src, dst, start, end, size in zip(
            self.src.tolist(), self.dst.tolist(), [0, *ends], ends, self.sizes.tolist()
        ):
            yield GossipSend(src, dst, self.round, self.ids[start:end], size)


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
    """The episode protocol for a contiguous rank slice, transport-free.

    One core hosts ``ranks`` (an int is the one-rank slice). They share
    one private ``assignment``, the spec's read-only ``task_loads``, one
    load vector, one :attr:`registry` and one packed matrix
    :attr:`known` whose rows are their :class:`RankInform` rows; each
    keeps its own :attr:`streams` (:func:`episode_streams`).
    The driver (simulated or sockets) calls, per iteration:

    1. :meth:`begin_iteration` — returns the round-1 sends (the
       underloaded hosted ranks seed gossip);
    2. :meth:`receive` for arriving gossip messages (any order, one
       message or a whole batch per call);
    3. :meth:`advance` once round ``r`` is *barrier-complete* — returns
       the round ``r+1`` sends;
    4. :meth:`decide` after the last round (or :meth:`decide_transfers`
       and :meth:`xfer_sends`, for a driver that wants the stats); its
       ``rounds`` count the iteration's gossip sends, one row per round;
    5. :meth:`apply_moves` with the episode-wide move list (the
       migration/epoch boundary) before the next iteration.

    Every counter is an integer sum, so any slicing merges to the same totals.
    """

    def __init__(self, spec: EpisodeSpec, ranks: int | range) -> None:
        self.spec, self.n_ranks = spec, spec.n_ranks
        self.ranks = range(ranks, ranks + 1) if isinstance(ranks, (int, np.integer)) else ranks
        if not 0 <= self.ranks.start < self.ranks.stop <= self.n_ranks or self.ranks.step != 1:
            raise IndexError(f"ranks {self.ranks} are not a slice of {self.n_ranks} ranks")
        self.task_loads = spec.task_loads_array  # shared and read-only
        self.assignment = spec.assignment_array.copy()  #: decisions and apply_moves write it
        #: l_ave, fixed for the episode (the statistics all-reduce it opens with)
        self.average_load = float(
            np.bincount(self.assignment, self.task_loads, self.n_ranks).mean())
        self.registry = StatsRegistry()
        self.known = np.zeros((len(self.ranks), (self.n_ranks + 7) >> 3), dtype=np.uint8)
        #: (gossip, transfer) generators per hosted rank (:func:`episode_streams`)
        self.streams = [episode_streams(spec.seed, self.n_ranks, r) for r in self.ranks]
        self._informs: list[RankInform] = []  #: this iteration's, by slice index
        #: round -> batches of (receivers, member counts, ids), merged at the barrier
        self._inbox: dict[int, list[tuple[np.ndarray, ...]]] = {}
        self._loads = np.empty(0)
        self.underloaded: np.ndarray | None = None  #: ``l^q < l_ave``, per iteration
        #: this iteration's sends, one (messages, senders, model bytes) row per round
        self._rounds: list[tuple[int, int, int]] = []

    # -- gossip --------------------------------------------------------------

    def begin_iteration(self) -> GossipSends:
        """Reset per-iteration gossip state; the underloaded ranks seed round 1."""
        self._loads = np.bincount(self.assignment, self.task_loads, self.n_ranks)
        self.underloaded = self._loads < self.average_load
        self.known.fill(0)
        self._inbox, self._rounds, spec = {}, [], self.spec
        self._informs = [RankInform(r, self.n_ranks, spec.fanout, spec.rounds, gossip, row)
                         for r, (gossip, _), row in zip(self.ranks, self.streams, self.known)]
        seeds = np.flatnonzero(self.underloaded[self.ranks.start : self.ranks.stop]).tolist()
        return self._sends(1, seeds, [self._informs[i].seed() for i in seeds])

    def _sends(self, next_round: int, senders: list[int], forwards: list) -> GossipSends:
        """The messages of hosted ranks ``senders``' :class:`RankInform`
        forwards: each forward's targets all get its row's sorted ids."""
        kept = [(i, *f) for i, f in zip(senders, forwards) if f is not None]
        if not kept:
            self._rounds.append((0, 0, 0))
            return GossipSends(next_round, *[np.empty(0, np.int64)] * 5)
        local, targets, _, rows, sizes = zip(*kept)
        fan = np.fromiter(map(len, targets), np.int64, len(kept))
        bits = np.unpackbits(np.repeat(rows, fan, axis=0), axis=1, count=self.n_ranks).view(bool)
        ids = np.flatnonzero(bits)
        ids %= self.n_ranks
        sends = GossipSends(
            next_round, np.repeat(np.array(local, np.int64) + self.ranks.start, fan),
            np.concatenate(targets), np.count_nonzero(bits, axis=1),
            ids, np.repeat(np.array(sizes, np.int64), fan),
        )
        nbytes = int(sends.sizes.sum())
        self._rounds.append((len(sends), int(np.count_nonzero(fan)), nbytes))
        self.registry.inc("gossip.messages", len(sends))
        self.registry.inc("gossip.bytes", nbytes)
        return sends

    def receive(self, round_index, members: np.ndarray, messages=1, dst=None) -> None:
        """Buffer arriving gossip payloads (order-free by design):
        ``messages`` messages to hosted rank ``dst`` (None: the first) in
        round ``round_index``, ``members`` their ids concatenated; or a
        batch, ``round_index``, ``dst`` and ``messages`` one entry per
        message (round, destination, member count), ``members`` in order."""
        members = np.asarray(members, dtype=np.int64)
        if np.ndim(dst) == 0:  # one batch entry: all ``messages`` merge into one union
            self.registry.inc("gossip.received", messages)
            heard = np.array([0 if dst is None else dst - self.ranks.start])
            batch = heard, np.array([members.size]), members
            self._inbox.setdefault(int(round_index), []).append(batch)
            return
        self.registry.inc("gossip.received", len(dst))
        heard = np.asarray(dst, dtype=np.int64) - self.ranks.start
        rounds, counts = np.asarray(round_index), np.asarray(messages)
        for r in np.unique(rounds).tolist():
            mine = rounds == r
            ids = members if mine.all() else members[np.repeat(mine, counts)]
            self._inbox.setdefault(r, []).append((heard[mine], counts[mine], ids))

    def advance(self, round_index: int) -> GossipSends:
        """Merge round ``round_index``'s payloads as one union per receiver
        (one scatter); each forwards once if the round cap allows. Call only
        once all of the round's messages are in (the barrier)."""
        batches = self._inbox.pop(int(round_index), [])
        if not batches:
            return self._sends(round_index + 1, [], [])
        receivers = np.unique(np.concatenate([heard for heard, _, _ in batches]))
        union = np.zeros((receivers.size, self.n_ranks), dtype=bool)
        for heard, counts, ids in batches:
            union[np.repeat(np.searchsorted(receivers, heard), counts), ids] = True
        batches.clear()  # free the round's ids before the forwards' are built
        union = np.packbits(union, axis=1)
        receivers = receivers.tolist()
        informs = self._informs
        forwards = [informs[i].on_inform(round_index, row) for i, row in zip(receivers, union)]
        return self._sends(round_index + 1, receivers, forwards)

    # -- transfer ------------------------------------------------------------

    def decide_transfers(self) -> TransferStats:
        """Algorithm 2 for each hosted rank above the threshold (one at or
        below it would draw and record nothing), in rank order, each on its
        snapshot view and stream: the slice's stats, moves in rank then
        decision order. A rank's moves are undone once decided, so each
        decides on the iteration's assignment, as a core of its own would."""
        config, parts = self.spec.transfer_config(), []
        loads = self._loads[self.ranks.start : self.ranks.stop]
        for i in np.flatnonzero(loads > config.threshold * self.average_load).tolist():
            rank, know = self.ranks.start + i, SparseKnowledge(self.n_ranks)
            know.add(rank, row_ids(self.known[i], self.n_ranks))
            view = GossipResult(know, self.underloaded, self._loads, self.average_load)
            parts.append(transfer_from_rank(rank, self.assignment, self.task_loads, view, config,
                                            rng=self.streams[i][1], registry=self.registry))
            self.assignment[parts[-1].moves[:, 0]] = rank
        stats = TransferStats()
        stats.merge(*parts)
        return stats

    def xfer_sends(self, stats: TransferStats) -> list[tuple[int, int]]:
        """The ``(dst, task)`` transfer per move of ``stats``, in decision order,
        and the sender-side counters (called once a step; :meth:`decide` does)."""
        sends = list(zip(stats.moves[:, 2].tolist(), stats.moves[:, 0].tolist()))
        if sends:
            self.registry.inc("xfer.sent", len(sends))
            self.registry.inc("xfer.bytes", XFER_BYTES * len(sends))
        return sends

    def decide(self) -> dict[str, np.ndarray]:
        """The decide step: the ``decide`` frame's report — ``(n, 3)``
        accepted ``(task, src, dst)`` moves in rank then decision order (the
        transfers to send), hits ``|S^p ∩ U|`` and underloaded flags per
        hosted rank, and the iteration's gossip ``rounds``: one
        ``(messages, senders, model bytes)`` row per round the slice sent."""
        stats = self.decide_transfers()
        self.xfer_sends(stats)
        hits = np.bitwise_count(self.known & np.packbits(self.underloaded)).sum(axis=1)
        return {
            "moves": np.asarray(stats.moves, dtype=np.int32),
            "hits": hits.astype(np.int32),
            "under": self.underloaded[self.ranks.start : self.ranks.stop].copy(),
            "rounds": np.array(self._rounds, np.int64).reshape(-1, 3),
        }

    def receive_xfer(self, task: int | None = None, messages: int = 1) -> None:
        """Record ``messages`` arriving transfers (a rank keeps only the count)."""
        self.registry.inc("xfer.received", messages)

    def apply_moves(self, moves: list[tuple[int, int, int]] | np.ndarray) -> None:
        """Apply the episode-wide accepted moves (epoch boundary): an ``(n,
        3)`` array or a list of ``(task, src, dst)`` rows (:func:`_move`)."""
        _move(self.assignment, moves)


def _move(assignment: np.ndarray, moves) -> np.ndarray:
    """Write ``moves``' destinations into ``assignment`` in one fancy
    assignment; a task that moves more than once ends at its last row's."""
    moves = np.asarray(moves, np.int64).reshape(-1, 3)[::-1]
    tasks, last = np.unique(moves[:, 0], return_index=True)
    assignment[tasks] = moves[last, 2]
    return assignment


def assemble_assignment(
    spec: EpisodeSpec, moves: list[tuple[int, int, int]]
) -> np.ndarray:
    """The final global assignment from the initial one plus all moves."""
    return _move(spec.assignment_array.copy(), moves)


def fold_decisions(
    reports: Iterable[dict[str, np.ndarray]],
) -> tuple[np.ndarray, float, np.ndarray]:
    """Fold every driver's :meth:`NodeCore.decide` report, in rank-slice
    order, into the iteration's ``(n, 3)`` moves, its coverage — the
    mean fraction of the underloaded set known per rank, full when that
    set is empty (:meth:`repro.core.knowledge.SparseKnowledge.coverage`'s
    rule) — and its gossip rounds: the slices' ``rounds`` rows summed
    (every driver sends the same steps), the rows with messages kept."""
    reports = list(reports)
    moves = np.concatenate([r["moves"] for r in reports]).reshape(-1, 3)
    rounds = np.sum([r["rounds"] for r in reports], axis=0, dtype=np.int64)
    rounds = rounds[rounds[:, 0] > 0]
    under = int(sum(np.count_nonzero(r["under"]) for r in reports))
    if under == 0:
        return moves, 1.0, rounds
    hits = np.concatenate([r["hits"] for r in reports]).astype(np.float64)
    return moves, float(hits.mean() / under), rounds


def build_result(
    spec: EpisodeSpec,
    moves: list[tuple[int, int, int]],
    rounds: np.ndarray,
    counters: dict[str, float],
    coverage: float,
) -> EpisodeResult:
    """Assemble the canonical :class:`EpisodeResult`.

    ``rounds`` holds every iteration's :func:`fold_decisions` rows back
    to back. Both runtimes call this with transport-independent inputs,
    so any sim↔net difference in a result field traces back to a
    difference in those inputs — never to the assembly arithmetic.
    """
    n_ranks = spec.n_ranks
    task_loads = spec.task_loads_array
    initial = spec.assignment_array
    final = assemble_assignment(spec, moves)
    return EpisodeResult(
        assignment=final,
        moves=[(int(a), int(b), int(c)) for a, b, c in moves],
        per_round_messages=rounds[:, 0].tolist(),
        per_round_senders=rounds[:, 1].tolist(),
        n_messages=int(rounds[:, 0].sum()),
        bytes_sent=int(rounds[:, 2].sum()) + XFER_BYTES * len(moves),
        transfer_messages=len(moves),
        coverage=coverage,
        initial_imbalance=imbalance(
            np.bincount(initial, weights=task_loads, minlength=n_ranks)
        ),
        final_imbalance=imbalance(
            np.bincount(final, weights=task_loads, minlength=n_ranks)
        ),
        counters=dict(counters),
    )

