"""Asynchronous collective reductions over the simulated network.

The load balancers open with a constant-size statistics all-reduce
(max/average load). This module simulates a binomial-tree reduce
followed by a binomial-tree broadcast — ``2 log2 P`` message hops on the
critical path — and invokes a completion callback on every rank at the
simulated time its result arrives.

Binomial tree over *virtual* ranks (``vrank = (rank - root) mod n``):

- ``parent(v) = v & (v - 1)`` (clear the lowest set bit);
- ``children(v)``: ``v | 2^k`` for every ``2^k`` below ``v``'s lowest
  set bit (all powers of two below ``n`` when ``v == 0``), bounded by
  ``n``.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.messages import Message
from repro.sim.process import Process, System

__all__ = ["allreduce", "binomial_children", "binomial_parent"]


def binomial_parent(vrank: int) -> int:
    """Parent of a virtual rank in the binomial tree (vrank > 0)."""
    if vrank <= 0:
        raise ValueError("the root (vrank 0) has no parent")
    return vrank & (vrank - 1)


def binomial_children(vrank: int, n: int) -> list[int]:
    """Children of ``vrank`` in an ``n``-rank binomial tree."""
    if not 0 <= vrank < n:
        raise ValueError(f"vrank {vrank} out of range for {n} ranks")
    limit = (vrank & -vrank) if vrank else n
    children = []
    bit = 1
    while bit < limit:
        child = vrank | bit
        if child < n:
            children.append(child)
        bit <<= 1
    return children


def allreduce(
    system: System,
    contributions: list[Any],
    combine: Callable[[Any, Any], Any],
    on_complete: Callable[[int, Any], None],
    size: int = 64,
    root: int = 0,
) -> "_AllReduceOp":
    """Simulate an all-reduce across all ranks of ``system``.

    Parameters
    ----------
    contributions:
        One value per rank.
    combine:
        Associative binary reduction operator.
    on_complete:
        Called as ``on_complete(rank, reduced_value)`` on every rank at
        the simulated time its result arrives.
    size:
        Wire size of each reduction message in bytes.
    root:
        Tree root (rank numbering is rotated so any root works).

    Returns the operation's handle. Once the system has run the
    operation out, ``close()`` retires its tags: a message for them that
    is still on the wire then executes as a no-op.
    """
    if len(contributions) != system.n_ranks:
        raise ValueError(
            f"need one contribution per rank ({len(contributions)} != {system.n_ranks})"
        )
    if not 0 <= root < system.n_ranks:
        raise ValueError(f"root {root} out of range")
    op = _AllReduceOp(system, contributions, combine, on_complete, size, root)
    op.start()
    return op


class _AllReduceOp:
    """One in-flight all-reduce (binomial reduce + binomial broadcast)."""

    def __init__(
        self,
        system: System,
        contributions: list[Any],
        combine: Callable[[Any, Any], Any],
        on_complete: Callable[[int, Any], None],
        size: int,
        root: int,
    ) -> None:
        self.system = system
        self.combine = combine
        self.on_complete = on_complete
        self.size = size
        self.root = root
        self.n = system.n_ranks
        self.tag_up = system.stage_tag("__allreduce_up")
        self.tag_down = system.stage_tag("__allreduce_down")
        self.value = list(contributions)
        self.pending = [
            len(binomial_children(self._vrank(r), self.n)) for r in range(self.n)
        ]
        # A duplicated control message must not fold a child twice or
        # complete a rank twice: (rank, child) pairs heard, ranks done.
        self._heard: set[tuple[int, int]] = set()
        self._done: set[int] = set()
        for proc in system.processes:
            proc.register(self.tag_up, self._on_up)
            proc.register(self.tag_down, self._on_down)

    def _vrank(self, rank: int) -> int:
        return (rank - self.root) % self.n

    def _rank(self, vrank: int) -> int:
        return (vrank + self.root) % self.n

    def close(self) -> None:
        """Retire this operation's tags (idempotent)."""
        self.system.retire(self.tag_up, self.tag_down)

    def start(self) -> None:
        if self.n == 1:
            self.on_complete(self.root, self.value[self.root])
            return
        for rank in range(self.n):
            if self.pending[rank] == 0:
                self._send_up(rank)

    def _send_up(self, rank: int) -> None:
        vrank = self._vrank(rank)
        if vrank == 0:
            # Root folded every child: deliver locally, then broadcast.
            self._complete(rank, self.value[rank])
            return
        parent = self._rank(binomial_parent(vrank))
        self.system.processes[rank].send(
            parent, self.tag_up, payload=self.value[rank], size=self.size
        )

    def _on_up(self, proc: Process, msg: Message) -> None:
        rank = proc.rank
        if (rank, msg.src) in self._heard:
            return
        self._heard.add((rank, msg.src))
        self.value[rank] = self.combine(self.value[rank], msg.payload)
        self.pending[rank] -= 1
        if self.pending[rank] == 0:
            self._send_up(rank)

    def _fan_out(self, rank: int) -> None:
        for child_v in binomial_children(self._vrank(rank), self.n):
            self.system.processes[rank].send(
                self._rank(child_v), self.tag_down, payload=self.value[rank], size=self.size
            )

    def _on_down(self, proc: Process, msg: Message) -> None:
        self._complete(proc.rank, msg.payload)

    def _complete(self, rank: int, value: Any) -> None:
        """Deliver ``rank``'s result and pass it down, once per rank."""
        if rank in self._done:
            return
        self._done.add(rank)
        self.value[rank] = value
        self.on_complete(rank, value)
        self._fan_out(rank)
