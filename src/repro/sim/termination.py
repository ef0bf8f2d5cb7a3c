"""Distributed termination detection.

vt sequences its asynchronous protocols (including the gossip inform
stage) with epoch-based termination detection. Two classic algorithms
are provided as substrates:

:class:`SafraDetector`
    Safra's token-ring algorithm (as in Dijkstra's EWD 998): each rank
    keeps a message counter and a color; a token circulates the ring
    accumulating counters. The initiator announces termination when a
    fully white round returns a zero total — sound even though messages
    may overtake the token, because a receipt after the token passed
    turns the rank black and poisons the round.

:class:`DijkstraScholten`
    Diffusing-computation termination for a computation rooted at one
    rank: every application message engages its receiver under a parent
    tree; acknowledgements retract engagements; the root terminates when
    its deficit returns to zero.

Both treat tags starting with ``"__"`` as control traffic, excluded
from the application-message accounting, and decide whether a tag
counts once per tag (:class:`_TagScope`), not once per message. Both
detach their hooks and retire their control tag when they announce or
are cancelled (see :mod:`repro.sim.process`, *Stage lifetime*).
"""

from __future__ import annotations

from typing import Callable

from repro.sim.messages import Message
from repro.sim.process import Process, System

__all__ = ["SafraDetector", "DijkstraScholten", "is_control_tag"]

WHITE = 0
BLACK = 1


def is_control_tag(tag: str) -> bool:
    """Whether a message tag belongs to a control protocol."""
    return tag.startswith("__")


class _TagScope(dict):
    """``tag -> counted?`` for one detector, resolved on a tag's first
    sight: a control tag never counts, another counts when ``scope`` is
    None or accepts it. ``scope`` must be a pure function of the tag."""

    __slots__ = ("_scope",)

    def __init__(self, scope: Callable[[str], bool] | None) -> None:
        super().__init__()
        self._scope = scope

    def __missing__(self, tag: str) -> bool:
        counted = not is_control_tag(tag) and (self._scope is None or bool(self._scope(tag)))
        self[tag] = counted
        return counted


class SafraDetector:
    """Safra's token-ring termination detector.

    Parameters
    ----------
    system:
        The simulated system to observe (hooks are installed on it).
    on_terminate:
        Called once, with the simulated detection time, when the ring
        confirms global quiescence of application messages.
    token_size:
        Wire size of the circulating token in bytes.
    """

    def __init__(
        self,
        system: System,
        on_terminate: Callable[[float], None],
        token_size: int = 16,
        scope: Callable[[str], bool] | None = None,
    ) -> None:
        self._token_tag = system.stage_tag("__safra_token")
        self.system = system
        self.on_terminate = on_terminate
        self.token_size = token_size
        #: Which application tags this detector accounts for (epoch
        #: scoping); None = every non-control message.
        self.scope = scope
        self._counted = _TagScope(scope)
        n = system.n_ranks
        self._count = [0] * n  #: sent - received per rank
        self._color = [WHITE] * n
        self._terminated = False
        self.rounds = 0
        system.add_transmit_hook(self._on_transmit)
        system.add_post_execute_hook(self._on_executed)
        system.add_drop_hook(self._on_drop)
        for proc in system.processes:
            proc.register(self._token_tag, self._on_token)

    @property
    def terminated(self) -> bool:
        """Whether termination has been announced."""
        return self._terminated

    def start(self) -> None:
        """Initiate token circulation from rank 0."""
        if self.system.n_ranks == 1:
            # Degenerate ring: decide directly from rank 0's counter.
            self._evaluate_single()
            return
        self._send_token(0, 0, WHITE)

    def cancel(self) -> None:
        """Abandon detection without announcing (stage timeout).

        The ring may be broken — a crashed member cannot forward the
        token — so a timed-out stage cancels the detector; any token
        still circulating is discarded as a message for a retired tag.
        A no-op once terminated.
        """
        if not self._terminated:
            self._terminated = True
            self._detach()

    def _detach(self) -> None:
        self.system.remove_hooks(self._on_transmit, self._on_executed, self._on_drop)
        self.system.retire(self._token_tag)

    # -- message accounting --------------------------------------------------

    def _on_transmit(self, msg: Message) -> None:
        if self._terminated or not self._counted[msg.tag]:
            return
        self._count[msg.src] += 1

    def _on_executed(self, proc: Process, msg: Message) -> None:
        if self._terminated or not self._counted[msg.tag]:
            return
        self._count[proc.rank] -= 1
        self._color[proc.rank] = BLACK
        if self.system.n_ranks == 1:
            self._evaluate_single()

    def _on_drop(self, msg: Message) -> None:
        """A counted message will never execute: un-count it at the
        sender so the ring's sent-received total can still reach zero."""
        if self._terminated or not self._counted[msg.tag]:
            return
        self._count[msg.src] -= 1
        if self.system.n_ranks == 1:
            self._evaluate_single()

    # -- token protocol --------------------------------------------------------

    def _send_token(self, from_rank: int, acc: int, color: int) -> None:
        nxt = (from_rank + 1) % self.system.n_ranks
        self.system.processes[from_rank].send(
            nxt, self._token_tag, payload=(acc, color), size=self.token_size
        )

    def _on_token(self, proc: Process, msg: Message) -> None:
        if self._terminated:
            return
        acc, color = msg.payload
        rank = proc.rank
        if rank == 0:
            self.rounds += 1
            total = acc + self._count[0]
            round_white = color == WHITE and self._color[0] == WHITE
            if round_white and total == 0:
                self._announce()
                return
            # Inconclusive: whiten and start a fresh round.
            self._color[0] = WHITE
            self._send_token(0, 0, WHITE)
            return
        # Intermediate rank: fold in local counter and color, then whiten.
        out_color = BLACK if (self._color[rank] == BLACK or color == BLACK) else WHITE
        self._color[rank] = WHITE
        self._send_token(rank, acc + self._count[rank], out_color)

    def _evaluate_single(self) -> None:
        if not self._terminated and self._count[0] == 0:
            self._announce()

    def _announce(self) -> None:
        self._terminated = True
        self._detach()
        self.on_terminate(self.system.engine.now)


class DijkstraScholten:
    """Dijkstra–Scholten termination for a diffusing computation.

    Observe a computation rooted at ``root``: the root sends the first
    application messages; every application message engages its receiver
    in a dynamic tree. A rank acknowledges its parent once its handler
    has run and all messages it sent have been acknowledged. When the
    root's own deficit reaches zero the computation has terminated.

    The acknowledgement traffic is simulated (tag ``__ds_ack``), so the
    detection *time* includes the signalling cost, as in a real system.
    """

    def __init__(
        self,
        system: System,
        root: int,
        on_terminate: Callable[[float], None],
        ack_size: int = 8,
    ) -> None:
        self._ack_tag = system.stage_tag("__ds_ack")
        self.system = system
        self.root = root
        self.on_terminate = on_terminate
        self.ack_size = ack_size
        n = system.n_ranks
        self._deficit = [0] * n  #: unacknowledged messages sent by each rank
        self._parent: list[int | None] = [None] * n
        self._engaged = [False] * n
        self._engaged[root] = True
        self._terminated = False
        self._counted = _TagScope(None)
        system.add_transmit_hook(self._on_transmit)
        system.add_post_execute_hook(self._on_executed)
        system.add_drop_hook(self._on_drop)
        for proc in system.processes:
            proc.register(self._ack_tag, self._on_ack)

    @property
    def terminated(self) -> bool:
        """Whether the root has detected termination."""
        return self._terminated

    def start(self) -> None:
        """Check for the trivial case (root never sent anything)."""
        self._maybe_finish(self.root)

    def cancel(self) -> None:
        """Abandon detection without announcing (the computation was
        given up). A no-op once terminated."""
        if not self._terminated:
            self._terminated = True
            self._detach()

    def _detach(self) -> None:
        self.system.remove_hooks(self._on_transmit, self._on_executed, self._on_drop)
        self.system.retire(self._ack_tag)

    def _on_transmit(self, msg: Message) -> None:
        if self._terminated or not self._counted[msg.tag]:
            return
        self._deficit[msg.src] += 1

    def _on_executed(self, proc: Process, msg: Message) -> None:
        if self._terminated or not self._counted[msg.tag]:
            return
        rank = proc.rank
        if not self._engaged[rank]:
            # First engagement: the sender becomes this rank's parent;
            # the ack is deferred until this subtree finishes.
            self._engaged[rank] = True
            self._parent[rank] = msg.src
        else:
            # Already engaged: acknowledge immediately.
            proc.send(msg.src, self._ack_tag, size=self.ack_size)
        self._maybe_finish(rank)

    def _on_ack(self, proc: Process, msg: Message) -> None:
        rank = proc.rank
        self._deficit[rank] -= 1
        self._maybe_finish(rank)

    def _on_drop(self, msg: Message) -> None:
        """Balance the deficit for messages the fault layer destroys.

        A dropped application message can never be acknowledged, so its
        sender's deficit is retired directly; a dropped *ack* retires
        the deficit of the rank that was waiting for it.
        """
        if self._terminated:
            return
        if msg.tag == self._ack_tag:
            self._deficit[msg.dst] -= 1
            self._maybe_finish(msg.dst)
            return
        if not self._counted[msg.tag]:
            return
        self._deficit[msg.src] -= 1
        self._maybe_finish(msg.src)

    def _maybe_finish(self, rank: int) -> None:
        """Detach from the parent (or terminate, at the root) once the
        local deficit is zero."""
        if self._terminated or not self._engaged[rank] or self._deficit[rank] != 0:
            return
        if rank == self.root:
            self._terminated = True
            self._detach()
            self.on_terminate(self.system.engine.now)
            return
        parent = self._parent[rank]
        self._engaged[rank] = False
        self._parent[rank] = None
        if parent is not None:
            self.system.processes[rank].send(parent, self._ack_tag, size=self.ack_size)
