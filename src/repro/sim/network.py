"""Network cost model.

A two-level alpha-beta model matching the paper's testbed shape (four
ranks per node over EDR InfiniBand): intra-node messages pay shared-
memory latency/bandwidth; inter-node messages pay NIC latency and
network bandwidth. Defaults approximate the published EDR numbers
(~1 us latency, ~12 GB/s effective per-rank bandwidth) — absolute
fidelity is not required, only that message cost scales as
``alpha + size * beta`` so protocol costs have realistic shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_nonnegative, check_positive

__all__ = ["NetworkModel"]


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth cost model with node locality."""

    ranks_per_node: int = 4
    intra_latency: float = 2e-7  #: seconds, shared memory
    intra_bandwidth: float = 5e9  #: bytes/second
    inter_latency: float = 1.2e-6  #: seconds, NIC + switch
    inter_bandwidth: float = 1.2e10  #: bytes/second
    self_latency: float = 5e-8  #: local delivery (scheduler hop)

    def __post_init__(self) -> None:
        check_positive("ranks_per_node", self.ranks_per_node)
        check_nonnegative("intra_latency", self.intra_latency)
        check_positive("intra_bandwidth", self.intra_bandwidth)
        check_nonnegative("inter_latency", self.inter_latency)
        check_positive("inter_bandwidth", self.inter_bandwidth)
        check_nonnegative("self_latency", self.self_latency)

    def latency(self, src: int, dst: int, size: int) -> float:
        """Total transfer time for ``size`` bytes from ``src`` to ``dst``."""
        if size < 0:
            raise ValueError("size must be non-negative")
        tx, alpha = self.link_cost(src, dst, size)
        return alpha + tx

    def link_cost(self, src: int, dst: int, size: int) -> tuple[float, float]:
        """``(tx, alpha)`` for ``size >= 0`` bytes, classifying the link
        once: ``tx`` is the serialization (beta) time the sender's NIC
        is occupied, ``alpha`` the size-independent wire latency."""
        if src == dst:
            return 0.0, self.self_latency
        rpn = self.ranks_per_node
        if src // rpn == dst // rpn:
            return size / self.intra_bandwidth, self.intra_latency
        return size / self.inter_bandwidth, self.inter_latency
