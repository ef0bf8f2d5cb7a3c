"""The paper's contribution: distributed gossip-based load balancing.

Phase-level implementations of Algorithms 1–6 of the paper plus the
GreedyLB / HierLB baselines. The event-level (message-by-message)
inform stage runs the per-rank rule :class:`repro.core.gossip.RankInform`,
driven asynchronously by :func:`repro.runtime.lbmanager.event_inform_stage`
and at round barriers by :class:`repro.net.episode.NodeCore`.
"""

from repro.core.base import IterationRecord, LBResult, LoadBalancer
from repro.core.cmf import CMF_MODIFIED, CMF_ORIGINAL, build_cmf, sample_cmf
from repro.core.comm import CommAwareLB, CommGraph
from repro.core.criteria import (
    CRITERION_ORIGINAL,
    CRITERION_RELAXED,
)
from repro.core.distribution import Distribution
from repro.core.gossip import GossipConfig, GossipResult, run_inform_stage
from repro.core.grapevine import GrapevineLB
from repro.core.greedy import GreedyLB
from repro.core.hier import HierLB
from repro.core.knowledge import PackedKnowledgeBitmap, SparseKnowledge
from repro.core.metrics import (
    LoadStatistics,
    imbalance,
    load_statistics,
    objective,
)
from repro.core.ordering import ORDERINGS
from repro.core.refinement import RefinementResult, iterative_refinement
from repro.core.soa import RankTaskState
from repro.core.tempered import TemperedConfig, TemperedLB
from repro.core.transfer import TransferStats, transfer_stage

__all__ = [
    "CMF_MODIFIED",
    "CMF_ORIGINAL",
    "CRITERION_ORIGINAL",
    "CommAwareLB",
    "CommGraph",
    "CRITERION_RELAXED",
    "Distribution",
    "GossipConfig",
    "GossipResult",
    "GrapevineLB",
    "GreedyLB",
    "HierLB",
    "IterationRecord",
    "LBResult",
    "LoadBalancer",
    "LoadStatistics",
    "ORDERINGS",
    "PackedKnowledgeBitmap",
    "RankTaskState",
    "RefinementResult",
    "SparseKnowledge",
    "TemperedConfig",
    "TemperedLB",
    "TransferStats",
    "build_cmf",
    "imbalance",
    "iterative_refinement",
    "load_statistics",
    "objective",
    "run_inform_stage",
    "sample_cmf",
    "transfer_stage",
]
