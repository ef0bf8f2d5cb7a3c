"""Criterion studies (§ V-B, § V-D reproduction).

The § V analysis tables were produced with the authors' LBAF tool: a
sequential Python simulation applying the inform + transfer stages
iteratively to one synthetic distribution and recording, per iteration,
the number of accepted transfers, rejections, the rejection rate, and
the resulting imbalance. :func:`criterion_study` reproduces exactly
that; :func:`criterion_comparison` pairs the original and relaxed
criteria on the same workload (the third § V-D table).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.base import IterationRecord
from repro.core.criteria import CRITERION_ORIGINAL, CRITERION_RELAXED
from repro.core.distribution import Distribution
from repro.core.gossip import GossipConfig
from repro.core.grapevine import GRAPEVINE_TRANSFER
from repro.core.ordering import ORDER_ARBITRARY
from repro.core.refinement import iterative_refinement
from repro.core.transfer import TransferConfig
from repro.util.validation import check_in, check_positive, coerce_rng

__all__ = [
    "CriterionStudy",
    "criterion_study",
    "criterion_comparison",
]


@dataclass
class CriterionStudy:
    """Per-iteration history of one criterion on one workload."""

    criterion: str
    initial_imbalance: float
    records: list[IterationRecord] = field(default_factory=list)

    @property
    def final_imbalance(self) -> float:
        """Imbalance after the last iteration."""
        return self.records[-1].imbalance if self.records else self.initial_imbalance

    def imbalances(self) -> list[float]:
        """Iteration-0 imbalance followed by each iteration's imbalance."""
        return [self.initial_imbalance] + [r.imbalance for r in self.records]


def criterion_study(
    dist: Distribution,
    criterion: str = CRITERION_RELAXED,
    n_iters: int = 10,
    fanout: int = 6,
    rounds: int = 10,
    threshold: float = 1.0,
    ordering: str = ORDER_ARBITRARY,
    rng: np.random.Generator | int | None = 0,
) -> CriterionStudy:
    """Iterate inform+transfer ``n_iters`` times, recording each iteration.

    Defaults reproduce the § V-B setup: ``k = 10`` gossip rounds,
    ``h = 1.0``, ``f = 6``, ten iterations. The original criterion runs
    GrapevineLB's transfer stage and the relaxed one TemperedLB's
    (modified CMF, recomputed), both under the LBAF semantics.
    """
    check_in("criterion", criterion, (CRITERION_ORIGINAL, CRITERION_RELAXED))
    check_positive("n_iters", n_iters)
    rng = coerce_rng(rng)
    stage = GRAPEVINE_TRANSFER if criterion == CRITERION_ORIGINAL else TransferConfig()
    refinement = iterative_refinement(
        dist,
        n_trials=1,
        n_iters=n_iters,
        gossip=GossipConfig(fanout=fanout, rounds=rounds),
        transfer=replace(stage, ordering=ordering, threshold=threshold).lbaf_variant(),
        rng=rng,
    )
    return CriterionStudy(
        criterion=criterion,
        initial_imbalance=refinement.initial_imbalance,
        records=refinement.records,
    )


def criterion_comparison(
    dist: Distribution,
    n_iters: int = 10,
    seed: int = 0,
    **kwargs: object,
) -> dict[str, CriterionStudy]:
    """Run both criteria on the same workload with identical seeds.

    Reproduces the third § V-D table (criterion 35 vs criterion 37).
    """
    return {
        CRITERION_ORIGINAL: criterion_study(
            dist, CRITERION_ORIGINAL, n_iters=n_iters, rng=seed, **kwargs  # type: ignore[arg-type]
        ),
        CRITERION_RELAXED: criterion_study(
            dist, CRITERION_RELAXED, n_iters=n_iters, rng=seed, **kwargs  # type: ignore[arg-type]
        ),
    }
