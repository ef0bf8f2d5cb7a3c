"""Algorithm 2, EVALUATECRITERION — original vs. relaxed transfer criteria.

``original`` (Alg. 2 l.35, GrapevineLB)
    Accept iff ``l_x + LOAD(o) < l_ave`` — the recipient must stay strictly
    under the average. § V-B shows this yields ~99-100% rejection after the
    first iteration and traps the imbalance in a local minimum.

``relaxed`` (Alg. 2 l.37, TemperedLB; Lemma 1 / Proposition)
    Accept iff ``LOAD(o) < l^p - l_x`` — equivalently
    ``l_x + LOAD(o) < l^p``: the recipient may exceed the average, but
    never ends up as loaded as the sender was before the transfer. This is
    necessary and sufficient for the objective ``F`` to decrease
    monotonically (paper Lemmas 1 and 2).
"""

from __future__ import annotations

from typing import Callable

__all__ = [
    "CRITERION_ORIGINAL",
    "CRITERION_RELAXED",
    "CRITERIA",
    "original_criterion",
    "relaxed_criterion",
]

CRITERION_ORIGINAL = "original"
CRITERION_RELAXED = "relaxed"


def original_criterion(l_x: float, task_load: float, l_ave: float, l_p: float) -> bool:
    """GrapevineLB's criterion: recipient stays under the average load."""
    return l_x + task_load < l_ave


def relaxed_criterion(l_x: float, task_load: float, l_ave: float, l_p: float) -> bool:
    """TemperedLB's optimal criterion: ``LOAD(o) < l^p - l_x`` (Lemma 1)."""
    return task_load < l_p - l_x


#: Criterion name -> predicate. Arguments mirror Alg. 2 l.33: ``l_x`` is
#: the sender's *known* load of the candidate recipient, ``task_load`` is
#: ``LOAD(o_x)``, ``l_ave`` the global average, ``l_p`` the sender's
#: current load.
CRITERIA: dict[str, Callable[[float, float, float, float], bool]] = {
    CRITERION_ORIGINAL: original_criterion,
    CRITERION_RELAXED: relaxed_criterion,
}

