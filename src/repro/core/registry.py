"""Strategy registry: build any balancer by name.

Mirrors Charm++'s ``+balancer <Name>`` runtime flag: a sweep spec
(:mod:`repro.analysis.runner`, behind ``repro sweep``) names each
strategy by string, with keyword overrides, without importing its class.
The registry holds the paper's balancer and its three comparison
baselines.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.base import LoadBalancer
from repro.core.grapevine import GrapevineLB
from repro.core.greedy import GreedyLB
from repro.core.hier import HierLB
from repro.core.tempered import TemperedLB

__all__ = ["STRATEGIES", "make_balancer", "available_strategies"]

STRATEGIES: dict[str, Callable[..., LoadBalancer]] = {
    "tempered": TemperedLB,
    "grapevine": GrapevineLB,
    "greedy": GreedyLB,
    "hier": HierLB,
}


def available_strategies() -> list[str]:
    """Registered strategy names, sorted."""
    return sorted(STRATEGIES)


def make_balancer(name: str, **kwargs: Any) -> LoadBalancer:
    """Instantiate a registered strategy by name with keyword overrides."""
    try:
        factory = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; available: {', '.join(available_strategies())}"
        ) from None
    return factory(**kwargs)
