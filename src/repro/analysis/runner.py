"""Declarative experiment sweeps — the LBAF "experiment config" role.

A :class:`SweepSpec` names a grid of workloads x strategies x seeds;
:func:`run_sweep` executes every cell and aggregates per-cell means and
standard deviations of the final imbalance and migration counts. Specs
are plain data (JSON-serializable dicts), so sweeps can be stored next
to their results and rerun bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.distribution import Distribution
from repro.core.registry import available_strategies, make_balancer
from repro.workloads import (
    paper_analysis_scenario,
    random_distribution,
    skewed_distribution,
)

__all__ = ["SweepSpec", "run_sweep", "WORKLOAD_GENERATORS"]

WORKLOAD_GENERATORS: dict[str, Callable[..., Distribution]] = {
    "paper": paper_analysis_scenario,
    "skewed": skewed_distribution,
    "random": random_distribution,
}


@dataclass(frozen=True)
class SweepSpec:
    """A grid of experiments.

    ``workloads`` maps a label to ``{"generator": <name>, **params}``;
    ``strategies`` maps a label to ``{"kind": <registry name>, **params}``;
    every combination runs once per seed.
    """

    workloads: dict[str, dict[str, Any]]
    strategies: dict[str, dict[str, Any]]
    seeds: tuple[int, ...] = (0, 1, 2)

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError("spec needs at least one workload")
        if not self.strategies:
            raise ValueError("spec needs at least one strategy")
        if not self.seeds:
            raise ValueError("spec needs at least one seed")
        for label, params in self.workloads.items():
            generator = params.get("generator")
            if generator not in WORKLOAD_GENERATORS:
                raise ValueError(
                    f"workload {label!r}: unknown generator {generator!r}; "
                    f"available: {sorted(WORKLOAD_GENERATORS)}"
                )
        for label, params in self.strategies.items():
            if "kind" not in params:
                raise ValueError(f"strategy {label!r} needs a 'kind'")
            if params["kind"] not in available_strategies():
                raise ValueError(
                    f"strategy {label!r}: unknown kind {params['kind']!r}; "
                    f"available: {available_strategies()}"
                )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form."""
        return {
            "workloads": self.workloads,
            "strategies": self.strategies,
            "seeds": list(self.seeds),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SweepSpec":
        """Rebuild a spec from :meth:`to_dict` output or a user's file:
        unknown keys are refused by name, and ``seeds`` may be omitted."""
        unknown = sorted(set(payload) - {"workloads", "strategies", "seeds"})
        if unknown:
            raise ValueError(
                f"unknown sweep spec keys {unknown}; expected workloads, strategies, seeds"
            )
        return cls(
            workloads=payload["workloads"],
            strategies=payload["strategies"],
            seeds=tuple(payload.get("seeds", cls.seeds)),
        )


def run_sweep(spec: SweepSpec) -> list[dict[str, Any]]:
    """Execute the grid; one aggregated row per (workload, strategy).

    Each row carries ``initial I``, ``final I`` (mean), ``final I std``,
    ``migrations`` (mean) and the per-seed values under ``raw``.
    """
    rows: list[dict[str, Any]] = []
    for w_label, w_params in spec.workloads.items():
        params = dict(w_params)
        generator = WORKLOAD_GENERATORS[params.pop("generator")]
        for s_label, s_params in spec.strategies.items():
            s_kw = dict(s_params)
            kind = s_kw.pop("kind")
            finals, migrations, initials = [], [], []
            for seed in spec.seeds:
                dist = generator(seed=seed, **params)
                balancer = make_balancer(kind, **s_kw)
                result = balancer.rebalance(dist, rng=np.random.default_rng(seed))
                initials.append(result.initial_imbalance)
                finals.append(result.final_imbalance)
                migrations.append(result.n_migrations)
            rows.append(
                {
                    "workload": w_label,
                    "strategy": s_label,
                    "initial I": float(np.mean(initials)),
                    "final I": float(np.mean(finals)),
                    "final I std": float(np.std(finals)),
                    "migrations": float(np.mean(migrations)),
                    "raw": {"final": finals, "migrations": migrations},
                }
            )
    return rows
