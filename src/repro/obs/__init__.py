"""repro.obs — instrumentation & telemetry for the gossip LB stack.

The paper's empirical claims are about rates and volumes (per-iteration
transfer acceptance/rejection, ``f*k`` gossip message counts, migration
bytes at commit), so every layer of the reproduction can attach a
:class:`StatsRegistry` and export those quantities:

- :func:`repro.core.gossip.run_inform_stage`,
  :func:`repro.core.transfer.transfer_stage` and
  :func:`repro.core.refinement.iterative_refinement` take a
  ``registry`` keyword;
- :class:`repro.core.base.LoadBalancer.instrument` attaches a registry
  to a strategy object (TemperedLB / GrapevineLB thread it through);
- :class:`repro.sim.engine.Engine`, :class:`repro.sim.process.System`,
  :class:`repro.runtime.amt.AMTRuntime` and
  :class:`repro.runtime.lbmanager.LBManager` accept ``registry=``;
- :func:`repro.analysis.io.save_stats` / ``load_stats`` /
  ``stats_to_csv`` persist a registry, and ``python -m repro stats``
  summarizes an instrumented run.

With no registry attached, instrumentation is skipped entirely (no
recording, no RNG consumption): outputs are identical to an
un-instrumented build. See ``docs/observability.md``.
"""

from repro.obs.events import Event
from repro.obs.registry import StatsRegistry

__all__ = ["Event", "StatsRegistry"]
