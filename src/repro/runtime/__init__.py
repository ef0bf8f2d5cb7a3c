"""AMT runtime model (the role DARMA/vt plays in the paper).

Built on :mod:`repro.sim`: tasks execute serially per rank with a
per-task overhead, phases end with a tree barrier, per-task loads are
instrumented for the balancers (principle of persistence), the inform
stage runs as real asynchronous messages sequenced by termination
detection, and migrations ship task bytes across the network model.
"""

from repro.runtime.amt import AMTRuntime, PhaseResult
from repro.runtime.lbmanager import DistributedLBResult, LBManager, event_inform_stage
from repro.runtime.migration import MigrationResult, migrate_tasks
from repro.runtime.phase import PhaseBarrier, PhaseInstrumentation

__all__ = [
    "AMTRuntime",
    "DistributedLBResult",
    "LBManager",
    "MigrationResult",
    "PhaseBarrier",
    "PhaseInstrumentation",
    "PhaseResult",
    "event_inform_stage",
    "migrate_tasks",
]
