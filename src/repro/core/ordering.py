"""§ V-E — orderings of candidate tasks for the transfer loop.

The transfer stage (Alg. 2 l.3, ORDERTASKS) walks the overloaded rank's
tasks once, proposing each in turn. The walk order changes which
transfers get accepted:

``arbitrary``
    Identifying-index order (the paper's default / hash-iteration order).

``load_intensive`` (Alg. 4, the straw-man)
    Descending load: fewest transfers when accepted, worst acceptance odds.

``fewest_migrations`` (Alg. 5, the winner in Fig. 4d)
    Lead with the *cutoff* task — the lightest single task whose load
    exceeds the rank's excess ``l_ex = l^p - l_ave`` (one migration can
    resolve the overload) — then lighter tasks by descending load, then
    heavier tasks by ascending load.

``lightest`` (Alg. 6)
    Lead with the *marginal* task — the heaviest of the ascending-order
    prefix of tasks whose cumulative load first covers the excess — then
    the same two-group ordering keyed on the marginal load.

Both functions are pure. :func:`order_segments` orders many senders'
task lists at once and returns positions; :func:`order_tasks` orders
one sender's task ids, a batch of one, and returns a new id array.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_in

__all__ = [
    "ORDER_ARBITRARY",
    "ORDER_LOAD_INTENSIVE",
    "ORDER_FEWEST_MIGRATIONS",
    "ORDER_LIGHTEST",
    "ORDERINGS",
    "order_segments",
    "order_tasks",
]

ORDER_ARBITRARY = "arbitrary"
ORDER_LOAD_INTENSIVE = "load_intensive"
ORDER_FEWEST_MIGRATIONS = "fewest_migrations"
ORDER_LIGHTEST = "lightest"
#: Every ordering's name, in the order the module docstring lists them.
ORDERINGS = (ORDER_ARBITRARY, ORDER_LOAD_INTENSIVE, ORDER_FEWEST_MIGRATIONS, ORDER_LIGHTEST)


def _two_group_sort(loads: np.ndarray, cut, *segment_keys: np.ndarray) -> np.ndarray:
    """The permutation that puts tasks with load <= cut first by
    descending load, then the rest ascending.

    This is the comparator shared by Alg. 5 (l.7-11, cut = l_cut) and
    Alg. 6 (l.7-11, cut = l_marg): one stable sort keyed on the group
    first and the signed load second, so equal keys keep input order.
    ``segment_keys``, when given, sort first: each run of equal keys
    is ordered on its own.
    """
    light = loads <= cut
    return np.lexsort((np.where(light, -loads, loads), ~light, *segment_keys))


def order_segments(
    name: str,
    tasks: np.ndarray,
    bounds: np.ndarray,
    task_loads: np.ndarray,
    l_ave: float,
    l_p: np.ndarray,
) -> np.ndarray:
    """ORDERTASKS for a batch of senders at once.

    ``tasks[bounds[i]:bounds[i + 1]]`` are sender ``i``'s task ids and
    ``l_p[i]`` its load. Returns the permutation of positions that puts
    every segment in ``name``'s order and keeps the segments in place,
    so ``tasks[perm][bounds[i]:bounds[i + 1]]`` is exactly the order of
    sender ``i`` alone. Every ordering is a *cut* per segment and one
    stable sort keyed on (segment, ``load <= cut``, signed load):
    descending load is the cut ``+inf``, ascending load ``-inf``. Only
    Alg. 6's marginal load folds a running sum, which runs per segment
    in its own float order.
    """
    check_in("ordering", name, ORDERINGS)
    if name == ORDER_ARBITRARY or len(tasks) == 0:
        return np.arange(len(tasks))
    loads = task_loads[tasks]
    l_ex = np.asarray(l_p, dtype=np.float64) - l_ave
    # Each task's segment: the first sort key, needless for one segment.
    segments = (
        None if len(bounds) == 2
        else np.repeat(np.arange(len(bounds) - 1), bounds[1:] - bounds[:-1])
    )
    if name == ORDER_LOAD_INTENSIVE:
        cut = np.full(len(bounds) - 1, np.inf)
    elif name == ORDER_FEWEST_MIGRATIONS:
        # The lightest task above the excess; +inf (all descending, Alg.
        # 5 l.3-4) when no single task exceeds it.
        over = np.where(loads > _per_task(l_ex, segments), loads, np.inf)
        cut = _segment_min(over, bounds)
    else:
        cut = _marginal_loads(loads, bounds, l_ex, segments)
    keys = () if segments is None else (segments,)
    return _two_group_sort(loads, _per_task(cut, segments), *keys)


def _per_task(values: np.ndarray, segments: np.ndarray | None):
    """A per-segment value for every task (the scalar, for one segment)."""
    return values[0] if segments is None else values[segments]


def _segment_min(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Each segment's minimum (+inf for an empty segment)."""
    starts, filled = bounds[:-1], bounds[1:] > bounds[:-1]
    if filled.all():
        return np.minimum.reduceat(values, starts)
    out = np.full(starts.size, np.inf)
    if filled.any():
        out[filled] = np.minimum.reduceat(values, starts[filled])
    return out


def _marginal_loads(
    loads: np.ndarray, bounds: np.ndarray, l_ex: np.ndarray, segments: np.ndarray | None
) -> np.ndarray:
    """Alg. 6's ``l_marg`` per segment: the load at which the ascending
    prefix sum first reaches the excess (the heaviest load when none
    does), or ``-inf`` — plain ascending order — for a segment that is
    not actually overloaded."""
    cut = np.full(len(bounds) - 1, -np.inf)
    keys = (loads,) if segments is None else (loads, segments)
    ascending = loads[np.lexsort(keys)]
    for i in np.flatnonzero((l_ex > 0.0) & (bounds[1:] > bounds[:-1])).tolist():
        sorted_loads = ascending[bounds[i] : bounds[i + 1]]
        crossing = np.searchsorted(np.cumsum(sorted_loads), l_ex[i], side="left")
        cut[i] = sorted_loads[min(crossing, sorted_loads.size - 1)]
    return cut


def order_tasks(
    name: str, tasks: np.ndarray, task_loads: np.ndarray, l_ave: float, l_p: float
) -> np.ndarray:
    """Order one sender's tasks by a named ordering (Alg. 2 l.3): a
    batch of one for :func:`order_segments`."""
    tasks = np.asarray(tasks, dtype=np.int64)
    bounds = np.array([0, tasks.size])
    return tasks[order_segments(name, tasks, bounds, task_loads, l_ave, np.array([l_p]))]
