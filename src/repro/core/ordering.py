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

All functions are pure: they take the candidate task ids and the global
task-load array and return a new id array.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.util.validation import check_in

__all__ = [
    "ORDER_ARBITRARY",
    "ORDER_LOAD_INTENSIVE",
    "ORDER_FEWEST_MIGRATIONS",
    "ORDER_LIGHTEST",
    "ORDERINGS",
    "order_arbitrary",
    "order_load_intensive",
    "order_fewest_migrations",
    "order_lightest",
    "order_tasks",
]

ORDER_ARBITRARY = "arbitrary"
ORDER_LOAD_INTENSIVE = "load_intensive"
ORDER_FEWEST_MIGRATIONS = "fewest_migrations"
ORDER_LIGHTEST = "lightest"


def order_arbitrary(
    tasks: np.ndarray, task_loads: np.ndarray, l_ave: float, l_p: float
) -> np.ndarray:
    """Alg. 2 l.40-42: keep the identifying-index order."""
    return np.asarray(tasks, dtype=np.int64)


def order_load_intensive(
    tasks: np.ndarray, task_loads: np.ndarray, l_ave: float, l_p: float
) -> np.ndarray:
    """Alg. 4: most load-intensive tasks first (descending load).

    Ties broken by ascending task id for determinism.
    """
    tasks = np.asarray(tasks, dtype=np.int64)
    loads = task_loads[tasks]
    # stable sort on -load keeps ascending-id order within equal loads
    return tasks[np.argsort(-loads, kind="stable")]


def _two_group_order(
    tasks: np.ndarray, loads: np.ndarray, cut: float
) -> np.ndarray:
    """Tasks with load <= cut by descending load, then the rest ascending.

    This is the comparator shared by Alg. 5 (l.7-11, cut = l_cut) and
    Alg. 6 (l.7-11, cut = l_marg): one stable sort keyed on the group
    first and the signed load second, so equal keys keep input order.
    """
    light = loads <= cut
    return tasks[np.lexsort((np.where(light, -loads, loads), ~light))]


def order_fewest_migrations(
    tasks: np.ndarray, task_loads: np.ndarray, l_ave: float, l_p: float
) -> np.ndarray:
    """Alg. 5: minimize the number of migrations.

    ``l_ex = l^p - l_ave`` is the rank's excess. If no single task exceeds
    the excess, fall back to descending order (Alg. 5 l.3-4). Otherwise
    the cutoff task (lightest with load > l_ex) leads.
    """
    tasks = np.asarray(tasks, dtype=np.int64)
    if tasks.size == 0:
        return tasks
    loads = task_loads[tasks]
    l_ex = l_p - l_ave
    over = loads > l_ex
    if not over.any():
        return order_load_intensive(tasks, task_loads, l_ave, l_p)
    l_cut = float(loads[over].min())
    return _two_group_order(tasks, loads, l_cut)


def order_lightest(
    tasks: np.ndarray, task_loads: np.ndarray, l_ave: float, l_p: float
) -> np.ndarray:
    """Alg. 6: most lightweight tasks first, led by the marginal task.

    Sort ascending, find the first prefix whose cumulative load reaches
    the excess ``l_ex``; the load at that position is the marginal load
    ``l_marg``. Tasks up to ``l_marg`` go descending, the rest ascending.
    """
    tasks = np.asarray(tasks, dtype=np.int64)
    if tasks.size == 0:
        return tasks
    loads = task_loads[tasks]
    l_ex = l_p - l_ave
    ascending = np.argsort(loads, kind="stable")
    sorted_loads = loads[ascending]
    if l_ex <= 0.0:
        # Rank is not actually overloaded; the marginal task degenerates
        # to the lightest task and the order is simply ascending.
        return tasks[ascending]
    cumulative = np.cumsum(sorted_loads)
    crossing = np.searchsorted(cumulative, l_ex, side="left")
    if crossing >= sorted_loads.size:
        # Even migrating everything cannot cover the excess: the marginal
        # task is the heaviest one and the order is pure descending.
        l_marg = float(sorted_loads[-1])
    else:
        l_marg = float(sorted_loads[crossing])
    return _two_group_order(tasks, loads, l_marg)


OrderingFn = Callable[[np.ndarray, np.ndarray, float, float], np.ndarray]

ORDERINGS: dict[str, OrderingFn] = {
    ORDER_ARBITRARY: order_arbitrary,
    ORDER_LOAD_INTENSIVE: order_load_intensive,
    ORDER_FEWEST_MIGRATIONS: order_fewest_migrations,
    ORDER_LIGHTEST: order_lightest,
}


def order_tasks(
    name: str, tasks: np.ndarray, task_loads: np.ndarray, l_ave: float, l_p: float
) -> np.ndarray:
    """Dispatch to a named ordering (Alg. 2 l.3)."""
    check_in("ordering", name, ORDERINGS)
    return ORDERINGS[name](tasks, task_loads, l_ave, l_p)
