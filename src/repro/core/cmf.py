"""Algorithm 2, BUILDCMF — recipient-selection distributions.

An overloaded rank picks the recipient of each candidate transfer by
sampling a cumulative mass function over the underloaded ranks it knows.
A rank's probability mass is proportional to its *known* load headroom
``1 - LOAD^p(i) / l_s``:

``original`` (GrapevineLB)
    ``l_s = l_ave``. Well-defined only while every known load is below
    the average — true at inform time, but violated once the sender's
    own bookkeeping pushes a recipient past the average.

``modified`` (TemperedLB, § V-C)
    ``l_s = max(l_ave, max LOAD^p)``. Keeps every mass non-negative when
    the relaxed criterion lets recipients exceed the average; ranks at
    exactly ``l_s`` get zero mass.

TemperedLB additionally *recomputes* the CMF after every accepted
transfer (Alg. 2 l.7) so the updated knowledge steers later picks; the
original computes it once (l.5).

Recomputing by calling :func:`build_cmf` from scratch costs O(n) per
accepted transfer, which dominates wall-time at the paper's § V
analysis scale. :class:`IncrementalCMF` maintains the same distribution
under single-recipient load updates in O(log n) via a Fenwick (binary
indexed) tree over the headroom masses, and rescales the tree in place
when ``l_s`` itself moves. Masses, the ``None``/exhausted condition and
the normalized prefix sums equal :func:`build_cmf`'s exactly; a
rescaled tree's nodes stay within rounding of a fresh build's, and its
draws land where :func:`sample_cmf`'s do
(``tests/core/test_cmf_incremental.py`` checks both property-style).
:meth:`IncrementalCMF.propose_pass` is the transfer stage's whole
sample → criterion → update loop, fused into one scalar pass for a
sender that consults nothing but its own CMF.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from math import inf

import numpy as np

from repro.util.validation import check_in

__all__ = ["CMF_ORIGINAL", "CMF_MODIFIED", "IncrementalCMF", "build_cmf", "sample_cmf"]

CMF_ORIGINAL = "original"
CMF_MODIFIED = "modified"


def build_cmf(
    known_loads: np.ndarray, l_ave: float, variant: str = CMF_MODIFIED
) -> np.ndarray | None:
    """Build the CMF ``F`` over known underloaded ranks (Alg. 2 l.21-31).

    Parameters
    ----------
    known_loads:
        ``LOAD^p`` — the sender's current knowledge of each candidate's
        load, aligned with its candidate list.
    l_ave:
        Global average rank load from the statistics all-reduce.
    variant:
        ``"original"`` or ``"modified"``.

    Returns
    -------
    The cumulative masses (last entry 1.0), or ``None`` when no candidate
    has positive mass (e.g. empty candidate list, or every known load at
    or above ``l_s``) — the caller must then stop transferring.
    """
    check_in("cmf", variant, (CMF_ORIGINAL, CMF_MODIFIED))
    loads = np.asarray(known_loads, dtype=np.float64)
    if loads.size == 0:
        return None
    if variant == CMF_ORIGINAL:
        l_s = l_ave
    else:
        l_s = max(l_ave, float(loads.max()))
    if l_s <= 0.0:
        return None
    # Negative masses can only arise in the original variant once a known
    # load exceeds l_ave; clamp so such ranks simply receive zero mass.
    masses = _masses(loads, l_s)
    z = masses.sum()
    if z <= 0.0:
        return None
    cmf = np.cumsum(masses / z)
    cmf[-1] = 1.0  # guard against rounding drift
    return cmf


def sample_cmf(cmf: np.ndarray, rng: np.random.Generator) -> int:
    """Sample a candidate index from a CMF built by :func:`build_cmf`."""
    u = rng.random()
    return int(np.searchsorted(cmf, u, side="right"))


def _masses(loads: np.ndarray | list[float], l_s: float | np.ndarray) -> np.ndarray:
    """The headroom masses ``1 - load / l_s``, clamped at zero (written
    in place into the quotient: a walk evaluates thousands of them)."""
    masses = np.true_divide(np.asarray(loads, dtype=np.float64), l_s)
    np.subtract(1.0, masses, out=masses)
    return np.maximum(masses, 0.0, out=masses)


# -- incremental maintenance (the Alg. 2 l.7 fast path) --------------------


#: Rescales of one tree in a row before a full rebuild resets its drift.
_RESCALES = 8


@lru_cache(maxsize=32)
def _fenwick_parents(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``i - lowbit(i)``, and ``lowbit(i)`` as floats (the leaves node
    ``i`` covers), for ``i`` in ``0..n``: read-only, cached per ``n``, as
    a stage builds and rescales trees of a few sizes thousands of times.
    """
    idx = np.arange(n + 1)
    lowbit = idx & -idx
    parents, counts = idx - lowbit, lowbit.astype(np.float64)
    parents.flags.writeable = counts.flags.writeable = False
    return parents, counts


def _fenwick_build(values: np.ndarray, length: int = 0) -> np.ndarray:
    """Fenwick tree over ``values`` (1-indexed partial sums), built O(n).

    Node ``i`` holds ``sum(values[i - lowbit(i):i])``, a difference of
    cumulative sums (node 0 is the unused zero slot). Nodes past ``n``
    up to ``length`` are +inf: a descent never takes one, and an add
    that walks into them leaves them +inf. A Python list serves scalar
    indexing about three times faster than an ndarray, but ``tolist()``
    is the dearest step of a build, so only a caller about to make many
    such accesses converts.
    """
    n = values.size
    prefix = np.empty(n + 1, dtype=np.float64)
    prefix[0] = 0.0
    np.add.accumulate(values, out=prefix[1:])  # ``cumsum`` without its wrapper
    tree = np.empty(max(length, n + 1))
    tree[n + 1 :] = inf
    np.subtract(prefix, prefix[_fenwick_parents(n)[0]], out=tree[: n + 1])
    return tree


@lru_cache(maxsize=8)
def _fenwick_paths(n: int) -> tuple[tuple[int, ...], ...]:
    """The nodes :func:`_fenwick_add` touches for each 0-based index of
    an ``n``-node tree, cached per ``n``: O(n log n) steps to build,
    which a walk pays back only after about ``n`` accepts."""
    paths = []
    for index in range(n):
        path = []
        i = index + 1
        while i <= n:
            path.append(i)
            i += i & -i
        paths.append(tuple(path))
    return tuple(paths)


@lru_cache(maxsize=None)
def _levels(n_bits: int) -> tuple[int, ...]:
    """Descent offsets, highest first, over ``2 ** n_bits`` tree nodes."""
    return tuple(1 << k for k in reversed(range(n_bits)))


def _fenwick_add(tree: list[float] | np.ndarray, index: int, delta: float) -> None:
    """Add ``delta`` to 0-based ``index``."""
    n = len(tree) - 1
    i = index + 1
    while i <= n:
        tree[i] += delta
        i += i & -i


def _fenwick_search(tree: list[float] | np.ndarray, target: float) -> int:
    """Smallest 0-based ``i`` whose inclusive prefix sum exceeds ``target``:
    ``searchsorted(cumsum, target, side="right")`` over unnormalized masses."""
    n = len(tree) - 1
    idx = 0
    bit = 1 << (n.bit_length() - 1) if n else 0
    remaining = target
    while bit:
        nxt = idx + bit
        if nxt <= n and tree[nxt] <= remaining:
            idx = nxt
            remaining -= tree[nxt]
        bit >>= 1
    return idx


def _resolve_drift(masses: np.ndarray, target: float) -> int:
    """The candidate a draw of ``target`` lands on, from exact prefix sums.

    The fallback for a Fenwick descent that float drift in the tree or
    the running total pushed onto a zero mass or past the end. A
    ``searchsorted`` hit inside the array always has positive mass (its
    prefix sum rose there); a draw beyond every prefix sum resolves to
    the last candidate with positive mass, never to a trailing zero.
    """
    idx = int(np.searchsorted(np.cumsum(masses), target, side="right"))
    if idx < masses.size:
        return idx
    return int(np.flatnonzero(masses)[-1])


def _clears(
    tasks: list[float], pos: int, p_load: float, threshold_load: float, reach: int
) -> bool:
    """Whether ``reach`` more accepts from ``pos`` would all leave
    ``p_load`` above the threshold, in the walk's own float order."""
    if len(tasks) - pos < reach:
        return False
    for o_load in islice(tasks, pos, pos + reach):
        p_load -= o_load
        if p_load <= threshold_load:
            return False
    return True


def _certain(o_loads: np.ndarray, pos: int, p_load: float, threshold_load: float) -> int:
    """The proposals a walk from ``pos`` is certain to make: the tasks
    left, cut where accepting every one would reach the threshold.

    ``subtract.accumulate`` folds left to right, so each running load
    has the bits of the walk's own ``p_load -= o_load``.
    """
    run = np.subtract.accumulate(np.concatenate(([p_load], o_loads[pos:])))
    crossed = np.flatnonzero(run[1:] <= threshold_load)
    return int(crossed[0]) + 1 if crossed.size else run.size - 1


class IncrementalCMF:
    """The BUILDCMF distribution under incremental load updates.

    Maintains, for a fixed candidate list, the distribution
    :func:`build_cmf` computes — exactly, element for element — while
    supporting O(log n) single-candidate updates and draws. A mass is a
    function of its load and ``l_s``, so none is stored: ``masses``
    evaluates :func:`build_cmf`'s expression over the current loads,
    and what is maintained is their ``total``, positive count and
    Fenwick tree.

    - ``update(idx, new_load)`` adjusts one candidate's known load (the
      effect of one accepted transfer or one nack correction). Only the
      touched mass and the Fenwick tree path change, unless
      ``l_s = max(l_ave, max LOAD^p)`` itself moves (a new running
      maximum, or the old maximum shrinking): then :meth:`_rescale`.
    - ``sample(rng)`` draws a candidate with probability proportional to
      its mass, consuming exactly one uniform — the same RNG cost as
      :func:`sample_cmf` — via Fenwick descent on ``u * total``.
    - ``exhausted`` is True exactly when :func:`build_cmf` would return
      ``None`` for the current loads (no candidate with positive mass).

    ``builds`` counts the distributions defined (the first build, then
    each move of ``l_s``, rescaled, rebuilt or skipped) and ``updates``
    point updates.
    ``clone()`` copies the scalars, counters included, and shares
    ``loads`` and the tree until either twin first writes (``_own``).
    """

    __slots__ = (
        "loads", "l_ave", "variant", "l_s", "total", "n_positive", "builds", "updates",
        "_tree", "_max_load", "_rescales", "_shared",
    )

    def __init__(
        self, known_loads: np.ndarray, l_ave: float, variant: str = CMF_MODIFIED, copy: bool = True
    ) -> None:
        check_in("cmf", variant, (CMF_ORIGINAL, CMF_MODIFIED))
        self.loads = np.array(known_loads, dtype=np.float64, copy=copy)
        self.l_ave = float(l_ave)
        self.variant = variant
        self.builds, self.updates, self._shared = 0, 0, False
        self._rebuild()

    @classmethod
    def many(
        cls, known_loads: np.ndarray, bounds: np.ndarray, l_ave: float, variant: str = CMF_MODIFIED
    ) -> list["IncrementalCMF"]:
        """One sampler per segment ``known_loads[bounds[i]:bounds[i+1]]``.

        Each is what ``cls(segment, l_ave, variant, copy=False)`` builds,
        bit for bit, and its ``loads`` is a view of the segment. The
        elementwise parts of the build — maxima, masses, positive
        counts and Fenwick nodes — run once over every segment; only the
        two float folds whose order is the segment's own, the mass sum
        and the prefix sum, run per segment. A segment that is empty or
        whose ``l_s`` is not positive (an exhausted sampler) takes the
        plain constructor.
        """
        check_in("cmf", variant, (CMF_ORIGINAL, CMF_MODIFIED))
        l_ave = float(l_ave)
        known_loads = np.asarray(known_loads, dtype=np.float64)
        if len(bounds) == 2:  # one segment: nothing to share
            return [cls(known_loads[bounds[0] : bounds[1]], l_ave, variant, copy=False)]
        bounds = np.asarray(bounds, dtype=np.int64)
        counts = np.diff(bounds)
        max_load = np.zeros(counts.size)
        filled = np.flatnonzero(counts > 0)
        if filled.size:
            max_load[filled] = np.maximum.reduceat(known_loads, bounds[filled])
        if variant == CMF_ORIGINAL:
            l_s = np.full(counts.size, l_ave)
        else:
            l_s = np.maximum(l_ave, max_load)
        live = (counts > 0) & (l_s > 0.0)
        # Every live l_s is l_ave under the snapshot view: one scalar
        # serves all. A dead segment's masses are never read; 1.0 keeps
        # them finite.
        if l_ave > 0.0 and (l_s[live] == l_ave).all():
            masses = _masses(known_loads, l_ave)
        else:
            masses = _masses(known_loads, np.repeat(np.where(live, l_s, 1.0), counts))
        positive = np.zeros(counts.size, dtype=np.int64)
        if filled.size:
            positive[filled] = np.add.reduceat(masses > 0.0, bounds[filled], dtype=np.int64)
        # Segment i's tree is row i of one (segments, width) matrix, the
        # width of the largest; +inf past the segment's n nodes.
        width = 1 << int(counts.max(initial=0)).bit_length()
        prefix = np.zeros((counts.size, width))
        trees = np.empty_like(prefix)
        samplers: list[IncrementalCMF] = []
        for i, (start, end, alive, l_s_i, max_i, positive_i) in enumerate(zip(
            bounds[:-1].tolist(), bounds[1:].tolist(), live.tolist(), l_s.tolist(),
            max_load.tolist(), positive.tolist(),
        )):
            segment = known_loads[start:end]
            if not alive:
                samplers.append(cls(segment, l_ave, variant, copy=False))
                continue
            own = masses[start:end]
            sampler = cls.__new__(cls)
            sampler.loads, sampler.l_ave, sampler.variant = segment, l_ave, variant
            sampler.builds, sampler.updates, sampler._shared, sampler._rescales = 1, 0, False, 0
            sampler.l_s, sampler._max_load, sampler.n_positive = l_s_i, max_i, positive_i
            # The segment's own ``sum`` and ``cumsum``, minus their wrappers.
            sampler.total = float(np.add.reduce(own))
            np.add.accumulate(own, out=prefix[i, 1 : own.size + 1])
            sampler._tree = trees[i, : 1 << own.size.bit_length()]  # filled below
            samplers.append(sampler)
        # Node j = prefix[j] - prefix[j - lowbit(j)], one lowbit at a
        # time: the nodes of lowbit k sit at offset k of each run of 2k
        # nodes, their parents at offset 0 — strided, no index array.
        trees[:, 0] = 0.0
        k = 1
        while k < width:
            shape = (counts.size, width // (2 * k), 2 * k)
            runs, nodes = prefix.reshape(shape), trees.reshape(shape)
            np.subtract(runs[:, :, k], runs[:, :, 0], out=nodes[:, :, k])
            k *= 2
        trees[np.arange(width) > counts[:, None]] = inf
        return samplers

    def clone(self) -> "IncrementalCMF":
        """An independent twin, copy-on-write: see the class docstring."""
        twin = type(self).__new__(type(self))
        twin.loads, twin._tree, twin.l_ave = self.loads, self._tree, self.l_ave
        twin.variant, twin.l_s, twin.total = self.variant, self.l_s, self.total
        twin.n_positive, twin._max_load = self.n_positive, self._max_load
        twin.builds, twin.updates, twin._rescales = self.builds, self.updates, self._rescales
        twin._shared = self._shared = True
        return twin

    def _own(self) -> None:
        """Copy the ``loads`` and tree shared with a twin, before a write."""
        self.loads = self.loads.copy()
        if self._tree is not None:
            self._tree = self._tree.copy()
        self._shared = False

    def _rebuild(self) -> None:
        """Recompute l_s/total/tree from scratch — build_cmf's O(n)."""
        self.builds += 1
        loads = self.loads
        self.total = 0.0
        self.n_positive = self._rescales = 0
        self._tree = None
        if loads.size == 0:
            self._max_load = self.l_s = 0.0
            return
        # ``max`` and ``sum`` as their ufunc reductions, minus the
        # wrappers: a walk rebuilds thousands of small trees.
        self._max_load = float(np.maximum.reduce(loads))
        self.l_s = self.l_ave if self.variant == CMF_ORIGINAL else max(self.l_ave, self._max_load)
        if self.l_s <= 0.0:
            return
        masses = _masses(loads, self.l_s)
        self.total = float(np.add.reduce(masses))
        self.n_positive = int(np.count_nonzero(masses))
        self._tree = _fenwick_build(masses, 1 << loads.size.bit_length())

    @property
    def masses(self) -> np.ndarray:
        """Each candidate's mass, as :func:`build_cmf` computes it (all
        zero while ``l_s <= 0``)."""
        if self.l_s <= 0.0:
            return np.zeros_like(self.loads)
        return _masses(self.loads, self.l_s)

    def _mass(self, load: float) -> float:
        """One candidate's mass: the same float operations as ``masses``."""
        headroom = 1.0 - load / self.l_s
        return headroom if headroom > 0.0 else 0.0

    def _list_tree(self) -> list[float]:
        """The Fenwick tree as a list, converted on first scalar use."""
        tree = self._tree
        if type(tree) is not list:
            tree = self._tree = tree.tolist()
        return tree

    @property
    def exhausted(self) -> bool:
        """True exactly when :func:`build_cmf` would return ``None``."""
        return self.loads.size == 0 or self.l_s <= 0.0 or self.n_positive == 0

    def _rescale(self, idx: int, old_load: float, new_load: float) -> None:
        """Move ``l_s`` to ``max(l_ave, max LOAD^p)`` after ``idx``'s load
        went from ``old_load`` to ``new_load``. No mass is clamped under the
        modified CMF, so a node over ``c`` leaves holds ``c - S / l_s``
        (``S`` their load sum): the update is added at the old scale (its
        mass may go negative), then every node maps to ``c - (c - node) *
        r``, ``r = l_s / l_s'``, and ``total`` likewise. A list tree is
        rescaled as an array, so a fused pass and ``update()`` keep equal
        bits. :meth:`_rebuild` runs instead when ``r`` is outside [1/2, 2],
        after ``_RESCALES`` in a row, or on a scale <= 0."""
        old_l_s, l_s = self.l_s, max(self.l_ave, self._max_load)
        r = old_l_s / l_s if l_s > 0.0 else 0.0
        tree = self._tree
        if tree is None or not 0.5 <= r <= 2.0 or self._rescales == _RESCALES:
            self._rebuild()
            return
        self.builds += 1
        self._rescales += 1
        delta = (1.0 - new_load / old_l_s) - (1.0 - old_load / old_l_s)
        if type(tree) is list:
            tree = self._tree = np.array(tree, dtype=np.float64)
        _fenwick_add(memoryview(tree), idx, delta)  # scalar adds, as Python floats
        n = self.loads.size
        nodes, counts = tree[: n + 1], _fenwick_parents(n)[1]
        np.subtract(counts, nodes, out=nodes)
        np.multiply(nodes, r, out=nodes)
        np.subtract(counts, nodes, out=nodes)
        self.total = n - (n - (self.total + delta)) * r
        self.l_s = l_s
        # A rise leaves every candidate but ``idx`` below the new maximum.
        self.n_positive = n - 1 if r < 1.0 else int(np.count_nonzero(self.loads < l_s))

    def update(self, idx: int, new_load: float) -> None:
        """Set candidate ``idx``'s known load, maintaining the masses:
        O(log n), or a :meth:`_rescale` when ``l_s`` moves."""
        self.updates += 1
        if self._shared:
            self._own()
        loads = self.loads
        old_load = float(loads[idx])
        new_load = float(new_load)
        loads[idx] = new_load
        if self.variant == CMF_MODIFIED:
            if new_load > self._max_load:
                self._max_load = new_load
            elif old_load == self._max_load and new_load < old_load:
                self._max_load = float(loads.max())
            if max(self.l_ave, self._max_load) != self.l_s:
                self._rescale(int(idx), old_load, new_load)
                return
        if self.l_s <= 0.0 or self._tree is None:
            return  # degenerate distribution: every mass pinned at zero
        old_mass, new_mass = self._mass(old_load), self._mass(new_load)
        if new_mass == old_mass:
            return
        if old_mass == 0.0:
            self.n_positive += 1
        elif new_mass == 0.0:
            self.n_positive -= 1
        delta = new_mass - old_mass
        self.total += delta
        _fenwick_add(self._list_tree(), int(idx), delta)

    def sample(self, rng: np.random.Generator) -> int:
        """Draw a candidate index; one uniform, like :func:`sample_cmf`."""
        if self.exhausted:
            raise ValueError("cannot sample an exhausted CMF")
        u = rng.random()
        target = u * self.total
        idx = _fenwick_search(self._list_tree(), target)
        if idx >= self.loads.size or self._mass(self.loads.item(idx)) <= 0.0:
            idx = _resolve_drift(self.masses, target)
        return int(idx)

    def propose_pass(
        self, o_loads: np.ndarray, p_load: float, threshold_load: float, relaxed: bool,
        rng: np.random.Generator,
    ) -> tuple[list[int], list[int], float, int]:
        """Walk a sender's ordered task loads, proposing each in turn.

        The fused form of the transfer stage's inner loop (Alg. 2
        l.4-18) for a sender whose view is this sampler alone: per task,
        stop once ``p_load`` is at or below ``threshold_load`` or the
        CMF is exhausted; otherwise ``sample`` a candidate with one
        uniform, apply the criterion (``relaxed``: l.37, else l.35) to
        its known load, and on accept ``update`` that load by the
        task's. ``sample`` and ``update`` are inlined over locals in
        their exact float order, so every draw, decision and counter is
        what the method calls would produce. Accepts are only recorded:
        returns ``(accepted walk positions, their candidate indices,
        the sender's final load, rejection count)``. The accept that
        takes ``p_load`` to the threshold is not applied: no draw reads
        it and the caller discards the sampler, so only ``builds`` (if
        it moves ``l_s``) and ``updates`` count it. Any other accept
        that moves ``l_s`` ends the segment, one per distribution, with
        the :meth:`_rescale` that ``update()`` runs.

        A segment whose next ``size/64 + 1`` accepts
        would all leave ``p_load`` above the threshold is *long*: it
        walks the tree as a list, which pays for its conversion within
        that many proposals, and takes its uniforms from one
        ``rng.random(n)``, ``n`` being the proposals the pass is certain
        to make (rejections only delay the crossing). A chunk carries
        over into the next segment; if the pass ends before the chunk
        does, the generator is rewound and exactly the uniforms used are
        redrawn, so it ends where one ``random()`` per proposal would
        leave it. A long segment with at least ``size`` proposals left
        in its chunk is a *list segment*: it also holds the loads as a
        list, written back at its end, and adds along the cached paths
        of :func:`_fenwick_paths` — O(size) a segment, which that many
        proposals repay. Every other segment reads and writes the loads
        through a ``memoryview``. A short segment indexes the tree as
        built and draws one ``random()`` per proposal.
        """
        l_ave = self.l_ave
        modified = self.variant == CMF_MODIFIED
        size = self.loads.size
        bits = _levels(size.bit_length())
        reach = (size >> 6) + 1
        tasks = o_loads.tolist()
        n_tasks = len(tasks)
        acc_pos: list[int] = []
        acc_idx: list[int] = []
        push_pos, push_idx = acc_pos.append, acc_idx.append
        rejected = 0
        pos = chunk_pos = chunk_end = 0
        # A memoryview indexes as Python floats and writes through; a
        # clone's is read-only, so its first write raises and copies.
        view = memoryview(self.loads)
        if self._shared:
            view = view.toreadonly()
        # n_positive == 0 covers ``exhausted`` (no candidates and l_s <= 0
        # both pin it at zero).
        while pos < n_tasks and p_load > threshold_load and self.n_positive:
            # One segment per distribution: the sampler's scalars live
            # in locals until l_s moves.
            l_s = self.l_s
            total, n_positive, max_load = self.total, self.n_positive, self._max_load
            long_walk = pos < chunk_end or _clears(tasks, pos, p_load, threshold_load, reach)
            loads, paths = view, None
            if not long_walk:
                draw, stop, tree = rng.random, n_tasks, self._tree
                if type(tree) is not list:
                    tree = memoryview(tree)
            else:
                if pos >= chunk_end:
                    saved = rng.bit_generator.state
                    chunk_pos, chunk_end = pos, pos + _certain(o_loads, pos, p_load, threshold_load)
                    draw = iter(rng.random(chunk_end - pos).tolist()).__next__
                stop = chunk_end
                if chunk_end - pos >= size:  # owns up front, not per accept
                    if self._shared:
                        self._own()
                        view = memoryview(self.loads)
                    loads, paths = self.loads.tolist(), _fenwick_paths(size)
                tree = self._list_tree()
            moved = False
            for o_load in islice(tasks, pos, stop):
                if not n_positive:
                    break
                target = draw() * total
                idx = 0
                remaining = target
                for bit in bits:
                    nxt = idx + bit
                    node = tree[nxt]
                    if node <= remaining:
                        idx = nxt
                        remaining -= node
                # ``_mass`` inlined; past the end reads as a rank at l_s.
                l_x = loads[idx] if idx < size else l_s
                mass = 1.0 - l_x / l_s
                if mass <= 0.0:
                    idx = _resolve_drift(_masses(loads, l_s), target)
                    l_x = loads[idx]
                    mass = 1.0 - l_x / l_s
                if (o_load < p_load - l_x) if relaxed else (l_x + o_load < l_ave):
                    push_pos(pos)
                    push_idx(idx)
                    pos += 1
                    p_load -= o_load
                    new_load = l_x + o_load
                    if p_load <= threshold_load:  # the last accept
                        if modified and new_load > l_s:  # the skipped rebuild
                            self.builds += 1
                        break
                    try:
                        loads[idx] = new_load
                    except TypeError:  # a clone's first write: own, then write
                        self._own()
                        loads = view = memoryview(self.loads)
                        tree = self._tree if type(self._tree) is list else memoryview(self._tree)
                        loads[idx] = new_load
                    if modified:
                        if new_load > max_load:
                            max_load = new_load
                            if new_load > l_s:
                                moved = True
                                break
                        elif new_load < l_x and l_x == max_load:
                            max_load = max(loads)
                            if max(l_ave, max_load) != l_s:
                                moved = True
                                break
                    headroom = 1.0 - new_load / l_s
                    new_mass = headroom if headroom > 0.0 else 0.0
                    if new_mass != mass:
                        # ``mass`` > 0: the descent only lands on mass.
                        if new_mass == 0.0:
                            n_positive -= 1
                        delta = new_mass - mass
                        total += delta
                        if paths is None:
                            i = idx + 1
                            while i <= size:
                                tree[i] += delta
                                i += i & -i
                        else:
                            for i in paths[idx]:
                                tree[i] += delta
                else:
                    rejected += 1
                    pos += 1
            if paths is not None:
                self.loads[:] = loads
            self.total, self.n_positive, self._max_load = total, n_positive, max_load
            if moved:
                self._rescale(idx, l_x, new_load)
        if pos < chunk_end:
            rng.bit_generator.state = saved
            rng.random(pos - chunk_pos)
        self.updates += len(acc_pos)
        return acc_pos, acc_idx, p_load, rejected
