"""Compiled inner loops for the transfer and inform stages.

Transfer (Alg. 2 l.4-18): the hot core of
:func:`repro.core.transfer.transfer_stage` is a scalar per-task loop —
sample a recipient from the CMF, evaluate the criterion, apply the
incremental mass update. This module provides that loop as a single
kernel function over flat arrays — the Fenwick tree, the mass vector
and the sender's task walk — written in numba-compatible scalar style.

Inform (Alg. 1, sparse store): the hot core of the round loop's
sparse adapter (:class:`repro.core.gossip._SparseStore`)
is three scalar loops over sorted ``int32`` id shards — the two-way
merge/dedup of a receiver's shard with a payload
(:func:`merge_shards`), per-draw shard membership for the rejection
sampler (:func:`shard_membership`) and the coverage segment sums
(:func:`coverage_hits`). Each has a vectorized NumPy equivalent in its
caller; the scalar kernels here win once jitted because they skip the
temporaries (flat int64 key arrays, full-width sorts) the NumPy
formulation needs. All variants produce identical integer results, so
the choice never changes an episode.

When numba is importable the kernels are additionally offered as
``@njit``-compiled variants (``kernel="numba"`` on
:class:`~repro.core.transfer.TransferConfig` /
:class:`~repro.core.gossip.GossipConfig`); when it is not, the "numba"
spelling degrades to the pure-Python/NumPy path with a single
:class:`RuntimeWarning` per feature (:func:`warn_numba_missing`). The
transfer kernel runs the exact float operations of
:class:`repro.core.cmf.IncrementalCMF` in the same order, so decisions
are bit-identical across all three of {``IncrementalCMF.propose_pass``
(the default fused pass), Python kernel, jitted kernel}.

The kernel never owns the RNG: the driver
(``repro.core.transfer._kernel_pass``) pre-draws one uniform per
potential proposal, then rewinds the PCG64 bit generator, advances it
by the number actually consumed and puts back the cached 32-bit
half-word that ``advance`` clears. Only with all three steps is the
generator left exactly where the per-proposal ``rng.random()`` calls of
the other paths leave it — which matters from the second iteration of
an episode on, when the inform stage's bounded-integer draws have
populated that half-word
(``tests/core/test_transfer_soa.py::TestEpisodeIdentity``).

Kernel statuses (returned, never raised):

``PASS_DONE`` (0)
    Walked every task of the pass.
``PASS_THRESHOLD`` (1)
    The sender dropped to/below the threshold load mid-pass.
``PASS_EXHAUSTED`` (2)
    The sampler ran out of positive mass (``build_cmf`` would return
    ``None``); the caller stops transferring from this rank.
``PASS_REBUILD`` (3)
    An accepted transfer moved the CMF scale ``l_s`` — the one case
    :class:`IncrementalCMF` answers with a full O(n) rebuild. The
    kernel has already applied the triggering load write; the driver
    rebuilds the masses/tree and re-enters at the returned position.
"""

from __future__ import annotations

import warnings

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the in-repo default
    HAVE_NUMBA = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        """No-op decorator stand-in when numba is absent."""
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


__all__ = [
    "HAVE_NUMBA",
    "PASS_DONE",
    "PASS_THRESHOLD",
    "PASS_EXHAUSTED",
    "PASS_REBUILD",
    "get_transfer_pass",
    "transfer_pass",
    "merge_shards",
    "shard_membership",
    "coverage_hits",
    "get_gossip_kernels",
    "reset_numba_warnings",
    "warn_numba_missing",
]

#: Features that already warned about a missing numba (warn once each).
_WARNED_FEATURES: set[str] = set()


def reset_numba_warnings() -> None:
    """Forget which features have warned about a missing numba.

    The warn-once set is process-global, which is right for episodes but
    wrong for test isolation (an earlier test swallows the warning a
    later one asserts on) and for forked workers (a COW copy of the
    parent's pre-warmed set would silently suppress the child's first
    warning). Test fixtures and worker initializers call this to start
    from a clean slate.
    """
    _WARNED_FEATURES.clear()


def warn_numba_missing(feature: str) -> None:
    """Warn — once per feature — that ``kernel="numba"`` cannot compile.

    The degradation itself is safe (the pure-Python/NumPy path is
    bit-identical), so this is a :class:`RuntimeWarning` about *speed*
    expectations only, and repeating it per call would drown a long
    episode in noise.
    """
    if HAVE_NUMBA or feature in _WARNED_FEATURES:
        return
    _WARNED_FEATURES.add(feature)
    warnings.warn(
        f"kernel='numba' requested for {feature} but numba is not "
        "installed; running the bit-identical pure-Python path",
        RuntimeWarning,
        stacklevel=3,
    )

PASS_DONE = 0
PASS_THRESHOLD = 1
PASS_EXHAUSTED = 2
PASS_REBUILD = 3


def transfer_pass(
    o_loads,  # float64[:] task loads in traversal order
    pos,  # int: first position of `o_loads` to process
    uniforms,  # float64[:] pre-drawn uniforms, consumed sequentially
    u_pos,  # int: next uniform to consume
    loads_known,  # float64[:] sampler's known candidate loads (mutated)
    masses,  # float64[:] sampler's headroom masses (mutated)
    tree,  # float64[:] Fenwick tree, index 0 unused (mutated)
    total,  # float: sum of masses
    n_positive,  # int: count of positive masses
    max_load,  # float: sampler's running max of loads_known
    l_s,  # float: CMF scale (max(l_ave, max_load) for "modified")
    l_ave,  # float: global average load
    p_load,  # float: sender's current load
    threshold_load,  # float: h * l_ave
    variant_modified,  # bool: "modified" CMF (l_s tracks the max)
    criterion_relaxed,  # bool: relaxed criterion vs original
    acc_pos,  # int64[:] out: accepted positions in the walk
    acc_idx,  # int64[:] out: accepted candidate indices
):
    """One contiguous segment of a transfer pass; see module docstring.

    Returns ``(status, pos, u_pos, n_acc, n_rej, n_upd, total,
    n_positive, max_load, p_load)`` where ``pos``/``u_pos`` are the
    resume points and the counters cover only this segment.
    """
    n = o_loads.shape[0]
    size = masses.shape[0]
    n_acc = 0
    n_rej = 0
    n_upd = 0
    status = PASS_DONE
    while pos < n:
        if p_load <= threshold_load:
            status = PASS_THRESHOLD
            break
        if size == 0 or l_s <= 0.0 or n_positive == 0:
            status = PASS_EXHAUSTED
            break
        o_load = o_loads[pos]
        # -- IncrementalCMF.sample: Fenwick descent on u * total -------
        u = uniforms[u_pos]
        u_pos += 1
        target = u * total
        bit = 1
        while (bit << 1) <= size:
            bit <<= 1
        idx = 0
        remaining = target
        while bit:
            nxt = idx + bit
            if nxt <= size and tree[nxt] <= remaining:
                idx = nxt
                remaining -= tree[nxt]
            bit >>= 1
        if idx >= size or masses[idx] <= 0.0:
            # Drift fallback: resolve against exact sequential prefix
            # sums (== searchsorted(cumsum, target, side="right")).
            c = 0.0
            idx = size - 1
            for i in range(size):
                c += masses[i]
                if c > target:
                    idx = i
                    break
        # -- criterion --------------------------------------------------
        l_x = loads_known[idx]
        if criterion_relaxed:
            accept = o_load < p_load - l_x
        else:
            accept = l_x + o_load < l_ave
        if accept:
            acc_pos[n_acc] = pos
            acc_idx[n_acc] = idx
            n_acc += 1
            p_load -= o_load
            new_load = l_x + o_load
            # -- IncrementalCMF.update(idx, new_load) -------------------
            n_upd += 1
            old_load = loads_known[idx]
            loads_known[idx] = new_load
            if variant_modified:
                if new_load > max_load:
                    max_load = new_load
                    if new_load > l_s:
                        pos += 1
                        status = PASS_REBUILD
                        break
                elif old_load == max_load and new_load < old_load:
                    fresh = loads_known[0]
                    for i in range(1, size):
                        if loads_known[i] > fresh:
                            fresh = loads_known[i]
                    max_load = fresh
                    ls_next = l_ave if l_ave > fresh else fresh
                    if ls_next != l_s:
                        pos += 1
                        status = PASS_REBUILD
                        break
            old_mass = masses[idx]
            headroom = 1.0 - new_load / l_s
            new_mass = headroom if headroom > 0.0 else 0.0
            if new_mass != old_mass:
                masses[idx] = new_mass
                if old_mass == 0.0:
                    n_positive += 1
                elif new_mass == 0.0:
                    n_positive -= 1
                delta = new_mass - old_mass
                total += delta
                i = idx + 1
                while i <= size:
                    tree[i] += delta
                    i += i & -i
        else:
            n_rej += 1
        pos += 1
    return (status, pos, u_pos, n_acc, n_rej, n_upd, total, n_positive, max_load, p_load)


if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed
    _transfer_pass_jit = njit(cache=False)(transfer_pass)
else:
    _transfer_pass_jit = transfer_pass


def get_transfer_pass(use_numba: bool):
    """The kernel callable for ``kernel="numba"`` (jitted when numba is
    installed, the identical Python function otherwise) or
    ``kernel="python"``."""
    return _transfer_pass_jit if use_numba else transfer_pass


# ---------------------------------------------------------------------------
# Inform-stage kernels (sparse knowledge shards; see module docstring).
# ---------------------------------------------------------------------------


def merge_shards(a, b, out):
    """Two-pointer union of sorted unique id arrays ``a`` and ``b``.

    Writes the sorted, duplicate-free union into ``out`` (which must
    hold at least ``a.size + b.size`` elements) and returns its length.
    Value-identical to ``np.unique(np.concatenate((a, b)))``.
    """
    na = a.shape[0]
    nb = b.shape[0]
    i = 0
    j = 0
    k = 0
    while i < na and j < nb:
        x = a[i]
        y = b[j]
        if x < y:
            out[k] = x
            i += 1
        elif y < x:
            out[k] = y
            j += 1
        else:
            out[k] = x
            i += 1
            j += 1
        k += 1
    while i < na:
        out[k] = a[i]
        i += 1
        k += 1
    while j < nb:
        out[k] = b[j]
        j += 1
        k += 1
    return k


def shard_membership(flat, starts, lens, rows, draws, out):
    """``out[i, j] = draws[i, j] in segment rows[i]`` by binary search.

    ``flat`` is the concatenation of sorted shard segments;
    ``starts``/``lens`` delimit segment ``r`` as
    ``flat[starts[r] : starts[r] + lens[r]]``. Value-identical to the
    vectorized flat-key ``searchsorted`` membership test, without ever
    building the int64 key arrays.
    """
    n_rows = draws.shape[0]
    width = draws.shape[1]
    for i in range(n_rows):
        r = rows[i]
        lo0 = starts[r]
        hi0 = lo0 + lens[r]
        for j in range(width):
            x = draws[i, j]
            lo = lo0
            hi = hi0
            while lo < hi:
                mid = (lo + hi) >> 1
                if flat[mid] < x:
                    lo = mid + 1
                else:
                    hi = mid
            out[i, j] = lo < hi0 and flat[lo] == x


def coverage_hits(flat, lens, mask, out):
    """Per-segment count of ``flat`` members with ``mask`` set.

    The coverage segment sums: ``out[p]`` counts how many of rank
    ``p``'s shard members (the next ``lens[p]`` entries of ``flat``)
    are underloaded. Value-identical to the cumulative-sum formulation
    in :meth:`repro.core.knowledge.SparseKnowledge.coverage`.
    """
    pos = 0
    for p in range(lens.shape[0]):
        c = 0
        for _ in range(lens[p]):
            if mask[flat[pos]]:
                c += 1
            pos += 1
        out[p] = c


if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed
    _merge_shards_jit = njit(cache=False)(merge_shards)
    _shard_membership_jit = njit(cache=False)(shard_membership)
    _coverage_hits_jit = njit(cache=False)(coverage_hits)
else:
    _merge_shards_jit = merge_shards
    _shard_membership_jit = shard_membership
    _coverage_hits_jit = coverage_hits


def get_gossip_kernels():
    """The jitted ``(merge_shards, shard_membership, coverage_hits)``
    triple when numba is installed, else ``None``.

    ``None`` (rather than the Python builds) because the scalar loops
    are only competitive compiled; without numba the sparse gossip
    store uses its vectorized NumPy formulations instead — same
    values either way.
    """
    if not HAVE_NUMBA:
        return None
    return _merge_shards_jit, _shard_membership_jit, _coverage_hits_jit
