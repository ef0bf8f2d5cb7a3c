"""The bit-row merge and popcount contract of ``core/knowledge.py``.

``_PackedStore.merge(receivers, bounds, payloads, src)`` ORs group
``i`` — ``payloads[src[bounds[i]:bounds[i + 1]]]`` — into
``rows[receivers[i]]`` and leaves every complete receiver's row alone.
Here it must equal a plain per-message ``np.bitwise_or`` loop, byte for
byte, over row widths that are and are not whole 64-bit words, groups of
one beside a group of hundreds (the shape of a saturating round),
repeated sources, and payloads built both ways the inform loop builds
them: a gathered snapshot indexed by sender, or fault-path parts
concatenated with ``src = arange``.

``_popcounts`` must equal the byte popcount whatever the layout.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knowledge import _PackedStore, _popcounts


def _random_rows(rng, n_rows, n_ranks):
    """Packed rows of ``n_ranks`` bits with the padding bits clear."""
    return np.packbits(rng.random((n_rows, n_ranks)) < rng.random(), axis=1)


def _reference_merge(rows, complete, receivers, bounds, payloads, src):
    rows = rows.copy()
    for i, r in enumerate(receivers.tolist()):
        if complete[r]:
            continue
        for k in range(bounds[i], bounds[i + 1]):
            np.bitwise_or(rows[r], payloads[src[k]], out=rows[r])
    return rows


@st.composite
def merges(draw):
    n_ranks = 8 * draw(st.integers(1, 70), label="width") - draw(st.integers(0, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="stream"))
    n_recv = draw(st.integers(0, min(n_ranks, 40)), label="receivers")
    receivers = np.sort(rng.choice(n_ranks, n_recv, replace=False)).astype(np.int64)
    sizes = rng.integers(1, 7, n_recv)
    if n_recv and draw(st.booleans(), label="one big group"):
        sizes[:] = 1
        sizes[rng.integers(n_recv)] = draw(st.integers(300, 420), label="big group")
    bounds = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    n_msgs = int(bounds[-1])
    if draw(st.booleans(), label="fault-path payloads"):
        cuts = np.sort(rng.integers(0, n_msgs + 1, draw(st.integers(0, 3))))
        parts = np.split(_random_rows(rng, n_msgs, n_ranks), cuts)
        payloads, src = np.concatenate(parts), np.arange(n_msgs)
    else:
        # A snapshot of a few senders, each payload used many times.
        n_senders = draw(st.integers(1, 8), label="senders")
        payloads = _random_rows(rng, n_senders, n_ranks)
        src = rng.integers(0, n_senders, n_msgs)
    rows = _random_rows(rng, n_ranks, n_ranks)
    complete = rng.random(n_ranks) < draw(st.sampled_from([0.0, 0.3, 1.0]), label="complete")
    return n_ranks, rows, complete, receivers, bounds, payloads, src


@settings(max_examples=150, deadline=None)
@given(merges())
def test_merge_equals_per_message_or_loop(case):
    n_ranks, rows, complete, receivers, bounds, payloads, src = case
    no_seeds, loads = np.empty(0, np.int64), np.zeros(n_ranks)
    store = _PackedStore(n_ranks, no_seeds, None, "lowest", loads, np.random.default_rng(0))
    store.rows[:] = rows
    store.complete[:] = complete
    expected = _reference_merge(rows, complete, receivers, bounds, payloads, src)
    payloads_before = payloads.copy()
    store.merge(receivers, bounds, payloads, src)
    np.testing.assert_array_equal(store.rows, expected)
    np.testing.assert_array_equal(store.rows[complete], rows[complete])
    np.testing.assert_array_equal(payloads, payloads_before)


def _byte_popcounts(rows):
    return np.unpackbits(rows, axis=1).sum(axis=1, dtype=np.int64)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 20),
    st.integers(1, 70),
    st.sampled_from(["whole", "column slice", "strided"]),
    st.integers(0, 2**32 - 1),
)
def test_popcounts_equal_byte_popcounts(n_rows, width, layout, seed):
    full = np.random.default_rng(seed).integers(0, 256, (n_rows, width + 9), dtype=np.uint8)
    rows = {
        "whole": np.ascontiguousarray(full[:, :width]),
        "column slice": full[:, 1 : 1 + width],
        "strided": full[:, ::2][:, : max(1, width // 2)],
    }[layout]
    np.testing.assert_array_equal(_popcounts(rows), _byte_popcounts(rows))


def test_popcounts_on_word_and_odd_widths():
    """400 ranks are 50 bytes (not whole words), 4,096 are 512."""
    rng = np.random.default_rng(1)
    for width in (1, 7, 8, 50, 64, 512, 513):
        rows = rng.integers(0, 256, (5, width), dtype=np.uint8)
        np.testing.assert_array_equal(_popcounts(rows), _byte_popcounts(rows))
        np.testing.assert_array_equal(_popcounts(rows[:, 1:]), _byte_popcounts(rows[:, 1:]))
