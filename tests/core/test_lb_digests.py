"""Pinned digests of inform stages, refinement episodes and LB-in-the-loop runs.

The inform sampler and the transfer stage's per-sender prologue are
rewritten for speed under the rule that *no decision, counter or RNG
draw moves*. Each digest is the ``sha256`` of everything a stage or an
episode hands back:

- an inform stage: the knowledge matrix, the per-round message and
  sender counts, the byte / message / fault totals and the sampling
  generator's final ``bit_generator.state``;
- an ``iterative_refinement`` episode: the best assignment and
  imbalance, every iteration row, the transfer / CMF / gossip counters
  of the registry and the final generator state;
- a ``run_empire`` run: the digest of ``tests/empire/test_identity.py``.

Cases span P in {64, 400, 4096}, the packed store and capped-"lowest"
stages on bit rows and on sorted arrays, faults on and off, and the
biased local/global split. The digests were generated at commit
``235256f`` (the last one with the argsort wave dedup and the two-sort
task ordering) by ``python tests/core/test_lb_digests.py`` with numpy
2.4.6 on x86-64, and must never be regenerated to make a change pass.
The two ``trials3`` cases (three trials, so the cross-trial best-of
selection is pinned) were generated the same way at commit ``71c4fa4``,
before the trial loop moved into one function shared with the
event-level family. ``episode-p400-threshold-0.9`` (senders that are
also recipients, so each is prepared alone) and ``episode-p4096-fewest``
(thousands of short Alg. 5 senders on bit rows) were generated at
commit ``4c76db6``, before the transfer stage prepared its senders a
block at a time. ``episode-p4096-rounds3`` and ``-rounds5`` (k = 3:
every sender's ``S^p`` its own; k = 5: distinct and shared ``S^p`` mixed
in one stage), ``episode-p400-random-cap512``
(a random trim whose cap exceeds the seed count, so rows holding every
seed are complete under a cap) and ``stage-p400-random-cap64`` (an
inform stage whose random-trim cap binds) were generated at commit
``431c106``, before senders with equal ``S^p`` shared one CMF build and
complete rank-ordered rows stopped taking merges.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.gossip import GossipConfig, run_inform_stage
from repro.core.refinement import iterative_refinement
from repro.core.transfer import TransferConfig
from repro.empire.app import EmpireConfig
from repro.obs import StatsRegistry
from repro.sim.faults import FaultConfig
from repro.workloads.synthetic import paper_analysis_scenario
from tests.empire.test_identity import QUICK, _app_digest

FAULTS = FaultConfig(loss_rate=0.1, delay_rate=0.2, duplicate_rate=0.1, seed=3)
ACCOUNTING = (
    "n_messages", "bytes_sent", "inter_node_messages", "rounds_run",
    "per_round_messages", "per_round_senders",
    "dropped", "delayed", "duplicated", "retransmits", "expired",
)
COUNTERS = (
    "transfer.proposed", "transfer.accepted", "transfer.rejected",
    "transfer.nacked", "transfer.cmf_builds", "transfer.cmf_updates",
    "transfer.overloaded_ranks", "transfer.stalled_ranks",
    "gossip.messages", "gossip.bytes", "gossip.inter_node_messages",
)


def _hot_loads(n_ranks: int, seed: int) -> np.ndarray:
    """All load on a hot prefix of the ranks."""
    rng = np.random.default_rng(seed)
    task_loads = rng.gamma(3.0, 0.3, size=3 * n_ranks)
    assignment = rng.integers(0, max(2, n_ranks // 32), size=task_loads.size)
    return np.bincount(assignment, weights=task_loads, minlength=n_ranks)


def _scenario(n_ranks: int, seed: int):
    return paper_analysis_scenario(
        n_tasks=max(400, 10_000 * n_ranks // 4096),
        n_loaded_ranks=16,
        n_ranks=n_ranks,
        seed=seed,
    )


def _update_state(h, rng: np.random.Generator) -> None:
    h.update(repr(sorted(rng.bit_generator.state["state"].items())).encode())


def _inform_digest(n_ranks: int, seed: int, config: GossipConfig) -> str:
    loads = _hot_loads(n_ranks, seed) if seed % 2 else _scenario(n_ranks, seed).rank_loads()
    rng = np.random.default_rng(seed + 100)
    result = run_inform_stage(loads, config, rng)
    h = hashlib.sha256()
    h.update(np.packbits(result.knowledge.rows, axis=1).tobytes())
    for name in ACCOUNTING:
        h.update(f"{name}={getattr(result, name)!r};".encode())
    _update_state(h, rng)
    return h.hexdigest()


def _episode_digest(
    n_ranks: int, seed: int, gossip: GossipConfig, transfer: TransferConfig,
    n_iters: int = 4, n_trials: int = 1, n_workers: int | None = None,
) -> str:
    rng = np.random.default_rng(seed + 200)
    registry = StatsRegistry()
    result = iterative_refinement(
        _scenario(n_ranks, seed), n_trials=n_trials, n_iters=n_iters, gossip=gossip,
        transfer=transfer, rng=rng, registry=registry, n_workers=n_workers,
    )
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.best_assignment, dtype=np.int64).tobytes())
    h.update(repr((result.best_imbalance, result.initial_imbalance)).encode())
    for r in result.records:
        h.update(
            repr((r.trial, r.iteration, r.transfers, r.rejections, r.imbalance,
                  r.gossip_messages, r.gossip_bytes)).encode()
        )
    for name in COUNTERS:
        h.update(f"{name}={registry.counter(name)!r};".encode())
    if n_trials > 1:
        # The multi-trial cases also pin the per-iteration telemetry rows.
        rows = registry.series["lb.iteration"]
        h.update(repr([sorted(row.items()) for row in rows]).encode())
    _update_state(h, rng)
    return h.hexdigest()


LOWEST = dict(trim_policy="lowest")
BIAS = dict(knowledge="packed", ranks_per_node=8, intra_node_bias=0.5)
INFORM = {
    "inform-p64-packed": (64, 1, GossipConfig(knowledge="packed")),
    "inform-p64-packed-f2": (64, 2, GossipConfig(fanout=2, knowledge="packed")),
    "inform-p64-faults": (64, 3, GossipConfig(knowledge="packed", faults=FAULTS)),
    "inform-p64-noavoid": (64, 4, GossipConfig(knowledge="packed", avoid_known=False)),
    "inform-p400-packed": (400, 5, GossipConfig(knowledge="packed")),
    "inform-p400-scenario": (400, 6, GossipConfig(knowledge="packed")),
    "inform-p400-faults": (400, 7, GossipConfig(knowledge="packed", faults=FAULTS)),
    "inform-p400-bias": (400, 8, GossipConfig(**BIAS)),
    "inform-p400-bias-faults": (400, 9, GossipConfig(**BIAS, faults=FAULTS)),
    "inform-p400-lowest-packed": (
        400, 11, GossipConfig(max_known=24, knowledge="packed", **LOWEST)
    ),
    "inform-p400-lowest-sparse": (
        400, 13, GossipConfig(max_known=24, knowledge="sparse", **LOWEST)
    ),
    "inform-p400-lowest-sorted": (
        400, 15, GossipConfig(max_known=8, knowledge="sparse", faults=FAULTS, **LOWEST)
    ),
    "inform-p4096-packed": (4096, 0, GossipConfig(knowledge="packed")),
    "inform-p4096-hot": (4096, 17, GossipConfig(knowledge="packed")),
    "inform-p4096-faults": (4096, 2, GossipConfig(knowledge="packed", faults=FAULTS)),
    "inform-p4096-bias": (4096, 4, GossipConfig(**BIAS)),
    "inform-p4096-lowest-bitrows": (
        4096, 19, GossipConfig(max_known=256, knowledge="sparse", **LOWEST)
    ),
    "inform-p4096-lowest-sorted": (
        4096, 21, GossipConfig(max_known=64, knowledge="sparse", **LOWEST)
    ),
    "inform-p4096-lowest-sorted-faults": (
        4096, 23, GossipConfig(max_known=64, knowledge="sparse", faults=FAULTS, **LOWEST)
    ),
    # A random trim on rank-ordered bit rows whose cap binds: no row
    # ever holds every seed, so no merge may be skipped.
    "stage-p400-random-cap64": (400, 25, GossipConfig(max_known=64, knowledge="packed")),
}

EPISODES = {
    "episode-p64-default": (64, 1, GossipConfig(), TransferConfig()),
    "episode-p64-lbaf": (
        64, 2, GossipConfig(),
        TransferConfig(view="shared", max_passes=None, cascade=True),
    ),
    "episode-p400-fewest": (400, 3, GossipConfig(), TransferConfig(ordering="fewest_migrations")),
    "episode-p400-lightest-cmf-original": (
        400, 4, GossipConfig(), TransferConfig(ordering="lightest", cmf="original"),
    ),
    "episode-p400-heaviest-criterion-original": (
        400, 5, GossipConfig(),
        TransferConfig(ordering="load_intensive", criterion="original", max_passes=3),
    ),
    "episode-p400-nacks": (
        400, 6, GossipConfig(), TransferConfig(nacks=True, ordering="lightest")
    ),
    "episode-p400-rebuild-once": (
        400, 7, GossipConfig(), TransferConfig(recompute_cmf=False, max_passes=2)
    ),
    "episode-p400-faults": (
        400, 8, GossipConfig(faults=FAULTS), TransferConfig(ordering="fewest_migrations")
    ),
    "episode-p400-bias": (400, 9, GossipConfig(**BIAS), TransferConfig(ordering="lightest")),
    "episode-p400-lowest": (
        400, 10, GossipConfig(max_known=32, **LOWEST),
        TransferConfig(ordering="fewest_migrations"),
    ),
    "episode-p4096-phase": (4096, 11, GossipConfig(), TransferConfig()),
    "episode-p4096-lowest-sorted": (
        4096, 12, GossipConfig(max_known=64, knowledge="sparse", **LOWEST),
        TransferConfig(ordering="fewest_migrations"),
    ),
    # Three trials of two iterations: the cross-trial best-of selection,
    # once on the shared stream and once on per-trial spawned streams.
    "episode-p400-trials3": (400, 10, GossipConfig(), TransferConfig(), 2, 3),
    "episode-p400-trials3-workers2": (400, 10, GossipConfig(), TransferConfig(), 2, 3, 2),
    # h < 1: a rank between 0.9 and 1.0 x l_ave both sends and is known
    # as a recipient, so senders of one stage are not independent.
    "episode-p400-threshold-0.9": (400, 13, GossipConfig(), TransferConfig(threshold=0.9)),
    # Thousands of short Alg. 5 senders from iteration 2 on, on bit rows.
    "episode-p4096-fewest": (
        4096, 14, GossipConfig(knowledge="packed"),
        TransferConfig(ordering="fewest_migrations"),
    ),
    # k = 3: rows stay far from converged, so every sender holds a set
    # of its own; k = 5: a stage's senders mix sets of their own with
    # shared ones (1,784 senders, 1,587 distinct sets in iteration 2).
    "episode-p4096-rounds3": (4096, 15, GossipConfig(rounds=3), TransferConfig()),
    "episode-p4096-rounds5": (4096, 15, GossipConfig(rounds=5), TransferConfig()),
    # A random trim whose cap exceeds the seed count: rows that hold
    # every seed are complete although a cap is set.
    "episode-p400-random-cap512": (
        400, 16, GossipConfig(max_known=512, knowledge="packed"), TransferConfig(),
    ),
}

EMPIRE = {
    "empire-lightest": EmpireConfig("tempered", seed=3, **{**QUICK, "ordering": "lightest"}),
    "empire-lossy": EmpireConfig(
        "tempered", seed=7, faults=FaultConfig(loss_rate=0.1, seed=2), **QUICK
    ),
}


def _compute(case: str) -> str:
    if case in INFORM:
        return _inform_digest(*INFORM[case])
    if case in EPISODES:
        return _episode_digest(*EPISODES[case])
    return _app_digest(EMPIRE[case])


PINNED: dict[str, str] = {
    "empire-lightest": "045df399ca5a4c58efba56b58e0e5dbf96b7f957af08529fbec649e4181ddaed",
    "empire-lossy": "b547c02c33db062342d683771214f7e0eaff4045dcceaec1d77454e10032d419",
    "episode-p400-bias": "a5eb7166fb6678744fdec8cf7d30314ee022b19d0d09bfc9755be1c75810b0d3",
    "episode-p400-faults": "166736b1b9cb011c1d2f881b3887accefb8e3d0b7d7e72fd2f77a632c03057f2",
    "episode-p400-fewest": "e3c7d5bf2f5d46abd00838cab646233fa7c07d19997cb21db8b60ddbee11d323",
    "episode-p400-heaviest-criterion-original": "d461dbce1d546543c56248a67344b638b5733a5ac9c73ad85eb085274c7da19e",
    "episode-p400-lightest-cmf-original": "cbbeb473bb8660d58fcb72fa56cedff36d40003aea06b29536c459a41be52c57",
    "episode-p400-lowest": "86269ca1a68e0f4cc647a237bb6fa37fae1d70848708ad2506bd24476843a475",
    "episode-p400-nacks": "2ac0ac39aa4aa13a10d45478466fbd5b5adba98debd447563d20c145656b45b6",
    "episode-p400-rebuild-once": "77974214eda38205fcb3613521c11610ab863c68afb9a61101bc6bee4d57fb43",
    "episode-p4096-lowest-sorted": "5185472c75b05930289479a3ed24ac6ebeb90e4ef33882c7c5a9480037709ae9",
    "episode-p4096-phase": "9d6d80464265fb31adb4ba665e50cdc708d667f82a2907b870d763d3ac9324ca",
    "episode-p400-trials3": "b218faa5d1227e501bd313791b2147755cc8b67561c7ed0f2c97fc7091995478",
    "episode-p400-trials3-workers2": "2ec4577d3c9e021c0b73faee2b6c002dfb6591adb4c9039b3f52b03030f2761f",
    "episode-p400-threshold-0.9": "5c295cd603c2c806b4482f0adeb6d9e1f6c187194830614aa13f409871dc5c85",
    "episode-p4096-fewest": "cec199d942ab72257c1d99488ede302483495f95ab35855f4f884a0bde43b7d7",
    "episode-p4096-rounds3": "4dd6ef643ba499d76ba5ddde6f8fdeeb8059dcb04ab2aeebd79ae4a9b0114c88",
    "episode-p4096-rounds5": "7e30e5da0966d198f626dcb91fea8fa71a4cd8af5ee95aafa3d5205a21742e83",
    "episode-p400-random-cap512": "1c0ac714767737bc65e220a6f83c57ab0a2bbd8912401e4c7ee201fd4b6e206e",
    "episode-p64-default": "96d3e5e88f3df534dfc331a75615a9b1d176678586e613d40f830e0f8afbeab8",
    "episode-p64-lbaf": "93916253b3f9e0440c5fd936e52ab81784d3e6c5777bc9b33b10c97e1bc9963b",
    "inform-p400-bias": "8ed94f7b594005370af0036a8b0eb0275c721e1e5e5b55bc721627203312ec18",
    "inform-p400-bias-faults": "dbcc08420dd48515d2919e3c4e141f7e16951d1f8700cb39756e59cf05679b16",
    "inform-p400-faults": "e07fd1813be0abaf0eda58b500f5d6bd17dc7575cab1a11854ab30cf87012b5e",
    "inform-p400-lowest-packed": "51bfc083800a01de6f7fec1b12b5802475f372444fa96949bc06c5b3cde70580",
    "inform-p400-lowest-sorted": "ca0cae9422bed2ce1dcd0254744db595f363467578c984b41d03682ec7ad4454",
    "inform-p400-lowest-sparse": "4a9402750545b8202b5663fcc85dfe8f689f09b5a3f36565da9541d1b151ebc6",
    "inform-p400-packed": "dff30ffbc6effc53310b7c08e96a92164602ac8abf1baa8a960ffa6028731ca2",
    "inform-p400-scenario": "0e02fcba932fd20429747d5383cc8c2388471d0793658e5b887b513b318ba28f",
    "inform-p4096-bias": "25f78c47328a9e19b9f7df93f605cd76b9b3c0639b420ac7cba6df2ca0835ba7",
    "inform-p4096-faults": "95e6d6eadd1cacc8aa28e36a6af011fe39579f3734595ed66670080ea4162e5f",
    "inform-p4096-hot": "c17caa432a6eaa53679a979193be2673a6b4f360cd980e78d1ed223651704efd",
    "inform-p4096-lowest-bitrows": "20ef26988000f627e671d7f43756e0fd94f493117908125e9c8ee42d9a30532f",
    "inform-p4096-lowest-sorted": "78b71090dfcf790ae0372209dc83f0430fa489ecadf5f20d2b5cbdcc4dc5b3f8",
    "inform-p4096-lowest-sorted-faults": "51427aed3ef6a53b09359ebb80f5128e905d2e25d92f31af96afa8bfb0b99a14",
    "inform-p4096-packed": "0c98f6f2c43d0fad2d4986d357f93e37fc6d6e3cb9c70725de1c5ff892818b96",
    "inform-p64-faults": "7d5a40ccb0dbef0708795813e2a6fac07e197b9c189af56e2d38d25a70dbe615",
    "inform-p64-noavoid": "42d8045d50c834486b0aa4d987b7244dc2d02594b9b9a162bab51f9e65d47eb7",
    "inform-p64-packed": "380b15738f102d4af1fa75448c20fe040ee041ce72f2bed034c4f27e243e628e",
    "inform-p64-packed-f2": "932bea028bc9be52979c5b34a4f60505d9afbf115be9468cf317b9f785ed8410",
    "stage-p400-random-cap64": "ab7802f2beb8133684d35d81e7cfbc606c60aa11244de497923646a0783acf68",
}


@pytest.mark.parametrize("case", sorted({**INFORM, **EPISODES, **EMPIRE}))
def test_lb_is_bit_identical_to_the_pinned_parent(case):
    assert _compute(case) == PINNED[case]


if __name__ == "__main__":
    for case in sorted({**INFORM, **EPISODES, **EMPIRE}):
        print(f'    "{case}": "{_compute(case)}",')
