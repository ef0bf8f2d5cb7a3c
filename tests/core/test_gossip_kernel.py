"""The sparse inform kernel knob: parity, warnings, degradation.

Three invariants, mirroring the transfer-kernel contract
(``tests/core/test_transfer_soa.py``):

1. every ``GossipConfig.kernel`` setting on the sparse store produces
   results bit-identical to the packed store (same knowledge, same
   traffic, same RNG stream);
2. ``kernel="numba"`` without numba degrades to the pure-Python path
   with exactly one :class:`RuntimeWarning` per feature — never one per
   call, never an error;
3. nothing in the package imports numba at module-import time, so the
   whole stack works on hosts without it.
"""

import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.core import _kernels
from repro.core._kernels import (
    HAVE_NUMBA,
    coverage_hits,
    get_gossip_kernels,
    merge_shards,
    shard_membership,
    warn_numba_missing,
)
from repro.core.gossip import GossipConfig, run_inform_stage
from repro.core.tempered import TemperedConfig
from repro.core.transfer import TransferConfig, transfer_stage
from repro.workloads.synthetic import paper_analysis_scenario


def gamma_loads(n, seed):
    rng = np.random.default_rng(seed)
    loads = rng.gamma(3.0, 0.5, size=n)
    loads[: max(1, n // 16)] *= 25.0
    return loads


def run_stage(loads, seed, **overrides):
    config = GossipConfig(fanout=4, rounds=6, **overrides)
    rng = np.random.default_rng(seed)
    stage = run_inform_stage(loads, config, rng)
    return stage, rng.bit_generator.state


def run_sparse(loads, kernel, seed, **overrides):
    return run_stage(loads, seed, knowledge="sparse", kernel=kernel, **overrides)


class TestKernelKnob:
    def test_kernel_validated(self):
        with pytest.raises(ValueError, match="kernel"):
            GossipConfig(kernel="cython")

    def test_reference_driver_value_retired(self):
        # The per-receiver reference driver lost its race and is gone;
        # its selector value is rejected, not silently remapped.
        with pytest.raises(ValueError, match="kernel"):
            GossipConfig(kernel="python")
        with pytest.raises(ValueError, match="kernel"):
            TemperedConfig(gossip_kernel="python")

    def test_tempered_passthrough(self):
        cfg = TemperedConfig(gossip_kernel="numba")
        assert cfg.gossip_config().kernel == "numba"
        assert TemperedConfig().gossip_config().kernel == "auto"
        with pytest.raises(ValueError, match="kernel"):
            TemperedConfig(gossip_kernel="cython")


class TestBitIdentity:
    """The sparse store (and jitted kernels where present) against the
    packed store — the production path that needs no kernels — down to
    the RNG stream."""

    CONFIGS = (
        {},  # uncapped
        {"max_known": 48, "trim_policy": "lowest"},
        {"max_known": 48, "trim_policy": "random"},
    )

    @pytest.mark.parametrize("overrides", CONFIGS, ids=("uncapped", "lowest", "random"))
    def test_kernel_vs_python_20_seeds(self, overrides):
        n = 256
        for seed in range(20):
            loads = gamma_loads(n, seed)
            ref, ref_state = run_stage(
                loads, seed + 1, knowledge="packed", **overrides
            )
            for kernel in ("auto", "numba"):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    new, new_state = run_sparse(loads, kernel, seed + 1, **overrides)
                np.testing.assert_array_equal(new.knowledge.rows, ref.knowledge.rows)
                assert new.n_messages == ref.n_messages
                assert new.bytes_sent == ref.bytes_sent
                assert new.per_round_messages == ref.per_round_messages
                assert new.per_round_senders == ref.per_round_senders
                assert new_state == ref_state


class TestDegradation:
    """``kernel="numba"`` without numba: warn once, stay bit-identical."""

    @pytest.mark.skipif(HAVE_NUMBA, reason="degradation path needs numba absent")
    def test_gossip_kernel_warns_once(self):
        _kernels.reset_numba_warnings()
        loads = gamma_loads(128, 0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_sparse(loads, "numba", 1)
            run_sparse(loads, "numba", 2)
        relevant = [w for w in caught if "sparse inform kernel" in str(w.message)]
        assert len(relevant) == 1
        assert issubclass(relevant[0].category, RuntimeWarning)

    @pytest.mark.skipif(HAVE_NUMBA, reason="degradation path needs numba absent")
    def test_transfer_kernel_warns_once(self):
        _kernels.reset_numba_warnings()
        dist = paper_analysis_scenario(n_tasks=200, n_loaded_ranks=4, n_ranks=64, seed=0)
        loads = np.bincount(dist.assignment, weights=dist.task_loads, minlength=64)
        gossip = run_inform_stage(loads, GossipConfig(fanout=3, rounds=4), rng=0)
        config = TransferConfig(kernel="numba")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for seed in (1, 2):
                transfer_stage(
                    dist.assignment.copy(),
                    dist.task_loads,
                    gossip,
                    config,
                    np.random.default_rng(seed),
                )
        relevant = [w for w in caught if "transfer-pass kernel" in str(w.message)]
        assert len(relevant) == 1
        assert issubclass(relevant[0].category, RuntimeWarning)

    @pytest.mark.skipif(HAVE_NUMBA, reason="degradation path needs numba absent")
    def test_warn_once_per_feature(self):
        _kernels.reset_numba_warnings()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warn_numba_missing("feature A")
            warn_numba_missing("feature A")
            warn_numba_missing("feature B")
        assert len(caught) == 2

    @pytest.mark.skipif(HAVE_NUMBA, reason="resolution depends on numba absence")
    def test_get_gossip_kernels_none_without_numba(self):
        assert get_gossip_kernels() is None


class TestNoImportTimeNumba:
    def test_package_imports_and_runs_with_numba_blocked(self):
        # A meta-path hook that refuses to import numba proves both that
        # no module needs it at import time and that both kernel knobs
        # degrade gracefully at run time — even on hosts that have it.
        code = """
import sys
import warnings

class Block:
    def find_module(self, name, path=None):
        return self if name.split(".")[0] == "numba" else None
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numba":
            raise ImportError("numba blocked for this test")
        return None

sys.meta_path.insert(0, Block())
import numpy as np
from repro.core._kernels import HAVE_NUMBA
from repro.core.gossip import GossipConfig, run_inform_stage
from repro.core.transfer import TransferConfig, transfer_stage
from repro.workloads.synthetic import paper_analysis_scenario

assert not HAVE_NUMBA
dist = paper_analysis_scenario(n_tasks=100, n_loaded_ranks=2, n_ranks=32, seed=0)
loads = np.bincount(dist.assignment, weights=dist.task_loads, minlength=32)
with warnings.catch_warnings():
    warnings.simplefilter("ignore", RuntimeWarning)
    stage = run_inform_stage(
        loads, GossipConfig(knowledge="sparse", kernel="numba"), rng=0
    )
    transfer_stage(
        dist.assignment.copy(),
        dist.task_loads,
        stage,
        TransferConfig(kernel="numba"),
        np.random.default_rng(1),
    )
print("ok", stage.n_messages)
"""
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.startswith("ok")


class TestKernelFunctionParity:
    """The scalar kernel bodies against their NumPy formulations.

    The plain-Python builds run everywhere; the jitted builds are the
    same bodies compiled, re-checked on the CI leg that installs numba.
    """

    def kernels(self):
        triple = get_gossip_kernels()
        if triple is not None:
            return triple
        return merge_shards, shard_membership, coverage_hits

    def test_merge_shards_matches_union1d(self):
        merge, _, _ = self.kernels()
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = np.unique(rng.integers(0, 60, size=rng.integers(0, 20))).astype(np.int32)
            b = np.unique(rng.integers(0, 60, size=rng.integers(0, 20))).astype(np.int32)
            out = np.empty(a.size + b.size, dtype=np.int32)
            k = merge(a, b, out)
            np.testing.assert_array_equal(
                out[:k], np.union1d(a, b).astype(np.int32)
            )

    def test_shard_membership_matches_isin(self):
        _, membership, _ = self.kernels()
        rng = np.random.default_rng(1)
        n_segments, width, n_rows = 6, 4, 12
        segments = [
            np.unique(rng.integers(0, 40, size=rng.integers(0, 12))).astype(np.int32)
            for _ in range(n_segments)
        ]
        flat = np.concatenate(segments) if segments else np.empty(0, np.int32)
        lens = np.array([s.size for s in segments], dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        rows = rng.integers(0, n_segments, size=n_rows)
        draws = rng.integers(0, 40, size=(n_rows, width)).astype(np.int32)
        out = np.zeros((n_rows, width), dtype=bool)
        membership(flat, starts, lens, rows, draws, out)
        expected = np.array(
            [np.isin(draws[i], segments[rows[i]]) for i in range(n_rows)]
        )
        np.testing.assert_array_equal(out, expected)

    def test_coverage_hits_matches_mask_sums(self):
        _, _, hits = self.kernels()
        rng = np.random.default_rng(2)
        n = 8
        segments = [
            np.unique(rng.integers(0, n, size=rng.integers(0, 6))).astype(np.int32)
            for _ in range(n)
        ]
        flat = np.concatenate(segments)
        lens = np.array([s.size for s in segments], dtype=np.int64)
        mask = rng.random(n) < 0.5
        out = np.zeros(n, dtype=np.int64)
        hits(flat, lens, mask, out)
        expected = np.array([int(mask[s].sum()) for s in segments])
        np.testing.assert_array_equal(out, expected)
