"""Unit tests for repro.runtime.phase."""

import numpy as np
import pytest

from repro.runtime.phase import PhaseBarrier, PhaseInstrumentation
from repro.sim.process import System


class TestPhaseBarrier:
    def test_releases_every_rank(self):
        sys_ = System(8)
        released = {}
        barrier = PhaseBarrier(sys_, lambda r, t: released.__setitem__(r, t))
        barrier.start()
        sys_.run()
        assert set(released) == set(range(8))

    def test_release_waits_for_slowest_rank(self):
        sys_ = System(4)
        sys_.processes[2].compute(5.0)  # rank 2 is busy until t=5
        released = {}
        barrier = PhaseBarrier(sys_, lambda r, t: released.__setitem__(r, t))
        barrier.start()
        sys_.run()
        assert min(released.values()) >= 5.0

    def test_single_rank(self):
        sys_ = System(1)
        released = {}
        barrier = PhaseBarrier(sys_, lambda r, t: released.__setitem__(r, t))
        barrier.start()
        sys_.run()
        assert released == {0: pytest.approx(0.0, abs=1e-6)}

    def test_two_sequential_barriers(self):
        sys_ = System(4)
        first, second = {}, {}
        b1 = PhaseBarrier(sys_, lambda r, t: first.__setitem__(r, t))
        b1.start()
        sys_.run()
        sys_.processes[0].compute(1.0)
        b2 = PhaseBarrier(sys_, lambda r, t: second.__setitem__(r, t))
        b2.start()
        sys_.run()
        assert min(second.values()) >= max(first.values())
        assert min(second.values()) >= 1.0


class TestPhaseInstrumentation:
    def test_latest(self):
        inst = PhaseInstrumentation()
        inst.observe(np.array([1.0, 2.0]))
        inst.observe(np.array([3.0, 4.0]))
        np.testing.assert_array_equal(inst.latest(), [3.0, 4.0])
        assert inst.n_phases == 2

    def test_latest_is_a_copy(self):
        inst = PhaseInstrumentation()
        loads = np.array([1.0])
        inst.observe(loads)
        loads[0] = 99.0
        assert inst.latest()[0] == 1.0

    def test_history_bounded(self):
        inst = PhaseInstrumentation(max_phases_kept=3)
        for i in range(10):
            inst.observe(np.array([float(i)]))
        assert inst.n_phases == 3
        assert inst.latest()[0] == 9.0

    def test_empty_raises(self):
        inst = PhaseInstrumentation()
        with pytest.raises(RuntimeError, match="no phase"):
            inst.latest()
