"""Pinned digests of whole EMPIRE-surrogate runs.

The PIC step (advance, inject, colour count) is rewritten for speed
under the rule that *no output bit moves*. Each digest below is the
``sha256`` of every ``PhaseSeries`` metric, the final colour assignment
and the final particle positions and velocities of one run; they were
generated at commit ``760212c`` (the last one with the allocate-per-step
PIC step) by ``python tests/empire/test_identity.py`` and must never be
regenerated to make a change pass. They were taken with numpy 2.4.6 on
x86-64; a float reduction that differs in the last bit elsewhere is a
reason to regenerate from a checkout of *that commit* on the new
platform, never from the change.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.tempered import TemperedConfig, TemperedLB
from repro.empire.app import EmpireConfig, run_empire
from repro.empire.electrostatic import ElectrostaticScenario
from repro.empire.mesh import Mesh2D
from repro.empire.pic import PICSimulation, default_lb_schedule

QUICK = dict(n_ranks=64, colors_per_rank=8, n_steps=60, lb_period=10, n_trials=1, n_iters=4)
CONFIGURATIONS = ("spmd", "amt", "tempered", "greedy", "rcb")
SEEDS = (0, 11, 5045)


def _digest(sim: PICSimulation, series) -> str:
    h = hashlib.sha256()
    for key in sorted(series.keys()):
        h.update(key.encode())
        h.update(series.series(key).tobytes())
    h.update(np.ascontiguousarray(sim.assignment, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(sim.population.positions, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(sim.population.velocities, dtype=np.float64).tobytes())
    return h.hexdigest()


def _app_digest(config: EmpireConfig) -> str:
    """``run_empire`` keeps its simulation to itself; borrow it on the way out."""
    sims: list[PICSimulation] = []
    original = PICSimulation.run

    def run(self, *args, **kwargs):
        sims.append(self)
        return original(self, *args, **kwargs)

    PICSimulation.run = run
    try:
        result = run_empire(config)
    finally:
        PICSimulation.run = original
    (sim,) = sims
    return _digest(sim, result.series)


def _electrostatic_digest() -> str:
    sim = PICSimulation(
        Mesh2D(16, colors_per_rank=8),
        ElectrostaticScenario(initial_particles=5000, injection_per_step=50, nx=32, ny=32, seed=3),
        mode="amt",
        balancer=TemperedLB(TemperedConfig(n_trials=1, n_iters=3)),
        lb_schedule=default_lb_schedule(10, 2),
        seed=4,
    )
    return _digest(sim, sim.run(40))


CASES = {
    **{
        f"{name}-{seed}": (_app_digest, EmpireConfig(name, seed=seed, **QUICK))
        for name in CONFIGURATIONS
        for seed in SEEDS
    },
    "electrostatic": (_electrostatic_digest,),
}

PINNED: dict[str, str] = {
    "amt-0": "d1ea81ef00060dcd7a5ca4316c43d8202f8e064ad502c1d19ca7e55ae31677f2",
    "amt-11": "b4f23d106cd832db5446498a025c6702b0a0732bd2a2adbcd0b207756b70ed33",
    "amt-5045": "193d00918d449a6f88bfb33722ab1f63760c2ec9824b7e36681f3408b5663ec6",
    "electrostatic": "70f09389e73c209829dad6d5c139927a2b27fd6c35dfac15c206f86b0297edad",
    "greedy-0": "9ceec1c999d15a2c5b981f9b959f69d87a115398e926ab6073b72c2f8c43c668",
    "greedy-11": "2296ff1b52420ab6f4ba641b40f94821027055f518fc2d863d4cf45dbf345a98",
    "greedy-5045": "f250de0d129e1ce9aadcef58e45229275763af607b83e4c3b803b224134c9cc0",
    "rcb-0": "5cdc7f097bca970dc44e4dead6b153664d4277051fe9c8586d20b54960e6a966",
    "rcb-11": "3c9d4f55bdbf9b3a60a716c5f0cab111a972268d258ec07ae39f4d59278a1290",
    "rcb-5045": "90a41a2318f63640d99e819c1ffe183a6bc0bd977bf0051eb6d3e5866ef1b09c",
    "spmd-0": "9a1fe8d21de6142d6d05ffa8713cf584ad43bda5e2bac03bbb5cc52a333a3381",
    "spmd-11": "99b531c2292c0d8e4287cee7cf0a7c6a7b60f0a24a9047c00d8a04e24d2433a7",
    "spmd-5045": "9f5e1771a50779f95b5d9bc386c928945f2bde1a7eddad59fd3b12c224a561d8",
    "tempered-0": "34a5c1d037b8ea9bfb57a2d7399d2f69e2fbc0d916f4bff2425ad21e1d132061",
    "tempered-11": "5541b0d71980cffd9525a3383695c5cdd520da518bf7c13e324d7e14858c49bb",
    "tempered-5045": "32537bb288b97a82fe3a729ab3091a872cfcdcdf57a445fac87bd3a1470ea020",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_is_bit_identical_to_the_pinned_parent(case):
    fn, *args = CASES[case]
    assert fn(*args) == PINNED[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        fn, *args = CASES[case]
        print(f'    "{case}": "{fn(*args)}",')
