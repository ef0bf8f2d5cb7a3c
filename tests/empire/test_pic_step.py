"""The allocation-free PIC step against its allocate-per-step oracles.

``advance`` and the color count were rewritten to work inside storage
the population owns; these tests hold them to the verbatim old bodies in
``tests/empire/oracles.py`` exactly (``array_equal``, never
``allclose``), check that storage growth is invisible to callers, and
gate the property the rewrite exists for: a steady-state step allocates
nothing that scales with the particle count.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.empire.bdot import BDotScenario
from repro.empire.mesh import Mesh2D
from repro.empire.particles import ParticlePopulation
from tests.empire.oracles import advance_oracle, color_of_position_oracle

SUP = np.nextafter(1.0, 0.0)

# -- advance --------------------------------------------------------------------

#: Start coordinates on and next to every special value of the fold.
EDGE_COORDS = [0.0, -0.0, SUP, 1.0 - 2.0**-52, 2.0**-1074, 1e-17, 0.5, 0.25, 0.75]
#: Displacements that land on a wall, just past it (``mod`` of -1e-17 is
#: exactly 2.0), one ulp short of it, and two or four walls away.
EDGE_SPEEDS = [0.0, -0.0, -1e-17, 1e-17, 2.0**-53, -(2.0**-53), 1.0, -1.0, 2.0, -2.0,
               2.5, -2.5, 4.0, -4.25, 0.5, -0.5, 1e-3, -1e-3]

coords = st.sampled_from(EDGE_COORDS) | st.floats(min_value=0.0, max_value=SUP)
speeds = st.sampled_from(EDGE_SPEEDS) | st.floats(min_value=-10.0, max_value=10.0)


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    """Exact equality that also tells -0.0 from 0.0."""
    np.testing.assert_array_equal(actual, expected)
    assert actual.tobytes() == expected.tobytes()


@given(
    rows=st.lists(st.tuples(coords, coords, speeds, speeds), min_size=1, max_size=30),
    dts=st.lists(st.sampled_from([0.0, 1.0, 0.37, 50.0]), min_size=1, max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_advance_matches_the_whole_array_oracle(rows, dts):
    table = np.array(rows, dtype=np.float64)
    pos, vel = table[:, :2].copy(), table[:, 2:].copy()
    pop = ParticlePopulation(pos, vel)
    for dt in dts:
        pos, vel = advance_oracle(pos, vel, dt)
        pop.advance(dt)
        assert_same_bits(pop.positions, pos)
        assert_same_bits(pop.velocities, vel)


@pytest.mark.parametrize("dt", [0.0, 1.0, 0.37, 50.0])
def test_advance_edge_grid(dt):
    """Every edge coordinate against every edge displacement."""
    x, v = (a.ravel() for a in np.meshgrid(EDGE_COORDS, EDGE_SPEEDS))
    pos = np.column_stack([x, x[::-1]])
    vel = np.column_stack([v, v[::-1]])
    pop = ParticlePopulation(pos, vel)
    for _ in range(3):
        pos, vel = advance_oracle(pos, vel, dt)
        pop.advance(dt)
        assert_same_bits(pop.positions, pos)
        assert_same_bits(pop.velocities, vel)
    assert pop.positions.min() >= 0.0 and pop.positions.max() < 1.0


def test_advance_folds_only_what_left_the_square():
    """The premise of the sparse fold: on [0, 1) the oracle's ``mod``,
    mirror and clip change nothing, so skipping them there is exact."""
    rng = np.random.default_rng(0)
    inside = np.concatenate([rng.random(10_000), [0.0, SUP, 2.0**-1074, 1.0 - 2.0**-52]])
    folded, _ = advance_oracle(inside[:, None], np.zeros((inside.size, 1)), 1.0)
    assert_same_bits(folded[:, 0], inside)


# -- color binning ----------------------------------------------------------------

MESH_SHAPES = [(1, 1), (2, 7), (6, 24), (7, 7), (12, 6), (13, 24), (35, 1), (400, 24)]


def lattice_edges(blocks: int, cells: int) -> np.ndarray:
    """Every rank/color boundary along one axis, the double on either
    side of it, and both spellings of the division — kept inside [0, 1)."""
    k = np.arange(blocks * cells + 1)
    exact = np.concatenate([k / (blocks * cells), (k // cells + (k % cells) / cells) / blocks])
    around = np.concatenate([exact, np.nextafter(exact, 0.0), np.nextafter(exact, 1.0)])
    return np.unique(np.clip(around, 0.0, SUP))


@pytest.mark.parametrize("n_ranks,colors_per_rank", MESH_SHAPES)
def test_colors_match_the_oracle_on_every_edge(n_ranks, colors_per_rank):
    mesh = Mesh2D(n_ranks, colors_per_rank=colors_per_rank)
    x, y = (a.ravel() for a in np.meshgrid(
        lattice_edges(mesh.px, mesh.cx), lattice_edges(mesh.py, mesh.cy)
    ))
    expected = color_of_position_oracle(mesh, x, y)
    colors = mesh.color_of_position(x, y)
    np.testing.assert_array_equal(colors, expected)
    assert colors.dtype == expected.dtype
    assert set(np.unique(colors)) == set(range(mesh.n_colors))  # every color has an edge

    pop = ParticlePopulation(np.column_stack([x, y]), np.zeros((x.size, 2)))
    counts = pop.count_per_color(mesh)
    np.testing.assert_array_equal(counts, np.bincount(expected, minlength=mesh.n_colors))
    assert counts.sum() == x.size


@given(
    n_ranks=st.integers(min_value=1, max_value=61),
    colors_per_rank=st.sampled_from([1, 6, 7, 24]),
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=400),
)
@settings(max_examples=150, deadline=None)
def test_counts_match_the_oracle(n_ranks, colors_per_rank, seed, n):
    mesh = Mesh2D(n_ranks, colors_per_rank=colors_per_rank)
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 2))
    on_edge = rng.random(n) < 0.3
    pos[on_edge, 0] = rng.choice(lattice_edges(mesh.px, mesh.cx), on_edge.sum())
    pos[on_edge, 1] = rng.choice(lattice_edges(mesh.py, mesh.cy), on_edge.sum())
    expected = color_of_position_oracle(mesh, pos[:, 0], pos[:, 1])
    np.testing.assert_array_equal(mesh.color_of_position(pos[:, 0], pos[:, 1]), expected)
    # A population with spare capacity bins through a larger scratch.
    pop = ParticlePopulation(pos[: n // 2], np.zeros((n // 2, 2)))
    pop.inject(pos[n // 2 :], np.zeros((n - n // 2, 2)))
    counts = pop.count_per_color(mesh)
    np.testing.assert_array_equal(counts, np.bincount(expected, minlength=mesh.n_colors))
    assert counts.sum() == n


def test_color_of_position_returns_its_own_array():
    mesh = Mesh2D(4, colors_per_rank=4)
    first = mesh.color_of_position(np.array([0.1, 0.9]), np.array([0.1, 0.9]))
    kept = first.copy()
    mesh.color_of_position(np.array([0.9, 0.1]), np.array([0.1, 0.9]))
    np.testing.assert_array_equal(first, kept)
    grid = mesh.color_of_position(np.full((2, 3), 0.6), np.full((2, 3), 0.2))
    assert grid.shape == (2, 3)


# -- storage growth -----------------------------------------------------------------


@pytest.mark.parametrize("start_rows", [0, 3])
def test_a_thousand_injections(start_rows):
    rng = np.random.default_rng(start_rows)
    pos, vel = rng.random((start_rows, 2)), rng.normal(0.0, 0.01, (start_rows, 2))
    pop = ParticlePopulation(pos, vel) if start_rows else ParticlePopulation.empty()
    mesh = Mesh2D(6, colors_per_rank=6)
    stores, moves = pop.positions.base, 0
    for k in range(1000):
        add_pos, add_vel = rng.random((k % 4, 2)), rng.normal(0.0, 0.01, (k % 4, 2))
        pop.inject(add_pos, add_vel)
        pos, vel = np.concatenate([pos, add_pos]), np.concatenate([vel, add_vel])
        assert pop.count == pos.shape[0]
        for view, model in ((pop.positions, pos), (pop.velocities, vel)):
            assert view.flags.c_contiguous and view.shape == model.shape
            np.testing.assert_array_equal(view, model)
        if pop.positions.base is not stores:
            stores, moves = pop.positions.base, moves + 1
        if k % 100 == 0:  # the step still works on a part-filled store
            pos, vel = advance_oracle(pos, vel, 1.0)
            pop.advance(1.0)
            np.testing.assert_array_equal(pop.positions, pos)
            colors = color_of_position_oracle(mesh, pos[:, 0], pos[:, 1])
            np.testing.assert_array_equal(
                pop.count_per_color(mesh), np.bincount(colors, minlength=mesh.n_colors)
            )
    assert pop.count == start_rows + 1500
    assert moves <= math.ceil(math.log2(pop.count)) + 1
    # Readers of the views never see the spare capacity.
    np.testing.assert_array_equal(pop.velocities, vel)
    assert pop.count_per_color(mesh).sum() == pop.count


# -- allocation gate ----------------------------------------------------------------


def test_steady_state_step_allocates_nothing_per_particle():
    """Ten steps on 100k particles under ``tracemalloc``: the peak is the
    injected rows and two count vectors, not a temporary per particle.

    A count that repeats exactly, unlike a wall-clock gate: the smallest
    O(n) temporary here (a ``(n, 2)`` bool mask, 200 kB) would already
    break the bound, and the old step peaked at 12 MB.
    """
    mesh = Mesh2D(400, colors_per_rank=24)
    scenario = BDotScenario(initial_particles=100_000, injection_per_step=200, seed=5)
    population = scenario.initialize()
    for step in range(1, 3):  # the first injection doubles the store
        scenario.step(population, step)
        population.count_per_color(mesh)
    injected_and_counted = 2 * (200 * 2 * 8) + mesh.n_colors * 8

    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for step in range(3, 13):
            scenario.step(population, step)
            counts = population.count_per_color(mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.sum() == population.count == 100_000 + 12 * 200
    assert peak - before < 3 * injected_and_counted
