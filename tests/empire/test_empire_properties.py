"""Property-based tests for the EMPIRE substrates."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.empire.mesh import Mesh2D, grid_dims
from repro.empire.particles import ParticlePopulation
from repro.empire.repartition import rcb_partition
from repro.empire.workload import ColorWorkloadModel
from tests.empire.oracles import rank_of_position_oracle


@given(n=st.integers(min_value=1, max_value=500))
def test_grid_dims_factorization(n):
    a, b = grid_dims(n)
    assert a * b == n
    assert 1 <= a <= b


@given(
    n_ranks=st.integers(min_value=1, max_value=36),
    colors=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=30, deadline=None)
def test_mesh_binning_partitions_positions(n_ranks, colors, seed):
    """Every position lands in exactly one valid color, and the color's
    home rank matches the position's rank."""
    mesh = Mesh2D(n_ranks, colors_per_rank=colors)
    rng = np.random.default_rng(seed)
    x, y = rng.random(200), rng.random(200)
    c = mesh.color_of_position(x, y)
    r = rank_of_position_oracle(mesh, x, y)
    assert (c >= 0).all() and (c < mesh.n_colors).all()
    np.testing.assert_array_equal(mesh.home_rank_of_color(c), r)


@given(
    n_points=st.integers(min_value=8, max_value=200),
    n_parts=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=30, deadline=None)
def test_rcb_parts_cover_and_balance(n_points, n_parts, seed):
    assume(n_points >= n_parts)
    rng = np.random.default_rng(seed)
    pts = rng.random((n_points, 2))
    w = rng.random(n_points) + 1e-3
    parts = rcb_partition(pts, w, n_parts)
    assert parts.min() >= 0 and parts.max() < n_parts
    per = np.bincount(parts, weights=w, minlength=n_parts)
    # Each part's weight is within one maximal point of the average
    # (binary weighted-median cuts cannot do worse per level).
    assert per.max() <= w.sum() / n_parts + n_parts * w.max() + 1e-9


@given(
    seed=st.integers(min_value=0, max_value=1000),
    steps=st.integers(min_value=1, max_value=10),
    dt=st.floats(min_value=0.1, max_value=3.0),
)
@settings(max_examples=30, deadline=None)
def test_particle_motion_stays_in_domain(seed, steps, dt):
    rng = np.random.default_rng(seed)
    pop = ParticlePopulation(rng.random((50, 2)), rng.normal(0, 0.2, (50, 2)))
    for _ in range(steps):
        pop.advance(dt)
        assert pop.positions.min() >= 0.0
        assert pop.positions.max() < 1.0
        assert pop.count == 50


@given(
    counts=st.lists(st.integers(min_value=0, max_value=1000), min_size=4, max_size=4),
    spp=st.floats(min_value=0.0, max_value=1.0),
    spc=st.floats(min_value=0.0, max_value=1.0),
)
def test_workload_model_affine(counts, spp, spc):
    mesh = Mesh2D(2, colors_per_rank=2, cells_per_color=10)
    model = ColorWorkloadModel(seconds_per_particle=spp, seconds_per_cell=spc)
    loads = model.loads_from_counts(mesh, np.asarray(counts))
    expected = spc * 10 + spp * np.asarray(counts, dtype=float)
    np.testing.assert_allclose(loads, expected)
    assert (loads >= 0).all()
