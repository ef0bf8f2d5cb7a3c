"""Unit tests for repro.empire.mesh."""

import numpy as np
import pytest

from repro.empire.mesh import Mesh2D, grid_dims
from tests.empire.oracles import rank_of_position_oracle


class TestGridDims:
    def test_perfect_squares(self):
        assert grid_dims(400) == (20, 20)
        assert grid_dims(16) == (4, 4)

    def test_non_squares(self):
        assert grid_dims(24) == (4, 6)
        assert grid_dims(2) == (1, 2)

    def test_primes_degrade_to_strip(self):
        assert grid_dims(7) == (1, 7)

    def test_product_invariant(self):
        for n in (1, 6, 12, 100, 384):
            a, b = grid_dims(n)
            assert a * b == n and a <= b


class TestMesh2D:
    def test_color_count(self):
        mesh = Mesh2D(16, colors_per_rank=24)
        assert mesh.n_colors == 384

    def test_home_assignment_blocks(self):
        mesh = Mesh2D(4, colors_per_rank=6)
        home = mesh.home_assignment()
        assert home.shape == (24,)
        np.testing.assert_array_equal(home[:6], 0)
        np.testing.assert_array_equal(home[-6:], 3)

    def test_color_binning_is_a_partition(self):
        mesh = Mesh2D(16, colors_per_rank=6)
        rng = np.random.default_rng(0)
        x, y = rng.random(5000), rng.random(5000)
        colors = mesh.color_of_position(x, y)
        assert colors.min() >= 0 and colors.max() < mesh.n_colors

    def test_color_consistent_with_rank(self):
        mesh = Mesh2D(16, colors_per_rank=6)
        rng = np.random.default_rng(1)
        x, y = rng.random(2000), rng.random(2000)
        colors = mesh.color_of_position(x, y)
        ranks = rank_of_position_oracle(mesh, x, y)
        np.testing.assert_array_equal(mesh.home_rank_of_color(colors), ranks)

    def test_uniform_positions_fill_colors_evenly(self):
        mesh = Mesh2D(4, colors_per_rank=4)
        rng = np.random.default_rng(2)
        x, y = rng.random(160_000), rng.random(160_000)
        counts = np.bincount(mesh.color_of_position(x, y), minlength=mesh.n_colors)
        assert counts.min() > 0.85 * counts.mean()

    def test_color_centers_inside_own_color(self):
        mesh = Mesh2D(6, colors_per_rank=6)
        centers = mesh.color_centers()
        colors = mesh.color_of_position(centers[:, 0], centers[:, 1])
        np.testing.assert_array_equal(colors, np.arange(mesh.n_colors))

    def test_positions_out_of_range_rejected(self):
        mesh = Mesh2D(4)
        with pytest.raises(ValueError, match="unit square"):
            mesh.color_of_position(np.array([1.5]), np.array([0.5]))
        with pytest.raises(ValueError, match="unit square"):
            mesh.color_of_position(np.array([-0.1]), np.array([0.5]))

    def test_boundary_just_under_one(self):
        mesh = Mesh2D(4, colors_per_rank=4)
        edge = np.nextafter(1.0, 0.0)
        c = mesh.color_of_position(np.array([edge]), np.array([edge]))
        assert 0 <= c[0] < mesh.n_colors

    def test_cells_per_rank(self):
        mesh = Mesh2D(4, colors_per_rank=24, cells_per_color=64)
        assert mesh.cells_per_rank() == 24 * 64
