"""Unit tests for repro.empire.workload and fields."""

import numpy as np
import pytest

from repro.empire.fields import FieldSolveModel
from repro.empire.mesh import Mesh2D
from repro.empire.particles import ParticlePopulation
from repro.empire.workload import ColorWorkloadModel


class TestColorWorkloadModel:
    def test_affine_in_counts(self):
        mesh = Mesh2D(4, colors_per_rank=2, cells_per_color=10)
        model = ColorWorkloadModel(seconds_per_particle=2.0, seconds_per_cell=0.5)
        counts = np.array([0, 1, 2, 3, 4, 5, 6, 7])
        loads = model.loads_from_counts(mesh, counts)
        np.testing.assert_allclose(loads, 0.5 * 10 + 2.0 * counts)

    def test_color_loads_uses_binned_particles(self):
        mesh = Mesh2D(4, colors_per_rank=1)
        model = ColorWorkloadModel(seconds_per_particle=1.0, seconds_per_cell=0.0)
        pop = ParticlePopulation(np.array([[0.1, 0.1], [0.9, 0.9]]), np.zeros((2, 2)))
        loads = model.loads_from_counts(mesh, pop.count_per_color(mesh))
        assert loads.sum() == pytest.approx(2.0)

    def test_count_shape_checked(self):
        mesh = Mesh2D(4, colors_per_rank=2)
        with pytest.raises(ValueError, match="one count per color"):
            ColorWorkloadModel().loads_from_counts(mesh, np.zeros(3))

    def test_zero_particles_gives_cell_floor(self):
        mesh = Mesh2D(2, colors_per_rank=2, cells_per_color=8)
        model = ColorWorkloadModel(seconds_per_particle=1.0, seconds_per_cell=0.25)
        loads = model.loads_from_counts(mesh, np.zeros(4, dtype=int))
        np.testing.assert_allclose(loads, 2.0)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            ColorWorkloadModel(seconds_per_particle=-1.0)


class TestFieldSolveModel:
    def test_balanced_without_jitter(self):
        model = FieldSolveModel(seconds_per_cell=1e-3, fixed_seconds=0.1, jitter=0.0)
        times = model.step_time(100, 8)
        np.testing.assert_allclose(times, 0.2)

    def test_jitter_varies_but_bounded(self):
        model = FieldSolveModel(seconds_per_cell=1e-3, fixed_seconds=0.0, jitter=0.05, seed=0)
        times = model.step_time(1000, 64)
        assert times.std() > 0
        assert times.min() >= 0.5 * 1.0 and times.max() <= 1.5 * 1.0

    def test_scales_with_cells(self):
        model = FieldSolveModel(seconds_per_cell=1e-3, fixed_seconds=0.0, jitter=0.0)
        assert model.step_time(200, 2)[0] == 2 * model.step_time(100, 2)[0]
