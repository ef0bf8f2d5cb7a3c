"""Unit tests for repro.empire.particles and bdot."""

import numpy as np
import pytest

from repro.empire.bdot import BDotScenario
from repro.empire.mesh import Mesh2D
from repro.empire.particles import ParticlePopulation


class TestParticlePopulation:
    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            ParticlePopulation(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="unit square"):
            ParticlePopulation(np.array([[1.5, 0.5]]), np.zeros((1, 2)))

    def test_advance_moves_particles(self):
        p = ParticlePopulation(np.array([[0.5, 0.5]]), np.array([[0.1, 0.0]]))
        p.advance(1.0)
        np.testing.assert_allclose(p.positions, [[0.6, 0.5]])

    def test_reflecting_boundary(self):
        p = ParticlePopulation(np.array([[0.95, 0.5]]), np.array([[0.1, 0.0]]))
        p.advance(1.0)
        assert 0.0 <= p.positions[0, 0] < 1.0
        np.testing.assert_allclose(p.positions[0, 0], 0.95, atol=1e-12)
        assert p.velocities[0, 0] == -0.1  # reflected

    def test_positions_always_in_domain(self):
        rng = np.random.default_rng(0)
        p = ParticlePopulation(rng.random((500, 2)), rng.normal(0, 0.3, (500, 2)))
        for _ in range(20):
            p.advance(1.0)
            assert p.positions.min() >= 0.0 and p.positions.max() < 1.0

    def test_inject(self):
        p = ParticlePopulation.empty()
        p.inject(np.array([[0.1, 0.2]]), np.array([[0.0, 0.0]]))
        assert p.count == 1

    def test_count_per_color_conserves(self):
        mesh = Mesh2D(4, colors_per_rank=4)
        rng = np.random.default_rng(1)
        p = ParticlePopulation(rng.random((300, 2)), np.zeros((300, 2)))
        counts = p.count_per_color(mesh)
        assert counts.sum() == 300

    def test_empty_counts(self):
        mesh = Mesh2D(4)
        assert ParticlePopulation.empty().count_per_color(mesh).sum() == 0

    def test_negative_dt_rejected(self):
        p = ParticlePopulation.empty()
        with pytest.raises(ValueError):
            p.advance(-1.0)

    def test_population_owns_its_rows(self):
        """The mover works in place, so it must not be the caller's place."""
        pos, vel = np.array([[0.95, 0.5]]), np.array([[0.1, 0.0]])
        p = ParticlePopulation(pos, vel)
        assert not np.shares_memory(pos, p.positions)
        assert not np.shares_memory(vel, p.velocities)
        p.advance(1.0)
        assert p.velocities[0, 0] == -0.1  # reflected
        np.testing.assert_array_equal(pos, [[0.95, 0.5]])
        np.testing.assert_array_equal(vel, [[0.1, 0.0]])

        p.inject(pos, vel)
        assert not np.shares_memory(pos, p.positions)
        assert not np.shares_memory(vel, p.velocities)
        p.advance(1.0)
        np.testing.assert_array_equal(p.velocities[:, 0], [-0.1, -0.1])
        np.testing.assert_array_equal(pos, [[0.95, 0.5]])
        np.testing.assert_array_equal(vel, [[0.1, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, bad):
        ok = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError, match="positions must be finite"):
            ParticlePopulation(np.array([[0.5, bad]]), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="velocities must be finite"):
            ParticlePopulation(ok, np.array([[bad, 0.0]]))
        p = ParticlePopulation(ok, np.zeros((1, 2)))
        with pytest.raises(ValueError, match="positions must be finite"):
            p.inject(np.array([[bad, 0.5]]), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="velocities must be finite"):
            p.inject(ok, np.array([[0.0, bad]]))
        assert p.count == 1  # a rejected injection adds nothing

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow too
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
    def test_advance_names_a_non_finite_velocity(self, bad):
        """A field push writes velocities through the view; one that
        diverges must stop the run, not miscount a NaN's garbage cell."""
        p = ParticlePopulation(np.full((50, 2), 0.5), np.zeros((50, 2)))
        p.velocities[7, 1] = bad
        with pytest.raises(ValueError, match="velocities must be finite"):
            p.advance(50.0)


class TestBDotScenario:
    def test_initial_population_size(self):
        scen = BDotScenario(initial_particles=1000, seed=0)
        pop = scen.initialize()
        assert pop.count == 1000

    def test_injection_grows_population(self):
        scen = BDotScenario(initial_particles=100, injection_per_step=10, seed=0)
        pop = scen.initialize()
        for step in range(1, 6):
            scen.step(pop, step)
        assert pop.count == 150

    def test_no_injection(self):
        scen = BDotScenario(initial_particles=100, injection_per_step=0, seed=0)
        pop = scen.initialize()
        scen.step(pop, 1)
        assert pop.count == 100

    def test_plume_concentrated_initially(self):
        mesh = Mesh2D(100, colors_per_rank=4)
        scen = BDotScenario(initial_particles=20_000, seed=0)
        pop = scen.initialize()
        counts = pop.count_per_color(mesh)
        # a Gaussian plume: the top 10% of colors hold most particles
        top = np.sort(counts)[-mesh.n_colors // 10 :]
        assert top.sum() > 0.5 * pop.count

    def test_imbalance_decays_over_time(self):
        mesh = Mesh2D(64, colors_per_rank=4)
        scen = BDotScenario(initial_particles=5000, injection_per_step=20, seed=0)
        pop = scen.initialize()
        home = mesh.home_assignment()

        def rank_imbalance():
            loads = np.bincount(home, weights=pop.count_per_color(mesh).astype(float), minlength=64)
            return loads.max() / loads.mean() - 1

        early = rank_imbalance()
        for step in range(1, 400):
            scen.step(pop, step)
        late = rank_imbalance()
        assert late < early

    def test_core_fraction_validation(self):
        with pytest.raises(ValueError, match="core_fraction"):
            BDotScenario(core_fraction=1.5)

    def test_deterministic(self):
        a = BDotScenario(initial_particles=100, seed=7).initialize()
        b = BDotScenario(initial_particles=100, seed=7).initialize()
        np.testing.assert_array_equal(a.positions, b.positions)
