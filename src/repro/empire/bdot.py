"""The B-Dot-like scenario: a drifting, expanding particle plume.

§ VI-B: "the particle load varies dramatically over the course of the
run, but at a rate that allows us to successfully apply the principle of
persistence", and Fig. 4c shows the no-LB imbalance starting near 7 and
decaying toward ~3.3 *because the average rank load grows* as particle
work increases.

The surrogate reproduces those dynamics: a Gaussian plume of plasma
(``emitter_sigma`` controls its footprint, hence the peak-to-average
work ratio — i.e. the imbalance) drifts across the domain with a thermal
spread, while an emitter at the plume's birthplace keeps injecting new
particles every step. Early on the plume concentrates in a minority of
colors (per-rank task-load imbalance ~7, as in Fig. 4b/4c); as the
population grows and spreads, total work rises and relative imbalance
falls — while the hotspot keeps moving, so a one-shot balance decays.
"""

from __future__ import annotations

import numpy as np

from repro.empire.particles import ParticlePopulation, reflect_into_unit_square
from repro.util.validation import check_nonnegative, check_positive, coerce_rng

__all__ = ["BDotScenario"]


class BDotScenario:
    """Particle source + motion model for the EMPIRE surrogate."""

    def __init__(
        self,
        initial_particles: int = 40_000,
        injection_per_step: int = 200,
        emitter_center: tuple[float, float] = (0.3, 0.5),
        emitter_sigma: float = 0.18,
        core_sigma: float = 0.03,
        core_fraction: float = 0.27,
        drift_velocity: tuple[float, float] = (1e-3, 1.5e-4),
        thermal_speed: float = 7e-4,
        dt: float = 1.0,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        check_positive("initial_particles", initial_particles)
        check_nonnegative("injection_per_step", injection_per_step)
        check_positive("emitter_sigma", emitter_sigma)
        check_positive("core_sigma", core_sigma)
        check_nonnegative("core_fraction", core_fraction)
        if core_fraction > 1.0:
            raise ValueError("core_fraction must be in [0, 1]")
        check_nonnegative("thermal_speed", thermal_speed)
        check_positive("dt", dt)
        self.initial_particles = int(initial_particles)
        self.injection_per_step = int(injection_per_step)
        self.emitter_center = np.asarray(emitter_center, dtype=np.float64)
        self.emitter_sigma = float(emitter_sigma)
        #: A dense core inside the halo: the colors it loads approach the
        #: average rank load, which is what defeats the original (strict)
        #: transfer criterion while the relaxed one still drains them.
        self.core_sigma = float(core_sigma)
        self.core_fraction = float(core_fraction)
        self.drift_velocity = np.asarray(drift_velocity, dtype=np.float64)
        self.thermal_speed = float(thermal_speed)
        self.dt = float(dt)
        self._rng = coerce_rng(seed)

    def _spawn(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Sample ``n`` plume particles (core+halo blob, drift + thermal v)."""
        rng = self._rng
        n_core = int(round(n * self.core_fraction))
        sigma = np.where(np.arange(n) < n_core, self.core_sigma, self.emitter_sigma)
        pos = self.emitter_center + rng.normal(0.0, 1.0, size=(n, 2)) * sigma[:, None]
        reflect_into_unit_square(pos)  # same boundary as the mover
        vel = self.drift_velocity + rng.normal(0.0, self.thermal_speed, size=(n, 2))
        return pos, vel

    def initialize(self) -> ParticlePopulation:
        """The population at step 0."""
        pos, vel = self._spawn(self.initial_particles)
        return ParticlePopulation(pos, vel)

    def get_state(self) -> dict:
        """The scenario's own mutable state: its random stream."""
        return {"rng": self._rng.bit_generator.state}

    def set_state(self, state: dict) -> None:
        """Resume from :meth:`get_state` (e.g. of a worker's copy)."""
        self._rng.bit_generator.state = state["rng"]

    def step(self, population: ParticlePopulation, step_index: int) -> None:
        """Advance one timestep: move everything, then inject new plasma."""
        population.advance(self.dt)
        if self.injection_per_step:
            pos, vel = self._spawn(self.injection_per_step)
            population.inject(pos, vel)
