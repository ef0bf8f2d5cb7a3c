"""Electrostatic PIC physics: deposition, Poisson solve, field push.

The benchmark runs use the kinematic B-Dot scenario (calibrated to the
paper's imbalance trajectory); this module provides an *actual*
particle-in-cell step for users who want physical dynamics: charges
deposit onto a periodic grid, the Poisson equation is solved by Jacobi
iteration, the electric field accelerates the particles, and the plasma
expands under its own space charge — producing organically time-varying
imbalance rather than a prescribed one.

Units are non-dimensional (unit square, unit-ish charge), as usual for
mini-apps; the point is the *load dynamics*, not quantitative plasma
physics.
"""

from __future__ import annotations

import numpy as np

from repro.empire.particles import ParticlePopulation, reflect_into_unit_square
from repro.util.validation import check_nonnegative, check_positive, coerce_rng

__all__ = ["PoissonSolver", "ElectrostaticStepper", "ElectrostaticScenario"]


class PoissonSolver:
    """Jacobi solver for the periodic Poisson equation on a square grid.

    Solves ``laplacian(phi) = -rho`` with periodic boundaries. The
    right-hand side is mean-shifted (a periodic Poisson problem is only
    solvable for zero-mean sources); the solution is the zero-mean
    potential.
    """

    def __init__(self, nx: int, ny: int, sweeps: int = 60) -> None:
        check_positive("nx", nx)
        check_positive("ny", ny)
        check_positive("sweeps", sweeps)
        self.nx = int(nx)
        self.ny = int(ny)
        self.sweeps = int(sweeps)
        self.hx = 1.0 / self.nx
        self.hy = 1.0 / self.ny

    def solve(self, rho: np.ndarray, phi0: np.ndarray | None = None) -> np.ndarray:
        """Return the (approximate) zero-mean potential for ``rho``."""
        rho = np.asarray(rho, dtype=np.float64)
        if rho.shape != (self.ny, self.nx):
            raise ValueError(f"rho must have shape {(self.ny, self.nx)}")
        source = rho - rho.mean()
        phi = np.zeros_like(source) if phi0 is None else np.array(phi0, dtype=np.float64)
        hx2, hy2 = self.hx**2, self.hy**2
        denom = 2.0 * (hx2 + hy2)
        for _ in range(self.sweeps):
            neighbor = hy2 * (np.roll(phi, 1, axis=1) + np.roll(phi, -1, axis=1)) + hx2 * (
                np.roll(phi, 1, axis=0) + np.roll(phi, -1, axis=0)
            )
            phi = (neighbor + hx2 * hy2 * source) / denom
            phi -= phi.mean()
        return phi

    def field(self, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``E = -grad(phi)`` by periodic central differences."""
        ex = -(np.roll(phi, -1, axis=1) - np.roll(phi, 1, axis=1)) / (2 * self.hx)
        ey = -(np.roll(phi, -1, axis=0) - np.roll(phi, 1, axis=0)) / (2 * self.hy)
        return ex, ey


class ElectrostaticStepper:
    """One PIC step: deposit -> solve -> interpolate -> push."""

    def __init__(
        self,
        nx: int = 64,
        ny: int = 64,
        charge: float = 1.0,
        dt: float = 1.0,
        mobility: float = 2e-4,
        sweeps: int = 60,
    ) -> None:
        check_nonnegative("charge", charge)
        check_positive("dt", dt)
        check_nonnegative("mobility", mobility)
        self.solver = PoissonSolver(nx, ny, sweeps=sweeps)
        self.charge = float(charge)
        self.dt = float(dt)
        #: Velocity change per unit field per step (lumps q/m and dt).
        self.mobility = float(mobility)
        self._phi: np.ndarray | None = None

    def _cell_of(self, population: ParticlePopulation) -> np.ndarray:
        """Row-major grid cell holding each particle."""
        nx, ny = self.solver.nx, self.solver.ny
        i = np.minimum((population.positions[:, 0] * nx).astype(np.int64), nx - 1)
        j = np.minimum((population.positions[:, 1] * ny).astype(np.int64), ny - 1)
        return j * nx + i

    def _density(self, cells: np.ndarray) -> np.ndarray:
        """Charge density of particles sitting in ``cells``, shape ``(ny, nx)``."""
        nx, ny = self.solver.nx, self.solver.ny
        cell_area = self.solver.hx * self.solver.hy
        rho = np.bincount(cells, minlength=nx * ny).astype(np.float64)
        return self.charge * rho.reshape(ny, nx) / cell_area / max(cells.size, 1)

    def deposit(self, population: ParticlePopulation) -> np.ndarray:
        """Nearest-grid-point charge deposition, shape ``(ny, nx)``."""
        return self._density(self._cell_of(population))

    def step(self, population: ParticlePopulation) -> None:
        """Advance the plasma one step under its own space charge."""
        if population.count == 0:
            return
        cells = self._cell_of(population)  # deposit and gather share them
        phi = self.solver.solve(self._density(cells), phi0=self._phi)
        self._phi = phi  # warm-start the next solve
        ex, ey = self.solver.field(phi)
        population.velocities[:, 0] += self.mobility * ex.reshape(-1)[cells]
        population.velocities[:, 1] += self.mobility * ey.reshape(-1)[cells]
        population.advance(self.dt)


class ElectrostaticScenario:
    """A PIC scenario (initialize/step) driven by real space charge.

    Drop-in alternative to :class:`repro.empire.bdot.BDotScenario` for
    :class:`repro.empire.pic.PICSimulation`: a dense plasma blob expands
    under self-repulsion while an emitter keeps injecting, so the load
    distribution spreads and grows without any prescribed drift.
    """

    def __init__(
        self,
        initial_particles: int = 20_000,
        injection_per_step: int = 100,
        blob_center: tuple[float, float] = (0.35, 0.5),
        blob_sigma: float = 0.08,
        thermal_speed: float = 3e-4,
        nx: int = 64,
        ny: int = 64,
        mobility: float = 2e-4,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        check_positive("initial_particles", initial_particles)
        check_nonnegative("injection_per_step", injection_per_step)
        check_positive("blob_sigma", blob_sigma)
        self.initial_particles = int(initial_particles)
        self.injection_per_step = int(injection_per_step)
        self.blob_center = np.asarray(blob_center, dtype=np.float64)
        self.blob_sigma = float(blob_sigma)
        self.thermal_speed = float(thermal_speed)
        self.stepper = ElectrostaticStepper(nx=nx, ny=ny, mobility=mobility)
        self._rng = coerce_rng(seed)

    def _spawn(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        rng = self._rng
        pos = self.blob_center + rng.normal(0.0, self.blob_sigma, size=(n, 2))
        reflect_into_unit_square(pos)
        vel = rng.normal(0.0, self.thermal_speed, size=(n, 2))
        return pos, vel

    def initialize(self) -> ParticlePopulation:
        pos, vel = self._spawn(self.initial_particles)
        return ParticlePopulation(pos, vel)

    def get_state(self) -> dict:
        """The scenario's own mutable state: its random stream and the
        stepper's warm-start potential."""
        return {"rng": self._rng.bit_generator.state, "phi": self.stepper._phi}

    def set_state(self, state: dict) -> None:
        """Resume from :meth:`get_state` (e.g. of a worker's copy)."""
        self._rng.bit_generator.state = state["rng"]
        self.stepper._phi = state["phi"]

    def step(self, population: ParticlePopulation, step_index: int) -> None:
        self.stepper.step(population)
        if self.injection_per_step:
            pos, vel = self._spawn(self.injection_per_step)
            population.inject(pos, vel)
