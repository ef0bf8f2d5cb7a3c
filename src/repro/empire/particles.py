"""Particle population: storage, motion, and color binning.

A flat structure-of-arrays container (positions and velocities as
``(n, 2)`` float arrays) with vectorized advancement. Boundaries are
reflecting, as in a bounded plasma device chamber.

The population owns its storage: rows live in capacity-doubling backing
arrays, :meth:`ParticlePopulation.advance` moves them in place and
:meth:`ParticlePopulation.count_per_color` bins them inside scratch of
the same capacity, so a steady-state step allocates nothing that grows
with the particle count.
"""

from __future__ import annotations

import numpy as np

from repro.empire.mesh import _SUP, BinScratch, Mesh2D

__all__ = ["ParticlePopulation", "reflect_into_unit_square"]

#: Bit pattern of 1.0. A double lies in [0, 1) exactly when its bits,
#: read as an unsigned integer, are below this: negatives (and -0.0)
#: carry the sign bit, inf and NaN a full exponent.
_ONE_BITS = np.float64(1.0).view(np.uint64)


def reflect_into_unit_square(pos: np.ndarray) -> np.ndarray:
    """Fold coordinates into ``[0, 1)`` off reflecting walls, in place.

    ``pos`` is folded into ``[0, 2)``, the upper half mirrored back and
    the result clipped below 1.0. Returns the mask of mirrored entries —
    the ones whose velocity component changes sign.
    """
    np.mod(pos, 2.0, out=pos)
    over = pos >= 1.0
    pos[over] = 2.0 - pos[over]
    np.clip(pos, 0.0, _SUP, out=pos)
    return over


def _check_rows(positions: np.ndarray, velocities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pos = np.asarray(positions, dtype=np.float64)
    vel = np.asarray(velocities, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError("positions must have shape (n, 2)")
    if pos.shape != vel.shape:
        raise ValueError("positions and velocities must have the same shape")
    if not np.isfinite(pos).all():
        raise ValueError("positions must be finite")
    if not np.isfinite(vel).all():
        raise ValueError("velocities must be finite")
    if pos.size and (pos.min() < 0.0 or pos.max() >= 1.0):
        raise ValueError("positions must lie in the unit square [0, 1)")
    return pos, vel


class ParticlePopulation:
    """A set of simulation particles on the unit square.

    ``positions`` and ``velocities`` are views of storage the population
    owns (the constructor and :meth:`inject` copy what they are given).
    Writing through them is allowed — a field push updates velocities
    that way — but a view goes stale at the next :meth:`inject`, which
    may move the storage.
    """

    def __init__(self, positions: np.ndarray, velocities: np.ndarray) -> None:
        pos, vel = _check_rows(positions, velocities)
        self._count = 0
        self._reserve(pos.shape[0])
        self._append(pos, vel)

    @classmethod
    def empty(cls) -> "ParticlePopulation":
        return cls(np.empty((0, 2)), np.empty((0, 2)))

    @property
    def count(self) -> int:
        return self._count

    @property
    def positions(self) -> np.ndarray:
        return self._pos[: self._count]

    @property
    def velocities(self) -> np.ndarray:
        return self._vel[: self._count]

    # -- storage --------------------------------------------------------------

    def _reserve(self, capacity: int) -> None:
        """Move the rows into fresh storage for ``capacity`` particles."""
        pos = np.empty((capacity, 2), dtype=np.float64)
        vel = np.empty((capacity, 2), dtype=np.float64)
        if self._count:
            pos[: self._count] = self.positions
            vel[: self._count] = self.velocities
        self._pos, self._vel = pos, vel
        self._scratch = BinScratch(capacity)
        self._outside = np.empty((capacity, 2), dtype=np.bool_)

    def _append(self, pos: np.ndarray, vel: np.ndarray) -> None:
        start, stop = self._count, self._count + pos.shape[0]
        capacity = self._pos.shape[0]
        if stop > capacity:
            self._reserve(max(stop, 2 * capacity))
        self._pos[start:stop] = pos
        self._vel[start:stop] = vel
        self._count = stop

    # -- the PIC step ---------------------------------------------------------

    def advance(self, dt: float) -> None:
        """Move particles by ``dt`` with reflecting boundaries.

        Raises ``ValueError`` if a velocity is (or ``v * dt`` overflows
        to) a non-finite value; the population is then part-advanced
        and must be discarded.
        """
        if dt < 0:
            raise ValueError("dt must be non-negative")
        pos, vel = self.positions, self.velocities
        # Borrowed: the color count refills its scratch from nothing.
        step = self._scratch.work[:2].reshape(-1, 2)[: self._count]
        np.multiply(vel, dt, out=step)
        pos += step
        # Folding is the identity on [0, 1), so fold only what left it.
        outside = np.greater_equal(
            pos.view(np.uint64), _ONE_BITS, out=self._outside[: self._count]
        )
        left = np.flatnonzero(outside)
        coords = pos.reshape(-1)
        moved = coords[left]
        if not np.isfinite(moved).all():
            raise ValueError(
                f"velocities must be finite: advance({dt}) left "
                f"{np.count_nonzero(~np.isfinite(moved))} coordinates non-finite"
            )
        over = reflect_into_unit_square(moved)
        coords[left] = moved
        vel.reshape(-1)[left[over]] *= -1.0

    def inject(self, positions: np.ndarray, velocities: np.ndarray) -> None:
        """Append newly created particles (copied; validated row by row)."""
        self._append(*_check_rows(positions, velocities))

    def replace_rows(self, positions: np.ndarray, velocities: np.ndarray) -> None:
        """Make these rows (copied; validated) the whole population.

        How a population advanced elsewhere — in a physics worker —
        comes back: the storage is kept if it is large enough.
        """
        pos, vel = _check_rows(positions, velocities)
        self._count = 0
        self._append(pos, vel)

    def count_per_color(self, mesh: Mesh2D) -> np.ndarray:
        """Particles per color, length ``mesh.n_colors``."""
        if self._count == 0:
            return np.zeros(mesh.n_colors, dtype=np.int64)
        pos = self.positions
        colors = mesh.locate(pos[:, 0], pos[:, 1], self._scratch)
        return np.bincount(colors, minlength=mesh.n_colors)
