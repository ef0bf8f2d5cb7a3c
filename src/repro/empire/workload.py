"""Per-color load model.

A color's particle-update cost is affine in its content::

    load(color) = cell_cost * cells(color) + particle_cost * particles(color)

The cell term is the fixed sub-mesh work (gather/scatter of fields to
the color boundary); the particle term — push, current deposition,
sorting — dominates wherever the plume is dense, producing the dynamic
imbalance that motivates the paper.
"""

from __future__ import annotations

import numpy as np

from repro.empire.mesh import Mesh2D
from repro.util.validation import check_nonnegative

__all__ = ["ColorWorkloadModel"]


class ColorWorkloadModel:
    """Maps mesh + particles to per-color loads (seconds of work)."""

    def __init__(
        self,
        seconds_per_particle: float = 1e-4,
        seconds_per_cell: float = 1e-6,
    ) -> None:
        check_nonnegative("seconds_per_particle", seconds_per_particle)
        check_nonnegative("seconds_per_cell", seconds_per_cell)
        self.seconds_per_particle = float(seconds_per_particle)
        self.seconds_per_cell = float(seconds_per_cell)

    def loads_from_counts(self, mesh: Mesh2D, counts: np.ndarray) -> np.ndarray:
        """Per-color load from precomputed particle counts."""
        counts = np.asarray(counts)
        if counts.shape != (mesh.n_colors,):
            raise ValueError("need one count per color")
        return (
            self.seconds_per_cell * mesh.cells_per_color
            + self.seconds_per_particle * counts
        )
