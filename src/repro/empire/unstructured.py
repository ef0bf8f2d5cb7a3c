"""Unstructured triangular meshes — EMPIRE's real mesh type.

§ VI-A: EMPIRE "utilizes a Finite Element Method (FEM) on unstructured
meshes". This module provides that substrate: a Delaunay triangulation
of the unit square, an SPMD rank decomposition via graph partitioning
of the dual graph (the Zoltan role), and a per-rank coloring into
migratable chunks by recursive partitioning of each rank's sub-dual —
the unstructured analogue of Fig. 1's coloring.

The resulting object is interface-compatible with
:class:`repro.empire.mesh.Mesh2D` where the PIC loop needs it
(``n_ranks``, ``n_colors``, ``home_assignment``, ``cells_per_rank``,
``cells_per_color`` — per-color *array* here — ``color_of_position``
and ``locate``), so :class:`repro.empire.pic.PICSimulation` runs on it
unchanged.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import Delaunay

from repro.core.comm import CommGraph
from repro.core.graphpart import AdjacencyGraph, grow_partition, refine_partition
from repro.util.validation import check_positive, coerce_rng

__all__ = ["UnstructuredMesh2D"]


class UnstructuredMesh2D:
    """A triangulated unit square, partitioned into ranks and colors."""

    def __init__(
        self,
        n_ranks: int,
        colors_per_rank: int = 8,
        n_points: int = 2000,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        check_positive("n_ranks", n_ranks)
        check_positive("colors_per_rank", colors_per_rank)
        check_positive("n_points", n_points)
        self.n_ranks = int(n_ranks)
        self.colors_per_rank = int(colors_per_rank)
        rng = coerce_rng(seed)

        # Jittered-grid points + pinned corners: quality triangles with
        # full unit-square coverage.
        side = max(int(np.sqrt(n_points)), 2)
        grid = (np.stack(np.meshgrid(np.arange(side), np.arange(side)), axis=-1)
                .reshape(-1, 2).astype(np.float64) + 0.5) / side
        jitter = rng.uniform(-0.35 / side, 0.35 / side, size=grid.shape)
        corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        self.points = np.concatenate([grid + jitter, corners])
        self._tri = Delaunay(self.points)
        self.n_cells = len(self._tri.simplices)
        if self.n_cells < self.n_ranks * self.colors_per_rank:
            raise ValueError(
                f"{self.n_cells} triangles cannot form "
                f"{self.n_ranks}x{self.colors_per_rank} colors; raise n_points"
            )

        # Dual graph: triangles adjacent across shared edges.
        edges = self._dual_edges()
        dual = AdjacencyGraph(self.n_cells, edges)
        # SPMD decomposition (the Zoltan role).
        self.cell_rank = refine_partition(
            dual, grow_partition(dual, self.n_ranks, rng=rng), self.n_ranks
        )
        # Per-rank coloring: partition each rank's sub-dual into chunks.
        self.cell_color = self._color_cells(edges, rng)
        self.n_colors = self.n_ranks * self.colors_per_rank
        #: Triangles per color (unstructured: NOT uniform).
        self.cells_per_color = np.bincount(self.cell_color, minlength=self.n_colors)
        self._color_home = np.repeat(np.arange(self.n_ranks), self.colors_per_rank)

    # -- construction internals ----------------------------------------------

    def _dual_edges(self) -> np.ndarray:
        pairs = []
        for cell, nbrs in enumerate(self._tri.neighbors):
            for nb in nbrs:
                if nb > cell:  # each shared edge once; -1 = boundary
                    pairs.append((cell, int(nb)))
        return np.asarray(pairs, dtype=np.int64)

    def _color_cells(self, edges: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        color = np.full(self.n_cells, -1, dtype=np.int64)
        for rank in range(self.n_ranks):
            cells = np.flatnonzero(self.cell_rank == rank)
            local_index = {int(c): k for k, c in enumerate(cells)}
            mask = np.isin(edges, cells).all(axis=1)
            local_edges = np.array(
                [(local_index[int(a)], local_index[int(b)]) for a, b in edges[mask]],
                dtype=np.int64,
            ).reshape(-1, 2)
            sub = AdjacencyGraph(len(cells), local_edges)
            parts = refine_partition(
                sub, grow_partition(sub, self.colors_per_rank, rng=rng),
                self.colors_per_rank,
            )
            color[cells] = rank * self.colors_per_rank + parts
        return color

    # -- Mesh2D-compatible interface ------------------------------------------

    def home_assignment(self) -> np.ndarray:
        """Color -> home rank (colors are carved inside ranks)."""
        return self._color_home.copy()

    def home_rank_of_color(self, color: np.ndarray | int) -> np.ndarray | int:
        return np.asarray(color) // self.colors_per_rank

    def cells_per_rank(self) -> float:
        """Mean triangles per rank (the SPMD field-work granularity)."""
        return self.n_cells / self.n_ranks

    def color_of_position(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Color containing each position (Delaunay point location)."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        simplex = self._tri.find_simplex(np.column_stack([x, y]))
        if (simplex < 0).any():
            # Numerical edge cases on the hull: snap to the nearest
            # triangle by centroid distance.
            missing = np.flatnonzero(simplex < 0)
            centroids = self.cell_centroids()
            for idx in missing:
                d = (centroids[:, 0] - x[idx]) ** 2 + (centroids[:, 1] - y[idx]) ** 2
                simplex[idx] = int(np.argmin(d))
        return self.cell_color[simplex]

    def locate(self, x: np.ndarray, y: np.ndarray, scratch: object) -> np.ndarray:
        """What :meth:`ParticlePopulation.count_per_color` calls on a mesh.

        Point location allocates its own work arrays; ``scratch`` is
        accepted for :meth:`Mesh2D.locate`'s signature and left alone.
        """
        return self.color_of_position(x, y)

    def cell_centroids(self) -> np.ndarray:
        """Triangle centroids, shape ``(n_cells, 2)``."""
        return self.points[self._tri.simplices].mean(axis=1)

    def color_centers(self) -> np.ndarray:
        """Mean centroid of each color's triangles, shape ``(n_colors, 2)``
        (the geometry RCB repartitioning operates on)."""
        centroids = self.cell_centroids()
        centers = np.zeros((self.n_colors, 2))
        for axis in range(2):
            sums = np.bincount(
                self.cell_color, weights=centroids[:, axis], minlength=self.n_colors
            )
            centers[:, axis] = sums / np.maximum(self.cells_per_color, 1)
        return centers

    def neighbor_comm_graph(self, bytes_per_boundary: float = 1.0) -> CommGraph:
        """Halo-exchange graph between adjacent *colors*."""
        edges = self._dual_edges()
        ca, cb = self.cell_color[edges[:, 0]], self.cell_color[edges[:, 1]]
        crossing = ca != cb
        # Aggregate parallel edges between the same color pair.
        pairs: dict[tuple[int, int], float] = {}
        for a, b in zip(ca[crossing], cb[crossing]):
            key = (int(min(a, b)), int(max(a, b)))
            pairs[key] = pairs.get(key, 0.0) + float(bytes_per_boundary)
        if not pairs:
            return CommGraph(np.empty(0), np.empty(0), np.empty(0), self.n_colors)
        src = np.array([k[0] for k in pairs])
        dst = np.array([k[1] for k in pairs])
        vol = np.array(list(pairs.values()))
        return CommGraph(src, dst, vol, self.n_colors)
