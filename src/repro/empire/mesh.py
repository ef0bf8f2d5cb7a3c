"""2-D structured mesh with SPMD decomposition and per-rank coloring.

Mirrors Fig. 1 of the paper: the unit square is block-decomposed onto a
``px x py`` rank grid (the static SPMD decomposition that balances the
FEM field solve), and each rank's block is further subdivided into
``colors_per_rank`` *colors* — the migratable chunks that carry their
sub-mesh and particles. Colors are identified as
``rank * colors_per_rank + local_index``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.util.validation import check_positive

__all__ = ["BinScratch", "Mesh2D", "grid_dims"]

#: Largest double strictly below 1.0 — positions live in [0, 1).
_SUP = np.nextafter(1.0, 0.0)


def grid_dims(n: int) -> tuple[int, int]:
    """Near-square factorization ``(a, b)`` with ``a*b == n`` and ``a <= b``."""
    check_positive("n", n)
    a = int(math.isqrt(n))
    while a > 1 and n % a != 0:
        a -= 1
    return a, n // a


def _block_and_cell(
    coord: np.ndarray, blocks: int, cells: int, block: np.ndarray, cell: np.ndarray
) -> None:
    """One axis of the color lookup, written into ``block`` and ``cell``.

    Scale the coordinate to the ``blocks`` rank blocks and truncate for
    the block index; subtract for the block-local coordinate; scale that
    to the block's ``cells`` color cells and truncate again. The
    ``minimum`` after each truncation and the clamp below 1.0 keep a
    product that rounds up to a block edge inside the block.
    """
    np.multiply(coord, blocks, out=cell)
    np.floor(cell, out=block)
    np.minimum(block, blocks - 1, out=block)
    cell -= block
    np.minimum(cell, _SUP, out=cell)
    cell *= cells
    np.floor(cell, out=cell)
    np.minimum(cell, cells - 1, out=cell)


class BinScratch:
    """Work arrays that :meth:`Mesh2D.locate` fills instead of allocating.

    Sized once for ``capacity`` positions and reused for every call on
    that many or fewer; the colors a call returns are a view of
    ``colors`` and are overwritten by the next call.
    """

    def __init__(self, capacity: int) -> None:
        #: Three float rows: block index, cell index, and the color id
        #: being summed from them (all integers far below 2**53).
        self.work = np.empty((3, capacity), dtype=np.float64)
        #: ``intp``, so ``np.bincount`` reads it without converting.
        self.colors = np.empty(capacity, dtype=np.intp)


class Mesh2D:
    """Unit-square mesh: rank blocks, colors, and cell/particle binning."""

    def __init__(
        self,
        n_ranks: int,
        colors_per_rank: int = 24,
        cells_per_color: int = 64,
    ) -> None:
        check_positive("n_ranks", n_ranks)
        check_positive("colors_per_rank", colors_per_rank)
        check_positive("cells_per_color", cells_per_color)
        self.n_ranks = int(n_ranks)
        self.colors_per_rank = int(colors_per_rank)
        self.n_colors = self.n_ranks * self.colors_per_rank
        #: Cells per color (uniform by construction — the mesh is
        #: structured; what varies is the *particle* content).
        self.cells_per_color = int(cells_per_color)
        self.px, self.py = grid_dims(self.n_ranks)
        self.cx, self.cy = grid_dims(self.colors_per_rank)

    # -- ownership ----------------------------------------------------------

    def home_rank_of_color(self, color: np.ndarray | int) -> np.ndarray | int:
        """The SPMD rank whose block contains a color's sub-mesh."""
        return np.asarray(color) // self.colors_per_rank

    def home_assignment(self) -> np.ndarray:
        """Color -> home rank (the initial, unmigrated mapping)."""
        return np.repeat(np.arange(self.n_ranks), self.colors_per_rank)

    def cells_per_rank(self) -> int:
        """Mesh cells per rank (uniform — the FEM work is balanced)."""
        return self.cells_per_color * self.colors_per_rank

    # -- geometric binning ----------------------------------------------------

    def color_of_position(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Color containing each unit-square position (vectorized)."""
        x, y = self._check_positions(x, y)
        colors = self.locate(x.ravel(), y.ravel(), BinScratch(x.size))
        return colors.reshape(x.shape)

    def locate(self, x: np.ndarray, y: np.ndarray, scratch: BinScratch) -> np.ndarray:
        """:meth:`color_of_position` for 1-D ``x``/``y`` the caller
        guarantees lie in ``[0, 1)``, computed inside ``scratch``.

        ``color = (j*px + i) * colors_per_rank + cj*cx + ci``, with the
        indices kept in float64 — exact at these sizes, and every pass
        vectorizes — until the one cast at the end.
        """
        n = x.size
        block, cell, color = scratch.work[:, :n]
        _block_and_cell(x, self.px, self.cx, block, cell)  # i, ci
        np.multiply(block, self.colors_per_rank, out=color)
        color += cell
        _block_and_cell(y, self.py, self.cy, block, cell)  # j, cj
        block *= self.px * self.colors_per_rank
        color += block
        cell *= self.cx
        color += cell
        out = scratch.colors[:n]
        np.copyto(out, color, casting="unsafe")
        return out

    def color_centers(self) -> np.ndarray:
        """Geometric center of every color, shape ``(n_colors, 2)``."""
        centers = np.empty((self.n_colors, 2))
        for rank in range(self.n_ranks):
            i, j = rank % self.px, rank // self.px
            for cj in range(self.cy):
                for ci in range(self.cx):
                    color = rank * self.colors_per_rank + cj * self.cx + ci
                    centers[color, 0] = (i + (ci + 0.5) / self.cx) / self.px
                    centers[color, 1] = (j + (cj + 0.5) / self.cy) / self.py
        return centers

    # -- communication structure ------------------------------------------------

    def color_grid_coords(self) -> np.ndarray:
        """Global lattice coordinates of every color, shape ``(n_colors, 2)``.

        Colors tile a ``(px*cx) x (py*cy)`` lattice; neighbouring lattice
        cells share a halo boundary.
        """
        coords = np.empty((self.n_colors, 2), dtype=np.int64)
        for rank in range(self.n_ranks):
            i, j = rank % self.px, rank // self.px
            for cj in range(self.cy):
                for ci in range(self.cx):
                    color = rank * self.colors_per_rank + cj * self.cx + ci
                    coords[color] = (i * self.cx + ci, j * self.cy + cj)
        return coords

    def neighbor_comm_graph(self, bytes_per_boundary: float = 1.0):
        """Halo-exchange communication graph between adjacent colors.

        Returns a :class:`repro.core.comm.CommGraph` with one edge per
        shared lattice boundary (4-neighbourhood), each of volume
        ``bytes_per_boundary`` — the ghost-layer traffic of Fig. 1's
        decomposition.
        """
        from repro.core.comm import CommGraph

        coords = self.color_grid_coords()
        index = {(int(x), int(y)): c for c, (x, y) in enumerate(coords)}
        src, dst = [], []
        for c, (x, y) in enumerate(coords):
            for nx, ny in ((x + 1, y), (x, y + 1)):
                neighbor = index.get((int(nx), int(ny)))
                if neighbor is not None:
                    src.append(c)
                    dst.append(neighbor)
        volume = np.full(len(src), float(bytes_per_boundary))
        return CommGraph(np.array(src), np.array(dst), volume, self.n_colors)

    @staticmethod
    def _check_positions(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape != y.shape:
            raise ValueError("x and y must have the same shape")
        if x.size and (
            x.min() < 0.0 or x.max() >= 1.0 or y.min() < 0.0 or y.max() >= 1.0
        ):
            raise ValueError("positions must lie in the unit square [0, 1)")
        return x, y
