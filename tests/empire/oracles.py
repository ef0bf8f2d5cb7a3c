"""Test-side references for the PIC step (the ``tests/core/oracles.py`` pattern).

The bodies below are ``ParticlePopulation.advance`` and
``Mesh2D.color_of_position`` as they stood at commit ``760212c``, before
the step stopped allocating: whole-array ``mod``, fresh temporaries,
``int64`` indices, both clamps. They are kept verbatim — only ``self``
became an argument — and production is held to them exactly.
:func:`rank_of_position_oracle` is the SPMD block lookup the colour
binning must agree with. Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

_SUP = np.nextafter(1.0, 0.0)


def advance_oracle(
    positions: np.ndarray, velocities: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """New ``(positions, velocities)`` after one reflecting step of ``dt``."""
    velocities = velocities.copy()
    pos = positions + velocities * dt
    # Reflect: fold position into [0, 2), mirror the upper half.
    pos = np.mod(pos, 2.0)
    over = pos >= 1.0
    pos[over] = 2.0 - pos[over]
    np.clip(pos, 0.0, _SUP, out=pos)
    velocities[over] *= -1.0
    return pos, velocities


def color_of_position_oracle(mesh, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Color containing each unit-square position on a ``Mesh2D``."""
    x, y = _check_positions(x, y)
    xi = x * mesh.px
    yj = y * mesh.py
    i = np.minimum(xi.astype(np.int64), mesh.px - 1)
    j = np.minimum(yj.astype(np.int64), mesh.py - 1)
    rank = j * mesh.px + i
    # Local coordinates within the rank block, in [0, 1).
    lx = np.clip(xi - i, 0.0, np.nextafter(1.0, 0.0))
    ly = np.clip(yj - j, 0.0, np.nextafter(1.0, 0.0))
    ci = np.minimum((lx * mesh.cx).astype(np.int64), mesh.cx - 1)
    cj = np.minimum((ly * mesh.cy).astype(np.int64), mesh.cy - 1)
    local = cj * mesh.cx + ci
    return rank * mesh.colors_per_rank + local


def rank_of_position_oracle(mesh, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SPMD rank whose block contains each unit-square position."""
    x, y = _check_positions(x, y)
    i = np.minimum((x * mesh.px).astype(np.int64), mesh.px - 1)
    j = np.minimum((y * mesh.py).astype(np.int64), mesh.py - 1)
    return j * mesh.px + i


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
