"""Argument-validation helpers used across the package.

Every public entry point validates its scalar parameters with these
helpers so misuse fails fast with a uniform error message instead of
surfacing as a numpy broadcasting error deep inside a strategy.
"""

from __future__ import annotations

from numbers import Integral
from typing import Any, Collection

import numpy as np

__all__ = [
    "check_positive",
    "check_positive_int",
    "check_nonnegative",
    "check_in",
    "coerce_rng",
]


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite number > 0."""
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def check_positive_int(name: str, value: Any) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer >= 1 (a
    count: ``2.5``, ``2.0`` and ``True`` are all rejected)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def check_nonnegative(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite number >= 0."""
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")


def check_in(name: str, value: Any, allowed: Collection[Any]) -> None:
    """Raise ``ValueError`` unless ``value`` is one of ``allowed``."""
    if value not in allowed:
        raise ValueError(f"{name} must be one of {sorted(map(str, allowed))}, got {value!r}")


def coerce_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a generator, seed, or None."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)
