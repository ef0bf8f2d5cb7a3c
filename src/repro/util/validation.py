"""Argument-validation helpers used across the package.

Every public entry point validates its scalar parameters with these
helpers so misuse fails fast with a uniform error message instead of
surfacing as a numpy broadcasting error deep inside a strategy.
:func:`route_knobs` gives a config that nests stage configs its flat
keyword form, so each knob is declared once, in the stage that owns it.
"""

from __future__ import annotations

import dataclasses
import functools
from numbers import Integral
from typing import Any, Callable, Collection

import numpy as np

__all__ = [
    "check_positive",
    "check_positive_int",
    "check_nonnegative",
    "check_in",
    "coerce_rng",
    "refuse_changed",
    "route_knobs",
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


def refuse_changed(
    owner: str, config: Any, reference: Any, honoured: Collection[str] = ()
) -> None:
    """Raise ``ValueError`` naming every dataclass field of ``config``
    outside ``honoured`` that differs from ``reference``: ``owner``
    would run without it."""
    dropped = [
        f.name
        for f in dataclasses.fields(config)
        if f.name not in honoured and getattr(config, f.name) != getattr(reference, f.name)
    ]
    if dropped:
        raise ValueError(f"{owner} cannot honour {', '.join(dropped)}")


def coerce_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a generator, seed, or None."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def route_knobs(*stages: str) -> Callable[[type], type]:
    """Class decorator: flat keywords for a dataclass that nests stage configs.

    ``stages`` name fields whose default is a stage config. A keyword
    that is not one of the class's own fields goes to the stage that
    accepts it (a routed stage accepts its flat names too), applied
    with :func:`dataclasses.replace` on top of the stage passed in the
    same call, else the field default. Any other name is the usual
    ``TypeError``.
    """

    def decorate(cls: type) -> type:
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        owner = {
            name: stage
            for stage in stages
            for name in getattr(defaults[stage], "_knobs", None)
            or [f.name for f in dataclasses.fields(defaults[stage])]
            if name not in defaults
        }
        init = cls.__init__

        @functools.wraps(init)
        def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
            routed: dict[str, dict[str, Any]] = {}
            for name in [k for k in kwargs if k in owner]:
                routed.setdefault(owner[name], {})[name] = kwargs.pop(name)
            for stage, knobs in routed.items():
                kwargs[stage] = dataclasses.replace(kwargs.get(stage, defaults[stage]), **knobs)
            init(self, *args, **kwargs)

        cls.__init__ = __init__  # type: ignore[misc]
        cls._knobs = frozenset(defaults) | frozenset(owner)  # type: ignore[attr-defined]
        return cls

    return decorate
