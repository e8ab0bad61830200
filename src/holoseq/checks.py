"""Checks shared by the config readers and the settings dataclasses.

Python counts a bool as an integer and as a real number; a setting does
not, so ``true`` in a config is an error rather than 1.
"""

from __future__ import annotations

import math
import numbers

__all__ = ["check_keys", "is_finite_real", "is_integer"]


def is_integer(v) -> bool:
    """An integer that is not a bool (numpy integers count)."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_finite_real(v) -> bool:
    """A finite real number that is not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def check_keys(cfg, name: str, known) -> None:
    """Raise ValueError unless ``cfg`` is a mapping whose keys are all in ``known``."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{name} must be a mapping, got {cfg!r}")
    extra = set(cfg) - set(known)
    if extra:
        raise ValueError(f"unknown {name} settings: {sorted(map(str, extra))}")
