"""Argument checks shared by the configuration classes."""
from __future__ import annotations

import numbers


def check_int(name: str, value, minimum: int) -> None:
    """Reject a non-integer (``bool`` included) or a value under ``minimum``, naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_seed(name: str, value) -> None:
    """``check_int`` for a seed, which must also fit in an unsigned 64-bit integer."""
    check_int(name, value, 0)
    if value >= 2**64:
        raise ValueError(f"{name} must be below 2**64, got {value}")
