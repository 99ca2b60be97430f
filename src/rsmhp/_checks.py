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


def check_seeds(name: str, values: tuple) -> None:
    """``check_seed`` for every entry, naming the first bad one ``name[i]``.

    Exact in-range ``int``s, the common case, pass in one sweep without
    building a field name or an ABC check per entry.
    """
    if all(type(value) is int and 0 <= value < 2**64 for value in values):
        return
    for index, value in enumerate(values):
        check_seed(f"{name}[{index}]", value)
