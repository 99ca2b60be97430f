"""Argument checks shared by the configuration classes."""
from __future__ import annotations

import math
import numbers

import numpy as np


def check_int(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an ``int``; a non-integer (``bool`` included) or one under ``minimum`` raises, naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_real(name: str, value) -> float:
    """``value`` as a ``float``; a bool, a string, any other non-real or a non-finite value raises, naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return float(value)


def check_vector(name: str, values, size: int) -> tuple[float, ...]:
    """``values`` as a tuple of ``size`` floats: a wrong or ragged shape raises ``ValueError``, a bad entry as ``check_real`` does."""
    try:
        shape = np.shape(values)
    except ValueError:
        raise ValueError(f"{name} must be a {size}-vector, got a ragged sequence") from None
    if shape != (size,):
        raise ValueError(f"{name} must be a {size}-vector, got shape {shape}")
    return tuple(check_real(name, value) for value in values)


def check_reals(name: str, values, finite: bool = True) -> np.ndarray:
    """``values`` as a float array; a bool, a string or any other non-real entry raises ``TypeError``, naming the field.

    A non-finite entry raises ``ValueError`` unless ``finite`` is False.  An
    ndarray of integer or float dtype is converted whole, without a check
    per entry.
    """
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        for value in np.asarray(values, dtype=object).flat:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be real numbers, got {value!r}")
    array = np.asarray(values, dtype=float)
    if finite and not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite, got {array.tolist()}")
    return array


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
