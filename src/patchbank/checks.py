"""Argument checks shared by the specs and the public entry points."""

import math
import numbers


def check_int(name: str, value, least: int | None = None) -> None:
    """Reject a non-integer ``value``, or one below ``least`` if given, naming ``name``.
    A float count would fail later with a bare ``TypeError`` or never meet an ``==``;
    a bool would pass for 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def check_real(name: str, value, least: float | None = None) -> None:
    """Reject a ``value`` that is not a finite real number, or one below ``least``
    if given, naming ``name``.  A bool would pass for 0.0 or 1.0, and a string or
    None would fail later with an error that names no field."""
    # An exact float skips the ABC check, which takes about 0.8 us; Box runs four.
    if type(value) is not float and (isinstance(value, bool)
                                     or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
