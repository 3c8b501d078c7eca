"""Argument checks shared by the specs and the public entry points."""

import numbers


def check_int(name: str, value, least: int | None = None) -> None:
    """Reject a non-integer ``value``, or one below ``least`` if given, naming ``name``.
    A float count would fail later with a bare ``TypeError`` or never meet an ``==``;
    a bool would pass for 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
