"""Small shared validation helpers used across subsystems.

These helpers raise the *caller's* exception class so that each
subsystem reports errors in its own vocabulary while sharing one
implementation of the checks.
"""

from __future__ import annotations

from typing import Iterable, Type


def require_identifier(name: str, exc: Type[Exception], what: str) -> str:
    """Validate that ``name`` is a non-empty string usable as an id.

    Returns the name unchanged so the call can be used inline::

        self.name = require_identifier(name, SpecificationError, "task name")
    """
    if not isinstance(name, str):
        raise exc(f"{what} must be a string, got {type(name).__name__}")
    if not name:
        raise exc(f"{what} must be a non-empty string")
    if any(ch.isspace() for ch in name):
        raise exc(f"{what} must not contain whitespace: {name!r}")
    return name


def require_positive(value: float, exc: Type[Exception], what: str) -> float:
    """Validate that ``value`` is a positive finite number."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise exc(f"{what} must be a number, got {type(value).__name__}")
    if not value > 0:
        raise exc(f"{what} must be positive, got {value}")
    if value != value or value in (float("inf"), float("-inf")):
        raise exc(f"{what} must be finite, got {value}")
    return value


def require_unique(items: Iterable[str], exc: Type[Exception], what: str) -> None:
    """Validate that ``items`` contains no duplicates."""
    seen = set()
    for item in items:
        if item in seen:
            raise exc(f"duplicate {what}: {item!r}")
        seen.add(item)
