"""Exception types shared across the package, and the kind checks that turn
malformed decoded JSON into a ValidationError."""
from __future__ import annotations

from typing import Any


class IbagSearchError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(IbagSearchError):
    """A line-oriented input file failed to parse."""

    def __init__(self, source: object, line_no: int, message: str) -> None:
        super().__init__(f"{source}:{line_no}: {message}")
        self.source = str(source)
        self.line_no = line_no


class ValidationError(IbagSearchError):
    """Input data violated a structural constraint."""


_KIND_NAMES = {
    str: "a string", int: "an integer", float: "a number", list: "a list", dict: "an object"
}


def check_kind(value: Any, kind: type, where: str) -> Any:
    """Return ``value`` if it is a JSON value of ``kind``, else raise.

    ``float`` accepts any JSON number except NaN; a bool is never a number.
    """
    ok = isinstance(value, (int, float) if kind is float else kind) and not isinstance(value, bool)
    if not ok or (kind is float and value != value):
        raise ValidationError(f"{where} must be {_KIND_NAMES[kind]}, got {value!r:.40}")
    return value


def json_field(obj: Any, key: str, kind: type, where: str) -> Any:
    """``obj[key]`` checked with :func:`check_kind`; ``obj`` must be an object holding ``key``."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be an object")
    if key not in obj:
        raise ValidationError(f"{where} lacks {key!r}")
    return check_kind(obj[key], kind, f"{where}.{key}")
