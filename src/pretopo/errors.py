"""Exception types shared across the package."""

import math
from contextlib import contextmanager


class PretopoError(Exception):
    """Base class for all errors raised by this package.  An error at a
    place in an input file reads ``PATH: line N: message``; ``line`` is the
    physical line, counted from 1, and is kept on the error."""

    def __init__(self, message, path=None, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(PretopoError):
    """Invalid configuration: bad thresholds, missing features, mismatched inputs."""


def read_number(value, what: str, convert=float):
    """``convert(value)`` for a JSON number ``value``, reporting any other
    value, or one ``convert`` rejects, as a config error; an ``int`` target
    rejects a float with a fractional part rather than truncating it.  A
    JSON boolean or a numeric string is not a number, and a float must be
    finite: JSON's ``NaN`` and ``Infinity``, and ``1e400``, are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    try:
        number = convert(value)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc
    if convert is int and isinstance(value, float) and number != value:
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return number


def read_field(doc: dict, key: str, what: str, convert=float, default=None):
    """``doc[key]`` read as a number, or ``default`` when one is given and
    the key is absent; errors name the key after ``what``."""
    value = doc[key] if default is None else doc.get(key, default)
    return read_number(value, f"{what}: {key!r}", convert)


@contextmanager
def malformed(what: str):
    """Read a JSON object inside this block: a missing key raises
    ``ConfigError("{what} is missing {key}")``, and a ``TypeError``,
    ``ValueError`` or ``OverflowError`` ``ConfigError("{what}: {exc!r}")``."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{what} is missing {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what}: {exc!r}") from exc


_SCHEMA_VERSION = 1


def _check_document(doc, what: str) -> dict:
    """``doc`` if it is a JSON object whose ``schema_version``, when given, is
    the one this version reads; else :class:`ConfigError` naming ``what``.
    Every reader of a JSON document applies it once, before reading a key."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what}: expected a JSON object")
    version = doc.get("schema_version", _SCHEMA_VERSION)
    if isinstance(version, bool) or version != _SCHEMA_VERSION:
        raise ConfigError(f"{what}: unsupported schema_version {version!r}")
    return doc


class DataError(PretopoError):
    """Input data violates a contract (ordering, ranges, coverage)."""


class ParseError(PretopoError):
    """A file could not be parsed."""


class DegenerateSeriesError(DataError):
    """A series has zero variance and carries no linear signal.

    ``item`` is the index (or site id) of the offending series when known,
    and ``reason`` the message without it.
    """

    def __init__(self, message, item=None):
        self.reason = message
        if item is not None:
            message = f"{message} (item {item})"
        super().__init__(message)
        self.item = item


class UnsupportedSpaceError(PretopoError):
    """The operation requires a property (e.g. isotony) the space does not have."""
