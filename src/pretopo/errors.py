"""Exception types shared across the package."""


class PretopoError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PretopoError):
    """Invalid configuration: bad thresholds, missing features, mismatched inputs."""


def read_number(value, what: str, convert=float):
    """``convert(value)``, reporting a value it rejects as a config error;
    an ``int`` target rejects a float with a fractional part
    rather than truncating it.  A JSON boolean is not a number, so
    ``True`` and ``False`` are rejected too."""
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        number = convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc
    if convert is int and isinstance(value, float) and number != value:
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return number


class DataError(PretopoError):
    """Input data violates a contract (ordering, ranges, coverage)."""


class ParseError(PretopoError):
    """A file could not be parsed. Carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DegenerateSeriesError(DataError):
    """A series has zero variance and carries no linear signal.

    ``item`` is the index (or site id) of the offending series when known.
    """

    def __init__(self, message, item=None):
        if item is not None:
            message = f"{message} (item {item})"
        super().__init__(message)
        self.item = item


class UnsupportedSpaceError(PretopoError):
    """The operation requires a property (e.g. isotony) the space does not have."""
