"""Exception types shared across the package."""


class PretopoError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PretopoError):
    """Invalid configuration: bad thresholds, missing features, mismatched inputs."""


def read_number(value, what: str, convert=float):
    """``convert(value)`` for a JSON number ``value``, reporting any other
    value, or one ``convert`` rejects, as a config error; an ``int`` target
    rejects a float with a fractional part rather than truncating it.  A
    JSON boolean or a numeric string is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
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
