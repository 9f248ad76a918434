"""Exception types shared across the package, and the rule for counts."""

import numbers


class PerpetuityError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(PerpetuityError, ValueError):
    """A value is outside the documented domain of an operation or law."""


class UnsupportedFamilyError(ParameterError):
    """The requested operation is not defined for this coefficient family."""


class ConfigurationError(PerpetuityError, ValueError):
    """Inconsistent or incomplete run configuration."""


class StatisticalError(PerpetuityError, RuntimeError):
    """A statistical procedure received no usable samples."""


def whole_number(name: str, value, low: int = 1) -> int:
    """``int(value)``, or ParameterError unless ``value`` is a finite whole
    number >= ``low``: the rule for every count, so no fraction is truncated."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if not (whole and value >= low):
        kind = {0: "a nonnegative integer", 1: "a positive integer"}
        raise ParameterError(f"{name} must be {kind.get(low, f'an integer >= {low}')}, got {value}")
    return int(value)
