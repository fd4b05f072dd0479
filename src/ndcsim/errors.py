"""Exception hierarchy shared across the package, and the one range check."""

import math


class NdcError(Exception):
    """Base class for all package errors."""


class ParameterError(NdcError, ValueError):
    """A physical or numerical parameter violates its constraints."""


def check_range(name: str, value, lo, hi=math.inf, *, above: bool = False) -> None:
    """Raise ParameterError, naming the field and its range, unless ``value`` is
    finite and lo <= value <= hi (lo < value when ``above``).  Every test is a
    chained comparison, which nan fails; math.isfinite overflows on huge ints.
    A value that does not compare with numbers, such as a string, fails too."""
    try:
        if (lo < value <= hi if above else lo <= value <= hi) and -math.inf < value < math.inf:
            return
    except TypeError:
        value = repr(value)
    low = f"{'>' if above else '>='} {lo} and finite" if lo > -math.inf else "finite"
    bounds = f"in {'(' if above else '['}{lo}, {hi}]" if hi < math.inf else low
    raise ParameterError(f"{name} must be {bounds}, got {value}")


class ConfigError(NdcError):
    """Configuration file is missing, malformed, or lacks a required key."""


class NoPeakError(NdcError):
    """Cross-correlogram shows no significant coincidence peak."""


class FitError(NdcError):
    """Peak fit failed (no significant peak, or no convergence)."""


class TimestampRangeError(ParameterError, OverflowError):
    """A timestamp would fall outside the signed 64-bit femtosecond range."""


class TagFormatError(NdcError):
    """Tag file or wire payload violates the format contract."""


class BadMagicError(TagFormatError):
    pass


class VersionMismatchError(TagFormatError):
    pass


class TruncatedFileError(TagFormatError):
    pass


class UnsortedTagsError(TagFormatError):
    pass


class TransportError(NdcError):
    """Network transport failed or the peer violated the framing protocol."""
