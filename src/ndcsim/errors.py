"""Exception hierarchy shared across the package."""


class NdcError(Exception):
    """Base class for all package errors."""


class ParameterError(NdcError, ValueError):
    """A physical or numerical parameter violates its constraints."""


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
