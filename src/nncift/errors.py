"""Exception types shared across the toolkit.

Plain argument mistakes (bad dimensions, empty batches, out-of-range k)
raise ValueError; these classes cover failures that callers may want to
distinguish, e.g. for CLI exit codes.
"""


class NnciftError(Exception):
    """Base class for all toolkit-specific errors."""


class FileFormatError(NnciftError):
    """Malformed file: bad magic, bad header, or invalid record schema."""


class PayloadLengthError(FileFormatError):
    """File payload shorter or longer than its header declares."""


class DataValidationError(NnciftError):
    """Values violate a domain invariant (non-finite, probability <= 0, ...)."""


class RecordNotFoundError(NnciftError):
    """A keyed record (probe response, text) is absent from its store."""


class ProbeError(NnciftError):
    """A probe provider failed to produce a response."""


class ProtocolError(ProbeError):
    """A provider response was structurally invalid (empty, wrong dim, ...)."""


class CoverageError(NnciftError):
    """An influence matrix lacks valid cells where the operation needs them."""


class TrainingError(NnciftError):
    """Training cannot proceed (typically an empty Q1 set)."""


class SelectionError(NnciftError):
    """Subset selection cannot proceed with the given budget or inputs."""


class ConfigError(NnciftError):
    """Run configuration is invalid or inconsistent with its inputs."""
