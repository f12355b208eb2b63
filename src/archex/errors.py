"""Typed errors shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, IntegrityError,
CheckpointError and SnapshotFormatError -> 3, ShortfallError and
ContractError -> 4, and any other ArchexError -> 1.
"""


class ArchexError(Exception):
    """Base class for all package errors."""


class ConfigError(ArchexError):
    """Invalid configuration; the message names the offending field."""


class ContractError(ArchexError):
    """API misuse, e.g. stepping an environment whose episode has ended."""


class RepresentationError(ArchexError):
    """Operation unsupported for this cell representation."""


class SnapshotFormatError(ArchexError):
    """Snapshot bytes do not match this environment's format or config."""


class CheckpointError(ArchexError):
    """Checkpoint file is corrupt, truncated, or from another config."""


class IntegrityError(ArchexError):
    """Stored data fails replay verification (archive corruption)."""


class ShortfallError(ArchexError):
    """Fewer qualifying items than requested (e.g. demonstrations)."""
