"""Exception types shared across the package.

Three classes, each with a message that names what is at fault.  The CLI
maps them onto exit codes:

* ConfigError -> 2: bad flags, settings or specs, and an output path that
  cannot be created or written;
* DataError -> 3: input data that is malformed, or an input file that
  cannot be read;
* SparseGmmError (any other) -> 4: a runtime failure.
"""


class SparseGmmError(Exception):
    """Base class for all package errors."""


class ConfigError(SparseGmmError):
    """Invalid configuration (bad flags, inconsistent settings)."""


class DataError(SparseGmmError):
    """Invalid input data."""
