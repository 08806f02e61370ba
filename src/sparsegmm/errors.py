"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
anything else -> 4.
"""


class SparseGmmError(Exception):
    """Base class for all package errors."""


class ConfigError(SparseGmmError):
    """Invalid configuration (bad flags, inconsistent settings)."""


class DataError(SparseGmmError):
    """Invalid input data."""


class NonFiniteEntryError(DataError):
    """A data matrix contains a NaN or infinite entry."""

    def __init__(self, row: int, col: int):
        self.row = row
        self.col = col
        super().__init__(f"non-finite entry at row {row}, column {col}")


class TooFewObservationsError(DataError):
    """Fewer than two observations."""


class TraceMismatchError(DataError):
    """A trace's snapshots do not fit the dataset they are scored against."""


class EmptyAfterFilterError(DataError):
    """Preprocessing filtered away every gene (or every cell)."""


class InvalidKError(ConfigError):
    """Requested cluster count exceeds the allowed maximum."""


class BadSpecError(ConfigError):
    """Malformed synthetic-scenario specification."""


class AllWeightsNegInfiniteError(SparseGmmError):
    """Categorical sampling was given no finite log-weight."""


class LengthMismatchError(SparseGmmError):
    """Sequences that must have equal lengths do not."""


class DegeneratePartitionError(SparseGmmError):
    """A partition with a single cluster where two or more are required."""


class LabelOutOfRangeError(SparseGmmError):
    """A cluster label falls outside the declared label range."""


class DimensionMismatchError(SparseGmmError):
    """Matrix/vector dimensions are inconsistent."""
