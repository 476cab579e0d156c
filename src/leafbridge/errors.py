"""Exception hierarchy shared by all leafbridge modules.

The CLI maps these onto exit codes: DataError -> 2, NumericalError -> 3.
"""


class LeafBridgeError(Exception):
    """Base class for every error raised by this package."""


class DataError(LeafBridgeError):
    """Bad input data: parsing, schema, sizes, missing values."""


class ParseError(DataError):
    """Malformed CSV content; message names the offending line."""


class SchemaError(DataError):
    """Column/attribute metadata does not match expectations."""


class MissingValueError(DataError):
    """An operation that requires complete data saw missing cells."""


class EmptyDatasetError(DataError):
    """An operation produced or received a dataset with no records."""


class MatchingError(DataError):
    """Pivot matching is impossible (e.g. no shared class labels)."""


class NumericalError(LeafBridgeError):
    """Numerical failure: degenerate bandwidth, non-finite result."""


class BandwidthError(NumericalError):
    """RBF kernel bandwidth is undefined (all pairwise distances zero)."""
