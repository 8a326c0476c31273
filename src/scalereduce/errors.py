"""Exception hierarchy for scalereduce.

Input/parsing problems derive from LoadError (CLI exit code 2); everything
that goes wrong during analysis of a well-formed dataset derives directly
from ScaleReduceError (CLI exit code 3).
"""


class ScaleReduceError(Exception):
    """Base class for all scalereduce errors."""


class LoadError(ScaleReduceError):
    """The input (the CSV file, a flag value or the environment) could not
    be turned into a valid dataset or run."""


class MissingDecisionColumn(LoadError):
    """The named decision column is not in the file header."""


class NotBinaryDecision(LoadError):
    """The decision column does not have exactly two distinct values."""


class EmptyDataset(LoadError):
    """No usable rows (or no attribute columns) remain."""


class SingleClass(ScaleReduceError):
    """All examples fall into one class; AUC is undefined."""


class UnknownColumn(ScaleReduceError):
    """A column selection entry does not resolve to an existing column."""


class DuplicateColumn(ScaleReduceError):
    """A column appears more than once where uniqueness is required."""


class IndexOutOfRange(ScaleReduceError, IndexError):
    """A row index is outside the dataset."""


class DegenerateVariance(ScaleReduceError):
    """The variance of an AUC difference is zero or negative while the
    AUCs differ, so no test statistic can be formed."""


class NoNextAttribute(ScaleReduceError):
    """The reduction retained every item; there is no next attribute
    whose inclusion could be tested."""


class InvalidCount(ScaleReduceError):
    """An item count argument is inconsistent (e.g. fewer original items
    than retained ones)."""
