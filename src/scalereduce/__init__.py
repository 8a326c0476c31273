"""scalereduce: greedy AUC-based rating scale reduction.

Rank the items of a rating scale by how well each one alone separates a
binary external decision (tie-aware AUC), build running-total AUCs, and
truncate at the first maximum. Includes data hygiene checks (duplicate and
gray examples) and paired ROC tests (asymptotic and bootstrap) for whether
one more item should join the reduced scale.
"""

__version__ = "0.8.0"

from .compare import (
    PairedRocTest,
    bootstrap_test,
    check_attr_for_inclusion,
    delong_test,
)
from .dataset import ColumnSelection, Dataset, load_csv, select_columns
from .hygiene import (
    DuplicateReport,
    diff_examples,
    gray_examples,
    gray_examples_for,
)
from .reduction import (
    AucRanking,
    ReducedScale,
    reduction_ratio,
    rsr,
    start_auc,
    total_auc,
)
from .roc import PlacementValues, RocCurve, auc, placements, roc_curve, sum_scores
from . import errors

__all__ = [
    "__version__",
    "errors",
    # dataset
    "ColumnSelection",
    "Dataset",
    "load_csv",
    "select_columns",
    # roc
    "PlacementValues",
    "RocCurve",
    "auc",
    "placements",
    "roc_curve",
    "sum_scores",
    # hygiene
    "DuplicateReport",
    "diff_examples",
    "gray_examples",
    "gray_examples_for",
    # reduction
    "AucRanking",
    "ReducedScale",
    "reduction_ratio",
    "rsr",
    "start_auc",
    "total_auc",
    # compare
    "PairedRocTest",
    "bootstrap_test",
    "check_attr_for_inclusion",
    "delong_test",
]
