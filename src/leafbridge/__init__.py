"""leafbridge: supervised heterogeneous transfer learning with forest leaf pivots.

Builds a classifier for a small labeled target dataset by matching decision
forest leaf label distributions across domains, solving an MMD/manifold
regularized system for a cross-domain projection, and training a final forest
on the target data merged with the projected source records.
"""

from .adaptation import (
    ProjectionMatrix,
    StackedPivots,
    adapt,
    build_kernel,
    build_laplacian,
    build_mmd_matrix,
    build_projection,
    compute_mu,
    laplacian_from_affinity,
    stack_pivots,
)
from .dataset import (
    AttributeSchema,
    Dataset,
    SplitSpec,
    inject_missing,
    load_csv,
    one_hot_encode,
    repair_missing,
    split_target,
    write_csv,
)
from .errors import (
    BandwidthError,
    DataError,
    EmptyDatasetError,
    LeafBridgeError,
    MatchingError,
    MissingValueError,
    NumericalError,
    ParseError,
    SchemaError,
)
from .experiment import EvaluationReport, ExperimentSpec, PairSpec, parse_config, run_experiment
from .forest import Forest, LeafTable, Tree, collect_leaves, predict_many, train_forest
from .metrics import EvalMetrics, evaluate, mean_ranks, nemenyi_cd, sign_test
from .pivot import DistributionBundle, PivotSet, dedup, extract_distributions, match_pivots
from .synthetic import gaussian_blobs, heterogeneous_pair, random_rotation, rotated_pair
from .transfer import (
    TransferConfig,
    TransferModel,
    domain_forest,
    fit_forest,
    merge_datasets,
    project_records,
    run_transfer,
    select_transferable,
)

__version__ = "0.1.0"
