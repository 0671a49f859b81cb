"""Per-view Mahalanobis metric learning for multiview data.

Learns one projection per view by maximizing a between-minus-within class
margin coupled with cross-view correlations, assigns simplex weights to the
views automatically, and evaluates the induced distances with a weighted
nearest-neighbor classifier.
"""

from ._format import FORMAT_VERSION
from .constraints import ConstraintSet, build_constraints
from .dataset import (
    MultiviewDataset,
    SplitSpec,
    ViewMatrix,
    generate_synthetic,
    load_dataset,
    load_manifest,
    split,
    standardize_views,
    write_dataset,
)
from .eval import (
    EvalReport,
    derive_trial_seed,
    knn_classify,
    run_benchmark,
)
from .metric import (
    check_metric_axioms,
    distance_weights,
    metric_matrix,
    multiview_distance,
    view_distance,
)
from .model import Hyperparams, MultiviewMetricModel
from .scatter import CrossCorrelation, ScatterPair, compute_cross, compute_scatter
from .solver import (
    TrainingError,
    assemble_block_matrix,
    compute_view_gains,
    train,
    update_view_weights,
)

__all__ = [
    "FORMAT_VERSION",
    "ConstraintSet",
    "CrossCorrelation",
    "EvalReport",
    "Hyperparams",
    "MultiviewDataset",
    "MultiviewMetricModel",
    "ScatterPair",
    "SplitSpec",
    "TrainingError",
    "ViewMatrix",
    "assemble_block_matrix",
    "build_constraints",
    "check_metric_axioms",
    "compute_cross",
    "compute_scatter",
    "compute_view_gains",
    "derive_trial_seed",
    "distance_weights",
    "generate_synthetic",
    "knn_classify",
    "load_dataset",
    "load_manifest",
    "metric_matrix",
    "multiview_distance",
    "run_benchmark",
    "split",
    "standardize_views",
    "train",
    "update_view_weights",
    "view_distance",
    "write_dataset",
]
