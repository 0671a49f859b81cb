"""Per-view Mahalanobis metric learning for multiview data.

Learns one projection per view by maximizing a between-minus-within class
margin coupled with cross-view correlations, assigns simplex weights to the
views automatically, and evaluates the induced distances with a weighted
nearest-neighbor classifier.
"""

from ._format import FORMAT_VERSION
from .constraints import build_constraints
from .dataset import (
    MultiviewDataset,
    SplitSpec,
    ViewMatrix,
    generate_synthetic,
    load_dataset,
    load_manifest,
    split,
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
    metric_matrix,
    multiview_distance,
    view_distance,
)
from .model import Hyperparams, MultiviewMetricModel
from .solver import TrainingError, train

__all__ = [
    "FORMAT_VERSION",
    "EvalReport",
    "Hyperparams",
    "MultiviewDataset",
    "MultiviewMetricModel",
    "SplitSpec",
    "TrainingError",
    "ViewMatrix",
    "build_constraints",
    "check_metric_axioms",
    "derive_trial_seed",
    "generate_synthetic",
    "knn_classify",
    "load_dataset",
    "load_manifest",
    "metric_matrix",
    "multiview_distance",
    "run_benchmark",
    "split",
    "train",
    "view_distance",
    "write_dataset",
]
