"""Nearest-neighbor evaluation of learned metrics over repeated random splits."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._format import FORMAT_VERSION
from .constraints import build_constraints
from .dataset import MultiviewDataset, _integer_labels, split
from .metric import _check_array, _squared_distances
from .model import Hyperparams, MultiviewMetricModel, _integer, _seed
from .solver import train

# unused by the package; perfbench/harness.py reads the name to clear the variable
THREADS_ENV_VAR = "MVMETRIC_THREADS"
# test samples scored per distance matrix; bounds the scoring memory to a few
# SCORE_BLOCK x n_train arrays, whatever the number of test samples
SCORE_BLOCK = 256


@dataclass
class EvalReport:
    """Per-trial and aggregate kNN accuracies with full reproduction provenance."""

    per_trial_accuracy: list
    mean_accuracy: float
    max_accuracy: float
    weights_per_trial: list
    config: dict
    trials: list = field(default_factory=list)
    baseline_per_trial: list | None = None
    baseline_mean: float | None = None
    baseline_max: float | None = None

    def to_dict(self) -> dict:
        doc = {
            "format_version": FORMAT_VERSION,
            "config": self.config,
            "per_trial_accuracy": self.per_trial_accuracy,
            "mean_accuracy": self.mean_accuracy,
            "max_accuracy": self.max_accuracy,
            "weights_per_trial": self.weights_per_trial,
            "trials": self.trials,
        }
        if self.baseline_per_trial is not None:
            doc["baseline_per_trial"] = self.baseline_per_trial
            doc["baseline_mean"] = self.baseline_mean
            doc["baseline_max"] = self.baseline_max
        return doc

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    def summary_csv(self) -> str:
        """Small delimiter-separated table for spreadsheets."""
        lines = [f"# mvmetric eval summary, format {FORMAT_VERSION}, config {json.dumps(self.config)}"]
        with_baseline = self.baseline_per_trial is not None
        lines.append("trial,accuracy,baseline_accuracy" if with_baseline else "trial,accuracy")
        for t, acc in enumerate(self.per_trial_accuracy):
            if with_baseline:
                lines.append(f"{t},{acc!r},{self.baseline_per_trial[t]!r}")
            else:
                lines.append(f"{t},{acc!r}")
        if with_baseline:
            lines.append(f"mean,{self.mean_accuracy!r},{self.baseline_mean!r}")
            lines.append(f"max,{self.max_accuracy!r},{self.baseline_max!r}")
        else:
            lines.append(f"mean,{self.mean_accuracy!r}")
            lines.append(f"max,{self.max_accuracy!r}")
        return "\n".join(lines) + "\n"


def derive_trial_seed(seed: int, trial: int, stream: int = 0) -> int:
    """Deterministic per-trial child seed so any single trial can be rerun alone."""
    return int(np.random.SeedSequence((seed, trial, stream)).generate_state(1)[0])


def _predict(points, weights, train_indices, test_indices, train_labels, k: int) -> np.ndarray:
    """k-NN labels of the ``test_indices`` columns of ``points`` among its ``train_indices`` ones.

    ``points[v]`` holds view v's points as columns.  The test samples are
    scored ``SCORE_BLOCK`` at a time with ``_squared_distances``, and each
    block is voted at once: a stable sort sends a distance tie to the lower
    training index, and ``argmax`` over the neighbours' vote counts sends a
    vote tie to the first, i.e. nearest, member of the tied labels.
    """
    labels, classes = np.unique(train_labels, return_inverse=True)
    train_points = [p[:, train_indices] for p in points]
    predicted = np.empty(len(test_indices), dtype=int)
    for start in range(0, len(test_indices), SCORE_BLOCK):
        block = test_indices[start : start + SCORE_BLOCK]
        distances = _squared_distances(train_points, [p[:, block] for p in points], weights)
        np.sqrt(distances, out=distances)
        nearest = classes[np.argsort(distances, axis=1, kind="stable")[:, :k]]
        rows = np.arange(len(block))
        cells = nearest + rows[:, None] * len(labels)  # one bincount bin per (row, class)
        votes = np.bincount(cells.ravel())[cells]
        predicted[start : start + len(block)] = labels[nearest[rows, np.argmax(votes, axis=1)]]
    return predicted


def knn_classify(
    model: MultiviewMetricModel,
    train_views,
    train_labels,
    test_sample,
    k: int = 1,
) -> int:
    """Predict the majority label among the k nearest training samples.

    The inputs are checked once per call, before any distance is scored: an
    integer ``k``, one integral label per training sample and, per model
    view, one test vector and one ``(D_v, n_train)`` training view, all
    finite.  Each view's training columns and test vector are then projected
    in one product, so a test vector equal to a training column is at
    distance exactly 0.0, and scored with the arithmetic of ``run_benchmark``
    and ``multiview_distance``.
    """
    train_labels = _integer_labels(train_labels, "train_labels")
    if train_labels.ndim != 1:
        raise ValueError(f"train_labels: expected shape (n_train,), got {train_labels.shape}")
    n_train = train_labels.shape[0]
    if n_train == 0:
        raise ValueError("empty training set")
    k = _integer("k", k)
    if not 1 <= k <= n_train:
        raise ValueError(f"k must be in [1, {n_train}], got {k}")
    if len(test_sample) != model.num_views or len(train_views) != model.num_views:
        raise ValueError(f"expected {model.num_views} test vectors and training views")
    points = []
    for v, (dim, x, view) in enumerate(zip(model.view_dims, test_sample, train_views), 1):
        x = _check_array(x, (dim,), f"view {v} test sample")
        view = _check_array(view, (dim, n_train), f"view {v} training data")
        points.append(model.project(v, np.column_stack([view, x])))
    return int(_predict(points, model.powered_weights, np.arange(n_train), [n_train], train_labels, k)[0])


def run_benchmark(
    dataset: MultiviewDataset,
    train_count: int,
    trials: int,
    hyper: Hyperparams | None = None,
    seed: int = 0,
    include_baseline: bool = False,
    k: int = 1,
) -> EvalReport:
    """Repeated random-split kNN benchmark of the learned metrics, with ``k`` neighbours.

    Each trial derives its own split seed from the master seed, trains a
    model on the train half (fitting the feature scales there under
    ``hyper.standardize``), and classifies the test half.  With
    ``include_baseline`` the identity-metric Euclidean classifier runs on the
    identical splits, on the same scaled features, for paired comparison.
    Trials run one after another, in trial order.  ``train_count``,
    ``trials``, ``seed`` (>= 0) and ``k`` must be integers (not bools),
    stored in the report as ``int``, and ``include_baseline`` a bool.
    """
    if not isinstance(include_baseline, bool):
        raise TypeError(f"include_baseline must be true or false, got {include_baseline!r}")
    train_count = _integer("train_count", train_count)
    trials = _integer("trials", trials)
    seed = _seed(seed)
    k = _integer("k", k)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 1 <= k <= train_count:
        raise ValueError(f"k must be in [1, {train_count}], got {k}")
    hyper = (hyper or Hyperparams()).resolved(dataset.view_dims)

    records = []
    for t in range(trials):
        split_seed = derive_trial_seed(seed, t, 0)
        sp = split(dataset, train_count, split_seed)
        train_labels = dataset.labels[sp.train_indices]
        model = train(dataset, sp, build_constraints(train_labels), hyper)
        truth = dataset.labels[sp.test_indices]
        n_test = truth.shape[0]
        # every sample projected by one product per view, so a test sample
        # equal to a training sample is at distance exactly 0.0
        points = [model.project(view.view_id, view.data) for view in dataset.views]
        predicted = _predict(points, model.powered_weights, sp.train_indices, sp.test_indices, train_labels, k)
        correct = int(np.count_nonzero(predicted == truth))
        if include_baseline:
            scaled = [model.scaled(view.view_id, view.data) for view in dataset.views]
            predicted = _predict(scaled, np.ones(dataset.m), sp.train_indices, sp.test_indices, train_labels, k)
            baseline_correct = int(np.count_nonzero(predicted == truth))
        record = {
            "trial": t,
            "split_seed": split_seed,
            "train_indices": sp.train_indices.tolist(),
            "test_indices": sp.test_indices.tolist(),
            "accuracy": correct / n_test,
            "weights": model.view_weights.tolist(),
        }
        if include_baseline:
            record["baseline_accuracy"] = baseline_correct / n_test
        records.append(record)

    accuracies = [r["accuracy"] for r in records]
    config = {
        "train_count": train_count,
        "trials": trials,
        "seed": seed,
        "k": k,
        "include_baseline": include_baseline,
        "embed_dim": hyper.embed_dim,
        "weight_exponent": hyper.weight_exponent,
        "coupling_eta": hyper.coupling_eta,
        "max_iters": hyper.max_iters,
        "tol": hyper.tol,
        "n_samples": dataset.n,
        "view_dims": dataset.view_dims,
    }
    if hyper.standardize:
        config["standardize"] = True
    report = EvalReport(
        per_trial_accuracy=accuracies,
        mean_accuracy=float(np.mean(accuracies)),
        max_accuracy=float(np.max(accuracies)),
        weights_per_trial=[r["weights"] for r in records],
        config=config,
        trials=records,
    )
    if include_baseline:
        baseline = [r["baseline_accuracy"] for r in records]
        report.baseline_per_trial = baseline
        report.baseline_mean = float(np.mean(baseline))
        report.baseline_max = float(np.max(baseline))
    return report
