"""Nearest-neighbor evaluation of learned metrics over repeated random splits."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._format import FORMAT_VERSION
from .constraints import build_constraints
from .dataset import MultiviewDataset, split
from .metric import multiview_distance
from .model import Hyperparams, MultiviewMetricModel
from .solver import train

# unused by the package; perfbench/harness.py reads the name to clear the variable
THREADS_ENV_VAR = "MVMETRIC_THREADS"


@dataclass
class EvalReport:
    """Per-trial and aggregate 1NN accuracies with full reproduction provenance."""

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


def _knn_predict(distance_to_train, train_labels, k: int):
    """k-NN vote over precomputed distances.

    Distance ties resolve to the lower training index (stable sort); vote
    ties resolve to the label of the nearest member of the tied label set.
    """
    order = np.argsort(distance_to_train, kind="stable")[:k]
    neighbor_labels = train_labels[order]
    counts = {}
    for lab in neighbor_labels:
        counts[int(lab)] = counts.get(int(lab), 0) + 1
    best = max(counts.values())
    tied = {lab for lab, c in counts.items() if c == best}
    for lab in neighbor_labels:
        if int(lab) in tied:
            return int(lab)
    raise AssertionError("unreachable: some neighbor label must be in the tied set")


def knn_classify(
    model: MultiviewMetricModel,
    train_views,
    train_labels,
    test_sample,
    k: int = 1,
    weight_mode: str = "exponent",
) -> int:
    """Predict the majority label among the k nearest training samples."""
    train_labels = np.asarray(train_labels)
    n_train = train_labels.shape[0]
    if n_train == 0:
        raise ValueError("empty training set")
    if not 1 <= k <= n_train:
        raise ValueError(f"k must be in [1, {n_train}], got {k}")
    distances = np.array(
        [
            multiview_distance(model, test_sample, [view[:, j] for view in train_views], weight_mode)
            for j in range(n_train)
        ]
    )
    return _knn_predict(distances, train_labels, k)


def _euclidean_knn(train_views, train_labels, test_sample, k: int = 1) -> int:
    """Identity-metric baseline: unweighted Euclidean over the concatenated views."""
    squared = sum(
        np.sum((view - x[:, None]) ** 2, axis=0) for view, x in zip(train_views, test_sample)
    )
    return _knn_predict(np.sqrt(squared), train_labels, k)


def run_benchmark(
    dataset: MultiviewDataset,
    train_count: int,
    trials: int,
    hyper: Hyperparams | None = None,
    seed: int = 0,
    max_pairs_per_set: int | None = None,
    include_baseline: bool = False,
    weight_mode: str = "exponent",
    k: int = 1,
) -> EvalReport:
    """Repeated random-split 1NN benchmark of the learned metrics.

    Each trial derives its own split and constraint seeds from the master
    seed, trains a model on the train half, and classifies the test half.
    With ``include_baseline`` the identity-metric Euclidean classifier runs
    on the identical splits for paired comparison.  Trials run one after
    another, in trial order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 1 <= k <= train_count:
        raise ValueError(f"k must be in [1, {train_count}], got {k}")
    hyper = (hyper or Hyperparams()).resolved(dataset.view_dims)

    records = []
    for t in range(trials):
        split_seed = derive_trial_seed(seed, t, 0)
        constraint_seed = derive_trial_seed(seed, t, 1)
        sp = split(dataset, train_count, split_seed)
        cons = build_constraints(dataset.labels[sp.train_indices], max_pairs_per_set, constraint_seed)
        model = train(dataset, sp, cons, hyper)
        train_views = dataset.columns(sp.train_indices)
        train_labels = dataset.labels[sp.train_indices]
        correct = 0
        baseline_correct = 0
        for i in sp.test_indices:
            xs = dataset.sample(int(i))
            truth = int(dataset.labels[i])
            if knn_classify(model, train_views, train_labels, xs, k, weight_mode) == truth:
                correct += 1
            if include_baseline and _euclidean_knn(train_views, train_labels, xs, k) == truth:
                baseline_correct += 1
        n_test = sp.test_indices.shape[0]
        record = {
            "trial": t,
            "split_seed": split_seed,
            "constraint_seed": constraint_seed,
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
        "weight_mode": weight_mode,
        "max_pairs_per_set": max_pairs_per_set,
        "include_baseline": include_baseline,
        "embed_dim": hyper.embed_dim,
        "weight_exponent": hyper.weight_exponent,
        "coupling_eta": hyper.coupling_eta,
        "max_iters": hyper.max_iters,
        "tol": hyper.tol,
        "n_samples": dataset.n,
        "view_dims": dataset.view_dims,
    }
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
