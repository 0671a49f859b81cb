"""Nearest-neighbor evaluation of learned metrics over repeated random splits."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._format import FORMAT_VERSION
from .constraints import build_constraints
from .dataset import MultiviewDataset, _integer_labels, split
from .metric import _check_array, _squared_distances
from .model import SAVED_HYPERPARAMS, Hyperparams, MultiviewMetricModel, _integer, _seed
from .solver import train

# unused by the package; perfbench/harness.py reads the name to clear the variable
THREADS_ENV_VAR = "MVMETRIC_THREADS"
# test samples scored per distance matrix; bounds the scoring memory to a few
# SCORE_BLOCK x n_train arrays, whatever the number of test samples
SCORE_BLOCK = 256


@dataclass
class EvalReport:
    """kNN accuracies over repeated random splits: the run's ``config`` and one record per trial;
    every other attribute is read from ``trials``, the ``baseline_*`` ones ``None`` without a baseline."""

    config: dict
    trials: list

    @property
    def per_trial_accuracy(self) -> list:
        return [record["accuracy"] for record in self.trials]

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.per_trial_accuracy))

    @property
    def max_accuracy(self) -> float:
        return float(np.max(self.per_trial_accuracy))

    @property
    def weights_per_trial(self) -> list:
        return [record["weights"] for record in self.trials]

    @property
    def baseline_per_trial(self) -> list | None:
        if not self.trials or "baseline_accuracy" not in self.trials[0]:
            return None
        return [record["baseline_accuracy"] for record in self.trials]

    @property
    def baseline_mean(self) -> float | None:
        baseline = self.baseline_per_trial
        return None if baseline is None else float(np.mean(baseline))

    @property
    def baseline_max(self) -> float | None:
        baseline = self.baseline_per_trial
        return None if baseline is None else float(np.max(baseline))

    def to_dict(self) -> dict:
        """The report document: each summary under its attribute's name, the baseline's last if run."""
        names = ["per_trial_accuracy", "mean_accuracy", "max_accuracy", "weights_per_trial", "trials"]
        if self.baseline_per_trial is not None:
            names += ["baseline_per_trial", "baseline_mean", "baseline_max"]
        doc = {"format_version": FORMAT_VERSION, "config": self.config}
        doc.update((name, getattr(self, name)) for name in names)
        return doc

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    def summary_csv(self) -> str:
        """Small delimiter-separated table for spreadsheets: one column per accuracy series,
        the baseline's after the learned metric's; a row per trial, then ``mean`` and ``max``."""
        series = [("accuracy", self.per_trial_accuracy, self.mean_accuracy, self.max_accuracy)]
        if self.baseline_per_trial is not None:
            series.append(("baseline_accuracy", self.baseline_per_trial, self.baseline_mean, self.baseline_max))
        columns = [["trial", *(str(t) for t in range(len(self.trials))), "mean", "max"]]
        for name, per_trial, mean, best in series:
            columns.append([name, *(repr(acc) for acc in per_trial), repr(mean), repr(best)])
        lines = [f"# mvmetric eval summary, format {FORMAT_VERSION}, config {json.dumps(self.config)}"]
        lines.extend(",".join(row) for row in zip(*columns))
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
        record = {
            "trial": t,
            "split_seed": split_seed,
            "train_indices": sp.train_indices.tolist(),
            "test_indices": sp.test_indices.tolist(),
            "accuracy": int(np.count_nonzero(predicted == truth)) / n_test,
            "weights": model.view_weights.tolist(),
        }
        if include_baseline:
            scaled = [model.scaled(view.view_id, view.data) for view in dataset.views]
            predicted = _predict(scaled, np.ones(dataset.m), sp.train_indices, sp.test_indices, train_labels, k)
            record["baseline_accuracy"] = int(np.count_nonzero(predicted == truth)) / n_test
        records.append(record)

    config = {
        "train_count": train_count,
        "trials": trials,
        "seed": seed,
        "k": k,
        "include_baseline": include_baseline,
        **{name: getattr(hyper, name) for name in SAVED_HYPERPARAMS},
        "n_samples": dataset.n,
        "view_dims": dataset.view_dims,
    }
    if hyper.standardize:
        config["standardize"] = True
    return EvalReport(config, records)
