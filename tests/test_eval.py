import threading

import numpy as np
import pytest

import mvmetric.eval
from mvmetric import (
    Hyperparams,
    MultiviewDataset,
    SplitSpec,
    ViewMatrix,
    build_constraints,
    derive_trial_seed,
    generate_synthetic,
    knn_classify,
    multiview_distance,
    run_benchmark,
    train,
)
from mvmetric.eval import _euclidean_knn, _knn_predict


def _trained_on(dataset, train_idx, test_idx, hyper):
    sp = SplitSpec(np.asarray(train_idx), np.asarray(test_idx), seed=0)
    cs = build_constraints(dataset.labels[sp.train_indices])
    return train(dataset, sp, cs, hyper), sp


def test_memorized_test_samples_are_perfect():
    # columns 10..19 duplicate columns 0..9, so every test sample has an
    # exact twin in the training set and 1NN must score 1.0
    rng = np.random.default_rng(0)
    base = rng.standard_normal((4, 10))
    labels10 = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    data = np.concatenate([base, base], axis=1)
    ds = MultiviewDataset(
        (ViewMatrix(1, data), ViewMatrix(2, data[:3] * 2.0 + 1.0)), np.concatenate([labels10, labels10])
    )
    model, sp = _trained_on(ds, np.arange(10), np.arange(10, 20), Hyperparams(embed_dim=2))
    train_views = ds.columns(sp.train_indices)
    train_labels = ds.labels[sp.train_indices]
    correct = sum(
        knn_classify(model, train_views, train_labels, ds.sample(int(i))) == ds.labels[i]
        for i in sp.test_indices
    )
    assert correct == 10


def test_k1_picks_the_nearer_point():
    ds = generate_synthetic(2, 5, [3, 3], seed=2)
    model, sp = _trained_on(ds, np.arange(8), np.arange(8, 10), Hyperparams(embed_dim=2))
    train_views = ds.columns(sp.train_indices)
    train_labels = ds.labels[sp.train_indices]
    x = ds.sample(int(sp.test_indices[0]))
    distances = np.array(
        [
            multiview_distance(model, x, [view[:, j] for view in train_views])
            for j in range(len(train_labels))
        ]
    )
    assert knn_classify(model, train_views, train_labels, x, k=1) == train_labels[np.argmin(distances)]


def test_knn_matches_brute_force_oracle():
    ds = generate_synthetic(2, 20, [4, 4], seed=3)
    model, sp = _trained_on(ds, np.arange(0, 40, 2), np.arange(1, 40, 2), Hyperparams(embed_dim=2))
    train_views = ds.columns(sp.train_indices)
    train_labels = ds.labels[sp.train_indices]
    for i in sp.test_indices:
        x = ds.sample(int(i))
        # independent oracle: explicit double loop with lowest-index tie break
        best_j, best_d = 0, np.inf
        for j in range(len(train_labels)):
            d = multiview_distance(model, x, [view[:, j] for view in train_views])
            if d < best_d:
                best_j, best_d = j, d
        assert knn_classify(model, train_views, train_labels, x, k=1) == train_labels[best_j]


def test_knn_vote_and_tie_breaking():
    labels = np.array([0, 1, 1, 0])
    # k=3 with two 1s beats one 0
    assert _knn_predict(np.array([0.1, 0.2, 0.3, 0.9]), labels, k=3) == 1
    # k=2 is a 1-1 vote: the nearest member of the tied set wins
    assert _knn_predict(np.array([0.1, 0.2, 0.3, 0.9]), labels, k=2) == 0
    # exact distance ties resolve to the lower training index
    assert _knn_predict(np.array([0.5, 0.5, 0.9, 0.9]), labels, k=1) == 0


def test_knn_validates_inputs():
    ds = generate_synthetic(2, 3, [2, 2], seed=4)
    model, sp = _trained_on(ds, np.arange(4), np.arange(4, 6), Hyperparams(embed_dim=1))
    train_views = ds.columns(sp.train_indices)
    train_labels = ds.labels[sp.train_indices]
    x = ds.sample(4)
    with pytest.raises(ValueError, match="k must be"):
        knn_classify(model, train_views, train_labels, x, k=0)
    with pytest.raises(ValueError, match="k must be"):
        knn_classify(model, train_views, train_labels, x, k=5)
    with pytest.raises(ValueError, match="empty training set"):
        knn_classify(model, [v[:, :0] for v in train_views], train_labels[:0], x)


def test_benchmark_is_deterministic():
    ds = generate_synthetic(2, 10, [3, 4], seed=5)
    hyper = Hyperparams(embed_dim=2)
    a = run_benchmark(ds, 12, 3, hyper, seed=9, include_baseline=True)
    b = run_benchmark(ds, 12, 3, hyper, seed=9, include_baseline=True)
    assert a.to_dict() == b.to_dict()


def test_benchmark_aggregates_are_recomputable():
    ds = generate_synthetic(2, 10, [3, 4], seed=6)
    report = run_benchmark(ds, 12, 4, Hyperparams(embed_dim=2), seed=1)
    assert report.mean_accuracy == pytest.approx(np.mean(report.per_trial_accuracy))
    assert report.max_accuracy == max(report.per_trial_accuracy)
    for record in report.trials:
        n_test = len(record["test_indices"])
        assert record["accuracy"] * n_test == pytest.approx(round(record["accuracy"] * n_test))
    assert all(0.0 <= acc <= 1.0 for acc in report.per_trial_accuracy)


def test_benchmark_separable_data_is_accurate():
    ds = generate_synthetic(2, 20, [5, 5], seed=7)
    report = run_benchmark(ds, 20, 10, Hyperparams(embed_dim=3), seed=2, include_baseline=True)
    assert report.mean_accuracy >= 0.9
    # the Euclidean oracle confirms the task is 1NN-easy by construction
    assert report.baseline_mean >= 0.9


def test_baseline_runs_on_identical_splits():
    ds = generate_synthetic(2, 12, [3, 6], seed=8)
    report = run_benchmark(ds, 12, 3, Hyperparams(embed_dim=2), seed=3, include_baseline=True)
    assert report.baseline_per_trial is not None
    assert len(report.baseline_per_trial) == 3
    for record in report.trials:
        assert "baseline_accuracy" in record
        assert set(record) >= {"train_indices", "test_indices", "split_seed"}


def test_trial_seeds_reproduce_single_trial():
    ds = generate_synthetic(2, 10, [3, 3], seed=9)
    report = run_benchmark(ds, 12, 3, Hyperparams(embed_dim=2), seed=4)
    for t, record in enumerate(report.trials):
        assert record["split_seed"] == derive_trial_seed(4, t, 0)
    solo = run_benchmark(ds, 12, 1, Hyperparams(embed_dim=2), seed=4)
    assert solo.per_trial_accuracy[0] == report.per_trial_accuracy[0]
    assert solo.trials[0]["train_indices"] == report.trials[0]["train_indices"]


def brute_force_euclidean_knn(train_views, train_labels, x, k):
    """Per-pair reference: rank by (distance, index), nearest tied label wins."""
    distances = []
    for j in range(len(train_labels)):
        total = 0.0
        for view, xv in zip(train_views, x):
            for a, b in zip(xv, view[:, j]):
                total += (float(a) - float(b)) ** 2
        distances.append((np.sqrt(total), j))
    nearest = [int(train_labels[j]) for _, j in sorted(distances)[:k]]
    counts = {lab: nearest.count(lab) for lab in nearest}
    return next(lab for lab in nearest if counts[lab] == max(counts.values()))


@pytest.mark.parametrize("k", [1, 3, 5])
def test_euclidean_baseline_matches_per_pair_loop(k):
    rng = np.random.default_rng(20 + k)
    train_views = [rng.standard_normal((dim, 30)) for dim in (4, 7, 2)]
    train_labels = rng.integers(0, 3, size=30)
    for _ in range(25):
        x = [rng.standard_normal(view.shape[0]) for view in train_views]
        expected = brute_force_euclidean_knn(train_views, train_labels, x, k)
        assert _euclidean_knn(train_views, train_labels, x, k) == expected


def test_euclidean_baseline_distance_tie_goes_to_lower_index():
    # columns 1 and 2 are identical and nearest, with different labels
    train_views = [np.array([[5.0, 1.0, 1.0, 3.0]]), np.array([[0.0, 2.0, 2.0, 0.0]])]
    train_labels = np.array([0, 2, 1, 1])
    x = [np.array([1.0]), np.array([2.0])]
    assert _euclidean_knn(train_views, train_labels, x, k=1) == 2


def test_euclidean_baseline_vote_tie_goes_to_nearest():
    # k=2 is a 1-1 vote; the nearest neighbour has the higher index
    train_views = [np.array([[2.0, 1.0, 9.0]]), np.array([[0.0, 0.0, 0.0]])]
    train_labels = np.array([0, 1, 0])
    x = [np.array([0.0]), np.array([0.0])]
    assert _euclidean_knn(train_views, train_labels, x, k=2) == 1


@pytest.mark.parametrize("shift", [2.0**10, 2.0**30], ids=["2**10", "2**30"])
@pytest.mark.parametrize("k", [1, 3])
def test_euclidean_baseline_ignores_a_constant_shift(k, shift):
    # on a grid of quarters every shifted feature and every difference is
    # exact, so the distances (ties included) are bit-identical; at 2**30
    # the squared features are not, so expanding |x|^2 + |y|^2 - 2 x.y
    # instead of subtracting first would show
    rng = np.random.default_rng(31)
    train_views = [rng.integers(-8, 8, size=(dim, 40)) / 4.0 for dim in (3, 5)]
    train_labels = rng.integers(0, 3, size=40)
    tests = [[rng.integers(-8, 8, size=view.shape[0]) / 4.0 for view in train_views] for _ in range(40)]
    shifted_views = [view + shift for view in train_views]
    for x in tests:
        plain = _euclidean_knn(train_views, train_labels, x, k)
        assert _euclidean_knn(shifted_views, train_labels, [xv + shift for xv in x], k) == plain
        assert plain == brute_force_euclidean_knn(train_views, train_labels, x, k)


def test_benchmark_baseline_matches_per_pair_loop():
    ds = generate_synthetic(3, 10, [4, 6], seed=14)
    report = run_benchmark(ds, 15, 2, Hyperparams(embed_dim=2), seed=7, include_baseline=True, k=3)
    for record in report.trials:
        train_views = ds.columns(record["train_indices"])
        train_labels = ds.labels[record["train_indices"]]
        correct = sum(
            brute_force_euclidean_knn(train_views, train_labels, ds.sample(i), 3) == ds.labels[i]
            for i in record["test_indices"]
        )
        assert record["baseline_accuracy"] == correct / len(record["test_indices"])


def test_trials_run_on_the_calling_thread_whatever_the_environment(monkeypatch):
    ds = generate_synthetic(2, 10, [3, 4], seed=10)
    hyper = Hyperparams(embed_dim=2)
    monkeypatch.delenv("MVMETRIC_THREADS", raising=False)
    plain = run_benchmark(ds, 12, 4, hyper, seed=5, include_baseline=True)
    threads = []

    def recording_train(*args, **kwargs):
        threads.append(threading.get_ident())
        return train(*args, **kwargs)

    monkeypatch.setattr(mvmetric.eval, "train", recording_train)
    monkeypatch.setenv("MVMETRIC_THREADS", "3")
    report = run_benchmark(ds, 12, 4, hyper, seed=5, include_baseline=True)
    assert threads == [threading.get_ident()] * 4
    assert report.to_dict() == plain.to_dict()


def test_k_is_checked_before_the_first_fit(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("train must not run when k is invalid")

    monkeypatch.setattr(mvmetric.eval, "train", no_fit)
    ds = generate_synthetic(2, 10, [3, 4], seed=10)
    with pytest.raises(ValueError, match=r"k must be in \[1, 12\], got 13"):
        run_benchmark(ds, 12, 2, Hyperparams(embed_dim=2), k=13)
    with pytest.raises(ValueError, match=r"k must be in \[1, 12\], got 0"):
        run_benchmark(ds, 12, 2, Hyperparams(embed_dim=2), k=0)


def test_benchmark_with_cap_and_larger_k():
    ds = generate_synthetic(3, 8, [4, 4], seed=13)
    report = run_benchmark(
        ds, 15, 2, Hyperparams(embed_dim=2), seed=6, max_pairs_per_set=20, k=3
    )
    assert report.config["max_pairs_per_set"] == 20
    assert report.config["k"] == 3
    assert len(report.per_trial_accuracy) == 2
    assert all(0.0 <= a <= 1.0 for a in report.per_trial_accuracy)


def test_trials_must_be_positive():
    ds = generate_synthetic(2, 6, [3, 3], seed=11)
    with pytest.raises(ValueError, match="trials"):
        run_benchmark(ds, 8, 0, Hyperparams(embed_dim=2), seed=0)


def test_csv_summary_shape():
    ds = generate_synthetic(2, 8, [3, 3], seed=12)
    report = run_benchmark(ds, 10, 2, Hyperparams(embed_dim=2), seed=0, include_baseline=True)
    lines = report.summary_csv().strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "trial,accuracy,baseline_accuracy"
    assert len(lines) == 2 + 2 + 2  # header comment, column row, 2 trials, mean, max
