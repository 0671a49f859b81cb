import dataclasses
import json
import threading
import tracemalloc

import numpy as np
import pytest

import mvmetric.eval
from mvmetric import (
    FORMAT_VERSION,
    EvalReport,
    Hyperparams,
    MultiviewDataset,
    MultiviewMetricModel,
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
from mvmetric.eval import SCORE_BLOCK, _predict
from mvmetric.metric import _squared_distances


def _trained_on(dataset, train_idx, test_idx, hyper):
    sp = SplitSpec(np.asarray(train_idx), np.asarray(test_idx))
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


def reference_distance(model, xs, ys):
    """Per-pair reference: each difference projected, ``W_v^T (x - y)``, as distances were once taken."""
    weights = model.view_weights**model.hyper.weight_exponent
    total = 0.0
    for v in range(model.num_views):
        z = model.projections[v].T @ (np.asarray(xs[v], dtype=float) - np.asarray(ys[v], dtype=float))
        total += weights[v] * np.dot(z, z)
    return float(np.sqrt(total))


def _random_model(rng, dims, d):
    projections = tuple(np.linalg.qr(rng.standard_normal((dim, d)))[0] for dim in dims)
    weights = rng.dirichlet(np.ones(len(dims)))
    weights /= weights.sum()
    hyper = Hyperparams(embed_dim=d, weight_exponent=rng.uniform(1.5, 4.0))
    return MultiviewMetricModel(projections, weights, hyper)


def distance_error_bound(model, points, expected):
    """Rounding budget for ``expected`` (reference distances), set from eps and the projected magnitudes.

    A projected coordinate is a D_v-term dot product, so ``W_v^T x`` is off
    from exact by at most about D_v * eps * (|W_v|^T |x|), and the reference
    ``W_v^T (x - y)`` by (D_v + 1) * eps * (|W_v|^T |x| + |W_v|^T |y|).  With
    ``m_v`` the largest ``|W_v|^T |p|`` entry over ``points``, a coordinate of
    the two differences disagrees by at most 4 (D_v + 1) eps m_v, a view's norm
    by sqrt(d) times that, and the weighted distance by the weighted root sum
    of squares; summing and the square root add a relative (d V + 2) eps.
    """
    eps = np.finfo(float).eps
    weights = model.view_weights**model.hyper.weight_exponent
    d = model.embed_dim
    absolute = 0.0
    for w, u, view_points in zip(model.projections, weights, points):
        m = float(np.max(np.abs(w).T @ np.abs(view_points)))
        absolute += u * d * (4 * (w.shape[0] + 1) * eps * m) ** 2
    return np.sqrt(absolute) + (d * model.num_views + 2) * eps * expected


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("k", [1, 3])
def test_knn_scores_exactly_the_per_pair_distances(monkeypatch, seed, k):
    # 2-4 views; the first is narrow (W_v square), the others wider than d, so
    # their metrics are rank-deficient; the training data has rank 2 per view
    # and repeats a column, so distances tie and vanish.  Projecting the points
    # first moves distances in the last bits, within distance_error_bound; the
    # zero distances and the predictions stay exact
    rng = np.random.default_rng(40 + seed)
    d = int(rng.integers(2, 4))
    dims = [d, *(int(dim) for dim in rng.integers(d + 1, 12, size=int(rng.integers(1, 4))))]
    model = _random_model(rng, dims, d)
    n_train = 15
    train_views = [rng.standard_normal((dim, 2)) @ rng.standard_normal((2, n_train)) + 5.0 for dim in dims]
    for view in train_views:
        view[:, 7] = view[:, 3]
    train_labels = rng.integers(0, 3, size=n_train)
    seen = []

    def recording(*args):
        squared = _squared_distances(*args)
        seen.append(np.sqrt(squared)[0])
        return squared

    monkeypatch.setattr(mvmetric.eval, "_squared_distances", recording)
    tests = [[rng.standard_normal(dim) * 3.0 + 5.0 for dim in dims] for _ in range(12)]
    tests.append([view[:, 3].copy() for view in train_views])
    for x in tests:
        predicted = knn_classify(model, train_views, train_labels, x, k)
        columns = [[view[:, j] for view in train_views] for j in range(n_train)]
        expected = np.array([reference_distance(model, x, ys) for ys in columns])
        points = [np.column_stack([view, xv]) for view, xv in zip(train_views, x)]
        bound = distance_error_bound(model, points, expected)
        assert np.all(np.abs(seen[-1] - expected) <= bound)
        assert np.all(np.abs([multiview_distance(model, x, ys) for ys in columns] - expected) <= bound)
        assert predicted == brute_force_vote(expected, train_labels, k)
    assert np.count_nonzero(seen[-1] == 0.0) == 2


def test_knn_rejects_malformed_input_before_scoring(monkeypatch):
    def no_distance(*args):
        raise AssertionError("no distance may be scored for malformed input")

    rng = np.random.default_rng(50)
    model = _random_model(rng, [3, 5], 2)
    train_views = [rng.standard_normal((3, 6)), rng.standard_normal((5, 6))]
    train_labels = np.array([0, 1, 0, 1, 0, 1])
    x = [rng.standard_normal(3), rng.standard_normal(5)]
    nan_train = train_views[1].copy()
    nan_train[2, 5] = np.nan
    inf_test = x[1].copy()
    inf_test[4] = np.inf
    cases = [
        (x[:1], train_views, "expected 2 test vectors and training views"),
        (x, train_views[:1], "expected 2 test vectors and training views"),
        (x, [*train_views, train_views[0]], "expected 2 test vectors and training views"),
        ([x[0], x[1][:4]], train_views, r"view 2 test sample: expected shape \(5,\)"),
        (x, [train_views[0][:2], train_views[1]], r"view 1 training data: expected shape \(3, 6\), got \(2,"),
        (x, [train_views[0], train_views[1][:, :5]], r"expected shape \(5, 6\), got \(5, 5\)"),
        (x, [np.hstack([train_views[0], train_views[0][:, :1]]), train_views[1]], r"got \(3, 7\)"),
        (x, [train_views[0], train_views[1][:, 0]], r"got \(5,\)"),
        (x, [train_views[0], nan_train], "view 2 training data: non-finite entries"),
        ([x[0], inf_test], train_views, "view 2 test sample: non-finite entries"),
    ]
    monkeypatch.setattr(mvmetric.eval, "_squared_distances", no_distance)
    for test_sample, views, message in cases:
        with pytest.raises(ValueError, match=message):
            knn_classify(model, views, train_labels, test_sample, k=1)
    # a fractional label is no training label, and a label column is no label vector
    for labels, message in [
        (train_labels + 0.5, "train_labels must be integers"),
        (train_labels.astype(bool), "train_labels must be integers, got non-integral dtype bool"),
        (train_labels + 0j, "train_labels must be integers, got non-integral dtype complex128"),
        (train_labels.astype(str), "train_labels must be integers, got non-integral dtype <U"),
        (train_labels.astype(object), "train_labels must be integers, got non-integral dtype object"),
        (train_labels.astype(np.uint64) + np.uint64(2**63), "train_labels must be integers, got non-integral or out"),
        (train_labels[:, None], r"train_labels: expected shape \(n_train,\), got \(6, 1\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            knn_classify(model, train_views, labels, x, k=1)
    # a bool or a float is no neighbour count, even one that equals an integer
    for k in (True, 2.0):
        with pytest.raises(TypeError, match=f"k must be an integer, got {k!r}"):
            knn_classify(model, train_views, train_labels, x, k=k)


def test_knn_vote_and_tie_breaking():
    def vote(positions, k):
        # 1-feature training points at ``positions``, one test point at 0.0
        points = [np.array([[*positions, 0.0]])]
        return _predict(points, np.ones(1), np.arange(4), [4], np.array([0, 1, 1, 0]), k)[0]

    # k=3 with two 1s beats one 0
    assert vote([0.1, 0.2, 0.3, 0.9], k=3) == 1
    # k=2 is a 1-1 vote: the nearest member of the tied set wins
    assert vote([0.1, 0.2, 0.3, 0.9], k=2) == 0
    # exact distance ties resolve to the lower training index
    assert vote([0.5, 0.5, 0.9, 0.9], k=1) == 0


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


def brute_force_vote(distances, train_labels, k):
    """Rank by (distance, index); the nearest member of the tied label set wins."""
    nearest = [int(train_labels[j]) for _, j in sorted(zip(distances, range(len(distances))))[:k]]
    counts = {lab: nearest.count(lab) for lab in nearest}
    return next(lab for lab in nearest if counts[lab] == max(counts.values()))


def test_block_vote_matches_brute_force_row_for_row(monkeypatch):
    # points on a coarse integer grid, so distances tie, and few labels, so
    # votes tie; the labels include a negative one and one past 2**32, every
    # k from 1 to n_train is voted, and blocks of 5 split the test samples
    monkeypatch.setattr(mvmetric.eval, "SCORE_BLOCK", 5)
    rng = np.random.default_rng(70)
    pool = np.array([-7, 10**12, 0, 3, 1])
    rows = 0
    for _ in range(60):
        n_train, n_test = int(rng.integers(1, 16)), int(rng.integers(1, 23))
        points = [rng.integers(-2, 3, size=(int(rng.integers(1, 3)), n_train + n_test)).astype(float) for _ in range(2)]
        train_labels = rng.choice(pool[: int(rng.integers(1, 6))], size=n_train)
        train_idx, test_idx = np.arange(n_train), np.arange(n_train, n_train + n_test)
        # integer coordinates and unit weights: every squared distance is exact
        stacked = np.vstack(points)
        distances = np.sqrt(((stacked[:, test_idx, None] - stacked[:, None, train_idx]) ** 2).sum(axis=0))
        for k in range(1, n_train + 1):
            predicted = _predict(points, np.ones(2), train_idx, test_idx, train_labels, k)
            assert predicted.dtype == int
            assert predicted.tolist() == [brute_force_vote(row, train_labels, k) for row in distances]
            rows += n_test
    assert rows > 5000


def brute_force_euclidean_knn(train_views, train_labels, x, k):
    """Per-pair reference over every feature of every view."""
    distances = []
    for j in range(len(train_labels)):
        total = 0.0
        for view, xv in zip(train_views, x):
            for a, b in zip(xv, view[:, j]):
                total += (float(a) - float(b)) ** 2
        distances.append(np.sqrt(total))
    return brute_force_vote(distances, train_labels, k)


def euclidean_knn(train_views, train_labels, x, k):
    """The baseline of ``run_benchmark`` for one test sample: raw columns, unit weights."""
    points = [np.column_stack([view, xv]) for view, xv in zip(train_views, x)]
    n_train = len(train_labels)
    return int(_predict(points, np.ones(len(points)), np.arange(n_train), [n_train], train_labels, k)[0])


@pytest.mark.parametrize("k", [1, 3, 5])
def test_euclidean_baseline_matches_per_pair_loop(k):
    rng = np.random.default_rng(20 + k)
    train_views = [rng.standard_normal((dim, 30)) for dim in (4, 7, 2)]
    train_labels = rng.integers(0, 3, size=30)
    for _ in range(25):
        x = [rng.standard_normal(view.shape[0]) for view in train_views]
        expected = brute_force_euclidean_knn(train_views, train_labels, x, k)
        assert euclidean_knn(train_views, train_labels, x, k) == expected


def test_euclidean_baseline_distance_tie_goes_to_lower_index():
    # columns 1 and 2 are identical and nearest, with different labels
    train_views = [np.array([[5.0, 1.0, 1.0, 3.0]]), np.array([[0.0, 2.0, 2.0, 0.0]])]
    train_labels = np.array([0, 2, 1, 1])
    x = [np.array([1.0]), np.array([2.0])]
    assert euclidean_knn(train_views, train_labels, x, k=1) == 2


def test_euclidean_baseline_vote_tie_goes_to_nearest():
    # k=2 is a 1-1 vote; the nearest neighbour has the higher index
    train_views = [np.array([[2.0, 1.0, 9.0]]), np.array([[0.0, 0.0, 0.0]])]
    train_labels = np.array([0, 1, 0])
    x = [np.array([0.0]), np.array([0.0])]
    assert euclidean_knn(train_views, train_labels, x, k=2) == 1


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
        plain = euclidean_knn(train_views, train_labels, x, k)
        assert euclidean_knn(shifted_views, train_labels, [xv + shift for xv in x], k) == plain
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


@pytest.mark.parametrize("k", [2, 4])
def test_benchmark_votes_like_knn_classify_and_brute_force_under_vote_ties(monkeypatch, k):
    # overlapping classes, so even-k votes tie; samples 36..41 repeat samples
    # 0..5, so a test sample whose twin trained is at distance exactly 0.0;
    # blocks of 5 split the 22 test samples into four full blocks and a short one
    base = generate_synthetic(3, 12, [3, 5], seed=21, separation=0.5)
    views = tuple(ViewMatrix(v.view_id, np.hstack([v.data, v.data[:, :6]])) for v in base.views)
    ds = MultiviewDataset(views, np.concatenate([base.labels, base.labels[:6]]))
    twin = {**{i: i + 36 for i in range(6)}, **{i + 36: i for i in range(6)}}
    models, rows = [], []

    def recording_train(*args, **kwargs):
        models.append(train(*args, **kwargs))
        return models[-1]

    def recording_distances(*args):
        squared = _squared_distances(*args)
        rows.extend(np.sqrt(squared))
        return squared

    monkeypatch.setattr(mvmetric.eval, "train", recording_train)
    monkeypatch.setattr(mvmetric.eval, "_squared_distances", recording_distances)
    monkeypatch.setattr(mvmetric.eval, "SCORE_BLOCK", 5)
    report = run_benchmark(ds, 20, 4, Hyperparams(embed_dim=2), seed=8, include_baseline=True, k=k)
    monkeypatch.undo()
    zeros = deciding_ties = 0
    for record, model in zip(report.trials, models):
        train_idx, test_idx = record["train_indices"], record["test_indices"]
        learned, baseline = rows[: len(test_idx)], rows[len(test_idx) : 2 * len(test_idx)]
        del rows[: 2 * len(test_idx)]
        train_views = ds.columns(train_idx)
        train_labels = ds.labels[train_idx]
        classified = brute = brute_baseline = 0
        for row, base_row, i in zip(learned, baseline, test_idx):
            x = ds.sample(i)
            if twin.get(i) in train_idx:
                j = train_idx.index(twin[i])
                assert row[j] == 0.0 and base_row[j] == 0.0
                zeros += 1
            distances = [reference_distance(model, x, [view[:, j] for view in train_views]) for j in range(20)]
            vote = brute_force_vote(distances, train_labels, k)
            nearest = sorted(zip(distances, range(20)))[:k]
            counts = np.bincount([train_labels[j] for _, j in nearest])
            lowest_tied = int(np.argmax(counts))
            deciding_ties += vote != lowest_tied
            classified += knn_classify(model, train_views, train_labels, x, k) == ds.labels[i]
            brute += vote == ds.labels[i]
            brute_baseline += brute_force_euclidean_knn(train_views, train_labels, x, k) == ds.labels[i]
        assert record["accuracy"] == classified / len(test_idx) == brute / len(test_idx)
        assert record["baseline_accuracy"] == brute_baseline / len(test_idx)
    assert rows == []
    # the nearest-member tie rule decides some votes, and some twins are scored
    assert deciding_ties > 0
    assert zeros > 0


def test_scoring_memory_grows_with_the_block_not_the_test_set():
    rng = np.random.default_rng(60)
    n_train, n_test = 40, 4000
    points = [rng.standard_normal((3, n_train + n_test)) for _ in range(3)]
    train_labels = rng.integers(0, 3, size=n_train)
    train_idx, test_idx = np.arange(n_train), np.arange(n_train, n_train + n_test)
    tracemalloc.start()
    try:
        _predict(points, np.ones(3), train_idx, test_idx, train_labels, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # four SCORE_BLOCK x n_train float arrays, the predicted labels and room
    # for four of numpy's ufunc buffers; one n_test x n_train matrix alone
    # would not fit
    bound = 4 * SCORE_BLOCK * n_train * 8 + n_test * 8 + 4 * np.getbufsize() * 8
    assert bound < n_test * n_train * 8
    assert peak < bound


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
    # the pair cap is gone: the report keeps no cap and no constraint seed
    ds = generate_synthetic(3, 8, [4, 4], seed=13)
    report = run_benchmark(ds, 15, 2, Hyperparams(embed_dim=2), seed=6, k=3)
    assert report.config["k"] == 3
    assert "max_pairs_per_set" not in report.config
    assert all("constraint_seed" not in record for record in report.trials)
    assert len(report.per_trial_accuracy) == 2
    assert all(0.0 <= a <= 1.0 for a in report.per_trial_accuracy)


def test_benchmark_integer_arguments_save_as_plain_integers(tmp_path):
    ds = generate_synthetic(2, 6, [3, 4], seed=14)
    hyper = Hyperparams(embed_dim=2)
    numpy_ints = run_benchmark(ds, np.int64(8), np.int32(2), hyper, seed=np.int64(3), k=np.uint8(3))
    plain = run_benchmark(ds, 8, 2, hyper, seed=3, k=3)
    numpy_ints.save(tmp_path / "numpy.json")
    plain.save(tmp_path / "plain.json")
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    config = json.loads((tmp_path / "numpy.json").read_text())["config"]
    assert [config[key] for key in ("train_count", "trials", "seed", "k")] == [8, 2, 3, 3]
    assert all(type(numpy_ints.config[key]) is int for key in ("train_count", "trials", "seed", "k"))


@pytest.mark.parametrize("name", ["train_count", "trials", "seed", "k"])
def test_benchmark_rejects_a_bool_before_the_first_fit(monkeypatch, name):
    def no_fit(*args, **kwargs):
        raise AssertionError("train must not run when an argument is malformed")

    monkeypatch.setattr(mvmetric.eval, "train", no_fit)
    ds = generate_synthetic(2, 6, [3, 4], seed=14)
    args = {"train_count": 8, "trials": 2, "seed": 3, "k": 1, name: True}
    with pytest.raises(TypeError, match=f"{name} must be an integer, got True"):
        run_benchmark(ds, hyper=Hyperparams(embed_dim=2), **args)


def test_benchmark_rejects_a_negative_seed_before_the_first_fit(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("train must not run when an argument is malformed")

    monkeypatch.setattr(mvmetric.eval, "train", no_fit)
    ds = generate_synthetic(2, 6, [3, 4], seed=14)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        run_benchmark(ds, 8, 2, Hyperparams(embed_dim=2), seed=-1)


@pytest.mark.parametrize("flag", ["no", 0, 1, None, np.True_])
def test_benchmark_rejects_a_baseline_flag_that_is_not_a_bool(monkeypatch, flag):
    def no_fit(*args, **kwargs):
        raise AssertionError("train must not run when an argument is malformed")

    monkeypatch.setattr(mvmetric.eval, "train", no_fit)
    ds = generate_synthetic(2, 10, [5, 6], seed=1)
    with pytest.raises(TypeError, match=f"include_baseline must be true or false, got {flag!r}"):
        run_benchmark(ds, 12, 1, Hyperparams(embed_dim=2), include_baseline=flag)


def test_trials_must_be_positive():
    ds = generate_synthetic(2, 6, [3, 3], seed=11)
    with pytest.raises(ValueError, match="trials"):
        run_benchmark(ds, 8, 0, Hyperparams(embed_dim=2), seed=0)


def test_csv_summary_shape():
    ds = generate_synthetic(2, 8, [3, 3], seed=12)
    for include_baseline in (True, False):
        report = run_benchmark(ds, 10, 2, Hyperparams(embed_dim=2), seed=0, include_baseline=include_baseline)
        # one column per accuracy series: the learned metric's, then the baseline's if run
        series = [(report.per_trial_accuracy, report.mean_accuracy, report.max_accuracy)]
        if include_baseline:
            series.append((report.baseline_per_trial, report.baseline_mean, report.baseline_max))
        expected = [
            f"# mvmetric eval summary, format {FORMAT_VERSION}, config {json.dumps(report.config)}",
            "trial,accuracy,baseline_accuracy" if include_baseline else "trial,accuracy",
            *(",".join([str(t), *(repr(per_trial[t]) for per_trial, _, _ in series)]) for t in range(2)),
            ",".join(["mean", *(repr(mean) for _, mean, _ in series)]),
            ",".join(["max", *(repr(best) for _, _, best in series)]),
        ]
        assert report.summary_csv() == "\n".join(expected) + "\n"


REPORT_RECORDS = [
    {"trial": 0, "accuracy": 0.75, "weights": [0.5, 0.5], "baseline_accuracy": 0.5},
    {"trial": 1, "accuracy": 1.0, "weights": [0.625, 0.375], "baseline_accuracy": 0.25},
]

REPORT_JSON_WITH_BASELINE = """{
  "format_version": "1",
  "config": {
    "trials": 2,
    "k": 1
  },
  "per_trial_accuracy": [
    0.75,
    1.0
  ],
  "mean_accuracy": 0.875,
  "max_accuracy": 1.0,
  "weights_per_trial": [
    [
      0.5,
      0.5
    ],
    [
      0.625,
      0.375
    ]
  ],
  "trials": [
    {
      "trial": 0,
      "accuracy": 0.75,
      "weights": [
        0.5,
        0.5
      ],
      "baseline_accuracy": 0.5
    },
    {
      "trial": 1,
      "accuracy": 1.0,
      "weights": [
        0.625,
        0.375
      ],
      "baseline_accuracy": 0.25
    }
  ],
  "baseline_per_trial": [
    0.5,
    0.25
  ],
  "baseline_mean": 0.375,
  "baseline_max": 0.5
}"""

REPORT_JSON_WITHOUT_BASELINE = """{
  "format_version": "1",
  "config": {
    "trials": 2,
    "k": 1
  },
  "per_trial_accuracy": [
    0.75,
    1.0
  ],
  "mean_accuracy": 0.875,
  "max_accuracy": 1.0,
  "weights_per_trial": [
    [
      0.5,
      0.5
    ],
    [
      0.625,
      0.375
    ]
  ],
  "trials": [
    {
      "trial": 0,
      "accuracy": 0.75,
      "weights": [
        0.5,
        0.5
      ]
    },
    {
      "trial": 1,
      "accuracy": 1.0,
      "weights": [
        0.625,
        0.375
      ]
    }
  ]
}"""


def test_report_text_is_read_from_hand_written_records():
    # the layout pinned without a fit, so independent of BLAS and the solver
    assert [f.name for f in dataclasses.fields(EvalReport)] == ["config", "trials"]
    report = EvalReport({"trials": 2, "k": 1}, REPORT_RECORDS)
    assert json.dumps(report.to_dict(), indent=2) == REPORT_JSON_WITH_BASELINE
    assert report.summary_csv() == (
        '# mvmetric eval summary, format 1, config {"trials": 2, "k": 1}\n'
        "trial,accuracy,baseline_accuracy\n"
        "0,0.75,0.5\n"
        "1,1.0,0.25\n"
        "mean,0.875,0.375\n"
        "max,1.0,0.5\n"
    )
    records = [{key: value for key, value in r.items() if key != "baseline_accuracy"} for r in REPORT_RECORDS]
    report = EvalReport({"trials": 2, "k": 1}, records)
    assert json.dumps(report.to_dict(), indent=2) == REPORT_JSON_WITHOUT_BASELINE
    assert report.summary_csv() == (
        '# mvmetric eval summary, format 1, config {"trials": 2, "k": 1}\n'
        "trial,accuracy\n"
        "0,0.75\n"
        "1,1.0\n"
        "mean,0.875\n"
        "max,1.0\n"
    )
    assert report.baseline_per_trial is None
    assert report.baseline_mean is None
    assert report.baseline_max is None
