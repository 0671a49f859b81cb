"""Property tests: a fit must not depend on things that should not matter.

The order properties refit on a reordered copy of the data and compare the
per-view metrics ``W_v W_v^T`` (the projections themselves are defined only up
to a rotation of their columns) and the view weights.  The standardisation
properties compare model files and predictions.  A nearly uncoupled fit must
match the uncoupled one, and a fit on rescaled features the original one.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvmetric import (
    Hyperparams,
    MultiviewDataset,
    SplitSpec,
    ViewMatrix,
    build_constraints,
    generate_synthetic,
    knn_classify,
    metric_matrix,
    run_benchmark,
    split,
    train,
    write_dataset,
)
from mvmetric.cli import main

HYPER = Hyperparams(embed_dim=2)
N_TRAIN = 14
# Training stops once W_v W_v^T moves by less than tol between iterations, so
# two fits whose rounding differs may end up about tol apart; reordering the
# data changes only rounding, so a wider gap means the fit depends on order.
BOUND = HYPER.tol
# As eta grows the coupling term vanishes, so the fit must tend to the
# uncoupled one; at eta = 1e12 the cross blocks weigh about 1e-12 of the margins.
UNCOUPLED_BOUND = HYPER.tol * 1e-2
# Multiplying every feature by a power of two scales K, Z and the gains by its
# square and changes no rounding, and every threshold of the fit is relative,
# so the fit must not move; any gap above a hundredth of tol is a threshold
# that depends on the unit deciding the fit.
UNIT_BOUND = HYPER.tol * 1e-2

# views of at most N_TRAIN + d features, so each view's basis in train is a
# full rotation of its feature space
datasets = st.builds(
    lambda seed, dims, noise: generate_synthetic(2, 10, dims, {2} if noise else set(), seed),
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(3, 11), min_size=2, max_size=3),
    noise=st.booleans(),
)


def _fit(dataset, train_indices):
    test_indices = np.setdiff1d(np.arange(dataset.n), train_indices)
    cons = build_constraints(dataset.labels[np.asarray(train_indices)])
    model = train(dataset, SplitSpec(train_indices, test_indices), cons, HYPER)
    # rank padding tries standard basis vectors in index order, so a padded
    # fit may legitimately depend on feature order
    assume(not any(entry["padded_views"] for entry in model.trace))
    return model


def _metrics(model):
    return [metric_matrix(model, v) for v in range(1, model.num_views + 1)]


def _assert_same_fit(model, moved, metrics):
    """``metrics`` are the W_v W_v^T of ``model``, mapped to the reordered data."""
    gap = sum(np.linalg.norm(a - b) for a, b in zip(metrics, _metrics(moved)))
    assert gap / sum(np.linalg.norm(a) for a in metrics) <= BOUND
    np.testing.assert_allclose(moved.view_weights, model.view_weights, rtol=0.0, atol=BOUND)


@settings(max_examples=12, deadline=None)
@given(dataset=datasets, order=st.randoms(use_true_random=False))
def test_training_ignores_sample_order(dataset, order):
    sp = split(dataset, N_TRAIN, seed=0)
    model = _fit(dataset, sp.train_indices)
    perm = np.array(order.sample(range(dataset.n), dataset.n))
    shuffled = MultiviewDataset(
        tuple(ViewMatrix(v.view_id, v.data[:, perm]) for v in dataset.views), dataset.labels[perm]
    )
    # sample i of the shuffled set is sample perm[i] of the original; sorting
    # the mapped indices changes the order of the training columns and pairs
    moved = _fit(shuffled, np.sort(np.argsort(perm)[sp.train_indices]))
    _assert_same_fit(model, moved, _metrics(model))


@settings(max_examples=12, deadline=None)
@given(dataset=datasets, order=st.randoms(use_true_random=False))
def test_training_ignores_feature_order(dataset, order):
    sp = split(dataset, N_TRAIN, seed=0)
    model = _fit(dataset, sp.train_indices)
    perms = [np.array(order.sample(range(dim), dim)) for dim in dataset.view_dims]
    shuffled = MultiviewDataset(
        tuple(ViewMatrix(v.view_id, v.data[p]) for v, p in zip(dataset.views, perms)), dataset.labels
    )
    moved = _fit(shuffled, sp.train_indices)
    # feature k of a shuffled view is feature p[k] of the original
    _assert_same_fit(model, moved, [a[np.ix_(p, p)] for a, p in zip(_metrics(model), perms)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_standardized_training_ignores_test_samples(tmp_path, monkeypatch, seed):
    # the scale is fitted on the training columns only, so changing the test
    # samples' values leaves the model file as it was, byte for byte
    dataset = generate_synthetic(2, 20, [5, 40], noise_views={2}, seed=seed)
    test = split(dataset, 20, seed=5).test_indices
    moved = []
    for view in dataset.views:
        data = view.data.copy()
        data[:, test] = data[:, test] * 3.0 + 2.0
        moved.append(ViewMatrix(view.view_id, data))
    argv = ["train", "--manifest", "data/manifest.json", "--train-count", "20", "--seed", "5",
            "--d", "3", "--standardize", "--out", "model.json"]
    models = []
    for name, views in (("raw", dataset.views), ("moved", moved)):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        write_dataset(MultiviewDataset(tuple(views), dataset.labels), "data")
        assert main(argv) == 0
        models.append((tmp_path / name / "model.json").read_bytes())
    assert models[0] == models[1]


@pytest.mark.parametrize("feature, factor", [(0, 1e-3), (3, 7.5), (1, 1e4)])
def test_standardized_predictions_ignore_a_feature_scale(feature, factor):
    dataset = generate_synthetic(3, 12, [6, 8], noise_views={2}, seed=4)
    data = dataset.views[0].data.copy()
    data[feature] *= factor
    rescaled = MultiviewDataset((ViewMatrix(1, data), dataset.views[1]), dataset.labels)
    sp = split(dataset, 18, seed=3)
    cons = build_constraints(dataset.labels[sp.train_indices])
    hyper = Hyperparams(embed_dim=2, standardize=True)
    predictions = []
    for ds in (dataset, rescaled):
        model = train(ds, sp, cons, hyper)
        train_views = ds.columns(sp.train_indices)
        train_labels = ds.labels[sp.train_indices]
        predictions.append([knn_classify(model, train_views, train_labels, ds.sample(i), k=3) for i in sp.test_indices])
    assert predictions[0] == predictions[1]
    # run_benchmark fits the scale in each trial, and the Euclidean baseline scores the scaled features
    reports = [run_benchmark(ds, 18, 3, hyper, seed=2, include_baseline=True, k=3) for ds in (dataset, rescaled)]
    assert reports[0].per_trial_accuracy == reports[1].per_trial_accuracy
    assert reports[0].baseline_per_trial == reports[1].baseline_per_trial


@pytest.mark.parametrize("seed", range(6))
def test_weak_coupling_tends_to_the_uncoupled_fit(seed):
    ds = generate_synthetic(3, 10, [6, 8, 5], noise_views={3}, seed=seed)
    sp = split(ds, 15, seed=seed)
    cons = build_constraints(ds.labels[sp.train_indices])
    weak, uncoupled = (
        train(ds, sp, cons, Hyperparams(embed_dim=3, coupling_eta=eta)) for eta in (1e12, np.inf)
    )
    r = weak.hyper.weight_exponent
    # a view the weight step switches off keeps an arbitrary W_v, so each
    # metric is weighted by its a_v^r
    for a, b, ma, mb in zip(weak.view_weights, uncoupled.view_weights, _metrics(weak), _metrics(uncoupled)):
        assert np.linalg.norm(a**r * ma - b**r * mb) <= UNCOUPLED_BOUND


@pytest.mark.parametrize("eta", [1.0, np.inf])
@pytest.mark.parametrize("seed", range(3))
def test_training_ignores_a_unit_shared_by_all_features(seed, eta):
    ds = generate_synthetic(3, 10, [6, 8, 5], noise_views={3}, seed=seed)
    sp = split(ds, 15, seed=seed)
    cons = build_constraints(ds.labels[sp.train_indices])
    hyper = Hyperparams(embed_dim=3, coupling_eta=eta)
    model = train(ds, sp, cons, hyper)
    # at 2**+-260 K's entries lie near 2**+-520; every threshold of the fit
    # is relative, so none of them may see the unit
    for k in (-260, -20, -10, -4, 4, 10, 260):
        scaled = MultiviewDataset(tuple(ViewMatrix(v.view_id, v.data * 2.0**k) for v in ds.views), ds.labels)
        moved = train(scaled, sp, cons, hyper)
        for a, b in zip(_metrics(model), _metrics(moved)):
            assert np.linalg.norm(a - b) <= UNIT_BOUND, k
        np.testing.assert_allclose(moved.view_weights, model.view_weights, rtol=0.0, atol=UNIT_BOUND)
