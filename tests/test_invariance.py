"""Property tests: a fit must not depend on things that should not matter.

Each property refits on a reordered copy of the data and compares the
per-view metrics ``W_v W_v^T`` (the projections themselves are defined only up
to a rotation of their columns) and the view weights.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvmetric import (
    Hyperparams,
    MultiviewDataset,
    SplitSpec,
    ViewMatrix,
    build_constraints,
    generate_synthetic,
    metric_matrix,
    split,
    train,
)

HYPER = Hyperparams(embed_dim=2)
N_TRAIN = 14
# Training stops once W_v W_v^T moves by less than tol between iterations, so
# two fits whose rounding differs may end up about tol apart; reordering the
# data changes only rounding, so a wider gap means the fit depends on order.
BOUND = HYPER.tol

# views of at most N_TRAIN + d features keep their raw coordinates (no span solve)
datasets = st.builds(
    lambda seed, dims, noise: generate_synthetic(2, 10, dims, {2} if noise else set(), seed),
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(3, 11), min_size=2, max_size=3),
    noise=st.booleans(),
)


def _fit(dataset, train_indices):
    test_indices = np.setdiff1d(np.arange(dataset.n), train_indices)
    cons = build_constraints(dataset.labels[np.asarray(train_indices)])
    model = train(dataset, SplitSpec(train_indices, test_indices, 0), cons, HYPER)
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
