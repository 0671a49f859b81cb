"""Brute-force weighted multiview kNN, independent of ``mvmetric.eval``.

Used to check ``knn_classify`` without trusting it: project both sides with
``W_v``, sum the per-view squared distances weighted by ``a_v ** r``, order
the training samples with a stable sort (a distance tie goes to the lower
training index) and vote; a vote tie goes to the label of the nearest
neighbour among the tied labels.
"""

from __future__ import annotations

import numpy as np


def knn_predict(model, train_views, train_labels, test_views, k: int) -> np.ndarray:
    """Predicted labels for the test columns; views are D_v x samples arrays."""
    weights = np.asarray(model.view_weights, dtype=float) ** model.hyper.weight_exponent
    n_test = test_views[0].shape[1]
    squared = np.zeros((n_test, train_views[0].shape[1]))
    for w, u, train, test in zip(model.projections, weights, train_views, test_views):
        p_train = w.T @ train
        p_test = w.T @ test
        diff = p_test[:, :, None] - p_train[:, None, :]
        squared += u * np.einsum("dij,dij->ij", diff, diff)
    order = np.argsort(np.sqrt(squared), axis=1, kind="stable")[:, :k]
    predictions = []
    for row in order:
        nearest = [int(lab) for lab in train_labels[row]]
        counts = {lab: nearest.count(lab) for lab in nearest}
        best = max(counts.values())
        predictions.append(next(lab for lab in nearest if counts[lab] == best))
    return np.array(predictions)
