"""Pairwise margin scatter matrices, cross-view correlation blocks, and the
coupling matrix that stacks them."""

from __future__ import annotations

import numpy as np

from .constraints import ConstraintSet
from .dataset import ViewMatrix


def _pair_scatter(data: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    # subtract in place: one pairs x D temporary fewer, the same differences
    diffs = data[:, pairs[:, 0]]
    diffs -= data[:, pairs[:, 1]]
    scatter = (diffs @ diffs.T) / pairs.shape[0]
    # scrub floating-point asymmetry; (a+b)/2 == (b+a)/2 so this is exactly symmetric
    return (scatter + scatter.T) / 2.0


def compute_scatter(view: ViewMatrix, constraints: ConstraintSet) -> tuple[np.ndarray, np.ndarray]:
    """Average pair-difference outer products over each constraint set.

    Returns ``(between, within)``: the count-normalized scatter of
    different-class and of same-class pair differences, both exactly
    symmetric and PSD up to rounding.  Constraint indices address the
    columns of ``view`` directly, so pass a view already restricted to the
    training samples the constraints were built from.
    """
    n = view.n_samples
    hi = max(int(constraints.similar.max()), int(constraints.dissimilar.max()))
    if hi >= n:
        raise ValueError(f"constraint index {hi} out of range for {n} samples")
    between = _pair_scatter(view.data, constraints.dissimilar)
    within = _pair_scatter(view.data, constraints.similar)
    return between, within


def compute_cross(view_a: ViewMatrix, view_b: ViewMatrix, train_indices) -> np.ndarray:
    """The D_a x D_b cross-view correlation block over the training columns only."""
    if view_a.view_id == view_b.view_id:
        raise ValueError("cross correlation requires two distinct views")
    idx = np.asarray(train_indices, dtype=int)
    return view_a.data[:, idx] @ view_b.data[:, idx].T


def _block_offsets(dims):
    return np.concatenate([[0], np.cumsum(dims)])


def coupling_matrix(views, constraints: ConstraintSet) -> np.ndarray:
    """The unweighted stacked matrix K of a fit, built once.

    Diagonal block v is the margin ``B_v - S_v`` of ``views[v]``; block
    (v, w), v < w, is the cross block ``C_vw`` and block (w, v) its exact
    transpose, so K is exactly symmetric.  Every view must hold the same
    training columns, the ones the constraints address.
    """
    dims = [view.n_features for view in views]
    offsets = _block_offsets(dims)
    K = np.empty((offsets[-1], offsets[-1]))
    for v, view in enumerate(views):
        between, within = compute_scatter(view, constraints)
        K[offsets[v]:offsets[v + 1], offsets[v]:offsets[v + 1]] = between - within
    columns = np.arange(views[0].n_samples)
    for v in range(len(views)):
        for w in range(v + 1, len(views)):
            cross = compute_cross(views[v], views[w], columns)
            K[offsets[v]:offsets[v + 1], offsets[w]:offsets[w + 1]] = cross
            K[offsets[w]:offsets[w + 1], offsets[v]:offsets[v + 1]] = cross.T
    return K
