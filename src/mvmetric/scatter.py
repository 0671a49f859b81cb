"""Margin scatter matrices from class statistics, cross-view correlation
blocks, and the block matrix Z_1 that stacks them at unit view weights.

These are internal stages of ``train``: ``mvmetric`` does not export them,
and they do not check the arguments ``train`` has already checked."""

from __future__ import annotations

import numpy as np

from .constraints import ConstraintSet
from .dataset import ViewMatrix


def _gram(columns: np.ndarray) -> np.ndarray:
    product = columns @ columns.T
    # scrub floating-point asymmetry; (a+b)/2 == (b+a)/2 so this is exactly symmetric
    return (product + product.T) / 2.0


def compute_scatter(view: ViewMatrix, constraints: ConstraintSet) -> tuple[np.ndarray, np.ndarray]:
    """Average pair-difference outer products over each constraint set.

    Returns ``(between, within)``: the count-normalized scatter of
    different-class and of same-class pair differences, both exactly
    symmetric and PSD up to rounding.  No pair is formed.  With ``S_c`` the
    scatter of class c about its mean ``mu_c`` (``n_c`` members) and ``mu``
    the mean of all n samples,

        sum over same-class pairs      = sum_c n_c S_c
        sum over different-class pairs = sum_c (n - n_c) S_c
                                         + n sum_c n_c (mu_c - mu)(mu_c - mu)^T

    each a Gram product of positively weighted columns (the graph-Laplacian
    form of Locality Preserving Projections, He & Niyogi, 2003).  The
    columns are taken about the overall mean first, so a constant shift of
    the view cancels before the class sums and products.  The constraint
    labels address the columns of ``view`` in order, one label per column,
    so pass a view already restricted to the training samples the
    constraints were built from, as ``train`` does.
    """
    labels = constraints.labels
    n = view.n_samples
    sizes = np.bincount(labels)
    order = np.argsort(labels, kind="stable")
    centred = view.data - view.data.mean(axis=1, keepdims=True)
    means = np.add.reduceat(centred[:, order], np.cumsum(sizes) - sizes, axis=1) / sizes
    centred -= means[:, labels]
    spread = means - (means @ sizes / n)[:, None]
    within = _gram(centred * np.sqrt(sizes)[labels])
    between = _gram(centred * np.sqrt(n - sizes)[labels]) + n * _gram(spread * np.sqrt(sizes))
    return between / constraints.n_dissimilar, within / constraints.n_similar


def compute_cross(view_a: ViewMatrix, view_b: ViewMatrix) -> np.ndarray:
    """The D_a x D_b cross-view correlation block over all columns of two distinct views."""
    # both in the column-major layout of fancy-indexed sample columns, so the
    # bits of the block do not depend on how a caller laid out a view
    return np.asfortranarray(view_a.data) @ np.asfortranarray(view_b.data).T


def _block_offsets(dims):
    return np.concatenate([[0], np.cumsum(dims)])


def coupling_matrix(views, constraints: ConstraintSet, eta: float) -> np.ndarray:
    """Z_1, a fit's block matrix at unit view weights, built once per fit.

    Diagonal block v is the margin ``B_v - S_v`` of ``views[v]``; block
    (v, w), v < w, is the cross block ``C_vw / eta`` and block (w, v) its
    exact transpose, so Z_1 is exactly symmetric.  Every view must hold the
    same training columns, the ones the constraints address.
    """
    dims = [view.n_features for view in views]
    offsets = _block_offsets(dims)
    Z1 = np.empty((offsets[-1], offsets[-1]))
    for v, view in enumerate(views):
        between, within = compute_scatter(view, constraints)
        Z1[offsets[v]:offsets[v + 1], offsets[v]:offsets[v + 1]] = between - within
    for v in range(len(views)):
        for w in range(v + 1, len(views)):
            cross = compute_cross(views[v], views[w]) / eta
            Z1[offsets[v]:offsets[v + 1], offsets[w]:offsets[w + 1]] = cross
            Z1[offsets[w]:offsets[w + 1], offsets[v]:offsets[v + 1]] = cross.T
    return Z1
