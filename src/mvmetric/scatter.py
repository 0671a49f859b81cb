"""Pairwise margin scatter matrices and cross-view correlation blocks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet
from .dataset import ViewMatrix


@dataclass(frozen=True)
class ScatterPair:
    """Count-normalized scatter of pair differences for one view.

    ``between`` averages outer products over different-class pairs and
    ``within`` over same-class pairs; both are exactly symmetric and PSD up
    to rounding.
    """

    view_id: int
    between: np.ndarray
    within: np.ndarray


@dataclass(frozen=True)
class CrossCorrelation:
    """The D_a x D_b product of two views' training matrices."""

    view_a: int
    view_b: int
    matrix: np.ndarray


def _pair_scatter(data: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    # subtract in place: one pairs x D temporary fewer, the same differences
    diffs = data[:, pairs[:, 0]]
    diffs -= data[:, pairs[:, 1]]
    scatter = (diffs @ diffs.T) / pairs.shape[0]
    # scrub floating-point asymmetry; (a+b)/2 == (b+a)/2 so this is exactly symmetric
    return (scatter + scatter.T) / 2.0


def compute_scatter(view: ViewMatrix, constraints: ConstraintSet) -> ScatterPair:
    """Average pair-difference outer products over each constraint set.

    Constraint indices address the columns of ``view`` directly, so pass a
    view already restricted to the training samples the constraints were
    built from.
    """
    n = view.n_samples
    hi = max(int(constraints.similar.max()), int(constraints.dissimilar.max()))
    if hi >= n:
        raise ValueError(f"constraint index {hi} out of range for {n} samples")
    between = _pair_scatter(view.data, constraints.dissimilar)
    within = _pair_scatter(view.data, constraints.similar)
    return ScatterPair(view.view_id, between, within)


def compute_cross(view_a: ViewMatrix, view_b: ViewMatrix, train_indices) -> CrossCorrelation:
    """Cross-view correlation block over the training columns only.

    The product is always evaluated in the lower-view-id orientation and
    transposed for the other, so swapping the arguments returns exactly the
    transposed matrix.
    """
    if view_a.view_id == view_b.view_id:
        raise ValueError("cross correlation requires two distinct views")
    idx = np.asarray(train_indices, dtype=int)
    a = view_a.data[:, idx]
    b = view_b.data[:, idx]
    if view_a.view_id < view_b.view_id:
        matrix = a @ b.T
    else:
        matrix = (b @ a.T).T
    return CrossCorrelation(view_a.view_id, view_b.view_id, matrix)
