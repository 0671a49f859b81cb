"""Distances induced by a learned model, plus empirical metric-axiom checks."""

from __future__ import annotations

import math

import numpy as np

from .model import MultiviewMetricModel, _integer, _real, _seed

TRIANGLE_SLACK = 1e-9
# triples scored per array pass in check_metric_axioms; bounds its memory
CHECK_BLOCK = 4096


def _view_dim(model: MultiviewMetricModel, view: int) -> int:
    view = _integer("view", view)
    if not 1 <= view <= model.num_views:
        raise ValueError(f"view index {view} out of range 1..{model.num_views}")
    return model.view_dims[view - 1]


def metric_matrix(model: MultiviewMetricModel, view: int) -> np.ndarray:
    """The induced metric matrix ``A = P.T @ P``, with ``P`` the identity as ``model.project`` maps it.

    ``A`` is ``W_v @ W_v.T`` for a model without feature scales and
    ``S W_v W_v.T S``, with ``S`` the diagonal of inverse scales, for one
    with them; ``d(x, y)^2 = (x - y).T @ A @ (x - y)`` on raw samples.
    Symmetric, PSD, rank <= d.
    """
    points = model.project(view, np.eye(_view_dim(model, view)))
    return points.T @ points


def _check_array(x, shape: tuple, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != shape:
        raise ValueError(f"{what}: expected shape {shape}, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{what}: non-finite entries")
    return x


def view_distance(model: MultiviewMetricModel, view: int, x, y) -> float:
    """Distance under one view's metric, computed in the projected space.

    Evaluates ``||P x - P y||``, with ``P`` the model's projection (feature
    scales, then ``W_v.T``), rather than the quadratic form, which cannot go
    negative under rounding; it is ``multiview_distance`` for one
    view of weight 1.
    """
    dim = _view_dim(model, view)
    x = _check_array(x, (dim,), f"view {view} x")
    y = _check_array(y, (dim,), f"view {view} y")
    return _pair_distance(model, [view], [1.0], [x], [y])


def multiview_distance(model: MultiviewMetricModel, xs, ys) -> float:
    """Weighted combination of per-view distances: sqrt(sum_v a_v^r * d_v^2).

    Each view's squared distance is scaled by its weight raised to the
    training exponent, as the objective scales that view.
    """
    if len(xs) != model.num_views or len(ys) != model.num_views:
        raise ValueError(f"expected {model.num_views} per-view vectors")
    checked = [
        (_check_array(x, (dim,), f"view {v} x"), _check_array(y, (dim,), f"view {v} y"))
        for v, (dim, x, y) in enumerate(zip(model.view_dims, xs, ys), 1)
    ]
    views = range(1, model.num_views + 1)
    return _pair_distance(model, views, model.powered_weights, *zip(*checked))


def _pair_distance(model: MultiviewMetricModel, views, weights, xs, ys) -> float:
    """Distance between two checked points, each view's pair projected in one product.

    The arithmetic of ``knn_classify`` and ``run_benchmark``: ``x`` is scored
    as a test point against ``y`` by ``_squared_distances``.
    """
    points = [model.project(v, np.column_stack([x, y])) for v, x, y in zip(views, xs, ys)]
    squared = _squared_distances([p[:, 1:] for p in points], [p[:, :1] for p in points], weights)
    return float(np.sqrt(squared[0, 0]))


def _squared_distances(train_points, test_points, weights) -> np.ndarray:
    """Weighted squared distances: one row per test point, one column per training point.

    ``train_points[v]`` and ``test_points[v]`` hold view v's points as
    columns (projected by ``W_v``, or raw for the Euclidean baseline).  Entry
    (i, j) is ``sum_v weights[v] * ||test_v[:, i] - train_v[:, j]||^2``: each
    view's squared differences are summed over its features in order, then
    the weighted views in order, starting from 0.0.  The one copy of the
    distance arithmetic; it works in three ``n_test x n_train`` arrays.
    """
    total = np.zeros((test_points[0].shape[1], train_points[0].shape[1]))
    view = np.empty_like(total)
    diff = np.empty_like(total)
    for u, train, test in zip(weights, train_points, test_points):
        view.fill(0.0)
        for train_row, test_row in zip(train, test):
            np.subtract.outer(test_row, train_row, out=diff)
            diff *= diff
            view += diff
        view *= u
        total += view
    return total


def _column_distances(a: np.ndarray, b: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Euclidean distance between matching columns of ``a`` and ``b`` (points as columns).

    The squared differences go into ``diff`` and are summed over its rows
    in order, in place into its first row, as ``_squared_distances`` sums
    a view's features.
    """
    np.subtract(a, b, out=diff)
    diff *= diff
    total = diff[0]
    for row in diff[1:]:
        total += row
    return np.sqrt(total)


def check_metric_axioms(
    model: MultiviewMetricModel,
    view: int,
    samples,
    trials: int = 1000,
    seed: int = 0,
    triangle_slack: float = TRIANGLE_SLACK,
) -> dict:
    """Empirically verify the metric axioms on random triples of samples.

    Symmetry and non-negativity are exact by construction (the distance is a
    norm of a projected difference); the triangle inequality is sampled with
    a small slack.  Distinguishability is reported, not asserted: when the
    projection rank is below the view dimension the induced distance is a
    pseudometric, with d(x, y) = 0 exactly when x - y lies in the null space
    of W_v.T.

    The samples are raw view columns, projected once by ``model.project``
    (feature scales included), so the distances checked are those kNN
    scores.  The triples are scored in blocks of ``CHECK_BLOCK``, so memory
    does not grow with ``trials``; they are the rows of one
    ``rng.integers(N, size=(trials, 3))`` draw, whatever the block size.
    ``view``, ``trials`` and ``seed`` (>= 0) must be integers and
    ``triangle_slack`` a finite number (none of them a bool); the report
    stores them as ``int`` and ``float``.
    """
    dim = _view_dim(model, view)
    trials = _integer("trials", trials)
    seed = _seed(seed)
    triangle_slack = _real("triangle_slack", triangle_slack)
    if not math.isfinite(triangle_slack):
        raise ValueError(f"triangle_slack must be finite, got {triangle_slack!r}")
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] != dim:
        raise ValueError(f"samples must have shape ({dim}, N)")
    if samples.shape[1] < 3:
        raise ValueError("need at least 3 sample vectors")
    if not np.isfinite(samples).all():
        raise ValueError("samples: non-finite entries")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    # one projected point per column, so a triple's points are three column gathers
    points = np.ascontiguousarray(model.project(view, samples))
    rng = np.random.default_rng(seed)
    symmetry_mismatches = 0
    negative_distances = 0
    max_triangle_violation = 0.0
    triangle_violations = 0
    for start in range(0, trials, CHECK_BLOCK):
        i, j, k = rng.integers(samples.shape[1], size=(min(CHECK_BLOCK, trials - start), 3)).T
        x, y, z = (np.take(points, idx, axis=1) for idx in (i, j, k))
        diff = np.empty_like(x)
        d_xy = _column_distances(x, y, diff)
        d_yx = _column_distances(y, x, diff)
        d_yz = _column_distances(y, z, diff)
        d_xz = _column_distances(x, z, diff)
        symmetry_mismatches += int(np.count_nonzero(d_xy != d_yx))
        negative_distances += int(np.count_nonzero(np.minimum(np.minimum(d_xy, d_yz), d_xz) < 0.0))
        violation = d_xz - (d_xy + d_yz)
        max_triangle_violation = max(max_triangle_violation, float(violation.max()))
        triangle_violations += int(np.count_nonzero(violation > triangle_slack))

    # the model rejects projections whose columns are not orthonormal, so
    # W_v has full column rank, and positive feature scales keep it so
    rank = model.embed_dim
    return {
        "view": int(view),
        "dim": dim,
        "embed_dim": model.embed_dim,
        "rank": rank,
        "trials": trials,
        "seed": seed,
        "symmetry_exact": symmetry_mismatches == 0,
        "symmetry_mismatches": symmetry_mismatches,
        "nonnegative": negative_distances == 0,
        "triangle_slack": triangle_slack,
        "triangle_violations": triangle_violations,
        "max_triangle_violation": max_triangle_violation,
        "distinguishable": rank == dim,
    }
