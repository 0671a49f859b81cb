"""Distances induced by a learned model, plus empirical metric-axiom checks."""

from __future__ import annotations

import numpy as np

from .model import MultiviewMetricModel

WEIGHT_MODES = ("exponent", "linear", "uniform")
TRIANGLE_SLACK = 1e-9
# triples scored per array pass in check_metric_axioms; bounds its memory
CHECK_BLOCK = 4096


def _projection(model: MultiviewMetricModel, view: int) -> np.ndarray:
    if not 1 <= view <= model.num_views:
        raise ValueError(f"view index {view} out of range 1..{model.num_views}")
    return model.projections[view - 1]


def distance_weights(model: MultiviewMetricModel, weight_mode: str = "exponent") -> np.ndarray:
    """Per-view weights applied to squared view distances when combining views."""
    if weight_mode == "exponent":
        return model.view_weights**model.hyper.weight_exponent
    if weight_mode == "linear":
        return np.array(model.view_weights, dtype=float)
    if weight_mode == "uniform":
        return np.ones(model.num_views)
    raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}, got {weight_mode!r}")


def metric_matrix(model: MultiviewMetricModel, view: int) -> np.ndarray:
    """The induced metric matrix ``W_v @ W_v.T``: symmetric, PSD, rank <= d."""
    w = _projection(model, view)
    return w @ w.T


def _check_vector(x, dim: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"{what}: expected shape ({dim},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{what}: non-finite entries")
    return x


def view_distance(model: MultiviewMetricModel, view: int, x, y) -> float:
    """Distance under one view's metric, computed in the projected space.

    Evaluates ``||W_v.T (x - y)||`` rather than the quadratic form, which is
    cheaper and cannot go negative under rounding.
    """
    w = _projection(model, view)
    x = _check_vector(x, w.shape[0], f"view {view} x")
    y = _check_vector(y, w.shape[0], f"view {view} y")
    z = w.T @ (x - y)
    return float(np.sqrt(np.dot(z, z)))


def multiview_distance(model: MultiviewMetricModel, xs, ys, weight_mode: str = "exponent") -> float:
    """Weighted combination of per-view distances: sqrt(sum_v u_v * d_v^2).

    The default weights are the view weights raised to the training exponent,
    matching how the objective scales each view; ``linear`` and ``uniform``
    modes are available for comparison.
    """
    if len(xs) != model.num_views or len(ys) != model.num_views:
        raise ValueError(f"expected {model.num_views} per-view vectors")
    weights = distance_weights(model, weight_mode)
    total = 0.0
    for v in range(model.num_views):
        w = model.projections[v]
        x = _check_vector(xs[v], w.shape[0], f"view {v + 1} x")
        y = _check_vector(ys[v], w.shape[0], f"view {v + 1} y")
        z = w.T @ (x - y)
        total += weights[v] * np.dot(z, z)
    return float(np.sqrt(total))


def mahalanobis_distance(matrix, x, y) -> float:
    """Diagnostic form sqrt((x-y).T A (x-y)) for an explicit PSD matrix A."""
    matrix = np.asarray(matrix, dtype=float)
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    value = float(diff @ matrix @ diff)
    return float(np.sqrt(max(value, 0.0)))


def _row_norms(diff: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


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

    The samples are projected once and the triples are scored in blocks of
    ``CHECK_BLOCK``, so memory does not grow with ``trials``.  The triples
    are the rows of one ``rng.integers(N, size=(trials, 3))`` draw, whatever
    the block size.
    """
    w = _projection(model, view)
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] != w.shape[0]:
        raise ValueError(f"samples must have shape ({w.shape[0]}, N)")
    if samples.shape[1] < 3:
        raise ValueError("need at least 3 sample vectors")
    if not np.isfinite(samples).all():
        raise ValueError("samples: non-finite entries")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    # one projected point per row, so a triple's points are three row gathers
    points = samples.T @ w
    rng = np.random.default_rng(seed)
    symmetry_mismatches = 0
    negative_distances = 0
    max_triangle_violation = 0.0
    triangle_violations = 0
    for start in range(0, trials, CHECK_BLOCK):
        i, j, k = rng.integers(samples.shape[1], size=(min(CHECK_BLOCK, trials - start), 3)).T
        x, y, z = points[i], points[j], points[k]
        d_xy = _row_norms(x - y)
        d_yx = _row_norms(y - x)
        d_yz = _row_norms(y - z)
        d_xz = _row_norms(x - z)
        symmetry_mismatches += int(np.count_nonzero(d_xy != d_yx))
        negative_distances += int(np.count_nonzero(np.minimum(np.minimum(d_xy, d_yz), d_xz) < 0.0))
        violation = d_xz - (d_xy + d_yz)
        max_triangle_violation = max(max_triangle_violation, float(violation.max()))
        triangle_violations += int(np.count_nonzero(violation > triangle_slack))

    rank = int(np.linalg.matrix_rank(w))
    return {
        "view": view,
        "dim": int(w.shape[0]),
        "embed_dim": int(w.shape[1]),
        "rank": rank,
        "trials": int(trials),
        "seed": int(seed),
        "symmetry_exact": symmetry_mismatches == 0,
        "symmetry_mismatches": symmetry_mismatches,
        "nonnegative": negative_distances == 0,
        "triangle_slack": triangle_slack,
        "triangle_violations": triangle_violations,
        "max_triangle_violation": max_triangle_violation,
        "distinguishable": rank == w.shape[0],
    }
