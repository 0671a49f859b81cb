"""Alternating optimization of the weighted margin + cross-correlation objective.

The objective over per-view orthonormal projections W_v and simplex weights
a_v (exponent r > 1) is

    G = sum_v a_v^r * tr(W_v.T (B_v - S_v) W_v)
      + sum_{v != w} (a_v^r + a_w^r) / (2 * eta) * tr(W_v.T C_vw W_w)

with B_v/S_v the mean outer product of the differences of all
different-class/same-class training pairs, which ``compute_scatter`` takes
exactly from class means and class-centred columns without forming a pair,
and C_vw the cross-view correlation blocks.  These stack into Z_1, the
symmetric block matrix at unit weights, built once per fit
(``coupling_matrix``): B_v - S_v on diagonal block v, C_vw / eta off it.
Each iteration scales block (v, w) of Z_1 by (b_v + b_w) / 2, b = a^r,
into Z (``assemble_block_matrix``).  The W_v are the row slices of one
tall W, the fit's only form of them from its start until ``train`` maps
each back through its view's basis, and G = tr(W.T Z W) = sum_v b_v g_v(W),
the gain g_v being view v's share of tr(W.T Z_1 W) (``compute_view_gains``).

A fit alternates two steps from uniform weights (``_alternate``, which also
states when it stops).  The W-step is a heuristic for maximising
tr(W.T Z W) under per-view orthonormality: block-coordinate sweeps
(``_refine_blocks``) from the fit's start (``_polar_start``).  The weight
step is exact: it maximises sum_v b_v g_v over b >= 0 with ||b||_p = 1
(``update_view_weights``), and the W-step reads only b's direction, its
thresholds being relative.  So the alternation is block-coordinate
ascent of sum_v b_v g_v(W), whose maximum over b is
Phi(W) = ||max(g(W), 0)||_q, q = (2r-1)/(r-1).  The W-step does not
always reach its maximum, so neither the logged objective nor Phi need
increase.

Only ``train`` and ``TrainingError`` are exported; the stages it runs take
arguments it has already checked, and do not check them again.
"""

from __future__ import annotations

import math

import numpy as np

from .constraints import ConstraintSet
from .dataset import MultiviewDataset, SplitSpec, ViewMatrix
from .model import Hyperparams, MultiviewMetricModel
from .scatter import _block_offsets, coupling_matrix

GAIN_CLAMP_FLOOR = 1e-8
REFINE_SWEEPS = 30  # block-coordinate sweeps per W-step
MM_STEPS = 50  # majorize-maximize steps per block and sweep at most
MM_STOP = 1e-12  # a block's MM steps end once a step, or the change still to come, is at most this
STOP_MARGIN = 0.1  # a fit also stops once its estimated remaining change is this * tol


class TrainingError(RuntimeError):
    """Training aborted: the fit's arithmetic overflowed or a decomposition failed."""


def assemble_block_matrix(Z1: np.ndarray, dims, powered) -> np.ndarray:
    """Z: block (v, w) of ``Z1`` times (b_v + b_w) / 2, b = ``powered``; exactly symmetric as Z1 is."""
    b = np.repeat(powered, dims)
    return (b[:, None] + b[None, :]) / 2.0 * Z1


def top_eigenpairs(Z: np.ndarray, d: int):
    """Largest-d eigenpairs of symmetric Z, eigenvalues descending.

    Each eigenvector keeps the sign ``numpy.linalg.eigh`` gives it: no
    metric W_v W_v^T, gain or weight reads a column's sign.
    """
    vals, vecs = np.linalg.eigh(Z)
    return vals[::-1][:d].copy(), vecs[:, ::-1][:, :d].copy()


def _orthonormal_polar(block: np.ndarray):
    """Closest column-orthonormal matrix in Frobenius norm, from the thin SVD.

    Returns (W, padded); ``padded`` flags that the block had rank below its
    column count (a singular value at most 1e-10 of the largest).  Then the
    left singular vectors of the kept singular values are completed by one
    QR of them beside the identity: the Q columns after the kept ones
    orthonormalise the standard basis vectors in index order against them,
    so the completion is deterministic.
    """
    U, s, Vh = np.linalg.svd(block, full_matrices=False)
    # singular values come in descending order, so the last is the smallest
    cutoff = 1e-10 * float(s[0])
    if float(s[-1]) > cutoff:
        return U @ Vh, False
    kept = int(np.count_nonzero(s > cutoff))
    U[:, kept:] = np.linalg.qr(np.hstack([U[:, :kept], np.eye(len(U))]))[0][:, kept:len(s)]
    return U @ Vh, True


def _remaining_change(change, previous):
    """The change still to come after ``change`` at the rate it shrank from
    ``previous``: with q = change / previous < 1, change * q / (1 - q), the
    a-posteriori bound of a contraction (Ortega & Rheinboldt, 1970).  With no
    previous change, a zero one, or q >= 1, there is no estimate: ``math.inf``."""
    if not previous:
        return math.inf
    q = change / previous
    return change * q / (1.0 - q) if q < 1.0 else math.inf


def _predict_move(moves):
    """A block's next move from its last three, newest first: a * m1 + b * m2,
    with (a, b) minimising ||m1 - a * m2 - b * m3||_F, the memory-2
    extrapolation of Anderson acceleration (Walker & Ni, 2011).  None when
    m2 and m3 are parallel to within g22 * g33 - g23^2 <= 1e-12 * g22 * g33
    (g_ij the moves' dot products), where the fit is not unique, and with
    fewer than three moves or a zero m2.  The products are taken relative to
    g22, so scaling every move by a power of two scales the prediction by
    exactly that power."""
    if len(moves) < 3:
        return None
    m1, m2, m3 = (m.ravel() for m in moves)
    g22 = float(m2.dot(m2))
    if g22 == 0.0:
        return None
    pairs = ((m1, m2), (m1, m3), (m2, m3), (m3, m3))
    g12, g13, g23, g33 = (float(x.dot(y)) / g22 for x, y in pairs)
    det = g33 - g23 * g23
    if det <= 1e-12 * g33:
        return None
    return (g12 * g33 - g13 * g23) / det * moves[0] + (g13 - g12 * g23) / det * moves[1]


def _refine_blocks(Z, dims, W):
    """Block-coordinate ascent on tr(W.T Z W), each view's row slice W_v of
    W orthonormal; W is copied, as every W-step of a fit starts from its one start.

    Each block update is a majorize-maximize solve: with the diagonal block
    shifted to be PSD, the step W <- polar(H W + B) from an orthonormal W
    never decreases the objective.  Every W-step runs ``REFINE_SWEEPS``
    sweeps, each of which steps every block at most ``MM_STEPS`` times and
    ends a block's steps after one of norm s when s <= ``MM_STOP``, or
    when, from the block's second step in the sweep on, the change still to
    come at the rate q = s / s_prev the steps shrink
    (``_remaining_change``) is at most ``MM_STOP``.

    A block's steps start at W plus the move ``_predict_move`` extrapolates
    from its last three moves (a move is the block after a solve minus the
    block before it).  The first step from such a start also brings it back
    onto the manifold, so it is no contraction step: it sets no rate q, and
    the estimate can end the solve from its third step on.  A solve that
    runs out of ``MM_STEPS`` clears the block's moves, so a block whose
    solves all run out steps from W itself.  A predicted start lies off the
    manifold, so monotonicity no longer proves a solve's output at least as
    good as its input; every step after the first is monotone, and over the
    benchmark's train fits (seeds 1, 3 and 4) no solve lowered its block's
    objective by more than 1.5e-15 relative (31,410 solves).  Returns the
    refined W and the number of polar steps made.
    """
    views = [slice(lo, lo + dim) for lo, dim in zip(_block_offsets(dims), dims)]
    diag = [Z[rows, rows] for rows in views]
    shifted = [a + max(0.0, -float(np.linalg.eigvalsh(a).min())) * np.eye(len(a)) for a in diag]
    W = W.copy()
    moves = [[] for _ in views]
    steps = 0
    for _ in range(REFINE_SWEEPS):
        for v, rows in enumerate(views):
            coupling = np.zeros_like(W[rows])
            for w, cols in enumerate(views):
                if w != v:
                    coupling += Z[rows, cols] @ W[cols]
            start, predicted = W[rows], _predict_move(moves[v])
            current, previous = start if predicted is None else start + predicted, None
            for k in range(MM_STEPS):
                updated, _ = _orthonormal_polar(shifted[v] @ current + coupling)
                steps += 1
                # the Frobenius norm of the step, as np.linalg.norm computes it
                step = (updated - current).ravel(order="K")
                current = updated
                norm = math.sqrt(step.dot(step))
                if norm <= MM_STOP or _remaining_change(norm, previous) <= MM_STOP:
                    moves[v] = [current - start, *moves[v][:2]]
                    break
                # a first step from a predicted start also brings it back onto
                # the manifold, so it is no contraction step and sets no rate
                previous = norm if k or predicted is None else None
            else:
                moves[v] = []  # a capped solve keeps no move, so the next ones start unpredicted
            W[rows] = current
    return W, steps


def _polar_start(Z, dims, d):
    """The fit's start: the top-d eigenvectors of Z, each view's row slice
    replaced in place by its polar factor, the nearest column-orthonormal
    matrix (``_orthonormal_polar``, which completes a rank-deficient slice
    from the standard basis).  The eigenvectors' signs are ``eigh``'s.  A
    coupled fit takes it once, from its first iteration's Z, and every
    W-step of the fit starts its sweeps there, so the fit makes one
    eigendecomposition of Z.  Returns the stacked (sum(dims) x d) W and the
    padded views (1-based).  Z must be exactly symmetric and
    d <= min(dims), as ``train`` ensures."""
    _, W = top_eigenpairs(Z, d)
    padded = []
    for v, (lo, dim) in enumerate(zip(_block_offsets(dims), dims)):
        W[lo:lo + dim], was_padded = _orthonormal_polar(W[lo:lo + dim])
        if was_padded:
            padded.append(v + 1)
    return W, padded


def compute_view_gains(W: np.ndarray, Z1: np.ndarray, dims) -> np.ndarray:
    """Per-view marginal gain: the view's share of tr(W.T Z_1 W), Z_1 the fit's block matrix at unit weights.

    With W the stacked (sum(dims) x d) projections, g_v sums view v's rows
    of W * (Z_1 W), which, Z_1 being exactly symmetric, is
    g_v = tr(W_v.T (B_v - S_v) W_v) + (1/eta) * sum_{w != v} tr(W_v.T C_vw W_w):
    1/r times the derivative of the objective with respect to the view's
    weight, evaluated at weight 1.
    """
    return np.add.reduceat(np.sum((Z1 @ W) * W, axis=1), _block_offsets(dims)[:-1])


def update_view_weights(gains, weight_exponent: float) -> np.ndarray:
    """The weight step: closed-form simplex weights from the view gains.

    Gains are first clamped below at ``GAIN_CLAMP_FLOOR`` times the largest
    ``|g_v|`` (all-zero gains: uniform weights), since the margin term can
    be negative.  Then a_v is proportional to ``g_v ** (1/(r-1))``, so
    higher-gain views get more weight, uniform gains give exactly uniform
    weights, and r -> inf flattens toward 1/m.  With b = a^r this sets b
    proportional to g^(r/(r-1)), which maximises sum_v b_v g_v over b >= 0
    with ||b||_p = 1, p = (2r-1)/r; on the simplex it is the interior
    stationary point of ``min sum_v a_v^r / g_v``.  ``weight_exponent``
    must be above 1, as ``Hyperparams`` ensures.
    """
    gains = np.asarray(gains, dtype=float)
    clamped = np.maximum(gains, GAIN_CLAMP_FLOOR * (np.abs(gains).max() or 1.0))
    # ratios in (0, 1] with the largest exactly 1 and a finite positive power:
    # no overflow, and uniform gains yield exactly 1/m
    raw = (clamped / clamped.max()) ** (1.0 / (weight_exponent - 1.0))
    return raw / raw.sum()


def _alternate(Z1: np.ndarray, dims, hyper: Hyperparams):
    """``train``'s alternation on the fit's block matrix Z_1 at unit weights;
    returns the stacked W, weights, trace and stop reason.  ``hyper`` must be
    resolved, and Z_1 built at its ``coupling_eta``.  Each iteration takes
    b = a^r once, for its Z and its objective, runs the W-step on Z from
    the fit's start (``_polar_start``, taken in the first iteration), then
    the weight step; every trace entry reports the start's padded views,
    and only the first counts the start's polar steps.  With
    ``coupling_eta`` inf, Z is block-diagonal, so the W-step's maximiser
    is each view's top eigenvectors of its diagonal block of Z_1, stacked,
    whatever the weights: the second iteration repeats the first, and
    ``tol`` ends the fit.

    Iteration k's residual r_k is the relative Frobenius change of the
    per-view metrics ``W_v W_v^T``, W_v view v's row slice of W, which no
    rotation of a view's columns moves.  The fit stops with ``"tol"``
    after iteration k when r_k is below ``tol``, or when the change still
    to come at the rate q = r_k / r_(k-1) the residuals shrink
    (``_remaining_change``) is at most ``STOP_MARGIN * tol``, else with
    ``"max_iters"`` after ``max_iters``.  The margin allows for a rate that
    still grows: in small fits q grew up to 5x between iterations.  Either
    clause reads only the trace's residuals, and neither changes an
    iterate, so a fit equals the same fit capped at its iteration count."""
    r, d = hyper.weight_exponent, hyper.embed_dim
    views = [slice(lo, lo + dim) for lo, dim in zip(_block_offsets(dims), dims)]
    weights = np.full(len(dims), 1.0 / len(dims))
    W, start, trace = None, None, []
    for iteration in range(1, hyper.max_iters + 1):
        previous = W
        powered = weights**r
        if hyper.coupling_eta == math.inf:
            W = np.vstack([top_eigenpairs(Z1[rows, rows], d)[1] for rows in views])
            padded, steps = [], 0
        else:
            Z = assemble_block_matrix(Z1, dims, powered)
            if start is None:
                start, padded = _polar_start(Z, dims, d)
            W, steps = _refine_blocks(Z, dims, start)
            if iteration == 1:
                steps += len(dims)  # the start's polar steps
        gains = compute_view_gains(W, Z1, dims)
        objective = float(np.dot(powered, gains))
        weights = update_view_weights(gains, r)
        residual = None
        if previous is not None:
            num = sum(np.linalg.norm(W[rows] @ W[rows].T - previous[rows] @ previous[rows].T) for rows in views)
            den = sum(np.linalg.norm(previous[rows] @ previous[rows].T) for rows in views)
            residual = float(num / den)
        trace.append(
            {
                "iteration": iteration,
                "objective": objective,
                "gains": gains.tolist(),
                "weights": weights.tolist(),
                "residual": residual,
                "padded_views": padded,
                "polar_steps": steps,
            }
        )
        if residual is not None:
            estimate = _remaining_change(residual, trace[-2]["residual"])
            if residual < hyper.tol or estimate <= STOP_MARGIN * hyper.tol:
                return W, weights, trace, "tol"
    return W, weights, trace, "max_iters"


def train(
    dataset: MultiviewDataset,
    split_spec: SplitSpec,
    constraints: ConstraintSet,
    hyper: Hyperparams | None = None,
) -> MultiviewMetricModel:
    """Alternate the W-step and the weight step until the projections settle.

    The module docstring states the objective and the two steps, and
    ``_alternate`` when a fit stops; the model's ``stop_reason`` says why,
    and its trace records every iteration.  ``coupling_eta`` inf disables
    the coupling; such a fit solves each view exactly, repeats that solve
    in its second iteration and stops there.  Every threshold of the fit
    is relative or reads only orthonormal blocks, so scaling all features
    by one factor, which scales Z_1 by its square, leaves the fit as it is.

    Every view is solved in ``min(D_v, n_train + d)`` coordinates: an
    orthonormal basis ``Q_v`` (from a thin QR) of its first ``d`` feature
    axes and its training columns, mapped back once with ``W_v = Q_v V_v``.
    Every block of Z is built from the training columns, so the objective
    sees ``W_v`` only through its part in their span, and the ``d`` axes
    leave room for any part outside it; those axes come first in ``Q_v``
    because rank padding completes a block by one QR from the standard
    basis vectors in index order, so padding picks the same vectors as in
    raw coordinates.  The one exception is a candidate inside the span
    before it, which the QR does not skip as a Gram-Schmidt search would:
    its column is some unit vector orthogonal to that span, which can differ
    between the two coordinates.  Gains, objective, residual and weights
    are unchanged by this orthonormal change of basis, and the projections
    can differ from a solve in raw coordinates by a right rotation, which
    leaves ``W_v W_v^T`` as it is.  ``constraints`` must hold the split's
    training labels in order, and every training index must be below the
    sample count, else a ``ValueError``.

    With ``hyper.standardize``, each view's training columns are first
    centred and divided by their per-feature standard deviation (1 where it
    is 0); only training columns set these statistics, and the model keeps
    the scales.  It keeps no centre, as every distance ignores a shift.

    An overflow, invalid operation or division by zero anywhere in the fit,
    or a decomposition that fails, raises ``TrainingError`` naming numpy's
    operation, e.g. "training failed: overflow encountered in matmul".
    """
    hyper = (hyper or Hyperparams()).resolved(dataset.view_dims)
    d = hyper.embed_dim
    train_idx = split_spec.train_indices
    if train_idx.max() >= dataset.n:
        raise ValueError(f"train_indices must be below the sample count {dataset.n}, got {train_idx.max()}")
    train_labels = np.unique(dataset.labels[train_idx], return_inverse=True)[1]
    if not np.array_equal(constraints.labels, train_labels):
        raise ValueError("constraints must be built from the labels of the split's training samples, in order")

    train_views, bases = [], []
    scales = [] if hyper.standardize else None
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for view in dataset.views:
                block = view.data[:, train_idx]
                if hyper.standardize:
                    scale = block.std(axis=1)
                    scale[scale == 0.0] = 1.0
                    block = (block - block.mean(axis=1, keepdims=True)) / scale[:, None]
                    scales.append(scale)
                basis, reduced = np.linalg.qr(np.hstack([np.eye(len(block), d), block]))
                train_views.append(ViewMatrix(view.view_id, reduced[:, d:]))
                bases.append(basis)
            dims = [tv.n_features for tv in train_views]
            Z1 = coupling_matrix(train_views, constraints, hyper.coupling_eta)
            W, weights, trace, stop_reason = _alternate(Z1, dims, hyper)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise TrainingError(f"training failed: {exc}") from exc
    projections = tuple(q @ W[lo:lo + dim] for q, lo, dim in zip(bases, _block_offsets(dims), dims))
    return MultiviewMetricModel(projections, weights, hyper, tuple(trace), stop_reason, scales)
