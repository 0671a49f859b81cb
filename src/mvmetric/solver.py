"""Alternating optimization of the weighted margin + cross-correlation objective.

The objective over per-view orthonormal projections W_v and simplex weights
a_v (exponent r > 1) is

    G = sum_v a_v^r * tr(W_v.T (B_v - S_v) W_v)
      + sum_{v != w} (a_v^r + a_w^r) / (2 * eta) * tr(W_v.T C_vw W_w)

with B_v/S_v the mean outer product of the differences of all
different-class/same-class training pairs, which ``compute_scatter`` takes
exactly from class means and class-centred columns without forming a pair,
and C_vw the cross-view correlation blocks.  A fit stacks these once into
the symmetric coupling matrix K (B_v - S_v on diagonal block v, C_vw off
it), and each iteration weights K blockwise into Z: a_v^r on diagonal
blocks, (a_v^r + a_w^r) / (2 * eta) off them.  With the W_v stacked into
one tall W, G = tr(W.T Z W) = sum_v a_v^r g_v(W), g_v being the view's gain.

The W-step is a heuristic for maximising tr(W.T Z W) under per-view
orthonormality: run deterministic block-coordinate ascent sweeps of
majorize-maximize (MM) solves from the fit's start, which the first
iteration takes once from the top eigenvectors of its Z, each view's slice
restored to orthonormality by polar projection; every later iteration's
sweeps start there again.  It does not always reach the maximum, so
neither the logged objective nor Phi below need increase.  Each sweep
steps a block until its step, or from the second step on the change still
to come at the rate the steps shrink, is at most ``MM_STOP`` (1e-12).  A
block's steps start at the block plus its next move as extrapolated from
its last three (``_predict_move``); the first step from such a start, which
also brings it back onto the manifold, sets no rate, and a solve that runs
out of ``MM_STEPS`` clears the block's moves.  Every polar step takes the
thin SVD.
With eta = inf, Z is block-diagonal and the W-step is exact instead: each
view's top eigenvectors of its margin block B_v - S_v (Ky Fan, per view).
The weight step is exact: with b = a^r it sets b proportional to
g^(r/(r-1)), which maximises sum_v b_v g_v over b >= 0 with ||b||_p = 1,
p = (2r-1)/r, for nonnegative gains (one below 1e-8 of the largest |g_v|
is clamped there first); Z depends only on b's direction.  So the
alternation is block-coordinate ascent of sum_v b_v g_v(W), whose maximum
over b is Phi(W) = ||max(g(W), 0)||_q, q = (2r-1)/(r-1).  Every threshold
(polar rank cutoff, gain clamp, the predictor's parallel test) is relative,
and the MM stop and the predictor read only differences of blocks, which no
unit scales, so scaling all features by one c, which scales K by c^2,
leaves the fit as it is.

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


def assemble_block_matrix(K: np.ndarray, dims, weights, hyper: Hyperparams) -> np.ndarray:
    """Weight the coupling matrix K into Z, whose quadratic form equals the objective.

    Z is ``coeff * K`` with ``coeff = a_v^r`` on diagonal block v and
    ``(a_v^r + a_w^r) / (2 eta)`` on block (v, w), v != w.  The result is
    symmetric bit-exactly.  ``weights`` must hold one nonnegative weight per
    view, and K be square of side ``sum(dims)``, as every caller ensures.
    """
    weights = np.asarray(weights, dtype=float)
    powered = weights**hyper.weight_exponent
    coeff = (powered[:, None] + powered[None, :]) / (2.0 * hyper.coupling_eta)
    np.fill_diagonal(coeff, powered)
    return np.repeat(np.repeat(coeff, dims, axis=0), dims, axis=1) * K


def top_eigenpairs(Z: np.ndarray, d: int):
    """Largest-d eigenpairs of symmetric Z, eigenvalues descending.

    Each eigenvector is sign-normalized so its largest-magnitude entry is
    positive (ties resolved by the lowest row index), making the
    decomposition deterministic up to degenerate eigenvalues.
    """
    vals, vecs = np.linalg.eigh(Z)
    vals = vals[::-1][:d].copy()
    vecs = vecs[:, ::-1][:, :d].copy()
    for j in range(vecs.shape[1]):
        lead = np.argmax(np.abs(vecs[:, j]))
        if vecs[lead, j] < 0:
            vecs[:, j] = -vecs[:, j]
    return vals, vecs


def _fill_deficient_columns(U: np.ndarray, deficient: np.ndarray) -> np.ndarray:
    """Replace flagged columns with Gram-Schmidt complements of standard basis vectors.

    Basis vectors are tried in index order, so the completion is deterministic;
    against k < D orthonormal columns the D residuals' squares sum to D - k >= 1.
    """
    U = U.copy()
    dim = U.shape[0]
    current = [U[:, j] for j in np.nonzero(~deficient)[0]]
    for col in np.nonzero(deficient)[0]:
        for b in range(dim):
            v = np.zeros(dim)
            v[b] = 1.0
            for _ in range(2):  # two passes keep the result orthogonal to rounding
                for u in current:
                    v = v - (u @ v) * u
            norm = np.linalg.norm(v)
            if norm > 1e-6:
                v /= norm
                U[:, col] = v
                current.append(v)
                break
    return U


def _orthonormal_polar(block: np.ndarray):
    """Closest column-orthonormal matrix in Frobenius norm, from the thin SVD.

    Returns (W, padded); ``padded`` flags that the block had rank below its
    column count (a singular value at most 1e-10 of the largest) and the
    deficient directions were completed deterministically.
    """
    U, s, Vh = np.linalg.svd(block, full_matrices=False)
    # singular values come in descending order, so the last is the smallest
    cutoff = 1e-10 * float(s[0])
    if float(s[-1]) <= cutoff:
        return _fill_deficient_columns(U, s <= cutoff) @ Vh, True
    return U @ Vh, False


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


def _refine_blocks(Z, dims, blocks):
    """Block-coordinate ascent on tr(W.T Z W) with per-view orthonormality.

    Each block update is a majorize-maximize solve: with the diagonal block
    shifted to be PSD, the step W <- polar(H W + B) from an orthonormal W
    never decreases the objective.  Each of the ``REFINE_SWEEPS`` sweeps
    steps every block at most ``MM_STEPS`` times, and ends its steps after
    one of norm s when s <= ``MM_STOP``, or when, from the block's second
    step in the sweep on, q = s / s_prev < 1 and s * q / (1 - q), the
    change still to come at rate q (``_remaining_change``), is at most
    ``MM_STOP``.

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
    refined blocks and the number of polar steps made.
    """
    offsets = _block_offsets(dims)
    m = len(dims)
    diag = [Z[offsets[v]:offsets[v + 1], offsets[v]:offsets[v + 1]] for v in range(m)]
    shifted = [a + max(0.0, -float(np.linalg.eigvalsh(a).min())) * np.eye(len(a)) for a in diag]
    blocks = [b.copy() for b in blocks]
    moves = [[] for _ in range(m)]
    steps = 0
    for _ in range(REFINE_SWEEPS):
        for v in range(m):
            lo, hi = offsets[v], offsets[v + 1]
            coupling = np.zeros_like(blocks[v])
            for w in range(m):
                if w != v:
                    coupling += Z[lo:hi, offsets[w]:offsets[w + 1]] @ blocks[w]
            start, predicted = blocks[v], _predict_move(moves[v])
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
            blocks[v] = current
    return blocks, steps


def _polar_start(Z, dims, d):
    """A W-step's start: each view's slice of the top-d eigenvectors of Z,
    projected to its nearest column-orthonormal matrix (rank-deficient slices
    are padded deterministically).  Returns the blocks and the padded views
    (1-based).  Z must be exactly symmetric and d <= min(dims), as ``train``
    ensures."""
    _, vecs = top_eigenpairs(Z, d)
    offsets = _block_offsets(dims)
    blocks, padded = [], []
    for v, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
        w, was_padded = _orthonormal_polar(vecs[lo:hi])
        blocks.append(w)
        if was_padded:
            padded.append(v + 1)
    return blocks, padded


def _update_projections(Z, dims, d):
    """The W-step from scratch: ``_polar_start``, then block-coordinate MM
    sweeps.  Returns the blocks, the padded views and the polar steps made
    (one SVD per view, then the sweeps')."""
    start, padded = _polar_start(Z, dims, d)
    blocks, steps = _refine_blocks(Z, dims, start)
    return blocks, padded, len(dims) + steps


def compute_view_gains(projections, K: np.ndarray, hyper: Hyperparams) -> np.ndarray:
    """Per-view marginal gain: the view's share of tr(W.T Z W) at unit weights.

    With Z_1 = ``assemble_block_matrix(K, dims, ones, hyper)`` and W the
    stacked projections, g_v sums view v's rows of W * (Z_1 W), which, K
    being exactly symmetric, is
    g_v = tr(W_v.T (B_v - S_v) W_v) + (1/eta) * sum_{w != v} tr(W_v.T C_vw W_w):
    1/r times the derivative of the objective with respect to the view's
    weight, evaluated at weight 1.
    """
    dims = [p.shape[0] for p in projections]
    W = np.vstack(projections)
    Z = assemble_block_matrix(K, dims, np.ones(len(dims)), hyper)
    return np.add.reduceat(np.sum((Z @ W) * W, axis=1), _block_offsets(dims)[:-1])


def update_view_weights(gains, weight_exponent: float) -> np.ndarray:
    """Closed-form simplex weights from the view gains.

    a_v is proportional to ``g_v ** (1/(r-1))``, so higher-gain views get
    more weight, uniform gains give exactly uniform weights, and r -> inf
    flattens toward 1/m.  This is the interior stationary point of the
    weight subproblem ``min sum_v a_v^r / g_v`` on the simplex.

    Gains are clamped below at ``GAIN_CLAMP_FLOOR`` times the largest
    ``|g_v|`` (all-zero gains: uniform weights) before the power, since the
    margin term can be negative.  ``weight_exponent`` must be above 1, as
    ``Hyperparams`` ensures.
    """
    gains = np.asarray(gains, dtype=float)
    clamped = np.maximum(gains, GAIN_CLAMP_FLOOR * (np.abs(gains).max() or 1.0))
    # ratios in (0, 1] with the largest exactly 1 and a finite positive power:
    # no overflow, and uniform gains yield exactly 1/m
    raw = (clamped / clamped.max()) ** (1.0 / (weight_exponent - 1.0))
    return raw / raw.sum()


def _alternate(K: np.ndarray, dims, hyper: Hyperparams):
    """``train``'s alternation on the coupling matrix K; returns the blocks,
    weights, trace and stop reason.  ``hyper`` must be resolved.  The first
    iteration takes the fit's start from its Z (``_polar_start``), and every
    iteration's sweeps start there, so a fit makes one eigendecomposition of
    Z; every trace entry reports the start's padded views, and only the
    first counts the start's polar steps.  With ``coupling_eta`` inf, Z is
    block-diagonal, so the W-step's maximiser is each view's top
    eigenvectors of its diagonal block of K, whatever the weights: the
    second iteration repeats the first, and ``tol`` ends the fit.

    The fit stops with ``"tol"`` after iteration k when its residual r_k is
    below ``tol``, or when, with q = r_k / r_(k-1) < 1, the remaining change
    of a contraction at rate q, r_k * q / (1 - q) (``_remaining_change``),
    is at most ``STOP_MARGIN * tol``.  The margin allows for a rate
    that still grows: in small fits q grew up to 5x between iterations.
    Either clause reads only the trace's residuals, and neither changes an
    iterate, so a fit equals the same fit capped at its iteration count."""
    r, d = hyper.weight_exponent, hyper.embed_dim
    offsets = _block_offsets(dims)
    weights = np.full(len(dims), 1.0 / len(dims))
    blocks, start, trace = None, None, []
    for iteration in range(1, hyper.max_iters + 1):
        previous = blocks
        if hyper.coupling_eta == math.inf:
            blocks = [top_eigenpairs(K[lo:hi, lo:hi], d)[1] for lo, hi in zip(offsets, offsets[1:])]
            padded, steps = [], 0
        else:
            Z = assemble_block_matrix(K, dims, weights, hyper)
            steps = 0
            if start is None:
                start, padded = _polar_start(Z, dims, d)
                steps = len(dims)
            blocks, sweep_steps = _refine_blocks(Z, dims, start)
            steps += sweep_steps
        gains = compute_view_gains(blocks, K, hyper)
        objective = float(np.dot(weights**r, gains))
        weights = update_view_weights(gains, r)
        residual = None
        if previous is not None:
            num = sum(np.linalg.norm(b @ b.T - p @ p.T) for b, p in zip(blocks, previous))
            den = sum(np.linalg.norm(p @ p.T) for p in previous)
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
                return blocks, weights, trace, "tol"
    return blocks, weights, trace, "max_iters"


def train(
    dataset: MultiviewDataset,
    split_spec: SplitSpec,
    constraints: ConstraintSet,
    hyper: Hyperparams | None = None,
) -> MultiviewMetricModel:
    """Alternate the W-step and the weight step until the projections settle.

    Weights start uniform.  Each iteration's ``residual`` is the relative
    Frobenius change of the per-view metrics ``W_v W_v^T`` (which no
    rotation of a view's columns moves).  The fit stops with ``"tol"`` when
    the residual falls below ``tol``, or when the last two residuals shrink
    by a ratio q < 1 and ``residual * q / (1 - q)``, the change still to come
    at that rate, is at most ``STOP_MARGIN * tol``; else it stops after
    ``max_iters``.  The model's ``stop_reason`` says which, and its trace
    records every iteration.
    ``coupling_eta`` inf disables the coupling; such a fit solves each view
    exactly, repeats that solve in its second iteration and stops there.

    Every view is solved in ``min(D_v, n_train + d)`` coordinates: an
    orthonormal basis ``Q_v`` (from a thin QR) of its first ``d`` feature
    axes and its training columns, mapped back once with ``W_v = Q_v V_v``.
    Every block of Z is built from the training columns, so the objective
    sees ``W_v`` only through its part in their span, and the ``d`` axes
    leave room for any part outside it; those axes come first in ``Q_v``
    because rank padding tries standard basis vectors in index order, so
    padding picks the same vectors as in raw coordinates.  Gains, objective,
    residual and weights are unchanged by this orthonormal change of basis,
    and the projections can differ from a solve in raw coordinates by a
    right rotation, which leaves ``W_v W_v^T`` as it is.  ``constraints``
    must hold the split's training labels in order, and every training
    index must be below the sample count, else a ``ValueError``.

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
            K = coupling_matrix(train_views, constraints)
            blocks, weights, trace, stop_reason = _alternate(K, dims, hyper)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise TrainingError(f"training failed: {exc}") from exc
    projections = tuple(q @ b for b, q in zip(blocks, bases))
    return MultiviewMetricModel(projections, weights, hyper, tuple(trace), stop_reason, scales)
