"""Alternating optimization of the weighted margin + cross-correlation objective.

The objective over per-view orthonormal projections W_v and simplex weights
a_v (exponent r > 1) is

    G = sum_v a_v^r * tr(W_v.T (B_v - S_v) W_v)
      + sum_{v != w} (a_v^r + a_w^r) / (2 * eta) * tr(W_v.T C_vw W_w)

with B_v/S_v the between/within pair scatters and C_vw the cross-view
correlation blocks.  Stacking the W_v into one tall matrix turns G into a
single quadratic form tr(W.T Z W) over a symmetric block matrix Z, which the
W-step exploits: take the top eigenvectors of Z, restore per-view
orthonormality by polar projection, then run deterministic block-coordinate
ascent sweeps that never decrease the objective.  The weight step is a
closed-form simplex update driven by each view's marginal gain.
"""

from __future__ import annotations

import numpy as np

from .constraints import ConstraintSet
from .dataset import MultiviewDataset, SplitSpec, ViewMatrix
from .model import Hyperparams, MultiviewMetricModel
from .scatter import CrossCorrelation, ScatterPair, compute_cross, compute_scatter

GAIN_CLAMP_FLOOR = 1e-8


class TrainingError(RuntimeError):
    """Training aborted; carries the per-iteration trace gathered so far."""

    def __init__(self, message: str, trace=()):
        super().__init__(message)
        self.trace = tuple(trace)


def _cross_block(crosses, view_a: int, view_b: int) -> np.ndarray:
    for c in crosses:
        if (c.view_a, c.view_b) == (view_a, view_b):
            return c.matrix
        if (c.view_a, c.view_b) == (view_b, view_a):
            return c.matrix.T
    raise ValueError(f"missing cross correlation for views ({view_a}, {view_b})")


def assemble_block_matrix(scatters, crosses, weights, hyper: Hyperparams) -> np.ndarray:
    """Build the symmetric block matrix Z whose quadratic form equals the objective.

    Diagonal block v is ``a_v^r (B_v - S_v)``; off-diagonal block (v, w) is
    ``(a_v^r + a_w^r) / (2 eta) * C_vw``.  The result is symmetric bit-exactly.
    """
    weights = np.asarray(weights, dtype=float)
    m = len(scatters)
    if weights.shape != (m,):
        raise ValueError("one weight per view is required")
    if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > 1e-8:
        raise ValueError("weights must lie on the simplex")
    powered = weights**hyper.weight_exponent
    dims = [s.between.shape[0] for s in scatters]
    offsets = np.concatenate([[0], np.cumsum(dims)])
    total = offsets[-1]
    Z = np.zeros((total, total))
    for v, s in enumerate(scatters):
        lo, hi = offsets[v], offsets[v + 1]
        Z[lo:hi, lo:hi] = powered[v] * (s.between - s.within)
    for v in range(m):
        for w in range(v + 1, m):
            block = _cross_block(crosses, scatters[v].view_id, scatters[w].view_id)
            if block.shape != (dims[v], dims[w]):
                raise ValueError(
                    f"cross block for views ({scatters[v].view_id}, {scatters[w].view_id}) "
                    f"has shape {block.shape}, expected {(dims[v], dims[w])}"
                )
            coeff = (powered[v] + powered[w]) / (2.0 * hyper.coupling_eta)
            scaled = coeff * block
            Z[offsets[v]:offsets[v + 1], offsets[w]:offsets[w + 1]] = scaled
            Z[offsets[w]:offsets[w + 1], offsets[v]:offsets[v + 1]] = scaled.T
    return Z


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

    Basis vectors are tried in index order, so the completion is deterministic.
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
        else:
            raise np.linalg.LinAlgError("could not complete an orthonormal basis")
    return U


def _orthonormal_polar(block: np.ndarray):
    """Closest column-orthonormal matrix in Frobenius norm, with rank padding.

    Returns (W, padded); ``padded`` flags that the block had rank below its
    column count and deficient directions were completed deterministically.
    """
    U, s, Vh = np.linalg.svd(block, full_matrices=False)
    cutoff = 1e-10 * max(1.0, float(s[0]) if s.size else 0.0)
    deficient = s <= cutoff
    padded = bool(deficient.any())
    if padded:
        U = _fill_deficient_columns(U, deficient)
    return U @ Vh, padded


def stacked_objective(Z: np.ndarray, blocks) -> float:
    """tr(W.T Z W) for the row-stacked per-view blocks."""
    W = np.vstack(blocks)
    return float(np.sum((Z @ W) * W))


def _block_offsets(dims):
    return np.concatenate([[0], np.cumsum(dims)])


def _refine_blocks(Z, dims, blocks, max_sweeps=30, inner_iters=50):
    """Block-coordinate ascent on tr(W.T Z W) with per-view orthonormality.

    Each block update is a monotone majorize-maximize step: with the diagonal
    block shifted to be PSD, W <- polar(H W + B) never decreases the
    objective, so the sweep output is at least as good as its input.

    Returns the refined blocks, the number of sweeps run and the number of
    polar SVDs made.
    """
    offsets = _block_offsets(dims)
    m = len(dims)
    diag = [Z[offsets[v]:offsets[v + 1], offsets[v]:offsets[v + 1]] for v in range(m)]
    shifts = [max(0.0, -float(np.linalg.eigvalsh(a).min())) for a in diag]
    blocks = [b.copy() for b in blocks]
    obj = stacked_objective(Z, blocks)
    sweeps = svds = 0
    for sweeps in range(1, max_sweeps + 1):
        for v in range(m):
            lo, hi = offsets[v], offsets[v + 1]
            coupling = np.zeros_like(blocks[v])
            for w in range(m):
                if w != v:
                    coupling += Z[lo:hi, offsets[w]:offsets[w + 1]] @ blocks[w]
            shifted = diag[v] + shifts[v] * np.eye(dims[v])
            current = blocks[v]
            for _ in range(inner_iters):
                updated, _ = _orthonormal_polar(shifted @ current + coupling)
                svds += 1
                if np.linalg.norm(updated - current) <= 1e-12:
                    current = updated
                    break
                current = updated
            blocks[v] = current
        new_obj = stacked_objective(Z, blocks)
        if new_obj - obj <= 1e-12 * (1.0 + abs(obj)):
            obj = new_obj
            break
        obj = new_obj
    return blocks, sweeps, svds


def _update_projections(Z, dims, d):
    """W-step; returns the blocks, the padded views (1-based), the refine
    sweeps run and the polar SVDs made (one per view, then the sweeps')."""
    atol = 1e-10 * max(1.0, float(np.abs(Z).max()))
    if np.abs(Z - Z.T).max() > atol:
        raise ValueError("Z must be symmetric")
    if d > min(dims):
        raise ValueError(f"d={d} exceeds the smallest view dimension {min(dims)}")
    _, vecs = top_eigenpairs(Z, d)
    offsets = _block_offsets(dims)
    blocks, padded = [], []
    for v in range(len(dims)):
        w, was_padded = _orthonormal_polar(vecs[offsets[v]:offsets[v + 1], :])
        blocks.append(w)
        if was_padded:
            padded.append(v + 1)
    blocks, sweeps, svds = _refine_blocks(Z, dims, blocks)
    return blocks, padded, sweeps, len(dims) + svds


def update_projections(Z: np.ndarray, dims, d: int):
    """W-step: top-d eigenvectors of Z, split per view and re-orthonormalized.

    Each per-view slice of the eigenvector matrix is projected to its nearest
    column-orthonormal matrix (polar factor; rank-deficient slices are padded
    deterministically), then improved by monotone block-coordinate sweeps.
    """
    return _update_projections(Z, list(dims), d)[0]


def compute_view_gains(projections, scatters, crosses, hyper: Hyperparams) -> np.ndarray:
    """Per-view marginal gain: margin trace plus the view's coupling traces.

    g_v = tr(W_v.T (B_v - S_v) W_v) + (1/eta) * sum_{w != v} tr(W_v.T C_vw W_w),
    which is 1/r times the derivative of the objective with respect to the
    view's weight, evaluated at weight 1.
    """
    m = len(scatters)
    gains = np.zeros(m)
    for v in range(m):
        w_v = projections[v]
        margin = scatters[v].between - scatters[v].within
        gains[v] = np.sum((margin @ w_v) * w_v)
        for w in range(m):
            if w == v:
                continue
            block = _cross_block(crosses, scatters[v].view_id, scatters[w].view_id)
            gains[v] += np.sum((block @ projections[w]) * w_v) / hyper.coupling_eta
    return gains


def update_view_weights(
    gains,
    weight_exponent: float,
    clamp_floor: float = GAIN_CLAMP_FLOOR,
    inverse_gain: bool = False,
) -> np.ndarray:
    """Closed-form simplex weights from the view gains.

    Default direction rewards gain: a_v is proportional to
    ``g_v ** (1/(r-1))``, so higher-gain views get more weight, uniform gains
    give exactly uniform weights, and r -> inf flattens toward 1/m.  This is
    the interior stationary point of the weight subproblem
    ``min sum_v a_v^r / g_v`` on the simplex.

    ``inverse_gain=True`` applies the reciprocal form
    ``a_v ~ (1/g_v) ** (1/(r-1))`` (the stationary point of the raw weighted
    objective ``sum_v a_v^r g_v``), which instead favors low-gain views.

    Gains are clamped below at ``clamp_floor`` before the power, since the
    margin term can be negative.
    """
    if not weight_exponent > 1.0:
        raise ValueError("r must be > 1")
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 1 or gains.size == 0:
        raise ValueError("gains must be a nonempty vector")
    if not np.isfinite(gains).all():
        raise ValueError("gains are not finite")
    clamped = np.maximum(gains, clamp_floor)
    # normalize so the largest ratio is exactly 1: uniform gains then yield
    # exactly 1/m and the power never overflows for moderate exponents
    ratios = clamped / clamped.max() if not inverse_gain else clamped.min() / clamped
    exponent = 1.0 / (weight_exponent - 1.0)
    with np.errstate(over="ignore"):
        raw = ratios**exponent
    if not np.isfinite(raw).all():
        log_ratios = np.log(ratios) * exponent
        raw = np.exp(log_ratios - log_ratios.max())
    return raw / raw.sum()


def train(
    dataset: MultiviewDataset,
    split_spec: SplitSpec,
    constraints: ConstraintSet,
    hyper: Hyperparams | None = None,
) -> MultiviewMetricModel:
    """Alternate the W-step and the weight step until the projections settle.

    Weights start uniform.  Convergence is the relative Frobenius change of
    the per-view metrics ``W_v W_v^T`` between iterations, which a rotation
    of a view's columns leaves alone (inside a degenerate eigenspace the
    W-step may return any such rotation); the per-iteration trace
    records the objective, gains, updated weights, residual, any views whose
    eigenvector slice needed rank padding, and the refine sweeps and polar
    SVDs of the W-step.  The model's ``stop_reason`` says whether the
    residual fell below ``tol`` or ``max_iters`` ran out.

    A view with more than ``n_train + d`` features is solved in ``n_train + d``
    coordinates: an orthonormal basis ``Q_v`` (from a thin QR) of its first
    ``d`` feature axes and its training columns, mapped back once with
    ``W_v = Q_v V_v``.  Every block of Z is built from the training columns,
    so the objective sees ``W_v`` only through its part in their span, and
    the ``d`` axes leave room for any part outside it; those axes come first
    in ``Q_v`` because rank padding tries standard basis vectors in index
    order, so padding picks the same vectors as in raw coordinates.  Gains,
    objective, residual and weights are unchanged by this orthonormal change
    of basis, and the projections can differ from a solve in raw coordinates
    by a right rotation, which leaves ``W_v W_v^T`` as it is.  Narrower views
    keep their raw coordinates.
    """
    hyper = (hyper or Hyperparams()).resolved(dataset.view_dims)
    d = hyper.embed_dim
    r = hyper.weight_exponent
    train_idx = split_spec.train_indices
    n_train = len(train_idx)

    train_views, bases = [], []
    for view in dataset.views:
        tv = view.restrict(train_idx)
        basis = None
        if tv.n_features > n_train + d:
            axes = np.eye(tv.n_features, d)
            basis, reduced = np.linalg.qr(np.hstack([axes, tv.data]))
            tv = ViewMatrix(tv.view_id, reduced[:, d:])
        train_views.append(tv)
        bases.append(basis)
    dims = [tv.n_features for tv in train_views]
    scatters = [compute_scatter(tv, constraints) for tv in train_views]
    columns = np.arange(n_train)
    crosses = [
        compute_cross(train_views[a], train_views[b], columns)
        for a in range(dataset.m)
        for b in range(a + 1, dataset.m)
    ]

    weights = np.full(dataset.m, 1.0 / dataset.m)
    previous = None
    trace = []
    stop_reason = "max_iters"
    for iteration in range(1, hyper.max_iters + 1):
        Z = assemble_block_matrix(scatters, crosses, weights, hyper)
        blocks, padded, sweeps, svds = _update_projections(Z, dims, d)
        gains = compute_view_gains(blocks, scatters, crosses, hyper)
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
                "refine_sweeps": sweeps,
                "polar_svds": svds,
            }
        )
        if not np.isfinite(objective):
            raise TrainingError(f"non-finite objective at iteration {iteration}", trace)
        previous = blocks
        if residual is not None and residual < hyper.tol:
            stop_reason = "tol"
            break
    projections = tuple(b if q is None else q @ b for b, q in zip(previous, bases))
    return MultiviewMetricModel(projections, weights, hyper, tuple(trace), stop_reason)
