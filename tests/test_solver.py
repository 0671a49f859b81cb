import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmetric import (
    Hyperparams,
    MultiviewDataset,
    SplitSpec,
    ViewMatrix,
    build_constraints,
    generate_synthetic,
    split,
    train,
)
from mvmetric import solver
from mvmetric.scatter import compute_cross, compute_scatter, coupling_matrix
from mvmetric.solver import (
    _alternate,
    _block_offsets,
    assemble_block_matrix,
    compute_view_gains,
    top_eigenpairs,
    update_view_weights,
)


def random_instance(rng, dims, n_samples=8):
    """Random views' block matrix Z_1 at unit weights and, apart from Z_1, its parts.

    Returns ``coupling_matrix`` of the views as a function of eta, each
    view's margin ``B_v - S_v`` and a dict of the cross blocks ``C_vw``
    keyed by view positions (v, w), v < w.  No eta draws from ``rng``.
    """
    labels = rng.integers(0, 2, size=n_samples)
    while np.unique(labels).size < 2 or not np.any(np.bincount(labels) >= 2):
        labels = rng.integers(0, 2, size=n_samples)
    cs = build_constraints(labels)
    views = [ViewMatrix(v + 1, rng.standard_normal((dim, n_samples))) for v, dim in enumerate(dims)]
    margins = [between - within for between, within in (compute_scatter(view, cs) for view in views)]
    crosses = {
        (a, b): compute_cross(views[a], views[b])
        for a in range(len(dims))
        for b in range(a + 1, len(dims))
    }
    return lambda eta: coupling_matrix(views, cs, eta), margins, crosses


def cross_for(crosses, v, w):
    return crosses[(v, w)] if v < w else crosses[(w, v)].T


def objective_oracle(blocks, weights, margins, crosses, r, eta):
    """Term-by-term evaluation of the weighted margin + coupling objective."""
    m = len(blocks)
    powered = [weights[v] ** r for v in range(m)]
    total = 0.0
    for v in range(m):
        total += powered[v] * np.trace(blocks[v].T @ margins[v] @ blocks[v])
    for v in range(m):
        for w in range(m):
            if v == w:
                continue
            block = cross_for(crosses, v, w)
            total += (powered[v] + powered[w]) / (2.0 * eta) * np.trace(blocks[v].T @ block @ blocks[w])
    return total


def stacked_objective(Z, blocks):
    """tr(W.T Z W) for the stacked W or its per-view blocks."""
    W = np.vstack(blocks)
    return float(np.sum((Z @ W) * W))


def row_slices(W, dims):
    """The per-view blocks of the stacked W: its row slices, in view order."""
    return np.split(W, np.cumsum(dims)[:-1])


def first_w_step(Z, dims, d):
    """The stacked W of a fit's first W-step on Z, as ``_alternate`` runs it:
    the sweeps from the polar start."""
    return solver._refine_blocks(Z, dims, solver._polar_start(Z, dims, d)[0])[0]


def random_orthonormal_blocks(rng, dims, d):
    return [np.linalg.qr(rng.standard_normal((dim, d)))[0] for dim in dims]


# ---------------------------------------------------------------------------
# block matrix assembly


def test_assemble_infinite_eta_decouples_views():
    rng = np.random.default_rng(0)
    z1_at, _, _ = random_instance(rng, [3, 4])
    Z = assemble_block_matrix(z1_at(np.inf), [3, 4], np.array([0.5, 0.5]) ** 2.0)
    assert np.array_equal(Z[:3, 3:], np.zeros((3, 4)))
    assert np.array_equal(Z[3:, :3], np.zeros((4, 3)))


def test_assemble_degenerate_weights():
    rng = np.random.default_rng(1)
    z1_at, margins, crosses = random_instance(rng, [3, 4])
    Z = assemble_block_matrix(z1_at(3.0), [3, 4], np.array([1.0, 0.0]) ** 2.0)
    np.testing.assert_array_equal(Z[:3, :3], margins[0])
    np.testing.assert_array_equal(Z[3:, 3:], np.zeros((4, 4)))
    np.testing.assert_allclose(Z[:3, 3:], crosses[(0, 1)] / 6.0, rtol=1e-15)


def test_assemble_is_bit_exact_symmetric():
    rng = np.random.default_rng(2)
    z1_at, _, _ = random_instance(rng, [3, 4, 2])
    Z = assemble_block_matrix(z1_at(0.7), [3, 4, 2], np.array([0.2, 0.5, 0.3]) ** 2.0)
    assert np.array_equal(Z, Z.T)


def test_quadratic_form_matches_term_by_term_objective():
    rng = np.random.default_rng(3)
    z1_at, margins, crosses = random_instance(rng, [3, 4, 2])
    weights = np.array([0.2, 0.5, 0.3])
    Z = assemble_block_matrix(z1_at(0.9), [3, 4, 2], weights**2.5)
    for _ in range(20):
        blocks = random_orthonormal_blocks(rng, [3, 4, 2], 2)
        via_z = stacked_objective(Z, blocks)
        direct = objective_oracle(blocks, weights, margins, crosses, 2.5, 0.9)
        np.testing.assert_allclose(via_z, direct, rtol=1e-10)


def _blockwise_block_matrix(margins, crosses, powered, eta):
    """Z assembled block by block from the separate margins and cross blocks."""
    offsets = _block_offsets([len(margin) for margin in margins])
    block = [slice(lo, hi) for lo, hi in zip(offsets, offsets[1:])]
    Z = np.zeros((offsets[-1], offsets[-1]))
    for v, margin in enumerate(margins):
        Z[block[v], block[v]] = powered[v] * margin
    for (v, w), cross in crosses.items():
        scaled = (cross / eta) * ((powered[v] + powered[w]) / 2.0)
        Z[block[v], block[w]] = scaled
        Z[block[w], block[v]] = scaled.T
    return Z


def _blockwise_view_gains(projections, margins, crosses, eta):
    """The gains from the separate margins and cross blocks, one sum per term."""
    m = len(projections)
    gains = np.zeros(m)
    for v in range(m):
        w_v = projections[v]
        gains[v] = np.sum((margins[v] @ w_v) * w_v)
        for w in range(m):
            if w != v:
                gains[v] += np.sum((cross_for(crosses, v, w) @ projections[w]) * w_v) / eta
    return gains


def test_z_equals_the_blockwise_formula_bit_for_bit_and_the_gains_to_rounding():
    # the gains are each view's share of tr(W.T Z_1 W) at unit weights, so they
    # round differently from the blockwise sums: within 1e-13 of the largest |g_v|
    rng = np.random.default_rng(19)
    for i in range(24):
        dims = [int(rng.integers(2, 30)) for _ in range(int(rng.integers(2, 5)))]
        z1_at, margins, crosses = random_instance(rng, dims, n_samples=int(rng.integers(4, 40)))
        eta = (0.5, 1.0, 10.0, np.inf)[i % 4]
        Z1 = z1_at(eta)
        powered = rng.dirichlet(np.ones(len(dims))) ** (1.5, 2.0, 3.0)[i % 3]
        Z = assemble_block_matrix(Z1, dims, powered)
        assert np.array_equal(Z, _blockwise_block_matrix(margins, crosses, powered, eta))
        for blocks in (row_slices(first_w_step(Z, dims, 2), dims), random_orthonormal_blocks(rng, dims, 2)):
            gains = compute_view_gains(np.vstack(blocks), Z1, dims)
            gap = np.abs(gains - _blockwise_view_gains(blocks, margins, crosses, eta)).max()
            assert gap <= 1e-13 * np.abs(gains).max()


def test_a_coupled_fit_builds_z1_once_and_assembles_z_once_per_iteration(monkeypatch):
    ds = generate_synthetic(2, 10, [25, 6], seed=8)
    sp = split(ds, 12, seed=9)
    cs = build_constraints(ds.labels[sp.train_indices])
    built, assembled, read = [], [], []
    coupling, assemble, gains = solver.coupling_matrix, solver.assemble_block_matrix, solver.compute_view_gains

    def recorded_coupling(*args):
        built.append(coupling(*args))
        return built[-1]

    def recorded_assemble(Z1, *args):
        assembled.append(Z1)
        return assemble(Z1, *args)

    def recorded_gains(W, Z1, *args):
        read.append(Z1)
        return gains(W, Z1, *args)

    # the gains read the fit's own Z_1; only the W-step assembles a Z
    monkeypatch.setattr(solver, "coupling_matrix", recorded_coupling)
    monkeypatch.setattr(solver, "assemble_block_matrix", recorded_assemble)
    monkeypatch.setattr(solver, "compute_view_gains", recorded_gains)
    model = train(ds, sp, cs, Hyperparams(embed_dim=3))
    assert len(model.trace) >= 2
    assert len(built) == 1
    assert len(assembled) == len(read) == len(model.trace)
    assert all(Z1 is built[0] for Z1 in assembled + read)


# ---------------------------------------------------------------------------
# projection step


def test_diagonal_z_returns_leading_basis_vectors():
    Z = np.diag([5.0, 3.0, 1.0])
    W = first_w_step(Z, [3], 2)
    np.testing.assert_allclose(W, np.eye(3)[:, :2], atol=1e-12)


def test_identity_z_returns_orthonormal_blocks_with_full_trace():
    Z = np.eye(5)
    blocks = row_slices(first_w_step(Z, [3, 2], 2), [3, 2])
    for block, dim in zip(blocks, (3, 2)):
        assert block.shape == (dim, 2)
        np.testing.assert_allclose(block.T @ block, np.eye(2), atol=1e-10)
        # every orthonormal block scores exactly d on an identity diagonal block
        np.testing.assert_allclose(np.trace(block.T @ block), 2.0, atol=1e-10)


def test_projection_step_beats_random_search():
    rng = np.random.default_rng(4)
    base = rng.standard_normal((6, 6))
    Z = (base + base.T) / 2.0
    blocks = first_w_step(Z, [3, 3], 1)
    ours = stacked_objective(Z, blocks)
    best = -np.inf
    for _ in range(10_000):
        cand = random_orthonormal_blocks(rng, [3, 3], 1)
        best = max(best, stacked_objective(Z, cand))
    assert ours >= best


def test_top_eigenpairs_residual_and_order():
    rng = np.random.default_rng(5)
    base = rng.standard_normal((8, 8))
    Z = (base + base.T) / 2.0
    vals, vecs = top_eigenpairs(Z, 3)
    assert np.all(np.diff(vals) <= 1e-12)
    # the largest three, in descending order
    np.testing.assert_allclose(vals, np.linalg.eigvalsh(Z)[::-1][:3], rtol=0.0, atol=1e-12)
    residual = np.linalg.norm(Z @ vecs - vecs * vals)
    assert residual <= 1e-8 * np.linalg.norm(Z)


def test_first_w_step_pads_rank_deficient_blocks():
    # zero matrix: every eigenvector slice is rank deficient, yet the
    # returned blocks must still be orthonormal and deterministic
    Z = np.zeros((5, 5))
    W = first_w_step(Z, [3, 2], 2)
    assert np.array_equal(W, first_w_step(Z, [3, 2], 2))
    for a in row_slices(W, [3, 2]):
        np.testing.assert_allclose(a.T @ a, np.eye(2), atol=1e-10)


def _gram_schmidt_projector(kept, count):
    """The projector onto ``kept`` plus the orthonormalised residuals of
    e_0, ..., e_(count-1), or None when one of them lies within 1e-6 of the
    span before it."""
    basis = list(kept.T)
    for j in range(count):
        v = np.eye(len(kept))[j]
        for _ in range(2):  # two passes keep the residual orthogonal to rounding
            for u in basis:
                v = v - (u @ v) * u
        norm = np.linalg.norm(v)
        if norm <= 1e-6:
            return None
        basis.append(v / norm)
    stacked = np.column_stack(basis)
    return stacked @ stacked.T


def test_orthonormal_polar_completes_a_deficient_block_from_the_standard_basis():
    rng = np.random.default_rng(23)
    with_e0 = np.zeros((5, 3))
    with_e0[0, 0] = 2.0
    with_e0[1:, 1] = rng.standard_normal(4)
    q1, q2 = np.linalg.qr(rng.standard_normal((6, 3)))[0], np.linalg.qr(rng.standard_normal((3, 3)))[0]
    near_singular = (q1 * [1.0, 0.5, 1e-11]) @ q2.T
    blocks = [np.zeros((5, 3)), with_e0, near_singular]
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        cols = int(rng.integers(1, dim + 1))
        rank = int(rng.integers(0, cols))
        blocks.append(rng.standard_normal((dim, rank)) @ rng.standard_normal((rank, cols)))
    compared = []
    for block in blocks:
        W, padded = solver._orthonormal_polar(block)
        assert padded
        assert np.abs(W.T @ W - np.eye(block.shape[1])).max() <= 1e-12
        again, _ = solver._orthonormal_polar(block)
        assert np.array_equal(W, again)
        U, s, _ = np.linalg.svd(block, full_matrices=False)
        kept = int(np.count_nonzero(s > 1e-10 * s[0]))
        projector = _gram_schmidt_projector(U[:, :kept], s.size - kept)
        if projector is not None:
            assert np.abs(W @ W.T - projector).max() <= 1e-12
        compared.append(projector is not None)
    # e_0 lies inside the second block's kept span; every other block is compared
    assert compared[1] is False and compared.count(False) == 1


def test_refinement_never_hurts_the_polar_initializer():
    rng = np.random.default_rng(14)
    for _ in range(25):
        dims = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(2, 4)))]
        d = int(rng.integers(1, min(dims) + 1))
        base = rng.standard_normal((sum(dims), sum(dims)))
        Z = (base + base.T) / 2.0
        start = solver._polar_start(Z, dims, d)[0]
        refined = solver._refine_blocks(Z, dims, start)[0]
        assert stacked_objective(Z, refined) >= stacked_objective(Z, start) - 1e-10


def test_orthonormality_invariant_on_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(10):
        dims = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(1, 4)))]
        d = int(rng.integers(1, min(dims) + 1))
        base = rng.standard_normal((sum(dims), sum(dims)))
        Z = (base + base.T) / 2.0
        for block in row_slices(first_w_step(Z, dims, d), dims):
            assert np.linalg.norm(block.T @ block - np.eye(d)) <= 1e-8


def _reference_orthonormal_polar(block):
    """The polar projection, its rank cutoff relative, kept to pin the
    solver's bits.  A block of rank k below its column count keeps its
    first k left singular vectors and takes the others from one QR of them
    beside the identity: its Q columns after the first k."""
    U, s, Vh = np.linalg.svd(block, full_matrices=False)
    cutoff = 1e-10 * (float(s[0]) if s.size else 0.0)
    kept = int(np.count_nonzero(s > cutoff))
    padded = kept < s.size
    if padded:
        q = np.linalg.qr(np.hstack([U[:, :kept], np.eye(U.shape[0])]))[0]
        U = np.hstack([U[:, :kept], q[:, kept:s.size]])
    return U @ Vh, padded


def _reference_refine_blocks(Z, dims, blocks, estimate=True, predict=True):
    """The refine sweeps as first written, without their objective stop, kept
    to pin the solver's bits.  A block's steps end at a step of norm at most
    1e-12 or, with ``estimate``, from its second step on when
    q = step / previous < 1 and step * q / (1 - q) is at most 1e-12;
    ``estimate=False`` is the step-only loop that came before.  With
    ``predict``, a block with three moves m1, m2, m3 (newest first) starts
    its steps at W + a * m1 + b * m2, (a, b) the least-squares fit of m1 by
    a * m2 + b * m3, unless m2 and m3 are parallel; the first step from such
    a start sets no rate, and a block whose steps run out keeps no move."""
    offsets = _block_offsets(dims)
    m = len(dims)
    diag = [Z[offsets[v]:offsets[v + 1], offsets[v]:offsets[v + 1]] for v in range(m)]
    shifts = [max(0.0, -float(np.linalg.eigvalsh(a).min())) for a in diag]
    blocks = [b.copy() for b in blocks]
    moves = [[] for _ in range(m)]
    svds = 0
    for _ in range(30):
        for v in range(m):
            lo, hi = offsets[v], offsets[v + 1]
            coupling = np.zeros_like(blocks[v])
            for w in range(m):
                if w != v:
                    coupling += Z[lo:hi, offsets[w]:offsets[w + 1]] @ blocks[w]
            shifted = diag[v] + shifts[v] * np.eye(dims[v])
            current, predicted = blocks[v], False
            if predict and len(moves[v]) == 3:
                # the normal equations of the fit, divided through by g22
                m1, m2, m3 = moves[v]
                g22 = float(np.vdot(m2, m2))
                if g22 > 0.0:
                    pairs = ((m1, m2), (m1, m3), (m2, m3), (m3, m3))
                    g12, g13, g23, g33 = (float(np.vdot(x, y)) / g22 for x, y in pairs)
                    det = g33 - g23 * g23
                    if det > 1e-12 * g33:
                        a, b = (g12 * g33 - g13 * g23) / det, (g13 - g12 * g23) / det
                        current, predicted = blocks[v] + (a * m1 + b * m2), True
            previous, converged = None, False
            for i in range(50):
                updated, _ = _reference_orthonormal_polar(shifted @ current + coupling)
                svds += 1
                step = np.linalg.norm(updated - current)
                current = updated
                if step <= 1e-12:
                    converged = True
                if estimate and previous is not None:
                    q = step / previous
                    if q < 1.0 and step * q / (1.0 - q) <= 1e-12:
                        converged = True
                if converged:
                    break
                # the first step from a predicted start sets no rate
                previous = None if predicted and i == 0 else step
            moves[v] = [current - blocks[v]] + moves[v][:2] if converged else []
            blocks[v] = current
    return blocks, svds


def _count_svds(monkeypatch):
    """A list that gains one entry per ``numpy.linalg.svd`` call from now on."""
    calls, svd = [], np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _refine_cases():
    """(Z, dims, d, pads): ``pads`` marks a case some step of which pads a column."""
    rng = np.random.default_rng(17)
    for _ in range(25):
        dims = [int(rng.integers(2, 9)) for _ in range(int(rng.integers(2, 5)))]
        d = int(rng.integers(1, min(dims) + 1))
        base = rng.standard_normal((sum(dims), sum(dims)))
        yield (base + base.T) / 2.0, dims, d, False
    # far below unit scale: the rank cutoff scales with Z
    yield (base + base.T) * 2.0**-40, dims, d, False
    yield np.zeros((7, 7)), [3, 4], 2, True
    # view 1 is uncoupled and its margin is -u u^T: the shifted block has rank
    # 2, so with d = 3 every step of that view pads a column
    u = rng.standard_normal(3)
    base = rng.standard_normal((4, 4))
    Z = np.zeros((7, 7))
    Z[:3, :3] = -np.outer(u, u)
    Z[3:, 3:] = (base + base.T) / 2.0
    yield Z, [3, 4], 3, True
    # diagonal blocks with eigenvalues 1e3 ... 1 and weak coupling: every
    # solve runs out of MM_STEPS
    Z = np.zeros((11, 11))
    for lo, hi in ((0, 5), (5, 11)):
        q = np.linalg.qr(rng.standard_normal((hi - lo, hi - lo)))[0]
        Z[lo:hi, lo:hi] = (q * np.logspace(3, 0, hi - lo)) @ q.T
    Z[:5, 5:] = 0.1 * rng.standard_normal((5, 6))
    Z[5:, :5] = Z[:5, 5:].T
    yield Z, [5, 6], 3, False


def _refine_starts(Z, dims, d):
    """Each view's polar start, as ``_polar_start`` makes it, one block per view."""
    _, vecs = top_eigenpairs(Z, d)
    offsets = _block_offsets(dims)
    return [_reference_orthonormal_polar(vecs[lo:hi])[0] for lo, hi in zip(offsets, offsets[1:])]


def _unpredicted(monkeypatch):
    monkeypatch.setattr(solver, "_predict_move", lambda moves: None)


def test_refine_sweeps_are_bit_identical_to_the_reference_loop(monkeypatch):
    # both loops start every solve at the block itself; the next test pins
    # the predicted starts
    _unpredicted(monkeypatch)
    paddings = []
    polar = solver._orthonormal_polar

    def counted(block):
        W, padded = polar(block)
        paddings.append(padded)
        return W, padded

    monkeypatch.setattr(solver, "_orthonormal_polar", counted)
    svds = _count_svds(monkeypatch)
    for Z, dims, d, pads in _refine_cases():
        start = _refine_starts(Z, dims, d)
        paddings.clear()
        svds.clear()
        W, steps = solver._refine_blocks(Z, dims, np.vstack(start))
        assert any(paddings) == pads
        # every polar step is one thin SVD
        assert len(svds) == steps
        ref_blocks, ref_steps = _reference_refine_blocks(Z, dims, start, predict=False)
        assert steps == ref_steps
        assert np.array_equal(W, np.vstack(ref_blocks))


def test_predicted_refine_sweeps_are_bit_identical_to_the_reference_loop():
    for Z, dims, d, _ in _refine_cases():
        start = _refine_starts(Z, dims, d)
        W, steps = solver._refine_blocks(Z, dims, np.vstack(start))
        ref_blocks, ref_steps = _reference_refine_blocks(Z, dims, start)
        assert steps == ref_steps
        assert np.array_equal(W, np.vstack(ref_blocks))


def test_the_estimate_stop_stays_within_1e_10_of_the_step_only_loop(monkeypatch):
    # ending a block's steps once the change still to come is within the step
    # stop saves steps, never adds one, and moves no metric W_v W_v^T by more
    # than 1e-10; both loops start every solve at the block itself
    _unpredicted(monkeypatch)
    saved = 0
    for Z, dims, d, _ in _refine_cases():
        start = _refine_starts(Z, dims, d)
        W, steps = solver._refine_blocks(Z, dims, np.vstack(start))
        ref_blocks, ref_steps = _reference_refine_blocks(Z, dims, start, estimate=False, predict=False)
        assert steps <= ref_steps
        saved += ref_steps - steps
        for b, ref in zip(row_slices(W, dims), ref_blocks):
            assert np.linalg.norm(b @ b.T - ref @ ref.T) <= 1e-10
    assert saved > 0


def test_predicted_starts_save_steps_and_keep_the_endpoints(monkeypatch):
    # a few solves take more steps from a predicted start (the padding case
    # 80 -> 101), but the cases take at least 15% fewer in all; each metric
    # W_v W_v^T stays within 1e-10 and the objective within rounding, and the
    # last case, each of whose solves runs out of steps, is bit-identical
    cases = list(_refine_cases())
    starts = [np.vstack(_refine_starts(Z, dims, d)) for Z, dims, d, _ in cases]
    predicted = [solver._refine_blocks(Z, dims, start) for (Z, dims, *_), start in zip(cases, starts)]
    _unpredicted(monkeypatch)
    plain = [solver._refine_blocks(Z, dims, start) for (Z, dims, *_), start in zip(cases, starts)]
    for (Z, dims, *_), (W, _), (ref_W, _) in zip(cases, predicted, plain):
        for b, ref in zip(row_slices(W, dims), row_slices(ref_W, dims)):
            assert np.linalg.norm(b @ b.T - ref @ ref.T) <= 1e-10
        objective, ref_objective = stacked_objective(Z, W), stacked_objective(Z, ref_W)
        assert objective >= ref_objective - 1e-12 * abs(ref_objective)
    assert sum(steps for _, steps in predicted) <= 0.85 * sum(steps for _, steps in plain)
    (W, steps), (ref_W, ref_steps) = predicted[-1], plain[-1]
    assert steps == ref_steps == solver.REFINE_SWEEPS * solver.MM_STEPS * len(cases[-1][1])
    assert np.array_equal(W, ref_W)


def test_the_first_step_from_a_predicted_start_sets_no_rate(monkeypatch):
    # one view, no coupling: the first step from a start predicted at 2 W
    # lands where the step from W would, so its norm, about |W|, is mostly
    # the way back onto the manifold.  Taken as the rate's base, it would make
    # the second step's q 2.5e-7 and end the solve 5e-7 from the top
    # eigenvectors, although the steps shrink at 0.5
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    Z = Q @ np.diag([1.0, 1.0, 0.5, 0.1, 0.1, 0.1]) @ Q.T
    W = np.linalg.qr(Q[:, :2] + 1e-6 * Q[:, 2:3])[0]
    monkeypatch.setattr(solver, "REFINE_SWEEPS", 1)
    monkeypatch.setattr(solver, "_predict_move", lambda moves: W)
    block, steps = solver._refine_blocks(Z, [6], W)
    assert steps > 2
    assert np.linalg.norm(block @ block.T - Q[:, :2] @ Q[:, :2].T) <= 1e-10


@pytest.mark.parametrize("k", [-260, 260])
def test_predict_move_is_the_least_squares_extrapolation(k):
    rng = np.random.default_rng(33)
    M, N = rng.standard_normal((2, 6, 3))
    # fewer than three moves, a zero m2, or a parallel m2 and m3, whatever
    # m1 is: no prediction
    assert solver._predict_move([]) is None
    assert solver._predict_move([M, N]) is None
    assert solver._predict_move([M, np.zeros_like(M), N]) is None
    assert solver._predict_move([N, M, -0.5 * M]) is None
    # so a geometric sequence m_k = rho^k M, whose moves are all parallel, is not predicted
    assert solver._predict_move([0.9**3 * M, 0.9**2 * M, 0.9 * M]) is None
    # one with a complex ratio, m_k = Re(rho^k (M + i N)), is predicted: it
    # satisfies m_(k+1) = 2 Re(rho) m_k - |rho|^2 m_(k-1)
    rho = 0.9 * np.exp(0.3j)
    sequence = [np.real(rho**j * (M + 1j * N)) for j in (4, 3, 2, 1)]
    prediction = solver._predict_move(sequence[1:])
    assert np.linalg.norm(prediction - sequence[0]) <= 1e-14 * np.linalg.norm(sequence[0])
    # m1 = a * m2 + b * m3 exactly is predicted as a * m1 + b * m2
    m2, m3 = M, N
    m1 = 0.75 * m2 - 0.125 * m3
    expected = 0.75 * m1 - 0.125 * m2
    prediction = solver._predict_move([m1, m2, m3])
    assert np.linalg.norm(prediction - expected) <= 1e-15 * np.linalg.norm(expected)
    # a unit shared by every move scales the prediction by exactly that unit
    moves = list(rng.standard_normal((3, 6, 3)))
    scaled = solver._predict_move([m * 2.0**k for m in moves])
    assert np.array_equal(scaled, solver._predict_move(moves) * 2.0**k)


def test_a_shifted_fit_saves_a_fifth_of_its_polar_steps(monkeypatch):
    # shaped like the score-shifted benchmark workload: uncentred features
    ds = generate_synthetic(4, 30, [20, 50, 10], noise_views={2}, seed=1)
    ds = MultiviewDataset(tuple(ViewMatrix(v.view_id, v.data + 5.0) for v in ds.views), ds.labels)
    sp = split(ds, 60, seed=1)
    cs = build_constraints(ds.labels[sp.train_indices])
    hyper = Hyperparams(embed_dim=5)
    model = train(ds, sp, cs, hyper)
    _unpredicted(monkeypatch)
    reference = train(ds, sp, cs, hyper)
    assert len(model.trace) == len(reference.trace)
    assert model.stop_reason == reference.stop_reason
    steps, ref_steps = (sum(e["polar_steps"] for e in m.trace) for m in (model, reference))
    assert steps <= 0.8 * ref_steps
    for w, ref in zip(model.projections, reference.projections):
        assert np.linalg.norm(w @ w.T - ref @ ref.T) <= 1e-10


def test_remaining_change_is_the_bound_of_a_contraction():
    # no previous change, or a zero one: no estimate
    assert solver._remaining_change(0.5, None) == math.inf
    assert solver._remaining_change(0.5, 0.0) == math.inf
    # q >= 1: no estimate, so a loop that does not contract runs on
    assert solver._remaining_change(0.5, 0.5) == math.inf
    assert solver._remaining_change(2.0, 0.5) == math.inf
    # q < 1: r * q / (1 - q)
    assert solver._remaining_change(0.25, 1.0) == 0.25 * 0.25 / 0.75
    assert solver._remaining_change(1e-12, 1e-11) == 1e-12 * 0.1 / 0.9
    assert solver._remaining_change(0.0, 1.0) == 0.0


def test_a_block_that_does_not_contract_runs_to_mm_steps(monkeypatch):
    # with Z = I a step maps the block to the negated block: every step has
    # norm 1, q = 1 gives no estimate, and each sweep takes MM_STEPS steps
    def negated(block):
        return -block, False

    monkeypatch.setattr(solver, "_orthonormal_polar", negated)
    _, steps = solver._refine_blocks(np.eye(1), [1], np.full((1, 1), 0.5))
    assert steps == solver.REFINE_SWEEPS * solver.MM_STEPS


# ---------------------------------------------------------------------------
# gains


def test_gains_decoupled_equal_top_eigenvalue_sum():
    rng = np.random.default_rng(7)
    z1_at, margins, _ = random_instance(rng, [4, 3])
    Z1 = z1_at(np.inf)
    Z = assemble_block_matrix(Z1, [4, 3], np.array([0.5, 0.5]) ** 2.0)
    gains = compute_view_gains(first_w_step(Z, [4, 3], 2), Z1, [4, 3])
    for v, margin in enumerate(margins):
        expected = np.sort(np.linalg.eigvalsh(margin))[::-1][:2].sum()
        np.testing.assert_allclose(gains[v], expected, rtol=1e-8)


def test_gains_symmetric_for_identical_views():
    rng = np.random.default_rng(8)
    data = rng.standard_normal((3, 8))
    labels = np.array([0, 0, 1, 1, 0, 1, 0, 1])
    cs = build_constraints(labels)
    Z1 = coupling_matrix([ViewMatrix(1, data), ViewMatrix(2, data)], cs, 1.0)
    Z = assemble_block_matrix(Z1, [3, 3], np.array([0.5, 0.5]) ** 2.0)
    gains = compute_view_gains(first_w_step(Z, [3, 3], 2), Z1, [3, 3])
    np.testing.assert_allclose(gains[0], gains[1], atol=1e-9)


def test_gains_match_finite_difference_gradient():
    rng = np.random.default_rng(9)
    for _ in range(5):
        dims = [3, 4]
        z1_at, margins, crosses = random_instance(rng, dims)
        blocks = random_orthonormal_blocks(rng, dims, 2)
        gains = compute_view_gains(np.vstack(blocks), z1_at(1.3), dims)
        h = 1e-5
        r = 2.5
        for v in range(2):
            for point, factor in ((np.ones(2), r), (np.full(2, 0.5), r * 0.5 ** (r - 1))):
                up, down = point.copy(), point.copy()
                up[v] += h
                down[v] -= h
                fd = (
                    objective_oracle(blocks, up, margins, crosses, r, 1.3)
                    - objective_oracle(blocks, down, margins, crosses, r, 1.3)
                ) / (2 * h)
                np.testing.assert_allclose(fd, factor * gains[v], rtol=1e-6)


# ---------------------------------------------------------------------------
# weight update


def test_uniform_gains_give_exactly_uniform_weights():
    # all-zero gains (Z = 0, as from all-zero views) and gains all below the
    # floor relative to the largest |g_v| clamp to one value too
    for m in (1, 2, 3, 5, 9):
        for gains in (np.full(m, 4.2), np.zeros(m), np.full(m, -4.2), -np.arange(1.0, m + 1.0)):
            weights = update_view_weights(gains, 2.0)
            assert np.all(weights == 1.0 / m)


def test_weights_reward_gain():
    weights = update_view_weights(np.array([1.0, 2.0]), 2.0)
    np.testing.assert_allclose(weights, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-12)
    assert weights[1] > weights[0]


def test_reward_mode_matches_inverse_cost_stationary_point():
    # same grid oracle applied to the weight subproblem the default solves:
    # minimize sum_v a_v^r / g_v over the simplex
    rng = np.random.default_rng(11)
    grid = np.arange(1e-4, 1.0, 1e-4)
    for r in (1.5, 2.0, 4.0):
        for _ in range(5):
            g = rng.uniform(0.2, 5.0, size=2)
            values = grid**r / g[0] + (1.0 - grid) ** r / g[1]
            a_star = grid[np.argmin(values)]
            weights = update_view_weights(g, r)
            assert abs(weights[0] - a_star) <= 1e-3


def test_large_exponent_flattens_weights():
    weights = update_view_weights(np.array([1.0, 2.0]), 100.0)
    assert np.all(np.abs(weights - 0.5) < 0.02)
    assert weights[1] > weights[0]


def test_negative_gains_are_clamped():
    weights = update_view_weights(np.array([-3.0, 5.0]), 2.0)
    assert weights[0] >= 0.0
    assert weights[0] < 1e-6
    np.testing.assert_allclose(weights.sum(), 1.0, atol=1e-12)


def test_extreme_exponent_stays_finite():
    # every ratio to the largest gain lies in (0, 1], so even 1/(r-1) = 2**52
    # only drives the powers toward 0, never past 1
    for r in (1.0001, 1.0 + 2.0**-52):
        for gains in ([1e-8, 1.0], [-1.0, 1e-8, 1e308], [1e308, 1e308]):
            weights = update_view_weights(np.array(gains), r)
            assert np.all(np.isfinite(weights))
            np.testing.assert_allclose(weights.sum(), 1.0, atol=1e-12)
            assert weights[-1] == weights.max() >= 0.5


@settings(max_examples=60, deadline=None)
@given(
    gains=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=5),
    scale=st.floats(1e-3, 1e3),
    r=st.floats(1.2, 6.0),
)
def test_weights_invariant_to_gain_scaling(gains, scale, r):
    gains = np.array(gains)
    a = update_view_weights(gains, r)
    b = update_view_weights(scale * gains, r)
    np.testing.assert_allclose(a, b, atol=1e-12)
    assert np.all(a >= 0)
    np.testing.assert_allclose(a.sum(), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# training loop


def _dataset_from_views(view_arrays, labels):
    views = tuple(ViewMatrix(i + 1, arr) for i, arr in enumerate(view_arrays))
    return MultiviewDataset(views, np.asarray(labels))


def test_single_view_training_reduces_to_margin_eigenproblem():
    rng = np.random.default_rng(12)
    labels = np.array([0] * 6 + [1] * 6)
    data = rng.standard_normal((4, 12)) + 3.0 * np.outer(np.ones(4), labels)
    ds = _dataset_from_views([data], labels)
    sp = SplitSpec(np.arange(8), np.arange(8, 12))
    cs = build_constraints(labels[:8])
    model = train(ds, sp, cs, Hyperparams(embed_dim=2))
    assert len(model.trace) <= 2
    np.testing.assert_allclose(model.view_weights, [1.0])
    between, within = compute_scatter(ViewMatrix(1, ds.views[0].data[:, sp.train_indices]), cs)
    _, top = top_eigenpairs(between - within, 2)
    # the learned block spans the top-2 eigenvector subspace
    projector_model = model.projections[0] @ model.projections[0].T
    projector_eig = top @ top.T
    np.testing.assert_allclose(projector_model, projector_eig, atol=1e-8)


def test_identical_views_share_weight_and_projection():
    rng = np.random.default_rng(13)
    labels = np.array([0, 0, 0, 1, 1, 1, 0, 1, 0, 1])
    data = rng.standard_normal((4, 10)) + 2.0 * np.outer(rng.standard_normal(4), labels)
    ds = _dataset_from_views([data, data.copy()], labels)
    sp = SplitSpec(np.arange(8), np.array([8, 9]))
    cs = build_constraints(labels[:8])
    model = train(ds, sp, cs, Hyperparams(embed_dim=2))
    for entry in model.trace:
        np.testing.assert_allclose(entry["weights"], [0.5, 0.5], atol=1e-9)
    w1, w2 = model.projections
    for j in range(2):
        col_match = min(
            np.linalg.norm(w1[:, j] - w2[:, j]), np.linalg.norm(w1[:, j] + w2[:, j])
        )
        assert col_match < 1e-6


def test_noise_view_gets_less_weight_across_seeds():
    favored = 0
    for seed in range(10):
        ds = generate_synthetic(2, 20, [5, 10], noise_views={2}, seed=seed)
        sp = split(ds, 20, seed=1000 + seed)
        cs = build_constraints(ds.labels[sp.train_indices])
        model = train(ds, sp, cs, Hyperparams(embed_dim=3))
        favored += model.view_weights[0] > model.view_weights[1]
    assert favored >= 8


def test_training_is_deterministic():
    ds = generate_synthetic(2, 10, [4, 6], seed=3)
    sp = split(ds, 12, seed=5)
    cs = build_constraints(ds.labels[sp.train_indices])
    a = train(ds, sp, cs, Hyperparams(embed_dim=2))
    b = train(ds, sp, cs, Hyperparams(embed_dim=2))
    for wa, wb in zip(a.projections, b.projections):
        assert np.array_equal(wa, wb)
    assert np.array_equal(a.view_weights, b.view_weights)
    assert a.trace == b.trace


def test_training_invariants_every_iteration():
    ds = generate_synthetic(3, 8, [4, 5], seed=4)
    sp = split(ds, 16, seed=6)
    cs = build_constraints(ds.labels[sp.train_indices])
    model = train(ds, sp, cs, Hyperparams(embed_dim=3))
    d = model.embed_dim
    for w in model.projections:
        assert np.linalg.norm(w.T @ w - np.eye(d)) <= 1e-8
    for entry in model.trace:
        weights = np.array(entry["weights"])
        assert np.all(weights >= 0)
        assert abs(weights.sum() - 1.0) <= 1e-12
    residuals = [e["residual"] for e in model.trace]
    assert any(r is not None for r in residuals), "training never measured convergence"
    assert _meets_a_stop_clause(residuals, model.hyper.tol) or len(model.trace) == model.hyper.max_iters


def test_constraints_must_hold_the_split_training_labels():
    ds = generate_synthetic(3, 10, [6, 5], noise_views={2}, seed=1)
    sp = split(ds, 15, seed=1)
    labels = ds.labels[sp.train_indices]
    hyper = Hyperparams(embed_dim=2)
    model = train(ds, sp, build_constraints(labels), hyper)
    # any label values name the same classes once renumbered
    renamed = train(ds, sp, build_constraints(labels + 100), hyper)
    for a, b in zip(model.projections, renamed.projections):
        assert np.array_equal(a, b)
    assert np.array_equal(model.view_weights, renamed.view_weights)
    assert model.trace == renamed.trace
    shuffled = np.random.default_rng(0).permutation(labels)
    assert not np.array_equal(shuffled, labels)
    for other in (shuffled, ds.labels[sp.test_indices]):
        with pytest.raises(ValueError, match="constraints"):
            train(ds, sp, build_constraints(other), hyper)


@pytest.mark.parametrize("index", [12, 50])
def test_training_indices_must_lie_below_the_sample_count(index):
    ds = generate_synthetic(2, 6, [3, 4], seed=0)
    sp = SplitSpec([0, 1, 6, 7, index], [2, 3])
    cs = build_constraints(np.array([0, 0, 1, 1, 1]))
    with pytest.raises(ValueError, match=f"^train_indices must be below the sample count 12, got {index}$"):
        train(ds, sp, cs)


def test_default_embed_dim_resolution():
    ds = generate_synthetic(2, 6, [4, 12], seed=0)
    sp = split(ds, 8, seed=0)
    cs = build_constraints(ds.labels[sp.train_indices])
    model = train(ds, sp, cs)  # embed_dim defaults to min(10, 4)
    assert model.embed_dim == 4
    with pytest.raises(ValueError, match="exceeds"):
        train(ds, sp, cs, Hyperparams(embed_dim=5))


def _scaled_view_one(factor):
    ds = generate_synthetic(2, 20, [5, 40], noise_views={2}, seed=1)
    views = (ViewMatrix(1, ds.views[0].data * factor), ds.views[1])
    return MultiviewDataset(views, ds.labels), split(ds, 20, 7)


@pytest.mark.parametrize(
    "factor, hyper, operation",
    [
        (1e160, Hyperparams(embed_dim=3), "overflow encountered in matmul"),
        (1e160, Hyperparams(embed_dim=3, standardize=True), "overflow encountered in square"),
        (1.0, Hyperparams(embed_dim=3, coupling_eta=1e-310), "overflow encountered in divide"),
    ],
    ids=["features-1e160", "standardized-1e160", "eta-1e-310"],
)
def test_overflowing_fit_raises_one_training_error(factor, hyper, operation):
    # filterwarnings = ["error"] also fails this test on any numpy RuntimeWarning
    ds, sp = _scaled_view_one(factor)
    with pytest.raises(solver.TrainingError, match=f"^training failed: {operation}$"):
        train(ds, sp, build_constraints(ds.labels[sp.train_indices]), hyper)


# ---------------------------------------------------------------------------
# every view is solved in the basis of its first d axes and training columns


def full_space_train(dataset, split_spec, constraints, hyper):
    """The alternation in raw coordinates: the per-view blocks of W, weights, trace, stop reason."""
    views = [ViewMatrix(v.view_id, v.data[:, split_spec.train_indices]) for v in dataset.views]
    Z1 = coupling_matrix(views, constraints, hyper.coupling_eta)
    W, *rest = _alternate(Z1, dataset.view_dims, hyper.resolved(dataset.view_dims))
    return row_slices(W, dataset.view_dims), *rest


def _fit_both(ds, train_count, seed, d, eta=1.0):
    sp = split(ds, train_count, seed=seed)
    cs = build_constraints(ds.labels[sp.train_indices])
    hyper = Hyperparams(embed_dim=d, coupling_eta=eta)
    return train(ds, sp, cs, hyper), full_space_train(ds, sp, cs, hyper)


def _assert_same_fit(model, reference):
    projections, weights, trace, stop_reason = reference
    for w, ref in zip(model.projections, projections):
        assert w.shape == ref.shape
        np.testing.assert_allclose(w @ w.T, ref @ ref.T, rtol=0, atol=1e-10)
    np.testing.assert_allclose(model.view_weights, weights, rtol=0, atol=1e-12)
    assert model.stop_reason == stop_reason and len(model.trace) == len(trace)
    np.testing.assert_allclose([e["objective"] for e in model.trace], [e["objective"] for e in trace], rtol=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wide_views_match_the_full_space_solve(seed):
    # views 1 and 2 are wider than the 24 training samples, view 3 is not
    ds = generate_synthetic(3, 12, [70, 40, 9], noise_views={2}, seed=seed)
    model, reference = _fit_both(ds, 24, 100 + seed, 4)
    assert not any(e["padded_views"] for e in model.trace)
    _assert_same_fit(model, reference)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_uncoupled_wide_views_match_the_full_space_solve(seed):
    # without coupling each view is its own eigenproblem: no polar step, so
    # nothing to pad, and the second iteration repeats the first
    ds = generate_synthetic(3, 12, [70, 40, 9], noise_views={2}, seed=seed)
    model, reference = _fit_both(ds, 24, 100 + seed, 4, np.inf)
    assert all(e["padded_views"] == [] and e["polar_steps"] == 0 for e in model.trace)
    assert [e["residual"] for e in model.trace] == [None, 0.0]
    _assert_same_fit(model, reference)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dims", [[70, 40, 9], [6, 11, 9], [30]], ids=["wide", "narrow", "one-view"])
def test_uncoupled_fit_projects_each_view_on_its_top_margin_eigenvectors(dims, seed):
    # with eta = inf the objective is one trace per view, which the view's top
    # d eigenvectors of B_v - S_v maximise (Ky Fan), whatever the weights
    d = 4
    ds = generate_synthetic(3, 12, dims, noise_views={2} if len(dims) > 1 else set(), seed=seed)
    sp = split(ds, 24, seed=seed)
    cs = build_constraints(ds.labels[sp.train_indices])
    model = train(ds, sp, cs, Hyperparams(embed_dim=d, coupling_eta=np.inf))
    assert all(e["padded_views"] == [] and e["polar_steps"] == 0 for e in model.trace)
    for view, w in zip(ds.views, model.projections):
        between, within = compute_scatter(ViewMatrix(view.view_id, view.data[:, sp.train_indices]), cs)
        vals, vecs = np.linalg.eigh(between - within)
        # a gap below the top d eigenvalues makes their eigenspace unique
        assert vals[-d] - vals[-d - 1] > 1e-3 * vals[-1]
        top = vecs[:, -d:]
        assert np.linalg.norm(w @ w.T - top @ top.T) <= 1e-10


def test_narrow_views_match_the_full_space_solve():
    # every view is narrower than n_train + d = 27, so its basis is a full
    # rotation of its feature space
    ds = generate_synthetic(3, 12, [6, 11, 9], noise_views={2}, seed=4)
    model, reference = _fit_both(ds, 24, 7, 3)
    _assert_same_fit(model, reference)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_views_no_wider_than_n_train_plus_d_match_the_full_space_solve(offset, seed):
    # n_train + d = 12: view 1 sits just below, on or just above the
    # boundary, view 2 below it
    ds = generate_synthetic(2, 6, [12 + offset, 10], seed=seed)
    model, reference = _fit_both(ds, 8, 3, 4)
    _assert_same_fit(model, reference)


def test_wide_view_can_use_directions_outside_its_training_span():
    # same-mean classes: the margin has fewer than d positive eigenvalues, so
    # the best d columns include directions on which the margin is zero, all
    # of them orthogonal to the 6 training columns
    rng = np.random.default_rng(16)
    labels = np.array([0, 1] * 5)
    ds = _dataset_from_views([rng.standard_normal((30, 10))], labels)
    sp = SplitSpec(np.arange(6), np.arange(6, 10))
    cs = build_constraints(labels[:6])
    between, within = compute_scatter(ViewMatrix(1, ds.views[0].data[:, sp.train_indices]), cs)
    eigvals = np.linalg.eigvalsh(between - within)
    assert np.sum(eigvals > 1e-9) < 4
    model = train(ds, sp, cs, Hyperparams(embed_dim=4))
    best = eigvals[eigvals > 0].sum()
    np.testing.assert_allclose(model.trace[-1]["objective"], best, rtol=1e-9)


def _rank_deficient_wide_view_fit_inputs():
    rng = np.random.default_rng(15)
    labels = np.array([0, 1] * 6)
    # view 1: 30 features, but the columns of a class are duplicates and the
    # two classes' columns are parallel, so the 8 training columns span one
    # dimension, fewer than d = 2
    wide = np.outer(rng.standard_normal(30), 1.0 + labels)
    narrow = rng.standard_normal((6, 12)) + 2.0 * np.outer(rng.standard_normal(6), labels)
    ds = _dataset_from_views([wide, narrow], labels)
    sp = SplitSpec(np.arange(8), np.arange(8, 12))
    cs = build_constraints(labels[:8])
    return ds, sp, cs, Hyperparams(embed_dim=2)


def test_rank_deficient_wide_view_matches_the_full_space_solve():
    ds, sp, cs, hyper = _rank_deficient_wide_view_fit_inputs()
    model = train(ds, sp, cs, hyper)
    assert [w.shape for w in model.projections] == [(30, 2), (6, 2)]
    for w in model.projections:
        np.testing.assert_allclose(w.T @ w, np.eye(2), rtol=0, atol=1e-10)
    assert all(e["padded_views"] == [1] for e in model.trace)
    _assert_same_fit(model, full_space_train(ds, sp, cs, hyper))


def test_trace_counts_polar_steps(monkeypatch):
    # ``polar_steps`` counts each W-step's polar steps, each one thin SVD: the
    # fit's start, one per view, in the first W-step only, then the sweeps'
    ds = generate_synthetic(2, 10, [25, 6], seed=8)
    sp = split(ds, 12, seed=9)
    cs = build_constraints(ds.labels[sp.train_indices])
    fits = [(ds, sp, cs, Hyperparams(embed_dim=3)), _rank_deficient_wide_view_fit_inputs()]
    steps, per_w_step = [], []
    polar, sweeps = solver._orthonormal_polar, solver._refine_blocks

    def counted(*args):
        before = len(svds)
        result = polar(*args)
        steps.append(len(svds) - before)
        return result

    def counted_sweeps(*args):
        before = len(steps)
        result = sweeps(*args)
        per_w_step.append(len(steps) - before)
        return result

    monkeypatch.setattr(solver, "_orthonormal_polar", counted)
    monkeypatch.setattr(solver, "_refine_blocks", counted_sweeps)
    svds = _count_svds(monkeypatch)
    for fit in fits:
        steps.clear()
        per_w_step.clear()
        svds.clear()
        model = train(*fit)
        for entry in model.trace:
            assert set(entry) == {"iteration", "objective", "gains", "weights", "residual", "padded_views", "polar_steps"}
        # at least one step per view and sweep
        assert all(count >= 2 * solver.REFINE_SWEEPS for count in per_w_step)
        assert [e["polar_steps"] for e in model.trace] == [2 + per_w_step[0], *per_w_step[1:]]
        assert steps == [1] * sum(e["polar_steps"] for e in model.trace)
    # the last fit's start pads view 1, and every iteration reports it
    assert len(model.trace) > 1
    assert all(e["padded_views"] == [1] for e in model.trace)


def test_a_coupled_fit_takes_one_start_and_sweeps_from_it_every_iteration(monkeypatch):
    ds = generate_synthetic(3, 10, [6, 8, 5], noise_views={3}, seed=1)
    sp = split(ds, 15, seed=1)
    cs = build_constraints(ds.labels[sp.train_indices])
    eigh_inputs, starts = [], []
    eigenpairs, sweeps = solver.top_eigenpairs, solver._refine_blocks

    def recorded_eigenpairs(Z, d):
        eigh_inputs.append(Z.shape)
        return eigenpairs(Z, d)

    def recorded_sweeps(Z, dims, W):
        starts.append(W.copy())
        return sweeps(Z, dims, W)

    monkeypatch.setattr(solver, "top_eigenpairs", recorded_eigenpairs)
    monkeypatch.setattr(solver, "_refine_blocks", recorded_sweeps)
    model = train(ds, sp, cs, Hyperparams(embed_dim=3, coupling_eta=1.0))
    assert len(model.trace) > 2
    # one eigendecomposition, of the whole Z (each view no wider than
    # n_train + d keeps its width), and one start for every W-step
    side = sum(ds.view_dims)
    assert eigh_inputs == [(side, side)]
    assert len(starts) == len(model.trace)
    assert all(np.array_equal(W, starts[0]) for W in starts)
    # an uncoupled fit still solves each view by its own eigendecomposition,
    # in each of its two iterations, with no sweeps
    eigh_inputs.clear()
    starts.clear()
    uncoupled = train(ds, sp, cs, Hyperparams(embed_dim=3, coupling_eta=np.inf))
    assert len(uncoupled.trace) == 2 and not starts
    assert eigh_inputs == [(dim, dim) for dim in ds.view_dims] * 2


def _meets_a_stop_clause(residuals, tol):
    """Whether the last of a trace's residuals ends a fit, recomputed from them
    alone: r_k < tol, or q = r_k / r_(k-1) < 1 and r_k * q / (1 - q), the change
    still to come at rate q, is at most ``STOP_MARGIN * tol``."""
    *_, last, r = [None, *residuals]
    if r is None:
        return False
    if r < tol:
        return True
    if last is None:
        return False
    q = r / last
    return q < 1.0 and r * q / (1.0 - q) <= solver.STOP_MARGIN * tol


def test_stop_reason_names_what_ended_training():
    ds = generate_synthetic(2, 10, [4, 6], seed=3)
    sp = split(ds, 12, seed=5)
    cs = build_constraints(ds.labels[sp.train_indices])
    converged = train(ds, sp, cs, Hyperparams(embed_dim=2))
    assert converged.stop_reason == "tol"
    assert _meets_a_stop_clause([e["residual"] for e in converged.trace], converged.hyper.tol)
    assert len(converged.trace) < converged.hyper.max_iters
    capped = train(ds, sp, cs, Hyperparams(embed_dim=2, max_iters=2))
    assert capped.stop_reason == "max_iters"
    assert len(capped.trace) == 2
    assert not _meets_a_stop_clause([e["residual"] for e in capped.trace], capped.hyper.tol)
    assert train(ds, sp, cs, Hyperparams(embed_dim=2, max_iters=1)).stop_reason == "max_iters"


# small fits whose contraction rate still grows between iterations: seed 0,
# eta 1, r 2 ran a fifth W-step when its fourth already met the estimate, and
# at seeds 5 and 6 an estimate held to tol itself, not to a tenth of it, ends
# fits up to 3.8e-6 from their limit
STOP_CASES = [(seed, eta, r) for seed in (0, 5, 6) for eta in (1.0, 10.0) for r in (2.0, 5.0)]


def _stop_case_fit(seed, eta, r, **hyper):
    ds = generate_synthetic(3, 10, [6, 8, 5], noise_views={3}, seed=seed)
    sp = split(ds, 15, seed=seed)
    cs = build_constraints(ds.labels[sp.train_indices])
    return train(ds, sp, cs, Hyperparams(embed_dim=3, coupling_eta=eta, weight_exponent=r, **hyper))


def _shifted_fit(**hyper):
    # the benchmark's score-shifted workload at a fifth of its samples: uncentred
    # features, so the cross blocks dominate and the fit contracts fast
    ds = generate_synthetic(4, 30, [20, 50, 10], noise_views={2}, seed=0)
    ds = MultiviewDataset(tuple(ViewMatrix(v.view_id, v.data + 5.0) for v in ds.views), ds.labels)
    sp = split(ds, 60, seed=0)
    cs = build_constraints(ds.labels[sp.train_indices])
    return train(ds, sp, cs, Hyperparams(embed_dim=5, **hyper))


PRECISION_FITS = [
    *(pytest.param(_stop_case_fit, case, id=f"seed{case[0]}-eta{case[1]:g}-r{case[2]:g}") for case in STOP_CASES),
    pytest.param(_shifted_fit, (), id="shifted"),
]


@pytest.mark.parametrize("seed, eta, r", STOP_CASES)
def test_trace_shows_why_the_fit_stopped(seed, eta, r):
    model = _stop_case_fit(seed, eta, r)
    residuals = [e["residual"] for e in model.trace]
    tol = model.hyper.tol
    for k in range(1, len(residuals)):
        assert not _meets_a_stop_clause(residuals[:k], tol), f"iteration {k} already met a stop clause"
    if model.stop_reason == "tol":
        assert _meets_a_stop_clause(residuals, tol)
    else:
        assert model.stop_reason == "max_iters" and len(residuals) == model.hyper.max_iters


@pytest.mark.parametrize("fit, args", PRECISION_FITS)
def test_a_stopped_fit_lies_within_tol_of_a_tight_fit(fit, args):
    model, tight = fit(*args), fit(*args, tol=1e-12)
    # relative change of W_v W_v^T, as the trace's residual measures it
    gap = sum(np.linalg.norm(a @ a.T - b @ b.T) for a, b in zip(model.projections, tight.projections))
    assert gap / sum(np.linalg.norm(b @ b.T) for b in tight.projections) <= model.hyper.tol
    np.testing.assert_allclose(model.view_weights, tight.view_weights, rtol=0.0, atol=model.hyper.tol)


@pytest.mark.parametrize("fit, args", PRECISION_FITS)
def test_a_fit_equals_the_fit_capped_at_its_iteration_count(fit, args):
    # the stop rule only picks the iteration the fit returns at; it computes nothing
    model = fit(*args)
    capped = fit(*args, max_iters=len(model.trace))
    for a, b in zip(model.projections, capped.projections):
        assert a.tobytes() == b.tobytes()
    assert model.view_weights.tobytes() == capped.view_weights.tobytes()
    assert model.trace == capped.trace and model.stop_reason == capped.stop_reason


@pytest.mark.parametrize("seed", range(8))
def test_uncoupled_fit_converges_whatever_the_feature_order(seed):
    # without coupling each view's columns may rotate freely inside a
    # degenerate eigenspace, and which subspace the W-step picks rests on
    # rounding, so on the feature order; the fit must not wait for it
    ds = generate_synthetic(2, 8, [40, 30], noise_views={2}, seed=seed)
    objectives = []
    for p in range(8):
        rng = np.random.default_rng(p)
        order = [rng.permutation(v.n_features) if p else np.arange(v.n_features) for v in ds.views]
        views = tuple(ViewMatrix(v.view_id, v.data[o]) for v, o in zip(ds.views, order))
        permuted = MultiviewDataset(views, ds.labels)
        sp = split(permuted, 12, seed=seed)
        cs = build_constraints(permuted.labels[sp.train_indices])
        model = train(permuted, sp, cs, Hyperparams(embed_dim=10, coupling_eta=np.inf))
        assert model.stop_reason == "tol"
        assert len(model.trace) <= 10
        objectives.append(model.trace[-1]["objective"])
    np.testing.assert_allclose(objectives, objectives[0], rtol=1e-12)
