import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmetric import (
    Hyperparams,
    MultiviewDataset,
    SplitSpec,
    ViewMatrix,
    assemble_block_matrix,
    build_constraints,
    compute_cross,
    compute_scatter,
    compute_view_gains,
    generate_synthetic,
    split,
    train,
    update_view_weights,
)
from mvmetric.solver import stacked_objective, top_eigenpairs, update_projections


def random_instance(rng, dims, n_samples=8):
    """Random scatters and cross blocks for the given view dimensions."""
    labels = rng.integers(0, 2, size=n_samples)
    while np.unique(labels).size < 2 or not np.any(np.bincount(labels) >= 2):
        labels = rng.integers(0, 2, size=n_samples)
    cs = build_constraints(labels)
    views = [ViewMatrix(v + 1, rng.standard_normal((dim, n_samples))) for v, dim in enumerate(dims)]
    scatters = [compute_scatter(view, cs) for view in views]
    crosses = [
        compute_cross(views[a], views[b], np.arange(n_samples))
        for a in range(len(dims))
        for b in range(a + 1, len(dims))
    ]
    return scatters, crosses


def cross_for(crosses, a, b):
    for c in crosses:
        if (c.view_a, c.view_b) == (a, b):
            return c.matrix
        if (c.view_a, c.view_b) == (b, a):
            return c.matrix.T
    raise KeyError((a, b))


def objective_oracle(blocks, weights, scatters, crosses, r, eta):
    """Term-by-term evaluation of the weighted margin + coupling objective."""
    m = len(blocks)
    powered = [weights[v] ** r for v in range(m)]
    total = 0.0
    for v in range(m):
        margin = scatters[v].between - scatters[v].within
        total += powered[v] * np.trace(blocks[v].T @ margin @ blocks[v])
    for v in range(m):
        for w in range(m):
            if v == w:
                continue
            block = cross_for(crosses, scatters[v].view_id, scatters[w].view_id)
            total += (powered[v] + powered[w]) / (2.0 * eta) * np.trace(blocks[v].T @ block @ blocks[w])
    return total


def random_orthonormal_blocks(rng, dims, d):
    return [np.linalg.qr(rng.standard_normal((dim, d)))[0] for dim in dims]


# ---------------------------------------------------------------------------
# block matrix assembly


def test_assemble_infinite_eta_decouples_views():
    rng = np.random.default_rng(0)
    scatters, crosses = random_instance(rng, [3, 4])
    hyper = Hyperparams(embed_dim=2, coupling_eta=np.inf)
    Z = assemble_block_matrix(scatters, crosses, np.array([0.5, 0.5]), hyper)
    assert np.array_equal(Z[:3, 3:], np.zeros((3, 4)))
    assert np.array_equal(Z[3:, :3], np.zeros((4, 3)))


def test_assemble_degenerate_weights():
    rng = np.random.default_rng(1)
    scatters, crosses = random_instance(rng, [3, 4])
    hyper = Hyperparams(embed_dim=2, weight_exponent=2.0, coupling_eta=3.0)
    Z = assemble_block_matrix(scatters, crosses, np.array([1.0, 0.0]), hyper)
    np.testing.assert_array_equal(Z[:3, :3], scatters[0].between - scatters[0].within)
    np.testing.assert_array_equal(Z[3:, 3:], np.zeros((4, 4)))
    np.testing.assert_allclose(Z[:3, 3:], crosses[0].matrix / 6.0, rtol=1e-15)


def test_assemble_is_bit_exact_symmetric():
    rng = np.random.default_rng(2)
    scatters, crosses = random_instance(rng, [3, 4, 2])
    hyper = Hyperparams(embed_dim=2, coupling_eta=0.7)
    Z = assemble_block_matrix(scatters, crosses, np.array([0.2, 0.5, 0.3]), hyper)
    assert np.array_equal(Z, Z.T)


def test_quadratic_form_matches_term_by_term_objective():
    rng = np.random.default_rng(3)
    scatters, crosses = random_instance(rng, [3, 4, 2])
    hyper = Hyperparams(embed_dim=2, weight_exponent=2.5, coupling_eta=0.9)
    weights = np.array([0.2, 0.5, 0.3])
    Z = assemble_block_matrix(scatters, crosses, weights, hyper)
    for _ in range(20):
        blocks = random_orthonormal_blocks(rng, [3, 4, 2], 2)
        via_z = stacked_objective(Z, blocks)
        direct = objective_oracle(blocks, weights, scatters, crosses, 2.5, 0.9)
        np.testing.assert_allclose(via_z, direct, rtol=1e-10)


# ---------------------------------------------------------------------------
# projection step


def test_diagonal_z_returns_leading_basis_vectors():
    Z = np.diag([5.0, 3.0, 1.0])
    blocks = update_projections(Z, [3], 2)
    np.testing.assert_allclose(blocks[0], np.eye(3)[:, :2], atol=1e-12)


def test_identity_z_returns_orthonormal_blocks_with_full_trace():
    Z = np.eye(5)
    blocks = update_projections(Z, [3, 2], 2)
    for block, dim in zip(blocks, (3, 2)):
        assert block.shape == (dim, 2)
        np.testing.assert_allclose(block.T @ block, np.eye(2), atol=1e-10)
        # every orthonormal block scores exactly d on an identity diagonal block
        np.testing.assert_allclose(np.trace(block.T @ block), 2.0, atol=1e-10)


def test_projection_step_beats_random_search():
    rng = np.random.default_rng(4)
    base = rng.standard_normal((6, 6))
    Z = (base + base.T) / 2.0
    blocks = update_projections(Z, [3, 3], 1)
    ours = stacked_objective(Z, blocks)
    best = -np.inf
    for _ in range(10_000):
        cand = random_orthonormal_blocks(rng, [3, 3], 1)
        best = max(best, stacked_objective(Z, cand))
    assert ours >= best


def test_top_eigenpairs_residual_and_sign():
    rng = np.random.default_rng(5)
    base = rng.standard_normal((8, 8))
    Z = (base + base.T) / 2.0
    vals, vecs = top_eigenpairs(Z, 3)
    assert np.all(np.diff(vals) <= 1e-12)
    residual = np.linalg.norm(Z @ vecs - vecs * vals)
    assert residual <= 1e-8 * np.linalg.norm(Z)
    for j in range(3):
        lead = np.argmax(np.abs(vecs[:, j]))
        assert vecs[lead, j] > 0


def test_update_projections_rejects_asymmetric():
    Z = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        update_projections(Z, [2], 1)


def test_update_projections_pads_rank_deficient_blocks():
    # zero matrix: every eigenvector slice is rank deficient, yet the
    # returned blocks must still be orthonormal and deterministic
    Z = np.zeros((5, 5))
    blocks = update_projections(Z, [3, 2], 2)
    again = update_projections(Z, [3, 2], 2)
    for a, b in zip(blocks, again):
        np.testing.assert_allclose(a.T @ a, np.eye(2), atol=1e-10)
        assert np.array_equal(a, b)


def test_refinement_never_hurts_the_polar_initializer():
    from mvmetric.solver import _block_offsets, _orthonormal_polar

    rng = np.random.default_rng(14)
    for _ in range(25):
        dims = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(2, 4)))]
        d = int(rng.integers(1, min(dims) + 1))
        base = rng.standard_normal((sum(dims), sum(dims)))
        Z = (base + base.T) / 2.0
        _, vecs = top_eigenpairs(Z, d)
        offsets = _block_offsets(dims)
        polar_blocks = [
            _orthonormal_polar(vecs[offsets[v] : offsets[v + 1], :])[0] for v in range(len(dims))
        ]
        refined = update_projections(Z, dims, d)
        assert stacked_objective(Z, refined) >= stacked_objective(Z, polar_blocks) - 1e-10


def test_orthonormality_invariant_on_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(10):
        dims = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(1, 4)))]
        d = int(rng.integers(1, min(dims) + 1))
        base = rng.standard_normal((sum(dims), sum(dims)))
        Z = (base + base.T) / 2.0
        for block in update_projections(Z, dims, d):
            assert np.linalg.norm(block.T @ block - np.eye(d)) <= 1e-8


# ---------------------------------------------------------------------------
# gains


def test_gains_decoupled_equal_top_eigenvalue_sum():
    rng = np.random.default_rng(7)
    scatters, crosses = random_instance(rng, [4, 3])
    hyper = Hyperparams(embed_dim=2, coupling_eta=np.inf)
    Z = assemble_block_matrix(scatters, crosses, np.array([0.5, 0.5]), hyper)
    blocks = update_projections(Z, [4, 3], 2)
    gains = compute_view_gains(blocks, scatters, crosses, hyper)
    for v, s in enumerate(scatters):
        margin = s.between - s.within
        expected = np.sort(np.linalg.eigvalsh(margin))[::-1][:2].sum()
        np.testing.assert_allclose(gains[v], expected, rtol=1e-8)


def test_gains_symmetric_for_identical_views():
    rng = np.random.default_rng(8)
    data = rng.standard_normal((3, 8))
    labels = np.array([0, 0, 1, 1, 0, 1, 0, 1])
    cs = build_constraints(labels)
    views = [ViewMatrix(1, data), ViewMatrix(2, data)]
    scatters = [compute_scatter(v, cs) for v in views]
    crosses = [compute_cross(views[0], views[1], np.arange(8))]
    hyper = Hyperparams(embed_dim=2, coupling_eta=1.0)
    Z = assemble_block_matrix(scatters, crosses, np.array([0.5, 0.5]), hyper)
    blocks = update_projections(Z, [3, 3], 2)
    gains = compute_view_gains(blocks, scatters, crosses, hyper)
    np.testing.assert_allclose(gains[0], gains[1], atol=1e-9)


def test_gains_match_finite_difference_gradient():
    rng = np.random.default_rng(9)
    for _ in range(5):
        dims = [3, 4]
        scatters, crosses = random_instance(rng, dims)
        hyper = Hyperparams(embed_dim=2, weight_exponent=2.5, coupling_eta=1.3)
        blocks = random_orthonormal_blocks(rng, dims, 2)
        gains = compute_view_gains(blocks, scatters, crosses, hyper)
        h = 1e-5
        r = hyper.weight_exponent
        for v in range(2):
            for point, factor in ((np.ones(2), r), (np.full(2, 0.5), r * 0.5 ** (r - 1))):
                up, down = point.copy(), point.copy()
                up[v] += h
                down[v] -= h
                fd = (
                    objective_oracle(blocks, up, scatters, crosses, r, 1.3)
                    - objective_oracle(blocks, down, scatters, crosses, r, 1.3)
                ) / (2 * h)
                np.testing.assert_allclose(fd, factor * gains[v], rtol=1e-6)


# ---------------------------------------------------------------------------
# weight update


def test_uniform_gains_give_exactly_uniform_weights():
    for m in (1, 2, 3, 5, 9):
        weights = update_view_weights(np.full(m, 4.2), 2.0)
        assert np.all(weights == 1.0 / m)


def test_weights_reward_gain():
    weights = update_view_weights(np.array([1.0, 2.0]), 2.0)
    np.testing.assert_allclose(weights, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-12)
    assert weights[1] > weights[0]


def test_inverse_gain_mode_matches_raw_stationary_point():
    # grid search for the interior stationary point of sum_v a_v^r g_v on the
    # 1-simplex; the reciprocal closed form must land on it
    rng = np.random.default_rng(10)
    grid = np.arange(1e-4, 1.0, 1e-4)
    for r in (1.5, 2.0, 4.0):
        for _ in range(5):
            g = rng.uniform(0.2, 5.0, size=2)
            values = grid**r * g[0] + (1.0 - grid) ** r * g[1]
            a_star = grid[np.argmin(values)]
            weights = update_view_weights(g, r, inverse_gain=True)
            assert abs(weights[0] - a_star) <= 1e-3
    np.testing.assert_allclose(
        update_view_weights(np.array([1.0, 2.0]), 2.0, inverse_gain=True),
        [2.0 / 3.0, 1.0 / 3.0],
        rtol=1e-12,
    )


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


def test_extreme_exponent_falls_back_to_log_space():
    weights = update_view_weights(np.array([1e-8, 1.0]), 1.0001, clamp_floor=1e-12)
    assert np.all(np.isfinite(weights))
    np.testing.assert_allclose(weights.sum(), 1.0, atol=1e-12)
    assert weights[1] > weights[0]


def test_non_finite_gains_rejected():
    with pytest.raises(ValueError, match="finite"):
        update_view_weights(np.array([np.nan, 1.0]), 2.0)


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
    sp = SplitSpec(np.arange(8), np.arange(8, 12), seed=0)
    cs = build_constraints(labels[:8])
    model = train(ds, sp, cs, Hyperparams(embed_dim=2))
    assert len(model.trace) <= 2
    np.testing.assert_allclose(model.view_weights, [1.0])
    scatter = compute_scatter(ds.views[0].restrict(sp.train_indices), cs)
    margin = scatter.between - scatter.within
    _, top = top_eigenpairs(margin, 2)
    # the learned block spans the top-2 eigenvector subspace
    projector_model = model.projections[0] @ model.projections[0].T
    projector_eig = top @ top.T
    np.testing.assert_allclose(projector_model, projector_eig, atol=1e-8)


def test_identical_views_share_weight_and_projection():
    rng = np.random.default_rng(13)
    labels = np.array([0, 0, 0, 1, 1, 1, 0, 1, 0, 1])
    data = rng.standard_normal((4, 10)) + 2.0 * np.outer(rng.standard_normal(4), labels)
    ds = _dataset_from_views([data, data.copy()], labels)
    sp = SplitSpec(np.arange(8), np.array([8, 9]), seed=0)
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
    residuals = [e["residual"] for e in model.trace if e["residual"] is not None]
    assert residuals, "training never measured convergence"
    assert residuals[-1] < 1e-6 or len(model.trace) == model.hyper.max_iters


def test_default_embed_dim_resolution():
    ds = generate_synthetic(2, 6, [4, 12], seed=0)
    sp = split(ds, 8, seed=0)
    cs = build_constraints(ds.labels[sp.train_indices])
    model = train(ds, sp, cs)  # embed_dim defaults to min(10, 4)
    assert model.embed_dim == 4
    with pytest.raises(ValueError, match="exceeds"):
        train(ds, sp, cs, Hyperparams(embed_dim=5))


# ---------------------------------------------------------------------------
# wide views are solved in the span of their training columns


def full_space_train(dataset, split_spec, constraints, hyper):
    """The alternation in every view's raw coordinates, from the public pieces.

    Returns the projections, the final weights and the per-iteration
    objectives.
    """
    hyper = hyper.resolved(dataset.view_dims)
    r = hyper.weight_exponent
    idx = split_spec.train_indices
    scatters = [compute_scatter(v.restrict(idx), constraints) for v in dataset.views]
    crosses = [
        compute_cross(dataset.views[a], dataset.views[b], idx)
        for a in range(dataset.m)
        for b in range(a + 1, dataset.m)
    ]
    weights = np.full(dataset.m, 1.0 / dataset.m)
    previous, objectives = None, []
    for _ in range(hyper.max_iters):
        Z = assemble_block_matrix(scatters, crosses, weights, hyper)
        blocks = update_projections(Z, dataset.view_dims, hyper.embed_dim)
        gains = compute_view_gains(blocks, scatters, crosses, hyper)
        objectives.append(float(np.dot(weights**r, gains)))
        weights = update_view_weights(gains, r)
        done = previous is not None and (
            sum(np.linalg.norm(b @ b.T - p @ p.T) for b, p in zip(blocks, previous))
            / sum(np.linalg.norm(p @ p.T) for p in previous)
            < hyper.tol
        )
        previous = blocks
        if done:
            break
    return previous, weights, objectives


def _fit_both(ds, train_count, seed, d, eta=1.0):
    sp = split(ds, train_count, seed=seed)
    cs = build_constraints(ds.labels[sp.train_indices])
    hyper = Hyperparams(embed_dim=d, coupling_eta=eta)
    return train(ds, sp, cs, hyper), full_space_train(ds, sp, cs, hyper)


def _assert_same_fit(model, reference, same_iterations=True):
    projections, weights, objectives = reference
    for w, ref in zip(model.projections, projections):
        assert w.shape == ref.shape
        np.testing.assert_allclose(w @ w.T, ref @ ref.T, rtol=0, atol=1e-10)
    np.testing.assert_allclose(model.view_weights, weights, rtol=0, atol=1e-12)
    trace_objectives = [e["objective"] for e in model.trace]
    if not same_iterations:
        trace_objectives, objectives = trace_objectives[-1], objectives[-1]
    else:
        assert len(trace_objectives) == len(objectives)
    np.testing.assert_allclose(trace_objectives, objectives, rtol=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wide_views_match_the_full_space_solve(seed):
    # views 1 and 2 are wider than the 24 training samples, view 3 is not
    ds = generate_synthetic(3, 12, [70, 40, 9], noise_views={2}, seed=seed)
    model, reference = _fit_both(ds, 24, 100 + seed, 4)
    assert not any(e["padded_views"] for e in model.trace)
    _assert_same_fit(model, reference)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_uncoupled_wide_views_match_the_full_space_solve_despite_padding(seed):
    # without coupling every eigenvector slice is rank-padded; each view's
    # columns may then rotate freely, which moves the residual, so only the
    # final fit is compared
    ds = generate_synthetic(3, 12, [70, 40, 9], noise_views={2}, seed=seed)
    model, reference = _fit_both(ds, 24, 100 + seed, 4, np.inf)
    assert all(e["padded_views"] for e in model.trace)
    _assert_same_fit(model, reference, same_iterations=False)


def test_narrow_views_are_solved_in_raw_coordinates_exactly():
    ds = generate_synthetic(3, 12, [6, 11, 9], noise_views={2}, seed=4)
    model, (projections, weights, objectives) = _fit_both(ds, 24, 7, 3)
    for w, ref in zip(model.projections, projections):
        assert np.array_equal(w, ref)
    assert np.array_equal(model.view_weights, weights)
    assert [e["objective"] for e in model.trace] == objectives


def test_views_no_wider_than_n_train_plus_d_keep_raw_coordinates():
    # n_train + d = 12: view 1 sits on the boundary, view 2 below it
    ds = generate_synthetic(2, 6, [12, 10], seed=5)
    model, (projections, weights, objectives) = _fit_both(ds, 8, 3, 4)
    for w, ref in zip(model.projections, projections):
        assert np.array_equal(w, ref)
    assert np.array_equal(model.view_weights, weights)
    assert [e["objective"] for e in model.trace] == objectives


def test_wide_view_can_use_directions_outside_its_training_span():
    # same-mean classes: the margin has fewer than d positive eigenvalues, so
    # the best d columns include directions on which the margin is zero, all
    # of them orthogonal to the 6 training columns
    rng = np.random.default_rng(16)
    labels = np.array([0, 1] * 5)
    ds = _dataset_from_views([rng.standard_normal((30, 10))], labels)
    sp = SplitSpec(np.arange(6), np.arange(6, 10), seed=0)
    cs = build_constraints(labels[:6])
    scatter = compute_scatter(ds.views[0].restrict(sp.train_indices), cs)
    eigvals = np.linalg.eigvalsh(scatter.between - scatter.within)
    assert np.sum(eigvals > 1e-9) < 4
    model = train(ds, sp, cs, Hyperparams(embed_dim=4))
    best = eigvals[eigvals > 0].sum()
    np.testing.assert_allclose(model.trace[-1]["objective"], best, rtol=1e-9)


def test_rank_deficient_wide_view_matches_the_full_space_solve():
    rng = np.random.default_rng(15)
    labels = np.array([0, 1] * 6)
    # view 1: 30 features, but the columns of a class are duplicates and the
    # two classes' columns are parallel, so the 8 training columns span one
    # dimension, fewer than d = 2
    wide = np.outer(rng.standard_normal(30), 1.0 + labels)
    narrow = rng.standard_normal((6, 12)) + 2.0 * np.outer(rng.standard_normal(6), labels)
    ds = _dataset_from_views([wide, narrow], labels)
    sp = SplitSpec(np.arange(8), np.arange(8, 12), seed=0)
    cs = build_constraints(labels[:8])
    hyper = Hyperparams(embed_dim=2)
    model = train(ds, sp, cs, hyper)
    assert [w.shape for w in model.projections] == [(30, 2), (6, 2)]
    for w in model.projections:
        np.testing.assert_allclose(w.T @ w, np.eye(2), rtol=0, atol=1e-10)
    assert all(e["padded_views"] == [1] for e in model.trace)
    _assert_same_fit(model, full_space_train(ds, sp, cs, hyper))


def test_trace_counts_refine_sweeps_and_polar_svds(monkeypatch):
    ds = generate_synthetic(2, 10, [25, 6], seed=8)
    sp = split(ds, 12, seed=9)
    cs = build_constraints(ds.labels[sp.train_indices])
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    model = train(ds, sp, cs, Hyperparams(embed_dim=3))
    for entry in model.trace:
        assert 1 <= entry["refine_sweeps"] <= 30
        # one polar projection per view, then at least one per view and sweep
        assert entry["polar_svds"] >= 2 + 2 * entry["refine_sweeps"]
    assert sum(e["polar_svds"] for e in model.trace) == len(calls)


def test_stop_reason_names_what_ended_training():
    ds = generate_synthetic(2, 10, [4, 6], seed=3)
    sp = split(ds, 12, seed=5)
    cs = build_constraints(ds.labels[sp.train_indices])
    converged = train(ds, sp, cs, Hyperparams(embed_dim=2))
    assert converged.stop_reason == "tol"
    assert converged.trace[-1]["residual"] < converged.hyper.tol
    assert len(converged.trace) < converged.hyper.max_iters
    capped = train(ds, sp, cs, Hyperparams(embed_dim=2, max_iters=2))
    assert capped.stop_reason == "max_iters"
    assert len(capped.trace) == 2
    assert capped.trace[-1]["residual"] >= capped.hyper.tol
    assert train(ds, sp, cs, Hyperparams(embed_dim=2, max_iters=1)).stop_reason == "max_iters"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_uncoupled_fit_converges_whatever_the_feature_order(seed):
    # without coupling each view's columns may rotate freely inside a
    # degenerate eigenspace; the residual compares W_v W_v^T, so the
    # rotation the W-step happens to return cannot keep training going
    ds = generate_synthetic(2, 8, [40, 30], noise_views={2}, seed=seed)
    objectives = []
    for p in range(3):
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
