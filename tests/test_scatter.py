import tracemalloc

import numpy as np
import pytest

from mvmetric import (
    ConstraintSet,
    ViewMatrix,
    build_constraints,
    compute_cross,
    compute_scatter,
    coupling_matrix,
)


def naive_pair_scatter(data, pairs):
    """Reference double loop accumulating (x_i - x_j)(x_i - x_j)^T / N."""
    dim = data.shape[0]
    out = np.zeros((dim, dim))
    for i, j in pairs:
        diff = data[:, i] - data[:, j]
        out += np.outer(diff, diff)
    return out / len(pairs)


def naive_cross(a, b):
    """Reference per-sample accumulation of outer products."""
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[1]):
        out += np.outer(a[:, i], b[:, i])
    return out


def test_single_dissimilar_pair():
    view = ViewMatrix(1, np.array([[1.0, 0.0], [0.0, 0.0]]))
    cs = ConstraintSet(similar=np.array([[0, 1]]), dissimilar=np.array([[0, 1]]))
    between, _ = compute_scatter(view, cs)
    np.testing.assert_array_equal(between, np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_identical_samples_give_zero_within():
    col = np.array([2.0, -1.0, 3.0])
    view = ViewMatrix(1, np.column_stack([col, col, col + 1.0]))
    cs = ConstraintSet(similar=np.array([[0, 1]]), dissimilar=np.array([[0, 2]]))
    _, within = compute_scatter(view, cs)
    np.testing.assert_array_equal(within, np.zeros((3, 3)))


def test_scatter_matches_naive_double_loop():
    rng = np.random.default_rng(11)
    labels = rng.integers(0, 2, size=6)
    while np.unique(labels).size < 2 or not np.any(np.bincount(labels) >= 2):
        labels = rng.integers(0, 2, size=6)
    cs = build_constraints(labels)
    for dim in (2, 3, 5):
        view = ViewMatrix(1, rng.standard_normal((dim, 6)))
        between, within = compute_scatter(view, cs)
        np.testing.assert_allclose(between, naive_pair_scatter(view.data, cs.dissimilar), atol=1e-12)
        np.testing.assert_allclose(within, naive_pair_scatter(view.data, cs.similar), atol=1e-12)


def test_scatter_matrices_are_symmetric_psd():
    rng = np.random.default_rng(3)
    labels = np.array([0, 0, 1, 1, 2, 2, 0, 1])
    cs = build_constraints(labels)
    view = ViewMatrix(1, rng.standard_normal((4, 8)))
    for mat in compute_scatter(view, cs):
        assert np.array_equal(mat, mat.T)
        assert np.linalg.eigvalsh(mat).min() >= -1e-10


def test_scatter_index_out_of_range():
    view = ViewMatrix(1, np.zeros((2, 3)))
    cs = ConstraintSet(similar=np.array([[0, 1]]), dissimilar=np.array([[1, 3]]))
    with pytest.raises(ValueError, match="out of range"):
        compute_scatter(view, cs)


def test_duplicated_pairs_leave_average_unchanged():
    rng = np.random.default_rng(5)
    view = ViewMatrix(1, rng.standard_normal((3, 6)))
    pairs = np.array([[0, 1], [0, 2], [3, 5]])
    doubled = np.vstack([pairs, pairs])
    base = ConstraintSet(similar=pairs, dissimilar=pairs)
    dup = ConstraintSet(similar=pairs, dissimilar=doubled)
    np.testing.assert_allclose(
        compute_scatter(view, base)[0], compute_scatter(view, dup)[0], atol=1e-12
    )


def test_column_permutation_invariance():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((4, 7))
    labels = np.array([0, 1, 0, 1, 0, 1, 1])
    cs = build_constraints(labels)
    perm = rng.permutation(7)
    inverse = np.argsort(perm)
    permuted = ViewMatrix(1, data[:, perm])
    remapped = ConstraintSet(
        similar=np.sort(inverse[cs.similar], axis=1),
        dissimilar=np.sort(inverse[cs.dissimilar], axis=1),
    )
    for a, b in zip(compute_scatter(ViewMatrix(1, data), cs), compute_scatter(permuted, remapped)):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_cross_duplicated_view_is_gram():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((3, 5))
    c = compute_cross(ViewMatrix(1, data), ViewMatrix(2, data), np.arange(5))
    np.testing.assert_allclose(c, data @ data.T, atol=1e-12)
    np.testing.assert_allclose(c, c.T, atol=1e-12)
    assert np.linalg.eigvalsh((c + c.T) / 2).min() >= -1e-10


def test_cross_single_sample_outer_product():
    a = ViewMatrix(1, np.array([[1.0, 1.0], [2.0, 2.0]]))
    b = ViewMatrix(2, np.array([[3.0, 3.0]]))
    c = compute_cross(a, b, np.array([0]))
    np.testing.assert_array_equal(c, np.array([[3.0], [6.0]]))


def test_cross_matches_naive_accumulation():
    rng = np.random.default_rng(9)
    a = ViewMatrix(1, rng.standard_normal((4, 6)))
    b = ViewMatrix(2, rng.standard_normal((3, 6)))
    idx = np.array([0, 2, 3, 5])
    c = compute_cross(a, b, idx)
    np.testing.assert_allclose(c, naive_cross(a.data[:, idx], b.data[:, idx]), atol=1e-12)


def test_cross_of_swapped_views_is_the_transpose():
    # each order is its own product; the coupling matrix keeps one and its
    # exact transpose, so only rounding may separate the two orders
    rng = np.random.default_rng(13)
    a = ViewMatrix(1, rng.standard_normal((4, 6)))
    b = ViewMatrix(2, rng.standard_normal((3, 6)))
    idx = np.arange(6)
    np.testing.assert_allclose(compute_cross(a, b, idx), compute_cross(b, a, idx).T, rtol=0, atol=1e-12)


def test_cross_same_view_rejected():
    view = ViewMatrix(1, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="distinct views"):
        compute_cross(view, view, np.arange(3))


def test_cross_uses_only_training_columns():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((2, 8))
    b = rng.standard_normal((3, 8))
    idx = np.array([1, 4, 6])
    c = compute_cross(ViewMatrix(1, a), ViewMatrix(2, b), idx)
    np.testing.assert_allclose(c, a[:, idx] @ b[:, idx].T, atol=1e-12)


def test_scatter_peak_memory_is_two_pair_arrays():
    # with 10,000 pairs of 20 features the pair arrays dwarf the 20 x 20
    # scatter: gathering both ends of every pair and then subtracting into a
    # third array peaks at about three pair arrays, subtracting in place at two
    rng = np.random.default_rng(19)
    labels = np.repeat([0, 1], 100)
    cs = build_constraints(labels)
    view = ViewMatrix(1, rng.standard_normal((20, 200)))
    pair_bytes = max(len(cs.similar), len(cs.dissimilar)) * 20 * 8
    tracemalloc.start()
    try:
        between, within = compute_scatter(view, cs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * pair_bytes
    # the same differences as subtracting into a fresh array, so the same bits
    for scatter, pairs in ((between, cs.dissimilar), (within, cs.similar)):
        diffs = view.data[:, pairs[:, 0]] - view.data[:, pairs[:, 1]]
        reference = (diffs @ diffs.T) / len(pairs)
        assert np.array_equal(scatter, (reference + reference.T) / 2.0)


def test_coupling_matrix_blocks_are_the_scatters_and_crosses_bit_for_bit():
    rng = np.random.default_rng(23)
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 1])
    cs = build_constraints(labels)
    dims = [3, 5, 2, 4]
    views = [ViewMatrix(v + 1, rng.standard_normal((dim, 9))) for v, dim in enumerate(dims)]
    K = coupling_matrix(views, cs)
    offsets = np.concatenate([[0], np.cumsum(dims)])
    block = [slice(lo, hi) for lo, hi in zip(offsets, offsets[1:])]
    assert K.shape == (14, 14)
    for v, view in enumerate(views):
        between, within = compute_scatter(view, cs)
        assert np.array_equal(K[block[v], block[v]], between - within)
        for w in range(v + 1, len(views)):
            cross = compute_cross(view, views[w], np.arange(9))
            assert np.array_equal(K[block[v], block[w]], cross)
            assert np.array_equal(K[block[w], block[v]], cross.T)
    assert np.array_equal(K, K.T)
