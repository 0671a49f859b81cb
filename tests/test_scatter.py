import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmetric import (
    ConstraintSet,
    ViewMatrix,
    build_constraints,
    compute_cross,
    compute_scatter,
    coupling_matrix,
)

EPS = np.finfo(float).eps


def naive_pair_scatter(data, labels, same):
    """Reference double loop over every pair i < j whose labels agree (``same``)
    or differ, accumulating (x_i - x_j)(x_i - x_j)^T / N."""
    dim, n = data.shape
    out = np.zeros((dim, dim))
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (labels[i] == labels[j]) == same:
                diff = data[:, i] - data[:, j]
                out += np.outer(diff, diff)
                count += 1
    return out / count


def naive_cross(a, b):
    """Reference per-sample accumulation of outer products."""
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[1]):
        out += np.outer(a[:, i], b[:, i])
    return out


def scatter_bound(data, shift=0.0):
    """Entrywise bound on how far a scatter of ``data`` may move when every
    entry is shifted by ``shift`` (rounding each by eps/2 of its size, so a
    pair's outer product moves by 4 eps m (|shift| + m), m = max |entry|) and
    when its sums run in another order (n terms of size up to 4 m^2)."""
    m = float(np.abs(data).max())
    return 8 * EPS * m * (abs(shift) + data.shape[1] * m)


def random_labels(rng, n, classes):
    labels = rng.integers(0, classes, size=n)
    while np.unique(labels).size < 2 or not np.any(np.bincount(labels) >= 2):
        labels = rng.integers(0, classes, size=n)
    return labels


def test_single_dissimilar_pair():
    # labels [0, 0, 1]: the one same-class pair has difference 0, and both
    # different-class pairs share one difference (1, 0), so the between
    # scatter is that of a single dissimilar pair
    view = ViewMatrix(1, np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
    between, within = compute_scatter(view, build_constraints([0, 0, 1]))
    np.testing.assert_allclose(between, np.array([[1.0, 0.0], [0.0, 0.0]]), rtol=0, atol=4 * EPS)
    np.testing.assert_array_equal(within, np.zeros((2, 2)))


def test_identical_samples_give_zero_within():
    col = np.array([2.0, -1.0, 3.0])
    view = ViewMatrix(1, np.column_stack([col, col, col + 1.0]))
    _, within = compute_scatter(view, build_constraints([5, 5, 7]))
    np.testing.assert_array_equal(within, np.zeros((3, 3)))


def test_scatter_matches_naive_double_loop():
    rng = np.random.default_rng(11)
    for n, classes in ((6, 2), (9, 3), (12, 4)):
        labels = random_labels(rng, n, classes)
        cs = build_constraints(labels)
        for dim in (1, 2, 3, 5):
            view = ViewMatrix(1, rng.standard_normal((dim, n)))
            between, within = compute_scatter(view, cs)
            np.testing.assert_allclose(between, naive_pair_scatter(view.data, labels, False), atol=1e-12)
            np.testing.assert_allclose(within, naive_pair_scatter(view.data, labels, True), atol=1e-12)


def test_scatter_matrices_are_symmetric_psd():
    rng = np.random.default_rng(3)
    labels = np.array([0, 0, 1, 1, 2, 2, 0, 1])
    cs = build_constraints(labels)
    view = ViewMatrix(1, rng.standard_normal((4, 8)))
    for mat in compute_scatter(view, cs):
        assert np.array_equal(mat, mat.T)
        assert np.linalg.eigvalsh(mat).min() >= -1e-10


def test_scatter_index_out_of_range():
    # the labels address the view's columns in order, so their count must match
    view = ViewMatrix(1, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="4 constraint labels for 3 samples"):
        compute_scatter(view, build_constraints([0, 0, 1, 1]))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 30),
    dim=st.integers(1, 6),
    shift=st.sampled_from([1.0, -7.5, 300.0, 1e4, -1e4]),
)
def test_scatter_ignores_a_constant_shift(seed, n, dim, shift):
    rng = np.random.default_rng(seed)
    labels = random_labels(rng, n, 3)
    data = rng.standard_normal((dim, n)) * rng.uniform(0.1, 3.0)
    shifted = data + shift
    cs = build_constraints(labels)
    bound = scatter_bound(data, shift)
    for a, b in zip(compute_scatter(ViewMatrix(1, data), cs), compute_scatter(ViewMatrix(1, shifted), cs)):
        np.testing.assert_allclose(a, b, rtol=0, atol=bound)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 30),
    dim=st.integers(1, 6),
    shift=st.sampled_from([1.0, -7.5, 300.0, 1e4, -1e4]),
)
def test_an_exact_offset_costs_no_accuracy(seed, n, dim, shift):
    # entries on a coarse binary grid: adding the shift rounds nothing, so the
    # shifted scatter must stay within the unshifted rounding bound (sums of
    # the offset before centring miss it by up to about 150 times at 1e4)
    rng = np.random.default_rng(seed)
    labels = random_labels(rng, n, 3)
    data = rng.integers(-64, 65, size=(dim, n)) / 2.0 ** rng.integers(2, 7)
    assert np.array_equal((data + shift) - shift, data)
    cs = build_constraints(labels)
    for a, b in zip(compute_scatter(ViewMatrix(1, data), cs), compute_scatter(ViewMatrix(1, data + shift), cs)):
        np.testing.assert_allclose(a, b, rtol=0, atol=scatter_bound(data))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(3, 20), dim=st.integers(1, 5))
def test_column_permutation_invariance(data, n, dim):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    labels = random_labels(rng, n, 3)
    values = rng.standard_normal((dim, n))
    perm = np.array(data.draw(st.permutations(list(range(n)))))
    a = compute_scatter(ViewMatrix(1, values), build_constraints(labels))
    b = compute_scatter(ViewMatrix(1, values[:, perm]), build_constraints(labels[perm]))
    for x, y in zip(a, b):
        np.testing.assert_allclose(x, y, rtol=0, atol=scatter_bound(values))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(3, 20), dim=st.integers(1, 5))
def test_scatter_ignores_a_relabelling_bijection(data, n, dim):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    labels = random_labels(rng, n, 4)
    values = rng.standard_normal((dim, n))
    mapping = data.draw(st.permutations([-3, 8, 2, 40]))
    relabelled = np.array([mapping[c] for c in labels])
    a = compute_scatter(ViewMatrix(1, values), build_constraints(labels))
    b = compute_scatter(ViewMatrix(1, values), build_constraints(relabelled))
    for x, y in zip(a, b):
        np.testing.assert_allclose(x, y, rtol=0, atol=scatter_bound(values))


def test_cross_duplicated_view_is_gram():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((3, 5))
    c = compute_cross(ViewMatrix(1, data), ViewMatrix(2, data))
    np.testing.assert_allclose(c, data @ data.T, atol=1e-12)
    np.testing.assert_allclose(c, c.T, atol=1e-12)
    assert np.linalg.eigvalsh((c + c.T) / 2).min() >= -1e-10


def test_cross_single_sample_outer_product():
    # a view needs two samples; a zero second sample adds nothing
    a = ViewMatrix(1, np.array([[1.0, 0.0], [2.0, 0.0]]))
    b = ViewMatrix(2, np.array([[3.0, 0.0]]))
    np.testing.assert_array_equal(compute_cross(a, b), np.array([[3.0], [6.0]]))
    # two copies of the sample add its outer product twice
    a2 = ViewMatrix(1, np.array([[1.0, 1.0], [2.0, 2.0]]))
    b2 = ViewMatrix(2, np.array([[3.0, 3.0]]))
    np.testing.assert_array_equal(compute_cross(a2, b2), np.array([[6.0], [12.0]]))


def test_cross_matches_naive_accumulation():
    rng = np.random.default_rng(9)
    a = ViewMatrix(1, rng.standard_normal((4, 6)))
    b = ViewMatrix(2, rng.standard_normal((3, 6)))
    np.testing.assert_allclose(compute_cross(a, b), naive_cross(a.data, b.data), atol=1e-12)


def test_cross_of_swapped_views_is_the_transpose():
    # each order is its own product; the coupling matrix keeps one and its
    # exact transpose, so only rounding may separate the two orders
    rng = np.random.default_rng(13)
    a = ViewMatrix(1, rng.standard_normal((4, 6)))
    b = ViewMatrix(2, rng.standard_normal((3, 6)))
    np.testing.assert_allclose(compute_cross(a, b), compute_cross(b, a).T, rtol=0, atol=1e-12)


def test_cross_bits_do_not_depend_on_the_layout():
    # fancy-indexed sample columns are column-major, a view built from a
    # row-major array (such as the reduced coordinates of a wide view) is not
    rng = np.random.default_rng(29)
    for dims in ((90, 90), (100, 100), (20, 20), (10, 50)):
        a, b = (rng.standard_normal((dim, 80)) for dim in dims)
        c_order = compute_cross(ViewMatrix(1, a), ViewMatrix(2, b))
        f_order = compute_cross(ViewMatrix(1, np.asfortranarray(a)), ViewMatrix(2, np.asfortranarray(b)))
        columns = np.arange(80)
        restricted = compute_cross(ViewMatrix(1, a[:, columns]), ViewMatrix(2, b[:, columns]))
        assert np.array_equal(c_order, f_order)
        assert np.array_equal(c_order, restricted)


def test_cross_same_view_rejected():
    view = ViewMatrix(1, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="distinct views"):
        compute_cross(view, view)


def test_cross_uses_only_training_columns():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((2, 8))
    b = rng.standard_normal((3, 8))
    idx = np.array([1, 4, 6])
    c = compute_cross(ViewMatrix(1, a[:, idx]), ViewMatrix(2, b[:, idx]))
    np.testing.assert_allclose(c, a[:, idx] @ b[:, idx].T, atol=1e-12)


def test_scatter_peak_memory_has_no_pair_term():
    # 2,000 samples in 4 classes make about 2 million pairs, whose difference
    # arrays would take 1.9 GB; the class form stays within four D x n arrays
    rng = np.random.default_rng(19)
    n, dim = 2000, 120
    labels = rng.permutation(np.arange(n) % 4)
    cs = build_constraints(labels)
    view = ViewMatrix(1, rng.standard_normal((dim, n)) + 5.0)
    tracemalloc.start()
    try:
        compute_scatter(view, cs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cs.n_similar + cs.n_dissimilar == n * (n - 1) // 2
    assert peak < 4 * 8 * dim * n


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
            cross = compute_cross(view, views[w])
            assert np.array_equal(K[block[v], block[w]], cross)
            assert np.array_equal(K[block[w], block[v]], cross.T)
    assert np.array_equal(K, K.T)


def test_coupling_matrix_checks_the_label_count():
    views = [ViewMatrix(1, np.zeros((2, 4))), ViewMatrix(2, np.zeros((3, 4)))]
    with pytest.raises(ValueError, match="3 constraint labels for 4 samples"):
        coupling_matrix(views, ConstraintSet(np.array([0, 0, 1])))
