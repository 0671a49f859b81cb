import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvmetric import (
    Hyperparams,
    ViewMatrix,
    build_constraints,
    generate_synthetic,
    run_benchmark,
)
from mvmetric.scatter import compute_scatter


def pair_counts(labels):
    """Brute-force double loop over every pair i < j: (same-class, different-class)."""
    n = len(labels)
    same = sum(labels[i] == labels[j] for i in range(n) for j in range(i + 1, n))
    return same, n * (n - 1) // 2 - same


def test_three_sample_enumeration():
    cs = build_constraints(np.array(["a", "a", "b"]))
    assert cs.labels.tolist() == [0, 0, 1]
    assert pair_counts(cs.labels) == (1, 2)
    assert cs.n_similar == 1
    assert cs.n_dissimilar == 2


def test_single_class_fails():
    with pytest.raises(ValueError, match="no dissimilar pairs"):
        build_constraints(np.array([1, 1, 1]))


def test_all_distinct_classes_fails():
    with pytest.raises(ValueError, match="no similar pairs"):
        build_constraints(np.array([1, 2, 3]))


def test_fewer_than_two_samples_fail():
    with pytest.raises(ValueError, match="at least 2 samples"):
        build_constraints(np.array([4]))


def test_two_balanced_classes_counts():
    labels = np.array([0] * 10 + [1] * 10)
    cs = build_constraints(labels)
    assert pair_counts(labels) == (90, 100)
    assert (cs.n_similar, cs.n_dissimilar) == (90, 100)
    assert isinstance(cs.n_similar, int) and isinstance(cs.n_dissimilar, int)


@settings(max_examples=60, deadline=None)
@given(labels=st.lists(st.integers(-2, 3), min_size=2, max_size=15))
def test_counts_match_a_double_loop(labels):
    labels = np.array(labels)
    assume(0 < pair_counts(labels)[0] < len(labels) * (len(labels) - 1) // 2)
    cs = build_constraints(labels)
    assert (cs.n_similar, cs.n_dissimilar) == pair_counts(labels)


def test_pairs_are_ordered_and_disjoint():
    # each unordered pair i < j is counted once, in exactly one of the sets
    labels = np.array([0, 1, 0, 1, 2, 2, 0])
    cs = build_constraints(labels)
    assert (cs.n_similar, cs.n_dissimilar) == pair_counts(labels) == (5, 16)
    assert cs.n_similar + cs.n_dissimilar == 7 * 6 // 2


def test_negative_labels_are_renumbered():
    # build_constraints maps any label, negative ones too, to class indices
    assert build_constraints([-1, 0, 0, -1]).labels.tolist() == [0, 1, 1, 0]


def test_valid_indices_reach_the_scatter_unchanged():
    cs = build_constraints(np.array([0, 0, 1], dtype=np.uint8))
    assert cs.labels.dtype == np.intp
    # columns (0, 3), (1, 4), (2, 5): the same-class pair differs by (1, 1),
    # the different-class pairs by (2, 2) and (1, 1)
    view = ViewMatrix(1, np.arange(6.0).reshape(2, 3))
    between, within = compute_scatter(view, cs)
    np.testing.assert_allclose(within, np.ones((2, 2)), rtol=0, atol=1e-15)
    np.testing.assert_allclose(between, np.full((2, 2), 2.5), rtol=0, atol=1e-15)


def test_labels_become_a_read_only_class_index_vector():
    cs = build_constraints(np.array([7, 2, 7, 30, 2], dtype=np.int16))
    assert cs.labels.tolist() == [1, 0, 1, 2, 0]
    assert cs.labels.dtype.kind == "i"
    with pytest.raises(ValueError, match="read-only"):
        cs.labels[0] = 5


def test_labels_must_be_a_vector():
    with pytest.raises(ValueError, match="must be a vector"):
        build_constraints(np.array([[0, 0], [1, 1]]))


def test_any_label_type_reaches_the_scatter_as_the_same_partition():
    view = ViewMatrix(1, np.arange(12.0).reshape(3, 4))
    expected = compute_scatter(view, build_constraints([0, 0, 1, 1]))
    for labels in (np.array([2, 2, 9, 9], dtype=np.uint8), ["a", "a", "b", "b"], [-1.0, -1.0, 2.0, 2.0]):
        cs = build_constraints(labels)
        assert cs.labels.tolist() == [0, 0, 1, 1]
        for a, b in zip(compute_scatter(view, cs), expected):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("cap", [1, 30, np.int64(30), 0])
def test_any_pair_cap_is_rejected(cap):
    with pytest.raises(ValueError, match="max_pairs_per_set is no longer supported"):
        build_constraints([0, 0, 1], cap)


def test_cap_leaves_small_sets_alone():
    # None, the only cap left, keeps every pair, and the seed changes nothing
    labels = np.array([0, 0, 1])
    capped = build_constraints(labels, None, seed=5)
    assert capped.n_similar == 1
    assert capped.n_dissimilar == 2
    assert np.array_equal(capped.labels, build_constraints(labels).labels)


@pytest.mark.parametrize(
    "cap, error",
    [(True, TypeError), (2.5, TypeError), (np.float64(3.0), TypeError), ("3", TypeError), (0, ValueError)],
)
@pytest.mark.parametrize("labels", [[0, 0, 1], [0] * 10 + [1] * 10], ids=["cap-not-binding", "cap-binding"])
def test_cap_must_be_a_positive_integer(cap, error, labels):
    # no cap is accepted any more, whatever the set's size: a cap that is not
    # an integer is still a TypeError, an integer one a ValueError
    with pytest.raises(error, match="max_pairs_per_set"):
        build_constraints(labels, cap)


def test_cap_is_checked_before_a_benchmark_fits():
    ds = generate_synthetic(2, 5, [3, 4], seed=0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'max_pairs_per_set'"):
        run_benchmark(ds, 6, 1, Hyperparams(embed_dim=2), max_pairs_per_set=30)


@settings(max_examples=60, deadline=None)
@given(
    labels=st.lists(st.integers(0, 3), min_size=3, max_size=12),
    mapping=st.permutations(list(range(4))),
)
def test_relabeling_bijection_leaves_pairs_unchanged(labels, mapping):
    labels = np.array(labels)
    assume(np.unique(labels).size >= 2 and np.any(np.bincount(labels) >= 2))
    relabeled = np.array([mapping[c] for c in labels])
    a, b = build_constraints(labels), build_constraints(relabeled)
    assert np.array_equal(a.labels[:, None] == a.labels, b.labels[:, None] == b.labels)
    assert (a.n_similar, a.n_dissimilar) == (b.n_similar, b.n_dissimilar)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(4, 10))
def test_sample_permutation_consistency(data, n):
    labels = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    assume(np.unique(labels).size >= 2 and np.any(np.bincount(labels) >= 2))
    perm = np.array(data.draw(st.permutations(list(range(n)))))
    # position p in the permuted labels corresponds to original index perm[p]
    assert np.array_equal(build_constraints(labels[perm]).labels, build_constraints(labels).labels[perm])
