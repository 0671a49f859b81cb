import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvmetric import ConstraintSet, ViewMatrix, build_constraints, compute_scatter


def _as_pair_set(pairs):
    return {(int(i), int(j)) for i, j in pairs}


def test_three_sample_enumeration():
    cs = build_constraints(np.array(["a", "a", "b"]))
    assert _as_pair_set(cs.similar) == {(0, 1)}
    assert _as_pair_set(cs.dissimilar) == {(0, 2), (1, 2)}
    assert cs.n_similar == 1
    assert cs.n_dissimilar == 2


def test_single_class_fails():
    with pytest.raises(ValueError, match="no dissimilar pairs"):
        build_constraints(np.array([1, 1, 1]))


def test_all_distinct_classes_fails():
    with pytest.raises(ValueError, match="no similar pairs"):
        build_constraints(np.array([1, 2, 3]))


def test_two_balanced_classes_counts():
    labels = np.array([0] * 10 + [1] * 10)
    cs = build_constraints(labels)
    # brute-force double loop as the oracle
    n_sim = sum(
        labels[i] == labels[j] for i in range(20) for j in range(i + 1, 20)
    )
    n_dis = sum(
        labels[i] != labels[j] for i in range(20) for j in range(i + 1, 20)
    )
    assert (n_sim, n_dis) == (90, 100)
    assert cs.n_similar == 90
    assert cs.n_dissimilar == 100


def test_pairs_are_ordered_and_disjoint():
    labels = np.array([0, 1, 0, 1, 2, 2, 0])
    cs = build_constraints(labels)
    assert np.all(cs.similar[:, 0] < cs.similar[:, 1])
    assert np.all(cs.dissimilar[:, 0] < cs.dissimilar[:, 1])
    assert _as_pair_set(cs.similar).isdisjoint(_as_pair_set(cs.dissimilar))
    for i, j in cs.similar:
        assert labels[i] == labels[j]
    for i, j in cs.dissimilar:
        assert labels[i] != labels[j]


def test_negative_indices_are_rejected():
    # (-1, 0) satisfies i < j, and numpy would read -1 as the last sample
    with pytest.raises(ValueError, match="similar pairs must have non-negative indices"):
        ConstraintSet([[-1, 0]], [[0, 1]])
    with pytest.raises(ValueError, match="dissimilar pairs must have non-negative indices"):
        ConstraintSet([[0, 1]], [[0, 2], [-3, -2]])


def test_non_integer_indices_are_rejected():
    with pytest.raises(ValueError, match="similar pairs must be integer indices"):
        ConstraintSet([[0.5, 1]], [[0, 1]])
    with pytest.raises(ValueError, match="dissimilar pairs must be integer indices"):
        ConstraintSet([[0, 1]], np.array([[0.0, 2.0]]))
    with pytest.raises(ValueError, match="integer indices"):
        ConstraintSet([[True, True]], [[0, 1]])


def test_valid_indices_reach_the_scatter_unchanged():
    cs = ConstraintSet(np.array([[0, 1]], dtype=np.uint8), [[1, 2]])
    assert cs.similar.dtype == int
    view = ViewMatrix(1, np.arange(6.0).reshape(2, 3))
    scatter = compute_scatter(view, cs)
    assert np.array_equal(scatter.within, np.ones((2, 2)))
    assert np.array_equal(scatter.between, np.ones((2, 2)))


def test_cap_subsamples_deterministically():
    labels = np.array([0] * 10 + [1] * 10)
    a = build_constraints(labels, max_pairs_per_set=30, seed=5)
    b = build_constraints(labels, max_pairs_per_set=30, seed=5)
    assert np.array_equal(a.similar, b.similar)
    assert np.array_equal(a.dissimilar, b.dissimilar)
    assert a.n_similar == 30
    assert a.n_dissimilar == 30
    full = build_constraints(labels)
    assert _as_pair_set(a.similar) <= _as_pair_set(full.similar)
    c = build_constraints(labels, max_pairs_per_set=30, seed=6)
    assert not np.array_equal(a.similar, c.similar)


def test_cap_leaves_small_sets_alone():
    labels = np.array([0, 0, 1])
    capped = build_constraints(labels, max_pairs_per_set=100, seed=0)
    assert capped.n_similar == 1
    assert capped.n_dissimilar == 2


@settings(max_examples=60, deadline=None)
@given(
    labels=st.lists(st.integers(0, 3), min_size=3, max_size=12),
    mapping=st.permutations(list(range(4))),
)
def test_relabeling_bijection_leaves_pairs_unchanged(labels, mapping):
    labels = np.array(labels)
    assume(np.unique(labels).size >= 2 and np.any(np.bincount(labels) >= 2))
    relabeled = np.array([mapping[c] for c in labels])
    a = build_constraints(labels)
    b = build_constraints(relabeled)
    assert _as_pair_set(a.similar) == _as_pair_set(b.similar)
    assert _as_pair_set(a.dissimilar) == _as_pair_set(b.dissimilar)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(4, 10))
def test_sample_permutation_consistency(data, n):
    labels = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    assume(np.unique(labels).size >= 2 and np.any(np.bincount(labels) >= 2))
    perm = np.array(data.draw(st.permutations(list(range(n)))))
    a = build_constraints(labels)
    b = build_constraints(labels[perm])
    # position p in the permuted labels corresponds to original index perm[p]
    mapped = {tuple(sorted((perm[i], perm[j]))) for i, j in b.similar}
    assert mapped == _as_pair_set(a.similar)
