import tracemalloc

import numpy as np
import pytest

import mvmetric.eval
import mvmetric.metric
from mvmetric import (
    Hyperparams,
    MultiviewDataset,
    MultiviewMetricModel,
    ViewMatrix,
    build_constraints,
    check_metric_axioms,
    generate_synthetic,
    knn_classify,
    metric_matrix,
    multiview_distance,
    split,
    train,
    view_distance,
)
from mvmetric.metric import CHECK_BLOCK, TRIANGLE_SLACK, _row_norms


def make_model(projections, weights, r=2.0):
    d = projections[0].shape[1]
    return MultiviewMetricModel(
        tuple(projections), np.asarray(weights, dtype=float), Hyperparams(embed_dim=d, weight_exponent=r)
    )


def random_model(rng, dims, d, r=2.0):
    blocks = [np.linalg.qr(rng.standard_normal((dim, d)))[0] for dim in dims]
    raw = rng.uniform(0.5, 2.0, size=len(dims))
    return make_model(blocks, raw / raw.sum(), r)


def test_metric_matrix_axis_projection():
    w = np.eye(4)[:, :2]
    model = make_model([w], [1.0])
    np.testing.assert_array_equal(metric_matrix(model, 1), np.diag([1.0, 1.0, 0.0, 0.0]))


def test_metric_matrix_eigenvalues_are_zeros_and_ones():
    rng = np.random.default_rng(0)
    model = random_model(rng, [6, 4], 3)
    for v, dim in ((1, 6), (2, 4)):
        eigs = np.sort(np.linalg.eigvalsh(metric_matrix(model, v)))
        np.testing.assert_allclose(eigs[: dim - 3], 0.0, atol=1e-8)
        np.testing.assert_allclose(eigs[dim - 3 :], 1.0, atol=1e-8)
        assert eigs.min() >= -1e-10


def test_quadratic_form_equals_projected_norm():
    rng = np.random.default_rng(1)
    model = random_model(rng, [5], 2)
    a = metric_matrix(model, 1)
    w = model.projections[0]
    for _ in range(100):
        x = rng.standard_normal(5)
        np.testing.assert_allclose(x @ a @ x, np.linalg.norm(w.T @ x) ** 2, atol=1e-12)


def test_view_distance_basics():
    model = make_model([np.eye(2)], [1.0])
    x = np.array([1.0, 0.0])
    assert view_distance(model, 1, x, x) == 0.0
    assert view_distance(model, 1, x, np.zeros(2)) == 1.0


def test_view_distance_validates_input():
    model = make_model([np.eye(2)], [1.0])
    with pytest.raises(ValueError, match="view index"):
        view_distance(model, 3, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match="shape"):
        view_distance(model, 1, np.zeros(3), np.zeros(2))


def test_multiview_distance_weighted_combination():
    # 1-D views engineered so the per-view distances are 3 and 4
    model = make_model([np.array([[1.0]]), np.array([[1.0]])], [0.5, 0.5], r=2.0)
    xs = [np.array([3.0]), np.array([4.0])]
    ys = [np.array([0.0]), np.array([0.0])]
    assert multiview_distance(model, xs, ys) == pytest.approx(2.5, abs=1e-12)
    assert multiview_distance(model, xs, xs) == 0.0
    # unequal weights enter squared, as a_v^r with r = 2
    model = make_model([np.array([[1.0]]), np.array([[1.0]])], [0.25, 0.75], r=2.0)
    assert multiview_distance(model, xs, ys) == pytest.approx(
        np.sqrt(0.25**2 * 9.0 + 0.75**2 * 16.0), abs=1e-12
    )


def test_identical_views_factorize():
    rng = np.random.default_rng(2)
    w = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    model = make_model([w, w.copy()], [0.5, 0.5], r=2.0)
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    combined = multiview_distance(model, [x, x], [y, y])
    single = view_distance(model, 1, x, y)
    scale = np.sqrt((np.array([0.5, 0.5]) ** 2).sum())
    np.testing.assert_allclose(combined, single * scale, rtol=1e-12)


def test_single_view_reduction_is_exact():
    rng = np.random.default_rng(3)
    w = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    model = make_model([w], [1.0])
    for _ in range(50):
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        assert multiview_distance(model, [x], [y]) == view_distance(model, 1, x, y)


def test_symmetry_is_bit_exact():
    rng = np.random.default_rng(4)
    model = random_model(rng, [5], 2)
    for _ in range(200):
        x, y = rng.standard_normal(5), rng.standard_normal(5)
        assert view_distance(model, 1, x, y) == view_distance(model, 1, y, x)


def test_triangle_inequality_sampled():
    rng = np.random.default_rng(5)
    model = random_model(rng, [6], 3)
    for _ in range(1000):
        x, y, z = rng.standard_normal((3, 6))
        lhs = view_distance(model, 1, x, z)
        rhs = view_distance(model, 1, x, y) + view_distance(model, 1, y, z)
        assert lhs <= rhs + 1e-9


def test_axiom_report_clean_model():
    rng = np.random.default_rng(6)
    model = random_model(rng, [5, 4], 2)
    samples = rng.standard_normal((5, 30))
    report = check_metric_axioms(model, 1, samples, trials=1000, seed=7)
    assert report["symmetry_exact"]
    assert report["nonnegative"]
    assert report["triangle_violations"] == 0
    assert report["max_triangle_violation"] <= 1e-9
    assert report["rank"] == 2
    assert report["distinguishable"] is False  # rank 2 < dim 5: pseudometric


def test_full_rank_model_is_distinguishable():
    rng = np.random.default_rng(7)
    w = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    model = make_model([w], [1.0])
    report = check_metric_axioms(model, 1, rng.standard_normal((3, 10)), trials=100, seed=0)
    assert report["distinguishable"] is True


def test_null_space_direction_has_zero_distance():
    rng = np.random.default_rng(8)
    w = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    model = make_model([w], [1.0])
    z = rng.standard_normal(5)
    null_component = z - w @ (w.T @ z)
    null_component /= np.linalg.norm(null_component)
    x = rng.standard_normal(5)
    y = x + null_component
    assert not np.allclose(x, y)
    assert view_distance(model, 1, x, y) < 1e-12


def test_axiom_checker_validates_inputs():
    rng = np.random.default_rng(9)
    model = random_model(rng, [4], 2)
    with pytest.raises(ValueError, match="at least 3"):
        check_metric_axioms(model, 1, rng.standard_normal((4, 2)), trials=10, seed=0)
    with pytest.raises(ValueError, match="trials"):
        check_metric_axioms(model, 1, rng.standard_normal((4, 5)), trials=0, seed=0)


def reference_distances(model, view, samples, trials, seed):
    """Per-triple loop over ``view_distance``: the reference for the batched check.

    Returns one row ``(d_xy, d_yx, d_yz, d_xz)`` per triple of the seed's draw.
    """
    triples = np.random.default_rng(seed).integers(samples.shape[1], size=(trials, 3))
    rows = []
    for i, j, k in triples:
        x, y, z = samples[:, i], samples[:, j], samples[:, k]
        rows.append([view_distance(model, view, a, b) for a, b in ((x, y), (y, x), (y, z), (x, z))])
    return np.array(rows)


@pytest.mark.parametrize("trials", [100, CHECK_BLOCK, 2 * CHECK_BLOCK + 37])
@pytest.mark.parametrize("dims, d", [([6, 9], 2), ([3, 4], 3)])
def test_batched_check_matches_per_triple_loop(trials, dims, d):
    rng = np.random.default_rng(trials + d)
    model = random_model(rng, dims, d)  # d < dim: rank-deficient metric; d == dim: full rank
    for v, dim in enumerate(dims, start=1):
        samples = rng.standard_normal((dim, 40))
        d_xy, d_yx, d_yz, d_xz = reference_distances(model, v, samples, trials, 11).T
        violation = d_xz - (d_xy + d_yz)
        # a negative slack makes the violation count depend on the data, so it is compared too
        for slack in (TRIANGLE_SLACK, -0.5):
            report = check_metric_axioms(model, v, samples, trials, seed=11, triangle_slack=slack)
            assert report["symmetry_mismatches"] == np.count_nonzero(d_xy != d_yx) == 0
            assert report["nonnegative"] is bool(min(d_xy.min(), d_yz.min(), d_xz.min()) >= 0.0)
            assert report["triangle_violations"] == np.count_nonzero(violation > slack)
            assert abs(report["max_triangle_violation"] - max(violation.max(), 0.0)) <= 1e-12
            assert report["distinguishable"] is (d == dim)
            assert type(report["triangle_violations"]) is int  # JSON-serialisable
            assert type(report["max_triangle_violation"]) is float
        assert report["triangle_violations"] > 0  # the negative slack did count something


@pytest.mark.parametrize("shift", [1e4, 1e6])
def test_check_is_clean_under_a_constant_shift(shift):
    rng = np.random.default_rng(12)
    model = random_model(rng, [8], 3)
    samples = rng.standard_normal((8, 50)) + shift
    report = check_metric_axioms(model, 1, samples, trials=5000, seed=1)
    assert report["symmetry_exact"]
    assert report["nonnegative"]
    assert report["triangle_violations"] == 0
    assert report["max_triangle_violation"] <= TRIANGLE_SLACK


def test_check_memory_does_not_grow_with_trials():
    rng = np.random.default_rng(13)
    model = random_model(rng, [20], 5)
    samples = rng.standard_normal((20, 500))
    tracemalloc.start()
    try:
        report = check_metric_axioms(model, 1, samples, trials=1_000_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["trials"] == 1_000_000
    assert peak < 10 * 2**20


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_rejects_non_finite_samples(bad):
    rng = np.random.default_rng(14)
    model = random_model(rng, [4], 2)
    samples = rng.standard_normal((4, 1000))
    samples[2, 999] = bad  # one trial almost surely never draws this column
    with pytest.raises(ValueError, match="non-finite"):
        check_metric_axioms(model, 1, samples, trials=1, seed=0)


def test_standardized_check_measures_the_distances_knn_scores(monkeypatch):
    # a standardised model is checked on raw samples, which it scales as
    # knn_classify does; features of very different units make the scale matter
    ds = generate_synthetic(2, 10, [4, 5], seed=15)
    units = np.array([[1e-2], [1.0], [30.0], [1e3]])
    ds = MultiviewDataset((ViewMatrix(1, ds.views[0].data * units), ds.views[1]), ds.labels)
    sp = split(ds, 12, seed=0)
    cons = build_constraints(ds.labels[sp.train_indices])
    model = train(ds, sp, cons, Hyperparams(embed_dim=2, standardize=True))
    samples, trials = ds.views[0].data, 40
    x, y = np.random.default_rng(3).integers(samples.shape[1], size=(trials, 3)).T[:2]  # the check's draw
    norms = []

    def recording(diff):
        norms.append(_row_norms(diff))
        return norms[-1]

    monkeypatch.setattr(mvmetric.metric, "_row_norms", recording)
    check_metric_axioms(model, 1, samples, trials, seed=3)
    checked = norms[0]  # d(x, y) of every triple
    scored = []
    monkeypatch.setattr(mvmetric.eval, "_knn_predict", lambda distances, labels, k: scored.append(distances[0]) or 0)
    # view 2's test vector equals its one training column, so only view 1 adds distance
    other = ds.views[1].data[:, :1]
    for i, j in zip(x, y):
        knn_classify(model, [samples[:, [j]], other], [0], [samples[:, i], other[:, 0]])
    np.testing.assert_allclose(checked, np.array(scored) / np.sqrt(model.powered_weights[0]), rtol=1e-12, atol=0.0)
    unscaled = np.linalg.norm(model.projections[0].T @ (samples[:, x] - samples[:, y]), axis=0)
    assert not np.allclose(checked, unscaled, rtol=0.5)
    # metric_matrix includes the scale: its quadratic form gives the same distances
    diffs = samples[:, x] - samples[:, y]
    quadratic = np.einsum("ij,ik,kj->j", diffs, metric_matrix(model, 1), diffs)
    np.testing.assert_allclose(quadratic, checked**2, rtol=1e-9, atol=1e-12)
