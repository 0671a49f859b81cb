import json
import math
import re
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
from mvmetric.metric import CHECK_BLOCK, TRIANGLE_SLACK, _column_distances, _squared_distances


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
    for view in (True, 1.0):
        with pytest.raises(TypeError, match="view must be an integer"):
            view_distance(model, view, np.zeros(2), np.zeros(2))
        with pytest.raises(TypeError, match="view must be an integer"):
            metric_matrix(model, view)
    assert view_distance(model, np.int64(1), np.ones(2), np.zeros(2)) == view_distance(model, 1, np.ones(2), np.zeros(2))


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


def test_multiview_distance_takes_one_vector_per_view():
    model = make_model([np.eye(2), np.eye(3)[:, :2]], [0.5, 0.5])
    xs = [np.zeros(2), np.zeros(3)]
    for x, y in [(xs[:1], xs), (xs, xs[:1]), ([*xs, np.zeros(2)], xs)]:
        with pytest.raises(ValueError, match="expected 2 per-view vectors"):
            multiview_distance(model, x, y)


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


def test_axiom_checker_validates_inputs(monkeypatch):
    rng = np.random.default_rng(9)
    model = random_model(rng, [4], 2)
    with pytest.raises(ValueError, match="at least 3"):
        check_metric_axioms(model, 1, rng.standard_normal((4, 2)), trials=10, seed=0)
    with pytest.raises(ValueError, match="trials"):
        check_metric_axioms(model, 1, rng.standard_normal((4, 5)), trials=0, seed=0)

    ds = generate_synthetic(2, 10, [5, 6], seed=1)
    sp = split(ds, 12, seed=1)
    model = train(ds, sp, build_constraints(ds.labels[sp.train_indices]), Hyperparams(embed_dim=2))
    samples = ds.views[0].data
    # a bool would be written back into the report as true
    for argument, value, error in [
        ("view", True, TypeError),
        ("view", 1.0, TypeError),
        ("trials", True, TypeError),
        ("trials", 2.5, TypeError),
        ("seed", True, TypeError),
        ("seed", "1", TypeError),
        ("seed", -1, ValueError),
    ]:
        args = {"view": 1, "trials": 200, "seed": 0, argument: value}
        with pytest.raises(error, match=argument):
            check_metric_axioms(model, samples=samples, **args)
    # numpy scalars are stored as plain ints; a negative slack makes the
    # violation count depend on the seed, so the reports are compared on it
    monkeypatch.setattr(mvmetric.metric, "TRIANGLE_SLACK", -0.5)
    numpy_scalars = check_metric_axioms(model, np.int64(1), samples, np.int32(200), np.uint8(3))
    assert json.dumps(numpy_scalars) == json.dumps(check_metric_axioms(model, 1, samples, 200, 3))
    assert numpy_scalars["triangle_violations"] > 0
    assert [type(numpy_scalars[key]) for key in ("view", "trials", "seed")] == [int, int, int]


def test_axiom_checker_names_the_samples_shape():
    rng = np.random.default_rng(9)
    model = random_model(rng, [4], 2)
    for samples in (rng.standard_normal((3, 6)), rng.standard_normal(12), rng.standard_normal((4, 6, 1))):
        with pytest.raises(ValueError, match=re.escape("samples must have shape (4, N)")):
            check_metric_axioms(model, 1, samples, trials=10, seed=0)


def reference_distances(model, view, samples, trials, seed):
    """Per-triple reference for the batched check, from the samples projected once.

    Returns one row ``(d_xy, d_yx, d_yz, d_xz)`` per triple of the seed's
    draw.  The first 50 triples and the 50 on each side of every block
    boundary are cross-checked pair by pair against ``view_distance``.
    """
    triples = np.random.default_rng(seed).integers(samples.shape[1], size=(trials, 3))
    points = model.project(view, samples)
    i, j, k = triples.T
    pairs = ((i, j), (j, i), (j, k), (i, k))
    rows = np.stack([np.sqrt(((points[:, a] - points[:, b]) ** 2).sum(axis=0)) for a, b in pairs], axis=1)
    edges = range(CHECK_BLOCK, trials + 1, CHECK_BLOCK)
    near_edges = [t for edge in edges for t in range(edge - 50, min(edge + 50, trials))]
    for t in sorted({*range(min(50, trials)), *near_edges}):
        x, y, z = (samples[:, c] for c in triples[t])
        expected = [view_distance(model, view, a, b) for a, b in ((x, y), (y, x), (y, z), (x, z))]
        np.testing.assert_allclose(rows[t], expected, rtol=0.0, atol=1e-12)
    return rows


@pytest.mark.parametrize("trials", [100, CHECK_BLOCK, 2 * CHECK_BLOCK + 37])
# d = 10 sums enough feature rows for a changed summation order to show; d = 1 sums one
@pytest.mark.parametrize("dims, d", [([6, 9], 2), ([3, 4], 3), ([12, 20], 10), ([1, 5], 1)])
def test_batched_check_matches_per_triple_loop(monkeypatch, trials, dims, d):
    rng = np.random.default_rng(trials + d)
    model = random_model(rng, dims, d)  # d < dim: rank-deficient metric; d == dim: full rank
    for v, dim in enumerate(dims, start=1):
        samples = rng.standard_normal((dim, 40))
        d_xy, d_yx, d_yz, d_xz = reference_distances(model, v, samples, trials, 11).T
        violation = d_xz - (d_xy + d_yz)
        # a negative slack makes the violation count depend on the data, so it is compared too
        for slack in (TRIANGLE_SLACK, -0.5):
            monkeypatch.setattr(mvmetric.metric, "TRIANGLE_SLACK", slack)
            report = check_metric_axioms(model, v, samples, trials, seed=11)
            assert report["symmetry_mismatches"] == np.count_nonzero(d_xy != d_yx) == 0
            assert report["nonnegative"] is bool(min(d_xy.min(), d_yz.min(), d_xz.min()) >= 0.0)
            assert report["triangle_violations"] == np.count_nonzero(violation > slack)
            assert abs(report["max_triangle_violation"] - max(violation.max(), 0.0)) <= 1e-12
            assert report["distinguishable"] is (d == dim)
            assert type(report["triangle_violations"]) is int  # JSON-serialisable
            assert type(report["max_triangle_violation"]) is float
        assert report["triangle_violations"] > 0  # the negative slack did count something


@pytest.mark.parametrize("d", [1, 2, 10, 16])
def test_check_sums_each_distance_over_the_feature_rows_in_order(monkeypatch, d):
    # the reference adds one squared coordinate difference at a time, in
    # feature order, on the points the check projects; the gathers and the
    # summation order must reproduce it to the last bit
    rng = np.random.default_rng(200 + d)
    model = random_model(rng, [d + 3], d)
    samples = rng.standard_normal((d + 3, 50)) + 5.0
    trials = 2 * CHECK_BLOCK + 37
    distances = []

    def recording(a, b, diff):
        distances.append(_column_distances(a, b, diff))
        return distances[-1]

    monkeypatch.setattr(mvmetric.metric, "_column_distances", recording)
    check_metric_axioms(model, 1, samples, trials, seed=5)
    checked = np.concatenate([np.stack(distances[n : n + 4], axis=1) for n in range(0, len(distances), 4)])
    points = model.project(1, samples).T.tolist()
    expected = []
    for i, j, k in np.random.default_rng(5).integers(samples.shape[1], size=(trials, 3)).tolist():
        row = []
        for a, b in ((i, j), (j, i), (j, k), (i, k)):
            total = 0.0
            for p, q in zip(points[a], points[b]):
                total += (p - q) * (p - q)
            row.append(math.sqrt(total))
        expected.append(row)
    np.testing.assert_array_equal(checked, np.array(expected))


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


def test_check_rejects_samples_whose_distances_overflow():
    # every distance is inf, and NaN fails every comparison, so a report
    # would read clean; the check names the view instead
    rng = np.random.default_rng(15)
    model = random_model(rng, [4, 3], 2)
    samples = rng.standard_normal((4, 30))
    assert check_metric_axioms(model, 1, samples, trials=100)["triangle_violations"] == 0
    with pytest.raises(ValueError, match="^view 1: distances overflow float64$"):
        check_metric_axioms(model, 1, samples * 1e160, trials=100)


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
    distances = []

    def recording(a, b, diff):
        distances.append(_column_distances(a, b, diff))
        return distances[-1]

    monkeypatch.setattr(mvmetric.metric, "_column_distances", recording)
    check_metric_axioms(model, 1, samples, trials, seed=3)
    checked = distances[0]  # d(x, y) of every triple
    scored = []

    def recording_distances(*args):
        squared = _squared_distances(*args)
        scored.append(np.sqrt(squared[0, 0]))
        return squared

    monkeypatch.setattr(mvmetric.eval, "_squared_distances", recording_distances)
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


@pytest.mark.parametrize("seed", range(6))
def test_reported_rank_is_the_projection_rank(seed):
    # d < D_v gives a rank-deficient metric, d == D_v a full-rank one
    rng = np.random.default_rng(100 + seed)
    dims = [int(n) for n in rng.integers(1, 9, size=3)]
    d = int(rng.integers(1, min(dims) + 1))
    model = random_model(rng, dims, d)
    for v, dim in enumerate(dims, start=1):
        report = check_metric_axioms(model, v, rng.standard_normal((dim, 5)), trials=10, seed=0)
        assert report["rank"] == np.linalg.matrix_rank(model.projections[v - 1]) == d
        assert report["distinguishable"] is bool(np.linalg.matrix_rank(metric_matrix(model, v)) == dim)


def test_reported_rank_is_the_projection_rank_of_a_standardized_model():
    ds = generate_synthetic(2, 10, [4, 7], seed=16)
    sp = split(ds, 12, seed=0)
    model = train(ds, sp, build_constraints(ds.labels[sp.train_indices]), Hyperparams(embed_dim=3, standardize=True))
    for v, dim in enumerate(ds.view_dims, start=1):
        report = check_metric_axioms(model, v, ds.views[v - 1].data, trials=10, seed=0)
        # the projection as applied to raw samples: feature scales, then W_v.T
        assert report["rank"] == np.linalg.matrix_rank(model.project(v, np.eye(dim))) == 3
