import json
import re

import numpy as np
import pytest

import mvmetric.dataset
from mvmetric import (
    Hyperparams,
    MultiviewDataset,
    SplitSpec,
    ViewMatrix,
    build_constraints,
    generate_synthetic,
    load_dataset,
    load_manifest,
    split,
    train,
    write_dataset,
)


def _write_csv(path, rows):
    path.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in rows) + "\n")


def _write_labels(path, labels):
    path.write_text("\n".join(str(c) for c in labels) + "\n")


def test_load_dataset_shapes(tmp_path):
    rng = np.random.default_rng(0)
    _write_csv(tmp_path / "a.csv", rng.standard_normal((5, 3)))
    _write_csv(tmp_path / "b.csv", rng.standard_normal((5, 4)))
    _write_labels(tmp_path / "labels.txt", [0, 0, 1, 1, 1])
    ds = load_dataset([tmp_path / "a.csv", tmp_path / "b.csv"], tmp_path / "labels.txt")
    assert ds.m == 2
    assert ds.n == 5
    assert ds.view_dims == [3, 4]


def test_load_dataset_sample_count_mismatch(tmp_path):
    rng = np.random.default_rng(0)
    _write_csv(tmp_path / "a.csv", rng.standard_normal((5, 3)))
    _write_csv(tmp_path / "b.csv", rng.standard_normal((6, 3)))
    _write_labels(tmp_path / "labels.txt", [0, 0, 1, 1, 1])
    with pytest.raises(ValueError, match="sample count mismatch"):
        load_dataset([tmp_path / "a.csv", tmp_path / "b.csv"], tmp_path / "labels.txt")


def test_load_dataset_single_class(tmp_path):
    rng = np.random.default_rng(0)
    _write_csv(tmp_path / "a.csv", rng.standard_normal((4, 2)))
    _write_csv(tmp_path / "b.csv", rng.standard_normal((4, 2)))
    _write_labels(tmp_path / "labels.txt", [3, 3, 3, 3])
    with pytest.raises(ValueError, match="fewer than 2 classes"):
        load_dataset([tmp_path / "a.csv", tmp_path / "b.csv"], tmp_path / "labels.txt")


@pytest.mark.parametrize(
    "bad",
    [
        [0.5, 1.5, 1.0],
        [0.0, np.nan, 1.0],
        [0.0, np.inf, 1.0],
        [0.0, 1e20, 1.0],
        # an int cast would make these a negative label, 1/0, a ComplexWarning
        # and numpy's own message, which names no argument
        np.array([2**63 + 5, 1, 1], dtype=np.uint64),
        [True, False, False],
        [0j, 1, 1],
        ["0", "1", "1"],
        np.array([0, 1, 1], dtype=object),
    ],
)
def test_non_integral_labels_are_rejected(bad):
    view = ViewMatrix(1, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="labels must be integers, got non-integral"):
        MultiviewDataset((view,), np.array(bad))
    for labels in (
        [0, 1, 1],
        np.array([0, 1, 1], dtype=np.uint8),
        np.array([0.0, 1.0, 1.0]),
        np.array([0, 2**63 - 1, 1], dtype=np.uint64),
    ):
        ds = MultiviewDataset((view,), labels)
        np.testing.assert_array_equal(ds.labels, np.asarray(labels).astype(np.int64))


def test_load_dataset_non_numeric(tmp_path):
    (tmp_path / "a.csv").write_text("1.0,2.0\nx,3.0\n")
    _write_csv(tmp_path / "b.csv", [[1.0], [2.0]])
    _write_labels(tmp_path / "labels.txt", [0, 1])
    with pytest.raises(ValueError):
        load_dataset([tmp_path / "a.csv", tmp_path / "b.csv"], tmp_path / "labels.txt")


@pytest.mark.parametrize("text", ["", "\n\n", "# comment\n"])
def test_a_view_file_without_data_rows_is_one_error_naming_it(tmp_path, text):
    # numpy only warns on such a file and returns an empty array
    (tmp_path / "a.csv").write_text(text)
    _write_csv(tmp_path / "b.csv", [[1.0], [2.0]])
    _write_labels(tmp_path / "labels.txt", [0, 1])
    with pytest.raises(ValueError, match=re.escape(f"view file {tmp_path / 'a.csv'}: no data rows")):
        load_dataset([tmp_path / "a.csv", tmp_path / "b.csv"], tmp_path / "labels.txt")


def test_load_dataset_label_count_mismatch(tmp_path):
    rng = np.random.default_rng(0)
    _write_csv(tmp_path / "a.csv", rng.standard_normal((4, 2)))
    _write_csv(tmp_path / "b.csv", rng.standard_normal((4, 2)))
    _write_labels(tmp_path / "labels.txt", [0, 1, 0])
    with pytest.raises(ValueError, match="label count"):
        load_dataset([tmp_path / "a.csv", tmp_path / "b.csv"], tmp_path / "labels.txt")


def test_roundtrip_is_bit_exact(tmp_path):
    # a 1500-feature view file is one 1500-field CSV row per sample
    for i, ds in enumerate([generate_synthetic(3, 4, [3, 5], seed=7), generate_synthetic(3, 10, [4, 1500], seed=2)]):
        reloaded = load_manifest(write_dataset(ds, tmp_path / f"data{i}"))
        assert reloaded.view_dims == ds.view_dims
        for a, b in zip(ds.views, reloaded.views):
            assert np.array_equal(_bits(a.data), _bits(b.data))
        assert np.array_equal(ds.labels, reloaded.labels)


def _bits(a):
    # bit patterns, so that -0.0 differs from 0.0
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def test_writer_bytes_match_savetxt(tmp_path):
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 3.0, -7.0, 0.0]
    wide = np.resize(np.array(extremes), (300, 2))
    wide[10:] += np.random.default_rng(0).standard_normal((290, 2))
    datasets = [
        # 2 samples: a 1-feature view and a 300-feature view of extreme values
        MultiviewDataset((ViewMatrix(1, [[-0.0, 5e-324]]), ViewMatrix(2, wide)), [0, 1]),
        # integral floats and +5-shifted Gaussian data
        MultiviewDataset(
            (
                ViewMatrix(1, np.arange(-12.0, 12.0).reshape(2, 12)),
                ViewMatrix(2, generate_synthetic(2, 6, [7, 3], seed=3).views[0].data + 5.0),
            ),
            np.repeat([0, 1], 6),
        ),
    ]
    for i, ds in enumerate(datasets):
        reloaded = load_manifest(write_dataset(ds, tmp_path / f"data{i}"))
        for v, back in zip(ds.views, reloaded.views):
            expected = tmp_path / f"expected{i}-{v.view_id}.csv"
            np.savetxt(expected, v.data.T, fmt="%.17g", delimiter=",")
            assert (tmp_path / f"data{i}" / f"view{v.view_id}.csv").read_bytes() == expected.read_bytes()
            assert back.data.shape == v.data.shape
            assert np.array_equal(_bits(back.data), _bits(v.data))
        assert np.array_equal(reloaded.labels, ds.labels)


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_generate_keeps_the_random_stream(seed):
    # view 1 draws a 6 x 6 square for its directions and 6 x 12 noise; the
    # noise view 2 then takes the next 5 x 12 draws of the same stream
    ds = generate_synthetic(3, 4, [6, 5], noise_views={2}, seed=seed)
    rng = np.random.default_rng(seed)
    rng.standard_normal((6, 6))
    rng.standard_normal((6, 12))
    assert np.array_equal(_bits(ds.views[1].data), _bits(rng.standard_normal((5, 12))))


def _full_square_qr_reference(classes, per_class, view_dims, noise_views, seed, separation=4.0):
    # the construction that factorized the whole dim x dim draw
    n = classes * per_class
    labels = np.repeat(np.arange(classes), per_class)
    rng = np.random.default_rng(seed)
    views = []
    for i, dim in enumerate(view_dims):
        if i + 1 in noise_views:
            views.append(rng.standard_normal((dim, n)))
            continue
        directions, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        means = np.empty((dim, classes))
        for c in range(classes):
            means[:, c] = separation * (1 + c // dim) * directions[:, c % dim]
        views.append(means[:, labels] + rng.standard_normal((dim, n)))
    return views, labels


@pytest.mark.parametrize(
    "classes, per_class, view_dims, noise_views",
    [
        (3, 4, [6, 5], {2}),  # classes < dim
        (3, 60, [300, 200, 100], {3}),
        (4, 3, [4, 4, 9], set()),  # classes = dim
        (5, 3, [3, 2], {1}),  # classes > dim
    ],
)
def test_generate_matches_the_full_square_qr(classes, per_class, view_dims, noise_views):
    for seed in range(3):
        ds = generate_synthetic(classes, per_class, view_dims, noise_views=noise_views, seed=seed)
        views, labels = _full_square_qr_reference(classes, per_class, view_dims, noise_views, seed)
        assert np.array_equal(ds.labels, labels)
        for view, expected in zip(ds.views, views):
            if view.view_id in noise_views:
                assert np.array_equal(_bits(view.data), _bits(expected))
            else:
                np.testing.assert_allclose(view.data, expected, rtol=0, atol=1e-13)


def test_manifest_carries_format_version(tmp_path):
    ds = generate_synthetic(2, 3, [2, 2], seed=1)
    manifest = write_dataset(ds, tmp_path / "data", config={"seed": 1})
    doc = json.loads(manifest.read_text())
    assert doc["format_version"] == "1"
    assert doc["config"] == {"seed": 1}


@pytest.mark.parametrize("version", ["2", 7, None, "9"])
def test_load_manifest_rejects_other_format_versions(tmp_path, version):
    manifest = write_dataset(generate_synthetic(2, 3, [2, 2], seed=1), tmp_path / "data")
    doc = json.loads(manifest.read_text())
    doc["format_version"] = version
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(f"format_version {version!r} is not the supported '1'")):
        load_manifest(manifest)


def test_load_manifest_without_format_version(tmp_path):
    ds = generate_synthetic(2, 3, [2, 2], seed=1)
    manifest = write_dataset(ds, tmp_path / "data")
    doc = json.loads(manifest.read_text())
    del doc["format_version"]
    manifest.write_text(json.dumps(doc))
    loaded = load_manifest(manifest)
    assert np.array_equal(loaded.labels, ds.labels)
    assert all(np.array_equal(a.data, b.data) for a, b in zip(loaded.views, ds.views))


def test_views_aligned_on_sample_count():
    rng = np.random.default_rng(3)
    for seed in range(5):
        ds = generate_synthetic(2, 3 + seed, [2, 4], seed=seed)
        assert all(v.n_samples == ds.n for v in ds.views)
        assert ds.labels.shape == (ds.n,)


def test_split_sizes_partition_the_samples():
    rng = np.random.default_rng(5)
    views = (ViewMatrix(1, rng.standard_normal((4, 169))),)
    labels = rng.integers(0, 6, size=169)
    ds = MultiviewDataset(views, labels)
    sp = split(ds, 120, seed=9)
    assert sp.train_indices.shape[0] == 120
    assert sp.test_indices.shape[0] == 49
    assert np.intersect1d(sp.train_indices, sp.test_indices).size == 0
    union = np.union1d(sp.train_indices, sp.test_indices)
    assert np.array_equal(union, np.arange(169))


def test_split_deterministic_for_seed():
    ds = generate_synthetic(2, 10, [3, 3], seed=0)
    a = split(ds, 12, seed=4)
    b = split(ds, 12, seed=4)
    assert np.array_equal(a.train_indices, b.train_indices)
    assert np.array_equal(a.test_indices, b.test_indices)
    c = split(ds, 12, seed=5)
    assert not np.array_equal(a.train_indices, c.train_indices)


def test_split_train_count_out_of_range():
    ds = generate_synthetic(2, 5, [2, 2], seed=0)
    with pytest.raises(ValueError, match="train_count"):
        split(ds, ds.n, seed=0)
    with pytest.raises(ValueError, match="train_count"):
        split(ds, 1, seed=0)


def test_split_checks_its_count_and_seed_by_name():
    ds = generate_synthetic(2, 10, [3, 3], seed=0)
    for train_count, seed, error, message in [
        (12, True, TypeError, "seed must be an integer, got True"),
        (12, 1.0, TypeError, "seed must be an integer, got 1.0"),
        (12, -1, ValueError, "seed must be >= 0, got -1"),
        (2.5, 1, TypeError, "train_count must be an integer, got 2.5"),
        (True, 1, TypeError, "train_count must be an integer, got True"),
    ]:
        with pytest.raises(error, match=message):
            split(ds, train_count, seed)
    # numpy integers draw the split their plain int values draw
    sp = split(ds, np.int64(12), np.uint32(4))
    assert np.array_equal(sp.train_indices, split(ds, 12, 4).train_indices)


@pytest.mark.parametrize(
    "train_indices, test_indices, error, message",
    [
        ([0.5, 1.7, 2.2], [3], TypeError, "train_indices must be integers, got dtype float64"),
        ([0, 1], np.array([2.0, 3.0]), TypeError, "test_indices must be integers, got dtype float64"),
        ([2, 3], [True, False], TypeError, "test_indices must be integers, got dtype bool"),
        (np.arange(6).reshape(2, 3), [7], ValueError, r"train_indices: expected a 1-D array, got shape \(2, 3\)"),
        # on 12 samples, -1 would train on sample 11, a test sample
        ([-1, 0, 1, 2, 6, 7], [11, 3], ValueError, "train_indices must be >= 0, got -1"),
        ([0, 1], [-2, 3], ValueError, "test_indices must be >= 0, got -2"),
        ([0, 1, 1, 2], [3], ValueError, "train_indices must be distinct"),
        ([0, 1], [3, 3], ValueError, "test_indices must be distinct"),
    ],
)
def test_split_spec_takes_distinct_non_negative_integer_indices(train_indices, test_indices, error, message):
    with pytest.raises(error, match=message):
        SplitSpec(train_indices, test_indices)


def test_split_retries_until_two_classes():
    # 18 samples of class 0 and 2 of class 1: small train draws often miss class 1
    rng = np.random.default_rng(1)
    views = (ViewMatrix(1, rng.standard_normal((2, 20))), ViewMatrix(2, rng.standard_normal((3, 20))))
    labels = np.array([0] * 18 + [1] * 2)
    ds = MultiviewDataset(views, labels)
    for seed in range(20):
        sp = split(ds, 2, seed=seed)
        assert np.unique(labels[sp.train_indices]).size == 2


def test_split_fails_when_retries_exhausted(monkeypatch):
    rng = np.random.default_rng(2)
    views = (ViewMatrix(1, rng.standard_normal((2, 50))),)
    labels = np.array([0] * 49 + [1])
    ds = MultiviewDataset(views, labels)
    # seed 0 draws class-0-only on its first attempt; forbidding retries must fail
    monkeypatch.setattr(mvmetric.dataset, "SPLIT_RETRIES", 1)
    with pytest.raises(ValueError, match="retries"):
        split(ds, 2, seed=0)


def test_generate_shapes_and_determinism():
    ds = generate_synthetic(2, 20, [5, 5], seed=1)
    assert ds.n == 40
    assert ds.m == 2
    again = generate_synthetic(2, 20, [5, 5], seed=1)
    for a, b in zip(ds.views, again.views):
        assert np.array_equal(a.data, b.data)
    other = generate_synthetic(2, 20, [5, 5], seed=2)
    assert not np.array_equal(ds.views[0].data, other.views[0].data)


def test_generate_noise_view_is_label_independent():
    # the generator's own construction is the oracle: informative class means
    # sit >= 4 apart while the noise view's empirical class means nearly agree
    noise_gaps, signal_gaps = [], []
    for seed in range(10):
        ds = generate_synthetic(2, 20, [5, 5], noise_views={2}, seed=seed)
        for view, bucket in ((ds.views[0], signal_gaps), (ds.views[1], noise_gaps)):
            mean0 = view.data[:, ds.labels == 0].mean(axis=1)
            mean1 = view.data[:, ds.labels == 1].mean(axis=1)
            bucket.append(np.linalg.norm(mean0 - mean1))
    assert np.mean(signal_gaps) > 3.5
    assert np.mean(noise_gaps) < 2.0
    assert np.mean(noise_gaps) < np.mean(signal_gaps)


def test_generate_class_mean_separation():
    for seed in range(5):
        ds = generate_synthetic(4, 5, [3, 6], seed=seed)
        for view in ds.views:
            means = np.stack([view.data[:, ds.labels == c].mean(axis=1) for c in range(4)])
            for a in range(4):
                for b in range(a + 1, 4):
                    # sample means wobble around the true means by ~1/sqrt(5)
                    assert np.linalg.norm(means[a] - means[b]) > 2.5


def test_generate_more_classes_than_dimensions():
    # means reuse directions at growing radii once classes exceed the dimension,
    # so pairwise separation still holds
    ds = generate_synthetic(5, 8, [2, 3], seed=11)
    assert ds.n == 40
    for view in ds.views:
        means = np.stack([view.data[:, ds.labels == c].mean(axis=1) for c in range(5)])
        for a in range(5):
            for b in range(a + 1, 5):
                assert np.linalg.norm(means[a] - means[b]) > 2.5


def test_generate_validates_inputs():
    with pytest.raises(ValueError, match="classes"):
        generate_synthetic(1, 5, [3, 3], seed=0)
    with pytest.raises(ValueError, match="per_class"):
        generate_synthetic(2, 1, [3, 3], seed=0)
    with pytest.raises(ValueError, match="dims"):
        generate_synthetic(2, 5, [3, 1], seed=0)
    with pytest.raises(ValueError, match="noise_views"):
        generate_synthetic(2, 5, [3, 3], noise_views={3}, seed=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        generate_synthetic(2, 5, [3, 3], seed=-1)
    with pytest.raises(TypeError, match="seed must be an integer, got True"):
        generate_synthetic(2, 5, [3, 3], seed=True)
    # counts, dims, view ids and the separation are checked by name before
    # any draw: no int() truncation, no numpy message, no bool taken for 1
    for args, kwargs, message in [
        ((2.5, 5, [3, 3]), {}, "classes must be an integer, got 2.5"),
        ((True, 5, [3, 3]), {}, "classes must be an integer, got True"),
        ((2, 3.0, [3, 3]), {}, "per_class must be an integer, got 3.0"),
        ((2, 5, [2.7, 2]), {}, "view_dims entry must be an integer, got 2.7"),
        ((2, 5, [3, 3]), {"noise_views": {2.5}}, "noise_views entry must be an integer, got 2.5"),
        ((2, 5, [3, 3]), {"noise_views": {True}}, "noise_views entry must be an integer, got True"),
        ((2, 5, [3, 3]), {"separation": "4"}, "separation must be a number, got '4'"),
        ((2, 5, [3, 3]), {"separation": True}, "separation must be a number, got True"),
    ]:
        with pytest.raises(TypeError, match=re.escape(message)):
            generate_synthetic(*args, seed=0, **kwargs)
    # numpy integers are integers
    ds = generate_synthetic(np.int64(2), np.int32(3), [np.int64(2), 3], noise_views={np.int64(2)}, seed=0)
    same = generate_synthetic(2, 3, [2, 3], noise_views={2}, seed=0)
    for a, b in zip(ds.views, same.views):
        assert np.array_equal(a.data, b.data)
    # and an integer or numpy separation is the same real number
    for separation in (4, np.float32(4.0), np.int64(4)):
        other = generate_synthetic(2, 3, [2, 3], noise_views={2}, seed=0, separation=separation)
        for a, b in zip(other.views, same.views):
            assert np.array_equal(a.data, b.data)


def test_standardize_flag(tmp_path):
    # the loader returns the features as written; training fits the scale on
    # the training columns and the model keeps it (std 0 -> 1)
    ds = generate_synthetic(2, 10, [3, 4], seed=0)
    constant = ds.views[0].data.copy()
    constant[1] = 7.0
    ds = MultiviewDataset((ViewMatrix(1, constant), ds.views[1]), ds.labels)
    manifest = write_dataset(ds, tmp_path / "data")
    raw = load_manifest(manifest)
    for a, b in zip(ds.views, raw.views):
        assert np.array_equal(a.data, b.data)
    with pytest.raises(TypeError, match="standardize"):
        load_manifest(manifest, standardize=True)
    sp = split(raw, 12, seed=0)
    cons = build_constraints(raw.labels[sp.train_indices])
    model = train(raw, sp, cons, Hyperparams(embed_dim=2, standardize=True))
    for view, scale in zip(raw.views, model.scales):
        columns = view.data[:, sp.train_indices]
        std = columns.std(axis=1)
        assert np.array_equal(scale, np.where(std == 0.0, 1.0, std))
        scaled = model.scaled(view.view_id, columns)
        np.testing.assert_allclose(scaled.std(axis=1), np.where(std == 0.0, 0.0, 1.0), atol=1e-12)
    assert model.scales[0][1] == 1.0
    assert train(raw, sp, cons, Hyperparams(embed_dim=2)).scales is None


@pytest.mark.parametrize("text", ["1_0", "\u0661", "1.0", "0x1"])
def test_labels_must_be_ascii_decimal_integers(tmp_path, text):
    _write_csv(tmp_path / "a.csv", [[1.0], [2.0], [3.0]])
    _write_csv(tmp_path / "b.csv", [[1.0], [2.0], [3.0]])
    (tmp_path / "labels.txt").write_text(f"+0\n{text}\n-1\n")
    with pytest.raises(ValueError, match=re.escape(f"labels.txt, line 2: not an integer: {text!r}")):
        load_dataset([tmp_path / "a.csv", tmp_path / "b.csv"], tmp_path / "labels.txt")
    (tmp_path / "labels.txt").write_text("+0\n10\n-1\n")
    ds = load_dataset([tmp_path / "a.csv", tmp_path / "b.csv"], tmp_path / "labels.txt")
    np.testing.assert_array_equal(ds.labels, [0, 10, -1])


def test_view_matrix_rejects_non_finite():
    bad = np.ones((2, 3))
    bad[0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ViewMatrix(1, bad)


def test_missing_files(tmp_path):
    _write_csv(tmp_path / "a.csv", [[1.0], [2.0]])
    _write_csv(tmp_path / "b.csv", [[1.0], [2.0]])
    with pytest.raises(FileNotFoundError, match="labels file not found"):
        load_dataset([tmp_path / "a.csv", tmp_path / "b.csv"], tmp_path / "missing.txt")
    with pytest.raises(FileNotFoundError, match="view file not found"):
        load_dataset([tmp_path / "a.csv", tmp_path / "zzz.csv"], tmp_path / "labels.txt")


@pytest.mark.parametrize("separation", [float("nan"), float("inf"), -float("inf")])
def test_generate_rejects_a_non_finite_separation(separation):
    with pytest.raises(ValueError, match=f"separation must be finite, got {separation}"):
        generate_synthetic(2, 3, [2, 2], separation=separation)
