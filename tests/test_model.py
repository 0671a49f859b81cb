import base64
import json
import re

import numpy as np
import pytest

from mvmetric import (
    Hyperparams,
    MultiviewMetricModel,
    build_constraints,
    generate_synthetic,
    split,
    train,
)
from mvmetric.model import _decode, _encode


def _trained_model(**hyper):
    ds = generate_synthetic(2, 8, [4, 5], seed=21)
    sp = split(ds, 10, seed=2)
    cs = build_constraints(ds.labels[sp.train_indices])
    return train(ds, sp, cs, Hyperparams(**{"embed_dim": 2, **hyper}))


def _floats(value: str) -> np.ndarray:
    """A model document's base64 array, read as README's one-line reader does, writable and flat."""
    return np.frombuffer(base64.b64decode(value), "<f8").copy()


def _b64(array) -> str:
    return base64.b64encode(np.asarray(array, "<f8").tobytes()).decode()


def _with_entry(value: str, index: int, entry: float) -> str:
    """``value`` decoded, its flat ``index``-th entry set to ``entry``, encoded again."""
    floats = _floats(value)
    floats[index] = entry
    return _b64(floats)


def test_hyperparams_validation():
    with pytest.raises(ValueError, match="r must be > 1"):
        Hyperparams(weight_exponent=1.0)
    with pytest.raises(ValueError, match="eta must be > 0"):
        Hyperparams(coupling_eta=0.0)
    with pytest.raises(ValueError, match="max_iters"):
        Hyperparams(max_iters=0)
    for tol in (0.0, float("inf")):
        with pytest.raises(ValueError, match="tol must be > 0 and finite"):
            Hyperparams(tol=tol)
    with pytest.raises(ValueError, match="d must be"):
        Hyperparams(embed_dim=0)
    with pytest.raises(ValueError, match="r must be > 1 and finite"):
        Hyperparams(weight_exponent=float("inf"))
    for bad in ({"embed_dim": 2.5}, {"max_iters": 2.5}):
        with pytest.raises(TypeError, match="integer"):
            Hyperparams(**bad)
    assert Hyperparams(coupling_eta=float("inf")).coupling_eta == float("inf")
    assert Hyperparams(embed_dim=np.int64(2), max_iters=np.int64(3)).max_iters == 3


def test_hyperparams_default_dim_resolution():
    assert Hyperparams().resolved([12, 30]).embed_dim == 10
    assert Hyperparams().resolved([4, 30]).embed_dim == 4
    assert Hyperparams(embed_dim=3).resolved([4, 30]).embed_dim == 3
    with pytest.raises(ValueError, match="exceeds"):
        Hyperparams(embed_dim=5).resolved([4, 30])


def test_save_load_roundtrip_is_exact(tmp_path):
    model = _trained_model()
    path = tmp_path / "model.json"
    model.save(path, config={"seed": 2})
    loaded = MultiviewMetricModel.load(path)
    for a, b in zip(model.projections, loaded.projections):
        assert np.array_equal(a, b)
    assert np.array_equal(model.view_weights, loaded.view_weights)
    assert model.hyper == loaded.hyper
    hyper_types = [type(getattr(loaded.hyper, f)) for f in Hyperparams.__dataclass_fields__]
    assert hyper_types == [int, float, float, int, float, bool]
    assert model.trace == loaded.trace
    assert loaded.stop_reason == model.stop_reason == "tol"
    doc = model.to_dict()
    del doc["max_iters"], doc["tol"]
    with pytest.raises(ValueError, match=re.escape("invalid model document: 'max_iters'")):
        MultiviewMetricModel.from_dict(doc)


def test_model_document_fields(tmp_path):
    model = _trained_model()
    doc = model.to_dict(config={"x": 1})
    assert doc["format_version"] == "2"
    assert doc["num_views"] == 2
    assert doc["view_dims"] == [4, 5]
    assert doc["embed_dim"] == 2
    assert doc["config"] == {"x": 1}
    # projections serialize row-major: 4 rows of 2 little-endian float64s
    assert len(base64.b64decode(doc["projections"][0])) == 4 * 2 * 8
    assert np.array_equal(_floats(doc["projections"][0]).reshape(4, 2), model.projections[0])
    assert np.array_equal(_floats(doc["projections"][1]).reshape(5, 2), model.projections[1])
    json.dumps(doc)  # must be JSON-serializable as-is


def test_projection_bytes_are_pinned():
    w = np.array([[0.6, -0.8], [0.8, 0.6]])
    doc = MultiviewMetricModel((w,), np.array([1.0]), Hyperparams(embed_dim=2)).to_dict()
    # row 0 (0.6, -0.8), then row 1 (0.8, 0.6), each float's lowest byte first
    assert doc["projections"] == ["MzMzMzMz4z+amZmZmZnpv5qZmZmZmek/MzMzMzMz4z8="]
    assert np.array_equal(MultiviewMetricModel.from_dict(doc).projections[0], w)


def test_extreme_floats_round_trip_bit_exactly(tmp_path):
    extremes = np.array([-0.0, 5e-324, np.finfo(float).max])
    assert _decode(_encode(extremes), "scales 1", 8).view(np.uint64).tolist() == extremes.view(np.uint64).tolist()
    # the positive ones are valid feature scales, so they also survive a saved model
    model = _trained_model(standardize=True)
    scales = (np.array([5e-324, np.finfo(float).max, 1.0, 3.0]), model.scales[1])
    path = tmp_path / "model.json"
    MultiviewMetricModel(model.projections, model.view_weights, model.hyper, scales=scales).save(path)
    for saved, loaded in zip(scales, MultiviewMetricModel.load(path).scales):
        assert loaded.view(np.uint64).tolist() == saved.view(np.uint64).tolist()


def test_stop_reason_must_be_present_and_known(tmp_path):
    doc = _trained_model().to_dict()
    assert doc["stop_reason"] == "tol"
    del doc["stop_reason"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape("invalid model document: 'stop_reason'")):
        MultiviewMetricModel.load(path)
    doc["stop_reason"] = "gave_up"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="stop_reason"):
        MultiviewMetricModel.load(path)


@pytest.mark.parametrize("version", ["1", 7, None])
def test_load_rejects_other_format_versions(tmp_path, version):
    doc = _trained_model().to_dict()
    doc["format_version"] = version
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    message = re.escape(f"format_version {version!r} is not the supported '2'")
    with pytest.raises(ValueError, match=message):
        MultiviewMetricModel.load(path)
    with pytest.raises(ValueError, match=message):
        MultiviewMetricModel.from_dict(doc)


@pytest.mark.parametrize(
    "views, key, value, message",
    [
        (2, "view_dims", [9, 9], "view_dims .* does not match the projections"),
        (2, "view_dims", [5, 4], "view_dims .* does not match the projections"),
        (2, "view_dims", [4], "view_dims .* does not match the projections"),
        (2, "num_views", 5, "num_views .* does not match the projections"),
        (2, "num_views", 1, "num_views .* does not match the projections"),
        # equal in value, but no integer, like every other count in a model
        (2, "num_views", 2.0, "invalid model document: num_views must be an integer, got 2.0"),
        (2, "view_dims", [4.0, 5], "invalid model document: view_dims must be an integer, got 4.0"),
        (1, "num_views", True, "invalid model document: num_views must be an integer, got True"),
    ],
    ids=["view_dims-value0", "view_dims-value1", "view_dims-value2", "num_views-5", "num_views-1",
         "num_views-float", "view_dims-float", "num_views-bool"],
)
def test_load_rejects_dims_that_disagree_with_the_projections(tmp_path, views, key, value, message):
    doc = _trained_model().to_dict()
    if views == 1:
        doc.update(num_views=1, view_dims=[4], view_weights=[1.0], projections=doc["projections"][:1])
        assert MultiviewMetricModel.from_dict(doc).num_views == 1
    doc[key] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        MultiviewMetricModel.load(path)


def test_documents_load_without_format_version_but_not_without_dims(tmp_path):
    model = _trained_model()
    path = tmp_path / "model.json"
    doc = model.to_dict()
    del doc["format_version"]
    path.write_text(json.dumps(doc))
    for loaded in (MultiviewMetricModel.from_dict(doc), MultiviewMetricModel.load(path)):
        assert loaded.view_dims == [4, 5]
        assert all(np.array_equal(a, b) for a, b in zip(model.projections, loaded.projections))
    for key in ("num_views", "view_dims"):
        doc = model.to_dict()
        del doc[key]
        with pytest.raises(ValueError, match=re.escape(f"invalid model document: '{key}'")):
            MultiviewMetricModel.from_dict(doc)


def test_model_validates_orthonormality():
    w = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="orthonormal"):
        MultiviewMetricModel((w,), np.array([1.0]), Hyperparams(embed_dim=2))


def test_model_validates_weights():
    w = np.eye(3)[:, :2]
    with pytest.raises(ValueError, match="sum to 1"):
        MultiviewMetricModel((w,), np.array([0.5]), Hyperparams(embed_dim=2))
    with pytest.raises(ValueError, match="one view weight"):
        MultiviewMetricModel((w,), np.array([0.5, 0.5]), Hyperparams(embed_dim=2))
    with pytest.raises(ValueError, match="finite, nonnegative and sum to 1"):
        MultiviewMetricModel((w, w), np.array([np.nan, 1.0]), Hyperparams(embed_dim=2))


def test_model_validates_its_projections():
    w = np.eye(3)[:, :2]
    with pytest.raises(ValueError, match="model requires a resolved embed_dim"):
        MultiviewMetricModel((w,), np.array([1.0]), Hyperparams())
    for bad, shape in [(np.eye(3)[:, :1], "(3, 1)"), (np.ones(3), "(3,)"), (np.ones((3, 2, 1)), "(3, 2, 1)")]:
        with pytest.raises(ValueError, match=re.escape(f"projection 2: expected shape (D_v, 2), got {shape}")):
            MultiviewMetricModel((w, bad), np.array([0.5, 0.5]), Hyperparams(embed_dim=2))
    with pytest.raises(ValueError, match="model needs at least one view projection"):
        MultiviewMetricModel((), np.array([]), Hyperparams(embed_dim=2))


def test_load_rejects_bad_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ nope")
    with pytest.raises(ValueError, match="invalid JSON"):
        MultiviewMetricModel.load(path)
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValueError, match="JSON object"):
        MultiviewMetricModel.load(path)
    # from_dict checks the same itself: a non-object is no model document either
    for doc, kind in (([1, 2, 3], "list"), ("model", "str"), (2, "int"), (None, "NoneType")):
        with pytest.raises(ValueError, match=f"invalid model document: expected a JSON object, got {kind}"):
            MultiviewMetricModel.from_dict(doc)
    path.write_text(json.dumps({"embed_dim": 2}))
    with pytest.raises(ValueError, match="invalid model document"):
        MultiviewMetricModel.load(path)
    with pytest.raises(FileNotFoundError):
        MultiviewMetricModel.load(tmp_path / "missing.json")


@pytest.mark.parametrize(
    "key, value",
    [
        ("max_iters", 2.5),
        ("embed_dim", 2.9),
        ("max_iters", "7"),
        ("embed_dim", "2"),
        ("weight_exponent", "2.0"),
        ("tol", "1e-6"),
        ("coupling_eta", True),
        ("tol", True),
        ("max_iters", True),
        ("embed_dim", None),
        ("tol", 10**400),
    ],
)
def test_load_passes_hyperparameters_to_validation_unconverted(tmp_path, key, value):
    doc = _trained_model().to_dict()
    doc[key] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="invalid model document"):
        MultiviewMetricModel.load(path)


def test_load_rejects_corrupted_projection(tmp_path):
    doc = _trained_model().to_dict()
    w = doc["projections"][0]
    doc["projections"][0] = _with_entry(w, 0, _floats(w)[0] + 0.5)  # breaks orthonormality
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="projection 1: columns not orthonormal"):
        MultiviewMetricModel.load(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda w: _with_entry(w, 3, float("nan")), "projection 1: non-finite entries"),
        (lambda w: _with_entry(w, 3, float("inf")), "projection 1: non-finite entries"),
        (lambda w: _with_entry(w, 3, -float("inf")), "projection 1: non-finite entries"),
        (lambda w: w[:5] + "*" + w[6:], "projection 1: invalid base64"),
        (lambda w: w[:5] + "-" + w[6:], "projection 1: invalid base64"),
        (lambda w: w[:5] + "\u00e9" + w[6:], "projection 1: invalid base64"),
        (lambda w: w.rstrip("="), "projection 1: invalid base64"),
        (lambda w: w[:40] + "\n" + w[40:], "projection 1: invalid base64"),
        (lambda w: _b64(_floats(w)[:7]), "projection 1: 56 bytes are not a positive whole number of 16-byte rows"),
        (lambda w: "", "projection 1: 0 bytes are not a positive whole number of 16-byte rows"),
    ],
    ids=["nan", "inf", "-inf", "outside-alphabet", "url-safe-alphabet", "non-ascii", "missing-padding",
         "embedded-newline", "partial-row", "empty"],
)
def test_load_rejects_projections_that_are_not_whole_finite_rows(tmp_path, edit, message):
    doc = _trained_model().to_dict()
    doc["projections"][0] = edit(doc["projections"][0])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(message)):
        MultiviewMetricModel.load(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.update(view_weights=[str(a) for a in doc["view_weights"]]),
        lambda doc: doc.update(view_weights=[True, False]),
        lambda doc: doc.update(view_weights=[None, 1.0]),
        lambda doc: doc.update(view_weights=[10**400, 0.0]),
        # a projection is one base64 string: the number lists of format "1", with or
        # without a string entry, and other JSON values are not
        lambda doc: doc["projections"].__setitem__(0, [["0.5", 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),
        lambda doc: doc["projections"].__setitem__(1, [[True, False]] * 5),
        lambda doc: doc["projections"].__setitem__(0, _floats(doc["projections"][0]).reshape(4, 2).tolist()),
        lambda doc: doc["projections"].__setitem__(1, None),
        lambda doc: doc["projections"].__setitem__(1, 0.5),
        lambda doc: doc.update(trace="garbage"),
        lambda doc: doc.update(trace=[1, 2]),
        lambda doc: doc.update(trace={"iteration": 1}),
    ],
    ids=["string-weights", "bool-weights", "null-weight", "overflowing-weight", "string-entry", "bool-entries",
         "number-list", "null-projection", "number-projection", "string-trace", "trace-of-numbers", "trace-object"],
)
def test_load_rejects_entries_that_are_not_json_numbers(tmp_path, edit):
    doc = _trained_model().to_dict()
    edit(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="invalid model document"):
        MultiviewMetricModel.load(path)


@pytest.mark.parametrize(
    "field, value",
    [("max_iters", True), ("coupling_eta", True), ("embed_dim", True), ("tol", False), ("standardize", 1),
     ("standardize", np.True_)],
)
def test_hyperparams_reject_bools_as_numbers_and_numbers_as_bools(field, value):
    with pytest.raises(TypeError, match=f"{field} must be"):
        Hyperparams(**{field: value})


@pytest.mark.parametrize(
    "field, value, stored",
    [("max_iters", np.int64(5), 5), ("tol", np.float32(1e-6), float(np.float32(1e-6))),
     ("embed_dim", np.int32(2), 2), ("weight_exponent", 3, 3.0), ("coupling_eta", np.float64(2.0), 2.0)],
)
def test_hyperparams_store_plain_values_that_save_and_load(tmp_path, field, value, stored):
    model = _trained_model(**{field: value})
    held = getattr(model.hyper, field)
    assert type(held) is type(stored) and held == stored
    path = tmp_path / "model.json"
    model.save(path)
    assert MultiviewMetricModel.load(path).hyper == model.hyper


def test_feature_scales_round_trip(tmp_path):
    model = _trained_model(standardize=True)
    assert [s.shape for s in model.scales] == [(4,), (5,)]
    path = tmp_path / "model.json"
    model.save(path)
    loaded = MultiviewMetricModel.load(path)
    assert loaded.hyper == model.hyper and loaded.hyper.standardize
    for a, b in zip(model.scales, loaded.scales):
        assert np.array_equal(a, b)
    assert json.loads(path.read_text())["scales"] == [_b64(s) for s in model.scales]
    # the key is left out when unused, so default model files keep their bytes
    assert "scales" not in _trained_model().to_dict()


@pytest.mark.parametrize(
    "edit",
    [
        # each view's scales are one base64 string, so a number list (of format "1",
        # or with a string entry), a bool, null or a nested string is no scale vector
        lambda scales: scales.__setitem__(0, [1.0, "2.0", 1.0, 1.0]),
        lambda scales: scales.__setitem__(0, True),
        lambda scales: scales.__setitem__(1, None),
        lambda scales: scales.__setitem__(1, [scales[1]]),
        lambda scales: scales.__setitem__(0, _with_entry(scales[0], 2, float("nan"))),
        lambda scales: scales.__setitem__(0, _with_entry(scales[0], 2, float("inf"))),
        lambda scales: scales.__setitem__(1, _with_entry(scales[1], 3, 0.0)),
        lambda scales: scales.__setitem__(1, _with_entry(scales[1], 3, -1.5)),
        lambda scales: scales.__setitem__(0, _b64(_floats(scales[0])[:-1])),
        lambda scales: scales.__setitem__(1, _b64([*_floats(scales[1]), 1.0])),
        lambda scales: scales.pop(),
        lambda scales: scales.__setitem__(0, "1.0,1.0,1.0,1.0"),
        lambda scales: scales.__setitem__(0, _floats(scales[0]).tolist()),
        lambda scales: scales.__setitem__(0, _with_entry(scales[0], 2, -float("inf"))),
        lambda scales: scales.__setitem__(1, scales[1][:5] + "*" + scales[1][6:]),
        lambda scales: scales.__setitem__(1, scales[1].rstrip("=")),
        lambda scales: scales.__setitem__(1, scales[1][:8] + "\n" + scales[1][8:]),
        lambda scales: scales.__setitem__(0, base64.b64encode(bytes(31)).decode()),
        lambda scales: scales.__setitem__(0, ""),
    ],
    ids=["string", "bool", "null", "nested", "nan", "inf", "zero", "negative", "short", "long",
         "one-view", "string-view", "number-list", "-inf", "outside-alphabet", "missing-padding",
         "embedded-newline", "partial-row", "empty"],
)
def test_load_rejects_bad_feature_scales(tmp_path, edit):
    doc = _trained_model(standardize=True).to_dict()
    edit(doc["scales"])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="scale"):
        MultiviewMetricModel.load(path)


def test_model_stores_scales_exactly_when_standardized():
    model = _trained_model(standardize=True)
    with pytest.raises(ValueError, match="scales are required exactly when"):
        MultiviewMetricModel(model.projections, model.view_weights, Hyperparams(embed_dim=2), scales=model.scales)
    with pytest.raises(ValueError, match="scales are required exactly when"):
        MultiviewMetricModel(model.projections, model.view_weights, model.hyper)
