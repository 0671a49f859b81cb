import json

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


def _trained_model(**hyper):
    ds = generate_synthetic(2, 8, [4, 5], seed=21)
    sp = split(ds, 10, seed=2)
    cs = build_constraints(ds.labels[sp.train_indices])
    return train(ds, sp, cs, Hyperparams(**{"embed_dim": 2, **hyper}))


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
    assert MultiviewMetricModel.from_dict(doc).hyper == Hyperparams(embed_dim=2)


def test_model_document_fields(tmp_path):
    model = _trained_model()
    doc = model.to_dict(config={"x": 1})
    assert doc["format_version"] == "1"
    assert doc["num_views"] == 2
    assert doc["view_dims"] == [4, 5]
    assert doc["embed_dim"] == 2
    assert doc["config"] == {"x": 1}
    # projections serialize row-major: one list per matrix row
    assert len(doc["projections"][0]) == 4
    assert len(doc["projections"][0][0]) == 2
    json.dumps(doc)  # must be JSON-serializable as-is


def test_stop_reason_missing_from_older_documents_loads_as_none(tmp_path):
    doc = _trained_model().to_dict()
    assert doc["stop_reason"] == "tol"
    del doc["stop_reason"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert MultiviewMetricModel.load(path).stop_reason is None
    doc["stop_reason"] = "gave_up"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="stop_reason"):
        MultiviewMetricModel.load(path)


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


def test_load_rejects_bad_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ nope")
    with pytest.raises(ValueError, match="invalid JSON"):
        MultiviewMetricModel.load(path)
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValueError, match="JSON object"):
        MultiviewMetricModel.load(path)
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
    model = _trained_model()
    doc = model.to_dict()
    doc["projections"][0][0][0] += 0.5  # breaks orthonormality
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="orthonormal"):
        MultiviewMetricModel.load(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.update(view_weights=[str(a) for a in doc["view_weights"]]),
        lambda doc: doc.update(view_weights=[True, False]),
        lambda doc: doc.update(view_weights=[None, 1.0]),
        lambda doc: doc["projections"][0][0].__setitem__(0, str(doc["projections"][0][0][0])),
        lambda doc: doc["projections"][1].__setitem__(2, [True, False]),
        lambda doc: doc.update(trace="garbage"),
        lambda doc: doc.update(trace=[1, 2]),
        lambda doc: doc.update(trace={"iteration": 1}),
    ],
    ids=["string-weights", "bool-weights", "null-weight", "string-entry", "bool-entries",
         "string-trace", "trace-of-numbers", "trace-object"],
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
    assert json.loads(path.read_text())["scales"] == [s.tolist() for s in model.scales]
    # the key is left out when unused, so default model files keep their bytes
    assert "scales" not in _trained_model().to_dict()


@pytest.mark.parametrize(
    "edit",
    [
        lambda scales: scales[0].__setitem__(1, "2.0"),
        lambda scales: scales[0].__setitem__(1, True),
        lambda scales: scales[1].__setitem__(0, None),
        lambda scales: scales[1].__setitem__(0, [1.0]),
        lambda scales: scales[0].__setitem__(2, float("nan")),
        lambda scales: scales[0].__setitem__(2, float("inf")),
        lambda scales: scales[1].__setitem__(3, 0.0),
        lambda scales: scales[1].__setitem__(3, -1.5),
        lambda scales: scales[0].pop(),
        lambda scales: scales[1].append(1.0),
        lambda scales: scales.pop(),
        lambda scales: scales.__setitem__(0, "1.0,1.0,1.0,1.0"),
    ],
    ids=["string", "bool", "null", "nested", "nan", "inf", "zero", "negative", "short", "long",
         "one-view", "string-view"],
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
