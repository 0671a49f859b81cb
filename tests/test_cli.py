import json
import subprocess
import sys

import numpy as np
import pytest

import mvmetric.cli
from mvmetric import generate_synthetic, load_manifest
from mvmetric.cli import main


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code or 0)


def run_module(argv):
    # in a fresh process, so a numpy warning would reach stderr as it does for a user
    return subprocess.run([sys.executable, "-m", "mvmetric", *argv], capture_output=True, text=True)


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    code = run_cli(
        [
            "generate",
            "--classes",
            "2",
            "--per-class",
            "10",
            "--view-dims",
            "4,6",
            "--noise-views",
            "2",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


def test_generate_writes_expected_files(dataset_dir):
    names = {p.name for p in dataset_dir.iterdir()}
    assert names == {"view1.csv", "view2.csv", "labels.txt", "manifest.json"}
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    assert manifest["format_version"] == "1"
    assert manifest["config"]["classes"] == 2


def test_generate_same_seed_identical_files(tmp_path, dataset_dir):
    other = tmp_path / "data2"
    assert (
        run_cli(
            [
                "generate",
                "--classes",
                "2",
                "--per-class",
                "10",
                "--view-dims",
                "4,6",
                "--noise-views",
                "2",
                "--seed",
                "1",
                "--out",
                str(other),
            ]
        )
        == 0
    )
    for name in ("view1.csv", "view2.csv", "labels.txt"):
        assert (dataset_dir / name).read_bytes() == (other / name).read_bytes()


def test_generate_malformed_dims(tmp_path, capsys):
    # an empty item and int()'s underscores are errors, not 2 views or a view of 50 features
    for dims in ("4,x", "4,,6", "5_0", "5,"):
        code = run_cli(
            ["generate", "--classes", "2", "--per-class", "5", "--view-dims", dims, "--out", str(tmp_path / "d")]
        )
        assert code == 2
        assert f"error: malformed --view-dims list: {dims!r}" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()
    # one view is a dataset too: it round-trips through its manifest
    code = run_cli(
        ["generate", "--classes", "2", "--per-class", "5", "--view-dims", "4", "--out", str(tmp_path / "d")]
    )
    assert code == 0
    loaded = load_manifest(tmp_path / "d" / "manifest.json")
    expected = generate_synthetic(2, 5, [4])
    assert loaded.view_dims == [4]
    assert np.array_equal(loaded.views[0].data, expected.views[0].data)
    assert np.array_equal(loaded.labels, expected.labels)
    # and trains and checks
    manifest, model = str(tmp_path / "d" / "manifest.json"), str(tmp_path / "model.json")
    assert run_cli(["train", "--manifest", manifest, "--train-count", "6", "--d", "2", "--out", model]) == 0
    assert run_cli(["check", "--model", model, "--manifest", manifest, "--out", str(tmp_path / "axioms.json")]) == 0
    assert [v["rank"] for v in json.loads((tmp_path / "axioms.json").read_text())["views"]] == [2]


def test_generate_names_a_non_finite_separation(tmp_path, capsys):
    argv = ["generate", "--classes", "2", "--per-class", "3", "--view-dims", "2,2", "--out", str(tmp_path / "d")]
    assert run_cli([*argv, "--separation", "nan"]) == 2
    assert "error: separation must be finite, got nan" in capsys.readouterr().err
    # json reads NaN as a float, so a config file reaches the same check
    config = tmp_path / "cfg.json"
    config.write_text('{"separation": NaN}')
    assert run_cli([*argv, "--config", str(config)]) == 2
    assert "error: separation must be finite, got nan" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_train_writes_model_and_echoes_weights(dataset_dir, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    code = run_cli(
        [
            "train",
            "--manifest",
            str(dataset_dir / "manifest.json"),
            "--train-count",
            "12",
            "--seed",
            "7",
            "--d",
            "2",
            "--out",
            str(model_path),
        ]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "view weights" in err
    doc = json.loads(model_path.read_text())
    assert doc["stop_reason"] == "tol"
    assert "(converged below tol)" in err
    assert doc["format_version"] == "2"
    assert doc["num_views"] == 2
    assert doc["embed_dim"] == 2
    assert doc["config"]["train_count"] == 12
    assert len(doc["trace"]) >= 1


def test_train_reports_hitting_max_iters(dataset_dir, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    argv = ["train", "--manifest", str(dataset_dir / "manifest.json"), "--train-count", "12",
            "--d", "2", "--max-iters", "1", "--out", str(model_path)]
    assert run_cli(argv) == 0
    assert "in 1 iterations (stopped at max_iters)" in capsys.readouterr().err
    assert json.loads(model_path.read_text())["stop_reason"] == "max_iters"


def test_train_reports_an_uncoupled_fit_as_converged_in_two_iterations(dataset_dir, tmp_path, capsys):
    # the exact per-view solve repeats itself in the second iteration
    model_path = tmp_path / "model.json"
    argv = ["train", "--manifest", str(dataset_dir / "manifest.json"), "--train-count", "12",
            "--seed", "7", "--d", "2", "--eta", "inf", "--out", str(model_path)]
    assert run_cli(argv) == 0
    assert "in 2 iterations (converged below tol)" in capsys.readouterr().err
    doc = json.loads(model_path.read_text())
    assert doc["stop_reason"] == "tol" and [e["residual"] for e in doc["trace"]] == [None, 0.0]


def test_train_missing_labels_file(dataset_dir, tmp_path, capsys):
    (dataset_dir / "labels.txt").unlink()
    code = run_cli(
        [
            "train",
            "--manifest",
            str(dataset_dir / "manifest.json"),
            "--train-count",
            "12",
            "--out",
            str(tmp_path / "m.json"),
        ]
    )
    assert code == 2
    assert "labels file not found" in capsys.readouterr().err


def test_train_rejects_r_of_one(dataset_dir, tmp_path, capsys):
    for r, message in (("1.0", "r must be > 1"), ("inf", "r must be > 1 and finite")):
        code = run_cli(
            [
                "train",
                "--manifest",
                str(dataset_dir / "manifest.json"),
                "--train-count",
                "12",
                "--r",
                r,
                "--out",
                str(tmp_path / "m.json"),
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


def test_config_file_merging(dataset_dir, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"train_count": 12, "seed": 3, "d": 2}))
    model_a = tmp_path / "a.json"
    model_b = tmp_path / "b.json"
    assert (
        run_cli(
            ["train", "--manifest", str(dataset_dir / "manifest.json"), "--config", str(config), "--out", str(model_a)]
        )
        == 0
    )
    # the explicit flag overrides the config value
    assert (
        run_cli(
            [
                "train",
                "--manifest",
                str(dataset_dir / "manifest.json"),
                "--config",
                str(config),
                "--d",
                "1",
                "--out",
                str(model_b),
            ]
        )
        == 0
    )
    assert json.loads(model_a.read_text())["embed_dim"] == 2
    assert json.loads(model_b.read_text())["embed_dim"] == 1


def test_config_file_unknown_key(dataset_dir, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"train_count": 12, "bogus": 1}))
    code = run_cli(
        ["train", "--manifest", str(dataset_dir / "manifest.json"), "--config", str(config), "--out", str(tmp_path / "m.json")]
    )
    assert code == 2
    assert "unknown keys" in capsys.readouterr().err
    # test-time distances have one weighting, a_v^r; there is no option to choose another
    config.write_text(json.dumps({"train_count": 12, "distance_weights": "linear"}))
    eval_argv = ["eval", "--manifest", str(dataset_dir / "manifest.json"), "--out", str(tmp_path / "r.json")]
    assert run_cli([*eval_argv, "--config", str(config)]) == 2
    assert "unknown keys ['distance_weights']" in capsys.readouterr().err
    assert run_cli([*eval_argv, "--train-count", "12", "--distance-weights", "linear"]) == 2
    assert "unrecognized arguments: --distance-weights" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_pair_cap_is_gone(dataset_dir, tmp_path, capsys, command):
    argv = [command, "--manifest", str(dataset_dir / "manifest.json"), "--train-count", "12",
            "--out", str(tmp_path / "out.json")]
    assert run_cli([*argv, "--max-pairs-per-set", "30"]) == 2
    assert "unrecognized arguments: --max-pairs-per-set" in capsys.readouterr().err
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"max_pairs_per_set": 30}))
    assert run_cli([*argv, "--config", str(config)]) == 2
    assert "unknown keys ['max_pairs_per_set']" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("train", {"standardize": "false"}, "standardize must be true or false, got \"false\""),
        ("eval", {"trials": True}, "trials must be an integer, got true"),
        ("eval", {"k": 1.0}, "k must be an integer, got 1.0"),
        ("train", {"r": "2"}, "r must be a number, got \"2\""),
        ("train", {"eta": False}, "eta must be a number, got false"),
        ("train", {"seed": [3]}, "seed must be an integer, got [3]"),
        ("check", {"out": 7}, "out must be a string, got 7"),
        ("generate", {"view_dims": [4, 6]}, "view_dims must be a string, got [4, 6]"),
        ("eval", {"baseline": "cosine"}, "baseline must be one of [\"euclidean\"], got \"cosine\""),
    ],
)
def test_config_values_must_have_their_flag_type(tmp_path, capsys, command, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert run_cli([command, "--config", str(path)]) == 2
    assert f"config file {path}: {message}" in capsys.readouterr().err


def test_config_file_values_parse_like_their_flags(dataset_dir, tmp_path):
    # null keeps the default, false is the default, and an integer r becomes
    # the float the flag parses: the model file is the one the flags alone write
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"train_count": 12, "d": None, "r": 2, "standardize": False}))
    argv = ["train", "--manifest", str(dataset_dir / "manifest.json")]
    assert run_cli([*argv, "--config", str(config), "--out", str(tmp_path / "a.json")]) == 0
    assert run_cli([*argv, "--train-count", "12", "--r", "2", "--out", str(tmp_path / "b.json")]) == 0
    a, b = ((tmp_path / name).read_text() for name in ("a.json", "b.json"))
    assert a.replace("a.json", "b.json") == b


def _as_flags(settings):
    """Command-line flags for a dict of config-file settings."""
    argv = []
    for key, value in settings.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            argv.append(flag if value else "--no-" + flag[2:])
        else:
            argv += [flag, str(value)]
    return argv


def _every_setting(command, manifest, out_dir):
    """Every config key of ``command`` in the order its flags are declared,
    each set away from its default where it has one."""
    fit = {"d": 2, "r": 3.0, "eta": 2.0, "max_iters": 20, "tol": 1e-4, "standardize": True}
    return {
        "train": {"manifest": manifest, "train_count": 12, "seed": 3, "out": f"{out_dir}/model.json", **fit},
        "eval": {"manifest": manifest, "train_count": 12, "trials": 2, "seed": 3, "out": f"{out_dir}/report.json",
                 "csv": f"{out_dir}/report.csv", "baseline": "euclidean", "k": 3, **fit},
        "generate": {"classes": 3, "per_class": 5, "view_dims": "3,4", "noise_views": "2", "seed": 4,
                     "separation": 5.0, "out": f"{out_dir}/data"},
        "check": {"model": f"{out_dir}/model.json", "manifest": manifest, "trials": 50, "seed": 5,
                  "out": f"{out_dir}/axioms.json"},
    }[command]


# where each command saves its resolved settings
SAVED_SETTINGS = {
    "train": ("model.json", ["config"]),
    "eval": ("report.json", ["config", "cli"]),
    "generate": ("data/manifest.json", ["config"]),
    "check": ("axioms.json", ["config"]),
}


@pytest.mark.parametrize("command", sorted(SAVED_SETTINGS))
def test_a_config_with_every_key_writes_what_its_flags_write(dataset_dir, tmp_path, command):
    # config values reach the parser as its defaults: a file holding every key
    # (in reverse order) writes the bytes its flags write, with the settings
    # saved in declaration order, and an explicit flag overrides the file
    manifest = str(dataset_dir / "manifest.json")
    written = {}
    for way in ("flags", "config", "override"):
        out_dir = tmp_path / way
        out_dir.mkdir()
        if command == "check":
            fit = ["--manifest", manifest, "--train-count", "12", "--d", "2", "--out", f"{out_dir}/model.json"]
            assert run_cli(["train", *fit]) == 0
        settings = _every_setting(command, manifest, out_dir)
        argv = _as_flags(settings)
        if way != "flags":
            config = tmp_path / f"{way}.json"
            config.write_text(json.dumps(dict(reversed(settings.items()))))
            argv = ["--config", str(config), *(["--seed", "9"] if way == "override" else [])]
        assert run_cli([command, *argv]) == 0
        written[way] = {
            str(path.relative_to(out_dir)): path.read_bytes().replace(str(out_dir).encode(), b"OUT")
            for path in sorted(out_dir.rglob("*")) if path.is_file()
        }
    assert written["config"] == written["flags"]
    name, keys = SAVED_SETTINGS[command]
    saved = {way: json.loads(written[way][name]) for way in ("flags", "override")}
    for key in keys:
        saved = {way: doc[key] for way, doc in saved.items()}
    assert list(saved["flags"]) == list(settings)
    assert list(saved["override"]) == list(settings)
    assert saved["override"] == {**saved["flags"], "seed": 9}


FIT_HELP = ["--d D shared embedding dimension per view (default: min(10, smallest view dim))",
            "--r R view weight exponent, finite and > 1 (default: 2.0)", "(default: 1.0)",
            "--max-iters MAX_ITERS maximum alternating iterations (default: 50)", "(default: 1e-06)",
            "the model stores the scales (default: False)"]


@pytest.mark.parametrize(
    "command, shown",
    [
        ("train", ["--seed SEED split seed (default: 0)", *FIT_HELP]),
        ("eval", ["(default: 10)", "master seed (default: 0)", "--k K neighbors for classification (default: 1)",
                  *FIT_HELP]),
        ("generate", ["pure-noise views (default: none)", "(default: 0)", "(default: 4.0)"]),
        ("check", ["(default: 1000)", "(default: 0)", "(default: stdout)"]),
    ],
)
def test_help_prints_each_default(capsys, command, shown):
    assert run_cli([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for part in shown:
        assert part in text
    assert text.count("(default: ") == len(shown)


def test_eval_report_and_repeatability(dataset_dir, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    argv = [
        "eval",
        "--manifest",
        str(dataset_dir / "manifest.json"),
        "--train-count",
        "12",
        "--trials",
        "3",
        "--seed",
        "7",
        "--d",
        "2",
        "--baseline",
        "euclidean",
        "--csv",
        str(tmp_path / "report.csv"),
        "--out",
        str(report_path),
    ]
    assert run_cli(argv) == 0
    first = report_path.read_bytes()
    doc = json.loads(first)
    assert doc["format_version"] == "1"
    assert len(doc["per_trial_accuracy"]) == 3
    assert "baseline_mean" in doc
    # the CSV summary holds the report's own numbers
    rows = [line.split(",") for line in (tmp_path / "report.csv").read_text().splitlines()[1:]]
    per_trial = zip(doc["per_trial_accuracy"], doc["baseline_per_trial"])
    assert rows == [
        ["trial", "accuracy", "baseline_accuracy"],
        *([str(t), repr(a), repr(b)] for t, (a, b) in enumerate(per_trial)),
        ["mean", repr(doc["mean_accuracy"]), repr(doc["baseline_mean"])],
        ["max", repr(doc["max_accuracy"]), repr(doc["baseline_max"])],
    ]
    capsys.readouterr()
    assert run_cli(argv) == 0
    assert report_path.read_bytes() == first


def _strict_json(text):
    """``json.loads`` that refuses ``NaN``, ``Infinity`` and ``-Infinity``, which JSON's grammar lacks."""

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def test_a_finite_eta_run_writes_strict_json(dataset_dir, tmp_path):
    manifest = str(dataset_dir / "manifest.json")
    common = ["--manifest", manifest, "--train-count", "12", "--d", "2", "--seed", "3"]
    model, report, csv, axioms = (tmp_path / name for name in ("model.json", "report.json", "r.csv", "axioms.json"))
    assert run_cli(["train", *common, "--out", str(model)]) == 0
    evaluate = ["eval", *common, "--trials", "2", "--baseline", "euclidean", "--out", str(report), "--csv", str(csv)]
    assert run_cli(evaluate) == 0
    assert run_cli(["check", "--model", str(model), "--manifest", manifest, "--trials", "200", "--out", str(axioms)]) == 0
    for path in (model, report, axioms):
        _strict_json(path.read_text())
    header = csv.read_text().splitlines()[0]
    assert header.startswith("# mvmetric eval summary, format 1, config {")
    assert _strict_json(header.split(" config ", 1)[1])["coupling_eta"] == 1.0


def test_eval_rejects_zero_trials(dataset_dir, tmp_path, capsys):
    code = run_cli(
        [
            "eval",
            "--manifest",
            str(dataset_dir / "manifest.json"),
            "--train-count",
            "12",
            "--trials",
            "0",
            "--out",
            str(tmp_path / "r.json"),
        ]
    )
    assert code == 2


def test_check_reports_pseudometric_caveat(dataset_dir, tmp_path):
    model_path = tmp_path / "model.json"
    assert (
        run_cli(
            [
                "train",
                "--manifest",
                str(dataset_dir / "manifest.json"),
                "--train-count",
                "12",
                "--d",
                "2",
                "--out",
                str(model_path),
            ]
        )
        == 0
    )
    report_path = tmp_path / "axioms.json"
    code = run_cli(
        [
            "check",
            "--model",
            str(model_path),
            "--manifest",
            str(dataset_dir / "manifest.json"),
            "--trials",
            "10000",
            "--out",
            str(report_path),
        ]
    )
    assert code == 0  # rank deficiency is a caveat, not a violation
    doc = json.loads(report_path.read_text())
    assert doc["violations"] == 0
    assert [v["distinguishable"] for v in doc["views"]] == [False, False]
    assert all(v["rank"] == 2 for v in doc["views"])
    assert [v["triangle_slack"] for v in doc["views"]] == [1e-9, 1e-9]


def test_check_prints_to_stdout_without_out(dataset_dir, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    assert (
        run_cli(
            [
                "train",
                "--manifest",
                str(dataset_dir / "manifest.json"),
                "--train-count",
                "12",
                "--d",
                "2",
                "--out",
                str(model_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    code = run_cli(
        ["check", "--model", str(model_path), "--manifest", str(dataset_dir / "manifest.json"), "--trials", "50"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format_version"] == "1"
    assert doc["violations"] == 0


@pytest.mark.parametrize("command", ["train", "eval", "generate", "check"])
def test_a_negative_seed_is_a_usage_error_naming_seed(dataset_dir, tmp_path, capsys, command):
    manifest, model = str(dataset_dir / "manifest.json"), str(tmp_path / "model.json")
    assert run_cli(["train", "--manifest", manifest, "--train-count", "12", "--d", "2", "--out", model]) == 0
    argv = {
        "train": ["--manifest", manifest, "--train-count", "12", "--out", str(tmp_path / "m.json")],
        "eval": ["--manifest", manifest, "--train-count", "12", "--out", str(tmp_path / "r.json")],
        "generate": ["--classes", "2", "--per-class", "3", "--view-dims", "2,2", "--out", str(tmp_path / "d")],
        "check": ["--model", model, "--manifest", manifest, "--out", str(tmp_path / "a.json")],
    }[command]
    capsys.readouterr()
    assert run_cli([command, *argv, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["data", "model.json"]


def test_check_rejects_corrupted_model(dataset_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code = run_cli(
        ["check", "--model", str(bad), "--manifest", str(dataset_dir / "manifest.json")]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err
    # a format "1" model, whose arrays were nested lists
    manifest, model, out = str(dataset_dir / "manifest.json"), tmp_path / "model.json", tmp_path / "axioms.json"
    assert run_cli(["train", "--manifest", manifest, "--train-count", "12", "--d", "2", "--out", str(model)]) == 0
    model.write_text(json.dumps({**json.loads(model.read_text()), "format_version": "1"}))
    capsys.readouterr()
    assert run_cli(["check", "--model", str(model), "--manifest", manifest, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: model document: format_version '1' is not the supported '2'\n"
    assert not out.exists()


def test_check_rejects_a_dataset_of_other_dims(dataset_dir, tmp_path, capsys):
    model, out = tmp_path / "model.json", tmp_path / "axioms.json"
    assert run_cli(["train", "--manifest", str(dataset_dir / "manifest.json"), "--train-count", "12", "--d", "2",
                    "--out", str(model)]) == 0
    other = tmp_path / "other"
    assert run_cli(["generate", "--classes", "2", "--per-class", "10", "--view-dims", "4,5", "--out", str(other)]) == 0
    capsys.readouterr()
    assert run_cli(["check", "--model", str(model), "--manifest", str(other / "manifest.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: model dims [4, 6] do not match dataset dims [4, 5]\n"
    assert not out.exists()


def test_check_exits_1_on_a_violation(dataset_dir, tmp_path, capsys, monkeypatch):
    model, out = tmp_path / "model.json", tmp_path / "axioms.json"
    manifest = str(dataset_dir / "manifest.json")
    assert run_cli(["train", "--manifest", manifest, "--train-count", "12", "--d", "2", "--out", str(model)]) == 0
    check = mvmetric.cli.check_metric_axioms

    def one_violation(model, view, *args):
        report = check(model, view, *args)
        return {**report, "triangle_violations": 1} if view == 1 else report

    monkeypatch.setattr(mvmetric.cli, "check_metric_axioms", one_violation)
    capsys.readouterr()
    assert run_cli(["check", "--model", str(model), "--manifest", manifest, "--trials", "50", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: 1 metric axiom violation(s) found\n"
    doc = json.loads(out.read_text())
    assert doc["violations"] == 1
    assert [view["triangle_violations"] for view in doc["views"]] == [1, 0]


def test_missing_required_options(capsys):
    assert run_cli(["train"]) == 2
    assert "missing required" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    out = tmp_path / "d"
    proc = run_module(["generate", "--classes", "2", "--per-class", "5", "--view-dims", "3,3", "--out", str(out)])
    assert proc.returncode == 0
    assert (out / "manifest.json").is_file()


def test_an_empty_view_file_is_a_single_line_usage_error(dataset_dir, tmp_path):
    (dataset_dir / "view1.csv").write_text("")
    argv = ["train", "--manifest", str(dataset_dir / "manifest.json"), "--train-count", "2"]
    proc = run_module([*argv, "--out", str(tmp_path / "m.json")])
    assert proc.returncode == 2
    assert proc.stderr == f"error: view file {dataset_dir / 'view1.csv'}: no data rows\n"


@pytest.fixture()
def overflowing_dir(tmp_path):
    """``dataset_dir``'s data with view 1's class means 1e160 apart: squares of its features overflow float64."""
    out = tmp_path / "big"
    argv = ["--classes", "2", "--per-class", "10", "--view-dims", "4,6", "--noise-views", "2", "--seed", "1"]
    assert run_cli(["generate", *argv, "--separation", "1e160", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("command", ["train", "eval"])
def test_an_overflowing_fit_is_one_runtime_error_line(overflowing_dir, tmp_path, command):
    out = tmp_path / "out.json"
    proc = run_module([command, "--manifest", str(overflowing_dir / "manifest.json"), "--train-count", "12",
                       "--out", str(out)])
    assert proc.returncode == 1
    assert proc.stderr == "error: training failed: overflow encountered in matmul\n"
    assert not out.exists()


def test_check_of_overflowing_distances_is_one_usage_error_line(dataset_dir, overflowing_dir, tmp_path):
    model = tmp_path / "model.json"
    assert run_cli(["train", "--manifest", str(dataset_dir / "manifest.json"), "--train-count", "12",
                    "--out", str(model)]) == 0
    out = tmp_path / "axioms.json"
    proc = run_module(["check", "--model", str(model), "--manifest", str(overflowing_dir / "manifest.json"),
                       "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr == "error: view 1: distances overflow float64\n"
    assert not out.exists()


def test_standardized_model_checks_on_raw_data_without_a_flag(dataset_dir, tmp_path, capsys):
    # the scale lives in the model, so check takes no --standardize of its own
    manifest = str(dataset_dir / "manifest.json")
    model_path, report_path = tmp_path / "model.json", tmp_path / "report.json"
    fit = ["--manifest", manifest, "--train-count", "12", "--d", "2", "--standardize"]
    assert run_cli(["train", *fit, "--out", str(model_path)]) == 0
    assert len(json.loads(model_path.read_text())["scales"]) == 2
    assert run_cli(["eval", *fit, "--trials", "2", "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["config"]["standardize"] is report["config"]["cli"]["standardize"] is True
    assert "baseline_mean" not in report  # no --baseline
    check = ["check", "--model", str(model_path), "--manifest", manifest, "--trials", "100"]
    capsys.readouterr()
    assert run_cli(check) == 0
    assert json.loads(capsys.readouterr().out)["violations"] == 0
    assert run_cli([*check, "--standardize"]) == 2
    assert "unrecognized arguments: --standardize" in capsys.readouterr().err
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"standardize": True}))
    assert run_cli([*check, "--config", str(config_path)]) == 2
    assert "unknown keys ['standardize']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("{ nope", "invalid JSON"),
        ("[1, 2]", "expected a JSON object"),
        ('{"labels": "labels.txt"}', "missing key 'views'"),
        ('{"views": ["view1.csv", "view2.csv"]}', "missing key 'labels'"),
        ('{"views": "view1.csv", "labels": "labels.txt"}', "'views' must be a non-empty list of file names"),
        ('{"views": [1, 2], "labels": "labels.txt"}', "'views' must be a non-empty list of file names"),
        ('{"views": [], "labels": "labels.txt"}', "'views' must be a non-empty list of file names"),
        ('{"views": ["view1.csv", "view2.csv"], "labels": ["labels.txt"]}', "'labels' must be a file name"),
    ],
)
def test_malformed_manifest_names_the_file_and_key(dataset_dir, tmp_path, capsys, text, message):
    manifest = dataset_dir / "bad.json"
    manifest.write_text(text)
    argv = ["train", "--manifest", str(manifest), "--train-count", "12", "--out", str(tmp_path / "m.json")]
    assert run_cli(argv) == 2
    assert f"error: manifest {manifest}: {message}" in capsys.readouterr().err


def test_invalid_config_json_names_the_file(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text('{"trials": 3,}')
    assert run_cli(["eval", "--config", str(config)]) == 2
    assert f"error: config file {config}: invalid JSON: " in capsys.readouterr().err
