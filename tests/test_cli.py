import json
import subprocess
import sys

import pytest

from mvmetric.cli import main


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code or 0)


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
    code = run_cli(
        ["generate", "--classes", "2", "--per-class", "5", "--view-dims", "4,x", "--out", str(tmp_path / "d")]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err
    code = run_cli(
        ["generate", "--classes", "2", "--per-class", "5", "--view-dims", "4", "--out", str(tmp_path / "d")]
    )
    assert code == 2
    assert "at least 2" in capsys.readouterr().err


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


def test_train_reports_an_uncoupled_fit_as_solved_in_one_iteration(dataset_dir, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    argv = ["train", "--manifest", str(dataset_dir / "manifest.json"), "--train-count", "12",
            "--seed", "7", "--d", "2", "--eta", "inf", "--out", str(model_path)]
    assert run_cli(argv) == 0
    err = capsys.readouterr().err
    assert "in 1 iterations (uncoupled fit solved in one iteration)" in err
    assert "converged below tol" not in err
    assert json.loads(model_path.read_text())["stop_reason"] == "tol"


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
    assert (tmp_path / "report.csv").read_text().splitlines()[1] == "trial,accuracy,baseline_accuracy"
    capsys.readouterr()
    assert run_cli(argv) == 0
    assert report_path.read_bytes() == first


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
            "200",
            "--out",
            str(report_path),
        ]
    )
    assert code == 0  # rank deficiency is a caveat, not a violation
    doc = json.loads(report_path.read_text())
    assert doc["violations"] == 0
    assert [v["distinguishable"] for v in doc["views"]] == [False, False]
    assert all(v["rank"] == 2 for v in doc["views"])


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


def test_missing_required_options(capsys):
    assert run_cli(["train"]) == 2
    assert "missing required" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    out = tmp_path / "d"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "mvmetric",
            "generate",
            "--classes",
            "2",
            "--per-class",
            "5",
            "--view-dims",
            "3,3",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (out / "manifest.json").is_file()


def test_an_empty_view_file_is_a_single_line_usage_error(dataset_dir, tmp_path):
    # in a fresh process, so numpy's warning would reach stderr as it does for a user
    (dataset_dir / "view1.csv").write_text("")
    argv = ["train", "--manifest", str(dataset_dir / "manifest.json"), "--train-count", "2"]
    proc = subprocess.run(
        [sys.executable, "-m", "mvmetric", *argv, "--out", str(tmp_path / "m.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: view file {dataset_dir / 'view1.csv'}: no data rows\n"


def test_standardized_model_checks_on_raw_data_without_a_flag(dataset_dir, tmp_path, capsys):
    # the scale lives in the model, so check takes no --standardize of its own
    manifest = str(dataset_dir / "manifest.json")
    model_path, report_path = tmp_path / "model.json", tmp_path / "report.json"
    fit = ["--manifest", manifest, "--train-count", "12", "--d", "2", "--standardize"]
    assert run_cli(["train", *fit, "--out", str(model_path)]) == 0
    assert len(json.loads(model_path.read_text())["scales"]) == 2
    assert run_cli(["eval", *fit, "--trials", "2", "--out", str(report_path)]) == 0
    config = json.loads(report_path.read_text())["config"]
    assert config["standardize"] is config["cli"]["standardize"] is True
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
        ('{"views": "view1.csv", "labels": "labels.txt"}', "'views' must be a list of at least 2 file names"),
        ('{"views": [1, 2], "labels": "labels.txt"}', "'views' must be a list of at least 2 file names"),
        ('{"views": ["view1.csv"], "labels": "labels.txt"}', "'views' must be a list of at least 2 file names"),
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
