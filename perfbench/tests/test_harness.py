"""Smoke test of the benchmark harness at toy sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import clock  # noqa: E402
import harness  # noqa: E402
import mvmetric as mv  # noqa: E402

TOY = harness.Workload("toy", 3, 8, (4, 6), (2,), 5.0, 12, 2, 3, 2,
                       fits=2, setups=2, checks=2, check_trials=20, oracle_points=6)


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_named_metric_appears_with_its_unit(tmp_path):
    spec = _spec()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = harness.run(TOY, 3, 0, trace, tmp_path)
        assert result["correct"] and result["failed"] == 0
        rounds = result["rounds"]["untraced"] + result["rounds"]["traced"]
        ops = TOY.fits + TOY.trials + TOY.checks * len(TOY.view_dims)
        assert result["attempted"] == rounds * ops
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in spec[key]}


def test_workload_names_match_the_spec():
    import run

    names = {w["name"] for w in _spec()["workloads"]}
    assert set(harness.WORKLOADS) == set(run.WORKLOAD_NAMES) == names


def test_a_different_seed_changes_the_inputs():
    for w in (TOY, *harness.WORKLOADS.values()):
        a, b, again = (harness.make_dataset(w, s) for s in (1, 2, 1))
        assert all(np.array_equal(x.data, y.data) for x, y in zip(a.views, again.views))
        assert not any(np.array_equal(x.data, y.data) for x, y in zip(a.views, b.views))


def test_tracing_on_and_off_give_identical_artifacts(tmp_path):
    plain = harness.run(TOY, 5, 0, False, tmp_path)
    traced = harness.run(TOY, 5, 0, True, tmp_path)
    assert len(plain["artifacts"]) == 1
    assert plain["artifacts"] == traced["artifacts"]
    spans = (tmp_path / "toy-seed5-trace1-spans.jsonl").read_text().splitlines()
    fields = {"id", "name", "start_ns", "end_ns", "parent", "op", "round"}
    assert fields <= set(json.loads(spans[0]))


def test_clock_leaves_the_package_as_it_was(tmp_path):
    def boundaries():
        return [getattr(sys.modules[home], name) for home, name, _ in clock.BOUNDARIES]

    before = boundaries()
    result = harness.run(TOY, 3, 0, False, tmp_path)
    assert boundaries() == before
    assert mv.eval.split is mv.dataset.split and mv.eval.train is mv.solver.train
    for key, rounds in result["times"].items():
        ops = [op for r in rounds for op in r]
        assert ops and all(op["raw_s"] > 0 and op["k_s"] > 0 for op in ops), key
    trials = [len(r) for r in result["times"]["eval_trial_s"]]
    assert trials == [TOY.trials] * result["rounds"]["untraced"]


def test_gate_catches_a_wrong_knn(tmp_path, monkeypatch):
    def wrong(model, train_views, train_labels, test_sample, k=1, weight_mode="exponent"):
        return int(np.max(train_labels)) + 1

    monkeypatch.setattr(mv, "knn_classify", wrong)
    monkeypatch.setattr(mv.eval, "knn_classify", wrong)
    result = harness.run(TOY, 3, 0, False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["rounds"]["untraced"] * TOY.trials


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-views", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
