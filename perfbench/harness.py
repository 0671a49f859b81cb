"""Seeded workloads, timed rounds and the correctness gate of the benchmark.

One round does what a user of the CLI does once, through the same library
calls: set up a dataset on disk (``generate``), fit and save a model
(``train``), score repeated splits against the Euclidean baseline (``eval``)
and check the metric axioms of the saved model (``check``).  A run repeats
rounds in one process until its time is up; each operation's time is the
median over its repeats, at the reference speed of ``clock``.  Every round
is checked; see ``_gate``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mvmetric as mv
from mvmetric.model import ORTHONORMALITY_TOL, SIMPLEX_TOL

import clock as timing
import oracle
import tracing


@dataclass(frozen=True)
class Workload:
    """Dataset shape and the train / eval / check settings of one workload."""

    name: str
    classes: int
    per_class: int
    view_dims: tuple
    noise_views: tuple
    shift: float
    train_count: int
    trials: int
    k: int
    d: int
    fits: int = 1
    setups: int = 3
    checks: int = 1
    check_trials: int = 1000
    oracle_points: int = 25


# Why each workload exists is in README.md next to this file.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("score-shifted", 4, 150, (20, 50, 10), (2,), 5.0, 60, 3, 3, 5, fits=30,
                 check_trials=10_000),
        Workload("wide-views", 3, 40, (300, 200, 100), (3,), 0.0, 80, 2, 1, 10, fits=4, checks=5),
    )
}

# Run once before timing so lazy imports and BLAS start-up are not measured.
WARM_UP = Workload("warm-up", 2, 6, (4, 5), (2,), 0.0, 8, 1, 1, 2, setups=1, check_trials=10,
                   oracle_points=2)

MIN_ROUNDS = 3
TIMES = ("setup_s", "train_s", "eval_trial_s", "check_s")


def make_dataset(w: Workload, seed: int) -> mv.MultiviewDataset:
    """The workload's inputs; a function of the seed alone."""
    ds = mv.generate_synthetic(w.classes, w.per_class, w.view_dims, set(w.noise_views), seed=seed)
    if w.shift:
        views = tuple(mv.ViewMatrix(v.view_id, v.data + w.shift) for v in ds.views)
        ds = mv.MultiviewDataset(views, ds.labels)
    return ds


def _hook_eval(models: list, clock: timing.CalibratedClock, trial_times: list):
    """Record each eval trial's model and time it, without changing what it returns.

    A trial starts with its ``split`` call, so each ``split`` call closes the
    previous trial's operation and opens the next.
    """
    inner_train, inner_split = mv.eval.train, mv.eval.split

    def capturing(*args, **kwargs):
        model = inner_train(*args, **kwargs)
        models.append(model)
        return model

    def timing(*args, **kwargs):
        if models:
            clock.stop(trial_times)
        clock.start()
        return inner_split(*args, **kwargs)

    mv.eval.train, mv.eval.split = capturing, timing
    return inner_train, inner_split


def _run_round(w: Workload, seed: int, tracer, workdir: Path, clock) -> dict:
    """One setup / train / eval / check pass; returns per-operation times and outputs.

    Set-up runs ``w.setups`` times, training ``w.fits`` times (one split
    seed each) and the check ``w.checks`` times.  Every round repeats the
    same operations on the same inputs, so ``run`` can compare each
    operation with its own repeats.  Times come from ``clock``.
    """
    hyper = mv.Hyperparams(embed_dim=w.d)
    times = {key: [] for key in TIMES}

    tracer.set_operation("setup")
    for i in range(w.setups):
        with clock.operation(times["setup_s"]):
            with tracer.span("dataset.generate"):
                generated = make_dataset(w, seed)
            with tracer.span("dataset.write"):
                manifest = mv.write_dataset(generated, workdir / f"data-{i}")
            with tracer.span("dataset.load"):
                dataset = mv.load_manifest(manifest)

    tracer.set_operation("train")
    models, model_paths = [], []
    for fit in range(w.fits):
        with clock.operation(times["train_s"]):
            fit_seed = mv.derive_trial_seed(seed, fit, 2)
            sp = mv.split(dataset, w.train_count, fit_seed)
            cons = mv.build_constraints(dataset.labels[sp.train_indices], None, fit_seed)
            model = mv.train(dataset, sp, cons, hyper)
            path = workdir / f"model-{fit}.json"
            with tracer.span("model.save"):
                model.save(path, config={"train_count": w.train_count, "seed": fit_seed, "d": w.d})
        models.append(model)
        model_paths.append(path)

    tracer.set_operation("eval")
    eval_models = []
    inner = _hook_eval(eval_models, clock, times["eval_trial_s"])
    try:
        report = mv.run_benchmark(
            dataset, w.train_count, w.trials, hyper, seed=seed, include_baseline=True, k=w.k
        )
        clock.stop(times["eval_trial_s"])
    finally:
        mv.eval.train, mv.eval.split = inner

    tracer.set_operation("check")
    checks = []
    for _ in range(w.checks):
        with clock.operation(times["check_s"]):
            with tracer.span("model.load"):
                loaded = mv.MultiviewMetricModel.load(model_paths[0])
            for v in range(1, loaded.num_views + 1):
                with tracer.span("metric.check"):
                    checks.append(mv.check_metric_axioms(
                        loaded, v, dataset.views[v - 1].data, w.check_trials, seed
                    ))

    report_path = workdir / "report.json"
    report.save(report_path)
    return {
        "times": times,
        "wall_s": sum(op["raw_s"] for ops in times.values() for op in ops),
        "dataset": dataset,
        "models": models,
        "model_bytes": [p.read_bytes() for p in model_paths],
        "report": report,
        "report_bytes": report_path.read_bytes(),
        "eval_models": eval_models,
        "checks": checks,
    }


def _model_ok(model) -> bool:
    eye = np.eye(model.embed_dim)
    ortho = all(np.linalg.norm(w.T @ w - eye) <= ORTHONORMALITY_TOL for w in model.projections)
    a = model.view_weights
    return ortho and bool(np.all(a >= 0.0)) and abs(float(a.sum()) - 1.0) <= SIMPLEX_TOL


def _oracle_agrees(w: Workload, seed: int, dataset, record: dict, model) -> bool:
    """Brute-force kNN against ``knn_classify`` on a fixed subsample of the trial's test set."""
    train_idx = np.asarray(record["train_indices"])
    test_idx = np.asarray(record["test_indices"])
    rng = np.random.default_rng([seed, record["trial"]])
    picked = np.sort(rng.choice(test_idx, size=min(w.oracle_points, test_idx.size), replace=False))
    train_views = dataset.columns(train_idx)
    train_labels = dataset.labels[train_idx]
    expected = oracle.knn_predict(model, train_views, train_labels, dataset.columns(picked), w.k)
    got = [
        mv.knn_classify(model, train_views, train_labels, dataset.sample(int(i)), w.k)
        for i in picked
    ]
    return got == expected.tolist()


def _gate(w: Workload, seed: int, rnd: dict, reference: dict) -> int:
    """Failed operations of one round, out of fits, trials and per-view checks.

    A fit fails when its model breaks an invariant or its JSON bytes differ
    from the same fit's in the first round.  A trial fails when its model
    breaks an invariant, the brute-force oracle disagrees with
    ``knn_classify``, or the report bytes differ from the first round's.  A
    check fails on any axiom violation.
    """
    failed = 0
    for model, data, ref in zip(rnd["models"], rnd["model_bytes"], reference["model_bytes"]):
        failed += not _model_ok(model) or data != ref
    report = rnd["report"]
    same_report = rnd["report_bytes"] == reference["report_bytes"]
    models = rnd["eval_models"]
    for t in range(w.trials):
        ok = (
            same_report
            and len(models) == len(rnd["times"]["eval_trial_s"]) == w.trials
            and _model_ok(models[t])
            and _oracle_agrees(w, seed, rnd["dataset"], report.trials[t], models[t])
        )
        failed += not ok
    for c in rnd["checks"]:
        failed += (c["symmetry_mismatches"] + c["triangle_violations"] + (not c["nonnegative"])) > 0
    return failed


def _blas_threads():
    """OpenBLAS thread count via the library numpy loaded, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def provenance(seed: int, mvmetric_threads) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "removed_MVMETRIC_THREADS": mvmetric_threads,
    }


def _median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def _per_operation(rounds, key) -> float:
    """Mean over a round's operations of each operation's median scaled time over its repeats.

    Set-ups all do the same work, so they are pooled into one operation.
    """
    ops = [r["times"][key] for r in rounds]
    if key == "setup_s":
        ops = [[setup for r in ops for setup in r]]
    else:
        ops = list(zip(*ops))
    return statistics.fmean(statistics.median(map(timing.scaled, op)) for op in ops)


def run(w: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Measure one workload for about ``seconds``; returns the result document.

    Untraced, every round is timed.  Traced, rounds alternate untraced and
    traced so the overhead of tracing is measured in the same process, and
    per-layer figures are medians over the traced rounds.  A new round starts
    only while one more is expected to end before the time is up.
    """
    # the benchmark measures the default (single-threaded) trial scheduling
    mvmetric_threads = os.environ.pop(mv.eval.THREADS_ENV_VAR, None)
    out_dir.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    plain, traced, layers, spans = [], [], [], []
    reference = None
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=f"{w.name}-") as tmp:
        tmp = Path(tmp)
        clock = timing.CalibratedClock()
        _run_round(WARM_UP, seed, tracing.NullTracer(), tmp / "warm-up", clock)
        started = time.perf_counter()
        index = 0
        while True:
            elapsed = time.perf_counter() - started
            if index >= MIN_ROUNDS and elapsed + elapsed / index > seconds:
                break
            workdir = tmp / f"round-{index}"
            if trace and index % 2:
                tracer = tracing.Tracer(
                    {"setup": 1 / w.setups, "train": 1 / w.fits, "check": 1 / w.checks}
                )
            else:
                tracer = tracing.NullTracer()
            ops = w.fits + w.trials + w.checks * len(w.view_dims)
            attempted += ops
            try:
                if tracer.enabled:
                    with tracer.installed():
                        rnd = _run_round(w, seed, tracer, workdir, clock)
                else:
                    with clock.installed():
                        rnd = _run_round(w, seed, tracer, workdir, clock)
                reference = reference or rnd
                failed += _gate(w, seed, rnd, reference)
            except Exception:  # a failed round counts as failed operations; keep measuring
                traceback.print_exc()
                failed += ops
                rnd = None
            shutil.rmtree(workdir, ignore_errors=True)
            if rnd is not None:
                rnd["artifacts"] = {
                    "model_sha256": [hashlib.sha256(b).hexdigest() for b in rnd["model_bytes"]],
                    "report_sha256": hashlib.sha256(rnd["report_bytes"]).hexdigest(),
                }
                if tracer.enabled:
                    totals = tracer.layer_totals()
                    totals["model.bytes"] = statistics.mean(len(b) for b in rnd["model_bytes"])
                    totals["metric.check_triples"] = (
                        sum(c["trials"] for c in rnd["checks"]) / w.checks
                    )
                    layers.append(totals)
                    traced.append(rnd)
                    spans.extend(dict(s, round=index) for s in tracer.spans)
                else:
                    plain.append(rnd)
            index += 1

    metrics = {}
    if trace and traced and plain:
        for name in [*tracing.LAYER_SPANS, *tracing.COUNT_UNITS]:
            value = statistics.median(t.get(name, 0) for t in layers)
            metrics[name] = {"value": value, "unit": tracing.COUNT_UNITS.get(name, "s")}
        overhead = _median(traced, "wall_s") - _median(plain, "wall_s")
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    elif plain:
        report = plain[0]["report"]
        for name in TIMES:
            metrics[name] = {"value": _per_operation(plain, name), "unit": "s"}
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": rss_kib / 1024.0, "unit": "MB"}
        metrics["accuracy"] = {"value": report.mean_accuracy, "unit": "fraction"}
        metrics["euclidean_accuracy"] = {"value": report.baseline_mean, "unit": "fraction"}

    stem = out_dir / f"{w.name}-seed{seed}-trace{int(trace)}"
    if spans:
        with open(f"{stem}-spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
    done = plain + traced
    result = {
        "correct": failed == 0 and bool(done),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "workload": w.name,
        "rounds": {"untraced": len(plain), "traced": len(traced)},
        "times": {key: [r["times"][key] for r in plain] for key in TIMES},
        "artifacts": sorted({json.dumps(r["artifacts"], sort_keys=True) for r in done}),
        "provenance": provenance(seed, mvmetric_threads),
    }
    Path(f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    return result
