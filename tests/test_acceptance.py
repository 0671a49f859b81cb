"""Acceptance gate: one test per formal criterion, each printing a verdict line.

Corpus-specific benchmark figures depend on feature-extraction pipelines
that are not part of this package, so the gate is property-based instead:
algebraic oracles with explicit tolerances, an optimality bound on the
projection step, invariant checks over full training runs, a controlled
synthetic end-to-end benchmark with a paired Euclidean baseline, and
byte-level determinism of the CLI artifacts.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the verdict lines.
"""

import json
import time

import numpy as np

from mvmetric import (
    Hyperparams,
    ViewMatrix,
    build_constraints,
    check_metric_axioms,
    generate_synthetic,
    metric_matrix,
    run_benchmark,
    split,
    train,
    write_dataset,
)
from mvmetric.cli import main as cli_main
from mvmetric.scatter import compute_cross, compute_scatter
from mvmetric.solver import (
    _polar_start,
    _refine_blocks,
    assemble_block_matrix,
    compute_view_gains,
    update_view_weights,
)

from test_scatter import naive_cross, naive_pair_scatter
from test_solver import objective_oracle, random_instance, random_orthonormal_blocks, stacked_objective


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _budget(number: int, name: str, elapsed: float, limit: float) -> None:
    _verdict(number, f"{name} runtime", elapsed < limit, f"{elapsed:.2f}s < {limit:.0f}s")


def test_criterion_1_property_based_substitution():
    """Corpus accuracy tables are replaced by the property-based gate below.

    This criterion verifies the substitute machinery exists end to end: the
    synthetic generator produces a valid labeled multiview dataset and the
    harness can score the learned metric against the Euclidean baseline on
    identical splits.
    """
    ds = generate_synthetic(2, 5, [3, 4], noise_views={2}, seed=0)
    report = run_benchmark(ds, 6, 2, Hyperparams(embed_dim=2), seed=0, include_baseline=True)
    # each trial scores both metrics on one split: its train and test indices
    # are disjoint and cover the samples, so each sample is listed exactly once
    ok = ds.m == 2 and len(report.trials) == 2 and all(
        {"accuracy", "baseline_accuracy"} <= record.keys()
        and sorted(record["train_indices"] + record["test_indices"]) == list(range(ds.n))
        for record in report.trials
    )
    _verdict(1, "property-based substitution wired", ok)


def test_criterion_2_scatter_oracle_equivalence():
    rng = np.random.default_rng(20)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(4, 13))
        dims = [int(rng.integers(2, 7)) for _ in range(m)]
        labels = rng.integers(0, 3, size=n)
        while np.unique(labels).size < 2 or not np.any(np.bincount(labels) >= 2):
            labels = rng.integers(0, 3, size=n)
        constraints = build_constraints(labels)
        views = [ViewMatrix(v + 1, rng.standard_normal((dim, n))) for v, dim in enumerate(dims)]
        for view in views:
            between, within = compute_scatter(view, constraints)
            worst = max(
                worst,
                np.abs(between - naive_pair_scatter(view.data, labels, same=False)).max(),
                np.abs(within - naive_pair_scatter(view.data, labels, same=True)).max(),
            )
        for a in range(m):
            for b in range(a + 1, m):
                cross = compute_cross(views[a], views[b])
                worst = max(
                    worst, np.abs(cross - naive_cross(views[a].data, views[b].data)).max()
                )
    elapsed = time.perf_counter() - start
    _verdict(2, "scatter oracle equivalence", worst <= 1e-12, f"max abs error {worst:.2e} <= 1e-12")
    _budget(2, "scatter oracle equivalence", elapsed, 1.0)


def test_criterion_3_objective_consistency():
    rng = np.random.default_rng(30)
    start = time.perf_counter()
    dims = [3, 5, 4]
    z1_at, margins, crosses = random_instance(rng, dims, n_samples=9)
    weights = rng.dirichlet(np.ones(3))
    r, eta = 2.5, 0.8
    Z = assemble_block_matrix(z1_at(eta), dims, weights**r)
    worst = 0.0
    for _ in range(20):
        blocks = random_orthonormal_blocks(rng, dims, 2)
        via_z = stacked_objective(Z, blocks)
        direct = objective_oracle(blocks, weights, margins, crosses, r, eta)
        worst = max(worst, abs(via_z - direct) / max(1.0, abs(direct)))
    elapsed = time.perf_counter() - start
    _verdict(3, "objective consistency", worst <= 1e-10, f"max rel error {worst:.2e} <= 1e-10")
    _budget(3, "objective consistency", elapsed, 1.0)


def test_criterion_4_projection_step_optimality_bound():
    """The first W-step of a fit, and a later one, beat random candidates.

    A later W-step sweeps a reweighted Z_2 from the start the first Z gave,
    as every iteration after a fit's first does; Z_2 scales block (v, w) of
    Z by (b_v + b_w) / 2, b drawn from a second generator so that the
    instances and candidates keep their bits.
    """
    rng = np.random.default_rng(40)
    reweight = np.random.default_rng(41)
    start = time.perf_counter()
    worst_first = worst_later = np.inf
    for _ in range(10):
        m = int(rng.integers(2, 4))
        dims = [int(rng.integers(2, 5)) for _ in range(m)]
        d = int(rng.integers(1, min(dims) + 1))
        total = sum(dims)
        base = rng.standard_normal((total, total))
        Z = (base + base.T) / 2.0
        b = np.repeat(reweight.dirichlet(np.ones(m)), dims)
        Z2 = (b[:, None] + b[None, :]) / 2.0 * Z
        first_start = _polar_start(Z, dims, d)[0]
        first = stacked_objective(Z, _refine_blocks(Z, dims, first_start)[0])
        later = stacked_objective(Z2, _refine_blocks(Z2, dims, first_start)[0])
        candidates = [np.linalg.qr(rng.standard_normal((10_000, dim, d)))[0] for dim in dims]
        W = np.concatenate(candidates, axis=1)
        best_first, best_later = np.einsum("nij,zik,nkj->zn", W, np.stack([Z, Z2]), W, optimize=True).max(axis=1)
        worst_first = min(worst_first, first - best_first)
        worst_later = min(worst_later, later - best_later)
    elapsed = time.perf_counter() - start
    _verdict(
        4,
        "first and later projection steps beat 10k random candidates",
        min(worst_first, worst_later) >= 0.0,
        f"worst margins {worst_first:.2e} (first), {worst_later:.2e} (later) >= 0",
    )
    _budget(4, "projection step optimality", elapsed, 30.0)


def test_criterion_5_weight_update_closed_form():
    """The closed-form weight update lands on its subproblem's stationary point.

    The default update rewards gain: it is the interior stationary point of
    ``min sum_v a_v^r / g_v`` on the simplex, verified here by dense grid
    search (m=2, step 1e-4).
    """
    rng = np.random.default_rng(50)
    start = time.perf_counter()
    grid = np.arange(1e-4, 1.0, 1e-4)
    worst = 0.0
    for r in (1.5, 2.0, 4.0):
        for _ in range(10):
            gains = rng.uniform(0.1, 10.0, size=2)
            values = grid**r / gains[0] + (1.0 - grid) ** r / gains[1]
            a_star = grid[np.argmin(values)]
            weights = update_view_weights(gains, r)
            worst = max(worst, abs(weights[0] - a_star))
    uniform_exact = all(
        np.all(update_view_weights(np.full(m, 2.3), 2.0) == 1.0 / m) for m in (2, 3, 4)
    )
    elapsed = time.perf_counter() - start
    _verdict(
        5,
        "weight update matches grid-search stationary point",
        worst <= 1e-3 and uniform_exact,
        f"max deviation {worst:.2e} <= 1e-3, uniform gains exact 1/m: {uniform_exact}",
    )
    _budget(5, "weight update closed form", elapsed, 5.0)


def test_criterion_6_gain_gradient_check():
    rng = np.random.default_rng(60)
    start = time.perf_counter()
    worst = 0.0
    h = 1e-5
    for i in range(10):
        m = int(rng.integers(2, 4))
        dims = [int(rng.integers(2, 5)) for _ in range(m)]
        z1_at, margins, crosses = random_instance(rng, dims, n_samples=8)
        r = (1.5, 2.0, 3.0)[i % 3]
        eta = float(rng.uniform(0.5, 2.0))
        d = min(dims)
        blocks = random_orthonormal_blocks(rng, dims, d)
        gains = compute_view_gains(blocks, z1_at(eta))
        ones = np.ones(m)
        for v in range(m):
            up, down = ones.copy(), ones.copy()
            up[v] += h
            down[v] -= h
            fd = (
                objective_oracle(blocks, up, margins, crosses, r, eta)
                - objective_oracle(blocks, down, margins, crosses, r, eta)
            ) / (2 * h)
            worst = max(worst, abs(fd - r * gains[v]) / max(1e-12, abs(r * gains[v])))
    elapsed = time.perf_counter() - start
    _verdict(
        6,
        "r*g_v matches central finite differences",
        worst <= 1e-6,
        f"max rel error {worst:.2e} <= 1e-6",
    )
    _budget(6, "gain gradient check", elapsed, 5.0)


def test_criterion_7_invariant_suite_on_full_runs():
    start = time.perf_counter()
    ok = True
    details = []
    configs = [
        dict(classes=2, per_class=15, dims=[5, 8], noise={2}, d=3, seed=70),
        dict(classes=3, per_class=10, dims=[4, 4], noise=set(), d=4, seed=71),
    ]
    for cfg in configs:
        ds = generate_synthetic(cfg["classes"], cfg["per_class"], cfg["dims"], cfg["noise"], cfg["seed"])
        sp = split(ds, ds.n // 2, seed=cfg["seed"])
        cons = build_constraints(ds.labels[sp.train_indices])
        model = train(ds, sp, cons, Hyperparams(embed_dim=cfg["d"]))
        d = model.embed_dim
        orth = max(np.linalg.norm(w.T @ w - np.eye(d)) for w in model.projections)
        ok &= orth <= 1e-8
        details.append(f"orth {orth:.1e}")
        for entry in model.trace:
            weights = np.array(entry["weights"])
            ok &= bool(np.all(weights >= 0.0) and abs(weights.sum() - 1.0) <= 1e-12)
        for v in range(1, model.num_views + 1):
            report = check_metric_axioms(model, v, ds.views[v - 1].data, trials=1000, seed=7)
            ok &= report["symmetry_exact"]
            ok &= report["nonnegative"]
            ok &= report["triangle_violations"] == 0
            eig_min = float(np.linalg.eigvalsh(metric_matrix(model, v)).min())
            ok &= eig_min >= -1e-10
        details.append(f"min eig >= -1e-10, 1000 triples clean")
    elapsed = time.perf_counter() - start
    _verdict(7, "training invariant suite", ok, "; ".join(details[:2]))
    _budget(7, "training invariant suite", elapsed, 30.0)


def test_criterion_8_end_to_end_learning_signal():
    start = time.perf_counter()
    ds = generate_synthetic(2, 20, [5, 40], noise_views={2}, seed=0)
    report = run_benchmark(
        ds, train_count=20, trials=10, hyper=Hyperparams(embed_dim=3), seed=0, include_baseline=True
    )
    informative_wins = sum(w[0] > w[1] for w in report.weights_per_trial)
    elapsed = time.perf_counter() - start
    _verdict(
        8,
        "(a) informative view gets more weight",
        informative_wins >= 8,
        f"{informative_wins}/10 trials",
    )
    _verdict(
        8,
        "(b) learned metric >= Euclidean baseline",
        report.mean_accuracy >= report.baseline_mean,
        f"{report.mean_accuracy:.3f} vs {report.baseline_mean:.3f} on identical splits",
    )
    _verdict(8, "(c) mean accuracy >= 0.9", report.mean_accuracy >= 0.9, f"{report.mean_accuracy:.3f}")
    _budget(8, "end-to-end learning signal", elapsed, 60.0)


def test_criterion_9_byte_identical_artifacts(tmp_path):
    data_dir = tmp_path / "data"
    ds = generate_synthetic(2, 10, [4, 6], noise_views={2}, seed=9)
    manifest = write_dataset(ds, data_dir)
    model_path = tmp_path / "model.json"
    report_path = tmp_path / "report.json"
    train_argv = [
        "train", "--manifest", str(manifest), "--train-count", "12", "--seed", "5", "--d", "2",
        "--out", str(model_path),
    ]
    eval_argv = [
        "eval", "--manifest", str(manifest), "--train-count", "12", "--trials", "5", "--seed", "5",
        "--d", "2", "--baseline", "euclidean", "--out", str(report_path),
    ]
    assert cli_main(train_argv) == 0
    first_model = model_path.read_bytes()
    assert cli_main(eval_argv) == 0
    first_report = report_path.read_bytes()
    assert cli_main(train_argv) == 0
    assert cli_main(eval_argv) == 0
    models_equal = model_path.read_bytes() == first_model
    reports_equal = report_path.read_bytes() == first_report
    # sanity: the artifacts are real JSON documents, not empty files
    assert json.loads(first_model)["format_version"] == "2"
    assert json.loads(first_report)["format_version"] == "1"
    _verdict(
        9,
        "byte-identical model and report across reruns",
        models_equal and reports_equal,
        f"model bytes equal: {models_equal}, report bytes equal: {reports_equal}",
    )
