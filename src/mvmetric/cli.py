"""Command-line interface: generate / train / eval / check."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ._format import FORMAT_VERSION
from .constraints import build_constraints
from .dataset import generate_synthetic, load_manifest, split, write_dataset
from .eval import run_benchmark
from .metric import WEIGHT_MODES, check_metric_axioms
from .model import Hyperparams, MultiviewMetricModel
from .solver import TrainingError, train

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _parse_int_list(text: str, what: str) -> list:
    try:
        return [int(part) for part in str(text).split(",") if part != ""]
    except ValueError as exc:
        raise ValueError(f"malformed {what} list: {text!r}") from exc


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags; unknown config keys are errors."""
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        path = Path(config_path)
        if not path.is_file():
            raise FileNotFoundError(f"config file not found: {path}")
        loaded = json.loads(path.read_text())
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {path}: expected a JSON object")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ValueError(f"config file {path}: unknown keys {sorted(unknown)}")
        merged.update(loaded)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _require(cfg: dict, keys) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join('--' + k.replace('_', '-') for k in missing)}")


def _hyper_from_config(cfg: dict) -> Hyperparams:
    return Hyperparams(
        embed_dim=cfg.get("d"),
        weight_exponent=cfg["r"],
        coupling_eta=cfg["eta"],
        max_iters=cfg["max_iters"],
        tol=cfg["tol"],
    )


_HYPER_DEFAULTS = {
    "d": None,
    "r": 2.0,
    "eta": 1.0,
    "max_iters": 50,
    "tol": 1e-6,
    "max_pairs_per_set": None,
    "standardize": False,
}


def cmd_train(args: argparse.Namespace) -> int:
    defaults = {"manifest": None, "train_count": None, "seed": 0, "out": None, **_HYPER_DEFAULTS}
    cfg = _merge_config(args, defaults)
    _require(cfg, ["manifest", "train_count", "out"])
    hyper = _hyper_from_config(cfg)
    dataset = load_manifest(cfg["manifest"], standardize=cfg["standardize"])
    sp = split(dataset, cfg["train_count"], cfg["seed"])
    cons = build_constraints(
        dataset.labels[sp.train_indices], cfg["max_pairs_per_set"], cfg["seed"]
    )
    model = train(dataset, sp, cons, hyper)
    model.save(cfg["out"], config=cfg)
    weights = ", ".join(f"{w:.6f}" for w in model.view_weights)
    stopped = "converged below tol" if model.stop_reason == "tol" else "stopped at max_iters"
    print(
        f"trained {model.num_views} views in {len(model.trace)} iterations ({stopped}); "
        f"view weights: [{weights}]",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    defaults = {
        "manifest": None,
        "train_count": None,
        "trials": 10,
        "seed": 0,
        "out": None,
        "csv": None,
        "baseline": None,
        "distance_weights": "exponent",
        "k": 1,
        **_HYPER_DEFAULTS,
    }
    cfg = _merge_config(args, defaults)
    _require(cfg, ["manifest", "train_count", "out"])
    if cfg["baseline"] not in (None, "euclidean"):
        raise ValueError(f"unsupported baseline: {cfg['baseline']!r}")
    if cfg["distance_weights"] not in WEIGHT_MODES:
        raise ValueError(f"distance-weights must be one of {WEIGHT_MODES}")
    hyper = _hyper_from_config(cfg)
    dataset = load_manifest(cfg["manifest"], standardize=cfg["standardize"])
    report = run_benchmark(
        dataset,
        train_count=cfg["train_count"],
        trials=cfg["trials"],
        hyper=hyper,
        seed=cfg["seed"],
        max_pairs_per_set=cfg["max_pairs_per_set"],
        include_baseline=cfg["baseline"] == "euclidean",
        weight_mode=cfg["distance_weights"],
        k=cfg["k"],
    )
    report.config["cli"] = cfg
    report.save(cfg["out"])
    if cfg["csv"]:
        Path(cfg["csv"]).write_text(report.summary_csv())
    line = f"mean accuracy {report.mean_accuracy:.4f}, max {report.max_accuracy:.4f} over {cfg['trials']} trials"
    if report.baseline_mean is not None:
        line += f"; euclidean baseline mean {report.baseline_mean:.4f}"
    print(line, file=sys.stderr)
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    defaults = {
        "classes": None,
        "per_class": None,
        "view_dims": None,
        "noise_views": "",
        "seed": 0,
        "separation": 4.0,
        "out": None,
    }
    cfg = _merge_config(args, defaults)
    _require(cfg, ["classes", "per_class", "view_dims", "out"])
    view_dims = _parse_int_list(cfg["view_dims"], "view-dims")
    if len(view_dims) < 2:
        raise ValueError("view-dims needs at least 2 entries (loadable datasets are multiview)")
    noise_views = set(_parse_int_list(cfg["noise_views"], "noise-views"))
    dataset = generate_synthetic(
        classes=cfg["classes"],
        per_class=cfg["per_class"],
        view_dims=view_dims,
        noise_views=noise_views,
        seed=cfg["seed"],
        separation=cfg["separation"],
    )
    manifest = write_dataset(dataset, cfg["out"], config=cfg)
    print(f"wrote {dataset.m} views, {dataset.n} samples; manifest: {manifest}", file=sys.stderr)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    defaults = {"model": None, "manifest": None, "trials": 1000, "seed": 0, "out": None, "standardize": False}
    cfg = _merge_config(args, defaults)
    _require(cfg, ["model", "manifest"])
    if cfg["trials"] < 1:
        raise ValueError("trials must be >= 1")
    model = MultiviewMetricModel.load(cfg["model"])
    dataset = load_manifest(cfg["manifest"], standardize=cfg["standardize"])
    if dataset.view_dims != model.view_dims:
        raise ValueError(
            f"model dims {model.view_dims} do not match dataset dims {dataset.view_dims}"
        )
    reports = [
        check_metric_axioms(model, v, dataset.views[v - 1].data, cfg["trials"], cfg["seed"])
        for v in range(1, model.num_views + 1)
    ]
    violations = sum(
        r["symmetry_mismatches"] + r["triangle_violations"] + (0 if r["nonnegative"] else 1)
        for r in reports
    )
    doc = {
        "format_version": FORMAT_VERSION,
        "config": cfg,
        "views": reports,
        "violations": violations,
    }
    text = json.dumps(doc, indent=2) + "\n"
    if cfg["out"]:
        Path(cfg["out"]).write_text(text)
    else:
        print(text, end="")
    if violations:
        print(f"error: {violations} metric axiom violation(s) found", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _add_common_hyper_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, help="shared embedding dimension per view (default: min(10, smallest view dim))")
    p.add_argument("--r", type=float, help="view weight exponent, must be > 1 (default 2)")
    p.add_argument("--eta", type=float, help="cross-view coupling divisor, must be > 0 (default 1)")
    p.add_argument("--max-iters", dest="max_iters", type=int, help="maximum alternating iterations (default 50)")
    p.add_argument("--tol", type=float, help="stopping tolerance on the relative change of W_v W_v^T (default 1e-6)")
    p.add_argument("--max-pairs-per-set", dest="max_pairs_per_set", type=int, help="cap on constraint pairs per set")
    p.add_argument(
        "--standardize",
        action=argparse.BooleanOptionalAction,
        help="z-score features per view at load time (default off)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvmetric",
        description="Learn one Mahalanobis metric per view of a multiview dataset and evaluate it with weighted nearest-neighbor classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train per-view metrics on one split and write a model file")
    p.add_argument("--manifest", help="dataset manifest JSON")
    p.add_argument("--train-count", dest="train_count", type=int, help="number of training samples")
    p.add_argument("--seed", type=int, help="split/constraint seed (default 0)")
    p.add_argument("--out", help="output model JSON path")
    p.add_argument("--config", help="JSON config file; flags override its values")
    _add_common_hyper_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="repeated-split 1NN benchmark; writes a report file")
    p.add_argument("--manifest", help="dataset manifest JSON")
    p.add_argument("--train-count", dest="train_count", type=int, help="training samples per trial")
    p.add_argument("--trials", type=int, help="number of random-split trials (default 10)")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--out", help="output report JSON path")
    p.add_argument("--csv", help="also write a CSV summary table here")
    p.add_argument("--baseline", choices=["euclidean"], help="run the identity-metric baseline on identical splits")
    p.add_argument(
        "--distance-weights",
        dest="distance_weights",
        choices=list(WEIGHT_MODES),
        help="per-view weighting of squared distances at test time (default exponent)",
    )
    p.add_argument("--k", type=int, help="neighbors for classification (default 1)")
    p.add_argument("--config", help="JSON config file; flags override its values")
    _add_common_hyper_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("generate", help="write a synthetic multiview dataset (CSVs + labels + manifest)")
    p.add_argument("--classes", type=int, help="number of classes (>= 2)")
    p.add_argument("--per-class", dest="per_class", type=int, help="samples per class (>= 2)")
    p.add_argument("--view-dims", dest="view_dims", help="comma-separated view dimensions, e.g. 5,5")
    p.add_argument("--noise-views", dest="noise_views", help="comma-separated 1-based ids of pure-noise views")
    p.add_argument("--seed", type=int, help="generator seed (default 0)")
    p.add_argument("--separation", type=float, help="minimum class-mean separation (default 4)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("check", help="verify metric axioms of a saved model against a dataset")
    p.add_argument("--model", help="model JSON path")
    p.add_argument("--manifest", help="dataset manifest JSON")
    p.add_argument("--trials", type=int, help="random triples per view (default 1000)")
    p.add_argument("--seed", type=int, help="triple-sampling seed (default 0)")
    p.add_argument("--out", help="output report JSON path (default: stdout)")
    p.add_argument(
        "--standardize",
        action=argparse.BooleanOptionalAction,
        help="z-score features per view at load time (default off)",
    )
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - unexpected failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
