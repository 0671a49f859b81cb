"""Command-line interface: generate / train / eval / check."""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from ._format import FORMAT_VERSION, read_json_object
from .constraints import build_constraints
from .dataset import generate_synthetic, load_manifest, split, write_dataset
from .eval import run_benchmark
from .metric import check_metric_axioms
from .model import Hyperparams, MultiviewMetricModel
from .solver import STOP_MARGIN, TrainingError, train

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _parse_int_list(text: str, what: str) -> list:
    """Comma-separated integers, each read as a labels-file line is: an
    optional sign, then ASCII digits, spaces around it allowed.  ``""`` is
    the empty list; an empty item is an error naming ``what``."""
    parts = text.split(",") if text else []
    # int() would also read "5_0" as 50 and non-ASCII digits
    if not all(re.fullmatch(r"\s*[+-]?[0-9]+\s*", part) for part in parts):
        raise ValueError(f"malformed --{what} list: {text!r}")
    return [int(part) for part in parts]


def _config_value(action: argparse.Action, value):
    """A config-file value as its flag would parse it, or ``ValueError``.

    The flag's action fixes the type: an integer for ``type=int``, a number
    for ``type=float`` (a bool is neither), a bool for
    ``BooleanOptionalAction`` and a string otherwise; a flag with ``choices``
    takes only those.  ``null`` keeps the default.
    """
    if value is None:
        return None
    if isinstance(action, argparse.BooleanOptionalAction):
        expected, ok = "true or false", isinstance(value, bool)
    elif action.type is int:
        expected, ok = "an integer", isinstance(value, int) and not isinstance(value, bool)
    elif action.type is float:
        expected, ok = "a number", isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        expected, ok = "a string", isinstance(value, str)
    if ok and action.choices is not None:
        expected, ok = f"one of {json.dumps(list(action.choices))}", value in action.choices
    if not ok:
        raise ValueError(f"must be {expected}, got {json.dumps(value)}")
    return action.type(value) if action.type in (int, float) else value


def _settings(parser: argparse.ArgumentParser) -> list:
    """The actions of a subcommand's settings, in declaration order."""
    return [action for action in parser._actions if action.dest not in ("help", "config")]


def _read_config(path, parser: argparse.ArgumentParser) -> dict:
    """The non-null values of a JSON config file for ``parser``'s settings;
    unknown keys and values their flag would not take are errors."""
    path = Path(path)
    loaded = read_json_object(path, "config file")
    actions = {action.dest: action for action in _settings(parser)}
    unknown = set(loaded) - set(actions)
    if unknown:
        raise ValueError(f"config file {path}: unknown keys {sorted(unknown)}")
    values = {}
    for key, value in loaded.items():
        try:
            value = _config_value(actions[key], value)
        except ValueError as exc:
            raise ValueError(f"config file {path}: {key} {exc}") from exc
        if value is not None:
            values[key] = value
    return values


def _require(cfg: dict, keys) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join('--' + k.replace('_', '-') for k in missing)}")


def _hyper_from_config(cfg: dict) -> Hyperparams:
    return Hyperparams(
        embed_dim=cfg["d"],
        weight_exponent=cfg["r"],
        coupling_eta=cfg["eta"],
        max_iters=cfg["max_iters"],
        tol=cfg["tol"],
        standardize=cfg["standardize"],
    )


def cmd_train(cfg: dict) -> int:
    _require(cfg, ["manifest", "train_count", "out"])
    hyper = _hyper_from_config(cfg)
    dataset = load_manifest(cfg["manifest"])
    sp = split(dataset, cfg["train_count"], cfg["seed"])
    model = train(dataset, sp, build_constraints(dataset.labels[sp.train_indices]), hyper)
    model.save(cfg["out"], config=cfg)
    weights = ", ".join(f"{w:.6f}" for w in model.view_weights)
    stopped = "converged below tol" if model.stop_reason == "tol" else "stopped at max_iters"
    print(
        f"trained {model.num_views} views in {len(model.trace)} iterations ({stopped}); "
        f"view weights: [{weights}]",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_eval(cfg: dict) -> int:
    _require(cfg, ["manifest", "train_count", "out"])
    hyper = _hyper_from_config(cfg)
    dataset = load_manifest(cfg["manifest"])
    report = run_benchmark(
        dataset,
        train_count=cfg["train_count"],
        trials=cfg["trials"],
        hyper=hyper,
        seed=cfg["seed"],
        include_baseline=cfg["baseline"] == "euclidean",
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


def cmd_generate(cfg: dict) -> int:
    _require(cfg, ["classes", "per_class", "view_dims", "out"])
    noise_views = set(_parse_int_list(cfg["noise_views"], "noise-views"))
    dataset = generate_synthetic(
        classes=cfg["classes"],
        per_class=cfg["per_class"],
        view_dims=_parse_int_list(cfg["view_dims"], "view-dims"),
        noise_views=noise_views,
        seed=cfg["seed"],
        separation=cfg["separation"],
    )
    manifest = write_dataset(dataset, cfg["out"], config=cfg)
    print(f"wrote {dataset.m} views, {dataset.n} samples; manifest: {manifest}", file=sys.stderr)
    return EXIT_OK


def cmd_check(cfg: dict) -> int:
    _require(cfg, ["model", "manifest"])
    model = MultiviewMetricModel.load(cfg["model"])
    dataset = load_manifest(cfg["manifest"])
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
    p.add_argument("--r", type=float, default=Hyperparams.weight_exponent,
                   help="view weight exponent, finite and > 1 (default: %(default)s)")
    p.add_argument("--eta", type=float, default=Hyperparams.coupling_eta,
                   help="cross-view coupling divisor, must be > 0; inf disables the coupling "
                   "and solves each view exactly (default: %(default)s)")
    p.add_argument("--max-iters", dest="max_iters", type=int, default=Hyperparams.max_iters,
                   help="maximum alternating iterations (default: %(default)s)")
    p.add_argument("--tol", type=float, default=Hyperparams.tol,
                   help="stop once the relative change of W_v W_v^T falls below tol, or once the change "
                   "still to come at the rate the last two changes shrank is at most "
                   f"{STOP_MARGIN:g} * tol (default: %(default)s)")
    p.add_argument("--standardize", action=argparse.BooleanOptionalAction, default=Hyperparams.standardize,
                   help="centre and scale each view's features by the training split's mean and std; "
                   "the model stores the scales (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvmetric",
        description="Learn one Mahalanobis metric per view of a multiview dataset and evaluate it with weighted nearest-neighbor classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train per-view metrics on one split and write a model file")
    p.add_argument("--manifest", help="dataset manifest JSON")
    p.add_argument("--train-count", dest="train_count", type=int, help="number of training samples")
    p.add_argument("--seed", type=int, default=0, help="split seed (default: %(default)s)")
    p.add_argument("--out", help="output model JSON path")
    p.add_argument("--config", help="JSON config file; flags override its values")
    _add_common_hyper_flags(p)
    p.set_defaults(func=cmd_train, parser=p)

    p = sub.add_parser("eval", help="repeated-split kNN benchmark (k=1 by default); writes a report file")
    p.add_argument("--manifest", help="dataset manifest JSON")
    p.add_argument("--train-count", dest="train_count", type=int, help="training samples per trial")
    p.add_argument("--trials", type=int, default=10, help="number of random-split trials (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default: %(default)s)")
    p.add_argument("--out", help="output report JSON path")
    p.add_argument("--csv", help="also write a CSV summary table here")
    p.add_argument("--baseline", choices=["euclidean"], help="run the identity-metric baseline on identical splits")
    p.add_argument("--k", type=int, default=1, help="neighbors for classification (default: %(default)s)")
    p.add_argument("--config", help="JSON config file; flags override its values")
    _add_common_hyper_flags(p)
    p.set_defaults(func=cmd_eval, parser=p)

    p = sub.add_parser("generate", help="write a synthetic multiview dataset (CSVs + labels + manifest)")
    p.add_argument("--classes", type=int, help="number of classes (>= 2)")
    p.add_argument("--per-class", dest="per_class", type=int, help="samples per class (>= 2)")
    p.add_argument("--view-dims", dest="view_dims", help="comma-separated view dimensions, e.g. 5,5")
    p.add_argument("--noise-views", dest="noise_views", default="",
                   help="comma-separated 1-based ids of pure-noise views (default: none)")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default: %(default)s)")
    p.add_argument("--separation", type=float, default=4.0,
                   help="minimum class-mean separation (default: %(default)s)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.set_defaults(func=cmd_generate, parser=p)

    p = sub.add_parser("check", help="verify metric axioms of a saved model against a dataset")
    p.add_argument("--model", help="model JSON path")
    p.add_argument("--manifest", help="dataset manifest JSON")
    p.add_argument("--trials", type=int, default=1000, help="random triples per view (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="triple-sampling seed (default: %(default)s)")
    p.add_argument("--out", help="output report JSON path (default: stdout)")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.set_defaults(func=cmd_check, parser=p)

    return parser


def main(argv=None) -> int:
    """Run one subcommand: flag defaults < config file < explicit flags."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the file's values become the flags' defaults, so a flag given
            # explicitly, --no-standardize included, still wins
            args.parser.set_defaults(**_read_config(args.config, args.parser))
            args = parser.parse_args(argv)
        return args.func({action.dest: getattr(args, action.dest) for action in _settings(args.parser)})
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
