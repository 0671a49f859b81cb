"""Compare the benchmark gate's artifact hashes with the committed ones.

    export OPENBLAS_NUM_THREADS=1 OPENBLAS_CORETYPE=Haswell
    python3 perfbench/run.py --seconds 0 --seed SEED  # once for each seed in SEEDS
    python3 .github/benchmark_hashes.py            # compare; exits 1 on a difference
    python3 .github/benchmark_hashes.py --write    # record them after a deliberate change

Run from the repository root.  ``SEEDS`` is the one list of the gate's
seeds; CI reads it too.  The model and report SHA-256 hold for one
numpy build, BLAS, BLAS thread count and core type: the file records them as
``provenance``, and a difference prints the run's own provenance beside it.
Result files made under different provenance (say, one seed's run at another
BLAS thread count) exit 1 in both modes, naming each file with its own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HASHES = Path(__file__).with_name("benchmark-hashes.json")
OUT = Path("perfbench/out")
SEEDS = (1, 3, 4)  # the seeds the correctness gate runs
WORKLOADS = ("score-shifted", "wide-views")
PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE")


def collect() -> tuple[dict, dict]:
    """Artifact hashes of the last untraced gate runs in ``OUT``, and each result file's provenance.

    A missing result file raises ``FileNotFoundError`` naming it and the run that writes it."""
    artifacts, provenance = {}, {}
    for seed in SEEDS:
        for name in WORKLOADS:
            path = OUT / f"{name}-seed{seed}-trace0.json"
            if not path.is_file():
                run = f"python3 perfbench/run.py --seconds 0 --seed {seed}"
                raise FileNotFoundError(f"{path} is missing: {run} writes it")
            result = json.loads(path.read_text())
            artifacts[f"{name} seed {seed}"] = [json.loads(a) for a in result["artifacts"]]
            provenance[str(path)] = {key: result["provenance"][key] for key in ("numpy", "blas", "blas_threads")}
    return artifacts, provenance


def moved(got, want) -> str:
    """What differs between one workload-seed's artifact sets and its committed
    ones: how many model hashes, of how many, and whether the report hash."""
    if got is None or want is None:
        return "recorded on one side only"
    if len(got) != len(want):
        return f"{len(got)} distinct artifact sets against {len(want)} committed"
    notes = []
    for g, w in zip(got, want):
        models, pinned = g["model_sha256"], w["model_sha256"]
        count = sum(a != b for a, b in zip(models, pinned)) + abs(len(models) - len(pinned))
        report = "differs" if g["report_sha256"] != w["report_sha256"] else "matches"
        notes.append(f"{count} of {len(pinned)} model hashes differ, the report hash {report}")
    return "; ".join(notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="record the hashes instead of comparing")
    args = parser.parse_args(argv)
    try:
        artifacts, provenance = collect()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len({json.dumps(p) for p in provenance.values()}) > 1:
        print("error: the result files were made under different provenance:", file=sys.stderr)
        for path, p in provenance.items():
            print(f"  {path} {json.dumps(p)}", file=sys.stderr)
        return 1
    run = {**next(iter(provenance.values())), **{key: os.environ.get(key) for key in PINNED_ENV}}
    got = {"command": "python3 perfbench/run.py --seconds 0 --seed <seed>", "provenance": run, "artifacts": artifacts}
    if args.write:
        HASHES.write_text(json.dumps(got, indent=2) + "\n")
        return 0
    want = json.loads(HASHES.read_text())
    # a seed or workload on one side only differs too
    keys = sorted(want["artifacts"].keys() | got["artifacts"].keys())
    differ = [key for key in keys if got["artifacts"].get(key) != want["artifacts"].get(key)]
    for key in differ:
        what = moved(got["artifacts"].get(key), want["artifacts"].get(key))
        print(f"error: {key}: artifact hashes differ from {HASHES.name}: {what}", file=sys.stderr)
    if differ:
        print(f"committed provenance {json.dumps(want['provenance'])}", file=sys.stderr)
        print(f"this run's provenance {json.dumps(got['provenance'])}", file=sys.stderr)
    return int(bool(differ))


if __name__ == "__main__":
    raise SystemExit(main())
