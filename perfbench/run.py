"""Benchmark of mvmetric's train / eval / check, one workload per process.

    python3 perfbench/run.py --workload wide-views --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 40      # every workload, one process each

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, with ``--trace 1`` one with the per-layer metrics.  Both
also go, with provenance and artifact hashes, to ``perfbench/out/``, where a
traced run also leaves its spans.  Exits non-zero when the package is missing
or, for ``--workload all``, when any workload fails its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("score-shifted", "wide-views")


def _run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"error: workload {name} failed", file=sys.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    if not (SRC_DIR / "mvmetric" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import harness  # imports mvmetric from SRC_DIR

    result = harness.run(harness.WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), BENCH_DIR / "out")
    print(f"workload {args.workload} seed {args.seed} rounds {result['rounds']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:24s} {metric['value']:.6g} {metric['unit']}")
    print(f"  attempted {result['attempted']} failed {result['failed']}")
    print("provenance " + json.dumps(result["provenance"]))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
