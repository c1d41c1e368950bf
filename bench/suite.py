#!/usr/bin/env python3
"""Run every workload and print its metrics by name and unit.

    python3 bench/suite.py --seed 1 --seconds 10

Per workload: one untraced run (end-to-end metrics) and two traced runs with
the same seed (per-layer metrics).  Each run is its own process and checks
every output.  The two traced runs must report identical count metrics; the
suite exits non-zero when any run fails, any output is wrong, or a count
differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from tracing import TIME_METRICS  # noqa: E402


def run(workload: str, seed: int, seconds: float, traced: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(traced)]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=HERE.parent)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{workload} --trace {traced} exited with {done.returncode}")
    record, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return record, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        record, result = run(workload, args.seed, args.seconds, 0)
        traced = [run(workload, args.seed, args.seconds, 1)[1] for _ in range(2)]
        ok &= result["correct"] and all(t["correct"] for t in traced)
        print(f"== {workload}  seed {args.seed}  corpus {record['corpus_sha256'][:12]}  machine {record['machine']}")
        print(f"   attempted {result['attempted']}  failed {result['failed']}  error_rate {record['error_rate']:.4g}")
        for name, metric in result["metrics"].items():
            print(f"   {name:28s} {metric['value']:12.6g} {metric['unit']}")
        first, second = (t["metrics"] for t in traced)
        for name, metric in first.items():
            if metric["unit"] == "count/op" and metric["value"] != second[name]["value"]:
                ok = False
                print(f"   COUNT MISMATCH {name}: {metric['value']} vs {second[name]['value']}")
        times = sorted(((first[m]["value"], m) for m in TIME_METRICS), reverse=True)
        print("   largest self times: " + ", ".join(f"{m} {v:.4g} s/op" for v, m in times[:3]))
        shown = ["graph.girth_calls", "graph.parse_s", "graph.girth_s", "trace.overhead_ratio"]
        print("   " + ", ".join(f"{m} {first[m]['value']:.4g}" for m in shown))
    print("all outputs correct, counts repeat" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
