"""Run the benchmark over several seeds and summarise run-to-run spread.

    python3 bench/baseline.py --seeds 0-9 [--workload NAME ...] [--trace 1]
                              [--out bench/baseline.json]

Each run is ``bench/run.py`` in its own process with the run length from
BENCHMARK.json.  For every metric the summary gives the median of the
per-run values, their quartiles, and the spread (q3 - q1) / median that
BENCHMARK.json's bounds are judged against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from make_reference import parse_seeds
from run import environment
from workloads import WORKLOADS


def run_once(root: Path, name: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "unit": results[0]["metrics"][name]["unit"], "values": values,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = parse_seeds(args.seeds)
    summary = {"env": environment(root), "seeds": seeds, "trace": args.trace,
               "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in args.workload or list(WORKLOADS):
        results = [run_once(root, name, s, spec["run_seconds"], args.trace) for s in seeds]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        metrics = summarise(results)
        summary["workloads"][name] = {"attempted": attempted, "failed": failed,
                                      "metrics": metrics}
        print(f"{name}: failed {failed} of {attempted}")
        for metric, m in metrics.items():
            print(f"  {metric:<28} median {m['median']:<12.6g} spread {m['spread']:.4f}")
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
