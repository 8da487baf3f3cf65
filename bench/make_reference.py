"""Regenerate the stored reference digests of the config-driven workloads.

    python3 bench/make_reference.py [--seeds 0-10] [--workload NAME ...]

Runs one ``--threads 1`` pass per (workload, seed) through the same child
process as the benchmark, requires it to pass the invariant checks, and
writes ``bench/reference/<workload>/seed-<n>.json.gz``.  The stored files
were produced from the seed commit's ``src/``; regenerate them only when a
change is meant to alter the program's output, and say so.
"""

from __future__ import annotations

import argparse
import gzip
import json
import shutil
import sys
import time
from pathlib import Path

import checks
from run import Runner, environment
from workloads import WORKLOADS


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def make_reference(root: Path, name: str, seed: int, env: dict) -> list[str]:
    """Write one reference file; returns the invariant failures, if any."""
    workload = WORKLOADS[name]
    runner = Runner(root, root / ".bench_work" / "reference" / name, workload, seed,
                    time.monotonic() + 600.0)
    outcome, cwd = runner.child({
        "mode": "pass", "trace": False, "ensemble": False,
        "commands": workload.commands(runner.config, seed, 1),
    })
    workload.check(runner.tally, runner.config, outcome, cwd / "out", None)
    if not runner.tally.failures:
        payload = dict(checks.reference_view(checks.digest_outputs(cwd / "out")),
                       workload=name, seed=seed, git_rev=env["git_rev"],
                       src_sha256=env["src_sha256"])
        path = checks.reference_path(root, name, seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write((json.dumps(payload, sort_keys=True) + "\n").encode())
    shutil.rmtree(cwd)
    return runner.tally.failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-10", help="inclusive range, e.g. 0-10")
    parser.add_argument("--workload", action="append",
                        choices=[n for n, w in WORKLOADS.items() if w.has_reference])
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    env = environment(root)
    names = args.workload or [n for n, w in WORKLOADS.items() if w.has_reference]
    failed = False
    for name in names:
        for seed in parse_seeds(args.seeds):
            failures = make_reference(root, name, seed, env)
            print(f"{name} seed {seed}: "
                  + ("written" if not failures else f"NOT written: {failures[:3]}"))
            failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
