"""memgrad benchmark: time to verdict, set-up, memory and per-layer spans.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a memgrad source tree; the program is imported from
its ``src/`` directory.  Every set-up probe and every pass is a fresh
child process (``bench/child.py``).

``--trace 0`` times the end-to-end metrics: pairs of passes at
``--threads 1`` and ``--threads $(nproc)``, each pair preceded by a set-up
probe, and extra probes at the end up to eleven.  ``--trace 1`` runs triples
instead -- untraced at one thread, traced at one thread, and untraced at
``nproc`` threads -- and reports the per-layer metrics of the traced pass.
A run always makes one pair (or triple), and starts another only if it is
expected to end within ``--seconds`` of the run's start, judged by the
length of the one before; so a run ends within ``--seconds`` unless its
first pair alone takes longer.  Every pass is checked (see ``checks.py``);
the count of operations and of failed ones is reported as ``attempted`` /
``failed``.

The last line of standard output is the JSON result; the full result,
with quartiles, samples and the environment, is written to
``.bench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen_logistic
import spans
from workloads import WORKLOADS, Workload

SETUP_PROBES = 11  # at least this many per --trace 0 run
RUN_LIMIT_S = 170.0  # children are killed past this, so a run ends within 180 s
# One BLAS thread per pass, so a pass runs as many threads as its
# ``--threads``: OpenBLAS's own pool (nproc threads, spin-waiting between
# calls) on top of the harness's pool oversubscribes the cores and makes
# the threaded pass time the scheduler.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_s_threaded": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no program, crashed child)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def environment(root: Path) -> dict:
    """Code identity, machine and library settings recorded with every result."""
    rev = None
    if (root / ".git").exists():  # an exported checkout has no revision
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if level and kind:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = _read(
                f"{index}/size")
    return {
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
        "nproc": nproc(),
        "cpu_model": cpu,
        "caches": caches,
        "blas_threads_env": dict(BLAS_THREADS),
    }


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Runner:
    """Runs child processes for one workload, seed and run."""

    def __init__(self, root: Path, work: Path, workload: Workload, seed: int,
                 deadline: float):
        self.root, self.work, self.workload, self.seed = root, work, workload, seed
        self.deadline = deadline
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
        self.env.update(BLAS_THREADS)
        self.config = workload.config(root, work, seed)
        self.reference = (checks.load_reference(root, workload.name, seed)
                          if workload.has_reference else None)
        self.tally = checks.Tally()
        self.count = 0

    def child(self, request: dict) -> tuple[dict, Path]:
        self.count += 1
        cwd = self.work / f"child-{self.count}"
        shutil.rmtree(cwd, ignore_errors=True)
        cwd.mkdir(parents=True)
        request = dict(request, seed=self.seed, result=str(cwd / "child_result.json"),
                       config=None if self.config is None else str(self.config))
        (cwd / "request.json").write_text(json.dumps(request), encoding="utf-8")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        try:
            proc = subprocess.run(
                [sys.executable, str(self.root / "bench" / "child.py"),
                 str(cwd / "request.json")],
                cwd=cwd, env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"child {request['mode']} killed after {timeout:.0f} s") from err
        result_path = cwd / "child_result.json"
        if proc.returncode != 0 or not result_path.is_file():
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise BenchError(f"child {request['mode']} failed ({proc.returncode}):\n{tail}")
        return json.loads(result_path.read_text(encoding="utf-8")), cwd

    def setup(self) -> dict:
        result, cwd = self.child({"mode": "setup"})
        shutil.rmtree(cwd)
        src = (self.root / "src").resolve()
        if src not in Path(result["memgrad_file"]).resolve().parents:
            raise BenchError(f"memgrad imported from {result['memgrad_file']}, not {src}")
        return result

    def run_pass(self, threads: int, trace: bool = False,
                 same_as: dict | None = None) -> tuple[dict, dict]:
        """One checked pass; returns its measurements and its output hashes.

        With ``same_as``, the pass's output files must also be byte-identical
        to those hashes (thread-count and tracing invariance).
        """
        outcome, cwd = self.child({
            "mode": "pass", "trace": trace,
            "ensemble": self.workload.ensemble and threads == 1,
            "commands": self.workload.commands(self.config, self.seed, threads),
        })
        out_dir = cwd / "out"
        self.workload.check(self.tally, self.config, outcome, out_dir, self.reference)
        hashes = checks.file_hashes(out_dir)
        if same_as is not None:
            label = "traced vs untraced" if trace else f"threads {threads} vs 1"
            prefix = self.workload.threaded_outputs if threads > 1 else ""
            base = {k: v for k, v in same_as.items() if k.startswith(prefix)}
            checks.check_same_bytes(self.tally, label, base, hashes)
        shutil.rmtree(cwd)
        return outcome, hashes


def measure(workload: Workload, root: Path, work: Path, seed: int, seconds: float,
            trace: bool) -> dict:
    """One benchmark run; returns metrics, quartiles and the operation tally."""
    start = time.monotonic()
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work, workload, seed, start + RUN_LIMIT_S)
    threads = nproc()
    samples: dict[str, list[float]] = {}

    def add(name, value):
        samples.setdefault(name, []).append(value)

    def probe():
        result = runner.setup()
        add("setup_s", result["setup_s"])
        return result

    while True:
        pair_start = time.monotonic()
        if not trace or not samples:
            versions = probe()["versions"]
        base, hashes = runner.run_pass(1)
        add("wall_s", base["wall_s"])
        add("peak_rss_mb", base["peak_rss_mb"])
        if trace:
            traced, _ = runner.run_pass(1, trace=True, same_as=hashes)
            for name, value in spans.layer_metrics(traced["trace"]).items():
                add(name, value)
            add("trace.overhead_frac", traced["wall_s"] / base["wall_s"] - 1.0)
            if traced["trace"]["missing"]:
                print(f"not traced (absent): {', '.join(traced['trace']['missing'])}")
        threaded, _ = runner.run_pass(threads, same_as=hashes)
        add("wall_s_threaded", threaded["wall_s"])
        add("harness.threaded_cpu_frac", threaded["cpu_s"] / (threaded["wall_s"] * threads))
        now = time.monotonic()
        if now - start + (now - pair_start) > seconds:
            break
    while not trace and len(samples["setup_s"]) < SETUP_PROBES:
        probe()

    names = list(spans.LAYER_UNITS) if trace else list(END_TO_END_UNITS)
    units = spans.LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "reference": (runner.reference is not None) if workload.has_reference else None,
        "versions": versions,
        "metrics": {name: dict(summary(samples[name]), unit=units[name],
                               samples=samples[name]) for name in names},
        "attempted": runner.tally.attempted,
        "failures": runner.tally.failures,
        "elapsed_s": time.monotonic() - start,
    }


def report(result: dict, env: dict) -> str:
    """Human-readable lines, then the one-line JSON result."""
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}"
        f"  elapsed {result['elapsed_s']:.1f} s",
        "env " + json.dumps(dict(env, versions=result["versions"]), sort_keys=True),
    ]
    if result["workload"] == "logistic-wide":
        lines.append(
            f"working set: features {gen_logistic.working_set_bytes() / 1e6:.1f} MB "
            f"({gen_logistic.N_SAMPLES} x {gen_logistic.DIM} float64) against caches "
            f"{env['caches']}")
    if result["reference"] is not None:
        lines.append(
            f"reference: stored digest for seed {result['seed']}" if result["reference"]
            else f"reference: none stored for seed {result['seed']}; invariant checks only")
    lines.append(f"{'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}  unit")
    for name, m in result["metrics"].items():
        lines.append(f"{name:<28}{m['median']:>14.6g}{m['q1']:>14.6g}{m['q3']:>14.6g}"
                     f"{m['n']:>4}  {m['unit']}")
    failed, attempted = len(result["failures"]), result["attempted"]
    lines.append(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    lines.extend(f"FAILED {f}" for f in result["failures"][:20])
    lines.append(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["median"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="memgrad benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "memgrad" / "__init__.py").is_file():
        print(f"no memgrad source tree at {root / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / ".bench_work" / workload.name
    try:
        result = measure(workload, root, work, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 3
    env = environment(root)
    out = work / f"result-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(dict(result, env=env), indent=2) + "\n", encoding="utf-8")
    print(report(result, env))
    return 0


if __name__ == "__main__":
    sys.exit(main())
