"""One fresh process of the benchmark: a set-up probe or one workload pass.

    python3 bench/child.py REQUEST.json

The request (written by ``run.py``) says what to do:

* ``mode: "setup"`` -- time importing memgrad, loading and validating the
  config (``config: null`` means the built-in verify battery config) and
  building the objective;
* ``mode: "pass"`` -- run each ``commands`` entry through
  ``memgrad.cli.main`` (and the criterion-6 ensemble when ``ensemble`` is
  set), optionally under the span tracer, and time the whole pass.

Measurements go to the JSON file named by ``result``.  The child prints
nothing; the CLI's own output is captured and returned.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _setup(request: dict) -> dict:
    start = time.perf_counter()
    harness = importlib.import_module("memgrad.harness")
    importlib.import_module("memgrad.cli")
    if request["config"] is None:
        cfg = importlib.import_module("memgrad.verify").default_verify_config()
        cfg.validate()
    else:
        cfg = harness.ExperimentConfig.from_file(request["config"])
    cfg.master_seed = int(request["seed"])
    harness.build_objective(cfg.problem)
    setup_s = time.perf_counter() - start

    import numpy
    import scipy

    memgrad = importlib.import_module("memgrad")
    return {
        "setup_s": setup_s,
        "memgrad_file": memgrad.__file__,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "memgrad": getattr(memgrad, "__version__", None),
        },
    }


def _ensemble() -> dict:
    """Acceptance criterion 6: Var[V] of 1e4 paths under bare (Nesterov)
    and carried (quadratic-forgetting) noise, with the criterion's seed."""
    import numpy as np

    from memgrad import continuum, memory, problems

    obj = problems.constant_field([1.0])
    rng = np.random.default_rng(612)
    times = [2.0, 5.0, 7.0]
    specs = {
        "nesterov": continuum.nesterov_sde(obj.grad, 1, sigma=1.0),
        "quadratic_forgetting": continuum.memory_sde(
            obj.grad, 1, memory.MemoryFunction.quadratic(), sigma=1.0),
    }
    out = {"times": times, "n_paths": 10**4, "variances": {}}
    for model, spec in specs.items():
        _, _, v = continuum.sample_paths(spec, [0.0], [0.0], times, 1e-3,
                                         out["n_paths"], rng)
        out["variances"][model] = [float(np.var(v[i, :, 0], ddof=1))
                                   for i in range(len(times))]
    return out


def _run_command(cli, argv: list[str]) -> dict:
    buf = io.StringIO()
    code, error = None, None
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        error = f"SystemExit: {exc.code}"
    except Exception:  # a failed operation is reported, not fatal
        error = traceback.format_exc()
    return {"argv": argv, "code": code, "stdout": buf.getvalue(), "error": error}


def _pass(request: dict) -> dict:
    from memgrad import cli

    tracer = None
    if request["trace"]:
        from spans import Tracer

        tracer = Tracer().install()
    cpu0, start = time.process_time(), time.perf_counter()
    commands = [_run_command(cli, argv) for argv in request["commands"]]
    ensemble = None
    if request.get("ensemble"):
        try:
            ensemble = _ensemble()
        except Exception:
            ensemble = {"error": traceback.format_exc()}
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": commands,
        "ensemble": ensemble,
        "trace": tracer.export() if tracer is not None else None,
    }


def main() -> None:
    request = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = _setup(request) if request["mode"] == "setup" else _pass(request)
    Path(request["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
