"""The benchmark's three workloads: what each pass runs and how it is judged.

Every pass is one fresh process that drives ``memgrad.cli.main`` (plus,
for ``continuum-checks``, the criterion-6 ensemble through
``continuum.sample_paths``).  The benchmark seed is the master seed of
every config-driven command and of ``verify``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen_logistic

# Acceptance-criterion settings for continuum-checks: criterion 7's long
# variance-ODE run and criterion 9's time-warp check.
VARIANCE_ODE_ARGS = ["--t0", "0.1", "--t-end", "100", "--h", "1e-3", "--lam", "1",
                     "--sigma2", "1", "--stride", "100"]
VARIANCE_MODELS = ("nesterov", "quadratic_forgetting")
WARP_ARGS = ["--p", "2", "--t-end", "4", "--h", "1e-5", "--coeffs", "0.02,0.005",
             "--compare-from", "0.1"]
# A lone threaded verify takes ~0.5 s and its time swings by up to a third
# from one process to the next, so the threaded pass of continuum-checks
# runs it this many times and is timed as a whole.
VERIFY_REPEATS = 16


def shipped_config(name: str) -> Callable[[Path, Path, int], Path]:
    return lambda root, work, seed: root / "configs" / name


def generated_logistic(root: Path, work: Path, seed: int) -> Path:
    return gen_logistic.write_config(seed, work / f"logistic-seed{seed}.json")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``subcommand`` is ``optimize`` for a config-driven workload, whose
    pass is that one CLI command, and ``None`` for
    continuum-checks.  ``config`` maps (repo root, work dir, seed) to the
    config path, or to ``None`` for the built-in verify config.

    The threaded pass repeats the pass at nproc threads.  In
    continuum-checks it runs only ``verify``, the one command there with a
    thread pool; the others accept ``--threads`` and ignore it.
    """

    name: str
    why: str
    config: Callable[[Path, Path, int], Path | None]
    subcommand: str | None
    flags: tuple[str, ...] = ()
    has_reference: bool = True

    @property
    def ensemble(self) -> bool:
        return self.subcommand is None

    @property
    def threaded_outputs(self) -> str:
        """Prefix of the output files that the threaded pass rewrites."""
        return "" if self.subcommand is not None else "verify/"

    def commands(self, config: Path | None, seed: int, threads: int) -> list[list[str]]:
        common = ["--seed", str(seed), "--threads", str(threads)]
        if self.subcommand is not None:
            return [[self.subcommand, "--config", str(config), *self.flags, *common,
                     "--out", "out"]]
        verify = ["verify", *common, "--out", "out/verify"]
        if threads > 1:
            return [verify] * VERIFY_REPEATS
        variance = [["variance-ode", "--model", m, *VARIANCE_ODE_ARGS,
                     "--threads", str(threads), "--out", f"out/{m}"]
                    for m in VARIANCE_MODELS]
        return variance + [["warp", *WARP_ARGS, "--threads", str(threads)], verify]

    def check(self, tally: checks.Tally, config: Path | None, outcome: dict,
              out_dir: Path, reference: dict | None) -> None:
        """Count the operations of one pass and the ones that failed."""
        commands = outcome["commands"]
        if self.subcommand is not None:
            cfg = json.loads(config.read_text(encoding="utf-8"))
            checks.check_config_pass(tally, cfg, commands[0], out_dir, reference)
            return
        for command in commands:
            checks.check_command(tally, command)
        checks.check_verify_report(tally, out_dir / "verify" / "verify_report.json")
        if commands[0]["argv"][0] == "verify":  # the threaded pass
            return
        for model in VARIANCE_MODELS:
            checks.check_variance_ode(tally, model, out_dir / model / "variance_ode.csv")
        checks.check_warp(tally, commands[len(VARIANCE_MODELS)])
        checks.check_ensemble(tally, outcome["ensemble"])


WORKLOADS = {w.name: w for w in (
    Workload(
        "quartic-optimize",
        "per-step interpreter overhead in optimizers, stochastic_gradient and the "
        "harness loop dominates: 3 methods x 150 seeds x 500 steps at d = 2",
        shipped_config("quartic_noise.json"), "optimize", ("--format", "json"),
    ),
    Workload(
        "logistic-wide",
        "same optimize path but arithmetic-bound: 5000-wide component and full "
        "gradients, Adam family, finite-sum sampling, only 4 seeds to batch",
        generated_logistic, "optimize",
    ),
    Workload(
        "continuum-checks",
        "deterministic solvers (warp, variance ODE) dominate; the 1e4-path "
        "ensemble and verify exercise the array-bound, memory and theory layers",
        lambda root, work, seed: None, None, has_reference=False,
    ),
)}
