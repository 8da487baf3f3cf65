"""Command-line interface.

Subcommands: ``optimize`` (discrete methods), ``simulate`` (ODE/SDE
trajectories), ``variance-ode``, ``isometry``, ``warp``, ``verify`` (the
invariant battery), ``rates`` (bound tables).  Config-driven commands read
a JSON document (see the README for the schema), and one that fails to
load ends the command with exit code 1 and one line naming its path.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from memgrad import continuum, harness, problems, theory, verify


# Each subcommand takes only the flags it reads, and --threads, which none
# reads, where bench/workloads.py or acceptance criterion 12 passes it.
FLAGS = {
    "config": {"type": Path, "help": "path to a JSON config"},
    "seed": {"type": int, "help": "override the master seed"},
    "out": {"type": Path, "help": "output directory"},
    "format": {"choices": ("csv", "json"), "help": "csv, or json for csv plus "
               "result.json (default: the config's output.formats)"},
    "threads": {"type": int, "default": 1, "help": "accepted, no effect"},
}


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--{name}", **FLAGS[name])


def _load_config(args, default=None) -> harness.ExperimentConfig:
    """The config with --seed and --out applied; one line naming it if it fails to load."""
    if args.config is not None:
        try:
            cfg = harness.ExperimentConfig.from_file(args.config)
        except (OSError, ValueError) as err:
            raise SystemExit(f"memgrad: {args.config}: {err}") from None
    elif default is not None:
        cfg = default
    else:
        raise SystemExit("--config is required for this command")
    if args.seed is not None:
        cfg.master_seed = int(args.seed)
    if args.out is not None:
        cfg.output = dict(cfg.output, directory=str(args.out))
    return cfg


def _emit_formats(args, cfg: harness.ExperimentConfig) -> tuple:
    if args.format is None:
        return tuple(cfg.output.get("formats", ("csv",)))
    return ("csv", "json") if args.format == "json" else ("csv",)


def _run_config_command(args, expected_kind: str) -> int:
    cfg = _load_config(args)
    kind = cfg.run.get("kind", "optimize")
    if kind != expected_kind:
        raise SystemExit(
            f"config declares run.kind={kind!r}; this command runs {expected_kind!r}"
        )
    result = harness.run_experiment(cfg)
    out_dir = Path(cfg.output.get("directory", "out"))
    written = harness.emit(result, out_dir, formats=_emit_formats(args, cfg))
    for path in written:
        print(f"wrote {path}")
    n_div = sum(1 for t in result.traces if t.status != "completed")
    print(f"{len(result.traces)} runs ({n_div} diverged)")
    failures = 0
    for report in harness.check_config_bounds(cfg, result.traces):
        print(f"bound {report.kind} on {report.method}: {report.status}"
              f" ({report.summary()})")
        if report.status == "violations":
            failures += 1
    return 1 if failures else 0


def _cmd_variance_ode(args) -> int:
    states = continuum.integrate_variance_ode(
        args.model, args.t0, args.t_end, args.h, args.lam, args.sigma2,
        record_stride=args.stride,
    )
    p3 = states.p3
    print(f"{args.model}: sup p3 = {p3.max():.6g}, p3({states[-1].t:g}) = {p3[-1]:.6g}")
    if args.out is not None:
        path = harness.write_csv(args.out / "variance_ode.csv", states.dtype.names,
                                 [((), states, ())])
        print(f"wrote {path}")
    return 0


def _cmd_isometry(args) -> int:
    rng = np.random.default_rng(args.seed)
    var, se = continuum.ito_isometry_mc(args.power, args.t, args.paths, args.h, rng)
    target = args.t ** (2 * args.power + 1) / (2 * args.power + 1)
    z = (var - target) / se if se > 0 else float("nan")
    print(
        f"power={args.power:g} t={args.t:g}: variance={var:.6g} "
        f"stderr={se:.3g} closed-form={target:.6g} z={z:+.2f}"
    )
    if args.out is not None:
        row = np.rec.fromrecords([(args.power, args.t, args.paths, args.h, var, se, target)],
                                 names="power,t,n_paths,h,variance,stderr,closed_form")
        path = harness.write_csv(args.out / "isometry.csv", row.dtype.names, [((), row, ())])
        print(f"wrote {path}")
    return 0


def _cmd_warp(args) -> int:
    coeffs = [float(v) for v in args.coeffs.split(",")]
    obj = problems.quadratic_diag(coeffs)
    gap = continuum.warp_equivalence_check(
        obj, args.p, args.t_end, args.h, compare_from=args.compare_from
    )
    print(f"p={args.p:g} t_end={args.t_end:g} h={args.h:g}: sup path gap = {gap:.6g}")
    return 0


def _cmd_verify(args) -> int:
    cfg = _load_config(args, default=verify.default_verify_config())
    checks, result = verify.run_verification(cfg)
    out_dir = Path(cfg.output.get("directory", "verify_out"))
    written = harness.emit(result, out_dir, formats=("csv", "json"))
    report = {
        "config_sha256": cfg.config_hash(),
        "checks": [
            {"name": c.name, "passed": bool(c.passed), "detail": c.detail}
            for c in checks
        ],
    }
    written.append(harness.write_json(out_dir / "verify_report.json", report))
    for c in checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    for path in written:
        print(f"wrote {path}")
    return 0 if all(c.passed for c in checks) else 1


def _cmd_rates(args) -> int:
    params = json.loads(args.params)
    spec = theory.BoundSpec(args.kind, params)
    indices = [float(v) for v in args.indices.split(",")]
    names = sorted(params)
    table = np.rec.fromarrays(
        [[float(params[n])] * len(indices) for n in names]
        + [indices, [spec.evaluate(idx) for idx in indices]],
        names=[*names, "t_or_k", "bound"])
    path = harness.write_csv(None if args.out is None else args.out / "rates.csv",
                             ("kind", *table.dtype.names), [((args.kind,), table, ())])
    if path is not None:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memgrad",
        description="Gradient-memory optimization lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="run discrete optimization methods")
    _add_flags(p, "config", "seed", "out", "format", "threads")
    p.set_defaults(func=partial(_run_config_command, expected_kind="optimize"))

    p = sub.add_parser("simulate", help="integrate ODE/SDE trajectories")
    _add_flags(p, "config", "seed", "out", "format", "threads")
    p.set_defaults(func=partial(_run_config_command, expected_kind="simulate"))

    p = sub.add_parser("variance-ode", help="integrate the second-moment ODEs")
    _add_flags(p, "out", "threads")
    p.add_argument("--model", choices=continuum.VARIANCE_MODELS, required=True)
    p.add_argument("--t0", type=float, default=0.1)
    p.add_argument("--t-end", type=float, default=100.0)
    p.add_argument("--h", type=float, default=1e-3, help="output grid spacing")
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--stride", type=int, default=100)
    p.set_defaults(func=_cmd_variance_ode)

    p = sub.add_parser("isometry", help="Monte-Carlo check of the noise-integral variance")
    _add_flags(p, "out")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--power", type=float, required=True, help="integrand power p")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--paths", type=int, default=10**5)
    p.add_argument("--h", type=float, default=1e-3)
    p.set_defaults(func=_cmd_isometry)

    p = sub.add_parser("warp", help="time-warp equivalence of memory and momentum paths")
    _add_flags(p, "threads")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--t-end", type=float, default=4.0)
    p.add_argument("--h", type=float, default=1e-5,
                   help="comparison grid spacing (strided up to about 1e-4)")
    p.add_argument("--coeffs", default="0.02,0.005",
                   help="diagonal quadratic coefficients")
    p.add_argument("--compare-from", type=float, default=0.1)
    p.set_defaults(func=_cmd_warp)

    p = sub.add_parser("verify", help="run the full invariant suite")
    _add_flags(p, "config", "seed", "out", "threads")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("rates", help="tabulate closed-form bounds as CSV")
    _add_flags(p, "out")
    p.add_argument("--kind", choices=theory.BOUND_KINDS, required=True)
    p.add_argument("--params", required=True, help="bound parameters as JSON")
    p.add_argument("--indices", required=True,
                   help="comma-separated iteration counts or times")
    p.set_defaults(func=_cmd_rates)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
