"""Experiment runner: problems x methods x seeds -> traces, stats, files.

A config is a plain JSON-shaped document (see :class:`ExperimentConfig`);
every grid entry expands to a concrete run, every run draws its noise
from a counter-based substream keyed by the run id, and results are
reduced in a fixed order, so a (config, master seed) pair maps to
byte-identical output.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import inspect
import itertools
import json
import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from memgrad import continuum, optimizers, problems
from memgrad.memory import MemoryFunction
from memgrad.theory import BOUND_KINDS, BoundSpec

__all__ = [
    "ExperimentConfig",
    "RECORD_DTYPE",
    "AGGREGATE_DTYPE",
    "Trace",
    "BoundCheckReport",
    "run_experiment",
    "check_bounds",
    "check_config_bounds",
    "emit",
    "write_csv",
    "write_json",
    "read_traces_csv",
]

# One row per recorded iterate; aggregates reduce the fields after index and time.
RECORD_DTYPE = np.dtype([("index", np.int64), ("time", np.float64), ("f_gap", np.float64),
                         ("grad_norm", np.float64), ("step_norm", np.float64)])
STATS = RECORD_DTYPE.names[2:]
CSV_COLUMNS = ("run_id", "method", "seed", *RECORD_DTYPE.names, "status")
# One row per (method, index): the aggregates.csv columns after method.
AGGREGATE_DTYPE = np.dtype([("index", np.int64), ("time", np.float64), ("n_runs", np.int64),
                            *((f"{name}_{part}", np.float64)
                              for name in STATS for part in ("mean", "ci"))])


def _fmt(x) -> str:
    """An int as is, a float as a 17-significant-digit decimal, NaN as empty."""
    return str(x) if isinstance(x, int) else "" if math.isnan(x) else f"{x:.17g}"


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

# Config method name -> ``optimizers`` stepper, and the problem names,
# which are ``problems`` builders (SDE models are ``continuum.MODELS``).
# The signatures declare the parameters.  Functions are looked up at each
# use, because bench/spans.py traces by replacing module attributes.
METHODS = {
    "sgd": "sgd_step",
    "hb": "hb_step",
    "memsgd": "memsgd_p_step",
    "unbiased_hb": "unbiased_hb_step",
    "adam": "adam_step",
    "adagrad": "adagrad_step",
    "adamnc": "adamnc_step",
    "polyadam": "polyadam_step",
}
PROBLEMS = ("quadratic_diag", "quartic_2d", "constant_field", "logistic_synthetic")

# The keys each config section may hold.
SECTION_KEYS = {
    "problem": {"name", "params", "noise"},
    "problem.noise": {"kind", "sigma"},
    "methods": {"name", "params", "grid"},
    "run": {"kind", "iterations", "t_end", "h", "x0", "v0", "n_seeds",
            "record_stride", "eps_start"},
    "output": {"directory", "formats"},
    "bounds": {"kind", "method", "params"},
}
# Model start time of a simulate run that sets no ``eps_start``.
EPS_START = 1e-12


@dataclass
class ExperimentConfig:
    """Declarative description of a batch of runs.

    ``SECTION_KEYS`` declares the keys of each section.  A ``methods``
    entry's ``grid`` maps params to value lists and expands to one method
    per combination.
    """

    problem: dict
    methods: list
    run: dict
    output: dict = field(default_factory=lambda: {"directory": "out", "formats": ["csv"]})
    bounds: list = field(default_factory=list)
    master_seed: int = 0

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        try:
            cfg = cls(**raw)
        except TypeError as err:
            raise ValueError(f"config: {err}") from None
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_file(self, path) -> None:
        write_json(path, self.to_dict())

    def validate(self) -> None:
        """Reject a config that would fail or silently ignore part of itself.

        Every section is checked against its key set in ``SECTION_KEYS``,
        and the master seed and the run's counts, step, times and start
        point against their ranges.  A problem's params are bound against
        its builder's signature; a method's params go through ``_dry_run``,
        and a bound's through one evaluation of its formula, so the
        function's own checks reject a bad value.  The ValueError names the
        section, method label or bound and the offending key or value.
        """
        seed = self.master_seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) \
                or not 0 <= seed < 2**64:
            raise ValueError(f"master_seed: need an integer 0 <= master_seed < 2**64, "
                             f"got {seed!r}")
        kind = self.run.get("kind", "optimize")
        if kind not in ("optimize", "simulate"):
            raise ValueError(f"unknown run kind {kind!r}")
        required = ("x0", "iterations") if kind == "optimize" else ("x0", "t_end", "h")
        _check_keys("run", self.run, required)
        try:
            x0 = _checked_run(self.run, kind)
        except (TypeError, ValueError) as err:
            raise ValueError(f"run: {err}") from None
        _check_keys("output", self.output)
        formats = self.output.get("formats", ["csv"])
        if not (isinstance(formats, list) and formats and set(formats) <= {"csv", "json"}):
            raise ValueError(f"output.formats: need a non-empty list of csv/json, "
                             f"got {formats!r}")
        _check_keys("problem", self.problem, ("name",))
        noise = self.problem.get("noise", {})
        _check_keys("problem.noise", noise)
        name = self.problem["name"]
        try:
            _bind(_problem_builder(name), **self.problem.get("params", {}))
        except (TypeError, ValueError) as err:
            raise ValueError(f"problem {name}: {err}") from None
        try:
            sigma = _noise_model(noise).sigma
            if np.ndim(sigma) and len(sigma) != x0.size:
                raise ValueError(f"sigma is {len(sigma)}x{len(sigma)}, but x0 has "
                                 f"length {x0.size}")
        except (TypeError, ValueError) as err:
            raise ValueError(f"problem.noise: {err}") from None
        if not self.methods:
            raise ValueError("at least one method is required")
        for entry in self.methods:
            _check_keys("methods", entry, ("name",))
        names = {}
        for label, name, params in self.expanded_methods():
            names[label] = name
            try:
                _dry_run(kind, name, params, x0, self.run)
            except (TypeError, ValueError) as err:
                raise ValueError(f"method {label}: {err}") from None
        for entry in self.bounds:
            _check_keys("bounds", entry, ("kind", "method"))
            method = entry["method"]
            where = f"bounds: {entry['kind']} on {method}"
            try:
                spec = BoundSpec(entry["kind"], entry.get("params", {}))
            except (TypeError, ValueError) as err:
                raise ValueError(f"{where}: {err}") from None
            if method not in names:
                raise ValueError(f"{where}: method {method!r} is not one of the "
                                 f"config's methods {sorted(names)}")
            if names[method] not in BOUND_KINDS[spec.kind].families:
                raise ValueError(f"{where}: the kind does not apply to method {method!r}")

    def config_hash(self) -> str:
        """Content hash of the canonical serialized config."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def expanded_methods(self) -> list[tuple[str, str, dict]]:
        """Concrete (label, name, params) triples with grids unrolled."""
        out = []
        for entry in self.methods:
            name = entry["name"]
            base = dict(entry.get("params", {}))
            grid = entry.get("grid", {})
            combos = [{}]
            for key in sorted(grid):
                values = grid[key]
                if not isinstance(values, (list, tuple)) or not values:
                    raise ValueError(f"grid entry {key!r} must be a non-empty list")
                combos = [dict(c, **{key: v}) for c in combos for v in values]
            for combo in combos:
                params = dict(base, **combo)
                out.append((_method_label(name, params), name, params))
        labels = [lbl for lbl, _, _ in out]
        if len(labels) != len(set(labels)):
            raise ValueError("method labels collide after grid expansion")
        return out


def _check_keys(section: str, given: dict, required=()) -> None:
    unknown = sorted(set(given) - SECTION_KEYS[section])
    if unknown:
        raise ValueError(f"{section}: unknown keys {unknown}")
    missing = [key for key in required if key not in given]
    if missing:
        raise ValueError(f"{section}: missing keys {missing}")


def _checked_run(run: dict, kind: str) -> np.ndarray:
    """The run's x0, once its counts, step, times and start point are valid."""
    for key, least in (("iterations", 0), ("n_seeds", 1), ("record_stride", 1)):
        value = run.get(key, least)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise ValueError(f"{key} must be an integer >= {least}, got {value!r}")
    if kind == "simulate":
        h, t_end, eps_start = run["h"], run["t_end"], run.get("eps_start", EPS_START)
        if not np.isfinite([h, t_end, eps_start]).all():
            raise ValueError(f"need finite h, t_end and eps_start, got h={h!r}, "
                             f"t_end={t_end!r}, eps_start={eps_start!r}")
        if not h > 0:
            raise ValueError(f"h must be > 0, got {h!r}")
        if not t_end > eps_start > 0:
            raise ValueError(f"need t_end > eps_start > 0, got t_end={t_end!r}, "
                             f"eps_start={eps_start!r}")
    x0 = np.asarray(run["x0"], dtype=float)
    v0 = np.asarray(run.get("v0", x0), dtype=float)
    if x0.ndim != 1 or v0.shape != x0.shape or not np.isfinite([x0, v0]).all():
        raise ValueError("x0 and v0 must be finite 1-d lists of equal length")
    return x0


def _dry_run(kind: str, name: str, params: dict, x0: np.ndarray, run: dict) -> None:
    """The method's SDE model built for x0, its float params checked finite,
    and one step of its stepper from x0 with a zero gradient or its model's
    friction evaluated at eps_start, so that the function's own checks see
    the params.  The stepper is unwrapped, so that a traced stepper does not
    count the dry step."""
    fn, kwargs = _method_call(kind, name, params)
    fn = inspect.unwrap(fn)
    if kind == "simulate":
        spec = fn(None, x0.size, eps_start=float(run.get("eps_start", EPS_START)), **kwargs)
    for key, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")
    if kind == "optimize":
        fn(optimizers.OptimizerState.initial(x0), np.zeros_like(x0), **kwargs)
    elif not math.isfinite(spec.friction(spec.eps_start)):
        raise ValueError(f"friction at eps_start = {spec.eps_start!r} is not finite")


def _bind(fn, *args, **kwargs) -> None:
    """Raise TypeError, naming the key, unless fn takes these arguments.

    Unknown keys are reported before missing ones, because a misspelt key
    also leaves the parameter it meant missing.
    """
    signature = inspect.signature(fn)
    signature.bind_partial(*args, **kwargs)
    signature.bind(*args, **kwargs)


def _method_label(name: str, params: dict) -> str:
    if not params:
        return name
    inner = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{name}({inner})"


def _method_call(kind: str, name: str, params: dict):
    """The stepper or SDE-model constructor a method entry selects, and the
    keyword arguments its params become.

    For models, ``memory`` and ``memory_param`` become one MemoryFunction;
    the run adds ``eps_start``.
    """
    kwargs = dict(params)
    if kind == "optimize":
        if name not in METHODS:
            raise ValueError(f"{name!r} is not valid for optimize runs")
        return getattr(optimizers, METHODS[name]), kwargs
    if name not in continuum.MODELS:
        raise ValueError(f"{name!r} is not valid for simulate runs")
    if "memory" in kwargs:
        kwargs["memory"] = MemoryFunction.from_name(kwargs["memory"],
                                                    kwargs.pop("memory_param", None))
    return getattr(continuum, continuum.MODELS[name]), kwargs


def _problem_builder(name: str):
    if name not in PROBLEMS:
        raise ValueError(f"unknown problem {name!r}")
    return getattr(problems, name)


def _noise_model(noise_cfg: dict) -> problems.NoiseModel:
    return problems.NoiseModel(kind=noise_cfg.get("kind", "none"),
                               sigma=noise_cfg.get("sigma"))


def build_objective(problem_cfg: dict) -> tuple[problems.Objective, problems.NoiseModel]:
    """Instantiate the configured objective and its noise model."""
    obj = _problem_builder(problem_cfg["name"])(**problem_cfg.get("params", {}))
    return obj, _noise_model(problem_cfg.get("noise", {}))


# ----------------------------------------------------------------------
# Traces and aggregates
# ----------------------------------------------------------------------

@dataclass
class Trace:
    """One run: its records, a RECORD_DTYPE record array in index order, and
    its status, ``completed`` or ``diverged@k`` for the step k it diverged at."""

    run_id: str
    method: str
    seed: int
    records: np.recarray
    status: str = "completed"


def _rescaled(reduce, rows: np.ndarray) -> np.ndarray:
    """reduce(rows), one value per row; a row whose value overflows is reduced
    again scaled by its largest magnitude."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = reduce(rows)
    bad = ~np.isfinite(out)
    if bad.any():
        scale = np.abs(rows[bad]).max(axis=1)
        out[bad] = scale * reduce(rows[bad] / scale[:, None])
    return out


def _mean_ci(values: np.ndarray, starts: np.ndarray, counts: np.ndarray):
    """Mean and 95% half-width of each group values[start:start + count].

    Groups of one size are the rows of one 2-D block, reduced row by row with
    the bits of ``mean()`` and ``std(ddof=1)`` on each group alone.  A mean or
    std that overflows is taken again on the row scaled by its largest
    magnitude.
    """
    mean, ci = np.empty(starts.size), np.zeros(starts.size)
    for n in np.unique(counts).tolist():
        sel = counts == n
        rows = values[starts[sel, None] + np.arange(n)]
        mean[sel] = _rescaled(lambda r: r.mean(axis=1), rows)
        if n > 1:
            ci[sel] = 1.96 * _rescaled(lambda r: r.std(axis=1, ddof=1), rows) / math.sqrt(n)
    return mean, ci


def aggregate_traces(traces: list[Trace]) -> dict[str, np.recarray]:
    """Deterministic reduction: per method, an AGGREGATE_DTYPE record array of
    the per-index mean and CI, in index order.

    Runs that diverged contribute records up to their failure and are
    excluded (with n_runs adjusted) beyond it.  Each index's values are
    reduced in seed order.
    """
    by_method: dict[str, list[np.ndarray]] = {}
    for tr in sorted(traces, key=lambda t: (t.method, t.seed)):
        by_method.setdefault(tr.method, []).append(tr.records)
    out = {}
    for method, blocks in by_method.items():
        rows = np.concatenate(blocks)
        rows = rows[np.argsort(rows["index"], kind="stable")]
        indices, starts, n_runs = np.unique(rows["index"], return_index=True,
                                            return_counts=True)
        agg = np.recarray(indices.size, dtype=AGGREGATE_DTYPE)
        agg.index, agg.time, agg.n_runs = indices, rows["time"][starts], n_runs
        for name in STATS:
            agg[f"{name}_mean"], agg[f"{name}_ci"] = _mean_ci(rows[name], starts, n_runs)
        out[method] = agg
    return out


# ----------------------------------------------------------------------
# Run execution
# ----------------------------------------------------------------------

def _run_rng(master_seed: int, run_id: str) -> np.random.Generator:
    """Counter-based substream keyed by (master seed, run id).

    The id enters through a stable content hash, so adding or reordering
    methods in a config never perturbs other runs' noise.
    """
    digest = hashlib.sha256(run_id.encode()).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64).copy()
    key[0] ^= np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF)
    return np.random.Generator(np.random.Philox(key=key))


# Iterates an optimize run evaluates per batched record call; bounds memory at large d.
RECORD_BLOCK = 64


def _records(obj, indices, times, xs, step_norms) -> tuple[np.recarray, int | None]:
    """Records of the rows of xs, with f_gap and the gradient norm evaluated in
    one batched call, up to the first row whose f_gap is inf or whose gradient
    or step norm is not finite (an overflowing trajectory, even if the iterate
    is finite), and that row's position or None.  A NaN f_gap is kept."""
    xs = np.asarray(xs, dtype=float)
    records = np.recarray(len(xs), dtype=RECORD_DTYPE)
    records.index, records.time, records.step_norm = indices, times, step_norms
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            records.f_gap = obj.f_gap(xs)
        except ValueError:
            records.f_gap = np.nan
        records.grad_norm = np.linalg.norm(np.broadcast_to(obj.grad(xs), xs.shape), axis=-1)
    bad = np.isinf(records.f_gap) | ~np.isfinite(records.grad_norm) | ~np.isfinite(step_norms)
    stop = int(np.argmax(bad)) if bad.any() else None
    return records[:stop], stop


def _execute_optimize(label, name, params, obj, noise, run_cfg, master_seed, seed):
    run_id = f"{label}|seed={seed}"
    rng = _run_rng(master_seed, run_id)
    iterations = int(run_cfg["iterations"])
    stride = int(run_cfg.get("record_stride", 1))
    stepper, params = _method_call("optimize", name, params)
    state = optimizers.OptimizerState.initial(np.asarray(run_cfg["x0"], dtype=float))
    blocks, pending = [], [(0, state.x, 0.0)]  # (index, iterate, step norm)

    def flush():  # the index of the first overflowing record, if any
        index, xs, step_norms = zip(*pending)
        pending.clear()
        kept, stop = _records(obj, index, index, xs, step_norms)
        blocks.append(kept)
        return None if stop is None else index[stop]

    # Steppers do not check finiteness: the run diverges at the step whose
    # gradient draw or new iterate is not finite.
    status, overflow = "completed", None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(iterations):
            g = problems.stochastic_gradient(obj, noise, state.x, rng)
            if not np.isfinite(g).all():
                status = f"diverged@{k + 1}"
                break
            state = stepper(state, g, **params)
            if not np.isfinite(state.x).all():
                status = f"diverged@{k + 1}"
                break
            if (k + 1) % stride == 0 or k + 1 == iterations:
                pending.append((k + 1, state.x, float(np.linalg.norm(state.x - state.x_prev))))
            if len(pending) == RECORD_BLOCK:
                overflow = flush()
                if overflow is not None:
                    break
    if pending:
        overflow = flush()
    if overflow is not None:
        status = f"diverged@{overflow}"
    return Trace(run_id=run_id, method=label, seed=seed,
                 records=np.concatenate(blocks).view(np.recarray), status=status)


# Standard-normal values a simulate batch draws per noise block; bounds memory at large n x d.
NOISE_BLOCK = 1 << 16


def _row_noise(rngs, d: int):
    """A callable giving the next substep's (len(rngs), d) standard-normal
    block, whose row r continues rngs[r]'s stream.  Each stream is drawn a
    block of substeps at a time; ``standard_normal((b, d))`` gives the values
    of b successive ``standard_normal(d)`` calls."""
    b = max(1, NOISE_BLOCK // (len(rngs) * d))
    return (row for _ in itertools.count() for row in
            np.stack([rng.standard_normal((b, d)) for rng in rngs], axis=1)).__next__


def _execute_simulate(label, name, params, obj, noise, run_cfg, master_seed, seeds):
    """Every seed of one method, integrated together as one batch of paths;
    each path's noise comes from its own run's substream."""
    run_ids = [f"{label}|seed={seed}" for seed in seeds]
    build, kwargs = _method_call("simulate", name, params)
    spec = build(obj.grad, obj.dim, eps_start=float(run_cfg.get("eps_start", EPS_START)),
                 **kwargs)
    x0 = np.asarray(run_cfg["x0"], dtype=float)
    v0 = np.asarray(run_cfg.get("v0", np.zeros_like(x0)), dtype=float)
    h = float(run_cfg["h"])
    draw = _row_noise([_run_rng(master_seed, run_id) for run_id in run_ids], x0.size)
    times, positions, _, diverged = continuum.integrate_paths(
        spec, x0, v0, continuum.grid_times(spec, float(run_cfg["t_end"]), h), h, draw,
        len(run_ids), record_stride=int(run_cfg.get("record_stride", 1)),
    )
    traces = []
    for run_id, seed, xs, j in zip(run_ids, seeds, positions.swapaxes(0, 1),
                                   diverged.tolist()):
        finite = np.isfinite(xs).all(axis=-1)  # the records before any divergence
        xs = xs[finite]
        with np.errstate(over="ignore", invalid="ignore"):
            step_norms = np.linalg.norm(np.diff(xs, axis=0, prepend=xs[:1]), axis=-1)
        records, stop = _records(obj, range(len(xs)), times[finite], xs, step_norms)
        status = f"diverged@{j}" if j else "completed"
        if stop is not None:  # every record precedes an integration failure
            status = f"diverged@{round((times[stop] - spec.eps_start) / h)}"
        traces.append(Trace(run_id=run_id, method=label, seed=seed, records=records,
                            status=status))
    return traces


def _check_against_objective(config: ExperimentConfig, obj: problems.Objective) -> None:
    """Raise ValueError unless x0 has the objective's dimension and each declared
    bound describes its run: d = len(x0); dist2 = ||x0 - x*||^2 (to 1e-12
    relative) if x* is declared; and a ``memsgd_discrete`` bound has its
    method's p and eta, with eta <= (p-1)/(pL) (to 1e-12) if L is declared."""
    x0 = np.asarray(config.run["x0"], dtype=float)
    if x0.size != obj.dim:
        raise ValueError(f"run: x0 has length {x0.size}, but problem "
                         f"{config.problem['name']} has dim {obj.dim}")
    methods = {label: params for label, _, params in config.expanded_methods()}
    for entry in config.bounds:
        params, where = entry.get("params", {}), f"bounds: {entry['kind']} on {entry['method']}"
        if params["d"] != x0.size:
            raise ValueError(f"{where}: d = {params['d']!r}, but x0 has length {x0.size}")
        if obj.x_star is not None:
            dist2 = float(np.sum((x0 - obj.x_star) ** 2))
            if not math.isclose(params["dist2"], dist2, rel_tol=1e-12):
                raise ValueError(f"{where}: dist2 = {params['dist2']!r}, but "
                                 f"||x0 - x*||^2 = {dist2!r}")
        if entry["kind"] != "memsgd_discrete":
            continue
        p, eta = methods[entry["method"]]["p"], methods[entry["method"]]["eta"]
        if (params["p"], params["eta"]) != (p, eta):
            raise ValueError(f"{where}: p, eta = {params['p']!r}, {params['eta']!r}, "
                             f"but the method has {p!r}, {eta!r}")
        if obj.L is not None and eta > (p - 1.0) / (p * obj.L) * (1.0 + 1e-12):
            raise ValueError(f"{where}: eta = {eta!r} exceeds (p-1)/(pL) = "
                             f"{(p - 1.0) / (p * obj.L)!r}, so the rate does not apply")


@dataclass
class ExperimentResult:
    traces: list
    aggregates: dict
    config: ExperimentConfig


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute every (method x seed) run and aggregate the traces.

    Optimize runs execute one after another, and the seeds of a simulate
    method are integrated together.  Each run derives its own RNG substream
    from its run id, so the result set does not depend on run order.  A run
    that diverges is recorded up to its failure index and never aborts the
    batch.  Before the first run, x0 and each declared bound are checked
    against the objective.
    """
    config.validate()
    obj, noise = build_objective(config.problem)
    _check_against_objective(config, obj)
    seeds = range(int(config.run.get("n_seeds", 1)))
    args = (obj, noise, config.run, config.master_seed)
    if config.run.get("kind", "optimize") == "optimize":
        traces = [_execute_optimize(label, name, params, *args, seed)
                  for label, name, params in config.expanded_methods() for seed in seeds]
    else:
        traces = [trace for label, name, params in config.expanded_methods()
                  for trace in _execute_simulate(label, name, params, *args, seeds)]
    traces.sort(key=lambda t: (t.method, t.seed))
    return ExperimentResult(traces=traces, aggregates=aggregate_traces(traces),
                            config=config)


# ----------------------------------------------------------------------
# Bound checking
# ----------------------------------------------------------------------

@dataclass
class BoundCheckReport:
    status: str  # "ok" | "violations" | "cannot_check"
    method: str
    kind: str
    n_checked: int = 0
    n_violations: int = 0
    max_relative_excess: float = 0.0
    first_violation_index: float | None = None
    reason: str = ""

    def summary(self) -> str:
        """Counts and, if the bound fails, where it first fails and by how much."""
        text = f"checked={self.n_checked}, violations={self.n_violations}"
        if self.n_violations:
            text += (f", first_violation_index={self.first_violation_index:g}"
                     f", max_relative_excess={self.max_relative_excess:.3e}")
        return text


def check_bounds(traces: list[Trace], bound: BoundSpec, method: str) -> BoundCheckReport:
    """Compare across-seed mean suboptimality against a closed-form bound.

    The bound constrains an expectation, so for stochastic runs the check
    uses the one-sided lower edge mean - CI at each index; deterministic
    single runs degenerate to a pathwise check.  Missing constants, a
    method/bound family mismatch, absent f_gap data, or an ``exp_cesaro``
    bound (on the time-averaged iterate, which traces do not record) yield
    an explicit ``cannot_check`` status rather than a pass.
    """
    base = method.split("(", 1)[0]
    selected = [t for t in traces if t.method == method]
    if base not in BOUND_KINDS[bound.kind].families:
        reason = f"bound kind {bound.kind!r} does not apply to method {base!r}"
    elif bound.kind == "exp_cesaro":
        reason = ("exp_cesaro bounds the time-averaged iterate; traces record "
                  "the last iterate")
    elif not selected:
        reason = "no traces for method"
    else:
        agg = aggregate_traces(selected)[method]
        reason = ("objective declares no optimal value"
                  if np.all(np.isnan(agg.f_gap_mean)) else "")
    if reason:
        return BoundCheckReport(status="cannot_check", method=method, kind=bound.kind,
                                reason=reason)
    use_time = BOUND_KINDS[bound.kind].index == "t"
    axis = agg.time if use_time else agg.index
    n_checked = n_violations = 0
    max_excess, first_violation = 0.0, None
    for pos, idx in enumerate(axis):
        if use_time and idx <= 0.0:
            continue
        mean = agg.f_gap_mean[pos]
        if math.isnan(mean):
            continue
        lhs = mean - agg.f_gap_ci[pos]
        value = bound.evaluate(idx)
        n_checked += 1
        if lhs > value:
            n_violations += 1
            excess = (lhs - value) / max(value, 1e-300)
            if excess > max_excess:
                max_excess = excess
            if first_violation is None:
                first_violation = float(idx)
    status = "ok" if n_violations == 0 else "violations"
    return BoundCheckReport(
        status=status, method=method, kind=bound.kind, n_checked=n_checked,
        n_violations=n_violations, max_relative_excess=max_excess,
        first_violation_index=first_violation,
    )


def check_config_bounds(config: ExperimentConfig,
                        traces: list[Trace]) -> list[BoundCheckReport]:
    """Each bound the config declares, checked against its method's traces."""
    return [check_bounds(traces, BoundSpec(entry["kind"], entry.get("params", {})),
                         method=entry["method"])
            for entry in config.bounds]


# ----------------------------------------------------------------------
# Emission
# ----------------------------------------------------------------------

def emit(result: ExperimentResult, out_dir, formats=("csv",)) -> list[Path]:
    """Write traces (and aggregates / JSON mirror) with bit-stable ordering.

    The trace CSV columns are exactly
    run_id, method, seed, index, time, f_gap, grad_norm, step_norm, status
    sorted by (method, seed, index), floats with 17 significant digits.
    """
    out_dir = Path(out_dir)
    traces = sorted(result.traces, key=lambda t: (t.method, t.seed))
    written = []
    if "csv" in formats:
        written.append(write_csv(
            out_dir / "traces.csv", CSV_COLUMNS,
            (((t.run_id, t.method, t.seed), t.records, (t.status,)) for t in traces)))
        written.append(write_csv(
            out_dir / "aggregates.csv", ("method", *AGGREGATE_DTYPE.names),
            (((method,), result.aggregates[method], ())
             for method in sorted(result.aggregates))))
    if "json" in formats:
        runs = [{"run_id": t.run_id, "method": t.method, "seed": t.seed,
                 "status": t.status, "records": t.records} for t in traces]
        written.append(write_json(out_dir / "result.json", {
            "config": result.config.to_dict(),
            "config_sha256": result.config.config_hash(), "traces": runs}))
    return written


@contextlib.contextmanager
def _output(path):
    """path opened for writing, its directory created first; stdout for None.
    An OSError names the directory or the file."""
    if path is None:
        yield sys.stdout
        return
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise OSError(f"cannot create output directory {path.parent}: {err}") from err
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as err:
        raise OSError(f"cannot write {path}: {err}") from err


def write_csv(path, header, blocks) -> Path | None:
    """Stream a CSV to path (stdout for None) and return path: the header, then
    for each (head, records, tail) block one row per record, the record's
    values written with ``_fmt`` between the fixed fields head and tail."""
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for head, records, tail in blocks:
            columns = [map(_fmt, records[name].tolist()) for name in records.dtype.names]
            writer.writerows(head + row + tail for row in zip(*columns))
    return path


def _record_dicts(records) -> list[dict]:
    """A record array as a list of {field: value} dicts, NaN as None."""
    if not isinstance(records, np.ndarray) or records.dtype.names is None:
        raise TypeError(f"Object of type {type(records).__name__} is not JSON serializable")
    return [dict(zip(records.dtype.names, (None if v != v else v for v in row)))
            for row in records.tolist()]


def write_json(path, obj) -> Path:
    """Stream obj to path as indented, key-sorted JSON and a newline, and
    return path.  A record array in obj is written as its list of record
    dicts, built only when the encoder reaches it.  Streamed: holding all
    of the indented encoder's chunks, or every record's dict, dominates
    peak memory."""
    with _output(path) as fh:
        encoder = json.JSONEncoder(indent=2, sort_keys=True, default=_record_dicts)
        fh.writelines(encoder.iterencode(obj))
        fh.write("\n")
    return path


def read_traces_csv(path) -> list[Trace]:
    """Parse a trace CSV back into Trace objects (inverse of emit)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        raise ValueError(f"unexpected header in {path}")
    by_run: dict[str, list] = {}
    for row in rows[1:]:
        by_run.setdefault(row[0], []).append(row)
    traces = []
    for run_id, run_rows in by_run.items():
        _, method, seed, *_, status = run_rows[0]
        values = [[float(v) if v else math.nan for v in row[3:-1]] for row in run_rows]
        records = np.rec.fromarrays(np.array(values).T, dtype=RECORD_DTYPE)
        traces.append(Trace(run_id, method, int(seed), records, status))
    return sorted(traces, key=lambda t: (t.method, t.seed))
