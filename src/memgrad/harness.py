"""Experiment runner: problems x methods x seeds -> traces, stats, files.

A config is a plain JSON-shaped document (see :class:`ExperimentConfig`);
every grid entry expands to a concrete run, every run draws its noise
from a counter-based substream keyed by the run id, and results are
reduced in a fixed order, so a (config, master seed) pair maps to
byte-identical output regardless of thread count.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from memgrad import continuum, optimizers, problems
from memgrad.memory import MemoryFunction
from memgrad.theory import BOUND_KINDS, BoundSpec

__all__ = [
    "ExperimentConfig",
    "Record",
    "Trace",
    "Aggregate",
    "BoundCheckReport",
    "run_experiment",
    "check_bounds",
    "emit",
    "read_traces_csv",
]

CSV_COLUMNS = (
    "run_id", "method", "seed", "index", "time",
    "f_gap", "grad_norm", "step_norm", "status",
)


def _fmt(x: float) -> str:
    """17-significant-digit decimal, empty for missing values."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return f"{x:.17g}"


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


@dataclass
class ExperimentConfig:
    """Declarative description of a batch of runs.

    ``SECTION_KEYS`` declares the keys of each section; ``tolerances`` is
    free-form and echoed into the hash.  A ``methods`` entry's ``grid`` maps
    params to value lists and expands to one method per combination.
    """

    problem: dict
    methods: list
    run: dict
    output: dict = field(default_factory=lambda: {"directory": "out", "formats": ["csv"]})
    tolerances: dict = field(default_factory=dict)
    bounds: list = field(default_factory=list)
    master_seed: int = 0

    def __post_init__(self):
        self.master_seed = int(self.master_seed)

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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def validate(self) -> None:
        """Reject a config that would fail or silently ignore part of itself.

        Every section is checked against its key set in ``SECTION_KEYS``,
        and every method's, model's and problem's params are bound against
        the signature of the function they select.  The ValueError names
        the section or method label and the offending key.
        """
        kind = self.run.get("kind", "optimize")
        if kind not in ("optimize", "simulate"):
            raise ValueError(f"unknown run kind {kind!r}")
        required = ("x0", "iterations") if kind == "optimize" else ("x0", "t_end", "h")
        _check_keys("run", self.run, required)
        _check_keys("output", self.output)
        _check_keys("problem", self.problem, ("name",))
        noise = self.problem.get("noise", {})
        _check_keys("problem.noise", noise)
        name = self.problem["name"]
        try:
            _bind(_problem_builder(name), **self.problem.get("params", {}))
            _noise_model(noise)
        except (TypeError, ValueError) as err:
            raise ValueError(f"problem {name}: {err}") from None
        if not self.methods:
            raise ValueError("at least one method is required")
        for entry in self.methods:
            _check_keys("methods", entry, ("name",))
        for label, name, params in self.expanded_methods():
            try:
                fn, kwargs = _method_call(kind, name, params)
                # None stands in for the arguments that a run supplies.
                run_supplied = {} if kind == "optimize" else {"eps_start": None}
                _bind(fn, None, None, **run_supplied, **kwargs)
            except (TypeError, ValueError) as err:
                raise ValueError(f"method {label}: {err}") from None
        for entry in self.bounds:
            _check_keys("bounds", entry, ("kind", "method"))
            try:
                BoundSpec(entry["kind"], entry.get("params", {}))
            except (TypeError, ValueError) as err:
                raise ValueError(f"bounds: {err}") from None

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

    For models, ``memory`` and ``memory_param`` become one MemoryFunction
    and a list ``sigma`` becomes an array; the run adds ``eps_start``.
    """
    kwargs = dict(params)
    if kind == "optimize":
        if name not in METHODS:
            raise ValueError(f"{name!r} is not valid for optimize runs")
        return getattr(optimizers, METHODS[name]), kwargs
    if name not in continuum.MODELS:
        raise ValueError(f"{name!r} is not valid for simulate runs")
    if isinstance(kwargs.get("sigma"), list):
        kwargs["sigma"] = np.asarray(kwargs["sigma"], dtype=float)
    if "memory" in kwargs:
        kwargs["memory"] = MemoryFunction.from_name(kwargs["memory"],
                                                    kwargs.pop("memory_param", None))
    return getattr(continuum, continuum.MODELS[name]), kwargs


def _problem_builder(name: str):
    if name not in PROBLEMS:
        raise ValueError(f"unknown problem {name!r}")
    return getattr(problems, name)


def _noise_model(noise_cfg: dict) -> problems.NoiseModel:
    sigma = noise_cfg.get("sigma")
    if isinstance(sigma, list):
        sigma = np.asarray(sigma, dtype=float)
    return problems.NoiseModel(kind=noise_cfg.get("kind", "none"), sigma=sigma)


def build_objective(problem_cfg: dict) -> tuple[problems.Objective, problems.NoiseModel]:
    """Instantiate the configured objective and its noise model."""
    obj = _problem_builder(problem_cfg["name"])(**problem_cfg.get("params", {}))
    return obj, _noise_model(problem_cfg.get("noise", {}))


# ----------------------------------------------------------------------
# Traces and aggregates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Record:
    index: int
    time: float
    f_gap: float
    grad_norm: float
    step_norm: float


@dataclass
class Trace:
    run_id: str
    method: str
    seed: int
    records: list
    status: str = "completed"
    diverged_at: int | None = None

    def status_field(self) -> str:
        if self.status == "completed":
            return "completed"
        return f"diverged@{self.diverged_at}"


@dataclass
class Aggregate:
    """Across-seed mean and normal-approximation 95% interval per index."""

    method: str
    indices: np.ndarray
    times: np.ndarray
    n_runs: np.ndarray
    f_gap_mean: np.ndarray
    f_gap_ci: np.ndarray
    grad_norm_mean: np.ndarray
    grad_norm_ci: np.ndarray
    step_norm_mean: np.ndarray
    step_norm_ci: np.ndarray


def _mean_ci(values: np.ndarray) -> tuple[float, float]:
    n = values.size
    mean = float(values.mean()) if n else float("nan")
    if n >= 2:
        ci = 1.96 * float(values.std(ddof=1)) / math.sqrt(n)
    else:
        ci = 0.0
    return mean, ci


def aggregate_traces(traces: list[Trace]) -> dict[str, Aggregate]:
    """Deterministic reduction: per-method, per-index mean and CI.

    Runs that diverged contribute records up to their failure and are
    excluded (with n_runs adjusted) beyond it.
    """
    by_method: dict[str, list[Trace]] = {}
    for tr in sorted(traces, key=lambda t: (t.method, t.seed)):
        by_method.setdefault(tr.method, []).append(tr)
    out = {}
    for method, group in by_method.items():
        per_index: dict[int, list[Record]] = {}
        for tr in group:
            for rec in tr.records:
                per_index.setdefault(rec.index, []).append(rec)
        indices = np.array(sorted(per_index))
        n_runs = np.array([len(per_index[i]) for i in indices])
        times = np.array([per_index[i][0].time for i in indices])
        cols = {}
        for name in ("f_gap", "grad_norm", "step_norm"):
            means, cis = [], []
            for i in indices:
                vals = np.array([getattr(r, name) for r in per_index[i]])
                m, c = _mean_ci(vals)
                means.append(m)
                cis.append(c)
            cols[name] = (np.array(means), np.array(cis))
        out[method] = Aggregate(
            method=method,
            indices=indices,
            times=times,
            n_runs=n_runs,
            f_gap_mean=cols["f_gap"][0],
            f_gap_ci=cols["f_gap"][1],
            grad_norm_mean=cols["grad_norm"][0],
            grad_norm_ci=cols["grad_norm"][1],
            step_norm_mean=cols["step_norm"][0],
            step_norm_ci=cols["step_norm"][1],
        )
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


def _record_point(obj, index, time, x, step_norm) -> Record:
    try:
        f_gap = obj.f_gap(x)
    except ValueError:
        f_gap = float("nan")
    grad_norm = float(np.linalg.norm(obj.grad(np.asarray(x, dtype=float))))
    return Record(index=index, time=time, f_gap=f_gap,
                  grad_norm=grad_norm, step_norm=step_norm)


def _record_is_finite(rec: Record) -> bool:
    """NaN f_gap means 'no declared optimum' and is fine; inf anywhere is
    an overflowing trajectory even if the iterate itself is still finite."""
    if math.isinf(rec.f_gap):
        return False
    return math.isfinite(rec.grad_norm) and math.isfinite(rec.step_norm)


def _execute_optimize(label, name, params, obj, noise, run_cfg, master_seed, seed):
    run_id = f"{label}|seed={seed}"
    rng = _run_rng(master_seed, run_id)
    iterations = int(run_cfg["iterations"])
    stride = int(run_cfg.get("record_stride", 1))
    stepper, params = _method_call("optimize", name, params)
    if name == "memsgd" and "lipschitz" not in params and obj.L is not None:
        params["lipschitz"] = obj.L
    state = optimizers.OptimizerState.initial(np.asarray(run_cfg["x0"], dtype=float))
    records = [_record_point(obj, 0, 0.0, state.x, 0.0)]
    status, diverged_at = "completed", None
    for k in range(iterations):
        with np.errstate(over="ignore", invalid="ignore"):
            g = problems.stochastic_gradient(obj, noise, state.x, rng)
            try:
                state = stepper(state, g, **params)
            except optimizers.NonFiniteGradientError:
                status, diverged_at = "diverged", k + 1
                break
            if (k + 1) % stride == 0 or k + 1 == iterations:
                step_norm = float(np.linalg.norm(state.x - state.x_prev))
                rec = _record_point(obj, k + 1, float(k + 1), state.x, step_norm)
                if not _record_is_finite(rec):
                    status, diverged_at = "diverged", k + 1
                    break
                records.append(rec)
    return Trace(run_id=run_id, method=label, seed=seed, records=records,
                 status=status, diverged_at=diverged_at)


def _execute_simulate(label, name, params, obj, noise, run_cfg, master_seed, seed):
    run_id = f"{label}|seed={seed}"
    rng = _run_rng(master_seed, run_id)
    build, kwargs = _method_call("simulate", name, params)
    spec = build(obj.grad, obj.dim, eps_start=float(run_cfg.get("eps_start", 1e-12)),
                 **kwargs)
    x0 = np.asarray(run_cfg["x0"], dtype=float)
    v0 = np.asarray(run_cfg.get("v0", np.zeros_like(x0)), dtype=float)
    stride = int(run_cfg.get("record_stride", 1))
    result = continuum.integrate_trajectory(
        spec, x0, v0, float(run_cfg["t_end"]), float(run_cfg["h"]),
        rng=None if spec.is_deterministic() else rng, record_stride=stride,
    )
    records = []
    prev = result.positions[0]
    for i, (t, x) in enumerate(zip(result.times, result.positions)):
        step_norm = 0.0 if i == 0 else float(np.linalg.norm(x - prev))
        records.append(_record_point(obj, i, float(t), x, step_norm))
        prev = x
    diverged_at = len(records) - 1 if result.status == "diverged" else None
    return Trace(run_id=run_id, method=label, seed=seed, records=records,
                 status=result.status, diverged_at=diverged_at)


@dataclass
class ExperimentResult:
    traces: list
    aggregates: dict
    config: ExperimentConfig


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Execute every (method x seed) run and aggregate the traces.

    Runs are independent tasks on a bounded worker pool; each derives its
    own RNG substream, so the result set (and therefore serialized output)
    is identical across thread counts.  A run that diverges is recorded up
    to its failure index and never aborts the batch.
    """
    config.validate()
    obj, noise = build_objective(config.problem)
    kind = config.run.get("kind", "optimize")
    n_seeds = int(config.run.get("n_seeds", 1))
    execute = _execute_optimize if kind == "optimize" else _execute_simulate
    tasks = [(label, name, params, seed)
             for label, name, params in config.expanded_methods()
             for seed in range(n_seeds)]

    def run_one(task):
        label, name, params, seed = task
        return execute(label, name, params, obj, noise, config.run,
                       config.master_seed, seed)

    if threads <= 1:
        traces = [run_one(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            traces = list(pool.map(run_one, tasks))
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


def check_bounds(traces: list[Trace], bound: BoundSpec, method: str,
                 use_time: bool | None = None) -> BoundCheckReport:
    """Compare across-seed mean suboptimality against a closed-form bound.

    The bound constrains an expectation, so for stochastic runs the check
    uses the one-sided lower edge mean - CI at each index; deterministic
    single runs degenerate to a pathwise check.  Missing constants, a
    method/bound family mismatch, or absent f_gap data yield an explicit
    ``cannot_check`` status rather than a pass.
    """
    base = method.split("(", 1)[0]
    families = BOUND_KINDS[bound.kind]
    if base not in families:
        return BoundCheckReport(
            status="cannot_check", method=method, kind=bound.kind,
            reason=f"bound kind {bound.kind!r} does not apply to method {base!r}",
        )
    selected = [t for t in traces if t.method == method]
    if not selected:
        return BoundCheckReport(status="cannot_check", method=method,
                                kind=bound.kind, reason="no traces for method")
    agg = aggregate_traces(selected)[method]
    if np.all(np.isnan(agg.f_gap_mean)):
        return BoundCheckReport(status="cannot_check", method=method,
                                kind=bound.kind,
                                reason="objective declares no optimal value")
    if use_time is None:
        use_time = bound.kind != "memsgd_discrete"
    axis = agg.times if use_time else agg.indices
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
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise OSError(f"cannot create output directory {out_dir}: {err}") from err
    written = []

    if "csv" in formats:
        path = out_dir / "traces.csv"
        _write_text(path, _traces_csv_text(result.traces))
        written.append(path)
        path = out_dir / "aggregates.csv"
        _write_text(path, _aggregates_csv_text(result.aggregates))
        written.append(path)
    if "json" in formats:
        path = out_dir / "result.json"
        payload = {
            "config": result.config.to_dict(),
            "config_sha256": result.config.config_hash(),
            "traces": [
                {
                    "run_id": t.run_id,
                    "method": t.method,
                    "seed": t.seed,
                    "status": t.status_field(),
                    "records": [
                        {
                            "index": r.index,
                            "time": r.time,
                            "f_gap": None if math.isnan(r.f_gap) else r.f_gap,
                            "grad_norm": r.grad_norm,
                            "step_norm": r.step_norm,
                        }
                        for r in t.records
                    ],
                }
                for t in sorted(result.traces, key=lambda t: (t.method, t.seed))
            ],
        }
        _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as err:
        raise OSError(f"cannot write {path}: {err}") from err


def _traces_csv_text(traces: list[Trace]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for tr in sorted(traces, key=lambda t: (t.method, t.seed)):
        status = tr.status_field()
        for rec in tr.records:
            writer.writerow([
                tr.run_id, tr.method, tr.seed, rec.index,
                _fmt(rec.time), _fmt(rec.f_gap), _fmt(rec.grad_norm),
                _fmt(rec.step_norm), status,
            ])
    return buf.getvalue()


def _aggregates_csv_text(aggregates: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "method", "index", "time", "n_runs", "f_gap_mean", "f_gap_ci",
        "grad_norm_mean", "grad_norm_ci", "step_norm_mean", "step_norm_ci",
    ])
    for method in sorted(aggregates):
        agg = aggregates[method]
        for i in range(agg.indices.size):
            writer.writerow([
                method, int(agg.indices[i]), _fmt(float(agg.times[i])),
                int(agg.n_runs[i]), _fmt(float(agg.f_gap_mean[i])),
                _fmt(float(agg.f_gap_ci[i])), _fmt(float(agg.grad_norm_mean[i])),
                _fmt(float(agg.grad_norm_ci[i])), _fmt(float(agg.step_norm_mean[i])),
                _fmt(float(agg.step_norm_ci[i])),
            ])
    return buf.getvalue()


def read_traces_csv(path) -> list[Trace]:
    """Parse a trace CSV back into Trace objects (inverse of emit)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        raise ValueError(f"unexpected header in {path}")
    by_run: dict[str, Trace] = {}
    for parts in rows[1:]:
        run_id, method, seed = parts[0], parts[1], int(parts[2])
        index, time = int(parts[3]), float(parts[4])
        f_gap = float(parts[5]) if parts[5] else float("nan")
        grad_norm, step_norm = float(parts[6]), float(parts[7])
        status = parts[8]
        if run_id not in by_run:
            diverged_at = None
            if status.startswith("diverged@"):
                diverged_at = int(status.split("@", 1)[1])
            by_run[run_id] = Trace(
                run_id=run_id, method=method, seed=seed, records=[],
                status="diverged" if diverged_at is not None else "completed",
                diverged_at=diverged_at,
            )
        by_run[run_id].records.append(
            Record(index=index, time=time, f_gap=f_gap,
                   grad_norm=grad_norm, step_norm=step_norm)
        )
    return sorted(by_run.values(), key=lambda t: (t.method, t.seed))
