"""Folded span tracing around memgrad's public callables.

A traced pass replaces the module attributes and methods that memgrad
looks up at call time with wrappers, so every call into a layer opens a
span whose parent is the innermost open span.  Spans are folded as they
close into (name, parent) totals -- calls, inclusive seconds, and seconds
covered by child spans -- so memory is bounded by the number of distinct
call edges, not by the number of calls.  Self time is the inclusive time
minus the child time.  The stack is shared, so tracing assumes one worker
thread; the traced pass runs at ``--threads 1``.

Attributes that a later version of memgrad no longer has are skipped and
reported under ``missing`` instead of failing the pass.
"""

from __future__ import annotations

import dataclasses
import importlib
from pathlib import Path
from time import perf_counter

# (module, attribute path, span name).  Problem builders are wrapped so
# that the Objective they return carries traced value/grad oracles.
TRACED = [
    ("memgrad.optimizers", "sgd_step", "optimizers.sgd_step"),
    ("memgrad.optimizers", "hb_step", "optimizers.hb_step"),
    ("memgrad.optimizers", "memsgd_p_step", "optimizers.memsgd_p_step"),
    ("memgrad.optimizers", "unbiased_hb_step", "optimizers.unbiased_hb_step"),
    ("memgrad.optimizers", "adam_step", "optimizers.adam_step"),
    ("memgrad.optimizers", "adagrad_step", "optimizers.adagrad_step"),
    ("memgrad.optimizers", "adamnc_step", "optimizers.adamnc_step"),
    ("memgrad.optimizers", "polyadam_step", "optimizers.polyadam_step"),
    ("memgrad.problems", "stochastic_gradient", "problems.stochastic_gradient"),
    ("memgrad.continuum", "integrate_trajectory", "continuum.integrate_trajectory"),
    ("memgrad.continuum", "sample_paths", "continuum.sample_paths"),
    ("memgrad.continuum", "integrate_variance_ode", "continuum.integrate_variance_ode"),
    ("memgrad.continuum", "warp_equivalence_check", "continuum.warp_equivalence_check"),
    ("memgrad.memory", "MemoryFunction.ode_coefficient", "memory.ode_coefficient"),
    ("memgrad.memory", "weight_normalization", "memory.weight_normalization"),
    ("memgrad.theory", "BoundSpec.evaluate", "theory.bound_evaluate"),
    ("memgrad.harness", "run_experiment", "harness.run_experiment"),
    ("memgrad.harness", "aggregate_traces", "harness.aggregate_traces"),
    ("memgrad.harness", "check_bounds", "harness.check_bounds"),
    ("memgrad.harness", "emit", "harness.emit"),
    ("memgrad.verify", "run_verification", "verify.run_verification"),
    ("memgrad.cli", "main", "cli.main"),
]
PROBLEM_BUILDERS = ("quadratic_diag", "quartic_2d", "constant_field", "logistic_synthetic")
ORACLES = {"value": "problems.value", "grad": "problems.grad",
           "grad_component": "problems.grad_component"}


class Tracer:
    """Span stack plus folded totals and result counters."""

    def __init__(self):
        self.totals: dict[tuple[str, str | None], list] = {}
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []

    def wrap(self, name: str, fn, on_result=None):
        stack, totals = self._stack, self.totals

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                entry = totals.get((name, parent))
                if entry is None:
                    entry = totals[(name, parent)] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += frame[1]
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- result counters ------------------------------------------------

    def _on_experiment(self, result) -> None:
        self.count("harness.runs", len(result.traces))
        self.count("harness.diverged",
                   sum(1 for t in result.traces if t.status != "completed"))
        self.count("harness.records", sum(len(t.records) for t in result.traces))

    def _on_emit(self, written) -> None:
        self.count("harness.emit_bytes", sum(Path(p).stat().st_size for p in written))

    def _on_verification(self, result) -> None:
        self.count("verify.checks", len(result[0]))

    def _wrap_builder(self, builder):
        def build(*args, **kwargs):
            obj = builder(*args, **kwargs)
            if not dataclasses.is_dataclass(obj):
                self.missing.append(f"oracles of {builder.__name__}")
                return obj
            oracles = {
                field: self.wrap(span, getattr(obj, field))
                for field, span in ORACLES.items()
                if getattr(obj, field, None) is not None
            }
            return dataclasses.replace(obj, **oracles)

        return build

    def install(self) -> "Tracer":
        hooks = {
            "harness.run_experiment": self._on_experiment,
            "harness.emit": self._on_emit,
            "verify.run_verification": self._on_verification,
        }
        for module_name, attr_path, span in TRACED:
            owner = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr_path}")
                continue
            setattr(owner, attr, self.wrap(span, fn, hooks.get(span)))
        problems = importlib.import_module("memgrad.problems")
        for name in PROBLEM_BUILDERS:
            builder = getattr(problems, name, None)
            if builder is None:
                self.missing.append(f"memgrad.problems.{name}")
                continue
            setattr(problems, name, self._wrap_builder(builder))
        return self

    def export(self) -> dict:
        return {
            "spans": [[name, parent, calls, total, child]
                      for (name, parent), (calls, total, child) in self.totals.items()],
            "counters": dict(self.counters),
            "missing": sorted(set(self.missing)),
        }


# ----------------------------------------------------------------------
# Per-layer metrics derived from an exported trace
# ----------------------------------------------------------------------

LAYER_UNITS = {
    "optimizers.calls": "count",
    "optimizers.self_s": "s",
    "optimizers.us_per_call": "us",
    "problems.noise_s": "s",
    "problems.grad_calls": "count",
    "problems.grad_s": "s",
    "problems.value_calls": "count",
    "problems.value_s": "s",
    "harness.run_self_s": "s",
    "harness.runs": "count",
    "harness.diverged": "count",
    "harness.records": "count",
    "harness.aggregate_s": "s",
    "harness.check_bounds_s": "s",
    "harness.emit_s": "s",
    "harness.emit_bytes": "bytes",
    "harness.threaded_cpu_frac": "frac",
    "continuum.traj_calls": "count",
    "continuum.substeps": "count",
    "continuum.integrate_self_s": "s",
    "continuum.us_per_substep": "us",
    "continuum.variance_ode_s": "s",
    "continuum.warp_s": "s",
    "continuum.ensemble_s": "s",
    "memory.coef_calls": "count",
    "memory.coef_s": "s",
    "memory.normalization_s": "s",
    "theory.bound_evals": "count",
    "theory.bound_s": "s",
    "verify.checks": "count",
    "verify.battery_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
}


def layer_metrics(export: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, in the units of LAYER_UNITS.

    ``harness.threaded_cpu_frac`` and ``trace.overhead_frac`` come from
    the untraced passes and are added by the caller.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    substeps = 0
    for name, parent, n, inclusive, child in export["spans"]:
        calls[name] = calls.get(name, 0) + n
        total[name] = total.get(name, 0.0) + inclusive
        self_s[name] = self_s.get(name, 0.0) + inclusive - child
        if name == "problems.grad" and parent == "continuum.integrate_trajectory":
            substeps += n

    def summed(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def per(seconds, count):
        return seconds / count * 1e6 if count else 0.0

    counters = export["counters"]
    opt_calls = summed(calls, "optimizers.")
    opt_self = summed(self_s, "optimizers.")
    grad_names = ("problems.grad", "problems.grad_component")
    integrate_self = self_s.get("continuum.integrate_trajectory", 0.0)
    return {
        "optimizers.calls": opt_calls,
        "optimizers.self_s": opt_self,
        "optimizers.us_per_call": per(opt_self, opt_calls),
        "problems.noise_s": self_s.get("problems.stochastic_gradient", 0.0),
        "problems.grad_calls": sum(calls.get(k, 0) for k in grad_names),
        "problems.grad_s": sum(self_s.get(k, 0.0) for k in grad_names),
        "problems.value_calls": calls.get("problems.value", 0),
        "problems.value_s": self_s.get("problems.value", 0.0),
        "harness.run_self_s": self_s.get("harness.run_experiment", 0.0),
        "harness.runs": counters.get("harness.runs", 0),
        "harness.diverged": counters.get("harness.diverged", 0),
        "harness.records": counters.get("harness.records", 0),
        "harness.aggregate_s": total.get("harness.aggregate_traces", 0.0),
        "harness.check_bounds_s": total.get("harness.check_bounds", 0.0),
        "harness.emit_s": total.get("harness.emit", 0.0),
        "harness.emit_bytes": counters.get("harness.emit_bytes", 0),
        "continuum.traj_calls": calls.get("continuum.integrate_trajectory", 0),
        "continuum.substeps": substeps,
        "continuum.integrate_self_s": integrate_self,
        "continuum.us_per_substep": per(integrate_self, substeps),
        "continuum.variance_ode_s": total.get("continuum.integrate_variance_ode", 0.0),
        "continuum.warp_s": total.get("continuum.warp_equivalence_check", 0.0),
        "continuum.ensemble_s": total.get("continuum.sample_paths", 0.0),
        "memory.coef_calls": calls.get("memory.ode_coefficient", 0),
        "memory.coef_s": self_s.get("memory.ode_coefficient", 0.0),
        "memory.normalization_s": total.get("memory.weight_normalization", 0.0),
        "theory.bound_evals": calls.get("theory.bound_evaluate", 0),
        "theory.bound_s": self_s.get("theory.bound_evaluate", 0.0),
        "verify.checks": counters.get("verify.checks", 0),
        "verify.battery_s": total.get("verify.run_verification", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }
