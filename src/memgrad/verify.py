"""Cross-module invariant battery behind the ``verify`` CLI command.

Each check is cheap enough to run routinely; the heavyweight statistical
reproductions live in the acceptance test suite.  A check returns a
pass/fail flag plus the worst observed value, and the battery ends with a
configured experiment batch whose polynomial-forgetting runs are checked
against their closed-form rate bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from memgrad import continuum, harness, memory, optimizers, problems, theory

__all__ = ["CheckResult", "run_verification", "default_verify_config"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def default_verify_config() -> harness.ExperimentConfig:
    """Built-in battery config: the reference ill-conditioned quadratic
    under mild Gaussian noise, one long-memory method per family."""
    return harness.ExperimentConfig(
        problem={
            "name": "quadratic_diag",
            "params": {"coeffs": [2e-2, 5e-3]},
            "noise": {"kind": "gaussian", "sigma": 0.1},
        },
        methods=[
            {"name": "memsgd", "params": {"p": 2.0, "eta": 12.5}},
            {"name": "sgd", "params": {"eta": 1.0}},
            {"name": "hb", "params": {"eta": 1.0, "beta": 0.9}},
            {"name": "unbiased_hb", "params": {"eta": 1.0, "beta": 0.9}},
        ],
        run={
            "kind": "optimize",
            "iterations": 300,
            "x0": [1.0, 1.0],
            "n_seeds": 5,
            "record_stride": 10,
        },
        output={"directory": "verify_out", "formats": ["csv", "json"]},
        master_seed=0,
    )


def _check_discrete_normalization() -> CheckResult:
    worst = 0.0
    for p in (2.0, 3.0, 4.0, 100.0):
        sums = memory.memsgd_weight_sums(p, 2000)
        worst = max(worst, float(np.max(np.abs(sums - 1.0))))
    return CheckResult(
        "discrete-weight-normalization", worst < 1e-12,
        f"max |sum - 1| = {worst:.3e} over p in {{2,3,4,100}}, k <= 2000",
    )


def _check_continuous_normalization() -> CheckResult:
    kinds = [
        memory.MemoryFunction.decaying(),
        memory.MemoryFunction.constant(),
        memory.MemoryFunction.square_root(),
        memory.MemoryFunction.linear(),
        memory.MemoryFunction.quadratic(),
        memory.MemoryFunction.exponential(1.0),
        memory.MemoryFunction.super_exponential(1.2),
    ]
    worst = 0.0
    for mf in kinds:
        for t in (0.1, 1.0, 10.0, 100.0):
            worst = max(worst, abs(memory.weight_normalization(mf, t) - 1.0))
    return CheckResult(
        "continuous-weight-normalization", worst < 1e-8,
        f"max quadrature defect = {worst:.3e}",
    )


def _check_hb_sum_equivalence(trials: int = 100) -> CheckResult:
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(trials):
        k = int(rng.integers(1, 51))
        betas = rng.uniform(0.0, 1.0, size=k + 1)
        grads = rng.normal(size=(k + 1, 2))
        eta = rng.uniform(0.01, 0.3)
        x0 = rng.normal(size=2)
        state = optimizers.OptimizerState.initial(x0)
        for i in range(k + 1):
            state = optimizers.hb_step(state, grads[i], eta=eta, beta=betas[i])
        expanded = theory.hb_sum_expand(betas, eta, grads, x0)
        worst = max(worst, float(np.max(np.abs(state.x - expanded))))
    return CheckResult(
        "momentum-sum-equivalence", worst < 1e-12,
        f"max |recursion - expansion| = {worst:.3e} over {trials} trials",
    )


def _check_semi_implicit() -> CheckResult:
    obj = problems.quadratic_diag([2e-2, 5e-3])
    worst = 0.0
    for h, alpha in ((0.1, 1.0), (0.01, 2.0)):
        spec = continuum.hb_sde(obj.grad, 2, viscosity=alpha)
        ps = continuum.PhaseState(np.array([1.0, 1.0]), np.zeros(2), t=0.0)
        st = optimizers.OptimizerState.initial(np.array([1.0, 1.0]))
        for _ in range(1000):
            ps = continuum.semi_implicit_euler_step(ps, spec, h)
            st = optimizers.hb_step(st, obj.grad(st.x), eta=h * h, beta=1.0 - h * alpha)
            worst = max(worst, float(np.max(np.abs(ps.x - st.x))))
    return CheckResult(
        "semi-implicit-correspondence", worst < 1e-12,
        f"max position gap = {worst:.3e} over 1000 steps",
    )


def _check_gamma_continuity(draws: int = 1000) -> CheckResult:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(draws):
        tau = rng.uniform(0.05, 1.0)
        mu_tilde = rng.uniform(1e-3, 50.0)
        _, alpha_max = theory.gamma_star(1.0, tau, mu_tilde)
        lo, _ = theory.gamma_star(alpha_max, tau, mu_tilde)
        hi = 0.5 * (alpha_max - math.sqrt(max(alpha_max**2 - 2 * mu_tilde * tau, 0.0)))
        worst = max(worst, abs(lo - hi) / max(1.0, lo))
    mu = 0.42
    exact = (
        theory.optimal_viscosity("mg", mu) == 9.0 * mu / 4.0
        and theory.optimal_viscosity("hb", mu) == 1.5 * math.sqrt(mu)
    )
    return CheckResult(
        "decay-rate-branch-continuity", worst < 1e-12 and exact,
        f"max branch gap = {worst:.3e}; closed-form split points exact: {exact}",
    )


def _check_variance_reduction() -> CheckResult:
    beta = 0.9
    vals = np.array([theory.variance_reduction_factor(beta, k) for k in range(10**4)])
    monotone = bool(np.all(np.diff(vals) <= 0.0))
    at_zero = theory.variance_reduction_factor(0.0, 123) == 1.0
    limit_gap = abs(vals[-1] - (1 - beta) / (1 + beta))
    ok = monotone and at_zero and limit_gap < 1e-10
    return CheckResult(
        "variance-reduction-factor", ok,
        f"monotone={monotone}, factor(beta=0)=1: {at_zero}, "
        f"limit gap = {limit_gap:.3e}",
    )


def _check_bias_correction_identity() -> CheckResult:
    g = np.array([0.7, -1.3])
    state = optimizers.OptimizerState.initial(np.zeros(2))
    worst = 0.0
    for _ in range(200):
        state = optimizers.adam_step(state, g, eta=0.1, beta1=0.9, beta2=0.999)
        mhat = state.m1 / (1.0 - 0.9**state.k)
        worst = max(worst, float(np.max(np.abs(mhat - g))))
    return CheckResult(
        "first-moment-bias-correction", worst < 1e-12,
        f"max |corrected moment - gradient| = {worst:.3e}",
    )


def _check_noise_free_reduction() -> CheckResult:
    obj = problems.quadratic_diag([2e-2, 5e-3])
    spec = continuum.memory_sde(obj.grad, 2, memory.MemoryFunction.quadratic(),
                                sigma=0.0)
    runs = []
    for seed in (1, 2):
        res = continuum.integrate_trajectory(
            spec, [1.0, 1.0], [0.0, 0.0], 2.0, 1e-3,
            rng=np.random.default_rng(seed), record_stride=200,
        )
        runs.append(res.positions)
    identical = bool(np.array_equal(runs[0], runs[1]))
    return CheckResult(
        "noise-free-sde-reduces-to-ode", identical,
        f"bit-identical across seeds: {identical}",
    )


def _auto_bounds(config: harness.ExperimentConfig, obj, noise):
    """Rate-bound specs for every polynomial-forgetting method that runs
    inside the bound's stepsize condition."""
    out = []
    if obj.f_star is None or obj.x_star is None or obj.L is None:
        return out
    x0 = np.asarray(config.run["x0"], dtype=float)
    dist2 = float(np.sum((x0 - obj.x_star) ** 2))
    try:
        varsigma2 = noise.variance_per_coordinate()
    except ValueError:
        varsigma2, _ = problems.gradient_variance_bound(obj, [x0, 0.5 * x0])
    for label, name, params in config.expanded_methods():
        if name != "memsgd":
            continue
        p, eta = float(params["p"]), float(params["eta"])
        if p < 2.0 or eta > (p - 1.0) / (p * obj.L) * (1.0 + 1e-12):
            continue
        spec = theory.BoundSpec("memsgd_discrete", {
            "p": p, "eta": eta, "d": obj.dim, "varsigma2": varsigma2,
            "dist2": dist2,
        })
        out.append((label, spec))
    return out


def run_verification(
    config: harness.ExperimentConfig | None = None, threads: int = 1
) -> tuple[list[CheckResult], harness.ExperimentResult]:
    """Run the invariant battery plus the configured experiment batch."""
    config = default_verify_config() if config is None else config
    checks = [
        _check_discrete_normalization(),
        _check_continuous_normalization(),
        _check_hb_sum_equivalence(),
        _check_semi_implicit(),
        _check_gamma_continuity(),
        _check_variance_reduction(),
        _check_bias_correction_identity(),
        _check_noise_free_reduction(),
    ]
    result = harness.run_experiment(config, threads=threads)
    n_div = sum(1 for t in result.traces if t.status != "completed")
    checks.append(CheckResult(
        "experiment-batch", True,
        f"{len(result.traces)} runs, {n_div} diverged (contained)",
    ))
    obj, noise = harness.build_objective(config.problem)
    for label, spec in _auto_bounds(config, obj, noise):
        report = harness.check_bounds(result.traces, spec, method=label)
        checks.append(CheckResult(
            f"rate-bound[{label}]", report.status == "ok",
            f"status={report.status}, {report.summary()}",
        ))
    return checks, result
