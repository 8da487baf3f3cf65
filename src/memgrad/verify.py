"""Cross-module invariant battery behind the ``verify`` CLI command.

Each check is cheap enough to run routinely; the heavyweight statistical
reproductions live in the acceptance test suite.  A check returns a
pass/fail flag plus the worst observed value; the worst is taken with numpy,
which carries a NaN through, so a non-finite output fails its check.  The
battery ends with a configured experiment batch, which must run every (method, seed) without
divergence, and with each closed-form bound the config declares, checked
against its method's runs as ``optimize`` checks it.
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
    under mild Gaussian noise, one long-memory method per family, and
    MemSGD's rate bound at eta = (p-1)/(pL) with varsigma^2 = sigma^2."""
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
        bounds=[{
            "kind": "memsgd_discrete",
            "method": "memsgd(eta=12.5,p=2.0)",
            "params": {"p": 2.0, "eta": 12.5, "d": 2, "dist2": 2.0, "varsigma2": 0.1**2},
        }],
        master_seed=0,
    )


def _check_discrete_normalization() -> CheckResult:
    worst = float(np.max([np.abs(memory.memsgd_weight_sums(p, 2000) - 1.0)
                          for p in (2.0, 3.0, 4.0, 100.0)]))
    return CheckResult(
        "discrete-weight-normalization", worst < 1e-12,
        f"max |sum - 1| = {worst:.3e} over p in {{2,3,4,100}}, k <= 2000",
    )


def _check_continuous_normalization() -> CheckResult:
    mf = memory.MemoryFunction
    kinds = [mf.decaying(), mf.constant(), mf.square_root(), mf.linear(), mf.quadratic(),
             mf.exponential(1.0), mf.super_exponential(1.2)]
    worst = float(np.max([abs(memory.weight_normalization(kind, t) - 1.0)
                          for kind in kinds for t in (0.1, 1.0, 10.0, 100.0)]))
    return CheckResult(
        "continuous-weight-normalization", worst < 1e-8,
        f"max quadrature defect = {worst:.3e}",
    )


def _check_hb_sum_equivalence() -> CheckResult:
    # A batch's rows share k, eta and the betas; the expansion sees one long vector.
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        k = int(rng.integers(1, 51))
        betas = rng.uniform(0.0, 1.0, size=k + 1)
        eta = rng.uniform(0.01, 0.3)
        grads = rng.normal(size=(k + 1, 10, 2))
        x0 = rng.normal(size=(10, 2))
        state = optimizers.OptimizerState.initial(x0)
        for g, beta in zip(grads, betas):
            state = optimizers.hb_step(state, g, eta=eta, beta=beta)
        expanded = theory.hb_sum_expand(betas, eta, grads.reshape(k + 1, -1), x0.ravel())
        worst = float(np.maximum(worst, np.max(np.abs(state.x.ravel() - expanded))))
    return CheckResult(
        "momentum-sum-equivalence", worst < 1e-12,
        f"max |recursion - expansion| = {worst:.3e} over 100 trials",
    )


def _check_semi_implicit() -> CheckResult:
    """Semi-implicit Euler from v = 0 walks the HB recursion with x_{-1} = x_0:
    x_{k+1} - (x_k + beta (x_k - x_{k-1}) - eta grad f(x_k)) vanishes at every k."""
    obj = problems.quadratic_diag([2e-2, 5e-3])
    worst = 0.0
    for h, alpha in ((0.1, 1.0), (0.01, 2.0)):
        spec = continuum.hb_sde(obj.grad, 2, viscosity=alpha)
        ps = continuum.PhaseState(np.array([1.0, 1.0]), np.zeros(2), t=0.0)
        xs = [ps.x, ps.x]
        for _ in range(1000):
            ps = continuum.semi_implicit_euler_step(ps, spec, h)
            xs.append(ps.x)
        prev, x, nxt = np.array(xs[:-2]), np.array(xs[1:-1]), np.array(xs[2:])
        residual = nxt - (x + (1.0 - h * alpha) * (x - prev) - h * h * obj.grad(x))
        worst = float(np.maximum(worst, np.max(np.abs(residual))))
    return CheckResult(
        "semi-implicit-correspondence", worst < 1e-12,
        f"max HB recursion residual = {worst:.3e} over 1000 steps",
    )


def _check_gamma_continuity() -> CheckResult:
    """gamma_star at alpha_max against the upper branch written out, and
    against gamma_star one ulp above alpha_max."""
    tau, mu_tilde = np.random.default_rng(7).uniform([0.05, 1e-3], [1.0, 50.0], (1000, 2)).T
    _, alpha_max = theory.gamma_star(1.0, tau, mu_tilde)
    lo, _ = theory.gamma_star(alpha_max, tau, mu_tilde)
    above, _ = theory.gamma_star(np.nextafter(alpha_max, np.inf), tau, mu_tilde)
    hi = 0.5 * (alpha_max - np.sqrt(np.maximum(alpha_max**2 - 2 * mu_tilde * tau, 0.0)))
    worst = float(np.max(np.maximum(abs(lo - hi), abs(above - lo)) / np.maximum(1.0, lo)))
    mu = 0.42
    exact = (
        theory.optimal_viscosity("mg", mu) == 9.0 * mu / 4.0
        and theory.optimal_viscosity("hb", mu) == 1.5 * math.sqrt(mu)
    )
    return CheckResult(
        "decay-rate-branch-continuity", worst < 1e-12 and exact,
        f"max branch gap = {worst:.3e} at and one ulp above alpha_max; "
        f"closed-form split points exact: {exact}",
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
        worst = float(np.maximum(worst, np.max(np.abs(mhat - g))))
    return CheckResult(
        "first-moment-bias-correction", worst < 1e-12,
        f"max |corrected moment - gradient| = {worst:.3e}",
    )


def _check_noise_free_reduction() -> CheckResult:
    """Quadratic memory (c = 3/t) at sigma = 0 against its series solution;
    a noise draw, NaN here, ends the path.  The error is 1.1e-5 at h = 1e-2."""
    coeffs = np.array([2e-2, 5e-3])
    spec = continuum.memory_sde(problems.quadratic_diag(coeffs).grad, 2,
                                memory.MemoryFunction.quadratic(), sigma=0.0)
    times, xs, _, diverged = continuum.integrate_paths(
        spec, [1.0, 1.0], [0.0, 0.0], continuum.grid_times(spec, 2.0, 1e-2), 1e-2,
        lambda: np.full((1, 2), np.nan))
    exact = theory.poly_memory_ode_series(3.0, 2.0 * coeffs, times, [1.0, 1.0])
    gap = float(np.nanmax(np.abs(xs[:, 0] - exact)))  # over the rows before divergence
    status = "diverged" if diverged[0] else "completed"
    return CheckResult(
        "noise-free-sde-reduces-to-ode", status == "completed" and gap < 1e-4,
        f"max |path - series solution| = {gap:.3e} up to t = 2 ({status})",
    )


def run_verification(
    config: harness.ExperimentConfig | None = None, threads: int = 1
) -> tuple[list[CheckResult], harness.ExperimentResult]:
    """Run the invariant battery plus the experiment batch; ``threads`` has no effect."""
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
    expected = len(config.expanded_methods()) * int(config.run.get("n_seeds", 1))
    n_div = sum(1 for t in result.traces if t.status != "completed")
    checks.append(CheckResult(
        "experiment-batch", len(result.traces) == expected and n_div == 0,
        f"{len(result.traces)} runs, {n_div} diverged",
    ))
    for report in harness.check_config_bounds(config, result.traces):
        checks.append(CheckResult(
            f"rate-bound[{report.method}]", report.status == "ok",
            f"status={report.status}, {report.summary()}",
        ))
    return checks, result
