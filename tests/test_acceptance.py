"""Acceptance suite: one test per criterion, stated tolerances, timed.

Every test prints a single PASS line (visible with ``pytest -s``) carrying
the measured worst value and elapsed time; a failure raises with the same
detail.  Statistical criteria use fixed seeds so outcomes are
reproducible.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from memgrad import continuum, harness, memory, optimizers, problems, theory
from memgrad.cli import main as cli_main

CONTINUOUS_KINDS = [
    memory.MemoryFunction.decaying(),
    memory.MemoryFunction.constant(),
    memory.MemoryFunction.square_root(),
    memory.MemoryFunction.linear(),
    memory.MemoryFunction.quadratic(),
    memory.MemoryFunction.exponential(1.0),
    memory.MemoryFunction.super_exponential(1.2),
]


def report(number: int, elapsed: float, budget: float, detail: str) -> None:
    assert elapsed < budget, f"criterion {number} exceeded {budget}s: {elapsed:.1f}s"
    print(f"ACCEPTANCE {number:2d}: PASS ({elapsed:5.1f}s) {detail}")


def test_criterion_01_weight_normalization():
    start = time.time()
    worst_discrete = 0.0
    for p in (2.0, 3.0, 4.0, 100.0):
        sums = memory.memsgd_weight_sums(p, 10_000)
        worst_discrete = max(worst_discrete, float(np.max(np.abs(sums - 1.0))))
        for k in (0, 1, 10, 100, 1000, 10_000):
            s = memory.discrete_weights_memsgd(p, k).sum()
            worst_discrete = max(worst_discrete, abs(s - 1.0))
    assert worst_discrete < 1e-12
    worst_quad = 0.0
    for mf in CONTINUOUS_KINDS:
        for t in (0.1, 1.0, 10.0, 100.0):
            worst_quad = max(worst_quad, abs(memory.weight_normalization(mf, t) - 1.0))
    assert worst_quad < 1e-8
    report(1, time.time() - start, 10.0,
           f"discrete defect {worst_discrete:.2e}, quadrature defect {worst_quad:.2e}")


def test_criterion_02_hb_sum_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(20240812)
    worst = 0.0
    for _ in range(1000):
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
    assert worst < 1e-12
    report(2, time.time() - start, 10.0,
           f"max |iterated - expanded| = {worst:.2e} over 1000 trials, k <= 50")


def test_criterion_03_semi_implicit_correspondence():
    start = time.time()
    obj = problems.quadratic_diag([2e-2, 5e-3])
    worst = 0.0
    for h in (0.1, 0.01):
        for alpha in (0.5, 1.0, 2.0):
            spec = continuum.hb_sde(obj.grad, 2, viscosity=alpha)
            ps = continuum.PhaseState(np.array([1.0, 1.0]), np.zeros(2), t=0.0)
            st = optimizers.OptimizerState.initial(np.array([1.0, 1.0]))
            for _ in range(1000):
                ps = continuum.semi_implicit_euler_step(ps, spec, h)
                st = optimizers.hb_step(st, obj.grad(st.x), eta=h * h,
                                        beta=1.0 - h * alpha)
                worst = max(worst, float(np.max(np.abs(ps.x - st.x))))
    assert worst < 1e-12
    report(3, time.time() - start, 5.0,
           f"max |integrator - recursion| = {worst:.2e} over 1000 steps x 6 grids")


def test_criterion_04_ito_isometry():
    start = time.time()
    rng = np.random.default_rng(7)
    worst_z = 0.0
    for p in (0.0, 1.0, 3.0):
        for t in (1.0, 2.0):
            var, se = continuum.ito_isometry_mc(p, t, 10**5, 1e-3, rng)
            target = t ** (2 * p + 1) / (2 * p + 1)
            z = abs(var - target) / se
            worst_z = max(worst_z, z)
            assert z < 3.0, (p, t, var, target, z)
    report(4, time.time() - start, 120.0,
           f"max |z| = {worst_z:.2f} over p in {{0,1,3}}, t in {{1,2}}, 1e5 paths")


def test_criterion_05_constant_gradient_amplification():
    start = time.time()
    obj = problems.constant_field([1.0])
    spec = continuum.memory_sde(obj.grad, 1, memory.MemoryFunction.quadratic())
    _, _, vs, _ = continuum.integrate_paths(spec, [0.0], [0.0],
                                            continuum.grid_times(spec, 10.0, 1e-3), 1e-3,
                                            record_stride=1000)
    settle_gap = abs(vs[-1, 0, 0] + 1.0)
    assert settle_gap < 1e-2
    spec_n = continuum.nesterov_sde(obj.grad, 1)
    times, _, vs, _ = continuum.integrate_paths(spec_n, [0.0], [0.0],
                                                continuum.grid_times(spec_n, 8.0, 1e-3), 1e-3,
                                                record_stride=100)
    mask = times >= 2.0
    amp_gaps = np.abs(vs[mask, 0, 0] + times[mask] / 4.0)
    rel = float(np.max(amp_gaps / (1e-2 * times[mask])))
    assert rel < 1.0
    report(5, time.time() - start, 10.0,
           f"memory settle gap {settle_gap:.2e}; amplification gap at "
           f"{100 * rel:.3f}% of tolerance")


def test_criterion_06_velocity_variance_laws():
    start = time.time()
    obj = problems.constant_field([1.0])
    n = 10**4
    rng = np.random.default_rng(612)
    times = [2.0, 5.0, 7.0]
    spec_n = continuum.nesterov_sde(obj.grad, 1, sigma=1.0)
    _, _, vn = continuum.sample_paths(spec_n, [0.0], [0.0], times, 1e-3, n, rng)
    spec_q = continuum.memory_sde(obj.grad, 1, memory.MemoryFunction.quadratic(),
                                  sigma=1.0)
    _, _, vq = continuum.sample_paths(spec_q, [0.0], [0.0], times, 1e-3, n, rng)
    worst_z = 0.0
    for i, t in enumerate(times):
        for v, target in ((vn[i, :, 0], t / 7.0), (vq[i, :, 0], 9.0 / (5.0 * t))):
            var = float(np.var(v, ddof=1))
            se = var * math.sqrt(2.0 / (n - 1))
            z = abs(var - target) / se
            worst_z = max(worst_z, z)
            assert z < 3.0, (t, var, target, z)
    report(6, time.time() - start, 300.0,
           f"max |z| = {worst_z:.2f} for Var[V] laws t/7 and 9/(5t), 1e4 paths")


def test_criterion_07_variance_ode_vs_monte_carlo():
    start = time.time()
    lam, sigma, t0, n = 1.0, 1.0, 0.1, 10**4
    obj = problems.quadratic_diag([lam / 2.0])
    rng = np.random.default_rng(2718)
    times = [1.0, 5.0, 10.0]
    worst_z = 0.0
    specs = {
        "nesterov": continuum.nesterov_sde(obj.grad, 1, sigma=sigma, eps_start=t0),
        "quadratic_forgetting": continuum.memory_sde(
            obj.grad, 1, memory.MemoryFunction.quadratic(), sigma=sigma,
            eps_start=t0),
    }
    for model, spec in specs.items():
        _, _, V = continuum.sample_paths(spec, [1.0], [0.0], times, 1e-3, n, rng)
        states = continuum.integrate_variance_ode(model, t0, 10.0, 1e-3, lam,
                                                  sigma**2, record_stride=100)
        ode_t = np.array([s.t for s in states])
        ode_p3 = np.array([s.p3 for s in states])
        for i, t in enumerate(times):
            v2 = V[i, :, 0] ** 2
            se = float(v2.std(ddof=1)) / math.sqrt(n)
            p3 = float(ode_p3[np.argmin(np.abs(ode_t - t))])
            z = abs(float(v2.mean()) - p3) / se
            worst_z = max(worst_z, z)
            assert z < 3.0, (model, t, v2.mean(), p3, z)
    # Long-run shape: bare noise explodes, carried noise stays bounded.
    nest = continuum.integrate_variance_ode("nesterov", t0, 100.0, 1e-3, lam, 1.0,
                                            record_stride=100)
    p3 = np.array([s.p3 for s in nest])
    ts = np.array([s.t for s in nest])
    tail = p3[ts >= 20.0]
    assert np.all(np.diff(tail) > 0.0)
    qf = continuum.integrate_variance_ode("quadratic_forgetting", t0, 100.0, 1e-3,
                                          lam, 1.0, record_stride=100)
    qf_p3 = np.array([s.p3 for s in qf])
    qf_sup = float(qf_p3.max())
    assert qf_sup < 100.0
    report(7, time.time() - start, 600.0,
           f"max |z| = {worst_z:.2f} at t in {{1,5,10}}; bare-noise second moment "
           f"monotone beyond t=20, carried-noise sup = {qf_sup:.2f}")


def test_criterion_08_memsgd_rate_bounds():
    start = time.time()
    # Deterministic: f = 0.5||x||^2, eta at the rate bound's threshold.
    worst_margin = -np.inf
    for p in (2.0, 3.0, 4.0):
        eta = (p - 1.0) / p
        state = optimizers.OptimizerState.initial(np.array([1.0, -1.0]))
        dist2 = 2.0
        for _ in range(10_000):
            state = optimizers.memsgd_p_step(state, state.x, eta=eta, p=p)
            f_gap = 0.5 * float(np.sum(state.x**2))
            bound = theory.memsgd_rate_bound(p, eta, state.k, 2, 0.0, dist2)
            margin = f_gap - bound
            worst_margin = max(worst_margin, margin)
            assert margin <= 0.0, (p, state.k, f_gap, bound)
    # Stochastic: quartic with Gaussian noise, 150-seed averaged protocol.
    p, L = 2.0, problems.quartic_2d().L
    eta = (p - 1.0) / (p * L)
    sigma = 0.5
    config = harness.ExperimentConfig.from_dict({
        "problem": {
            "name": "quartic_2d",
            "noise": {"kind": "gaussian", "sigma": sigma},
        },
        "methods": [
            {"name": "memsgd", "params": {"p": p, "eta": eta}},
            {"name": "unbiased_hb", "params": {"eta": eta, "beta": 0.8}},
            {"name": "sgd", "params": {"eta": eta}},
        ],
        "run": {"kind": "optimize", "iterations": 500, "x0": [1.0, 1.0],
                "n_seeds": 150, "record_stride": 5},
        "master_seed": 41,
    })
    result = harness.run_experiment(config)
    assert len(result.aggregates) == 3
    label = f"memsgd(eta={eta},p={p})"
    spec = theory.BoundSpec("memsgd_discrete", {
        "p": p, "eta": eta, "d": 2, "varsigma2": sigma**2, "dist2": 2.0,
    })
    bound_report = harness.check_bounds(result.aggregates, spec, method=label)
    assert bound_report.status == "ok", bound_report
    report(8, time.time() - start, 180.0,
           f"deterministic margin max = {worst_margin:.2e} (k <= 1e4, p in "
           f"{{2,3,4}}); noisy protocol: {bound_report.n_checked} indices, "
           f"0 violations over 150 seeds")


def test_criterion_08b_synthetic_logistic_convergence():
    # Desk-scale stand-in for the large finite-sum experiments: the same
    # averaged-bound protocol as criterion 8 on a generated logistic
    # regression with uniformly sampled component gradients.
    start = time.time()
    from dataclasses import replace

    obj = problems.logistic_synthetic(n=200, dim=10, seed=3, l2=0.1)
    w = np.zeros(10)
    for _ in range(6000):
        w = w - (1.0 / obj.L) * obj.grad(w)
    assert np.linalg.norm(obj.grad(w)) <= 1e-8
    solved = replace(obj, f_star=obj.value(w), x_star=w)

    x0 = np.zeros(10)
    varsigma2, _ = problems.gradient_variance_bound(
        solved, [x0, w, 0.5 * (x0 + w), 1.5 * w]
    )
    p = 2.0
    eta = (p - 1.0) / (p * solved.L)
    dist2 = float(np.sum((x0 - w) ** 2))
    noise = problems.NoiseModel("finite_sum")
    n_seeds, iterations, stride = 30, 2000, 10
    gaps = np.zeros((n_seeds, iterations // stride + 1))
    for seed in range(n_seeds):
        rng = np.random.default_rng(1000 + seed)
        state = optimizers.OptimizerState.initial(x0)
        gaps[seed, 0] = solved.f_gap(state.x)
        for k in range(iterations):
            g = problems.stochastic_gradient(solved, noise, state.x, rng)
            state = optimizers.memsgd_p_step(state, g, eta=eta, p=p)
            if (k + 1) % stride == 0:
                gaps[seed, (k + 1) // stride] = solved.f_gap(state.x)
    mean = gaps.mean(axis=0)
    ci = 1.96 * gaps.std(axis=0, ddof=1) / math.sqrt(n_seeds)
    worst_margin = -np.inf
    for j in range(mean.size):
        k = j * stride
        bound = theory.memsgd_rate_bound(p, eta, k, 10, varsigma2, dist2)
        margin = (mean[j] - ci[j]) - bound
        worst_margin = max(worst_margin, margin)
        assert margin <= 0.0, (k, mean[j] - ci[j], bound)
    report(8, time.time() - start, 180.0,
           f"[desk-scale logistic] worst (mean-CI)-bound margin = "
           f"{worst_margin:.2e} with estimated noise ceiling {varsigma2:.3f}")


def test_criterion_09_time_warp():
    start = time.time()
    obj = problems.quadratic_diag([2e-2, 5e-3])
    gap = continuum.warp_equivalence_check(obj, 2.0, 4.0, 1e-5)
    assert gap < 1e-3
    report(9, time.time() - start, 60.0, f"sup warped-path gap = {gap:.2e}")


def test_criterion_10_decay_rate_split():
    start = time.time()
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        tau = rng.uniform(0.05, 1.0)
        mu_tilde = rng.uniform(1e-3, 50.0)
        alpha_max = 0.5 * (tau + 2.0) * math.sqrt(mu_tilde)
        lo, _ = theory.gamma_star(alpha_max, tau, mu_tilde)
        hi = 0.5 * (alpha_max - math.sqrt(max(alpha_max**2 - 2 * mu_tilde * tau, 0.0)))
        worst = max(worst, abs(lo - hi))
    assert worst < 1e-12
    mu = 0.37
    assert theory.optimal_viscosity("mg", mu) == 9.0 * mu / 4.0
    assert theory.optimal_viscosity("hb", mu) == 1.5 * math.sqrt(mu)
    report(10, time.time() - start, 1.0,
           f"max branch gap = {worst:.2e}; split points exact")


def test_criterion_11_variance_reduction_factor():
    start = time.time()
    assert theory.variance_reduction_factor(0.0, 0) == 1.0
    assert theory.variance_reduction_factor(0.0, 10**4) == 1.0
    beta = 0.9
    vals = np.array([theory.variance_reduction_factor(beta, k)
                     for k in range(10**4 + 1)])
    limit_gap = abs(vals[-1] - (1 - beta) / (1 + beta))
    assert limit_gap < 1e-10
    assert np.all(np.diff(vals) <= 0.0)
    report(11, time.time() - start, 1.0,
           f"limit gap = {limit_gap:.2e}, monotone over k <= 1e4")


def test_criterion_12_verify_determinism(tmp_path):
    start = time.time()
    from memgrad.verify import default_verify_config

    cfg = default_verify_config()
    cfg_path = tmp_path / "verify_config.json"
    cfg.to_file(cfg_path)
    outputs = {}
    for name, threads in (("a", 1), ("b", 4), ("c", 1)):
        out = tmp_path / name
        code = cli_main(["verify", "--config", str(cfg_path), "--seed", "0",
                         "--threads", str(threads), "--out", str(out)])
        assert code == 0
        outputs[name] = (
            (out / "traces.csv").read_bytes(),
            (out / "aggregates.csv").read_bytes(),
        )
    assert outputs["a"] == outputs["b"] == outputs["c"]
    report(12, time.time() - start, 60.0,
           "byte-identical traces/aggregates across reruns and threads {1,4}")
