"""The batched forms of ``verify``'s oracles match their one-run forms."""

import numpy as np

from memgrad import continuum, optimizers, problems, theory
from memgrad.memory import MemoryFunction
from memgrad.verify import _check_noise_free_reduction


def test_batched_momentum_rows_match_per_trial_loops():
    # momentum-sum-equivalence steps (n, d) states; each row must be the
    # iterate a one-row run reaches.
    rng = np.random.default_rng(11)
    k, rows, eta = 37, 6, 0.17
    betas = rng.uniform(0.0, 1.0, size=k + 1)
    betas[[3, 8]] = 0.0, 1.0
    grads = rng.normal(size=(k + 1, rows, 2))
    x0 = rng.normal(size=(rows, 2))
    batch = optimizers.OptimizerState.initial(x0)
    for g, beta in zip(grads, betas):
        batch = optimizers.hb_step(batch, g, eta=eta, beta=beta)
    for r in range(rows):
        state = optimizers.OptimizerState.initial(x0[r])
        for i in range(k + 1):
            state = optimizers.hb_step(state, grads[i, r], eta=eta, beta=betas[i])
        np.testing.assert_array_equal(batch.x[r], state.x)


def test_gamma_draw_block_matches_scalar_draws():
    # decay-rate-branch-continuity draws its (tau, mu_tilde) pairs as one block.
    rng = np.random.default_rng(7)
    scalar = [(rng.uniform(0.05, 1.0), rng.uniform(1e-3, 50.0)) for _ in range(1000)]
    block = np.random.default_rng(7).uniform([0.05, 1e-3], [1.0, 50.0], (1000, 2))
    np.testing.assert_array_equal(block, scalar)


def noise_free_gap(h):
    """The noise-free check's path against the series solution, at step h."""
    coeffs = np.array([2e-2, 5e-3])
    spec = continuum.memory_sde(problems.quadratic_diag(coeffs).grad, 2,
                                MemoryFunction.quadratic(), sigma=0.0)
    times, xs, _, _ = continuum.integrate_paths(spec, [1.0, 1.0], [0.0, 0.0],
                                                continuum.grid_times(spec, 2.0, h), h)
    exact = theory.poly_memory_ode_series(3.0, 2.0 * coeffs, times, [1.0, 1.0])
    return np.max(np.abs(xs[:, 0] - exact))


def test_noise_free_gap_is_first_order():
    # The check runs at h = 1e-2; passing means its gap is below its tolerance.
    assert 1.8 <= noise_free_gap(1e-2) / noise_free_gap(5e-3) <= 2.2
    check = _check_noise_free_reduction()
    assert check.passed, check.detail
