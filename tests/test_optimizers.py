"""Stepper semantics, oracle equivalences, and bias-correction identities."""

import numpy as np
import pytest

from memgrad.memory import discrete_weights_memsgd
from memgrad.optimizers import (
    NonFiniteGradientError,
    OptimizerState,
    adagrad_step,
    adam_step,
    adamnc_step,
    hb_step,
    memsgd_p_step,
    polyadam_step,
    sgd_step,
    unbiased_hb_step,
)
from memgrad.theory import hb_sum_expand


def fresh(x0):
    return OptimizerState.initial(np.asarray(x0, dtype=float))


class TestSgd:
    def test_zero_gradient_is_identity(self):
        s = fresh([1.0, -3.0])
        s2 = sgd_step(s, np.zeros(2), eta=0.1)
        np.testing.assert_array_equal(s2.x, s.x)
        assert s2.k == 1

    def test_arithmetic(self):
        s = fresh([1.0, 1.0])
        s2 = sgd_step(s, np.array([2.0, 1.0]), eta=0.5)
        np.testing.assert_array_equal(s2.x, [0.0, 0.5])

    def test_quadratic_contraction(self):
        # f = 0.5 x^2, grad = x, eta = 0.1: x_k = 0.9**k x_0.
        s = fresh([1.0])
        for _ in range(10):
            s = sgd_step(s, s.x, eta=0.1)
        np.testing.assert_allclose(s.x, [0.9**10], rtol=1e-14)

    def test_rejects_nonfinite_gradient(self):
        with pytest.raises(NonFiniteGradientError):
            sgd_step(fresh([0.0]), np.array([np.nan]), eta=0.1)


class TestHeavyBall:
    def test_beta_zero_equals_sgd(self):
        rng = np.random.default_rng(0)
        s_hb, s_gd = fresh([1.0, 2.0]), fresh([1.0, 2.0])
        for _ in range(20):
            g = rng.normal(size=2)
            s_hb = hb_step(s_hb, g, eta=0.05, beta=0.0)
            s_gd = sgd_step(s_gd, g, eta=0.05)
            np.testing.assert_array_equal(s_hb.x, s_gd.x)

    def test_first_step_is_plain_gradient(self):
        s = fresh([2.0])
        s2 = hb_step(s, np.array([1.0]), eta=0.1, beta=0.9)
        np.testing.assert_array_equal(s2.x, [2.0 - 0.1])

    def test_matches_weighted_sum_expansion(self):
        # Iterated recursion against the from-scratch expansion, random
        # momentum schedules and gradient sequences.
        rng = np.random.default_rng(42)
        for _ in range(50):
            k = int(rng.integers(1, 51))
            betas = rng.uniform(0.0, 1.0, size=k + 1)
            grads = rng.normal(size=(k + 1, 3))
            eta = rng.uniform(0.01, 0.3)
            x0 = rng.normal(size=3)
            s = fresh(x0)
            for i in range(k + 1):
                s = hb_step(s, grads[i], eta=eta, beta=betas[i])
            expanded = hb_sum_expand(betas, eta, grads, x0)
            np.testing.assert_allclose(s.x, expanded, rtol=0, atol=1e-12)


class TestMemsgd:
    def test_first_step_full_gradient(self):
        s = fresh([1.0])
        s2 = memsgd_p_step(s, np.array([0.5]), eta=0.2, p=3.0)
        np.testing.assert_array_equal(s2.x, [1.0 - 0.2 * 0.5])

    def test_second_step_weights(self):
        # p=2, eta=1, unit gradients: the second displacement is
        # -(1/3) g0 - (2/3) g1 = -1.
        s = fresh([0.0])
        s = memsgd_p_step(s, np.array([1.0]), eta=1.0, p=2.0)
        x1 = s.x.copy()
        s = memsgd_p_step(s, np.array([1.0]), eta=1.0, p=2.0)
        np.testing.assert_allclose(s.x - x1, [-1.0], rtol=1e-15)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 2.5])
    def test_iterates_match_weight_schedule(self, p):
        rng = np.random.default_rng(7)
        grads = rng.normal(size=(201, 2))
        eta = 0.05
        s = fresh(rng.normal(size=2))
        xs = [s.x.copy()]
        for g in grads:
            s = memsgd_p_step(s, g, eta=eta, p=p, allow_small_p=True)
            xs.append(s.x.copy())
        for k in (0, 1, 5, 50, 200):
            w = discrete_weights_memsgd(p, k, allow_small_p=True)
            expected_step = -eta * (w[:, None] * grads[: k + 1]).sum(axis=0)
            np.testing.assert_allclose(
                xs[k + 1] - xs[k], expected_step, rtol=0, atol=1e-12
            )

    def test_constant_gradient_unbiased(self):
        g = np.array([0.3, -0.7])
        s = fresh([0.0, 0.0])
        for _ in range(40):
            x_old = s.x.copy()
            s = memsgd_p_step(s, g, eta=0.1, p=2.0)
            np.testing.assert_allclose(s.x - x_old, -0.1 * g, rtol=1e-12)

    def test_stepsize_warning(self):
        s = fresh([1.0])
        with pytest.warns(RuntimeWarning):
            memsgd_p_step(s, np.array([1.0]), eta=1.0, p=2.0, lipschitz=1.0)

    def test_stability_under_guaranteed_stepsize(self):
        # f = 0.5 ||x||^2 (L = 1), eta = (p-1)/(pL).  Momentum overshoot
        # makes f oscillate locally, so pointwise descent is not available;
        # what the stepsize condition does guarantee is that every iterate
        # stays under the decaying rate envelope (and in particular below
        # the starting value).
        from memgrad.theory import memsgd_rate_bound

        for p in (2.0, 3.0):
            eta = (p - 1.0) / p
            s = fresh([1.0, -2.0])
            dist2 = float(np.sum(s.x**2))
            f0 = 0.5 * dist2
            for _ in range(300):
                s = memsgd_p_step(s, s.x, eta=eta, p=p, lipschitz=1.0)
                f = 0.5 * np.sum(s.x**2)
                bound = memsgd_rate_bound(p, eta, s.k, 2, 0.0, dist2)
                assert f <= bound + 1e-15
                assert f <= f0

    def test_small_p_gate(self):
        with pytest.raises(ValueError):
            memsgd_p_step(fresh([1.0]), np.array([1.0]), eta=0.1, p=1.5)


class TestUnbiasedHeavyBall:
    def test_first_step_has_unit_correction(self):
        s = fresh([1.0])
        s2 = unbiased_hb_step(s, np.array([2.0]), eta=0.1, beta=0.9)
        np.testing.assert_allclose(s2.x, [1.0 - 0.2], rtol=1e-15)

    def test_constant_gradient_direction(self):
        g = np.array([1.5, -0.5])
        s = fresh([0.0, 0.0])
        for _ in range(50):
            x_old = s.x.copy()
            s = unbiased_hb_step(s, g, eta=0.2, beta=0.9)
            np.testing.assert_allclose(s.x - x_old, -0.2 * g, rtol=1e-12)

    def test_exact_mode_matches_normalized_sum_expansion(self):
        # Independent oracle: at every k the iterate must satisfy
        # x_{k+1} = x_k - eta (1-beta)/(1-beta**(k+1)) sum_j beta**(k-j) g_j
        # with the sum rebuilt from the stored gradients each time.
        rng = np.random.default_rng(77)
        beta, eta = 0.9, 0.05
        grads = rng.normal(size=(120, 3))
        s = fresh(rng.normal(size=3))
        xs = [s.x.copy()]
        for g in grads:
            s = unbiased_hb_step(s, g, eta=eta, beta=beta)
            xs.append(s.x.copy())
        for k in range(len(grads)):
            powers = beta ** np.arange(k, -1, -1, dtype=float)
            normalized = (1 - beta) / (1 - beta ** (k + 1))
            expected = -eta * normalized * (powers[:, None] * grads[: k + 1]).sum(axis=0)
            np.testing.assert_allclose(xs[k + 1] - xs[k], expected, rtol=0,
                                       atol=1e-12)

    def test_modes_agree_for_large_k(self):
        # On f = 0.5 x^2 the two modes differ only while beta**(k+1) is
        # non-negligible; past that the trajectories coalesce.
        se, sa = fresh([0.01]), fresh([0.01])
        for k in range(500):
            se = unbiased_hb_step(se, se.x, eta=0.1, beta=0.9, mode="exact")
            sa = unbiased_hb_step(sa, sa.x, eta=0.1, beta=0.9, mode="asymptotic")
            if k >= 200:
                assert abs(se.x[0] - sa.x[0]) < 1e-6


class TestAdam:
    def test_zero_gradient_is_identity(self):
        s = fresh([1.0, 2.0])
        s2 = adam_step(s, np.zeros(2), eta=0.1)
        np.testing.assert_array_equal(s2.x, s.x)
        np.testing.assert_array_equal(s2.m1, np.zeros(2))
        np.testing.assert_array_equal(s2.m2, np.zeros(2))

    def test_constant_gradient_step(self):
        c, eta, eps = 0.3, 0.01, 1e-8
        g = np.array([c])
        s = fresh([5.0])
        for _ in range(30):
            x_old = s.x.copy()
            s = adam_step(s, g, eta=eta, beta1=0.9, beta2=0.999, eps=eps)
            np.testing.assert_allclose(
                s.x - x_old, [-eta * c / np.sqrt(c * c + eps)], rtol=1e-12
            )

    def test_bias_corrected_first_moment_identity(self):
        # Under constant gradients the corrected first moment equals the
        # gradient at every step.
        g = np.array([0.7, -1.3])
        s = fresh([0.0, 0.0])
        for k in range(200):
            s = adam_step(s, g, eta=0.1, beta1=0.9, beta2=0.999)
            mhat = s.m1 / (1.0 - 0.9 ** s.k)
            np.testing.assert_allclose(mhat, g, rtol=0, atol=1e-12)

    def test_memoryless_limit_is_sign_step(self):
        s = fresh([1.0, -1.0])
        g = np.array([0.5, -2.0])
        s2 = adam_step(s, g, eta=0.1, beta1=0.0, beta2=0.0, eps=1e-16)
        np.testing.assert_allclose(s2.x - s.x, -0.1 * np.sign(g), rtol=1e-7)

    def test_eps_placement_switch(self):
        g = np.array([1.0])
        inside = adam_step(fresh([0.0]), g, eta=1.0, beta1=0.0, beta2=0.0, eps=1e-2)
        outside = adam_step(
            fresh([0.0]), g, eta=1.0, beta1=0.0, beta2=0.0, eps=1e-2,
            eps_outside_root=True,
        )
        np.testing.assert_allclose(inside.x, [-1.0 / np.sqrt(1.01)], rtol=1e-14)
        np.testing.assert_allclose(outside.x, [-1.0 / 1.01], rtol=1e-14)

    def test_rejects_overflowing_step(self):
        # The gradient is finite; the step from 1e308 by about 1e308 is not.
        with np.errstate(over="ignore"), pytest.raises(NonFiniteGradientError):
            adam_step(fresh([1e308]), np.array([-1.0]), eta=1e308)


class TestAdagrad:
    def test_first_step(self):
        s = fresh([1.0])
        s2 = adagrad_step(s, np.array([1.0]), eta=0.5, eps=1e-8)
        np.testing.assert_allclose(s2.x, [1.0 - 0.5 / np.sqrt(1.0 + 1e-8)], rtol=1e-14)

    def test_constant_gradient_decay(self):
        g = np.array([2.0])
        s = fresh([0.0])
        steps = []
        for _ in range(100):
            x_old = s.x.copy()
            s = adagrad_step(s, g, eta=1.0, eps=1e-12)
            steps.append(abs((s.x - x_old)[0]))
        ks = np.arange(1, 101)
        np.testing.assert_allclose(steps, 1.0 / np.sqrt(ks), rtol=1e-6)

    def test_zero_gradient_is_identity(self):
        s = fresh([3.0])
        s2 = adagrad_step(s, np.zeros(1), eta=0.1)
        np.testing.assert_array_equal(s2.x, s.x)


class TestAdamNC:
    def test_first_step_second_moment(self):
        s = fresh([0.0])
        s2 = adamnc_step(s, np.array([3.0]), eta=0.1)
        np.testing.assert_array_equal(s2.m2, [9.0])

    def test_running_average_of_squares(self):
        rng = np.random.default_rng(9)
        grads = rng.normal(size=(50, 2))
        s = fresh([0.0, 0.0])
        for i, g in enumerate(grads):
            s = adamnc_step(s, g, eta=0.1)
            np.testing.assert_allclose(
                s.m2, (grads[: i + 1] ** 2).mean(axis=0), rtol=1e-12
            )

    def test_zero_gradient_is_identity(self):
        s = fresh([1.0])
        s2 = adamnc_step(s, np.zeros(1), eta=0.1)
        np.testing.assert_array_equal(s2.x, s.x)


class TestPolyAdam:
    def test_constant_gradient(self):
        c, eta, eps = 0.8, 0.05, 1e-8
        g = np.array([c])
        s = fresh([1.0])
        for _ in range(40):
            x_old = s.x.copy()
            s = polyadam_step(s, g, eta=eta, beta1=0.9, p2=2.0, eps=eps)
            np.testing.assert_allclose(s.m2, [c * c], rtol=1e-12)
            np.testing.assert_allclose(
                s.x - x_old, [-eta * c / np.sqrt(c * c + eps)], rtol=1e-12
            )

    @pytest.mark.parametrize("p2", [2.0, 4.0, 100.0])
    def test_recursion_matches_explicit_weighted_sum(self, p2):
        rng = np.random.default_rng(21)
        grads = rng.normal(size=(201, 2))
        s = fresh([0.0, 0.0])
        for k, g in enumerate(grads):
            s = polyadam_step(s, g, eta=0.01, beta1=0.9, p2=p2)
            w = discrete_weights_memsgd(p2, k)
            explicit = (w[:, None] * grads[: k + 1] ** 2).sum(axis=0)
            np.testing.assert_allclose(s.m2, explicit, rtol=0, atol=1e-12)

    def test_large_degree_favors_recent(self):
        w = discrete_weights_memsgd(100.0, 100)
        np.testing.assert_allclose(w[-1], 0.5, rtol=1e-12)

    def test_small_degree_gate(self):
        with pytest.raises(ValueError):
            polyadam_step(fresh([0.0]), np.array([1.0]), eta=0.1, beta1=0.9, p2=1.2)


class TestDeterminismAndReports:
    def test_steppers_bit_identical(self):
        rng = np.random.default_rng(33)
        g = rng.normal(size=4)
        s = fresh(rng.normal(size=4))
        for step in (
            lambda st: sgd_step(st, g, 0.1),
            lambda st: hb_step(st, g, 0.1, 0.8),
            lambda st: memsgd_p_step(st, g, 0.1, 3.0),
            lambda st: unbiased_hb_step(st, g, 0.1, 0.9),
            lambda st: adam_step(st, g, 0.1),
            lambda st: adagrad_step(st, g, 0.1),
            lambda st: adamnc_step(st, g, 0.1),
            lambda st: polyadam_step(st, g, 0.1, 0.9, p2=2.0),
        ):
            a, b = step(s), step(s)
            np.testing.assert_array_equal(a.x, b.x)

    def test_initial_state_convention(self):
        s = fresh([1.0, 2.0])
        np.testing.assert_array_equal(s.x, s.x_prev)
        assert s.k == 0
        assert np.all(s.m2 >= 0.0)
