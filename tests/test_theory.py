"""Bound formulas, the optimal-viscosity split, and expansion oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from memgrad.theory import (
    BoundSpec,
    exp_cesaro_bound,
    gamma_star,
    hb_sum_expand,
    memsgd_rate_bound,
    optimal_viscosity,
    poly_continuous_bound,
    poly_memory_ode_series,
    strongly_convex_bound,
    variance_reduction_factor,
)


class TestMemsgdRateBound:
    def test_arithmetic(self):
        np.testing.assert_allclose(
            memsgd_rate_bound(p=2, eta=1.0, k=1, d=3, varsigma2=0.0, dist2=1.0),
            0.125,
        )

    def test_noise_free_limit_vanishes(self):
        val = memsgd_rate_bound(p=2, eta=0.5, k=10**9, d=2, varsigma2=0.0, dist2=1.0)
        assert val < 1e-8

    def test_ball_proportional_to_p(self):
        b2 = memsgd_rate_bound(p=2, eta=0.1, k=10**12, d=4, varsigma2=1.0, dist2=0.0)
        b4 = memsgd_rate_bound(p=4, eta=0.1, k=10**12, d=4, varsigma2=1.0, dist2=0.0)
        np.testing.assert_allclose(b4, 2.0 * b2, rtol=1e-12)

    def test_small_p_rejected(self):
        with pytest.raises(ValueError):
            memsgd_rate_bound(p=1.5, eta=0.1, k=3, d=1, varsigma2=0.0, dist2=1.0)


class TestPolyContinuousBound:
    def test_arithmetic(self):
        np.testing.assert_allclose(
            poly_continuous_bound(p=2, t=1.0, d=1, sigma2=0.0, dist2=1.0), 0.25
        )

    def test_ball_term(self):
        np.testing.assert_allclose(
            poly_continuous_bound(p=2, t=10**12, d=2, sigma2=1.0, dist2=0.0), 2.0
        )

    def test_decreasing_in_t(self):
        ts = np.linspace(0.5, 50, 100)
        vals = [poly_continuous_bound(2.5, t, 3, 0.3, 2.0) for t in ts]
        assert np.all(np.diff(vals) < 0.0)


class TestExpCesaroBound:
    def test_arithmetic(self):
        np.testing.assert_allclose(
            exp_cesaro_bound(alpha=1.0, t=1.0, d=1, sigma2=0.0, f_gap0=1.0, dist2=1.0),
            1.5,
        )

    def test_ball_independent_of_alpha(self):
        balls = [
            exp_cesaro_bound(alpha=a, t=10**14, d=3, sigma2=0.7, f_gap0=1.0, dist2=1.0)
            for a in (0.1, 1.0, 25.0)
        ]
        np.testing.assert_allclose(balls, 0.5 * 3 * 0.7, rtol=1e-10)

    def test_noise_free_vanishes(self):
        assert exp_cesaro_bound(2.0, 10**12, 2, 0.0, 1.0, 1.0) < 1e-9


def scalar_gamma_star(alpha, tau, mu_tilde):
    """The two branches of gamma_star in Python floats, one input at a time."""
    alpha, tau, mu_tilde = float(alpha), float(tau), float(mu_tilde)
    alpha_max = 0.5 * (tau + 2.0) * math.sqrt(mu_tilde)
    if alpha <= alpha_max:
        return tau * alpha / (tau + 2.0), alpha_max
    r = math.sqrt(mu_tilde) / alpha
    tau_r2 = tau * r * r
    q = 1.0 - 2.0 * tau_r2
    return alpha * tau_r2 / (1.0 + math.sqrt(max(q, 0.0))), alpha_max


class TestGammaStar:
    def test_continuity_at_alpha_max_reference_point(self):
        gamma_lo, alpha_max = gamma_star(1.5, 1.0, 1.0)
        assert alpha_max == 1.5
        np.testing.assert_allclose(gamma_lo, 0.5, rtol=1e-15)
        # Nudging alpha across the split must be continuous.
        gamma_hi, _ = gamma_star(1.5 + 1e-12, 1.0, 1.0)
        assert abs(gamma_hi - gamma_lo) < 1e-11

    def test_branch_continuity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            tau = rng.uniform(0.05, 1.0)
            mu_tilde = rng.uniform(1e-3, 50.0)
            alpha_max = 0.5 * (tau + 2.0) * math.sqrt(mu_tilde)
            g_at, _ = gamma_star(alpha_max, tau, mu_tilde)
            # Evaluate the upper branch formula directly at the split.
            disc = alpha_max**2 - 2.0 * mu_tilde * tau
            g_upper = 0.5 * (alpha_max - math.sqrt(max(disc, 0.0)))
            assert abs(g_at - g_upper) < 1e-12 * max(1.0, g_at)

    @given(st.data())
    def test_never_raises_for_positive_inputs(self, data):
        # Half the draws sit one ulp above the branch split, where the
        # discriminant is closest to zero.
        positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        tau, mu_tilde = data.draw(positive), data.draw(positive)
        edge = float(np.nextafter(0.5 * (tau + 2.0) * math.sqrt(mu_tilde), math.inf))
        if math.isfinite(edge) and data.draw(st.booleans()):
            alpha = edge
        else:
            alpha = data.draw(positive)
        gamma_star(alpha, tau, mu_tilde)

    def test_arrays_match_a_scalar_loop(self):
        rng = np.random.default_rng(5)
        tau = rng.uniform(0.05, 3.0, 400)
        mu_tilde = rng.uniform(1e-3, 50.0, 400)
        alpha_max = 0.5 * (tau + 2.0) * np.sqrt(mu_tilde)
        alpha = alpha_max * rng.uniform(0.5, 2.0, 400)
        alpha[:100] = alpha_max[:100]
        alpha[100:200] = np.nextafter(alpha_max[100:200], math.inf)
        gamma, got_max = gamma_star(alpha, tau, mu_tilde)
        for i in range(400):
            want = scalar_gamma_star(alpha[i], tau[i], mu_tilde[i])
            assert (gamma[i], got_max[i]) == want
            assert gamma_star(float(alpha[i]), tau[i], mu_tilde[i]) == want
            assert type(gamma_star(float(alpha[i]), tau[i], mu_tilde[i])[0]) is float

    def test_specializations(self):
        mu = 0.37
        assert optimal_viscosity("mg", mu) == 9.0 * mu / 4.0
        assert optimal_viscosity("hb", mu) == 1.5 * math.sqrt(mu)
        # Below the split the memory diffusion decays at alpha/3.
        alpha = 0.5 * optimal_viscosity("mg", mu)
        gamma, _ = gamma_star(alpha, 1.0, alpha * mu)
        np.testing.assert_allclose(gamma, alpha / 3.0, rtol=1e-14)
        # Same split rate for the bare-gradient diffusion.
        alpha = 0.5 * optimal_viscosity("hb", mu)
        gamma, _ = gamma_star(alpha, 1.0, mu)
        np.testing.assert_allclose(gamma, alpha / 3.0, rtol=1e-14)


class TestStronglyConvexBound:
    def test_noise_free_exponential_decay(self):
        mu, alpha = 0.8, 1.0
        gamma, _ = gamma_star(alpha, 1.0, alpha * mu)
        b1 = strongly_convex_bound("mg", alpha, mu, 1.0, 2, 0.0, 1.0, 1.0)
        b5 = strongly_convex_bound("mg", alpha, mu, 5.0, 2, 0.0, 1.0, 1.0)
        np.testing.assert_allclose(b5 / b1, math.exp(-gamma * 4.0), rtol=1e-12)

    def test_kinds_differ_only_via_gamma_and_coefficient(self):
        mu, alpha, t = 0.5, 1.2, 2.0
        g_mg, _ = gamma_star(alpha, 1.0, alpha * mu)
        g_hb, _ = gamma_star(alpha, 1.0, mu)
        mg = strongly_convex_bound("mg", alpha, mu, t, 1, 0.3, 1.0, 2.0)
        hb = strongly_convex_bound("hb", alpha, mu, t, 1, 0.3, 1.0, 2.0)
        mg_expected = math.exp(-g_mg * t) * (1.0 + (alpha - g_mg) ** 2 / (2 * alpha) * 2.0) \
            + alpha * 0.3 / (2 * g_mg)
        hb_expected = math.exp(-g_hb * t) * (1.0 + (alpha - g_hb) ** 2 / 2 * 2.0) \
            + alpha * 0.3 / (2 * g_hb)
        np.testing.assert_allclose(mg, mg_expected, rtol=1e-13)
        np.testing.assert_allclose(hb, hb_expected, rtol=1e-13)


class TestHbSumExpand:
    def test_single_step(self):
        x0 = np.array([1.0, -2.0])
        g0 = np.array([0.5, 0.5])
        got = hb_sum_expand([0.9], eta=0.2, grads=[g0], x0=x0)
        np.testing.assert_array_equal(got, x0 - 0.2 * g0)

    def test_constant_inputs_geometric_sums(self):
        beta, eta, k = 0.7, 0.05, 12
        g = np.array([1.0])
        xs = [np.array([0.0])]
        for i in range(k + 1):
            xs.append(hb_sum_expand([beta] * (i + 1), eta, [g] * (i + 1), xs[0]))
        for i in range(1, k + 1):
            step = xs[i + 1] - xs[i]
            expected = -eta * g * (1.0 - beta ** (i + 1)) / (1.0 - beta)
            np.testing.assert_allclose(step, expected, rtol=1e-12)


class TestPolyMemoryOdeSeries:
    def test_matches_the_bessel_form(self):
        # The series is x0 * 0F1(; p; -p lam t), a Bessel function of order p - 1.
        from scipy.special import hyp0f1

        p, lam, x0 = 3.0, np.array([4e-2, 1e-2, 2.5]), np.array([1.0, -2.0, 0.5])
        t = np.linspace(0.0, 4.0, 81)
        got = poly_memory_ode_series(p, lam, t, x0)
        np.testing.assert_allclose(got, x0 * hyp0f1(p, -p * lam * t[:, None]),
                                   rtol=1e-12, atol=1e-14)

    def test_solves_the_memory_ode(self):
        # X'' + (p/t) X' + (p lam/t) X = 0 by central differences, X(0) = x0.
        p, lam, x0, dt = 2.0, np.array([0.3, 1.5]), np.array([1.0, 1.0]), 1e-4
        t = np.array([0.0, 0.5 - dt, 0.5, 0.5 + dt])
        x = poly_memory_ode_series(p, lam, t, x0)
        np.testing.assert_array_equal(x[0], x0)
        d1 = (x[3] - x[1]) / (2 * dt)
        d2 = (x[3] - 2 * x[2] + x[1]) / dt**2
        np.testing.assert_allclose(d2 + p / 0.5 * d1 + p * lam / 0.5 * x[2], 0.0,
                                   atol=1e-6)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            poly_memory_ode_series(0.0, [1.0], [1.0], [1.0])
        with pytest.raises(ValueError):
            poly_memory_ode_series(3.0, [np.inf], [1.0], [1.0])
        with pytest.raises(ValueError):
            poly_memory_ode_series(3.0, [1.0], [40.0], [1.0])


def loop_hb_sum_expand(betas, eta, grads, x0):
    """The expansion evaluated step by step: each step's weighted sum of the
    gradients so far, its weights multiplied out from the newest gradient."""
    x = np.asarray(x0, dtype=float).copy()
    for i in range(len(grads)):
        update = np.asarray(grads[i], dtype=float).copy()
        prod = 1.0
        for j in range(i - 1, -1, -1):
            prod *= betas[j + 1]
            update += prod * grads[j]
        x = x - eta * update
    return x


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_hb_sum_expand_matches_a_per_step_loop(data):
    # |eta g| <= 0.01 keeps |x - x0| <= 61 * 62 / 2 * 0.01 < 20, so 1e-13
    # is a few dozen ulps of the iterate.
    k = data.draw(st.integers(0, 60), label="k")
    betas = data.draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                               min_size=k + 1, max_size=k + 1), label="betas")
    grads = data.draw(hnp.arrays(float, (k + 1, 2), elements=st.floats(-1.0, 1.0)),
                      label="grads")
    eta = data.draw(st.floats(0.0, 0.01), label="eta")
    x0 = data.draw(hnp.arrays(float, 2, elements=st.floats(-1.0, 1.0)), label="x0")
    got = hb_sum_expand(betas, eta, grads, x0)
    want = loop_hb_sum_expand(betas, eta, grads, x0)
    if k == 0:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


class TestVarianceReductionFactor:
    def test_no_reduction_without_momentum(self):
        assert variance_reduction_factor(0.0, 17) == 1.0

    def test_starts_at_one(self):
        assert variance_reduction_factor(0.9, 0) == 1.0

    def test_limit(self):
        np.testing.assert_allclose(
            variance_reduction_factor(0.9, 10**4), 0.1 / 1.9, rtol=1e-10
        )

    def test_monotone_and_bounded(self):
        beta = 0.9
        vals = np.array([variance_reduction_factor(beta, k) for k in range(101)])
        assert np.all(np.diff(vals) <= 0.0)
        assert np.all(vals <= 1.0)
        assert np.all(vals > (1 - beta) / (1 + beta))


class TestBoundSpec:
    def test_dispatch(self):
        spec = BoundSpec("memsgd_discrete", {"p": 2.0, "eta": 1.0, "d": 3, "dist2": 1.0})
        np.testing.assert_allclose(spec.evaluate(1), 0.125)
        spec = BoundSpec("poly_continuous", {"p": 2.0, "d": 1, "dist2": 1.0})
        np.testing.assert_allclose(spec.evaluate(1.0), 0.25)

    def test_rejects_bad_kind_and_params(self):
        with pytest.raises(ValueError):
            BoundSpec("nope", {})
        with pytest.raises(ValueError):
            BoundSpec("poly_continuous", {"p": float("inf")})
        with pytest.raises(ValueError):
            BoundSpec("poly_continuous", {"sigma2": -1.0})

    def test_noise_free_bounds_non_increasing(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            specs = [
                BoundSpec("memsgd_discrete", {
                    "p": rng.uniform(2, 6), "eta": rng.uniform(0.01, 1),
                    "d": 3, "dist2": rng.uniform(0.1, 5), "varsigma2": 0.0,
                }),
                BoundSpec("exp_cesaro", {
                    "alpha": rng.uniform(0.1, 4), "d": 2, "sigma2": 0.0,
                    "f_gap0": rng.uniform(0.1, 2), "dist2": rng.uniform(0.1, 2),
                }),
                BoundSpec("strongly_convex_mg", {
                    "alpha": rng.uniform(0.1, 4), "mu": rng.uniform(0.05, 2),
                    "d": 2, "sigma2": 0.0, "f_gap0": 1.0, "dist2": 1.0,
                }),
            ]
            idx = np.linspace(1.0, 200.0, 64)
            for spec in specs:
                vals = [spec.evaluate(i) for i in idx]
                assert np.all(np.diff(vals) <= 1e-15)
