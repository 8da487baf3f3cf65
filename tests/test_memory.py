"""Memory functions, weight schedules, and bias correction."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memgrad import memory
from memgrad.memory import (
    MemoryFunction,
    UnsupportedKindError,
    bias_correction_factor,
    continuous_weight,
    discrete_weights_hb,
    discrete_weights_memsgd,
    memsgd_weight_sums,
    weight_normalization,
)

ALL_CONTINUOUS = [
    MemoryFunction.decaying(),
    MemoryFunction.constant(),
    MemoryFunction.square_root(),
    MemoryFunction.linear(),
    MemoryFunction.quadratic(),
    MemoryFunction.polynomial(4.0),
    MemoryFunction.exponential(1.0),
    MemoryFunction.super_exponential(1.2),
]


class TestMemoryFunctionTable:
    def test_m_zero_is_zero(self):
        for mf in ALL_CONTINUOUS:
            assert mf.value(0.0) == 0.0

    def test_table_values(self):
        assert MemoryFunction.polynomial(3).value(0.0) == 0.0
        np.testing.assert_allclose(
            MemoryFunction.exponential(1.0).value(math.log(2.0)), 1.0, rtol=1e-14
        )
        np.testing.assert_allclose(
            MemoryFunction.decaying().value(math.e - 1.0), 1.0, rtol=1e-14
        )

    def test_strictly_increasing_and_nonnegative(self):
        ts = np.geomspace(1e-6, 50.0, 400)
        for mf in ALL_CONTINUOUS:
            vals = mf.value(ts)
            assert np.all(vals >= 0.0)
            assert np.all(np.diff(vals) > 0.0)

    def test_instantaneous_has_no_memory_function(self):
        inst = MemoryFunction.instantaneous()
        with pytest.raises(UnsupportedKindError):
            inst.value(1.0)
        with pytest.raises(UnsupportedKindError):
            inst.ode_coefficient(1.0)


class TestOdeCoefficient:
    def test_quadratic_forgetting_is_3_over_t(self):
        assert MemoryFunction.quadratic().ode_coefficient(1.0) == 3.0
        np.testing.assert_allclose(
            MemoryFunction.quadratic().ode_coefficient(2.5), 3.0 / 2.5, rtol=1e-15
        )

    def test_polynomial_at_t_equal_p(self):
        for p in (2.0, 3.0, 7.5):
            np.testing.assert_allclose(
                MemoryFunction.polynomial(p).ode_coefficient(p), 1.0, rtol=1e-15
            )

    def test_exponential_converges_to_alpha(self):
        np.testing.assert_allclose(
            MemoryFunction.exponential(10.0).ode_coefficient(10.0), 10.0, rtol=1e-12
        )

    def test_matches_derivative_over_value(self):
        # Identity m'(t)/m(t) must hold against the separate accessors
        # wherever m(t) itself stays within range.
        ts = np.geomspace(1e-3, 30.0, 200)
        for mf in ALL_CONTINUOUS:
            direct = mf.ode_coefficient(ts)
            ratio = mf.derivative(ts) / mf.value(ts)
            np.testing.assert_allclose(direct, ratio, rtol=1e-12)


class TestContinuousWeights:
    def test_linear_forgetting_weight_formula(self):
        mf = MemoryFunction.linear()
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = rng.uniform(0.1, 20.0)
            s = rng.uniform(0.0, t)
            np.testing.assert_allclose(
                continuous_weight(mf, s, t), 2.0 * s / t**2, rtol=1e-13
            )

    def test_weight_at_s_equal_t_is_ode_coefficient(self):
        mf = MemoryFunction.quadratic()
        for t in (0.5, 1.0, 4.0):
            np.testing.assert_allclose(
                continuous_weight(mf, t, t), 3.0 / t, rtol=1e-13
            )

    def test_exponential_weight_at_zero(self):
        alpha = 1.7
        mf = MemoryFunction.exponential(alpha)
        for t in (0.5, 2.0, 10.0):
            np.testing.assert_allclose(
                continuous_weight(mf, 0.0, t),
                alpha / (math.exp(alpha * t) - 1.0),
                rtol=1e-12,
            )

    def test_linear_quadrature_normalizes(self):
        np.testing.assert_allclose(
            weight_normalization(MemoryFunction.linear(), 3.0), 1.0, atol=1e-10
        )

    def test_normalization_all_kinds(self):
        # Weights must integrate to one for every kind and a wide time range.
        for mf in ALL_CONTINUOUS:
            for t in (0.1, 1.0, 10.0, 100.0):
                total = weight_normalization(mf, t)
                assert abs(total - 1.0) < 1e-8, (mf, t, total)


def per_call_normalization(mf, t):
    """weight_normalization with its mesh built afresh and m' taken at a, mid, b."""
    eps, half = memory.NORMALIZATION_EPS, memory.NORMALIZATION_PANELS // 2
    nodes = np.union1d(np.geomspace(eps, t, half + 1), np.linspace(eps, t, half + 1))
    a, b = nodes[:-1], nodes[1:]
    mid = 0.5 * (a + b)
    integral = np.sum((b - a) / 6.0 * (mf.derivative(a) + 4.0 * mf.derivative(mid)
                                       + mf.derivative(b)))
    return float(integral / mf.value(t))


def test_cached_mesh_normalization_matches_a_per_call_mesh():
    # Every kind that verify and criterion 1 integrate, at their four times,
    # each t reused across kinds from the mesh cache.
    for mf in ALL_CONTINUOUS:
        for t in (0.1, 1.0, 10.0, 100.0):
            assert weight_normalization(mf, t) == per_call_normalization(mf, t), (mf, t)
    with pytest.raises(ValueError, match="read-only"):
        memory._normalization_mesh(1.0)[0] = 0.5


class TestMemsgdWeights:
    def test_first_step_is_plain_gradient(self):
        np.testing.assert_array_equal(discrete_weights_memsgd(2.0, 0), [1.0])

    def test_second_step_weights(self):
        np.testing.assert_allclose(
            discrete_weights_memsgd(2.0, 1), [1.0 / 3.0, 2.0 / 3.0], rtol=1e-15
        )

    def test_last_weight_closed_form(self):
        for p in (2.0, 3.0, 100.0):
            for k in (1, 10, 500):
                w = discrete_weights_memsgd(p, k)
                np.testing.assert_allclose(w[-1], p / (k + p), rtol=1e-12)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 2.5])
    def test_matches_recursion_unroll(self, p):
        # Oracle: exact-rational unroll of the recursion.  The update
        # x_{k+1} = x_k + k/(k+p) (x_k - x_{k-1}) - p/(k+p) eta g_k means
        # the step weights (in units of -eta) evolve as
        #     w(j, k) = k/(k+p) w(j, k-1) for j < k,   w(k, k) = p/(k+p),
        # maintained with Fractions and compared at every k up to 200.
        pf = Fraction(p).limit_denominator(10**9)
        weights = [Fraction(1)]
        for k in range(201):
            if k > 0:
                shrink = Fraction(k, 1) / (k + pf)
                weights = [w * shrink for w in weights]
                weights.append(pf / (k + pf))
            got = discrete_weights_memsgd(p, k, allow_small_p=True)
            exact = np.array([float(w) for w in weights])
            np.testing.assert_allclose(got, exact, rtol=0, atol=1e-12)

    def test_sums_to_one(self):
        for p in (2.0, 3.0, 4.0, 100.0):
            for k in (0, 1, 10, 1000):
                assert abs(discrete_weights_memsgd(p, k).sum() - 1.0) < 1e-12

    @settings(deadline=None)
    @given(st.floats(min_value=2.0, max_value=200.0))
    def test_sums_to_one_for_real_degrees(self, p):
        assert np.max(np.abs(memsgd_weight_sums(p, 2000) - 1.0)) <= 1e-12

    def test_weight_sums_helper_agrees_with_per_k(self):
        for p in (2.0, 4.0, 100.0):
            sums = memsgd_weight_sums(p, 300)
            for k in (0, 1, 7, 123, 300):
                np.testing.assert_allclose(
                    sums[k], discrete_weights_memsgd(p, k).sum(), rtol=1e-13
                )

    def test_monotone_increasing_in_j(self):
        w = discrete_weights_memsgd(4.0, 10)
        assert np.all(np.diff(w) > 0.0)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_polynomial_growth_rate(self, p):
        # w(j, k) / j**(p-1) settles to a constant over the top decade of j.
        k = 10_000
        w = discrete_weights_memsgd(p, k)
        j = np.arange(k // 10, k + 1)
        ratio = w[j] / j.astype(float) ** (p - 1.0)
        assert ratio.max() / ratio.min() - 1.0 < 0.01

    def test_small_p_rejected_without_override(self):
        with pytest.raises(ValueError):
            discrete_weights_memsgd(1.5, 3)
        w = discrete_weights_memsgd(1.5, 3, allow_small_p=True)
        np.testing.assert_allclose(w.sum(), 1.0, rtol=1e-14)


class TestHeavyBallWeights:
    def test_uncorrected_powers(self):
        np.testing.assert_allclose(
            discrete_weights_hb(0.9, 2), [0.81, 0.9, 1.0], rtol=1e-15
        )

    def test_corrected_sums_to_one(self):
        for beta in (0.1, 0.5, 0.9, 0.999):
            for k in (0, 2, 13, 400):
                w = discrete_weights_hb(beta, k, bias_corrected=True)
                assert abs(w.sum() - 1.0) < 1e-12

    def test_beta_zero_concentrates_on_latest(self):
        w = discrete_weights_hb(0.0, 5, bias_corrected=True)
        np.testing.assert_array_equal(w, [0, 0, 0, 0, 0, 1.0])

    def test_beta_one_rejected(self):
        with pytest.raises(ValueError):
            discrete_weights_hb(1.0, 3)


class TestBiasCorrection:
    def test_first_step_needs_no_correction(self):
        assert bias_correction_factor(0.9, 0) == 1.0

    def test_half_beta_example(self):
        np.testing.assert_allclose(
            bias_correction_factor(0.5, 1), 0.5 / 0.75, rtol=1e-15
        )

    def test_limit_is_one_minus_beta(self):
        # beta**(k+1) underflows for huge k; the factor must land on 1-beta.
        np.testing.assert_allclose(
            bias_correction_factor(0.9, 10**6), 0.1, rtol=1e-12
        )

    def test_reciprocal_of_weight_mass(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            beta = rng.uniform(0.01, 0.99)
            k = int(rng.integers(0, 200))
            mass = discrete_weights_hb(beta, k).sum()
            np.testing.assert_allclose(
                bias_correction_factor(beta, k), 1.0 / mass, rtol=1e-12
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            bias_correction_factor(0.0, 1)
        with pytest.raises(ValueError):
            bias_correction_factor(1.0, 1)
