"""Objectives, declared constants, and gradient-noise models."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from memgrad.harness import PROBLEMS
from memgrad.problems import (
    NoiseModel,
    Objective,
    constant_field,
    empirical_gradient_covariance,
    gradient_variance_bound,
    logistic_synthetic,
    noise_draws,
    quadratic_diag,
    quartic_2d,
    stochastic_gradient,
)

ALL_OBJECTIVES = [
    quadratic_diag([2e-2, 5e-3]),
    quadratic_diag([0.5, 0.5, 0.5]),
    quartic_2d(),
    logistic_synthetic(n=40, dim=4, seed=5, l2=0.05),
]


def central_difference_grad(obj, x, h=1e-6):
    g = np.zeros(obj.dim)
    for i in range(obj.dim):
        e = np.zeros(obj.dim)
        e[i] = h
        g[i] = (obj.value(x + e) - obj.value(x - e)) / (2.0 * h)
    return g


class TestQuadraticDiag:
    def test_reference_constants(self):
        obj = quadratic_diag([2e-2, 5e-3])
        assert obj.L == 4e-2
        assert obj.mu == 1e-2
        np.testing.assert_allclose(obj.value(np.array([1.0, 1.0])), 0.025)
        assert obj.f_star == 0.0

    def test_identity_hessian_case(self):
        obj = quadratic_diag([0.5, 0.5])
        x = np.array([3.0, -4.0])
        np.testing.assert_allclose(obj.value(x), 0.5 * np.sum(x**2))
        np.testing.assert_array_equal(obj.grad(x), x)

    def test_gradient_vanishes_at_optimum(self):
        obj = quadratic_diag([2e-2, 5e-3])
        assert np.linalg.norm(obj.grad(obj.x_star)) <= 1e-10

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            quadratic_diag([1.0, -0.1])


class TestQuartic:
    def test_value_and_gradient(self):
        obj = quartic_2d()
        np.testing.assert_allclose(obj.value(np.array([1.0, 1.0])), 1.2)
        np.testing.assert_allclose(obj.grad(np.array([1.0, 1.0])), [3.2, 1.6])
        np.testing.assert_array_equal(obj.grad(np.zeros(2)), [0.0, 0.0])

    def test_box_restricted_smoothness(self):
        # L is declared on [-2, 2]^2 from the max Hessian eigenvalue there.
        obj = quartic_2d()
        assert obj.L == 12.0 * 0.8 * 4.0


class TestConstantField:
    def test_gradient_everywhere(self):
        obj = constant_field([1.0])
        for x in ([0.0], [100.0], [-3.5]):
            np.testing.assert_array_equal(obj.grad(np.array(x)), [1.0])

    def test_zero_field_is_stationary(self):
        obj = constant_field([0.0, 0.0])
        np.testing.assert_array_equal(obj.grad(np.array([5.0, 5.0])), [0.0, 0.0])

    def test_linear_value_differences(self):
        c = np.array([2.0, -1.0])
        obj = constant_field(c)
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=2), rng.normal(size=2)
        np.testing.assert_allclose(
            obj.value(x) - obj.value(y), float(c @ (x - y)), rtol=1e-12
        )

    def test_no_declared_optimum(self):
        obj = constant_field([1.0])
        assert obj.f_star is None
        with pytest.raises(ValueError):
            obj.f_gap(np.array([0.0]))


class TestLogisticSynthetic:
    def test_regularizer_declares_strong_convexity(self):
        obj = logistic_synthetic(n=30, dim=3, seed=0, l2=0.2)
        assert obj.mu == 0.2
        assert logistic_synthetic(n=30, dim=3, seed=0).mu is None

    def test_full_gradient_is_component_mean(self):
        obj = logistic_synthetic(n=25, dim=4, seed=3, l2=0.01)
        rng = np.random.default_rng(2)
        for _ in range(5):
            w = rng.normal(size=4)
            mean_component = np.mean(
                [obj.grad_component(i, w) for i in range(obj.n_components)], axis=0
            )
            np.testing.assert_allclose(obj.grad(w), mean_component, atol=1e-12)

    def test_gradient_norm_at_found_optimum(self):
        # Oracle: a long deterministic gradient-descent run.
        obj = logistic_synthetic(n=60, dim=5, seed=11, l2=0.1)
        w = np.zeros(5)
        eta = 1.0 / obj.L
        for _ in range(5000):
            w = w - eta * obj.grad(w)
        assert np.linalg.norm(obj.grad(w)) <= 1e-8

    @pytest.mark.parametrize("l2", [0.0, 0.5])
    def test_component_weight_is_zero_where_exp_overflows(self, l2):
        # math.exp overflows once the margin passes about 709.78, where the
        # weight 1 / (1 + e^margin) is 0.0 in floating point: the component
        # gradient is then l2 w alone.  Below that it keeps the formula's bits.
        obj = logistic_synthetic(n=20, dim=5, seed=0, l2=l2)
        for i in range(obj.n_components):
            ya = -2.0 * obj.grad_component(i, np.zeros(5))  # y_i a_i, exactly
            for margin in (-50.0, 0.0, 700.0, 709.7, 709.8, 710.0, 1e5, 1e300):
                w = margin * ya / ya.dot(ya)
                got = obj.grad_component(i, w)
                try:
                    want = -ya / (1.0 + math.exp(np.dot(ya, w))) + l2 * w
                except OverflowError:
                    want = l2 * w
                    assert margin > 709.78
                np.testing.assert_array_equal(got, want)

    def test_reproducible_from_seed(self):
        a = logistic_synthetic(n=20, dim=3, seed=7)
        b = logistic_synthetic(n=20, dim=3, seed=7)
        w = np.ones(3)
        np.testing.assert_array_equal(a.grad(w), b.grad(w))

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_smoothness_constant_is_the_full_matrix_reduction(self, seed):
        # At the benchmark's size; the stepsize threshold (p-1)/(pL) must not
        # move by an ulp.  At w = 0 each component gradient is -y_i a_i / 2.
        n, dim, l2 = 400, 5000, 0.1
        obj = logistic_synthetic(n=n, dim=dim, seed=seed, l2=l2)
        zero = np.zeros(dim)
        F = np.stack([2.0 * obj.grad_component(i, zero) for i in range(n)])
        assert obj.L == float(np.max(np.sum(F**2, axis=1))) / 4.0 + l2

    def test_build_holds_one_copy_of_the_design_matrix(self):
        matrix_bytes = 400 * 5000 * 8
        tracemalloc.start()
        try:
            logistic_synthetic(n=400, dim=5000, seed=1, l2=0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * matrix_bytes


# Draws one objective per problem name, given the dimension and data.
FINITE = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
BUILDERS = {
    "quadratic_diag": lambda data, d: quadratic_diag(
        data.draw(st.lists(st.floats(0.0, 10.0), min_size=d, max_size=d))),
    "quartic_2d": lambda data, d: quartic_2d(),
    "constant_field": lambda data, d: constant_field(
        data.draw(st.lists(FINITE, min_size=d, max_size=d))),
    "logistic_synthetic": lambda data, d: logistic_synthetic(
        n=data.draw(st.integers(1, 30)), dim=d, seed=data.draw(st.integers(0, 99)),
        l2=data.draw(st.floats(0.0, 1.0))),
}


def within_ulps(a, b, n_ulp=4):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= n_ulp * np.spacing(np.maximum(abs(a), abs(b)))))


def signed_sum_scales(name, obj, x):
    """Size of the signed terms that value and grad add up at x, or None.

    BLAS orders such sums differently for a batch (GEMM) than for one point
    (GEMV, dot), so where they cancel a row can miss the single point by
    many ulp; those rows are held to 1e-12 of the terms' size instead.
    """
    if name == "constant_field":
        return float(np.abs(x) @ np.abs(obj.grad(x))), 0.0
    if name == "logistic_synthetic":
        terms = [np.abs(obj.grad_component(i, x)) for i in range(obj.n_components)]
        return 0.0, np.mean(terms, axis=0)
    return None


class TestBroadcastContract:
    def test_every_problem_has_a_builder(self):
        assert set(BUILDERS) == set(PROBLEMS)

    @pytest.mark.parametrize("name", PROBLEMS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rows_match_single_points(self, name, data):
        d = 2 if name == "quartic_2d" else data.draw(st.integers(1, 6))
        obj = BUILDERS[name](data, d)
        n = data.draw(st.integers(1, 8))
        X = data.draw(hnp.arrays(np.float64, (n, d), elements=FINITE))
        values = obj.value(X)
        grads = np.broadcast_to(obj.grad(X), X.shape)
        assert values.shape == (n,)
        for row, value, grad in zip(X, values, grads):
            scales = signed_sum_scales(name, obj, row)
            if scales is None:
                assert within_ulps(value, obj.value(row)), (row, value)
                assert within_ulps(grad, obj.grad(row)), (row, grad)
            else:
                for got, single, scale in zip((value, grad), (obj.value(row), obj.grad(row)),
                                              scales):
                    assert np.all(abs(got - single) <= 1e-12 * (abs(single) + scale)), row

    @settings(max_examples=200, deadline=None)
    @given(x=hnp.arrays(np.float64, 2, elements=st.floats(-1e3, 1e3)))
    def test_quartic_single_point_is_the_scalar_formula(self, x):
        obj = quartic_2d()
        assert obj.value(x) == 0.8 * x[0] ** 4 + 0.4 * x[1] ** 4
        np.testing.assert_array_equal(obj.grad(x),
                                      np.array([3.2 * x[0] ** 3, 1.6 * x[1] ** 3]))


class TestDeclaredConstants:
    @pytest.mark.parametrize("obj", ALL_OBJECTIVES, ids=lambda o: o.name)
    def test_finite_difference_gradients(self, obj):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            x = rng.uniform(-1.5, 1.5, size=obj.dim)
            numeric = central_difference_grad(obj, x)
            analytic = obj.grad(x)
            np.testing.assert_allclose(
                analytic, numeric, rtol=1e-5, atol=1e-7
            )

    @pytest.mark.parametrize(
        "obj", [o for o in ALL_OBJECTIVES if o.L is not None], ids=lambda o: o.name
    )
    def test_secant_smoothness(self, obj):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            x = rng.uniform(-2.0, 2.0, size=obj.dim)
            y = rng.uniform(-2.0, 2.0, size=obj.dim)
            lhs = np.linalg.norm(obj.grad(x) - obj.grad(y))
            assert lhs <= (obj.L + 1e-6) * np.linalg.norm(x - y)

    @pytest.mark.parametrize(
        "obj",
        [o for o in ALL_OBJECTIVES if o.mu is not None and o.x_star is not None],
        ids=lambda o: o.name,
    )
    def test_quadratic_growth(self, obj):
        rng = np.random.default_rng(29)
        for _ in range(200):
            x = rng.uniform(-2.0, 2.0, size=obj.dim)
            gap = obj.value(x) - obj.f_star
            assert gap >= 0.5 * obj.mu * np.sum((x - obj.x_star) ** 2) - 1e-12


class TestStochasticGradient:
    def test_none_and_zero_sigma_are_exact(self):
        obj = quadratic_diag([0.5, 0.5])
        rng = np.random.default_rng(0)
        x = np.array([1.0, -1.0])
        np.testing.assert_array_equal(
            stochastic_gradient(obj, NoiseModel("none"), x, rng), obj.grad(x)
        )
        np.testing.assert_array_equal(
            stochastic_gradient(obj, NoiseModel("gaussian", sigma=0.0), x, rng),
            obj.grad(x),
        )

    def test_gaussian_sample_mean(self):
        obj = quadratic_diag([0.5, 0.5])
        noise = NoiseModel("gaussian", sigma=0.5)
        rng = np.random.default_rng(101)
        x = np.array([0.3, -0.2])
        n = 10**5
        total = np.zeros(2)
        for _ in range(n):
            total += stochastic_gradient(obj, noise, x, rng)
        mean = total / n
        np.testing.assert_allclose(
            mean, obj.grad(x), atol=5.0 * 0.5 / np.sqrt(n)
        )

    def test_gaussian_empirical_covariance(self):
        obj = constant_field([0.0, 0.0])
        sigma = np.array([[0.4, 0.1], [0.1, 0.3]])
        noise = NoiseModel("gaussian", sigma=sigma)
        rng = np.random.default_rng(7)
        n = 10**5
        draws = np.empty((n, 2))
        x = np.zeros(2)
        for i in range(n):
            draws[i] = stochastic_gradient(obj, noise, x, rng)
        emp = draws.T @ draws / n
        target = sigma @ sigma.T
        rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
        assert rel < 0.05

    def test_finite_sum_sampling_unbiased(self):
        obj = logistic_synthetic(n=15, dim=3, seed=1, l2=0.0)
        noise = NoiseModel("finite_sum")
        rng = np.random.default_rng(4)
        w = np.array([0.1, -0.2, 0.3])
        draws = np.mean(
            [stochastic_gradient(obj, noise, w, rng) for _ in range(20000)], axis=0
        )
        np.testing.assert_allclose(draws, obj.grad(w), atol=0.05)


    @settings(deadline=None, max_examples=50)
    @given(kind=st.sampled_from(["none", "scalar", "matrix", "finite_sum"]),
           seed=st.integers(0, 2**64 - 1), d=st.integers(1, 5), steps=st.integers(0, 30),
           block=st.integers(1, 12))
    def test_block_draws_give_the_per_step_gradients(self, kind, seed, d, steps, block):
        # A block of draws crosses block boundaries at every step count, and
        # each step gets the bits of a gradient drawn alone from the stream.
        sigma = np.random.default_rng(d).standard_normal((d, d))
        obj, noise = {
            "none": (quadratic_diag(np.ones(d)), NoiseModel("none")),
            "scalar": (quadratic_diag(np.ones(d)), NoiseModel("gaussian", sigma=0.3)),
            "matrix": (quadratic_diag(np.ones(d)), NoiseModel("gaussian", sigma=sigma)),
            "finite_sum": (logistic_synthetic(n=7, dim=d, seed=0), NoiseModel("finite_sum")),
        }[kind]
        x = np.linspace(-1.0, 1.0, d)
        rng = np.random.Generator(np.random.Philox(seed))
        alone = [stochastic_gradient(obj, noise, x, rng) for _ in range(steps)]
        draws = noise_draws(obj, noise, np.random.Generator(np.random.Philox(seed)), steps,
                            block)
        blocked = [stochastic_gradient(obj, noise, x, draw) for draw in draws]
        assert [g.tobytes() for g in blocked] == [g.tobytes() for g in alone]


class TestCovarianceHelpers:
    def test_gradient_variance_bound(self):
        obj = logistic_synthetic(n=30, dim=3, seed=9, l2=0.01)
        rng = np.random.default_rng(13)
        xs = rng.normal(size=(5, 3))
        bound, x_used = gradient_variance_bound(obj, xs)
        assert bound > 0.0
        cov = empirical_gradient_covariance(obj, x_used)
        np.testing.assert_allclose(bound, np.max(np.linalg.eigvalsh(cov)), rtol=1e-12)


class TestNoiseModelValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel("pink")

    def test_gaussian_needs_sigma(self):
        with pytest.raises(ValueError):
            NoiseModel("gaussian")
