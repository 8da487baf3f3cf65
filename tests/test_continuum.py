"""Phase-space integrators, velocity-noise laws, and time warps."""

import functools
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from memgrad import continuum
from memgrad.continuum import (
    SUBSTEP_CAP,
    DivergenceError,
    PhaseState,
    SdeSpec,
    grid_times,
    hb_sde,
    integrate_paths,
    integrate_variance_ode,
    ito_isometry_mc,
    memory_sde,
    nesterov_sde,
    sample_paths,
    semi_implicit_euler_step,
    substep_schedule,
    time_warp_tau,
    variance_ode_rhs,
    warp_equivalence_check,
)
from memgrad.memory import MemoryFunction
from memgrad.optimizers import OptimizerState, hb_step, memsgd_p_step
from memgrad.problems import constant_field, quadratic_diag

FIG_QUADRATIC = quadratic_diag([2e-2, 5e-3])


class TestSpecValidation:
    def test_unknown_model(self):
        with pytest.raises(ValueError):
            SdeSpec("brownian", grad=lambda x: x, dim=1)

    def test_mg_needs_memory(self):
        with pytest.raises(ValueError):
            SdeSpec("mg", grad=lambda x: x, dim=1)

    def test_hb_needs_viscosity(self):
        with pytest.raises(ValueError):
            SdeSpec("hb_ode", grad=lambda x: x, dim=1)

    def test_noisy_run_needs_rng(self):
        spec = nesterov_sde(lambda x: x, 1, sigma=1.0)
        with pytest.raises(ValueError):
            integrate_paths(spec, [1.0], [0.0], grid_times(spec, 1.0, 1e-2), 1e-2)

    def test_model_coefficients(self):
        mg = memory_sde(lambda x: x, 1, MemoryFunction.quadratic())
        assert mg.friction(2.0) == 1.5
        assert mg.gradient_scale(2.0) == 1.5
        nest = nesterov_sde(lambda x: x, 1)
        assert nest.friction(2.0) == 1.5
        assert nest.gradient_scale(2.0) == 1.0
        hb = hb_sde(lambda x: x, 1, viscosity=0.7)
        assert hb.friction(123.0) == 0.7


class TestSemiImplicitEuler:
    def test_parameter_correspondence_values(self):
        h, alpha = 0.1, 1.0
        assert 1.0 - h * alpha == 0.9
        assert h * h == pytest.approx(0.01)

    def test_matches_momentum_recursion(self):
        # Velocity-first integration walks the discrete recursion with
        # beta = 1 - h alpha and eta = h**2, sample by sample.
        q = FIG_QUADRATIC
        h, alpha = 0.1, 2.0
        spec = hb_sde(q.grad, 2, viscosity=alpha)
        ps = PhaseState(np.array([1.0, 1.0]), np.zeros(2), t=0.0)
        st = OptimizerState.initial(np.array([1.0, 1.0]))
        for _ in range(1000):
            ps = semi_implicit_euler_step(ps, spec, h)
            st = hb_step(st, q.grad(st.x), eta=h * h, beta=1.0 - h * alpha)
            np.testing.assert_allclose(ps.x, st.x, rtol=0, atol=1e-12)

    def test_polynomial_memory_walks_memsgd(self):
        # c(t) = p/t at t_k = (k + p) h gives beta = k/(k+p) and eta p/(k+p), eta = h.
        p, h = 2.0, 0.05
        q = quadratic_diag([0.5, 0.1])
        spec = memory_sde(q.grad, 2, MemoryFunction.polynomial(p))
        ps = PhaseState(np.array([1.0, -1.0]), np.zeros(2), t=p * h)
        st = OptimizerState.initial(np.array([1.0, -1.0]))
        worst = 0.0
        for _ in range(200):
            ps = semi_implicit_euler_step(ps, spec, h)
            st = memsgd_p_step(st, q.grad(st.x), eta=h, p=p)
            worst = max(worst, np.max(np.abs(ps.x - st.x)))
        assert worst < 1e-12

    def test_frozen_without_forces(self):
        spec = hb_sde(lambda x: np.zeros_like(x), 1, viscosity=1.0)
        ps = PhaseState(np.array([3.0]), np.zeros(1), t=0.0)
        for _ in range(10):
            ps = semi_implicit_euler_step(ps, spec, 0.1)
        np.testing.assert_array_equal(ps.x, [3.0])
        np.testing.assert_array_equal(ps.v, [0.0])


class TestSdeStep:
    """One Euler-Maruyama substep: an integrate_paths run of one grid step
    started at the state's time."""

    def test_noise_free_equals_explicit_euler(self):
        q = FIG_QUADRATIC
        t, h = 0.5, 2.0**-10  # t + h - t == h exactly, so the run takes one substep of h
        mg = memory_sde(q.grad, 2, MemoryFunction.quadratic(), eps_start=t)
        x, v = np.array([1.0, 1.0]), np.array([0.1, -0.2])
        rng = np.random.default_rng(0)
        times, xs, vs, _ = integrate_paths(mg, x, v, grid_times(mg, t + h, h), h,
                                           lambda: rng.standard_normal((1, 2)))
        assert times.tolist() == [t, t + h]
        c = 3.0 / 0.5
        x_manual = x + h * v
        v_manual = v + h * (-c * v - c * q.grad(x))
        np.testing.assert_array_equal(xs[-1, 0], x_manual)
        np.testing.assert_array_equal(vs[-1, 0], v_manual)

    def test_noise_free_independent_of_seed(self):
        q = FIG_QUADRATIC
        mg = memory_sde(q.grad, 2, MemoryFunction.quadratic(), sigma=0.0, eps_start=1.0)

        def run(seed):
            rng = np.random.default_rng(seed)
            return integrate_paths(mg, [1.0, 1.0], np.zeros(2),
                                   grid_times(mg, 1.0 + 1e-3, 1e-3), 1e-3,
                                   lambda: rng.standard_normal((1, 2)))

        a, b = run(1), run(2)
        assert a[0].size == b[0].size == 2
        for got, want in zip(a, b):
            np.testing.assert_array_equal(got, want)


def out_of_place_paths(spec, sched, x0, v0, n, noise):
    """X and V of n paths at the start and at every target of the schedule,
    each substep's update built from new arrays; a path whose state is not
    finite at a target is dropped from the batch and NaN from there on."""
    x = np.tile(np.asarray(x0, dtype=float), (n, 1))
    v = np.tile(np.asarray(v0, dtype=float), (n, 1))
    xs = np.full((sched.ends.size + 1,) + x.shape, np.nan)
    vs = np.full_like(xs, np.nan)
    xs[0], vs[0], live = x, v, np.arange(n)
    steps = zip(sched.h.tolist(), sched.friction.tolist(), sched.gscale.tolist())
    with np.errstate(over="ignore", invalid="ignore"):
        for j, count in enumerate(np.diff(sched.ends, prepend=0).tolist(), 1):
            for h, fric, gscale in itertools.islice(steps, count):
                if noise is None:
                    kick = 0.0
                elif isinstance(spec.sigma, float):
                    kick = spec.sigma * math.sqrt(h) * noise()[live]
                else:
                    kick = math.sqrt(h) * (noise()[live] @ spec.sigma.T)
                x, v = x + h * v, v + h * (-fric * v - gscale * spec.grad(x)) - gscale * kick
            ok = np.isfinite(x).all(axis=1) & np.isfinite(v).all(axis=1)
            live, x, v = live[ok], x[ok], v[ok]
            xs[j, live], vs[j, live] = x, v
    return xs, vs


def repulsive_cubic(x):
    return -(x**3)


# The entry points integrate_paths replaced, kept as its reference: per-path
# results on an h-grid, a batch of one, and record times that raise on
# divergence, over the out-of-place loop above.

class TrajectoryResult(NamedTuple):
    """One path's recorded (t, X, V), up to its divergence, and its status."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    status: str = "completed"
    diverged_at: float | None = None  # the time reached at its divergence target
    diverged_step: int | None = None  # that target's grid step j, t ~ eps_start + j h


def reference_euler_maruyama(spec, sched, x0, v0, n, noise, record):
    """X and V at the start and at each target flagged in ``record`` (NaN once
    a path has diverged), and each path's 1-based divergence target, 0 if none."""
    if spec.is_deterministic():
        noise = None
    elif noise is None:
        raise ValueError("a noisy model needs an RNG")
    xs, vs = out_of_place_paths(spec, sched, x0, v0, n, noise)
    bad = ~np.isfinite(xs).all(axis=-1)
    rows = np.concatenate(([True], record))
    return xs[rows], vs[rows], np.where(bad.any(axis=0), bad.argmax(axis=0), 0)


def reference_integrate_paths(spec, x0, v0, t_end, h, noise=None, n_paths=1,
                              record_stride=1):
    """Each path's TrajectoryResult on the grid eps_start + j h ending at t_end,
    recorded at every ``record_stride``-th grid point and the last."""
    if t_end <= spec.eps_start:
        raise ValueError("t_end must exceed eps_start")
    n_steps = max(1, int(round((t_end - spec.eps_start) / h)))
    targets = [spec.eps_start + j * h for j in range(1, n_steps)] + [t_end]
    record = [j % record_stride == 0 or j == n_steps for j in range(1, n_steps + 1)]
    sched = substep_schedule(spec, targets, h)
    xs, vs, diverged = reference_euler_maruyama(spec, sched, x0, v0, n_paths, noise, record)
    kept = np.flatnonzero(record)
    times = np.concatenate(([spec.eps_start], sched.times[kept]))
    out = []
    for r, j in enumerate(diverged.tolist()):
        n = 1 + int(np.searchsorted(kept, j - 1)) if j else len(times)
        out.append(TrajectoryResult(times[:n], xs[:n, r], vs[:n, r],
                                    "diverged" if j else "completed",
                                    float(sched.times[j - 1]) if j else None, j or None))
    return out


def reference_integrate_trajectory(spec, x0, v0, t_end, h, rng=None, record_stride=1):
    """reference_integrate_paths for one path, drawing its noise from ``rng``."""
    noise = None if rng is None else functools.partial(rng.standard_normal, (1, np.size(x0)))
    return reference_integrate_paths(spec, x0, v0, t_end, h, noise, 1, record_stride)[0]


def reference_sample_paths(spec, x0, v0, record_times, h, n_paths, rng):
    """(times, X, V) at the sorted record times; DivergenceError if a path diverged."""
    record_times = np.sort(np.asarray(record_times, dtype=float))
    if record_times[0] <= spec.eps_start:
        raise ValueError("record times must exceed eps_start")
    noise = None if rng is None else functools.partial(rng.standard_normal,
                                                       (n_paths, np.size(x0)))
    sched = substep_schedule(spec, record_times.tolist(), h)
    xs, vs, diverged = reference_euler_maruyama(spec, sched, x0, v0, n_paths, noise,
                                                [True] * len(record_times))
    if diverged.any():
        t = float(sched.times[diverged[diverged > 0].min() - 1])
        raise DivergenceError(f"non-finite state at t = {t}", time=t)
    return record_times, xs[1:], vs[1:]


class TestInPlaceUpdate:
    """The in-place Euler-Maruyama loop against the same loop built from new
    arrays: every recorded state bit-identical, diverging paths included."""

    @pytest.mark.parametrize("spec, x0, v0, t_end, h, diverges", [
        (hb_sde(repulsive_cubic, 2, viscosity=0.5, sigma=1.0), [0.3, -0.3], [0.0, 0.0],
         6.0, 0.05, True),
        (hb_sde(repulsive_cubic, 2, viscosity=0.5, sigma=[[1.0, 0.0], [0.5, 0.8]]),
         [0.3, -0.3], [0.0, 0.0], 6.0, 0.05, True),
        (memory_sde(FIG_QUADRATIC.grad, 2, MemoryFunction.quadratic(), sigma=0.1,
                    eps_start=1e-3), [1.0, 1.0], [0.0, 0.0], 2.0, 0.01, False),
        (nesterov_sde(FIG_QUADRATIC.grad, 2, eps_start=1e-3), [1.0, 1.0], [0.5, 0.0],
         2.0, 0.01, False),
    ], ids=["scalar-sigma", "matrix-sigma", "stiff-start", "noise-free"])
    def test_matches_an_out_of_place_loop(self, spec, x0, v0, t_end, h, diverges):
        n = 64
        targets = np.arange(1, round((t_end - spec.eps_start) / h) + 1) * h + spec.eps_start
        sched = substep_schedule(spec, targets.tolist(), h)

        def draw():  # the same stream for both loops
            rng = np.random.default_rng(5)
            return None if spec.is_deterministic() else lambda: rng.standard_normal((n, 2))

        _, xs, vs, diverged = integrate_paths(spec, x0, v0, targets.tolist(), h, draw(), n)
        want_xs, want_vs = out_of_place_paths(spec, sched, x0, v0, n, draw())
        np.testing.assert_array_equal(xs, want_xs)
        np.testing.assert_array_equal(vs, want_vs)
        assert (diverged.any() and not diverged.all()) if diverges else not diverged.any()

    def test_leaves_oracle_and_caller_arrays_alone(self):
        field, x0, v0 = np.array([1.0, -2.0]), np.array([0.5, 0.5]), np.array([0.1, 0.2])
        spec = memory_sde(lambda x: field, 2, MemoryFunction.quadratic(), sigma=np.eye(2),
                          eps_start=0.5)  # a gradient scale other than 1
        rng = np.random.default_rng(0)
        integrate_paths(spec, x0, v0, grid_times(spec, 1.0, 0.01), 0.01,
                        lambda: rng.standard_normal((3, 2)), 3)
        assert field.tolist() == [1.0, -2.0]
        assert x0.tolist() == [0.5, 0.5] and v0.tolist() == [0.1, 0.2]
        assert spec.sigma.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def noisy_specs(grad=FIG_QUADRATIC.grad):
    """Every model, mg under four memories, with noise and a stiff start."""
    mg = functools.partial(memory_sde, grad, 2, sigma=0.3, eps_start=1e-3)
    return {
        "mg-polynomial": mg(MemoryFunction.polynomial(2.0)),
        "mg-quadratic": mg(MemoryFunction.quadratic()),
        "mg-exponential": mg(MemoryFunction.exponential(1.0)),
        "mg-constant": mg(MemoryFunction.constant()),
        "nesterov": nesterov_sde(grad, 2, sigma=0.3, eps_start=1e-3),
        "hb_ode": hb_sde(grad, 2, viscosity=0.7, sigma=[[0.3, 0.0], [0.1, 0.2]],
                         eps_start=1e-3),
    }


def assert_same_paths(got, want):
    """integrate_paths' arrays hold each reference result's records, then NaN."""
    times, xs, vs, diverged = got
    assert diverged.tolist() == [res.diverged_step or 0 for res in want]
    for res in want:
        assert res.status == ("diverged" if res.diverged_step else "completed")
        np.testing.assert_array_equal(times[:len(res.times)], res.times)
    for arrays, field in ((xs, "positions"), (vs, "velocities")):
        padded = [np.concatenate([getattr(res, field),
                                  np.full((len(times) - len(res.times), 2), np.nan)])
                  for res in want]
        assert np.array_equal(arrays, np.stack(padded, axis=1), equal_nan=True)


def draws(seed, n):
    rng = np.random.default_rng(seed)
    return lambda: rng.standard_normal((n, 2))


class TestOneEntryPoint:
    """integrate_paths on grid_times, and sample_paths, give the bits of the
    entry points they replaced, diverging paths included."""

    X0, V0 = [1.0, -1.0], [0.0, 0.5]

    @pytest.mark.parametrize("stride", [1, 7, 100])
    @pytest.mark.parametrize("n_paths", [1, 3])
    @pytest.mark.parametrize("name", sorted(noisy_specs()))
    def test_matches_the_per_path_results(self, name, n_paths, stride):
        spec = noisy_specs()[name]
        t_end, h = 2.5 + 1e-3, 1e-2  # 250 grid steps, which no stride above divides
        got = integrate_paths(spec, self.X0, self.V0, grid_times(spec, t_end, h), h,
                              draws(11, n_paths), n_paths, stride)
        assert_same_paths(got, reference_integrate_paths(
            spec, self.X0, self.V0, t_end, h, draws(11, n_paths), n_paths, stride))
        if n_paths == 1:
            assert_same_paths(got, [reference_integrate_trajectory(
                spec, self.X0, self.V0, t_end, h, np.random.default_rng(11), stride)])

    @pytest.mark.parametrize("stride", [1, 7, 100])
    def test_some_paths_of_a_batch_diverge(self, stride):
        spec = hb_sde(repulsive_cubic, 2, viscosity=0.5, sigma=1.0)
        n, t_end, h = 16, 3.3, 0.05  # 66 grid steps
        got = integrate_paths(spec, [0.3, -0.3], [0.0, 0.0], grid_times(spec, t_end, h), h,
                              draws(5, n), n, stride)
        assert 0 < np.count_nonzero(got[3]) < n
        assert_same_paths(got, reference_integrate_paths(
            spec, [0.3, -0.3], [0.0, 0.0], t_end, h, draws(5, n), n, stride))

    @pytest.mark.parametrize("name", sorted(noisy_specs()))
    def test_sample_paths_matches(self, name):
        spec, times = noisy_specs()[name], [2.0, 0.5, 1.3]
        got = sample_paths(spec, self.X0, self.V0, times, 1e-2, 3, np.random.default_rng(5))
        want = reference_sample_paths(spec, self.X0, self.V0, times, 1e-2, 3,
                                      np.random.default_rng(5))
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_sample_paths_raises_where_it_did(self):
        spec = hb_sde(repulsive_cubic, 2, viscosity=0.5, sigma=1.0)
        times = np.arange(1, 121) * 0.05 + spec.eps_start
        with pytest.raises(DivergenceError) as want:
            reference_sample_paths(spec, [0.3, -0.3], [0.0, 0.0], times, 0.05, 16,
                                   np.random.default_rng(5))
        with pytest.raises(DivergenceError) as got:
            sample_paths(spec, [0.3, -0.3], [0.0, 0.0], times, 0.05, 16,
                         np.random.default_rng(5))
        assert (got.value.time, str(got.value)) == (want.value.time, str(want.value))


def one_path(spec, x0, v0, t_end, h, record_stride=1):
    """Times, X, V and the divergence target of one noise-free path on the h-grid."""
    times, xs, vs, diverged = integrate_paths(spec, x0, v0, grid_times(spec, t_end, h), h,
                                              record_stride=record_stride)
    return times, xs[:, 0], vs[:, 0], int(diverged[0])


class TestTrajectories:
    def test_quadratic_forgetting_velocity_settles_on_gradient(self):
        obj = constant_field([1.0])
        spec = memory_sde(obj.grad, 1, MemoryFunction.quadratic())
        times, _, vs, diverged = one_path(spec, [0.0], [0.0], 10.0, 1e-3, record_stride=100)
        assert diverged == 0
        mask = times >= 5.0
        assert np.max(np.abs(vs[mask, 0] + 1.0)) < 1e-2

    def test_nesterov_velocity_amplifies_linearly(self):
        obj = constant_field([1.0])
        spec = nesterov_sde(obj.grad, 1)
        times, _, vs, _ = one_path(spec, [0.0], [0.0], 8.0, 1e-3, record_stride=100)
        mask = times >= 2.0
        gaps = np.abs(vs[mask, 0] + times[mask] / 4.0)
        assert np.all(gaps < 1e-2 * times[mask])

    def test_eps_start_insensitive(self):
        q = FIG_QUADRATIC
        finals = []
        for eps in (1e-12, 1e-10):
            spec = memory_sde(q.grad, 2, MemoryFunction.quadratic(), eps_start=eps)
            _, xs, vs, _ = one_path(spec, [1.0, 1.0], [0.0, 0.0], 5.0, 1e-3,
                                    record_stride=10**9)
            finals.append(np.concatenate([xs[-1], vs[-1]]))
        np.testing.assert_allclose(finals[0], finals[1], atol=1e-6)

    def test_bounded_branch_of_singular_start(self):
        # Constant gradient with cubic memory: the eps start selects the
        # bounded solution X(t) = X(eps) - (t - eps) + O(eps).
        obj = constant_field([1.0])
        spec = memory_sde(obj.grad, 1, MemoryFunction.quadratic())
        times, xs, _, _ = one_path(spec, [0.0], [0.0], 10.0, 1e-3, record_stride=10)
        mask = times >= 1.0
        drift = xs[mask, 0] - (0.0 - (times[mask] - spec.eps_start))
        assert np.max(np.abs(drift)) < 1e-2

    def test_schedule_caps_the_stiff_start(self):
        spec = nesterov_sde(lambda x: x, 1)
        h = 1e-2
        targets = [spec.eps_start + j * h for j in range(1, 101)]
        sched = substep_schedule(spec, targets, h)
        np.testing.assert_array_equal(sched.friction, 3.0 / sched.t)
        assert np.all(sched.h * sched.friction <= SUBSTEP_CAP * (1.0 + 1e-15))
        assert np.all(sched.h <= h)
        np.testing.assert_allclose(sched.times, targets, rtol=1e-15)
        steps_per_target = np.diff(sched.ends, prepend=0)
        assert steps_per_target[0] > 20  # the 3/t start
        # From t = 0.12 on, h * 3/t <= 0.25: one step per target, plus at most
        # a remainder below float resolution where t + (target - t) < target.
        later = sched.t >= targets[12]
        assert np.all((np.abs(sched.h[later] - h) < 1e-15) | (sched.h[later] < 1e-15))
        assert np.all(steps_per_target[13:] <= 2)

    def test_divergence_is_flagged_not_propagated(self):
        # Anti-restoring force with no friction grows like e^t and must
        # overflow into a flag: the path stops there, NaN from that target on.
        spec = hb_sde(lambda x: -x, 1, viscosity=0.0)
        times, xs, vs, diverged = one_path(spec, [1.0], [0.0], 2000.0, 1.0)
        assert diverged > 0
        assert np.all(np.isfinite(xs[:diverged])) and np.all(np.isnan(xs[diverged:]))
        assert np.all(np.isnan(vs[diverged:]))

    def test_exponential_memory_approaches_gradient_flow(self):
        q = FIG_QUADRATIC
        spec = memory_sde(q.grad, 2, MemoryFunction.exponential(50.0))
        times, xs, _, _ = one_path(spec, [1.0, 1.0], [0.0, 0.0], 5.0, 1e-3,
                                   record_stride=100)
        x = np.array([1.0, 1.0])
        t = spec.eps_start
        oracle = [x.copy()]
        for target in times[1:]:
            while t < target - 1e-12:
                h = min(1e-3, target - t)
                x = x - h * q.grad(x)
                t += h
            oracle.append(x.copy())
        gap = np.max(np.linalg.norm(xs - np.asarray(oracle), axis=1))
        assert gap < 5e-2

    def test_ensemble_matches_single_path(self):
        q = FIG_QUADRATIC
        spec = memory_sde(q.grad, 2, MemoryFunction.quadratic())
        record_times, x1, v1, _ = one_path(spec, [1.0, 1.0], [0.0, 0.0], 2.0, 1e-3,
                                           record_stride=500)
        times, xs, vs = sample_paths(
            spec, [1.0, 1.0], [0.0, 0.0], record_times[1:], 1e-3, n_paths=3, rng=None
            if spec.is_deterministic() else np.random.default_rng(0),
        )
        np.testing.assert_allclose(xs[:, 0, :], x1[1:], atol=1e-9)
        np.testing.assert_allclose(vs[:, 2, :], v1[1:], atol=1e-9)


class TestVelocityNoiseLaws:
    def test_velocity_variances_match_closed_forms(self):
        # Under a constant gradient the velocity noise has variance t/7
        # (bare noise, 3/t drag) and 9/(5t) (noise carrying 3/t).
        obj = constant_field([1.0])
        n = 4000
        rng = np.random.default_rng(1234)
        times = [2.0, 5.0, 7.0]
        spec_n = nesterov_sde(obj.grad, 1, sigma=1.0)
        _, _, vn = sample_paths(spec_n, [0.0], [0.0], times, 1e-3, n, rng)
        spec_q = memory_sde(obj.grad, 1, MemoryFunction.quadratic(), sigma=1.0)
        _, _, vq = sample_paths(spec_q, [0.0], [0.0], times, 1e-3, n, rng)
        for i, t in enumerate(times):
            for v, target in ((vn[i, :, 0], t / 7.0), (vq[i, :, 0], 9.0 / (5.0 * t))):
                var = np.var(v, ddof=1)
                se = var * np.sqrt(2.0 / (n - 1))
                assert abs(var - target) < 3.0 * se


class TestReferenceQuadraticComparison:
    def test_bare_noise_destabilizes_memory_noise_does_not(self):
        # Shared volatility on the ill-conditioned quadratic: the system
        # with unscaled noise accumulates velocity variance over time,
        # while the memory system's velocity variance shrinks.
        q = FIG_QUADRATIC
        n, times = 2000, [3.0, 9.0]
        rng = np.random.default_rng(88)
        spec_n = nesterov_sde(q.grad, 2, sigma=0.5)
        _, _, vn = sample_paths(spec_n, [1.0, 1.0], [0.0, 0.0], times, 1e-3, n, rng)
        spec_q = memory_sde(q.grad, 2, MemoryFunction.quadratic(), sigma=0.5)
        _, _, vq = sample_paths(spec_q, [1.0, 1.0], [0.0, 0.0], times, 1e-3, n, rng)
        var_n = np.var(vn[:, :, 0], axis=1, ddof=1)
        var_q = np.var(vq[:, :, 0], axis=1, ddof=1)
        assert var_n[1] > 2.0 * var_n[0]
        assert var_q[1] < var_q[0]


class TestItoIsometry:
    @pytest.mark.parametrize(
        "p,t", [(0.0, 1.0), (1.0, 1.0), (3.0, 2.0)]
    )
    def test_variance_formula(self, p, t):
        rng = np.random.default_rng(5)
        var, se = ito_isometry_mc(p, t, 20000, 1e-3, rng)
        target = t ** (2 * p + 1) / (2 * p + 1)
        assert abs(var - target) < 3.0 * se

    def test_minimum_paths_enforced(self):
        with pytest.raises(ValueError):
            ito_isometry_mc(1.0, 1.0, 10, 1e-3, np.random.default_rng(0))


class TestVarianceOde:
    def test_rhs_formulas(self):
        s = (2.0, 2.0, 0.5, 1.5)  # (t, p1, p2, p3)
        lam, sigma2 = 0.7, 0.9
        np.testing.assert_allclose(
            variance_ode_rhs("nesterov", s, lam, sigma2),
            (1.0, -0.7 * 2.0 - 1.5 * 0.5 + 1.5, -2 * 0.7 * 0.5 - 3.0 * 1.5 + 0.9),
        )
        np.testing.assert_allclose(
            variance_ode_rhs("quadratic_forgetting", s, lam, sigma2),
            (
                1.0,
                -(3 * 0.7 / 2.0) * 2.0 - 1.5 * 0.5 + 1.5,
                -(6 * 0.7 / 2.0) * 0.5 - 3.0 * 1.5 + (9.0 / 4.0) * 0.9,
            ),
        )

    def test_noise_free_friction_only_velocity_decays(self):
        states = integrate_variance_ode(
            "nesterov", 0.5, 10.0, 1e-3, lam=0.0, sigma2=0.0,
            init=(1.0, 0.0, 1.0), record_stride=100,
        )
        p3 = np.array([s.p3 for s in states])
        assert np.all(np.diff(p3) <= 0.0)

    def test_linearity_in_noise(self):
        base = integrate_variance_ode(
            "quadratic_forgetting", 0.1, 5.0, 1e-3, 1.0, 0.0, record_stride=500
        )
        one = integrate_variance_ode(
            "quadratic_forgetting", 0.1, 5.0, 1e-3, 1.0, 1.0, record_stride=500
        )
        four = integrate_variance_ode(
            "quadratic_forgetting", 0.1, 5.0, 1e-3, 1.0, 4.0, record_stride=500
        )
        for b, o, f in zip(base, one, four):
            for attr in ("p1", "p2", "p3"):
                delta1 = getattr(o, attr) - getattr(b, attr)
                delta4 = getattr(f, attr) - getattr(b, attr)
                np.testing.assert_allclose(delta4, 4.0 * delta1, rtol=1e-8, atol=1e-12)

    def test_cauchy_schwarz_along_trace(self):
        for model in ("nesterov", "quadratic_forgetting"):
            states = integrate_variance_ode(
                model, 0.1, 20.0, 1e-3, 1.0, 1.0, record_stride=100
            )
            for s in states:
                assert s.p2**2 - s.p1 * s.p3 <= 1e-9 * max(1.0, s.p1 * s.p3)

    def test_long_run_shapes(self):
        nest = integrate_variance_ode("nesterov", 0.1, 100.0, 1e-3, 1.0, 1.0,
                                      record_stride=100)
        p3 = np.array([s.p3 for s in nest])
        assert np.all(np.diff(p3[len(p3) // 2:]) > 0.0)
        assert p3[-1] > 10.0 * p3[np.argmin(p3)]
        qf = integrate_variance_ode("quadratic_forgetting", 0.1, 100.0, 1e-3, 1.0, 1.0,
                                    record_stride=100)
        p3 = np.array([s.p3 for s in qf])
        assert p3.max() < 1e3
        assert p3[-1] < 0.1

    def test_friction_only_closed_form(self):
        # lam = sigma2 = 0 from (1, 0, 1): p3 = (t0/t)^6 and
        # p2 = t0^6 (t0^-2 - t^-2) / (2 t^3).  Up to t = 3, p3 >= 2e-5 stays
        # far above the solver's absolute tolerance, so rtol alone applies.
        t0 = 0.5
        states = integrate_variance_ode(
            "nesterov", t0, 3.0, 1e-3, lam=0.0, sigma2=0.0,
            init=(1.0, 0.0, 1.0), record_stride=100,
        )
        t = np.array([s.t for s in states])
        np.testing.assert_allclose([s.p3 for s in states], (t0 / t) ** 6, rtol=1e-9)
        np.testing.assert_allclose([s.p2 for s in states],
                                   t0**6 * (t0**-2 - t**-2) / (2.0 * t**3), rtol=1e-9)

    def test_output_grid(self):
        states = integrate_variance_ode("nesterov", 0.1, 1.05, 1e-2, 1.0, 1.0,
                                        record_stride=10)
        expected = [0.1] + [0.1 + j * 1e-2 for j in range(10, 95, 10)] + [1.05]
        assert [s.t for s in states] == expected

    @pytest.mark.parametrize("stride", [0, -3])
    def test_stride_below_one_rejected(self, stride):
        with pytest.raises(ValueError, match="stride must be >= 1"):
            integrate_variance_ode("nesterov", 0.1, 1.0, 1e-2, 1.0, 1.0, record_stride=stride)

    def test_cauchy_schwarz_violating_init_raises(self):
        with pytest.raises(DivergenceError):
            integrate_variance_ode("nesterov", 0.1, 1.0, 1e-3, 1.0, 1.0,
                                   init=(1.0, 2.0, 1.0))

    def test_matches_monte_carlo(self):
        lam, t0, n = 1.0, 0.1, 4000
        obj = quadratic_diag([lam / 2.0])
        rng = np.random.default_rng(99)
        times = [1.0, 5.0]
        for model, spec in (
            ("nesterov", nesterov_sde(obj.grad, 1, sigma=1.0, eps_start=t0)),
            ("quadratic_forgetting",
             memory_sde(obj.grad, 1, MemoryFunction.quadratic(), sigma=1.0,
                        eps_start=t0)),
        ):
            _, _, V = sample_paths(spec, [1.0], [0.0], times, 1e-3, n, rng)
            states = integrate_variance_ode(model, t0, max(times), 1e-3, lam, 1.0,
                                            record_stride=100)
            ode_t = np.array([s.t for s in states])
            ode_p3 = np.array([s.p3 for s in states])
            for i, t in enumerate(times):
                v2 = V[i, :, 0] ** 2
                se = v2.std(ddof=1) / np.sqrt(n)
                p3 = ode_p3[np.argmin(np.abs(ode_t - t))]
                assert abs(v2.mean() - p3) < 3.0 * se


class TestTimeWarp:
    def test_reference_values(self):
        assert time_warp_tau(4.0, 2.0) == 2.0
        assert time_warp_tau(0.0, 2.0) == 0.0
        np.testing.assert_allclose(time_warp_tau(4.0, 2.0), 16.0 / 8.0)

    def test_array_input(self):
        np.testing.assert_allclose(
            time_warp_tau(np.array([0.0, 2.0, 4.0]), 2.0), [0.0, 0.5, 2.0]
        )

    def test_needs_p_above_one(self):
        with pytest.raises(ValueError):
            time_warp_tau(1.0, 1.0)

    @pytest.mark.parametrize("h", [0.0, -1.0])
    def test_h_not_positive_rejected(self, h):
        with pytest.raises(ValueError, match="h must be > 0"):
            warp_equivalence_check(FIG_QUADRATIC, 2.0, 4.0, h)

    def test_linear_memory_warps_onto_nesterov_path(self):
        gap = warp_equivalence_check(FIG_QUADRATIC, 2.0, 4.0, 1e-4)
        assert gap < 1e-4

    def test_zero_field_paths_coincide(self):
        obj = constant_field([0.0, 0.0])
        gap = warp_equivalence_check(obj, 2.0, 4.0, 1e-3, x0=np.array([1.0, -1.0]))
        assert gap == 0.0

    def test_fractional_degree(self):
        gap = warp_equivalence_check(FIG_QUADRATIC, 1.5, 4.0, 1e-4)
        assert gap < 1e-3

    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_dense_solutions_agree_to_solver_tolerance(self, p):
        assert warp_equivalence_check(FIG_QUADRATIC, p, 4.0, 1e-4) < 1e-10


# -- the in-tree DOP853 against scipy's -----------------------------------


@pytest.fixture
def solve_ivp():
    return pytest.importorskip("scipy.integrate").solve_ivp


def scipy_warp_gap(solve_ivp, objective, p, t_end, h, x0=None, eps_start=1e-12,
                   compare_from=0.1):
    """warp_equivalence_check as it was written on scipy: both paths solved by
    dense DOP853 and their stored OdeSolutions evaluated afterwards."""
    x0 = np.ones(objective.dim) if x0 is None else np.asarray(x0, dtype=float)
    d = x0.size
    mg = memory_sde(objective.grad, d, MemoryFunction.polynomial(p), eps_start=eps_start)
    hb = hb_sde(objective.grad, d, viscosity=lambda t: (2.0 * p - 1.0) / t,
                eps_start=eps_start)

    def rhs(t, y, spec):
        x, v = y[:d], y[d:]
        return np.concatenate(
            (v, -spec.friction(t) * v - spec.gradient_scale(t) * spec.grad(x)))

    paths = []
    for spec, end in ((mg, time_warp_tau(t_end, p)), (hb, t_end)):
        sol = solve_ivp(rhs, (eps_start, end), np.concatenate((x0, np.zeros(d))),
                        method="DOP853", dense_output=True, rtol=continuum.RTOL,
                        atol=continuum.ATOL, args=(spec,))
        if not sol.success:
            raise DivergenceError(f"{spec.model} path stopped at t = {sol.t[-1]}: "
                                  f"{sol.message}", time=float(sol.t[-1]))
        paths.append(sol.sol)
    times = continuum._output_grid(eps_start, t_end, h, max(1, int(round(1e-4 / h))))
    times = times[times >= compare_from]
    gaps = np.linalg.norm(paths[0](time_warp_tau(times, p))[:d] - paths[1](times)[:d],
                          axis=0)
    return float(gaps.max())


def scipy_variance_ode(solve_ivp, model, t0, t_end, h, lam, sigma2, init=(1.0, 0.0, 0.0),
                       record_stride=1):
    """(t, p1, p2, p3) rows from scipy's DOP853 on the output grid; a solver
    failure raises the DivergenceError integrate_variance_ode raised on scipy."""
    sol = solve_ivp(lambda t, y: variance_ode_rhs(model, (t, *y), lam, sigma2),
                    (t0, t_end), np.asarray(init, dtype=float), method="DOP853",
                    t_eval=continuum._output_grid(t0, t_end, h, record_stride),
                    rtol=continuum.RTOL, atol=continuum.ATOL)
    if not sol.success:
        t = float(sol.t[-1])
        raise DivergenceError(f"variance ODE solver stopped at t = {t}: {sol.message}",
                              time=t)
    return np.vstack((sol.t, sol.y))


class TestDop853:
    def test_tableau_is_scipys(self):
        coeffs = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        for ours, theirs in ((continuum._A, coeffs.A), (continuum._C, coeffs.C),
                             (continuum._B, coeffs.B), (continuum._E3, coeffs.E3),
                             (continuum._E5, coeffs.E5), (continuum._D, coeffs.D)):
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)

    @pytest.mark.parametrize("args", [
        ("nesterov", 0.1, 10.0, 1e-3, 1.0, 1.0, (1.0, 0.0, 0.0), 100),
        ("quadratic_forgetting", 0.1, 10.0, 1e-3, 1.0, 1.0, (1.0, 0.0, 0.0), 100),
        ("nesterov", 0.1, 100.0, 1e-3, 1.0, 1.0, (1.0, 0.0, 0.0), 100),
        ("quadratic_forgetting", 0.1, 100.0, 1e-3, 1.0, 1.0, (1.0, 0.0, 0.0), 100),
        ("quadratic_forgetting", 0.1, 2.0, 1e-3, 1.0, 1.0, (1.0, 0.0, 0.0), 1),
        ("nesterov", 0.5, 3.0, 1e-3, 0.0, 0.0, (1.0, 0.0, 1.0), 100),
    ], ids=["nesterov-10", "qf-10", "nesterov-100", "qf-100", "qf-every-step",
            "friction-only"])
    def test_variance_ode_is_scipys_bit_for_bit(self, solve_ivp, args):
        states = integrate_variance_ode(*args)
        expected = scipy_variance_ode(solve_ivp, *args)
        got = np.vstack([states.t, states.p1, states.p2, states.p3])
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("objective,p,h", [
        (FIG_QUADRATIC, 2.0, 1e-5),
        (FIG_QUADRATIC, 2.0, 1e-4),
        (FIG_QUADRATIC, 1.5, 1e-4),
        (quadratic_diag([2e-2, 5e-3, 0.3]), 1.5, 1e-3),
    ], ids=["p2-criterion9", "p2", "p1.5", "p1.5-3d"])
    def test_warp_gap_is_scipys_bit_for_bit(self, solve_ivp, objective, p, h):
        got = warp_equivalence_check(objective, p, 4.0, h)
        assert got.hex() == scipy_warp_gap(solve_ivp, objective, p, 4.0, h).hex()

    def test_non_finite_variance_rhs_raises_at_t0(self):
        # scipy's solver takes a NaN first step and rejects it forever.  A NaN
        # lam or sigma2 is rejected before the solve, so the start is NaN.
        with pytest.raises(DivergenceError) as info:
            integrate_variance_ode("nesterov", 0.1, 1.0, 1e-3, 1.0, 1.0,
                                   init=(float("nan"), 0.0, 0.0))
        assert info.value.time == 0.1
        assert str(info.value) == ("variance ODE solver stopped at t = 0.1: Required step "
                                   "size is less than spacing between numbers.")

    def test_overflowing_variance_ode_stops_where_scipys_does(self, solve_ivp):
        # lam < 0 grows the moments like exp(200 t) until they overflow.
        args = ("nesterov", 0.1, 100.0, 1e-3, -1e4, 1.0)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as expected:
            scipy_variance_ode(solve_ivp, *args)
        with pytest.raises(DivergenceError) as info:
            integrate_variance_ode(*args)
        assert str(info.value) == str(expected.value)
        assert info.value.time == expected.value.time
        assert 0.1 < info.value.time < 100.0

    def test_overflowing_warp_stops_where_scipys_does(self, solve_ivp):
        # X'' = exp(X) (times the memory coefficient) blows up in finite time.
        class Runaway:
            dim = 1

            @staticmethod
            def grad(x):
                return -np.exp(x)

        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as expected:
            scipy_warp_gap(solve_ivp, Runaway, 2.0, 4.0, 1e-4)
        with pytest.raises(DivergenceError) as info:
            warp_equivalence_check(Runaway, 2.0, 4.0, 1e-4)
        assert str(info.value) == str(expected.value)
        assert info.value.time == expected.value.time
        assert str(info.value).startswith("mg path stopped at t = 0.61")


def test_cli_solvers_import_no_scipy(tmp_path):
    """variance-ode and warp run on numpy alone, so scipy's ~45 MB of
    modules stay out of the process."""
    code = (
        "import sys\n"
        "from memgrad import cli\n"
        "assert cli.main(['variance-ode', '--model', 'nesterov', '--t-end', '2', "
        f"'--out', {str(tmp_path)!r}]) == 0\n"
        "assert cli.main(['warp', '--t-end', '1', '--h', '1e-3']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"
