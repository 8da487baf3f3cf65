"""Wrong steppers and integrators that the ``verify`` battery must catch.

Each mutant replaces one module or class attribute; the battery looks
functions up on their module at each use, so it runs the mutant.  Each
entry names the check that fails on it.  A mutant that returns NaN must
fail its check, not raise and not pass.
"""

import numpy as np
import pytest

from memgrad import continuum, optimizers, theory
from memgrad.memory import MemoryFunction
from memgrad.verify import run_verification

SGD_STEP = optimizers.sgd_step
HB_STEP = optimizers.hb_step
MEMSGD_STEP = optimizers.memsgd_p_step
GAMMA_STAR = theory.gamma_star
DERIVATIVE = MemoryFunction.derivative


def sgd_with_eta_times_1e300(state, g, eta):
    """A stepsize 1e300 times too large: the iterate overflows at the second step."""
    return SGD_STEP(state, g, eta=eta * 1e300)


def hb_returning_nan(state, g, eta, beta):
    return HB_STEP(state, np.full_like(g, np.nan), eta=eta, beta=beta)


def hb_without_momentum(state, g, eta, beta):
    return HB_STEP(state, g, eta=eta, beta=0.0)


def hb_with_momentum_off_by_1e7(state, g, eta, beta):
    return HB_STEP(state, g, eta=eta, beta=beta * (1.0 + 1e-7))


def memsgd_without_discount(state, g, eta, p, allow_small_p=False):
    """The momentum term k/(k+p) kept, the gradient step -eta g instead of
    -p/(k+p) eta g."""
    return MEMSGD_STEP(state, g, eta=eta * (state.k + p) / p, p=p,
                       allow_small_p=allow_small_p)


def adam_without_first_moment_factor(state, g, eta, beta1=0.9, beta2=0.999, eps=1e-8):
    """m' = beta1 m + g: the first moment loses its (1 - beta1) factor."""
    k = state.k
    m1 = beta1 * state.m1 + g
    m2 = beta2 * state.m2 + (1.0 - beta2) * g * g
    mhat, vhat = m1 / (1.0 - beta1 ** (k + 1)), m2 / (1.0 - beta2 ** (k + 1))
    return optimizers.OptimizerState(state.x - eta * mhat / np.sqrt(vhat + eps), state.x,
                                     k + 1, m1, m2)


def explicit_euler_step(state, spec, h):
    """Position advanced with the old velocity instead of the new one."""
    a = spec.friction(state.t)
    v_new = state.v + h * (-a * state.v - spec.grad(state.x))
    return continuum.PhaseState(x=state.x + h * state.v, v=v_new, t=state.t + h)


def position_first_euler_step(state, spec, h):
    """Position advanced first, velocity from the gradient at the new position:
    it walks the HB recursion from k = 1 on, but its first step stands still."""
    a = spec.friction(state.t)
    x_new = state.x + h * state.v
    v_new = state.v + h * (-a * state.v - spec.grad(x_new))
    return continuum.PhaseState(x=x_new, v=v_new, t=state.t + h)


def semi_implicit_euler_returning_nan(state, spec, h):
    nan = np.full_like(state.x, np.nan)
    return continuum.PhaseState(x=nan, v=nan, t=state.t + h)


def derivative_off_by_1e6(memory, t):
    return DERIVATIVE(memory, t) * (1.0 + 1e-6)


def gamma_star_upper_branch_off_by_1e9(alpha, tau, mu_tilde):
    gamma, alpha_max = GAMMA_STAR(alpha, tau, mu_tilde)
    return np.where(alpha > alpha_max, gamma * (1.0 + 1e-9), gamma), alpha_max


def without_gradient_scale(spec, t):
    """mg loses its memory coefficient c(t): its gradient, noise and (through
    the substep schedule) friction coefficients all become 1."""
    return 1.0


def never_deterministic(spec):
    """Noise is drawn even at sigma = 0."""
    return False


MUTANTS = {
    "sgd-iterate-overflows": (optimizers, "sgd_step", sgd_with_eta_times_1e300,
                              "experiment-batch"),
    "hb-returns-nan": (optimizers, "hb_step", hb_returning_nan, "momentum-sum-equivalence"),
    "hb-beta-zero": (optimizers, "hb_step", hb_without_momentum,
                     "momentum-sum-equivalence"),
    "hb-beta-off-by-1e-7": (optimizers, "hb_step", hb_with_momentum_off_by_1e7,
                            "momentum-sum-equivalence"),
    "memsgd-without-discount": (optimizers, "memsgd_p_step", memsgd_without_discount,
                                "rate-bound[memsgd(eta=12.5,p=2.0)]"),
    "adam-without-first-moment-factor": (optimizers, "adam_step",
                                         adam_without_first_moment_factor,
                                         "first-moment-bias-correction"),
    "semi-implicit-returns-nan": (continuum, "semi_implicit_euler_step",
                                  semi_implicit_euler_returning_nan,
                                  "semi-implicit-correspondence"),
    "memory-derivative-off-by-1e-6": (MemoryFunction, "derivative", derivative_off_by_1e6,
                                      "continuous-weight-normalization"),
    "explicit-euler": (continuum, "semi_implicit_euler_step", explicit_euler_step,
                       "semi-implicit-correspondence"),
    "position-first-euler": (continuum, "semi_implicit_euler_step",
                             position_first_euler_step, "semi-implicit-correspondence"),
    "gamma-upper-branch-off-by-1e-9": (theory, "gamma_star",
                                       gamma_star_upper_branch_off_by_1e9,
                                       "decay-rate-branch-continuity"),
    "mg-without-gradient-scale": (continuum.SdeSpec, "gradient_scale",
                                  without_gradient_scale, "noise-free-sde-reduces-to-ode"),
    "noise-drawn-at-zero-sigma": (continuum.SdeSpec, "is_deterministic",
                                  never_deterministic, "noise-free-sde-reduces-to-ode"),
}


@pytest.mark.parametrize("module, name, mutant, check", MUTANTS.values(), ids=list(MUTANTS))
def test_verify_fails_the_named_check(monkeypatch, module, name, mutant, check):
    monkeypatch.setattr(module, name, mutant)
    checks, _ = run_verification()
    assert check in {c.name for c in checks if not c.passed}


# Checks of a formula that no stepper or integrator calls, so no mutant of
# the program's code paths can fail them.
UNGUARDED = {
    "discrete-weight-normalization": "sums memory.memsgd_weight_sums, which no stepper calls",
    "variance-reduction-factor": "checks theory.variance_reduction_factor's own shape, "
                                 "and no stepper calls it",
}


def test_every_check_is_the_target_of_a_mutant():
    checks, _ = run_verification()
    names, targets = {c.name for c in checks}, {check for *_, check in MUTANTS.values()}
    assert targets <= names
    assert names - set(UNGUARDED) <= targets
