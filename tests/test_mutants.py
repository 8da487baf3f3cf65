"""Wrong steppers and integrators that the ``verify`` battery must catch.

Each mutant replaces one module or class attribute; the battery looks
functions up on their module at each use, so it runs the mutant.  Each
entry names the check that fails on it.
"""

import numpy as np
import pytest

from memgrad import continuum, optimizers, theory
from memgrad.verify import run_verification

HB_STEP = optimizers.hb_step
MEMSGD_STEP = optimizers.memsgd_p_step
GAMMA_STAR = theory.gamma_star


def hb_without_momentum(state, g, eta, beta):
    return HB_STEP(state, g, eta=eta, beta=0.0)


def hb_with_momentum_off_by_1e7(state, g, eta, beta):
    return HB_STEP(state, g, eta=eta, beta=beta * (1.0 + 1e-7))


def memsgd_without_discount(state, g, eta, p, allow_small_p=False, lipschitz=None):
    """The momentum term k/(k+p) kept, the gradient step -eta g instead of
    -p/(k+p) eta g.  ``lipschitz`` is not passed on: the scaled eta crosses
    the stepsize warning's threshold by construction."""
    return MEMSGD_STEP(state, g, eta=eta * (state.k + p) / p, p=p,
                       allow_small_p=allow_small_p)


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
    "hb-beta-zero": (optimizers, "hb_step", hb_without_momentum,
                     "momentum-sum-equivalence"),
    "hb-beta-off-by-1e-7": (optimizers, "hb_step", hb_with_momentum_off_by_1e7,
                            "momentum-sum-equivalence"),
    "memsgd-without-discount": (optimizers, "memsgd_p_step", memsgd_without_discount,
                                "rate-bound[memsgd(eta=12.5,p=2.0)]"),
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
