"""Wrong steppers and integrators that the ``verify`` battery must catch.

Each mutant replaces one module or class attribute; the battery looks
functions up on their module at each use, so it runs the mutant.  Each
entry names the check that fails on it.
"""

import pytest

from memgrad import continuum, optimizers
from memgrad.verify import run_verification

HB_STEP = optimizers.hb_step


def hb_without_momentum(state, g, eta, beta):
    return HB_STEP(state, g, eta=eta, beta=0.0)


def hb_with_momentum_off_by_1e7(state, g, eta, beta):
    return HB_STEP(state, g, eta=eta, beta=beta * (1.0 + 1e-7))


def explicit_euler_step(state, spec, h):
    """Position advanced with the old velocity instead of the new one."""
    a = spec.friction(state.t)
    v_new = state.v + h * (-a * state.v - spec.grad(state.x))
    return continuum.PhaseState(x=state.x + h * state.v, v=v_new, t=state.t + h)


def without_gradient_scale(spec, t):
    """mg's drift and noise lose their memory coefficient c(t)."""
    return 1.0


def never_deterministic(spec):
    """Noise is drawn even at sigma = 0."""
    return False


MUTANTS = {
    "hb-beta-zero": (optimizers, "hb_step", hb_without_momentum,
                     "momentum-sum-equivalence"),
    "hb-beta-off-by-1e-7": (optimizers, "hb_step", hb_with_momentum_off_by_1e7,
                            "momentum-sum-equivalence"),
    "explicit-euler": (continuum, "semi_implicit_euler_step", explicit_euler_step,
                       "semi-implicit-correspondence"),
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
