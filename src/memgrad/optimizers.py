"""Discrete-time steppers: momentum, polynomial forgetting, and the Adam family.

Every stepper is a pure function mapping (state, gradient, hyperparameters)
to a fresh state; gradient sampling lives with the problem definitions, so
identical inputs always produce bit-identical outputs.  States follow the
convention x_prev = x at k = 0, which makes the first step of every
momentum method a plain gradient step.

The update is elementwise, so a state may hold one run (shape (d,)) or a
batch of runs that share k (shape (n, d)); each row steps as it would
alone.  Steppers never check finiteness: a NaN or inf gradient gives a
non-finite iterate, and the loop that steps them decides what that means.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from memgrad.memory import validate_memsgd_degree

__all__ = [
    "OptimizerState",
    "sgd_step",
    "hb_step",
    "memsgd_p_step",
    "unbiased_hb_step",
    "adam_step",
    "adagrad_step",
    "adamnc_step",
    "polyadam_step",
]


class OptimizerState(NamedTuple):
    """Iterate, previous iterate, step counter, and moment buffers.

    ``m1``/``m2`` hold the first- and second-moment accumulators of the
    adaptive methods and stay at zero for methods that do not use them.
    """

    x: np.ndarray
    x_prev: np.ndarray
    k: int = 0
    m1: np.ndarray | None = None
    m2: np.ndarray | None = None

    @classmethod
    def initial(cls, x0) -> "OptimizerState":
        x0 = np.asarray(x0, dtype=float)
        return cls(x0.copy(), x0.copy(), 0, np.zeros_like(x0), np.zeros_like(x0))


def _checked_gradient(state: OptimizerState, g) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.shape != state.x.shape:
        raise ValueError(f"gradient shape {g.shape} != iterate shape {state.x.shape}")
    return g


def _next_state(state: OptimizerState, x_new, m1=None, m2=None) -> OptimizerState:
    """The state after one step to ``x_new``, keeping the moments not given."""
    return OptimizerState(x_new, state.x, state.k + 1,
                          state.m1 if m1 is None else m1,
                          state.m2 if m2 is None else m2)


def _adaptive_step(state: OptimizerState, eta, mhat, v, eps,
                   m1=None, m2=None) -> OptimizerState:
    """x' = x - eta mhat / sqrt(v + eps)."""
    if eta <= 0.0 or eps <= 0.0:
        raise ValueError("eta and eps must be > 0")
    return _next_state(state, state.x - eta * mhat / np.sqrt(v + eps), m1=m1, m2=m2)


def sgd_step(state: OptimizerState, g, eta: float) -> OptimizerState:
    """Plain gradient step x' = x - eta g (instantaneous forgetting)."""
    g = _checked_gradient(state, g)
    if eta <= 0.0:
        raise ValueError("eta must be > 0")
    return _next_state(state, state.x - eta * g)


def hb_step(state: OptimizerState, g, eta: float, beta: float) -> OptimizerState:
    """Momentum step x' = x + beta (x - x_prev) - eta g.

    ``beta`` may vary per call to realize an arbitrary momentum schedule;
    beta = 0 reduces to :func:`sgd_step`.
    """
    g = _checked_gradient(state, g)
    if eta <= 0.0:
        raise ValueError("eta must be > 0")
    if not (0.0 <= beta <= 1.0):
        raise ValueError(f"momentum beta must lie in [0, 1], got {beta}")
    x_new = state.x + beta * (state.x - state.x_prev) - eta * g
    return _next_state(state, x_new)


def memsgd_p_step(
    state: OptimizerState,
    g,
    eta: float,
    p: float,
    allow_small_p: bool = False,
) -> OptimizerState:
    """Polynomial-forgetting step with degree p:

        x' = x + k/(k+p) (x - x_prev) - p/(k+p) eta g.

    The implied gradient weights sum to one at every k, so constant
    gradient fields produce the exact update -eta g each step.  The rate
    guarantee needs eta <= (p-1)/(p L); a declared ``memsgd_discrete``
    bound is checked against that threshold before its runs.
    """
    g = _checked_gradient(state, g)
    if eta <= 0.0:
        raise ValueError("eta must be > 0")
    validate_memsgd_degree(p, allow_small_p)
    k = state.k
    momentum = k / (k + p)
    discount = p / (k + p)
    x_new = state.x + momentum * (state.x - state.x_prev) - discount * eta * g
    return _next_state(state, x_new)


def unbiased_hb_step(state: OptimizerState, g, eta: float, beta: float) -> OptimizerState:
    """Bias-corrected momentum: the geometric gradient average renormalized
    to unit mass before stepping.

    The running average m1 is divided by its weight mass 1 - beta**(k+1),
    so a constant gradient field yields the update -eta g at every step.
    Once beta**(k+1) is negligible this is :func:`hb_step` with learning
    rate (1-beta) eta.
    """
    g = _checked_gradient(state, g)
    if eta <= 0.0:
        raise ValueError("eta must be > 0")
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    m1 = beta * state.m1 + (1.0 - beta) * g
    corrected = m1 / (1.0 - beta ** (state.k + 1))
    return _next_state(state, state.x - eta * corrected, m1=m1)


def adam_step(
    state: OptimizerState,
    g,
    eta: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> OptimizerState:
    """One Adam step with both bias corrections.

        m' = beta1 m + (1-beta1) g          mhat = m'/(1 - beta1**(k+1))
        v' = beta2 v + (1-beta2) g*g        vhat = v'/(1 - beta2**(k+1))
        x' = x - eta mhat / sqrt(vhat + eps)
    """
    g = _checked_gradient(state, g)
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
        raise ValueError("beta1 and beta2 must lie in [0, 1)")
    k = state.k
    m1 = beta1 * state.m1 + (1.0 - beta1) * g
    m2 = beta2 * state.m2 + (1.0 - beta2) * g * g
    mhat = m1 / (1.0 - beta1 ** (k + 1))
    vhat = m2 / (1.0 - beta2 ** (k + 1))
    return _adaptive_step(state, eta, mhat, vhat, eps, m1, m2)


def adagrad_step(state: OptimizerState, g, eta: float, eps: float = 1e-8) -> OptimizerState:
    """Accumulated-squared-gradient preconditioning (constant memory).

        v' = v + g*g;   x' = x - eta g / sqrt(v' + eps)
    """
    g = _checked_gradient(state, g)
    m2 = state.m2 + g * g
    return _adaptive_step(state, eta, g, m2, eps, m2=m2)


def adamnc_step(
    state: OptimizerState,
    g,
    eta: float,
    beta1: float = 0.9,
    eps: float = 1e-8,
) -> OptimizerState:
    """Adam with iteration-dependent second-moment decay beta2 = k/(k+1).

    That choice turns v into the running average of all squared gradients
    (accumulated squared gradients divided by the step count), whose
    weights already sum to one, so no second-moment bias correction is
    applied.  The first moment is handled exactly as in Adam.
    """
    g = _checked_gradient(state, g)
    if not (0.0 <= beta1 < 1.0):
        raise ValueError("beta1 must lie in [0, 1)")
    k = state.k
    beta2 = k / (k + 1.0)
    m1 = beta1 * state.m1 + (1.0 - beta1) * g
    m2 = beta2 * state.m2 + (1.0 - beta2) * g * g
    mhat = m1 / (1.0 - beta1 ** (k + 1))
    return _adaptive_step(state, eta, mhat, m2, eps, m1, m2)


def polyadam_step(
    state: OptimizerState,
    g,
    eta: float,
    beta1: float = 0.9,
    *,
    p2: float,
    eps: float = 1e-8,
    allow_small_p: bool = False,
) -> OptimizerState:
    """Adam with polynomial memory of the squared gradients.

    The second moment is the degree-p2 polynomial-forgetting average,
    maintained in O(d) per step:

        v' = k/(k+p2) v + p2/(k+p2) g*g,

    which unrolls to the normalized weighted sum of all past squared
    gradients (the same weight schedule as the degree-p2 position update),
    so no bias correction is needed.  The first moment keeps Adam's
    exponential form with correction.
    """
    g = _checked_gradient(state, g)
    if not (0.0 <= beta1 < 1.0):
        raise ValueError("beta1 must lie in [0, 1)")
    validate_memsgd_degree(p2, allow_small_p)
    k = state.k
    m1 = beta1 * state.m1 + (1.0 - beta1) * g
    m2 = (k / (k + p2)) * state.m2 + (p2 / (k + p2)) * g * g
    mhat = m1 / (1.0 - beta1 ** (k + 1))
    return _adaptive_step(state, eta, mhat, m2, eps, m1, m2)
