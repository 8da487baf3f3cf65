"""Closed-form convergence bounds and identities used as assertions.

Every function here evaluates a formula with user-declared problem
constants; nothing is back-solved from data.  The bounds are upper bounds
on the expected suboptimality of a matching optimizer/diffusion, so the
harness checks trajectories against them, and the expansion helpers act as
brute-force oracles for the iterative implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BoundSpec",
    "memsgd_rate_bound",
    "poly_continuous_bound",
    "exp_cesaro_bound",
    "gamma_star",
    "optimal_viscosity",
    "strongly_convex_bound",
    "hb_sum_expand",
    "variance_reduction_factor",
]

# Bound kind -> the config method names (discrete methods or SDE models)
# whose trajectories the bound constrains.
BOUND_KINDS = {
    "memsgd_discrete": ("memsgd",),
    "poly_continuous": ("mg",),
    "exp_cesaro": ("mg", "hb_ode"),
    "strongly_convex_mg": ("mg",),
    "strongly_convex_hb": ("hb_ode", "nesterov"),
}


def memsgd_rate_bound(
    p: float, eta: float, k: int, d: int, varsigma2: float, dist2: float
) -> float:
    """Suboptimality bound for polynomial-forgetting SGD after k steps.

        (p-1)^2 ||x0-x*||^2 / (2 eta p (k+p-1))  +  d eta varsigma2 p / 2

    Requires p >= 2 and eta <= (p-1)/(pL); the second term is the
    stationary noise ball (proportional to p) and vanishes with the
    gradient variance.
    """
    if p < 2.0:
        raise ValueError("the discrete-time rate needs p >= 2")
    if eta <= 0.0 or k < 0 or varsigma2 < 0.0:
        raise ValueError("need eta > 0, k >= 0, varsigma2 >= 0")
    decay = (p - 1.0) ** 2 * dist2 / (2.0 * eta * p * (k + p - 1.0))
    ball = 0.5 * d * eta * varsigma2 * p
    return decay + ball


def poly_continuous_bound(
    p: float, t: float, d: int, sigma2: float, dist2: float
) -> float:
    """Last-iterate bound for the polynomial-memory diffusion at time t.

        (p-1)^2 ||x0-x*||^2 / (2 p t)  +  p d sigma2 / 2
    """
    if t <= 0.0 or sigma2 < 0.0:
        raise ValueError("need t > 0 and sigma2 >= 0")
    return (p - 1.0) ** 2 * dist2 / (2.0 * p * t) + 0.5 * p * d * sigma2


def exp_cesaro_bound(
    alpha: float,
    t: float,
    d: int,
    sigma2: float,
    f_gap0: float,
    dist2: float,
    tau: float = 1.0,
) -> float:
    """Time-averaged-iterate bound for constant-viscosity memory at time t.

        (f_gap0 + alpha dist2 / 2) / (alpha tau t)  +  d sigma2 / (2 tau)

    The noise ball does not depend on the viscosity alpha.
    """
    if alpha <= 0.0 or t <= 0.0 or not (0.0 < tau <= 1.0):
        raise ValueError("need alpha > 0, t > 0, tau in (0, 1]")
    return (f_gap0 + 0.5 * alpha * dist2) / (alpha * tau * t) + 0.5 * d * sigma2 / tau


def gamma_star(alpha: float, tau: float, mu_tilde: float) -> tuple[float, float]:
    """Optimal exponential decay rate under quadratic growth.

    Returns (gamma, alpha_max) with alpha_max = (tau+2)/2 * sqrt(mu_tilde)
    and

        gamma = tau alpha / (tau + 2)                     if alpha <= alpha_max
        gamma = (alpha - sqrt(alpha^2 - 2 mu_tilde tau))/2  otherwise.

    The two branches meet at alpha_max (gamma = tau sqrt(mu_tilde)/2 for
    tau <= 2); the discriminant in the second branch is non-negative
    whenever alpha >= alpha_max.
    """
    if alpha <= 0.0 or tau <= 0.0 or mu_tilde <= 0.0:
        raise ValueError("need alpha, tau, mu_tilde > 0")
    alpha_max = 0.5 * (tau + 2.0) * math.sqrt(mu_tilde)
    if alpha <= alpha_max:
        gamma = tau * alpha / (tau + 2.0)
    else:
        disc = alpha * alpha - 2.0 * mu_tilde * tau
        assert disc >= 0.0, "discriminant must be non-negative for alpha >= alpha_max"
        gamma = 0.5 * (alpha - math.sqrt(disc))
    return gamma, alpha_max


def optimal_viscosity(kind: str, mu: float) -> float:
    """Viscosity maximizing the exponential rate for the two diffusions.

    Memory diffusion (gradient premultiplied): 9 mu / 4.
    Heavy-ball diffusion (bare gradient): 3 sqrt(mu) / 2.
    """
    if mu <= 0.0:
        raise ValueError("need mu > 0")
    if kind == "mg":
        return 2.25 * mu
    if kind == "hb":
        return 1.5 * math.sqrt(mu)
    raise ValueError(f"unknown kind {kind!r}, expected 'mg' or 'hb'")


def strongly_convex_bound(
    kind: str,
    alpha: float,
    mu: float,
    t: float,
    d: int,
    sigma2: float,
    f_gap0: float,
    dist2: float,
) -> float:
    """Exponential-decay bound exp(-gamma t)(f_gap0 + c dist2) + d alpha sigma2/(2 gamma).

    ``kind`` picks the diffusion: 'mg' premultiplies the gradient by the
    viscosity (effective growth constant alpha*mu, dist2 coefficient
    (alpha-gamma)^2/(2 alpha)); 'hb' leaves the gradient bare (growth
    constant mu, coefficient (alpha-gamma)^2/2).  Convexity is assumed
    (tau = 1).
    """
    if kind == "mg":
        mu_tilde = alpha * mu
    elif kind == "hb":
        mu_tilde = mu
    else:
        raise ValueError(f"unknown kind {kind!r}, expected 'mg' or 'hb'")
    gamma, _ = gamma_star(alpha, 1.0, mu_tilde)
    if kind == "mg":
        coeff = (alpha - gamma) ** 2 / (2.0 * alpha)
    else:
        coeff = (alpha - gamma) ** 2 / 2.0
    return math.exp(-gamma * t) * (f_gap0 + coeff * dist2) + d * alpha * sigma2 / (
        2.0 * gamma
    )


def hb_sum_expand(betas, eta: float, grads, x0) -> np.ndarray:
    """Direct weighted-sum evaluation of the heavy-ball trajectory.

    From x_{-1} = x_0, the iterate after consuming gradients g_0..g_k is

        x_{k+1} = x_0 - eta * sum_i [ sum_{j<i} (prod_{h=j+1..i} beta_h) g_j + g_i ].

    Each step's weighted average is expanded from scratch (no recursion on
    the iterates), which makes this the independent oracle for the
    momentum stepper.  ``betas[i]`` is the momentum used at step i;
    ``betas[0]`` is irrelevant since the first step has no displacement.
    """
    grads = [np.asarray(g, dtype=float) for g in grads]
    betas = np.asarray(betas, dtype=float)
    if len(betas) != len(grads):
        raise ValueError("need one beta per gradient")
    x = np.asarray(x0, dtype=float).copy()
    for i in range(len(grads)):
        update = grads[i].copy()
        prod = 1.0
        for j in range(i - 1, -1, -1):
            prod *= betas[j + 1]
            update += prod * grads[j]
        x = x - eta * update
    return x


def variance_reduction_factor(beta: float, k: int) -> float:
    """Covariance shrink factor of the bias-corrected geometric average.

        (1-beta)(1+beta^(k+1)) / ((1-beta^(k+1))(1+beta))

    Equal to 1 at beta = 0 or k = 0, monotonically non-increasing in k,
    with limit (1-beta)/(1+beta).
    """
    if not (0.0 <= beta < 1.0):
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    if k < 0:
        raise ValueError("k must be >= 0")
    bk = beta ** (k + 1)
    return (1.0 - beta) * (1.0 + bk) / ((1.0 - bk) * (1.0 + beta))


@dataclass(frozen=True)
class BoundSpec:
    """A named bound with its problem constants, evaluable at any index.

    ``kind`` is one of the keys of :data:`BOUND_KINDS`.  The parameter
    mapping carries whatever the formula needs (p or alpha, eta,
    d, noise variance, initial distances, mu, tau).
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in BOUND_KINDS:
            raise ValueError(f"unknown bound kind {self.kind!r}")
        for name, value in self.params.items():
            if not math.isfinite(float(value)):
                raise ValueError(f"parameter {name} is not finite: {value}")
        for noise_key in ("varsigma2", "sigma2"):
            if self.params.get(noise_key, 0.0) < 0.0:
                raise ValueError(f"{noise_key} must be >= 0")

    def evaluate(self, index: float) -> float:
        """Bound value at iteration count or time ``index``."""
        p = self.params
        if self.kind == "memsgd_discrete":
            return memsgd_rate_bound(
                p["p"], p["eta"], int(index), int(p["d"]),
                p.get("varsigma2", 0.0), p["dist2"],
            )
        if self.kind == "poly_continuous":
            return poly_continuous_bound(
                p["p"], float(index), int(p["d"]), p.get("sigma2", 0.0), p["dist2"]
            )
        if self.kind == "exp_cesaro":
            return exp_cesaro_bound(
                p["alpha"], float(index), int(p["d"]), p.get("sigma2", 0.0),
                p["f_gap0"], p["dist2"], p.get("tau", 1.0),
            )
        kind = "mg" if self.kind == "strongly_convex_mg" else "hb"
        return strongly_convex_bound(
            kind, p["alpha"], p["mu"], float(index), int(p["d"]),
            p.get("sigma2", 0.0), p["f_gap0"], p["dist2"],
        )
