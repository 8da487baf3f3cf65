"""Closed-form convergence bounds and identities used as assertions.

Every function here evaluates a formula with user-declared problem
constants; nothing is back-solved from data.  The bounds are upper bounds
on the expected suboptimality of a matching optimizer/diffusion, so the
harness checks trajectories against them, and the expansion helpers act as
brute-force oracles for the iterative implementations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
    "poly_memory_ode_series",
    "variance_reduction_factor",
]


class BoundKind(NamedTuple):
    """A bound kind's formula (the name of a function in this module), the
    config method names (discrete methods or SDE models) whose trajectories
    it constrains, the formula's index argument (iteration count ``k`` or
    time ``t``), its noise-variance argument (0 when not given), and the
    arguments the kind fixes.  The formula's signature declares the params."""

    formula: str
    families: tuple
    index: str = "t"
    noise: str = "sigma2"
    fixed: tuple = ()


BOUND_KINDS = {
    "memsgd_discrete": BoundKind("memsgd_rate_bound", ("memsgd",), index="k",
                                 noise="varsigma2"),
    "poly_continuous": BoundKind("poly_continuous_bound", ("mg",)),
    "exp_cesaro": BoundKind("exp_cesaro_bound", ("mg", "hb_ode")),
    "strongly_convex_mg": BoundKind("strongly_convex_bound", ("mg",),
                                    fixed=(("kind", "mg"),)),
    "strongly_convex_hb": BoundKind("strongly_convex_bound", ("hb_ode", "nesterov"),
                                    fixed=(("kind", "hb"),)),
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
    if alpha <= 0.0 or t <= 0.0 or not (0.0 < tau <= 1.0) or sigma2 < 0.0:
        raise ValueError("need alpha > 0, t > 0, tau in (0, 1], sigma2 >= 0")
    return (f_gap0 + 0.5 * alpha * dist2) / (alpha * tau * t) + 0.5 * d * sigma2 / tau


def gamma_star(alpha, tau, mu_tilde):
    """Optimal exponential decay rate under quadratic growth.

    Returns (gamma, alpha_max) with alpha_max = (tau+2)/2 * sqrt(mu_tilde)
    and

        gamma = tau alpha / (tau + 2)                     if alpha <= alpha_max
        gamma = (alpha - sqrt(alpha^2 - 2 mu_tilde tau))/2  otherwise.

    The two branches meet at alpha_max (gamma = tau sqrt(mu_tilde)/2 for
    tau <= 2).  The second is evaluated as alpha tau r^2 / (1 + sqrt(q)),
    r = sqrt(mu_tilde)/alpha, q = 1 - 2 tau r^2, which neither overflows nor
    cancels; q >= ((tau-2)/(tau+2))^2 there, so q is negative by at most
    rounding, which the root clamps to 0.  The arguments broadcast; each
    branch is evaluated on its own elements only, and scalars give floats.
    """
    alpha, tau, mu_tilde = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                                 for v in (alpha, tau, mu_tilde)))
    if (alpha <= 0.0).any() or (tau <= 0.0).any() or (mu_tilde <= 0.0).any():
        raise ValueError("need alpha, tau, mu_tilde > 0")
    gamma = np.empty(alpha.shape)
    # Overflow and inf arithmetic stay quiet, as they do on Python floats.
    with np.errstate(over="ignore", invalid="ignore"):
        alpha_max = 0.5 * (tau + 2.0) * np.sqrt(mu_tilde)
        lower = alpha <= alpha_max
        gamma[lower] = tau[lower] * alpha[lower] / (tau[lower] + 2.0)
        a, t, m = alpha[~lower], tau[~lower], mu_tilde[~lower]
        r = np.sqrt(m) / a
        tau_r2 = t * r * r
        q = 1.0 - 2.0 * tau_r2
        gamma[~lower] = a * tau_r2 / (1.0 + np.sqrt(np.maximum(q, 0.0)))
    return (float(gamma), float(alpha_max)) if gamma.ndim == 0 else (gamma, alpha_max)


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
    if kind not in ("mg", "hb"):
        raise ValueError(f"unknown kind {kind!r}, expected 'mg' or 'hb'")
    if sigma2 < 0.0:
        raise ValueError("need sigma2 >= 0")
    gamma, _ = gamma_star(alpha, 1.0, alpha * mu if kind == "mg" else mu)
    coeff = (alpha - gamma) ** 2 / (2.0 * alpha if kind == "mg" else 2.0)
    ball = d * alpha * sigma2 / (2.0 * gamma)
    return math.exp(-gamma * t) * (f_gap0 + coeff * dist2) + ball


def hb_sum_expand(betas, eta: float, grads, x0) -> np.ndarray:
    """Direct weighted-sum evaluation of the heavy-ball trajectory.

    From x_{-1} = x_0, the iterate after consuming gradients g_0..g_k is

        x_{k+1} = x_0 - eta * sum_i sum_{j<=i} w[i, j] g_j,

    with w[i, j] = prod_{h=j+1..i} beta_h (1 on the diagonal), built by one
    cumulative product down the columns of a triangular matrix.  The sum
    is expanded from scratch (no recursion on the iterates), which makes
    this the independent oracle for the momentum stepper.  ``betas[i]`` is
    the momentum used at step i; ``betas[0]`` is irrelevant since the first
    step has no displacement.
    """
    grads = np.asarray(grads, dtype=float)
    betas = np.asarray(betas, dtype=float)
    if len(betas) != len(grads):
        raise ValueError("need one beta per gradient")
    below = np.tri(len(betas), k=-1, dtype=bool)
    w = np.tril(np.cumprod(np.where(below, betas[:, None], 1.0), axis=0))
    return np.asarray(x0, dtype=float) - eta * (w.sum(axis=0) @ grads)


def poly_memory_ode_series(p: float, lam, t, x0) -> np.ndarray:
    """Noise-free path of memory m(t) = t**p on a quadratic of per-coordinate
    curvature ``lam``, shape (len(t), len(lam)): the solution of
    X'' + (p/t) X' + (p lam/t) X = 0, X(0) = x0, that is bounded at t = 0.
    It is the series sum_m b_m t**m, b_0 = x0, b_{m+1} = -p lam b_m /
    ((m+1)(m+p)), summed until a term leaves the sum unchanged.  Its terms
    alternate and peak near exp(2 sqrt(p lam t)), so p lam t is capped at
    100, where cancellation costs about nine digits."""
    z = -p * np.asarray(lam, dtype=float) * np.asarray(t, dtype=float)[:, None]
    if not (p > 0.0) or not (np.abs(z) <= 100.0).all():
        raise ValueError("need p > 0 and finite p lam t <= 100")
    total = term = np.broadcast_to(np.asarray(x0, dtype=float), z.shape)
    for m in itertools.count():
        term = term * z / ((m + 1) * (m + p))
        if np.array_equal(total + term, total):
            return total
        total = total + term


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

    ``kind`` is one of the keys of :data:`BOUND_KINDS`, and ``params`` must
    bind to the kind's formula: every argument but the index and the fixed
    ones, the noise variance and ``tau`` optional.  The formula is evaluated
    once at index 1, so its own checks reject a bad value at construction.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in BOUND_KINDS:
            raise ValueError(f"unknown bound kind {self.kind!r}")
        for name, value in self.params.items():
            if not math.isfinite(float(value)):
                raise ValueError(f"parameter {name} is not finite: {value}")
        try:
            self._formula()(**self._arguments(1.0))
        except (TypeError, OverflowError) as err:
            raise ValueError(f"bound {self.kind}: {err}") from None

    def _formula(self):
        return globals()[BOUND_KINDS[self.kind].formula]

    def _arguments(self, index) -> dict:
        kind = BOUND_KINDS[self.kind]
        args = {kind.noise: 0.0, **self.params}
        for name, value in (*kind.fixed, (kind.index, index)):
            if name in self.params:
                raise TypeError(f"{name!r} is set by the bound kind, not a param")
            args[name] = value
        return args

    def evaluate(self, index: float) -> float:
        """Bound value at iteration count or time ``index``, which must be finite."""
        if not math.isfinite(index):
            raise ValueError(f"{BOUND_KINDS[self.kind].index} must be finite, got {index!r}")
        return self._formula()(**self._arguments(float(index)))
