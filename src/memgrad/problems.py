"""Closed-form test objectives with exact constants and gradient noise.

Objectives are immutable bundles of callables plus whatever constants are
known in closed form (smoothness L, growth mu, optimum).  Stochastic
gradients are produced by a separate noise model so the steppers stay
deterministic; RNG streams are supplied by the caller.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Objective",
    "NoiseModel",
    "quadratic_diag",
    "quartic_2d",
    "constant_field",
    "logistic_synthetic",
    "noise_draws",
    "stochastic_gradient",
    "gradient_variance_bound",
]


@dataclass(frozen=True)
class Objective:
    """A differentiable cost with oracles and declared constants.

    ``value(X)`` and ``grad(X)`` broadcast over the rows of X, one point per
    row.  ``grad_component(i, x)`` and ``n_components`` are present for
    finite-sum problems and absent otherwise.  ``L`` may be a global or a
    documented box-restricted smoothness constant.
    """

    dim: int
    value: Callable[[np.ndarray], np.ndarray | float]
    grad: Callable[[np.ndarray], np.ndarray]
    name: str = "objective"
    f_star: float | None = None
    x_star: np.ndarray | None = None
    L: float | None = None
    mu: float | None = None
    grad_component: Callable[[int, np.ndarray], np.ndarray] | None = None
    n_components: int | None = None

    def f_gap(self, x):
        """f(x) - f*, one per row of a batch; requires a declared optimum value."""
        if self.f_star is None:
            raise ValueError(f"objective {self.name!r} declares no optimal value")
        return self.value(np.asarray(x, dtype=float)) - self.f_star


@dataclass(frozen=True)
class NoiseModel:
    """How stochastic gradients are produced.

    kind 'none': the exact gradient.
    kind 'gaussian': grad(x) + sigma * xi with standard normal xi; sigma
        may be a scalar or a (d, d) matrix, and is held as a float or a
        float array.
    kind 'finite_sum': a uniformly sampled component gradient of a
        finite-sum objective.
    """

    kind: str = "none"
    sigma: float | np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "finite_sum"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "gaussian" and self.sigma is None:
            raise ValueError("gaussian noise needs a sigma")
        if self.sigma is not None:
            sigma = np.asarray(self.sigma, dtype=float)
            if (sigma.ndim not in (0, 2) or sigma.shape[:1] != sigma.shape[1:]
                    or not np.isfinite(sigma).all()):
                raise ValueError(f"sigma must be a finite scalar or a square matrix, "
                                 f"got {self.sigma!r}")
            object.__setattr__(self, "sigma", float(sigma) if sigma.ndim == 0 else sigma)


def noise_draws(obj: Objective, noise: NoiseModel, rng: np.random.Generator, steps: int,
                block: int):
    """An iterator over the noise of ``steps`` successive stochastic gradients
    drawn from rng: a length-dim standard-normal vector (gaussian), a
    component index (finite_sum) or None (none) per step.

    The draws come a block of at most ``block`` values at a time;
    ``standard_normal((b, d))`` and ``integers(n, size=b)`` give the values
    of b successive one-step draws, so step k sees what the k-th draw alone
    would give.
    """
    if noise.kind == "none":
        return itertools.repeat(None, steps)
    if noise.kind == "gaussian":
        rows = max(1, block // obj.dim)
        blocks = (rng.standard_normal((min(rows, steps - start), obj.dim))
                  for start in range(0, steps, rows))
    else:
        if obj.grad_component is None or obj.n_components is None:
            raise ValueError(f"objective {obj.name!r} has no finite-sum components")
        blocks = (rng.integers(obj.n_components, size=min(block, steps - start)).tolist()
                  for start in range(0, steps, block))
    return itertools.chain.from_iterable(blocks)


def stochastic_gradient(obj: Objective, noise: NoiseModel, x, draw) -> np.ndarray:
    """One stochastic gradient at x, unbiased conditioned on x.  ``draw`` is
    one step's noise from :func:`noise_draws`, or a Generator to draw it from."""
    if isinstance(draw, np.random.Generator):
        draw = next(noise_draws(obj, noise, draw, 1, 1))
    x = np.asarray(x, dtype=float)
    if noise.kind == "none":
        return np.asarray(obj.grad(x), dtype=float)
    if noise.kind == "gaussian":
        g = np.asarray(obj.grad(x), dtype=float)
        sigma = noise.sigma
        return g + (sigma * draw if isinstance(sigma, float) else sigma @ draw)
    return np.asarray(obj.grad_component(draw, x), dtype=float)


def quadratic_diag(coeffs) -> Objective:
    """f(x) = sum_i c_i x_i^2 with non-negative coefficients.

    The Hessian is diag(2c), so L = 2 max c and mu = 2 min c; the optimum
    sits at the origin with value 0.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coeffs must be a non-empty vector")
    if not np.all(np.isfinite(c)) or np.any(c < 0.0):
        raise ValueError("coefficients must be finite and >= 0")
    d = c.size

    def value(x):
        return np.sum(c * x * x, axis=-1)

    def grad(x):
        return 2.0 * c * x

    return Objective(
        dim=d,
        value=value,
        grad=grad,
        name=f"quadratic_diag({', '.join(repr(v) for v in c.tolist())})",
        f_star=0.0,
        x_star=np.zeros(d),
        L=2.0 * float(c.max()),
        mu=2.0 * float(c.min()),
    )


QUARTIC_BOX_HALF_WIDTH = 2.0


def quartic_2d() -> Objective:
    """f(x1, x2) = 0.8 x1^4 + 0.4 x2^4, convex with optimum at the origin.

    The gradient is not globally Lipschitz; the declared L is the largest
    Hessian eigenvalue on the box [-2, 2]^2 (12 * 0.8 * 2^2 = 38.4), which
    covers trajectories started inside the box.
    """

    # x.T keeps one point's coordinates float64 scalars, so their powers stay scalar.
    def value(x):
        xt = x.T
        return 0.8 * xt[0] ** 4 + 0.4 * xt[1] ** 4

    def grad(x):
        xt = x.T
        return np.array([3.2 * xt[0] ** 3, 1.6 * xt[1] ** 3]).T

    box_L = 12.0 * 0.8 * QUARTIC_BOX_HALF_WIDTH**2
    return Objective(
        dim=2,
        value=value,
        grad=grad,
        name="quartic_2d",
        f_star=0.0,
        x_star=np.zeros(2),
        L=box_L,
    )


def constant_field(c) -> Objective:
    """A constant gradient field grad(x) = c with linear value <c, x>.

    Has no minimizer, so f_star and x_star stay undeclared; consumers that
    need a gap reject it.
    """
    c = np.asarray(c, dtype=float)

    def value(x):
        return x @ c

    def grad(x):
        return c.copy()

    return Objective(dim=c.size, value=value, grad=grad, name="constant_field")


def logistic_synthetic(
    n: int,
    dim: int,
    seed: int,
    l2: float = 0.0,
    label_noise: float = 0.1,
) -> Objective:
    """Binary logistic regression on generated data, as a finite sum.

    Features are standard Gaussian rows, labels come from a planted unit
    separator with ``label_noise`` flip probability, and the loss is

        (1/n) sum_i log(1 + exp(-y_i <w, a_i>))  +  l2/2 ||w||^2.

    L = max_i ||a_i||^2 / 4 + l2 (the logistic curvature bound); l2 > 0
    additionally declares mu = l2.  Component gradients are exposed for
    minibatch sampling, and the generator is fully determined by the seed.
    """
    if n < 1 or dim < 1:
        raise ValueError("need n >= 1 and dim >= 1")
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, dim))
    planted = rng.standard_normal(dim)
    planted /= np.linalg.norm(planted)
    labels = np.sign(features @ planted)
    labels[labels == 0.0] = 1.0
    flips = rng.random(n) < label_noise
    labels[flips] *= -1.0

    # Row-major products, so a batch of iterates takes one GEMM.
    def value(w):
        margins = labels * (w @ features.T)
        return (np.mean(np.logaddexp(0.0, -margins), axis=-1)
                + 0.5 * l2 * np.sum(w * w, axis=-1))

    def grad(w):
        margins = labels * (w @ features.T)
        # d/dw log(1+exp(-m)) = -y a * sigmoid(-m)
        weights = -labels / (1.0 + np.exp(margins))
        return weights @ features / n + l2 * w

    def grad_component(i, w):
        a, y = features[i], labels[i]
        margin = y * np.dot(a, w)
        try:
            denom = 1.0 + math.exp(margin)
        except OverflowError:  # the weight 1 / (1 + e^margin) is 0.0 in floating point
            denom = math.inf
        return -y * a / denom + l2 * w

    # One row at a time: features**2 would be a second (n, dim) matrix.
    L = max(float(np.sum(row * row)) for row in features) / 4.0 + l2
    return Objective(
        dim=dim,
        value=value,
        grad=grad,
        name=f"logistic_synthetic(n={n}, dim={dim}, seed={seed})",
        L=L,
        mu=l2 if l2 > 0.0 else None,
        grad_component=grad_component,
        n_components=n,
    )


def empirical_gradient_covariance(obj: Objective, x) -> np.ndarray:
    """(1/n) sum_i (g_i - g)(g_i - g)^T over the finite-sum components."""
    if obj.grad_component is None or obj.n_components is None:
        raise ValueError(f"objective {obj.name!r} has no finite-sum components")
    x = np.asarray(x, dtype=float)
    grads = np.stack([obj.grad_component(i, x) for i in range(obj.n_components)])
    centered = grads - grads.mean(axis=0)
    return centered.T @ centered / obj.n_components


def gradient_variance_bound(obj: Objective, xs) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the empirical gradient covariance over samples.

    Returns (bound, x_attaining_it); used to parameterize discrete-rate
    bounds for finite-sum problems.
    """
    best, best_x = 0.0, None
    for x in xs:
        cov = empirical_gradient_covariance(obj, x)
        top = float(np.max(np.linalg.eigvalsh(cov)))
        if best_x is None or top > best:
            best, best_x = top, np.asarray(x, dtype=float)
    if best_x is None:
        raise ValueError("need at least one sample point")
    return best, best_x
