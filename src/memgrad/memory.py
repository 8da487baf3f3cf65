"""Memory functions and gradient-weight schedules.

A memory function m(t) is non-negative, strictly increasing, and has
m(0) = 0.  Its derivative controls how fast past gradients are forgotten:
the continuous weight of the gradient seen at time s, looking back from
time t, is w(s, t) = m'(s)/m(t), and these weights always integrate to
one.  The discrete analogues are the MemSGD-p weight schedules (polynomial
forgetting) and the geometric heavy-ball weights with optional bias
correction (exponential forgetting).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MemoryFunction",
    "continuous_weight",
    "weight_normalization",
    "discrete_weights_memsgd",
    "memsgd_weight_sums",
    "discrete_weights_hb",
    "bias_correction_factor",
]


@dataclass(frozen=True)
class MemoryFunction:
    """A forgetting law m(t), identified by kind and an optional parameter.

    Kinds and their m(t):

    ==============  =====================  ==================
    kind            m(t)                   m'(t)/m(t)
    ==============  =====================  ==================
    decaying        log(1 + t)             1/((1+t) log(1+t))
    polynomial(p)   t**p                   p/t
    exponential(a)  exp(a t) - 1           a/(1 - exp(-a t))
    superexp(a)     exp(t**a) - 1          a t^(a-1)/(1 - exp(-t**a))
    ==============  =====================  ==================

    ``constant``, ``square_root``, ``linear`` and ``quadratic`` are aliases
    for polynomial memory with p = 1, 1.5, 2 and 3.  Instantaneous
    forgetting has no m(t): it is plain SGD (the ``sgd`` method), not a kind.
    """

    kind: str
    param: float | None = None

    _POLY_ALIASES = {
        "constant": 1.0,
        "square_root": 1.5,
        "linear": 2.0,
        "quadratic": 3.0,
    }
    _KINDS = ("decaying", "polynomial", "exponential", "superexp")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown memory function kind {self.kind!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def decaying(cls) -> "MemoryFunction":
        return cls("decaying")

    @classmethod
    def polynomial(cls, p: float) -> "MemoryFunction":
        if not (p > 0):
            raise ValueError(f"polynomial memory needs p > 0, got {p}")
        return cls("polynomial", float(p))

    @classmethod
    def constant(cls) -> "MemoryFunction":
        return cls.polynomial(1.0)

    @classmethod
    def square_root(cls) -> "MemoryFunction":
        return cls.polynomial(1.5)

    @classmethod
    def linear(cls) -> "MemoryFunction":
        return cls.polynomial(2.0)

    @classmethod
    def quadratic(cls) -> "MemoryFunction":
        return cls.polynomial(3.0)

    @classmethod
    def exponential(cls, alpha: float) -> "MemoryFunction":
        if not (alpha > 0):
            raise ValueError(f"exponential memory needs alpha > 0, got {alpha}")
        return cls("exponential", float(alpha))

    @classmethod
    def super_exponential(cls, alpha: float) -> "MemoryFunction":
        if not (alpha > 0):
            raise ValueError(f"super-exponential memory needs alpha > 0, got {alpha}")
        return cls("superexp", float(alpha))

    @classmethod
    def from_name(cls, name: str, param: float | None = None) -> "MemoryFunction":
        """Build from a config-style name such as ``'quadratic'`` or
        ``'polynomial'``.  ``param`` is required by the names that take one
        and rejected by the others (``decaying`` and the polynomial aliases)."""
        name = name.lower()
        with_param = {"polynomial": (cls.polynomial, "a degree"),
                      "exponential": (cls.exponential, "an alpha"),
                      "superexp": (cls.super_exponential, "an alpha"),
                      "super_exponential": (cls.super_exponential, "an alpha")}
        if name in with_param:
            build, what = with_param[name]
            if param is None:
                raise ValueError(f"{name} memory needs {what} parameter")
            return build(param)
        if name in cls._POLY_ALIASES:
            memory = cls.polynomial(cls._POLY_ALIASES[name])
        else:
            memory = cls(name)  # decaying; __post_init__ rejects an unknown kind
        if param is not None:
            raise ValueError(f"{name} memory takes no parameter, got {param!r}")
        return memory

    # -- evaluation --------------------------------------------------------

    def value(self, t):
        """m(t) for t >= 0.  Accepts scalars or arrays."""
        if self.kind == "decaying":
            return np.log1p(t)
        if self.kind == "polynomial":
            return np.power(t, self.param)
        if self.kind == "exponential":
            return np.expm1(self.param * np.asarray(t, dtype=float))
        return np.expm1(np.power(np.asarray(t, dtype=float), self.param))  # superexp

    def derivative(self, t):
        """m'(t) for t > 0 (t = 0 allowed where the limit is finite)."""
        if self.kind == "decaying":
            return 1.0 / (1.0 + np.asarray(t, dtype=float))
        if self.kind == "polynomial":
            p = self.param
            return p * np.power(t, p - 1.0)
        if self.kind == "exponential":
            a = self.param
            return a * np.exp(a * np.asarray(t, dtype=float))
        a, t = self.param, np.asarray(t, dtype=float)  # superexp
        return a * np.power(t, a - 1.0) * np.exp(np.power(t, a))

    def ode_coefficient(self, t):
        """m'(t)/m(t), the viscosity / gradient coefficient of the memory ODE.

        Evaluated in forms that stay accurate when m(t) overflows, e.g.
        a/(1 - exp(-a t)) for exponential memory.
        """
        t = np.asarray(t, dtype=float)
        if self.kind == "decaying":
            return 1.0 / ((1.0 + t) * np.log1p(t))
        if self.kind == "polynomial":
            return self.param / t
        if self.kind == "exponential":
            a = self.param
            return a / -np.expm1(-a * t)
        a = self.param  # superexp
        return a * np.power(t, a - 1.0) / -np.expm1(-np.power(t, a))


def continuous_weight(mf: MemoryFunction, s, t):
    """Weight w(s, t) = m'(s)/m(t) of the gradient at time s seen from time t.

    Requires 0 <= s <= t and t > 0; the weights are non-negative and
    integrate to one over s in [0, t].
    """
    return mf.derivative(s) / mf.value(t)


# Simpson panels and start point of the weight_normalization quadrature.
NORMALIZATION_PANELS = 10_000
NORMALIZATION_EPS = 1e-12


def weight_normalization(mf: MemoryFunction, t: float) -> float:
    """Quadrature of the continuous weights: integral of m'(s)/m(t) over
    [NORMALIZATION_EPS, t].

    Composite Simpson on the union of a log-spaced and a uniform mesh with
    ``NORMALIZATION_PANELS`` panels in total.  The log-spaced half keeps the
    rule accurate when m' has an unbounded derivative at s = 0 (e.g.
    super-exponential memory with alpha < 1); the uniform half resolves
    integrands whose mass concentrates near s = t (exponential memory at
    large t).  The result is 1 up to quadrature error and the
    O(m(eps)/m(t)) truncation from the eps start.
    """
    if not (t > NORMALIZATION_EPS):
        raise ValueError(f"need t > {NORMALIZATION_EPS}, got {t}")
    nodes = _normalization_mesh(float(t))
    a, b = nodes[:-1], nodes[1:]
    dm = mf.derivative(nodes)
    integral = np.sum((b - a) / 6.0 * (dm[:-1] + 4.0 * mf.derivative(0.5 * (a + b)) + dm[1:]))
    return float(integral / mf.value(t))


@functools.lru_cache(maxsize=8)
def _normalization_mesh(t: float) -> np.ndarray:
    """The read-only quadrature nodes of :func:`weight_normalization` up to t."""
    eps, half = NORMALIZATION_EPS, NORMALIZATION_PANELS // 2
    nodes = np.union1d(np.geomspace(eps, t, half + 1), np.linspace(eps, t, half + 1))
    nodes.flags.writeable = False
    return nodes


def validate_memsgd_degree(p: float, allow_small_p: bool) -> None:
    """The degree rule of polynomial forgetting: p >= 2, or 1 < p < 2 if allowed."""
    if p >= 2.0:
        return
    if allow_small_p and p > 1.0:
        return
    raise ValueError(
        f"polynomial degree p = {p} below 2 is outside the discrete-time "
        "guarantee; pass allow_small_p=True to override"
    )


def discrete_weights_memsgd(
    p: float, k: int, allow_small_p: bool = False
) -> np.ndarray:
    """Gradient weights w(0..k, k) of the polynomial-forgetting recursion.

    The step of the method after k+1 gradient evaluations is
    x_{k+1} - x_k = -eta * sum_j w(j, k) g_j with

        w(j, k) = prod_{h=j+1..k} h/(h+p) * p/(j+p),

    which for integer p collapses to the closed form
    p*(j+1)***(j+p-1) / ((k+1)***(k+p)).  The weights sum to one exactly
    and grow like j**(p-1).  Evaluated for real p >= 2 (smaller degrees
    only behind ``allow_small_p``) as a running product, which is the
    recursion's own arithmetic.
    """
    validate_memsgd_degree(p, allow_small_p)
    if k < 0:
        raise ValueError("iteration index k must be >= 0")
    if k == 0:
        return np.array([1.0])
    h = np.arange(1.0, k + 1.0)
    w0 = float(np.prod(h / (h + p)))
    j = np.arange(0.0, k)
    growth = np.concatenate(([1.0], np.cumprod((j + p) / (j + 1.0))))
    return w0 * growth


def memsgd_weight_sums(p: float, k_max: int, allow_small_p: bool = False) -> np.ndarray:
    """Sum of the polynomial-forgetting weights for every k = 0..k_max.

    Same arithmetic as :func:`discrete_weights_memsgd` (first weight times
    the cumulative growth factors), evaluated for all k in one O(k_max)
    pass.  Used to check normalization over large iteration ranges without
    quadratic cost.
    """
    validate_memsgd_degree(p, allow_small_p)
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    j = np.arange(0.0, k_max)
    growth = np.concatenate(([1.0], np.cumprod((j + p) / (j + 1.0))))
    growth_prefix = np.cumsum(growth)
    h = np.arange(1.0, k_max + 1.0)
    first_weight = np.concatenate(([1.0], np.cumprod(h / (h + p))))
    return first_weight * growth_prefix


def discrete_weights_hb(
    beta: float, k: int, bias_corrected: bool = False
) -> np.ndarray:
    """Geometric heavy-ball weights beta**(k-j) for j = 0..k.

    With ``bias_corrected`` the weights are rescaled by
    (1-beta)/(1-beta**(k+1)) so they sum to one; at beta = 0 all mass sits
    on the latest gradient either way.
    """
    if not (0.0 <= beta < 1.0):
        raise ValueError(f"momentum beta must lie in [0, 1), got {beta}")
    if k < 0:
        raise ValueError("iteration index k must be >= 0")
    w = np.power(beta, np.arange(k, -1, -1, dtype=float))
    if bias_corrected and beta > 0.0:
        w = w * bias_correction_factor(beta, k)
    return w


def bias_correction_factor(beta: float, k: int) -> float:
    """Normalizer (1-beta)/(1-beta**(k+1)) of a geometric gradient average.

    Under constant gradients the uncorrected geometric sum has expectation
    (1-beta**(k+1))/(1-beta) times the gradient; dividing by that makes the
    estimate unbiased.  For large k the power underflows to zero and the
    factor lands exactly on its limit 1-beta.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if k < 0:
        raise ValueError("iteration index k must be >= 0")
    return (1.0 - beta) / (1.0 - beta ** (k + 1))
