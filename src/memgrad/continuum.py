"""Continuous-time models and their integrators.

Three phase-space systems over (X, V):

* ``hb_ode``  -- dV = -a(t) V dt - [grad f(X) dt + sigma dB]; general
  viscosity a(t), gradient and noise unscaled.
* ``nesterov`` -- the same system with a(t) = 3/t.
* ``mg``      -- dV = -c(t) V dt - c(t) [grad f(X) dt + sigma dB] with
  c(t) = m'(t)/m(t) for a memory function m; drift, gradient and noise all
  carry the memory coefficient.

All coefficients with a 1/t blow-up make the start of integration stiff,
so the trajectory integrators take stability-limited substeps (local step
capped at ``kappa`` / friction) until the requested step h is safe; a
single :func:`sde_step` is one plain Euler-Maruyama update, which for the
constant-volatility systems reproduced here coincides with Milstein.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from memgrad.memory import MemoryFunction

__all__ = [
    "PhaseState",
    "MODELS",
    "SdeSpec",
    "SecondMomentState",
    "TrajectoryResult",
    "DivergenceError",
    "nesterov_sde",
    "memory_sde",
    "hb_sde",
    "semi_implicit_euler_step",
    "sde_step",
    "integrate_trajectory",
    "sample_paths",
    "ito_isometry_mc",
    "variance_ode_rhs",
    "integrate_variance_ode",
    "time_warp_tau",
    "warp_equivalence_check",
]


class DivergenceError(RuntimeError):
    """Integration produced non-finite state; carries the first bad time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class PhaseState:
    """Position, velocity, and current time of a second-order system."""

    x: np.ndarray
    v: np.ndarray
    t: float


# Model name -> name of its constructor below, looked up on this module at
# each use (bench/spans.py traces by replacing module attributes).
MODELS = {"nesterov": "nesterov_sde", "mg": "memory_sde", "hb_ode": "hb_sde"}


@dataclass(frozen=True)
class SdeSpec:
    """A phase-space model, its gradient field, and its volatility.

    ``grad`` must map a point to a gradient of the same shape and, for
    ensemble integration, broadcast over a leading path axis (true for
    diagonal quadratics and constant fields).  ``sigma`` may be None or 0
    (deterministic), a scalar, a (d, d) matrix, or a callable x -> matrix
    hook for state-dependent volatility (single-path integration only;
    Euler-Maruyama is then weak order one, not Milstein).
    """

    model: str
    grad: Callable[[np.ndarray], np.ndarray]
    dim: int
    viscosity: float | Callable[[float], float] | None = None
    memory: MemoryFunction | None = None
    sigma: float | np.ndarray | Callable | None = None
    eps_start: float = 1e-12

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == "hb_ode" and self.viscosity is None:
            raise ValueError("hb_ode needs a viscosity a(t)")
        if self.model == "mg":
            if self.memory is None:
                raise ValueError("mg needs a memory function")
            if self.memory.kind == "instantaneous":
                raise ValueError(
                    "instantaneous forgetting is first-order gradient flow, "
                    "not a phase-space model"
                )
        if not (self.eps_start > 0.0):
            raise ValueError("eps_start must be > 0")

    # -- time-dependent coefficients ------------------------------------

    def friction(self, t: float) -> float:
        """Coefficient multiplying -V in the velocity drift."""
        if self.model == "hb_ode":
            a = self.viscosity
            return float(a(t)) if callable(a) else float(a)
        if self.model == "nesterov":
            return 3.0 / t
        return float(self.memory.ode_coefficient(t))

    def gradient_scale(self, t: float) -> float:
        """Coefficient multiplying the gradient (and the noise) term."""
        if self.model == "mg":
            return float(self.memory.ode_coefficient(t))
        return 1.0

    def is_deterministic(self) -> bool:
        if self.sigma is None or callable(self.sigma):
            return self.sigma is None
        return not np.any(np.asarray(self.sigma) != 0.0)

    def noise_increment(self, x, t: float, sqrt_h: float, rng) -> np.ndarray:
        """sigma * sqrt(h) * xi with xi standard normal, shaped like x."""
        xi = rng.standard_normal(np.shape(x))
        sigma = self.sigma
        if callable(sigma):
            sigma = sigma(x)
        if np.isscalar(sigma):
            return float(sigma) * sqrt_h * xi
        return sqrt_h * (xi @ np.asarray(sigma, dtype=float).T)


def nesterov_sde(grad, dim, sigma=None, eps_start: float = 1e-12) -> SdeSpec:
    return SdeSpec("nesterov", grad=grad, dim=dim, sigma=sigma, eps_start=eps_start)


def memory_sde(
    grad, dim, memory: MemoryFunction, sigma=None, eps_start: float = 1e-12
) -> SdeSpec:
    return SdeSpec(
        "mg", grad=grad, dim=dim, memory=memory, sigma=sigma, eps_start=eps_start
    )


def hb_sde(grad, dim, viscosity, sigma=None, eps_start: float = 1e-12) -> SdeSpec:
    return SdeSpec(
        "hb_ode", grad=grad, dim=dim, viscosity=viscosity, sigma=sigma,
        eps_start=eps_start,
    )


def _require_finite(x, v, t: float) -> None:
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
        raise DivergenceError(f"non-finite state at t = {t}", time=t)


def semi_implicit_euler_step(state: PhaseState, spec: SdeSpec, h: float) -> PhaseState:
    """Velocity-first Euler step of the deterministic heavy-ball system:

        v' = v + h (-a(t) v - grad f(x));   x' = x + h v'.

    Iterating this from v = 0 walks exactly the momentum recursion with
    beta = 1 - h a(t_k) and learning rate h**2.
    """
    if spec.model != "hb_ode":
        raise ValueError("semi-implicit stepping is defined for the hb_ode model")
    if h <= 0.0:
        raise ValueError("h must be > 0")
    a = spec.friction(state.t)
    v_new = state.v + h * (-a * state.v - spec.grad(state.x))
    x_new = state.x + h * v_new
    _require_finite(x_new, v_new, state.t + h)
    return PhaseState(x=x_new, v=v_new, t=state.t + h)


def _em_step(spec: SdeSpec, x, v, t: float, h: float, rng) -> tuple:
    """One Euler-Maruyama update; x may carry a leading path axis."""
    fric = spec.friction(t)
    gscale = spec.gradient_scale(t)
    x_new = x + h * v
    drift = -fric * v - gscale * spec.grad(x)
    v_new = v + h * drift
    if rng is not None and not spec.is_deterministic():
        v_new = v_new - gscale * spec.noise_increment(x, t, math.sqrt(h), rng)
    return x_new, v_new, t + h


def sde_step(state: PhaseState, spec: SdeSpec, h: float, rng=None) -> PhaseState:
    """A single Euler-Maruyama step with Gaussian increment sqrt(h) xi.

    With constant (state-independent) volatility the diffusion coefficient
    has zero derivative, so this update is also the Milstein update.  The
    caller is responsible for h being stable at this t; the trajectory
    integrators below handle that automatically.
    """
    if h <= 0.0:
        raise ValueError("h must be > 0")
    if state.t < spec.eps_start:
        raise ValueError(f"t = {state.t} is before the model start {spec.eps_start}")
    x, v, t = _em_step(spec, state.x, state.v, state.t, h, rng)
    _require_finite(x, v, t)
    return PhaseState(x=x, v=v, t=t)


@dataclass
class TrajectoryResult:
    """Recorded (t, X, V) samples plus a terminal status."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    status: str = "completed"
    diverged_at: float | None = None


def _advance(spec: SdeSpec, x, v, t: float, target: float, h: float, rng,
             kappa: float):
    """March from t to target, capping each substep at kappa/friction."""
    while t < target:
        fric = spec.friction(t)
        cap = kappa / fric if fric > 0.0 else h
        h_loc = min(target - t, h, cap)
        x, v, t_new = _em_step(spec, x, v, t, h_loc, rng)
        if t_new <= t:
            # Remaining interval is below float resolution; snap to it.
            t = target
            break
        t = t_new
    return x, v, t


def integrate_trajectory(
    spec: SdeSpec,
    x0,
    v0,
    t_end: float,
    h: float,
    rng=None,
    record_stride: int = 1,
    kappa: float = 0.25,
) -> TrajectoryResult:
    """Integrate one path from (x0, v0, eps_start) to t_end.

    The outer grid advances in steps of h; inside each interval the step
    is shortened whenever h * friction(t) would exceed ``kappa``, which
    resolves the 1/t-singular start without changing the grid elsewhere.
    The state is recorded at every ``record_stride``-th grid point.
    Divergence stops the run and flags the first bad time instead of
    propagating NaNs.
    """
    if t_end <= spec.eps_start:
        raise ValueError("t_end must exceed eps_start")
    if rng is None and not spec.is_deterministic():
        raise ValueError("a noisy model needs an RNG")
    x = np.asarray(x0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    t = spec.eps_start
    n_steps = max(1, int(round((t_end - t) / h)))
    times, xs, vs = [t], [x.copy()], [v.copy()]
    status, diverged_at = "completed", None
    for j in range(1, n_steps + 1):
        target = spec.eps_start + j * h if j < n_steps else t_end
        try:
            # Overflow on the way to divergence is expected; it is caught
            # by the finiteness check and reported as a flag.
            with np.errstate(over="ignore", invalid="ignore"):
                x, v, t = _advance(spec, x, v, t, target, h, rng, kappa)
            _require_finite(x, v, t)
        except DivergenceError as err:
            status, diverged_at = "diverged", err.time
            break
        if j % record_stride == 0 or j == n_steps:
            times.append(t)
            xs.append(x.copy())
            vs.append(v.copy())
    return TrajectoryResult(
        times=np.asarray(times),
        positions=np.asarray(xs),
        velocities=np.asarray(vs),
        status=status,
        diverged_at=diverged_at,
    )


def sample_paths(
    spec: SdeSpec,
    x0,
    v0,
    record_times,
    h: float,
    n_paths: int,
    rng,
    kappa: float = 0.25,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate an ensemble and record (X, V) at the requested times.

    All paths share the time grid and advance in lockstep with vectorized
    states of shape (n_paths, d); the gradient field must broadcast over
    the path axis.  Returns (times, X, V) with X, V of shape
    (len(record_times), n_paths, d).
    """
    record_times = np.sort(np.asarray(record_times, dtype=float))
    if record_times[0] <= spec.eps_start:
        raise ValueError("record times must exceed eps_start")
    if rng is None and not spec.is_deterministic():
        raise ValueError("a noisy model needs an RNG")
    if callable(spec.sigma):
        raise ValueError(
            "state-dependent volatility is supported for single-path "
            "integration only"
        )
    x0 = np.asarray(x0, dtype=float)
    x = np.broadcast_to(x0, (n_paths, x0.size)).copy()
    v = np.broadcast_to(np.asarray(v0, dtype=float), x.shape).copy()
    t = spec.eps_start
    xs, vs = [], []
    for target in record_times:
        x, v, t = _advance(spec, x, v, t, float(target), h, rng, kappa)
        _require_finite(x, v, t)
        xs.append(x.copy())
        vs.append(v.copy())
    return record_times, np.asarray(xs), np.asarray(vs)


def ito_isometry_mc(
    p: float, t: float, n_paths: int, h: float, rng
) -> tuple[float, float]:
    """Monte-Carlo variance of the stochastic integral of s**p against dB.

    Simulates the left-point Riemann sum sum_i s_i**p sqrt(h) xi_i over
    [0, t] for ``n_paths`` independent paths and returns the sample
    variance with its standard error (the closed-form target is
    t**(2p+1)/(2p+1)).
    """
    if p < 0.0 or t <= 0.0 or h <= 0.0:
        raise ValueError("need p >= 0, t > 0, h > 0")
    if n_paths < 10**3:
        raise ValueError("need at least 1000 paths for a stable variance")
    n_steps = int(round(t / h))
    sqrt_h = math.sqrt(h)
    totals = np.zeros(n_paths)
    for i in range(n_steps):
        s = i * h
        totals += (s**p * sqrt_h) * rng.standard_normal(n_paths)
    variance = float(np.var(totals, ddof=1))
    stderr = variance * math.sqrt(2.0 / (n_paths - 1))
    return variance, stderr


@dataclass(frozen=True)
class SecondMomentState:
    """Per-coordinate uncentered second moments (E[X^2], E[XV], E[V^2])."""

    p1: float
    p2: float
    p3: float
    t: float

    def cauchy_schwarz_defect(self) -> float:
        """p2**2 - p1 p3; non-positive for any true moment matrix."""
        return self.p2**2 - self.p1 * self.p3


VARIANCE_MODELS = ("nesterov", "quadratic_forgetting")


def variance_ode_rhs(
    model: str, s: SecondMomentState, lam: float, sigma2: float
) -> tuple[float, float, float]:
    """Right-hand side of the second-moment ODEs for a quadratic with
    curvature ``lam`` and velocity volatility ``sigma2`` (squared).

    Nesterov (noise enters V bare):

        p1' = 2 p2
        p2' = -lam p1 - (3/t) p2 + p3
        p3' = -2 lam p2 - (6/t) p3 + sigma2

    Quadratic forgetting (drift and noise carry 3/t, so the injection
    rate is (3/t)**2 sigma2):

        p1' = 2 p2
        p2' = -(3 lam / t) p1 - (3/t) p2 + p3
        p3' = -(6 lam / t) p2 - (6/t) p3 + (9/t**2) sigma2
    """
    if model not in VARIANCE_MODELS:
        raise ValueError(f"unknown variance model {model!r}")
    if s.t <= 0.0:
        raise ValueError("t must be > 0")
    t, p1, p2, p3 = s.t, s.p1, s.p2, s.p3
    if model == "nesterov":
        return (
            2.0 * p2,
            -lam * p1 - (3.0 / t) * p2 + p3,
            -2.0 * lam * p2 - (6.0 / t) * p3 + sigma2,
        )
    return (
        2.0 * p2,
        -(3.0 * lam / t) * p1 - (3.0 / t) * p2 + p3,
        -(6.0 * lam / t) * p2 - (6.0 / t) * p3 + (9.0 / t**2) * sigma2,
    )


def _rk4_step(model, y, t, h, lam, sigma2):
    def f(yy, tt):
        s = SecondMomentState(yy[0], yy[1], yy[2], tt)
        return np.asarray(variance_ode_rhs(model, s, lam, sigma2))

    k1 = f(y, t)
    k2 = f(y + 0.5 * h * k1, t + 0.5 * h)
    k3 = f(y + 0.5 * h * k2, t + 0.5 * h)
    k4 = f(y + h * k3, t + h)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_variance_ode(
    model: str,
    t0: float,
    t_end: float,
    h: float,
    lam: float,
    sigma2: float,
    init: tuple[float, float, float] = (1.0, 0.0, 0.0),
    record_stride: int = 1,
    kappa: float = 0.25,
    cs_tol: float = 1e-9,
) -> list[SecondMomentState]:
    """Fixed-step RK4 integration of the second-moment system.

    Substeps are capped at kappa * t / (6 max(1, lam)) near the singular
    start.  A step whose result violates the Cauchy-Schwarz constraint
    p2**2 <= p1 p3 beyond ``cs_tol`` (scaled by the moment magnitude) is
    retried with half the step, up to 10 times, before giving up.
    """
    if model not in VARIANCE_MODELS:
        raise ValueError(f"unknown variance model {model!r}")
    if t0 <= 0.0 or t_end <= t0 or h <= 0.0:
        raise ValueError("need 0 < t0 < t_end and h > 0")
    stiff = 6.0 * max(1.0, lam)
    y = np.asarray(init, dtype=float)
    t = t0
    out = [SecondMomentState(y[0], y[1], y[2], t)]
    n_steps = max(1, int(round((t_end - t0) / h)))
    for j in range(1, n_steps + 1):
        target = t0 + j * h if j < n_steps else t_end
        while t < target:
            h_loc = min(target - t, h, kappa * t / stiff)
            if t + h_loc <= t:
                # Remaining interval is below float resolution; snap to it.
                t = target
                break
            y_try = _rk4_step(model, y, t, h_loc, lam, sigma2)
            retries = 0
            while True:
                defect = y_try[1] ** 2 - y_try[0] * y_try[2]
                if defect <= cs_tol * max(1.0, abs(y_try[0] * y_try[2])):
                    break
                retries += 1
                if retries > 10:
                    raise DivergenceError(
                        f"Cauchy-Schwarz violation persists at t = {t}", time=t
                    )
                h_loc *= 0.5
                y_try = _rk4_step(model, y, t, h_loc, lam, sigma2)
            y = y_try
            t += h_loc
        if j % record_stride == 0 or j == n_steps:
            out.append(SecondMomentState(y[0], y[1], y[2], t))
    return out


def time_warp_tau(t, p: float):
    """The unique valid time change tau(t) = t**2 / (4p) mapping degree-p
    polynomial memory onto a bare-gradient system with (2p-1)/t viscosity."""
    if p <= 1.0:
        raise ValueError("the time change needs p > 1")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t must be >= 0")
    tau = t * t / (4.0 * p)
    return float(tau) if tau.ndim == 0 else tau


def warp_equivalence_check(
    objective,
    p: float,
    t_end: float,
    h: float,
    x0=None,
    eps_start: float = 1e-12,
    compare_from: float = 0.1,
) -> float:
    """Sup-norm gap between the warped memory path and the direct path.

    Integrates the deterministic memory system with m(t) = t**p up to
    tau(t_end), builds Y(t) = X(tau(t)) by cubic interpolation, integrates
    the bare-gradient system with viscosity (2p-1)/t directly, and returns
    the largest position gap over the recorded grid in
    [compare_from, t_end].
    """
    from scipy.interpolate import CubicSpline

    x0 = np.ones(objective.dim) if x0 is None else np.asarray(x0, dtype=float)
    v0 = np.zeros_like(x0)
    stride = max(1, int(round(1e-4 / h)))

    mg = memory_sde(objective.grad, objective.dim, MemoryFunction.polynomial(p),
                    eps_start=eps_start)
    mg_path = integrate_trajectory(
        mg, x0, v0, time_warp_tau(t_end, p), h, record_stride=stride
    )
    if mg_path.status != "completed":
        raise DivergenceError("memory path diverged", time=mg_path.diverged_at)

    hb = hb_sde(objective.grad, objective.dim,
                viscosity=lambda t: (2.0 * p - 1.0) / t, eps_start=eps_start)
    hb_path = integrate_trajectory(hb, x0, v0, t_end, h, record_stride=stride)
    if hb_path.status != "completed":
        raise DivergenceError("direct path diverged", time=hb_path.diverged_at)

    spline = CubicSpline(mg_path.times, mg_path.positions, axis=0)
    mask = hb_path.times >= compare_from
    warped = spline(time_warp_tau(hb_path.times[mask], p))
    gaps = np.linalg.norm(warped - hb_path.positions[mask], axis=1)
    return float(gaps.max())
