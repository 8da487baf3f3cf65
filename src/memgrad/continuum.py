"""Continuous-time models and their integrators.

Three phase-space systems over (X, V):

* ``hb_ode``  -- dV = -a(t) V dt - [grad f(X) dt + sigma dB]; general
  viscosity a(t), gradient and noise unscaled.
* ``nesterov`` -- the same system with a(t) = 3/t.
* ``mg``      -- dV = -c(t) V dt - c(t) [grad f(X) dt + sigma dB] with
  c(t) = m'(t)/m(t) for a memory function m; drift, gradient and noise all
  carry the memory coefficient.

Friction and gradient scale depend on t alone, so :func:`substep_schedule`
walks a model's time grid once: coefficients with a 1/t blow-up make the
start stiff, and each substep is capped at ``SUBSTEP_CAP`` / friction until
the requested step h is safe.  One Euler-Maruyama loop steps a batch of
paths, shape (n, d), over that schedule; :func:`integrate_paths`,
:func:`integrate_trajectory` (a batch of one) and :func:`sample_paths` all
run it, and :func:`sde_step` shares its update.  For the
constant-volatility systems reproduced here Euler-Maruyama coincides with
Milstein.  The deterministic second-moment ODEs and time warp use scipy's
adaptive DOP853.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
    "Schedule",
    "substep_schedule",
    "integrate_paths",
    "integrate_trajectory",
    "sample_paths",
    "ito_isometry_mc",
    "variance_ode_rhs",
    "integrate_variance_ode",
    "time_warp_tau",
    "warp_equivalence_check",
]


# Relative and absolute tolerances of the DOP853 solves.
RTOL, ATOL = 1e-12, 1e-14
# Cauchy-Schwarz slack of a variance-ODE state, relative to max(1, |p1 p3|).
CS_TOL = 1e-9

# Largest h * friction(t) an SDE substep may take.
SUBSTEP_CAP = 0.25


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

    ``grad`` must map a point to a gradient of the same shape and broadcast
    over a leading path axis (true for every objective in ``problems``).
    ``sigma`` may be None or 0 (deterministic), a scalar, or a (d, d)
    matrix applied to the standard-normal increment.
    """

    model: str
    grad: Callable[[np.ndarray], np.ndarray]
    dim: int
    viscosity: float | Callable[[float], float] | None = None
    memory: MemoryFunction | None = None
    sigma: float | np.ndarray | None = None
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
                raise ValueError("instantaneous forgetting is first-order gradient "
                                 "flow, not a phase-space model")
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
        return self.sigma is None or not np.any(np.asarray(self.sigma) != 0.0)


def nesterov_sde(grad, dim, sigma=None, eps_start: float = 1e-12) -> SdeSpec:
    return SdeSpec("nesterov", grad, dim, sigma=sigma, eps_start=eps_start)


def memory_sde(grad, dim, memory: MemoryFunction, sigma=None,
               eps_start: float = 1e-12) -> SdeSpec:
    return SdeSpec("mg", grad, dim, memory=memory, sigma=sigma, eps_start=eps_start)


def hb_sde(grad, dim, viscosity, sigma=None, eps_start: float = 1e-12) -> SdeSpec:
    return SdeSpec("hb_ode", grad, dim, viscosity, sigma=sigma, eps_start=eps_start)


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


def _em_update(spec: SdeSpec, x, v, h: float, fric: float, gscale: float, xi):
    """One Euler-Maruyama update over a substep of size h; x may carry a
    leading path axis, and xi is the substep's standard-normal draw shaped
    like x, or None without noise."""
    x_new, v_new = x + h * v, v + h * (-fric * v - gscale * spec.grad(x))
    if xi is None:
        return x_new, v_new
    sigma = spec.sigma
    noise = (float(sigma) * math.sqrt(h) * xi if np.ndim(sigma) == 0
             else math.sqrt(h) * (xi @ np.asarray(sigma, dtype=float).T))
    return x_new, v_new - gscale * noise


def sde_step(state: PhaseState, spec: SdeSpec, h: float, rng=None) -> PhaseState:
    """A single Euler-Maruyama step with Gaussian increment sqrt(h) xi.

    With constant (state-independent) volatility the diffusion coefficient
    has zero derivative, so this update is also the Milstein update.  The
    caller is responsible for h being stable at this t; the trajectory
    integrators below handle that automatically.
    """
    if h <= 0.0:
        raise ValueError("h must be > 0")
    t = state.t
    if t < spec.eps_start:
        raise ValueError(f"t = {t} is before the model start {spec.eps_start}")
    xi = (None if rng is None or spec.is_deterministic()
          else rng.standard_normal(np.shape(state.x)))
    x, v = _em_update(spec, state.x, state.v, h, spec.friction(t),
                      spec.gradient_scale(t), xi)
    _require_finite(x, v, t + h)
    return PhaseState(x=x, v=v, t=t + h)


class Schedule(NamedTuple):
    """Substeps from eps_start through a list of target times: each one's
    start time ``t``, capped size ``h``, ``friction`` and ``gscale``
    (gradient and noise scale); per target, the number of substeps that
    reach it (``ends``) and the time reached (``times``)."""

    t: np.ndarray
    h: np.ndarray
    friction: np.ndarray
    gscale: np.ndarray
    ends: np.ndarray
    times: np.ndarray


def substep_schedule(spec: SdeSpec, targets, h: float) -> Schedule:
    """March from eps_start through each target in steps of h, shortening a
    substep wherever h * friction(t) would exceed ``SUBSTEP_CAP``.  The
    coefficients depend on t alone, so one schedule serves every path."""
    t, steps, ends, times = spec.eps_start, [], [], []
    for target in targets:
        while t < target:
            fric = spec.friction(t)
            h_loc = min(target - t, h, SUBSTEP_CAP / fric if fric > 0.0 else h)
            steps.append((t, h_loc, fric, spec.gradient_scale(t)))
            # A remainder below float resolution snaps to the target.
            t = t + h_loc if t + h_loc > t else target
        ends.append(len(steps))
        times.append(t)
    return Schedule(*np.array(steps, dtype=float).reshape(-1, 4).T,
                    np.array(ends), np.array(times))


def _euler_maruyama(spec: SdeSpec, sched: Schedule, x0, v0, n: int, noise, record):
    """Step n paths from (x0, v0) over the schedule as (n, d) states.

    ``noise()`` gives each substep's (n, d) standard-normal block; a noisy
    model needs it.  Every path is checked at every target, and one that is
    not finite is frozen there.  Returns X and V at the start and at each
    target flagged in ``record`` (NaN once a path has diverged), and each
    path's 1-based divergence target, 0 if none.
    """
    if spec.is_deterministic():
        noise = None
    elif noise is None:
        raise ValueError("a noisy model needs an RNG")
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n, np.size(x0))).copy()
    v = np.broadcast_to(np.asarray(v0, dtype=float), x.shape).copy()
    xs = np.full((1 + sum(record),) + x.shape, np.nan)
    vs = np.full_like(xs, np.nan)
    xs[0], vs[0] = x, v
    diverged, live, k = np.zeros(n, dtype=int), np.arange(n), 1
    steps = zip(sched.h.tolist(), sched.friction.tolist(), sched.gscale.tolist())
    counts = np.diff(sched.ends, prepend=0).tolist()
    # Overflow on the way to divergence is expected; the check flags it.
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (count, keep) in enumerate(zip(counts, record), 1):
            for h, fric, gscale in itertools.islice(steps, count):
                xi = None if noise is None else noise()
                xi = xi if xi is None or live.size == n else xi[live]
                x, v = _em_update(spec, x, v, h, fric, gscale, xi)
            if not (np.isfinite(x).all() and np.isfinite(v).all()):
                ok = np.isfinite(x).all(axis=1) & np.isfinite(v).all(axis=1)
                diverged[live[~ok]] = j
                live, x, v = live[ok], x[ok], v[ok]
            if keep:
                xs[k, live], vs[k, live], k = x, v, k + 1
            if not live.size:
                break
    return xs, vs, diverged


@dataclass
class TrajectoryResult:
    """Recorded (t, X, V) samples plus a terminal status."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    status: str = "completed"
    diverged_at: float | None = None  # first non-finite time
    diverged_step: int | None = None  # its grid step j, t ~ eps_start + j h


def integrate_paths(spec: SdeSpec, x0, v0, t_end: float, h: float, noise=None,
                    n_paths: int = 1, record_stride: int = 1) -> list[TrajectoryResult]:
    """Integrate ``n_paths`` paths together from (x0, v0, eps_start) to t_end.

    The grid is eps_start + j h, ending at t_end.  ``noise()`` gives the
    next substep's (n_paths, d) standard-normal block.  Each path is
    recorded at every ``record_stride``-th grid point and the last; one
    whose state is not finite at grid step j stops there and reports j and
    its time instead of propagating NaNs.
    """
    if t_end <= spec.eps_start:
        raise ValueError("t_end must exceed eps_start")
    n_steps = max(1, int(round((t_end - spec.eps_start) / h)))
    targets = [spec.eps_start + j * h for j in range(1, n_steps)] + [t_end]
    record = [j % record_stride == 0 or j == n_steps for j in range(1, n_steps + 1)]
    sched = substep_schedule(spec, targets, h)
    xs, vs, diverged = _euler_maruyama(spec, sched, x0, v0, n_paths, noise, record)
    kept = np.flatnonzero(record)
    times = np.concatenate(([spec.eps_start], sched.times[kept]))
    out = []
    for r, j in enumerate(diverged.tolist()):
        n = 1 + int(np.searchsorted(kept, j - 1)) if j else len(times)
        out.append(TrajectoryResult(times[:n], xs[:n, r], vs[:n, r],
                                    "diverged" if j else "completed",
                                    float(sched.times[j - 1]) if j else None, j or None))
    return out


def integrate_trajectory(spec: SdeSpec, x0, v0, t_end: float, h: float, rng=None,
                         record_stride: int = 1) -> TrajectoryResult:
    """:func:`integrate_paths` for one path, drawing its noise from ``rng``."""
    noise = None if rng is None else (lambda: rng.standard_normal((1, np.size(x0))))
    return integrate_paths(spec, x0, v0, t_end, h, noise, 1, record_stride)[0]


def sample_paths(spec: SdeSpec, x0, v0, record_times, h: float, n_paths: int,
                 rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate an ensemble and record (X, V) at the requested times.

    The paths step together through the record times, drawing one
    (n_paths, d) block from ``rng`` per substep; the gradient field must
    broadcast over the path axis.  Returns (times, X, V) with X, V of shape
    (len(record_times), n_paths, d); a non-finite state raises
    DivergenceError.
    """
    record_times = np.sort(np.asarray(record_times, dtype=float))
    if record_times[0] <= spec.eps_start:
        raise ValueError("record times must exceed eps_start")
    noise = None if rng is None else (lambda: rng.standard_normal((n_paths, np.size(x0))))
    sched = substep_schedule(spec, record_times.tolist(), h)
    xs, vs, diverged = _euler_maruyama(spec, sched, x0, v0, n_paths, noise,
                                       [True] * len(record_times))
    if diverged.any():
        t = float(sched.times[diverged[diverged > 0].min() - 1])
        raise DivergenceError(f"non-finite state at t = {t}", time=t)
    return record_times, xs[1:], vs[1:]


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


def _output_grid(t0: float, t_end: float, h: float, stride: int) -> np.ndarray:
    """t0, then t0 + j h at every stride-th grid step j, and t_end."""
    n_steps = max(1, int(round((t_end - t0) / h)))
    j = np.arange(stride, n_steps, stride)
    return np.concatenate(([t0], t0 + j * h, [t_end]))


def integrate_variance_ode(
    model: str,
    t0: float,
    t_end: float,
    h: float,
    lam: float,
    sigma2: float,
    init: tuple[float, float, float] = (1.0, 0.0, 0.0),
    record_stride: int = 1,
) -> list[SecondMomentState]:
    """The second-moment system solved by adaptive DOP853 and returned on
    the grid t0 + j h at every ``record_stride``-th j, ending at t_end.

    Every returned state must satisfy the Cauchy-Schwarz constraint
    p2**2 <= p1 p3 up to ``CS_TOL`` (scaled by the moment magnitude); the
    first one that does not, or a solver failure, raises DivergenceError.
    """
    from scipy.integrate import solve_ivp

    if t0 <= 0.0 or t_end <= t0 or h <= 0.0:
        raise ValueError("need 0 < t0 < t_end and h > 0")

    def rhs(t, y):
        return variance_ode_rhs(model, SecondMomentState(y[0], y[1], y[2], t),
                                lam, sigma2)

    sol = solve_ivp(rhs, (t0, t_end), np.asarray(init, dtype=float),
                    method="DOP853", t_eval=_output_grid(t0, t_end, h, record_stride),
                    rtol=RTOL, atol=ATOL)
    if not sol.success:
        t = float(sol.t[-1]) if sol.t.size else t0
        raise DivergenceError(f"variance ODE solver stopped at t = {t}: "
                              f"{sol.message}", time=t)
    p1, p2, p3 = sol.y
    ok = p2 * p2 - p1 * p3 <= CS_TOL * np.maximum(1.0, np.abs(p1 * p3))
    if not ok.all():
        t = float(sol.t[np.argmin(ok)])
        raise DivergenceError(f"Cauchy-Schwarz violation at t = {t}", time=t)
    return [SecondMomentState(float(a), float(b), float(c), float(t))
            for a, b, c, t in zip(p1, p2, p3, sol.t)]


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

    Solves the noise-free memory system with m(t) = t**p up to tau(t_end)
    and the bare-gradient system with viscosity (2p-1)/t up to t_end, both
    by dense DOP853, and returns the largest gap between X_mg(tau(t)) and
    X_hb(t) over the grid of spacing h * max(1, round(1e-4 / h)) in
    [compare_from, t_end].
    """
    from scipy.integrate import solve_ivp

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
                        method="DOP853", dense_output=True, rtol=RTOL, atol=ATOL,
                        args=(spec,))
        if not sol.success:
            raise DivergenceError(f"{spec.model} path stopped at t = {sol.t[-1]}: "
                                  f"{sol.message}", time=float(sol.t[-1]))
        paths.append(sol.sol)  # t -> stacked (X, V), shape (2d, len(t))
    times = _output_grid(eps_start, t_end, h, max(1, int(round(1e-4 / h))))
    times = times[times >= compare_from]
    gaps = np.linalg.norm(paths[0](time_warp_tau(times, p))[:d] - paths[1](times)[:d],
                          axis=0)
    return float(gaps.max())
