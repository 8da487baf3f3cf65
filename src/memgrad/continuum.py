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
the requested step h is safe.  :func:`integrate_paths`, the one
Euler-Maruyama loop, steps a batch of paths, shape (n, d), over that
schedule to the target times it is given (:func:`grid_times` builds the
h-grid) and returns arrays with each path's divergence target;
:func:`sample_paths` wraps it and raises on divergence.  With constant
(state-independent) volatility the diffusion coefficient has zero
derivative, so for the systems reproduced here Euler-Maruyama coincides
with Milstein.  The deterministic second-moment ODEs and time warp are
solved by :func:`_dop853`, an in-tree port of scipy's adaptive DOP853
(``scipy/integrate/_ivp/rk.py`` and ``common.py``, BSD-3) that takes scipy's
steps and reproduces its outputs bit for bit, with the Dormand-Prince
8(5,3) coefficients of Hairer, Norsett & Wanner.  It evaluates the
requested outputs as it steps and keeps no dense solution.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from memgrad.memory import MemoryFunction
from memgrad.problems import checked_sigma

__all__ = [
    "PhaseState",
    "MODELS",
    "SdeSpec",
    "DivergenceError",
    "nesterov_sde",
    "memory_sde",
    "hb_sde",
    "semi_implicit_euler_step",
    "Schedule",
    "substep_schedule",
    "grid_times",
    "integrate_paths",
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


def _check_finite(**values: float) -> None:
    """Raise ValueError naming the first of the values that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


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
    ``sigma`` may be None or 0 (deterministic), a scalar > 0, or a (d, d)
    matrix applied to the standard-normal increment; it is held as a float
    or a float array.
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
        if self.model == "mg" and self.memory is None:
            raise ValueError("mg needs a memory function")
        if not (self.eps_start > 0.0):
            raise ValueError("eps_start must be > 0")
        if self.sigma is not None:
            object.__setattr__(self, "sigma", checked_sigma(self.sigma, self.dim))

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
        return self.sigma is None or not np.any(self.sigma)


def nesterov_sde(grad, dim, sigma=None, eps_start: float = 1e-12) -> SdeSpec:
    return SdeSpec("nesterov", grad, dim, sigma=sigma, eps_start=eps_start)


def memory_sde(grad, dim, memory: MemoryFunction, sigma=None,
               eps_start: float = 1e-12) -> SdeSpec:
    return SdeSpec("mg", grad, dim, memory=memory, sigma=sigma, eps_start=eps_start)


def hb_sde(grad, dim, viscosity, sigma=None, eps_start: float = 1e-12) -> SdeSpec:
    return SdeSpec("hb_ode", grad, dim, viscosity, sigma=sigma, eps_start=eps_start)


def semi_implicit_euler_step(state: PhaseState, spec: SdeSpec, h: float) -> PhaseState:
    """Velocity-first Euler step of the model's deterministic system:

        v' = v + h (-a(t) v - s(t) grad f(x));   x' = x + h v',

    with friction a and gradient scale s.  For ``hb_ode`` (s = 1), iterating
    this from v = 0 walks exactly the momentum recursion with beta =
    1 - h a(t_k) and learning rate h**2; for ``mg`` with polynomial memory
    of degree p, from t = p h and v = 0, MemSGD-p with eta = h.  Like the
    discrete steppers, it does not check finiteness.
    """
    if h <= 0.0:
        raise ValueError("h must be > 0")
    a, scale = spec.friction(state.t), spec.gradient_scale(state.t)
    v_new = state.v + h * (-a * state.v - scale * spec.grad(state.x))
    return PhaseState(x=state.x + h * v_new, v=v_new, t=state.t + h)


def _em_update(spec: SdeSpec, x, v, h: float, fric: float, gscale: float, xi) -> None:
    """One Euler-Maruyama update of the (n, d) states x and v over a substep
    of size h, in place; xi is the substep's standard-normal block, also
    overwritten, or None without noise."""
    dv = -fric * v
    dv -= gscale * spec.grad(x)
    dv *= h
    x += h * v
    v += dv
    if xi is not None:
        sigma = spec.sigma
        if isinstance(sigma, float):
            xi *= sigma * math.sqrt(h)
        else:
            xi = xi @ sigma.T
            xi *= math.sqrt(h)
        xi *= gscale
        v -= xi


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
            gscale = spec.gradient_scale(t)
            # mg's friction is its gradient scale, the memory coefficient c(t).
            fric = gscale if spec.model == "mg" else spec.friction(t)
            h_loc = min(target - t, h, SUBSTEP_CAP / fric if fric > 0.0 else h)
            steps.append((t, h_loc, fric, gscale))
            # A remainder below float resolution snaps to the target.
            t = t + h_loc if t + h_loc > t else target
        ends.append(len(steps))
        times.append(t)
    return Schedule(*np.array(steps, dtype=float).reshape(-1, 4).T,
                    np.array(ends), np.array(times))


def _output_grid(t0: float, t_end: float, h: float, stride: int = 1) -> np.ndarray:
    """t0, then t0 + j h at every stride-th grid step j, and t_end."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride!r}")
    n_steps = max(1, int(round((t_end - t0) / h)))
    j = np.arange(stride, n_steps, stride)
    return np.concatenate(([t0], t0 + j * h, [t_end]))


def grid_times(spec: SdeSpec, t_end: float, h: float) -> list[float]:
    """The grid eps_start + j h, j = 1, 2, ..., whose last point is t_end."""
    if t_end <= spec.eps_start:
        raise ValueError("t_end must exceed eps_start")
    return _output_grid(spec.eps_start, t_end, h)[1:].tolist()


def integrate_paths(spec: SdeSpec, x0, v0, targets, h: float, noise=None,
                    n_paths: int = 1, record_stride: int = 1):
    """Step ``n_paths`` paths together from (x0, v0, eps_start) through the
    increasing target times, as (n_paths, d) states over their schedule.

    ``noise()`` gives each substep's (n_paths, d) standard-normal block, a
    new array each call, which the update overwrites; a noisy model needs
    it.  Every path is checked at every target, and one that is not finite
    is frozen there.  Returns (times, X, V, diverged): the start and every
    ``record_stride``-th target and the last; X and V there, of shape
    (len(times), n_paths, d) and NaN from a path's divergence on; and each
    path's 1-based divergence target, 0 if none.
    """
    if spec.is_deterministic():
        noise = None
    elif noise is None:
        raise ValueError("a noisy model needs an RNG")
    sched = substep_schedule(spec, targets, h)
    record = [j % record_stride == 0 or j == len(targets) for j in range(1, len(targets) + 1)]
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, np.size(x0))).copy()
    v = np.broadcast_to(np.asarray(v0, dtype=float), x.shape).copy()
    zero = np.zeros(x.size)
    xs = np.full((1 + sum(record),) + x.shape, np.nan)
    vs = np.full_like(xs, np.nan)
    xs[0], vs[0] = x, v
    diverged, live, k = np.zeros(n_paths, dtype=int), np.arange(n_paths), 1
    steps = zip(sched.h.tolist(), sched.friction.tolist(), sched.gscale.tolist())
    counts = np.diff(sched.ends, prepend=0).tolist()
    # Overflow on the way to divergence is expected; the check flags it.
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (count, keep) in enumerate(zip(counts, record), 1):
            for h, fric, gscale in itertools.islice(steps, count):
                xi = None if noise is None else noise()
                xi = xi if xi is None or live.size == n_paths else xi[live]
                _em_update(spec, x, v, h, fric, gscale, xi)
            # A dot product with zeros is NaN iff an entry is not finite.
            if math.isnan(x.ravel().dot(zero[:x.size]) + v.ravel().dot(zero[:x.size])):
                ok = np.isfinite(x).all(axis=1) & np.isfinite(v).all(axis=1)
                diverged[live[~ok]] = j
                live, x, v = live[ok], x[ok], v[ok]
            if keep:
                xs[k, live], vs[k, live], k = x, v, k + 1
            if not live.size:
                break
    times = np.concatenate(([spec.eps_start], np.compress(record, sched.times)))
    return times, xs, vs, diverged


def sample_paths(spec: SdeSpec, x0, v0, record_times, h: float, n_paths: int,
                 rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`integrate_paths` through the sorted record times, drawing one
    (n_paths, d) block from ``rng`` per substep; the gradient field must
    broadcast over the path axis.  Returns (times, X, V) with X, V of shape
    (len(record_times), n_paths, d), or raises DivergenceError at the first
    target where a path is not finite.
    """
    record_times = np.sort(np.asarray(record_times, dtype=float))
    if record_times[0] <= spec.eps_start:
        raise ValueError("record times must exceed eps_start")
    noise = None if rng is None else functools.partial(rng.standard_normal,
                                                       (n_paths, np.size(x0)))
    times, xs, vs, diverged = integrate_paths(spec, x0, v0, record_times.tolist(), h,
                                              noise, n_paths)
    if diverged.any():
        t = float(times[diverged[diverged > 0].min()])
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
    _check_finite(p=p, t=t, h=h)
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


VARIANCE_MODELS = ("nesterov", "quadratic_forgetting")


def variance_ode_rhs(model: str, s, lam: float, sigma2: float) -> tuple[float, float, float]:
    """Right-hand side of the second-moment ODEs at the state s = (t, p1, p2,
    p3), the per-coordinate uncentered moments E[X^2], E[XV], E[V^2] at time
    t, for a quadratic with curvature ``lam`` and velocity volatility
    ``sigma2`` (squared).

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
    t, p1, p2, p3 = s
    if t <= 0.0:
        raise ValueError("t must be > 0")
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


# The Dormand-Prince 8(5,3) tableau (Hairer, Norsett & Wanner, "Solving Ordinary
# Differential Equations I", Sec. II.10) as the doubles of scipy's
# dop853_coefficients: stages 0-11 take the step, row 12 of A is B (stage 12
# is the derivative at the new point), and stages 13-15 feed the interpolant.
_A = np.array([[row.get(j, 0.0) for j in range(16)] for row in (
    {}, {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
     5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
     5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
     8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
     5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
     8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625, 5: -17.9589318631188,
     6: 27.94888452941996, 7: -2.8589982771350235, 8: -8.87285693353063, 9: 12.360567175794303,
     10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932, 11: 0.0003825710908356584,
     12: -0.00034046500868740456, 13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599, 7: 4.06898981839711,
     8: 0.3567271874552811, 12: -0.0013990241651590145, 13: 2.9475147891527724,
     14: -9.15095847217987},
)])
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    1.0, 1.0, 0.1, 0.2, 0.7777777777777778])
_B = _A[12, :12]
# Error weights over stages 0-12: the 5th-order E5, and E3 = B - bhh as scipy
# computes it in floating point (E3 differs from B at stages 0, 8 and 11).
_E5 = np.zeros(13)
_E5[[0, *range(5, 12)]] = [
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294]
_E3 = np.append(_B, 0.0)
_E3[[0, 8, 11]] = [-0.18980075407240762, -0.4226823213237919, 0.02265179219836082]
# Interpolant weights of powers 3-6 over all 16 stages.
_D = np.zeros((4, 16))
_D[:, [0, *range(5, 16)]] = [
    [-8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564],
]


def _dop853(fun, t0: float, y0, t_end: float, t_out) -> tuple[np.ndarray, float, str | None]:
    """Solve y' = fun(t, y) (an array) from t0 to t_end > t0 as scipy 1.17's
    ``solve_ivp(method="DOP853", rtol=RTOL, atol=ATOL)`` does: the same
    initial step, step control, two-estimator error norm and interpolant, in
    the same floating-point operations.  Each accepted step (t_old, t]
    evaluates its interpolant at the sorted ``t_out`` in it (the first step
    also at those <= t0).  Returns the states at the output times reached,
    shape (len(y0), k); the last accepted time; and None, or why the solver
    stopped.  Unlike scipy's, a NaN step size stops the solver.
    """
    t, t_end = float(t0), float(t_end)
    y = np.asarray(y0, dtype=float)
    ys, done, message, root_n = [], 0, None, y.size ** 0.5
    # A trial step that overflows is rejected like any other.
    with np.errstate(all="ignore"):
        f = fun(t, y)
        scale = ATOL + np.abs(y) * RTOL
        d0, d1 = np.linalg.norm(y / scale) / root_n, np.linalg.norm(f / scale) / root_n
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
        d2 = np.linalg.norm((fun(t + h0, y + h0 * f) - f) / scale) / root_n / h0
        h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
              else (0.01 / max(d1, d2)) ** (1 / 8))
        h_abs = min(100 * h0, h1, t_end - t)
        K_ext = np.empty((16, y.size))
        K = K_ext[:13]
        while t < t_end:
            min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
            h_abs, rejected = max(h_abs, min_step), False
            while h_abs >= min_step:
                t_new = min(t + h_abs, t_end)
                h = t_new - t
                K[0] = f
                for s in range(1, 12):
                    K[s] = fun(t + _C[s] * h, y + np.dot(K[:s].T, _A[s, :s]) * h)
                y_new = y + h * np.dot(K[:12].T, _B)
                f_new = K[12] = fun(t + h, y_new)
                scale = ATOL + np.maximum(np.abs(y), np.abs(y_new)) * RTOL
                err5 = np.linalg.norm(np.dot(K.T, _E5) / scale) ** 2
                err3 = np.linalg.norm(np.dot(K.T, _E3) / scale) ** 2
                error_norm = (0.0 if err5 == 0 and err3 == 0 else
                              h * err5 / np.sqrt((err5 + 0.01 * err3) * len(scale)))
                if error_norm < 1:
                    factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.125)
                    h_abs = h * (min(1, factor) if rejected else factor)
                    break
                h_abs, rejected = h * max(0.2, 0.9 * error_norm ** -0.125), True
            else:  # the step shrank below min_step, or is NaN
                message = "Required step size is less than spacing between numbers."
                break
            t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
            last = np.searchsorted(t_out, t, side="right")
            if last > done:
                for s in range(13, 16):
                    K_ext[s] = fun(t_old + _C[s] * h,
                                   y_old + np.dot(K_ext[:s].T, _A[s, :s]) * h)
                dy = y - y_old
                F = np.vstack((dy, h * K[0] - dy, 2 * dy - h * (f + K[0]),
                               h * np.dot(_D, K_ext)))
                x = ((t_out[done:last] - t_old) / h)[:, None]
                z = np.zeros((len(x), y.size))
                for i, row in enumerate(F[::-1]):
                    z += row
                    z *= x if i % 2 == 0 else 1 - x
                z += y_old
                ys.append(z.T)
                done = last
    return np.hstack([np.empty((y.size, 0)), *ys]), t, message


def integrate_variance_ode(
    model: str,
    t0: float,
    t_end: float,
    h: float,
    lam: float,
    sigma2: float,
    init: tuple[float, float, float] = (1.0, 0.0, 0.0),
    record_stride: int = 1,
) -> np.recarray:
    """The second-moment system solved by adaptive DOP853 and returned on
    the grid t0 + j h at every ``record_stride``-th j, ending at t_end, as a
    record array of (t, p1, p2, p3), one row per grid time.

    Every returned state must satisfy the Cauchy-Schwarz constraint
    p2**2 <= p1 p3 up to ``CS_TOL`` (scaled by the moment magnitude); the
    first one that does not, or a solver failure, raises DivergenceError.
    """
    _check_finite(t0=t0, t_end=t_end, h=h, lam=lam, sigma2=sigma2)
    if t0 <= 0.0 or t_end <= t0 or h <= 0.0:
        raise ValueError("need 0 < t0 < t_end and h > 0")
    if sigma2 < 0.0:
        raise ValueError(f"sigma2 must be >= 0, got {sigma2!r}")

    def rhs(t, y):
        return np.array(variance_ode_rhs(model, (t, *y), lam, sigma2))

    times = _output_grid(t0, t_end, h, record_stride)
    states, _, message = _dop853(rhs, t0, init, t_end, times)
    if message:
        t = float(times[states.shape[1] - 1]) if states.size else t0
        raise DivergenceError(f"variance ODE solver stopped at t = {t}: {message}", time=t)
    p1, p2, p3 = states
    ok = p2 * p2 - p1 * p3 <= CS_TOL * np.maximum(1.0, np.abs(p1 * p3))
    if not ok.all():
        t = float(times[np.argmin(ok)])
        raise DivergenceError(f"Cauchy-Schwarz violation at t = {t}", time=t)
    return np.rec.fromarrays([times, p1, p2, p3], names="t,p1,p2,p3")


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
    by DOP853, and returns the largest gap between X_mg(tau(t)) and
    X_hb(t) over the grid of spacing h * max(1, round(1e-4 / h)) in
    [compare_from, t_end].
    """
    _check_finite(p=p, t_end=t_end, h=h)
    if not h > 0.0:
        raise ValueError(f"h must be > 0, got {h!r}")
    if not compare_from <= t_end:
        raise ValueError(f"compare_from must be <= t_end = {t_end!r}, got {compare_from!r}")
    x0 = np.ones(objective.dim) if x0 is None else np.asarray(x0, dtype=float)
    d = x0.size
    mg = memory_sde(objective.grad, d, MemoryFunction.polynomial(p), eps_start=eps_start)
    hb = hb_sde(objective.grad, d, viscosity=lambda t: (2.0 * p - 1.0) / t,
                eps_start=eps_start)

    def rhs(t, y, spec):
        x, v = y[:d], y[d:]
        return np.concatenate(
            (v, -spec.friction(t) * v - spec.gradient_scale(t) * spec.grad(x)))

    times = _output_grid(eps_start, t_end, h, max(1, int(round(1e-4 / h))))
    times = times[times >= compare_from]
    paths = []
    for spec, end, t_out in ((mg, time_warp_tau(t_end, p), time_warp_tau(times, p)),
                             (hb, t_end, times)):
        states, t, message = _dop853(functools.partial(rhs, spec=spec), eps_start,
                                     np.concatenate((x0, np.zeros(d))), end, t_out)
        if message:
            raise DivergenceError(f"{spec.model} path stopped at t = {t}: {message}",
                                  time=float(t))
        paths.append(states[:d])  # X at t_out, shape (d, len(t_out))
    return float(np.linalg.norm(paths[0] - paths[1], axis=0).max())
