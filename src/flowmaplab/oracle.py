"""Ground-truth velocity fields, flow maps and consistency-identity checks.

The Gaussian flow map is known in closed form; an RK4 solver of the
velocity field is kept beside it as an independent reference.
``integrate_flow`` is the generic RK4, for any field and batch of points.
The semigroup identity runs ``_gaussian_rk4``, the same RK4 for one point
of the Gaussian field on Python floats and equal to it bit for bit: a
semigroup probe (three 512-step solves) takes about 3.4 ms instead of
44 ms on 2 cores.  The average velocity and its tangents in x, s and t are
closed forms too (``gaussian_average_velocity``), not autodiff results, so
this module stays independent of the code it is used to verify.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class GaussianTask:
    """Independent isotropic Gaussians at the two endpoints."""

    mu0: np.ndarray
    mu1: np.ndarray
    sigma0: float
    sigma1: float

    def __post_init__(self):
        for name in ("mu0", "mu1"):
            mu = np.asarray(getattr(self, name), dtype=np.float64)
            if mu.ndim != 1 or not np.all(np.isfinite(mu)):
                raise ValueError(f"{name} must be a finite 1-D array, got {mu!r}")
            object.__setattr__(self, name, mu)
        if self.mu0.shape != self.mu1.shape:
            raise ValueError(f"mu0 and mu1 must have one shape, got {self.mu0.shape} "
                             f"and {self.mu1.shape}")
        for name in ("sigma0", "sigma1"):
            sigma = float(getattr(self, name))
            if not (math.isfinite(sigma) and sigma > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {sigma!r}")
            object.__setattr__(self, name, sigma)


def _scalars(task: GaussianTask, t: float) -> tuple[float, float, float]:
    """(1-t, v_t, c_t) at time t: the per-coordinate variance of the
    interpolant v_t = (1-t)^2 s0^2 + t^2 s1^2 and the slope of the velocity
    c_t = (t s1^2 - (1-t) s0^2) / v_t.  The mean is m_t = (1-t) mu0 + t mu1.
    The one copy of these formulas, so that every caller rounds alike."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t outside [0, 1]")
    a = 1.0 - t
    s0_sq, s1_sq = task.sigma0 ** 2, task.sigma1 ** 2
    var_t = a ** 2 * s0_sq + t ** 2 * s1_sq
    return a, var_t, (t * s1_sq - a * s0_sq) / var_t


def gaussian_velocity(task: GaussianTask, x: np.ndarray, t: float) -> np.ndarray:
    """Marginal velocity of the linear path between two Gaussians.

    With I_t = (1-t) x0 + t x1 (x0, x1 independent) the conditional
    expectation of x1 - x0 given I_t = x is linear in x:
        E[x1|I_t=x] = mu1 + t s1^2 / v_t (x - m_t)
        E[x0|I_t=x] = mu0 + (1-t) s0^2 / v_t (x - m_t)
    with m_t = (1-t) mu0 + t mu1 and v_t = (1-t)^2 s0^2 + t^2 s1^2, giving
        v(x, t) = (mu1 - mu0) + (t s1^2 - (1-t) s0^2) / v_t (x - m_t).
    """
    a, _, coef = _scalars(task, t)
    m_t = a * task.mu0 + t * task.mu1
    return (task.mu1 - task.mu0) + coef * (np.asarray(x, dtype=np.float64) - m_t)


def gaussian_average_velocity(task: GaussianTask, x: np.ndarray, s: float, t: float,
                              dx=None, ds: float = 0.0, dt: float = 0.0) -> tuple:
    """(u, du, X) in closed form for 0 <= s < t <= 1: the average velocity
    u_{s,t}(x) = (x - X) / (t - s), its derivative along (dx, ds, dt), and the
    map point X = X_{s,t}(x), which carries x at time t to time s.

    The velocity is affine in x with a scalar slope, so the map is the
    increasing affine map between N(m_t, v_t I) and N(m_s, v_s I),
    X = m_s + rho (x - m_t) with rho = sqrt(v_s / v_t).  With m' = mu1 - mu0
    and v'_r = -2 (1-r) s0^2 + 2 r s1^2:
        grad u . w = (1 - rho) w / (t - s)
        d_s u = (u - d_s X) / (t - s),   d_s X = m' + rho v'_s / (2 v_s) (x - m_t)
        d_t u = -(d_t X + u) / (t - s),  d_t X = -rho m' - rho v'_t / (2 v_t) (x - m_t)
    The tangents read v'_r, not the slope c_r = v'_r / (2 v_r) of
    ``gaussian_velocity``, so an identity pairing the two compares two
    separately written formulas.
    """
    if s >= t:
        raise ValueError("need s < t; use the instantaneous field on the diagonal")
    a_s, var_s, _ = _scalars(task, s)
    a_t, var_t, _ = _scalars(task, t)
    x = np.asarray(x, dtype=np.float64)
    h, rho = t - s, math.sqrt(var_s / var_t)
    centred = x - (a_t * task.mu0 + t * task.mu1)
    endpoint = (a_s * task.mu0 + s * task.mu1) + rho * centred
    u = (x - endpoint) / h
    du = np.zeros_like(u) if dx is None else (1.0 - rho) / h * np.asarray(dx, dtype=np.float64)
    s0_sq, s1_sq = task.sigma0 ** 2, task.sigma1 ** 2
    if ds:
        dvar_s = -2.0 * a_s * s0_sq + 2.0 * s * s1_sq
        dX_ds = (task.mu1 - task.mu0) + rho * dvar_s / (2.0 * var_s) * centred
        du = du + ds / h * (u - dX_ds)
    if dt:
        dvar_t = -2.0 * a_t * s0_sq + 2.0 * t * s1_sq
        dX_dt = -rho * (task.mu1 - task.mu0) - rho * dvar_t / (2.0 * var_t) * centred
        du = du - dt / h * (dX_dt + u)
    return u, du, endpoint


def integrate_flow(v, x: np.ndarray, t_from: float, t_to: float,
                   n_steps: int = 512) -> np.ndarray:
    """Classical RK4 solution of dX/dr = v(X, r) from t_from to t_to."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    x = np.array(x, dtype=np.float64, copy=True)
    # grid times from linspace so accumulated rounding cannot push an
    # evaluation outside [t_from, t_to]
    ts = np.linspace(t_from, t_to, n_steps + 1)
    for i in range(n_steps):
        r, r_next = ts[i], ts[i + 1]
        h = r_next - r
        mid = 0.5 * (r + r_next)
        k1 = v(x, r)
        k2 = v(x + 0.5 * h * k1, mid)
        k3 = v(x + 0.5 * h * k2, mid)
        k4 = v(x + h * k3, r_next)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"non-finite state while integrating at r={r}")
    return x


def _gaussian_rk4(task: GaussianTask, x: np.ndarray, t_from: float, t_to: float,
                  n_steps: int) -> np.ndarray:
    """``integrate_flow`` of ``gaussian_velocity`` for one point x of shape
    (d,), bit for bit, on Python floats.

    The field v_j(x, r) = (mu1 - mu0)_j + c_r (x_j - m_j(r)) has a scalar
    slope, so each coordinate's RK4 stage repeats the reference's IEEE
    operations in its order, and the time scalars come from ``_scalars``.
    It raises what the reference raises, at the same step.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    ts = np.linspace(t_from, t_to, n_steps + 1).tolist()
    coords = list(zip((task.mu1 - task.mu0).tolist(), task.mu0.tolist(), task.mu1.tolist()))
    xs = np.asarray(x, dtype=np.float64).tolist()
    r = ts[0]
    a_r, _, c_r = _scalars(task, r)
    for r_next in ts[1:]:
        h = r_next - r
        half_h, sixth_h = 0.5 * h, h / 6.0
        mid = 0.5 * (r + r_next)
        a_m, _, c_m = _scalars(task, mid)
        a_n, _, c_n = _scalars(task, r_next)
        out = []
        for xj, (dj, m0, m1) in zip(xs, coords):
            k1 = dj + c_r * (xj - (a_r * m0 + r * m1))
            m_mid = a_m * m0 + mid * m1
            k2 = dj + c_m * ((xj + half_h * k1) - m_mid)
            k3 = dj + c_m * ((xj + half_h * k2) - m_mid)
            k4 = dj + c_n * ((xj + h * k3) - (a_n * m0 + r_next * m1))
            out.append(xj + sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        xs = out
        if not all(map(math.isfinite, xs)):
            raise FloatingPointError(f"non-finite state while integrating at r={r}")
        r, a_r, c_r = r_next, a_n, c_n
    return np.array(xs)


def average_velocity_oracle(v, x: np.ndarray, s: float, t: float,
                            n_steps: int = 512) -> np.ndarray:
    """u_{s,t}(x) = (x - X_{s,t}(x)) / (t - s), X the backward solution map."""
    if s >= t:
        raise ValueError("need s < t; use the instantaneous field on the diagonal")
    endpoint = integrate_flow(v, x, t, s, n_steps)
    return (np.asarray(x, dtype=np.float64) - endpoint) / (t - s)


IDENTITIES = ("lsd", "esd", "ssd", "semigroup")
SEMIGROUP_STEPS = 512  # RK4 steps of each solve the semigroup identity composes


@dataclass
class IdentityReport:
    setting: str
    residuals: list = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["setting", "probe", "residual"])
            for i, r in enumerate(self.residuals):
                w.writerow([self.setting, i, f"{r:.6e}"])


def check_identity(setting: str, task: GaussianTask, probes) -> IdentityReport:
    """Residual of a self-consistency characterization on the true flow map.

    ``setting`` is one of ``IDENTITIES``.  Each probe is a tuple (x, s, t)
    with x finite of the task's shape (d,) and 0 <= s < t <= 1; the setting
    and every probe are checked before any probe runs.  The lsd, esd and ssd
    identities read u_{s,t}(x), its exact tangents and the map point from
    ``gaussian_average_velocity``, so they hold to rounding on every interval
    in [0, 1], ends included.  The semigroup identity composes ``SEMIGROUP_STEPS``-step
    RK4 solutions of the velocity field (``_gaussian_rk4``, which equals
    ``integrate_flow`` bit for bit), the reference independent of the
    closed form.
    """
    if setting not in IDENTITIES:
        raise ValueError(f"unknown setting {setting!r}; expected one of {', '.join(IDENTITIES)}")
    probes = [(np.asarray(x, dtype=np.float64), s, t) for x, s, t in probes]
    if not probes:
        raise ValueError("no probes to check")
    for x, s, t in probes:
        if x.shape != task.mu0.shape or not all(map(math.isfinite, x.tolist())):
            raise ValueError(f"probe x must be finite of shape {task.mu0.shape}, got {x!r}")
        if s >= t:
            raise ValueError("probes need s < t")
        if not (0.0 <= s and t <= 1.0):
            raise ValueError("t outside [0, 1]")

    report = IdentityReport(setting=setting)
    for x, s, t in probes:
        if setting == "semigroup":
            # X_{s,t} = X_{s,r} o X_{r,t} with r the midpoint
            r = 0.5 * (s + t)
            n = SEMIGROUP_STEPS
            direct = _gaussian_rk4(task, x, t, s, n)
            via_mid = _gaussian_rk4(task, _gaussian_rk4(task, x, t, r, n), r, s, n)
            report.residuals.append(float(np.linalg.norm(direct - via_mid)))
            continue
        if setting == "lsd":
            # u_{s,t}(x) = u_{s,s}(X_{s,t}(x)) + (t-s) d_s u_{s,t}(x)
            u_st, du_ds, endpoint = gaussian_average_velocity(task, x, s, t, ds=1.0)
            rhs = gaussian_velocity(task, endpoint, s) + (t - s) * du_ds
        elif setting == "esd":
            # u_{s,t}(x) = v_t(x) - (t-s)(grad u . v_t + d_t u)
            vt = gaussian_velocity(task, x, t)
            u_st, du, _ = gaussian_average_velocity(task, x, s, t, dx=vt, dt=1.0)
            rhs = vt - (t - s) * du
        else:
            # ssd: two-half-step composition with midpoint r = (s+t)/2
            r = 0.5 * (s + t)
            u_st = gaussian_average_velocity(task, x, s, t)[0]
            u_rt = gaussian_average_velocity(task, x, r, t)[0]
            x_mid = x - (t - s) / 2.0 * u_rt
            rhs = 0.5 * u_rt + 0.5 * gaussian_average_velocity(task, x_mid, s, r)[0]
        report.residuals.append(float(np.linalg.norm(u_st - rhs)))
    return report
