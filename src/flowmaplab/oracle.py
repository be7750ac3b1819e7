"""Ground-truth velocity fields, flow maps and consistency-identity checks.

The Gaussian flow map is known in closed form; an RK4 solver of the
velocity field is kept beside it as an independent reference.
``integrate_flow`` is the generic RK4, for any field and batch of points.
The semigroup identity runs ``_gaussian_rk4``, the same RK4 for one point
of the Gaussian field on Python floats and equal to it bit for bit: a
semigroup probe (three 512-step solves) takes about 3.4 ms instead of
44 ms on 2 cores.  Derivatives of the oracle average velocity are taken by
finite differences rather than through the autodiff engine, so this module
stays independent of the code it is used to verify.
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


def _moments(task: GaussianTask, t: float) -> tuple[np.ndarray, float, float]:
    """Mean m_t, per-coordinate variance v_t and velocity slope c_t at time t."""
    a, var_t, c_t = _scalars(task, t)
    return a * task.mu0 + t * task.mu1, var_t, c_t


def gaussian_velocity(task: GaussianTask, x: np.ndarray, t: float) -> np.ndarray:
    """Marginal velocity of the linear path between two Gaussians.

    With I_t = (1-t) x0 + t x1 (x0, x1 independent) the conditional
    expectation of x1 - x0 given I_t = x is linear in x:
        E[x1|I_t=x] = mu1 + t s1^2 / v_t (x - m_t)
        E[x0|I_t=x] = mu0 + (1-t) s0^2 / v_t (x - m_t)
    with m_t = (1-t) mu0 + t mu1 and v_t = (1-t)^2 s0^2 + t^2 s1^2, giving
        v(x, t) = (mu1 - mu0) + (t s1^2 - (1-t) s0^2) / v_t (x - m_t).
    """
    m_t, _, coef = _moments(task, t)
    return (task.mu1 - task.mu0) + coef * (np.asarray(x, dtype=np.float64) - m_t)


def gaussian_flow_map(task: GaussianTask, x: np.ndarray, s: float,
                      t: float) -> np.ndarray:
    """Exact solution map X_{s,t}: carries x at time t to time s.

    The velocity is affine in x with a scalar slope, so the map is the
    increasing affine map between N(m_t, v_t I) and N(m_s, v_s I):
        X_{s,t}(x) = m_s + sqrt(v_s / v_t) (x - m_t).
    """
    m_s, var_s, _ = _moments(task, s)
    m_t, var_t, _ = _moments(task, t)
    return m_s + math.sqrt(var_s / var_t) * (np.asarray(x, dtype=np.float64) - m_t)


def _derivative(f, r: float, h: float) -> np.ndarray:
    """df/dr at r with step h: central where r +- h stays in [0, 1], else the
    second-order one-sided stencil pointing into the interval."""
    if r - h >= 0.0 and r + h <= 1.0:
        return (f(r + h) - f(r - h)) / (2.0 * h)
    if r - h < 0.0:
        return (-3.0 * f(r) + 4.0 * f(r + h) - f(r + 2.0 * h)) / (2.0 * h)
    return (3.0 * f(r) - 4.0 * f(r - h) + f(r - 2.0 * h)) / (2.0 * h)


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
FD_H = 1e-4            # finite-difference step of the lsd and esd identities


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
    identities use the closed-form map ``gaussian_flow_map``, u_{s,t}(x) =
    (x - X_{s,t}(x)) / (t - s).  Derivatives of u in s and t are central
    differences with step ``FD_H`` where the stencil stays in [0, 1], and
    second-order one-sided differences at the ends, so every interval in
    [0, 1] can be checked.  The semigroup identity composes ``SEMIGROUP_STEPS``-step
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

    v = lambda x, t: gaussian_velocity(task, x, t)

    def u(x, s, t):
        if s == t:
            return v(x, t)
        return (x - gaussian_flow_map(task, x, s, t)) / (t - s)

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
        u_st = u(x, s, t)
        if setting == "lsd":
            # u_{s,t}(x) = u_{s,s}(X_{s,t}(x)) + (t-s) d_s u_{s,t}(x)
            endpoint = gaussian_flow_map(task, x, s, t)
            du_ds = _derivative(lambda r: u(x, r, t), s, FD_H)
            rhs = v(endpoint, s) + (t - s) * du_ds
        elif setting == "esd":
            # u_{s,t}(x) = v_t(x) - (t-s)(grad u . v_t + d_t u)
            vt = v(x, t)
            jvp_x = (u(x + FD_H * vt, s, t) - u(x - FD_H * vt, s, t)) / (2.0 * FD_H)
            du_dt = _derivative(lambda r: u(x, s, r), t, FD_H)
            rhs = vt - (t - s) * (jvp_x + du_dt)
        else:
            # ssd: two-half-step composition with midpoint r = (s+t)/2
            r = 0.5 * (s + t)
            u_rt = u(x, r, t)
            x_mid = x - (t - s) / 2.0 * u_rt
            rhs = 0.5 * u_rt + 0.5 * u(x_mid, s, r)
        report.residuals.append(float(np.linalg.norm(u_st - rhs)))
    return report
