"""Ground-truth velocity fields, flow maps and consistency-identity checks.

The Gaussian flow map is known in closed form; an RK4 solver of the
velocity field is kept beside it as an independent reference.  Derivatives
of the oracle average velocity are taken by finite differences rather than
through the autodiff engine, so this module stays independent of the code
it is used to verify.
"""

from __future__ import annotations

import csv
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
        object.__setattr__(self, "mu0", np.asarray(self.mu0, dtype=np.float64))
        object.__setattr__(self, "mu1", np.asarray(self.mu1, dtype=np.float64))
        if self.sigma0 <= 0 or self.sigma1 <= 0:
            raise ValueError("sigmas must be positive")


def _moments(task: GaussianTask, t: float) -> tuple[np.ndarray, float]:
    """Mean m_t = (1-t) mu0 + t mu1 and per-coordinate variance
    v_t = (1-t)^2 s0^2 + t^2 s1^2 of the interpolant at time t."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t outside [0, 1]")
    m_t = (1.0 - t) * task.mu0 + t * task.mu1
    var_t = (1.0 - t) ** 2 * task.sigma0 ** 2 + t ** 2 * task.sigma1 ** 2
    return m_t, var_t


def gaussian_velocity(task: GaussianTask, x: np.ndarray, t: float) -> np.ndarray:
    """Marginal velocity of the linear path between two Gaussians.

    With I_t = (1-t) x0 + t x1 (x0, x1 independent) the conditional
    expectation of x1 - x0 given I_t = x is linear in x:
        E[x1|I_t=x] = mu1 + t s1^2 / v_t (x - m_t)
        E[x0|I_t=x] = mu0 + (1-t) s0^2 / v_t (x - m_t)
    with m_t = (1-t) mu0 + t mu1 and v_t = (1-t)^2 s0^2 + t^2 s1^2, giving
        v(x, t) = (mu1 - mu0) + (t s1^2 - (1-t) s0^2) / v_t (x - m_t).
    """
    m_t, var_t = _moments(task, t)
    x = np.asarray(x, dtype=np.float64)
    coef = (t * task.sigma1 ** 2 - (1.0 - t) * task.sigma0 ** 2) / var_t
    return (task.mu1 - task.mu0) + coef * (x - m_t)


def gaussian_flow_map(task: GaussianTask, x: np.ndarray, s: float,
                      t: float) -> np.ndarray:
    """Exact solution map X_{s,t}: carries x at time t to time s.

    The velocity is affine in x with a scalar slope, so the map is the
    increasing affine map between N(m_t, v_t I) and N(m_s, v_s I):
        X_{s,t}(x) = m_s + sqrt(v_s / v_t) (x - m_t).
    """
    m_s, var_s = _moments(task, s)
    m_t, var_t = _moments(task, t)
    return m_s + np.sqrt(var_s / var_t) * (np.asarray(x, dtype=np.float64) - m_t)


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


def average_velocity_oracle(v, x: np.ndarray, s: float, t: float,
                            n_steps: int = 512) -> np.ndarray:
    """u_{s,t}(x) = (x - X_{s,t}(x)) / (t - s), X the backward solution map."""
    if s >= t:
        raise ValueError("need s < t; use the instantaneous field on the diagonal")
    endpoint = integrate_flow(v, x, t, s, n_steps)
    return (np.asarray(x, dtype=np.float64) - endpoint) / (t - s)


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


def check_identity(setting: str, task: GaussianTask, probes,
                   n_steps: int = 512, fd_h: float = 1e-4) -> IdentityReport:
    """Residual of a self-consistency characterization on the true flow map.

    ``setting`` is one of 'lsd', 'esd', 'ssd', 'semigroup'.  Each probe is a
    tuple (x, s, t) with 0 <= s < t <= 1.  The lsd, esd and ssd identities
    use the closed-form map ``gaussian_flow_map``, u_{s,t}(x) =
    (x - X_{s,t}(x)) / (t - s).  Derivatives of u in s and t are central
    differences with step ``fd_h`` where the stencil stays in [0, 1], and
    second-order one-sided differences at the ends, so every interval in
    [0, 1] can be checked.  The semigroup identity composes ``n_steps``-step
    RK4 solutions of the velocity field, the reference independent of the
    closed form.
    """
    v = lambda x, t: gaussian_velocity(task, x, t)

    def u(x, s, t):
        if s == t:
            return v(x, t)
        return (x - gaussian_flow_map(task, x, s, t)) / (t - s)

    report = IdentityReport(setting=setting)
    for x, s, t in probes:
        x = np.asarray(x, dtype=np.float64)
        if s >= t:
            raise ValueError("probes need s < t")
        u_st = u(x, s, t)
        if setting == "lsd":
            # u_{s,t}(x) = u_{s,s}(X_{s,t}(x)) + (t-s) d_s u_{s,t}(x)
            endpoint = gaussian_flow_map(task, x, s, t)
            du_ds = _derivative(lambda r: u(x, r, t), s, fd_h)
            rhs = v(endpoint, s) + (t - s) * du_ds
        elif setting == "esd":
            # u_{s,t}(x) = v_t(x) - (t-s)(grad u . v_t + d_t u)
            vt = v(x, t)
            eps = fd_h
            jvp_x = (u(x + eps * vt, s, t) - u(x - eps * vt, s, t)) / (2.0 * eps)
            du_dt = _derivative(lambda r: u(x, s, r), t, fd_h)
            rhs = vt - (t - s) * (jvp_x + du_dt)
        elif setting == "ssd":
            # two-half-step composition with midpoint r = (s+t)/2
            r = 0.5 * (s + t)
            u_rt = u(x, r, t)
            x_mid = x - (t - s) / 2.0 * u_rt
            rhs = 0.5 * u_rt + 0.5 * u(x_mid, s, r)
        elif setting == "semigroup":
            # X_{s,t} = X_{s,r} o X_{r,t} with r the midpoint
            r = 0.5 * (s + t)
            direct = integrate_flow(v, x, t, s, n_steps)
            via_mid = integrate_flow(v, integrate_flow(v, x, t, r, n_steps), r, s, n_steps)
            report.residuals.append(float(np.linalg.norm(direct - via_mid)))
            continue
        else:
            raise ValueError(f"unknown setting {setting!r}")
        report.residuals.append(float(np.linalg.norm(u_st - rhs)))
    return report
