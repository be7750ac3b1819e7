"""Analytic Gaussian flow oracle: velocity field, RK4 map, identity checks."""

import re

import numpy as np
import pytest

from flowmaplab import oracle
from flowmaplab.oracle import (GaussianTask, _gaussian_rk4, average_velocity_oracle,
                               check_identity, gaussian_average_velocity, gaussian_velocity,
                               integrate_flow)

GOOD = dict(mu0=np.array([1.0, -1.0]), mu1=np.array([-1.0, 1.0]), sigma0=0.6, sigma1=1.2)
TASK = GaussianTask(**GOOD)


def _probes(n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        x = rng.normal(0.0, 1.5, size=2)
        s = float(rng.uniform(0.0, 0.85))
        t = float(rng.uniform(s + 0.1, 1.0))
        out.append((x, s, t))
    return out


def test_velocity_endpoint_means():
    # at the mean of the path the velocity is exactly the mean displacement
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        m_t = (1 - t) * TASK.mu0 + t * TASK.mu1
        np.testing.assert_allclose(gaussian_velocity(TASK, m_t, t),
                                   TASK.mu1 - TASK.mu0, rtol=1e-12)


def test_velocity_matches_empirical_regression():
    # E[x1 - x0 | I_t = x] estimated from a huge paired sample, binned near x
    rng = np.random.default_rng(1)
    n = 400_000
    x0 = TASK.mu0 + TASK.sigma0 * rng.standard_normal((n, 2))
    x1 = TASK.mu1 + TASK.sigma1 * rng.standard_normal((n, 2))
    t = 0.6
    xt = (1 - t) * x0 + t * x1
    probe = np.array([0.1, 0.4])
    mask = np.linalg.norm(xt - probe, axis=1) < 0.12
    emp = (x1[mask] - x0[mask]).mean(axis=0)
    np.testing.assert_allclose(gaussian_velocity(TASK, probe, t), emp, atol=0.08)


def test_transport_of_source_to_target_moments():
    # integrating the field from t=1 to t=0 carries source samples to the target law
    rng = np.random.default_rng(2)
    x1 = TASK.mu1 + TASK.sigma1 * rng.standard_normal((4000, 2))
    v = lambda x, t: gaussian_velocity(TASK, x, t)
    x0 = integrate_flow(v, x1, 1.0, 0.0, n_steps=256)
    np.testing.assert_allclose(x0.mean(axis=0), TASK.mu0, atol=0.05)
    np.testing.assert_allclose(x0.std(axis=0), TASK.sigma0, atol=0.05)


def test_rk4_reversibility():
    v = lambda x, t: gaussian_velocity(TASK, x, t)
    x = np.array([0.3, -0.8])
    fwd = integrate_flow(v, x, 1.0, 0.2, n_steps=512)
    back = integrate_flow(v, fwd, 0.2, 1.0, n_steps=512)
    np.testing.assert_allclose(back, x, atol=1e-10)


def test_average_velocity_definition():
    v = lambda x, t: gaussian_velocity(TASK, x, t)
    x = np.array([0.5, 0.5])
    s, t = 0.2, 0.9
    u = average_velocity_oracle(v, x, s, t)
    endpoint = integrate_flow(v, x, t, s)
    np.testing.assert_allclose(x - (t - s) * u, endpoint, rtol=1e-12)


def test_closed_form_map_matches_rk4():
    # 50 intervals (s = 0, t = 1 and [0, 1] among them) x 4 points = 200 probes
    v = lambda x, t: gaussian_velocity(TASK, x, t)
    rng = np.random.default_rng(4)
    intervals = [(0.0, 1.0), (0.0, 0.3), (0.6, 1.0)]
    while len(intervals) < 50:
        s = float(rng.uniform(0.0, 0.9))
        intervals.append((s, float(rng.uniform(s + 0.05, 1.0))))
    for s, t in intervals:
        x = rng.normal(0.0, 1.5, size=(4, 2))
        u, _, endpoint = gaussian_average_velocity(TASK, x, s, t)
        np.testing.assert_allclose(endpoint, integrate_flow(v, x, t, s), rtol=0, atol=1e-10)
        np.testing.assert_allclose(u, average_velocity_oracle(v, x, s, t), rtol=0, atol=1e-10)
        assert u.tobytes() == ((x - endpoint) / (t - s)).tobytes()


@pytest.mark.parametrize("s,t", [(-1e-9, 0.5), (0.5, 1.0 + 1e-9)])
def test_closed_form_map_rejects_times_outside_unit_interval(s, t):
    with pytest.raises(ValueError, match=r"^t outside \[0, 1\]$"):
        gaussian_average_velocity(TASK, np.zeros(2), s, t, ds=1.0)


@pytest.mark.parametrize("s,t", [(0.5, 0.5), (0.6, 0.5), (1.0, 1.0)])
def test_closed_form_map_refuses_an_empty_interval(s, t):
    with pytest.raises(ValueError, match=r"^need s < t"):
        gaussian_average_velocity(TASK, np.zeros(2), s, t, dt=1.0)


FD_H = 1e-5  # finite-difference step of the closed-form tangent checks


def _derivative(f, r: float, h: float = FD_H) -> np.ndarray:
    """df/dr at r with step h: central where r +- h stays in [0, 1], else the
    second-order one-sided stencil pointing into the interval."""
    if r - h >= 0.0 and r + h <= 1.0:
        return (f(r + h) - f(r - h)) / (2.0 * h)
    if r - h < 0.0:
        return (-3.0 * f(r) + 4.0 * f(r + h) - f(r + 2.0 * h)) / (2.0 * h)
    return (3.0 * f(r) - 4.0 * f(r - h) + f(r - 2.0 * h)) / (2.0 * h)


def _fd_tangent(x, s, t, dx, ds, dt) -> np.ndarray:
    """Finite differences of the closed-form u_{s,t}(x) along (dx, ds, dt):
    central in x, and in s and t as ``_derivative``, summed over the three."""
    u = lambda x, s, t: gaussian_average_velocity(TASK, x, s, t)[0]
    out = np.zeros_like(x)
    if dx is not None:
        out += (u(x + FD_H * dx, s, t) - u(x - FD_H * dx, s, t)) / (2.0 * FD_H)
    if ds:
        out += ds * _derivative(lambda r: u(x, r, t), s)
    if dt:
        out += dt * _derivative(lambda r: u(x, s, r), t)
    return out


@pytest.mark.parametrize("s,t", [(0.2, 0.7), (0.05, 0.95), (0.4, 0.5), (0.8, 0.9),
                                 (0.0, 0.5), (0.0, 1.0), (0.5, 1.0)])
@pytest.mark.parametrize("along", ["dx", "ds", "dt", "all"])
def test_closed_form_tangents_match_finite_differences(s, t, along):
    # interior intervals, then the end intervals of the identity checks,
    # where the s or t stencil is one-sided
    rng = np.random.default_rng(7)
    x, w = rng.normal(0.0, 1.5, size=(2, 4, 2))
    dx = w if along in ("dx", "all") else None
    ds = -0.7 if along in ("ds", "all") else 0.0
    dt = 1.3 if along in ("dt", "all") else 0.0
    u, du, _ = gaussian_average_velocity(TASK, x, s, t, dx=dx, ds=ds, dt=dt)
    assert u.tobytes() == gaussian_average_velocity(TASK, x, s, t)[0].tobytes()
    want = _fd_tangent(x, s, t, dx, ds, dt)
    assert np.max(np.abs(du - want)) <= 1e-7 * max(1.0, np.max(np.abs(want)))


def test_closed_form_tangent_is_zero_along_no_direction():
    x = np.array([[0.5, -0.25], [1.0, 2.0]])
    assert not gaussian_average_velocity(TASK, x, 0.3, 0.6)[1].any()


def test_average_velocity_rejects_bad_interval():
    v = lambda x, t: gaussian_velocity(TASK, x, t)
    with pytest.raises(ValueError):
        average_velocity_oracle(v, np.zeros(2), 0.5, 0.5)


@pytest.mark.parametrize("setting,tol", [
    ("lsd", 1e-12), ("esd", 1e-12), ("ssd", 1e-10), ("semigroup", 1e-10),
])
def test_identities_hold_on_true_flow(setting, tol):
    report = check_identity(setting, TASK, _probes(8))
    assert report.max_residual < tol


@pytest.mark.parametrize("setting,s,t,tol", [
    ("lsd", 0.0, 0.5, 1e-12), ("lsd", 0.0, 1.0, 1e-12), ("esd", 0.5, 1.0, 1e-12),
    ("esd", 0.0, 1.0, 1e-12), ("ssd", 0.0, 1.0, 1e-10), ("semigroup", 0.0, 1.0, 1e-10),
])
def test_identities_hold_on_end_intervals(setting, s, t, tol):
    # the exact tangents hold at s = 0 and t = 1 as well as inside
    report = check_identity(setting, TASK, [(np.array([0.5, -0.25]), s, t)])
    assert report.max_residual < tol


def test_identity_report_csv(tmp_path):
    report = check_identity("ssd", TASK, _probes(3))
    path = tmp_path / "r.csv"
    report.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "setting,probe,residual"
    assert len(lines) == 4


def test_identity_check_rejects_bad_probe():
    with pytest.raises(ValueError):
        check_identity("lsd", TASK, [(np.zeros(2), 0.8, 0.3)])


def test_nonfinite_integration_raises():
    blow_up = lambda x, t: x * 1e8
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError):
            integrate_flow(blow_up, np.ones(2), 0.0, 1.0, n_steps=64)


@pytest.mark.parametrize("name,value", [
    ("sigma0", float("nan")), ("sigma0", 0.0), ("sigma1", -1.2), ("sigma1", float("inf")),
    ("mu0", np.array([1.0])), ("mu1", np.array([-1.0, 1.0, 0.0])),
    ("mu0", np.array([np.nan, -1.0])), ("mu1", np.array([-1.0, np.inf])),
    ("mu0", np.zeros((1, 2))), ("mu1", 1.0),
])
def test_task_refuses_bad_parameter_by_name(name, value):
    with pytest.raises(ValueError, match=name):
        GaussianTask(**{**GOOD, name: value})


@pytest.mark.parametrize("setting,bad,message", [
    ("bogus", None, r"^unknown setting 'bogus'"),
    ("ssd", "none", r"^no probes to check$"),
    ("semigroup", (0.5, 0.2, 0.6), r"^probe x must be finite of shape \(2,\)"),
    ("lsd", (np.zeros(3), 0.2, 0.6), r"^probe x must be finite of shape \(2,\)"),
    ("esd", (np.zeros((1, 2)), 0.2, 0.6), r"^probe x must be finite of shape \(2,\)"),
    ("ssd", (np.array([0.0, np.nan]), 0.2, 0.6), r"^probe x must be finite of shape \(2,\)"),
    ("lsd", (np.zeros(2), 0.6, 0.6), r"^probes need s < t$"),
    ("semigroup", (np.zeros(2), -1e-9, 0.6), r"^t outside \[0, 1\]$"),
    ("esd", (np.zeros(2), 0.2, 1.0 + 1e-9), r"^t outside \[0, 1\]$"),
])
def test_identity_check_refuses_bad_input_before_any_probe(monkeypatch, setting, bad, message):
    def ran(*args, **kwargs):
        raise AssertionError("a probe ran")
    for name in ("gaussian_velocity", "gaussian_average_velocity", "_gaussian_rk4"):
        monkeypatch.setattr(oracle, name, ran)
    # a good probe first: the refusal must come before it runs
    probes = [] if bad == "none" else [(np.zeros(2), 0.2, 0.6)] + ([bad] if bad else [])
    with pytest.raises(ValueError, match=message):
        check_identity(setting, TASK, probes)


def _reference(task, x, t_from, t_to, n_steps):
    return integrate_flow(lambda y, r: gaussian_velocity(task, y, r), x, t_from, t_to, n_steps)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n_steps", [1, 7, 64, 512])
def test_gaussian_rk4_equals_reference_bit_for_bit(d, n_steps):
    # 12 cases x 17 seeded intervals = 204, each solved in both directions
    rng = np.random.default_rng(100 * d + n_steps)
    task = GaussianTask(mu0=rng.normal(size=d), mu1=rng.normal(size=d),
                        sigma0=float(rng.uniform(0.2, 2.0)), sigma1=float(rng.uniform(0.2, 2.0)))
    intervals = [(0.0, 1.0), (0.0, float(rng.uniform(0.05, 1.0))),
                 (float(rng.uniform(0.0, 0.95)), 1.0)]
    while len(intervals) < 17:
        s = float(rng.uniform(0.0, 0.95))
        intervals.append((s, float(rng.uniform(s + 0.01, 1.0))))
    for s, t in intervals:
        x = rng.normal(0.0, 1.5, size=d)
        for t_from, t_to in ((t, s), (s, t)):
            got = _gaussian_rk4(task, x, t_from, t_to, n_steps)
            assert got.tobytes() == _reference(task, x, t_from, t_to, n_steps).tobytes()


@pytest.mark.parametrize("x0,t_from,t_to,n_steps", [
    (0.0, -1e-9, 0.5, 8), (0.0, 0.5, 1.0 + 1e-9, 8), (0.0, 0.2, 0.5, 0),
    (1e308, 0.0, 1.0, 512), (1e308, 1.0, 0.0, 512), (5e307, 0.2, 0.9, 64),
])
def test_gaussian_rk4_fails_like_the_reference(x0, t_from, t_to, n_steps):
    x = np.array([x0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises((ValueError, FloatingPointError)) as want:
            _reference(TASK, x, t_from, t_to, n_steps)
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        _gaussian_rk4(TASK, x, t_from, t_to, n_steps)
