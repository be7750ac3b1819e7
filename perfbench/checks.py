"""Correctness checks for the benchmark's workloads.

Every reference here is computed apart from the code it checks: targets
from central differences of ``FlowMapModel.forward``, restored images from
a plain-numpy sampler built from the checkpoint tensors, and the Gaussian
flow map in closed form.  Each check returns a list of error strings (empty
when the output is right), so the smoke script can feed it a deliberately
wrong output and require a non-empty list.
"""

from __future__ import annotations

import math

import numpy as np

# relative agreement required of each reference
TARGET_FD_RTOL = 1e-6      # JVP targets vs central differences of forward
GRAD_FD_RTOL = 1e-7        # reverse-mode gradient entries vs central differences
GRAD_FD_FLOOR = 1e-2       # gradients below this are compared in absolute terms
SSD_RTOL = 1e-12           # shortcut target vs the same two forwards
RESTORE_RTOL = 1e-10       # restored images vs the numpy sampler
CLOSED_FORM_ATOL = 1e-8    # RK4 average velocity vs the closed-form flow map
IDENTITY_TOL = {"lsd": 1e-3, "esd": 1e-3, "ssd": 1e-3, "semigroup": 1e-5}
FD_H = 1e-6                # central-difference step in s, t and x
GRAD_FD_H = 1e-4           # central-difference step in a parameter entry


def rel_err(got, ref) -> float:
    got, ref = np.asarray(got, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    if got.shape != ref.shape:
        return math.inf
    scale = max(float(np.linalg.norm(ref)), 1e-300)
    return float(np.linalg.norm(got - ref)) / scale


def check_close(what: str, got, ref, rtol: float) -> list[str]:
    err = rel_err(got, ref)
    return [] if err <= rtol else [f"{what}: relative error {err:.3e} > {rtol:g}"]


# -- training ---------------------------------------------------------------


def expected_phases(steps: dict) -> list[str]:
    """The ``phase`` column that ``train`` logs for a plan's step counts."""
    return (["fm"] * steps["fm_steps"] + ["fmsd"] * steps["fmsd_steps"]
            + ["cfg"] * steps["cfg_steps"]
            + ["adv"] * (steps["d_pretrain_steps"] + steps["adv_steps"]))


def check_rows(rows, phases: list[str]) -> list[str]:
    """Logged steps equal the plan and every logged loss is finite."""
    errs = []
    if [r[1] for r in rows] != phases:
        errs.append(f"logged phases {[r[1] for r in rows]} != plan {phases}")
    if [r[0] for r in rows] != [str(i) for i in range(len(rows))]:
        errs.append("logged step numbers are not 0..n-1")
    for r in rows:
        vals = [float(v) for v in r[2:] if v != ""]
        if not vals or not all(math.isfinite(v) for v in vals):
            errs.append(f"step {r[0]} ({r[1]}): missing or non-finite loss {r[2:]}")
    return errs


def forward(model, x, s, t, cond) -> np.ndarray:
    from flowmaplab import autodiff as ad
    with ad.no_grad():
        return model(x, s, t, cond).data


def fd_ds(model, x, s, t, cond, h=FD_H) -> np.ndarray:
    """d/ds u_{s,t}(x) by central differences."""
    return (forward(model, x, s + h, t, cond) - forward(model, x, s - h, t, cond)) / (2 * h)


def fd_transport(model, x, v, s, t, cond, h=FD_H) -> np.ndarray:
    """grad_x u . v + d/dt u, the derivative along (x + h v, t + h)."""
    return (forward(model, x + h * v, s, t + h, cond)
            - forward(model, x - h * v, s, t - h, cond)) / (2 * h)


def ref_sd_target(setting, model, x0, x1, s, t, cond) -> np.ndarray:
    """Lagrangian / Eulerian consistency targets from central differences."""
    x_t = (1.0 - t) * x0 + t * x1
    v_t = x1 - x0
    if setting == "lsd":
        return v_t + (t - s) * fd_ds(model, x_t, s, t, cond)
    if setting == "esd":
        return v_t - (t - s) * fd_transport(model, x_t, v_t, s, t, cond)
    raise ValueError(setting)


def ref_cfg_sd_target(setting, model, x0, x1, s, t, w, cond, neg) -> np.ndarray:
    """Guidance-aware targets: the negative branch enters through
    v_cfg = w v + (1 - w) u_neg, derivatives by central differences."""
    x_t = (1.0 - t) * x0 + t * x1
    v_t = x1 - x0
    if setting == "lsd":
        x_s_neg = x_t - (t - s) * forward(model, x_t, s, t, neg)
        v_cfg = w * v_t + (1.0 - w) * forward(model, x_s_neg, s, s, neg)
        return v_cfg + (t - s) * fd_ds(model, x_t, s, t, cond)
    if setting == "esd":
        v_cfg = w * v_t + (1.0 - w) * forward(model, x_t, t, t, neg)
        return v_cfg - (t - s) * fd_transport(model, x_t, v_cfg, s, t, cond)
    raise ValueError(setting)


def ref_ssd_target(model, x0, x1, s, t, cond) -> np.ndarray:
    """Mean of the two half-interval velocities through r = (s + t) / 2."""
    x_t = (1.0 - t) * x0 + t * x1
    r = 0.5 * (s + t)
    u_rt = forward(model, x_t, r, t, cond)
    u_sr = forward(model, x_t - (t - s) / 2.0 * u_rt, s, r, cond)
    return 0.5 * u_rt + 0.5 * u_sr


def check_extra_evals(setting: str, extra: int) -> list[str]:
    want = {"lsd": 2, "esd": 1, "ssd": 0}[setting]
    return [] if extra == want else [f"{setting}: guidance made {extra} extra evaluations, "
                                     f"expected {want}"]


def fd_grad_entry(loss_value, param, idx, h=GRAD_FD_H) -> float:
    """Central difference of ``loss_value()`` in one entry of a parameter."""
    old = param.data
    plus, minus = old.copy(), old.copy()
    plus[idx] += h
    minus[idx] -= h
    try:
        param.data = plus
        lp = loss_value()
        param.data = minus
        lm = loss_value()
    finally:
        param.data = old
    return (lp - lm) / (2 * h)


def check_grad_entries(name: str, got: list, ref: list) -> list[str]:
    errs = []
    for i, (g, r) in enumerate(zip(got, ref)):
        if abs(g - r) > GRAD_FD_RTOL * max(abs(r), GRAD_FD_FLOOR):
            errs.append(f"gradient {name}[{i}]: autodiff {g:.9e} vs central difference {r:.9e}")
    return errs


def check_batch_ranges(lo, hi, sd_lo, sd_hi, batches, neg_batches,
                       want_batches, want_neg) -> list[str]:
    errs = []
    if not (-1.0 <= lo and hi <= 1.0):
        errs.append(f"texture batches leave [-1, 1]: [{lo}, {hi}]")
    if not (0.1 <= sd_lo and sd_hi <= 1.0):
        errs.append(f"s_down outside [0.1, 1]: [{sd_lo}, {sd_hi}]")
    if (batches, neg_batches) != (want_batches, want_neg):
        errs.append(f"drew {batches} batches ({neg_batches} with negatives), "
                    f"expected {want_batches} ({want_neg})")
    return errs


# -- restore ----------------------------------------------------------------


def ref_sample(tensors: dict, meta: dict, x1: np.ndarray, steps: int, cond: int,
               gamma: float) -> np.ndarray:
    """K-step flow-map sampler in plain numpy, from checkpoint tensors:
    inputs concat(x, emb(s), emb(t), cond row), MLP with silu and effective
    weights W + gamma B A, update x <- x - (1/K) u over [k/K, (k+1)/K]."""
    depth, time_dim = int(meta["depth"]), int(meta["time_dim"])
    half = time_dim // 2
    freqs = np.array([1.0]) if half == 1 else np.exp(np.linspace(0.0, math.log(1000.0), half))
    weights, biases = [], []
    for i in range(depth + 1):
        W = tensors[f"model.layer{i}.W"]
        if f"model.layer{i}.lora.B" in tensors:
            W = W + gamma * (tensors[f"model.layer{i}.lora.B"] @ tensors[f"model.layer{i}.lora.A"])
        weights.append(W)
        biases.append(tensors[f"model.layer{i}.b"])
    cond_row = tensors["model.cond.table"][cond]

    def emb(v):
        return np.concatenate([np.sin(freqs * v), np.cos(freqs * v)])

    x = np.array(x1, dtype=np.float64)
    n, delta = x.shape[0], 1.0 / steps
    for k in range(steps - 1, -1, -1):
        lo, hi = k * delta, (k + 1) * delta
        ctx = np.concatenate([emb(lo), emb(hi), cond_row])
        h = np.concatenate([x, np.broadcast_to(ctx, (n, ctx.size))], axis=1)
        for i in range(depth + 1):
            h = h @ weights[i] + biases[i]
            if i < depth:
                h = h / (1.0 + np.exp(-h))
        x = x - delta * h
    return x


def check_request(tag: str, out, ref, evals: int, steps: int) -> list[str]:
    errs = check_close(f"restore {tag}", out, ref, RESTORE_RTOL)
    if evals != steps:
        errs.append(f"restore {tag}: {evals} model evaluations for K={steps}")
    return errs


def check_roundtrip(saved: dict, loaded: dict) -> list[str]:
    errs = []
    if sorted(saved) != sorted(loaded):
        errs.append(f"checkpoint names differ: {sorted(set(saved) ^ set(loaded))}")
    for k in sorted(set(saved) & set(loaded)):
        a, b = np.asarray(saved[k]), np.asarray(loaded[k])
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            errs.append(f"checkpoint tensor {k} changed in the round trip")
    return errs


# -- oracle -----------------------------------------------------------------


def closed_form_u(task, x, s, t) -> np.ndarray:
    """Average velocity of the Gaussian flow map in closed form:
    X_{s,t}(x) = m_s + sqrt(v_s / v_t) (x - m_t), u = (x - X_{s,t}(x)) / (t - s)."""
    def m(r):
        return (1.0 - r) * task.mu0 + r * task.mu1

    def var(r):
        return (1.0 - r) ** 2 * task.sigma0 ** 2 + r ** 2 * task.sigma1 ** 2

    x = np.asarray(x, dtype=np.float64)
    return (x - m(s) - math.sqrt(var(s) / var(t)) * (x - m(t))) / (t - s)


def check_closed_form(tag: str, u_rk4, u_ref) -> list[str]:
    err = float(np.max(np.abs(np.asarray(u_rk4) - u_ref)) / max(1.0, float(np.max(np.abs(u_ref)))))
    return [] if err <= CLOSED_FORM_ATOL else [
        f"oracle {tag}: RK4 average velocity off the closed form by {err:.3e}"]


def check_probe(tag: str, setting: str, residual, error, may_fail: bool) -> list[str]:
    """A probe passes within the oracle-check tolerance.  Only the
    end-interval lsd/esd probes may instead fail, and only with the fault
    of the central-difference stencil leaving [0, 1]."""
    if error is not None:
        if may_fail and error == "t outside [0, 1]":
            return []
        return [f"oracle {tag}: unexpected failure {error!r}"]
    tol = IDENTITY_TOL[setting]
    return [] if residual <= tol else [f"oracle {tag}: residual {residual:.3e} > {tol:g}"]
