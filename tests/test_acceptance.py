"""Acceptance suite: ten numbered behavioral criteria, one test each.

Each test prints a [PASS]/[FAIL] line on the real stdout so the verdicts
survive pytest's capture.  Run with plain `pytest`; the slow training
criteria (6 and 7) dominate the wall time.
"""

import sys
import time

import numpy as np
import pytest

from flowmaplab import autodiff as ad
from flowmaplab.autodiff import Tensor
from flowmaplab.interpolant import STANDARD, interpolate
from flowmaplab.losses import (GuidanceContext, cfg_fm_target, cfg_sd_target,
                               combined_loss, draw_guidance, perceptual_weight,
                               rpgan_losses, sd_target)
from flowmaplab.nets import (COND_NEGATIVE, COND_NULL, COND_POSITIVE, Discriminator,
                             FlowMapModel, WeightNet)
from flowmaplab.oracle import (GaussianTask, average_velocity_oracle, check_identity,
                               gaussian_velocity, integrate_flow)
from flowmaplab.runtime import (Gaussian2DTask, PhasePlan, SamplerConfig,
                                TextureSRTask, evaluate_gaussian, evaluate_sr,
                                save_result, train)
from flowmaplab.schedule import ESD, GridConfig, GridTime, LSD, SSD, TimestepPair, sample_pair

ASYM_TASK = GaussianTask(mu0=np.array([1.0, -1.0]), mu1=np.array([-1.0, 1.0]),
                         sigma0=0.6, sigma1=1.2)


REPORT_LINES: list = []


def report(number: int, ok: bool, detail: str):
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] criterion {number}: {detail}"
    REPORT_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, f"criterion {number}: {detail}"


# -- 1: engine derivatives vs finite differences ---------------------------


def test_criterion_1_gradients_and_jvp_match_fd():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(500):
        depth = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 7)) for _ in range(depth + 1)]
        batch = int(rng.integers(1, 5))
        params = {}
        for i, (fi, fo) in enumerate(zip(dims[:-1], dims[1:])):
            params[f"W{i}"] = Tensor(rng.normal(0, 0.7, size=(fi, fo)),
                                     requires_grad=True)
            params[f"b{i}"] = Tensor(rng.normal(0, 0.2, size=(fo,)),
                                     requires_grad=True)
        x0 = rng.normal(size=(batch, dims[0]))
        target = rng.normal(size=(batch, dims[-1]))

        def forward(ps, xin):
            h = ad.as_tensor(xin)
            for i in range(depth):
                h = ad.add(ad.matmul(h, ps[f"W{i}"]), ps[f"b{i}"])
                if i < depth - 1:
                    h = ad.silu(h)
            return h

        def scalar_loss(ps, xin):
            return ad.mean(ad.square(ad.sub(forward(ps, xin), Tensor(target))))

        grads = ad.grad(scalar_loss(params, x0), params)
        # probe three random parameter entries with central differences
        h = 1e-5
        for _ in range(3):
            name = f"W{int(rng.integers(0, depth))}"
            arr = params[name].data
            idx = tuple(int(rng.integers(0, n)) for n in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + h
            up = scalar_loss(params, x0).item()
            arr[idx] = orig - h
            dn = scalar_loss(params, x0).item()
            arr[idx] = orig
            fd = (up - dn) / (2 * h)
            rel = abs(grads[name][idx] - fd) / max(abs(fd), 1.0)
            worst = max(worst, rel)

        # forward-mode directional derivative against central differences
        v = rng.normal(size=x0.shape)
        _, tang = ad.jvp(lambda z: forward(params, z), Tensor(x0), Tensor(v))
        with ad.no_grad():
            fp = forward(params, x0 + h * v).data
            fm = forward(params, x0 - h * v).data
        fd_dir = (fp - fm) / (2 * h)
        rel = np.max(np.abs(tang.data - fd_dir)) / max(np.max(np.abs(fd_dir)), 1.0)
        worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-5 and elapsed < 30.0
    report(1, ok, f"500 random networks, worst rel err {worst:.2e} "
                  f"(tol 1e-5), {elapsed:.1f}s (budget 30s)")


# -- 2: oracle identity suite ---------------------------------------------


def test_criterion_2_oracle_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    probes = []
    for _ in range(100):
        x = rng.normal(0.0, 1.5, size=2)
        s = float(rng.uniform(0.0, 0.85))
        t = float(rng.uniform(s + 0.1, 1.0))
        probes.append((x, s, t))
    residuals = {}
    for setting in (LSD, ESD, SSD):
        residuals[setting] = check_identity(setting, ASYM_TASK, probes).max_residual
    semi = check_identity("semigroup", ASYM_TASK, probes).max_residual
    elapsed = time.monotonic() - t0
    ok = (all(r < 1e-3 for r in residuals.values()) and semi < 1e-5
          and elapsed < 120.0)
    detail = ", ".join(f"{k} {v:.2e}" for k, v in residuals.items())
    report(2, ok, f"100 probes: {detail} (tol 1e-3), semigroup {semi:.2e} "
                  f"(tol 1e-5), {elapsed:.1f}s (budget 120s)")


# -- 3: flow-map endpoint prediction beats the velocity shortcut ----------


def test_criterion_3_x0_prediction():
    rng = np.random.default_rng(3)
    v = lambda x, t: gaussian_velocity(ASYM_TASK, x, t)
    n = 50
    x1 = ASYM_TASK.mu1 + ASYM_TASK.sigma1 * rng.standard_normal((n, 2))
    worst_exact = 0.0
    medians = []
    for t in (0.5, 0.6, 0.75, 0.9, 1.0):
        x_t = integrate_flow(v, x1, 1.0, t) if t < 1.0 else x1
        # reference endpoint from an independent, finer integration
        x0_ref = integrate_flow(v, x_t, t, 0.0, n_steps=2048)
        u = np.stack([average_velocity_oracle(v, row, 0.0, t, n_steps=512)
                      for row in x_t])
        flowmap_err = np.linalg.norm(x_t - t * u - x0_ref, axis=1)
        fm_err = np.linalg.norm(x_t - t * v(x_t, t) - x0_ref, axis=1)
        worst_exact = max(worst_exact, flowmap_err.max())
        medians.append((float(np.median(fm_err)), float(np.median(flowmap_err))))
    separated = all(fm > fmap for fm, fmap in medians)
    ok = worst_exact < 1e-4 and separated
    report(3, ok, f"average-velocity endpoint exact to {worst_exact:.2e} "
                  f"(tol 1e-4) at 50 points; instantaneous-velocity shortcut "
                  f"median error strictly larger at every t >= 0.5: {separated}")


# -- 4: timestep and guidance sampling statistics -------------------------


def test_criterion_4_sampling_fractions():
    rng = np.random.default_rng(4)
    cfg = GridConfig()
    n = 100_000
    fm_frac = sum(sample_pair(SSD, cfg, rng).is_fm for _ in range(n)) / n
    drops = sum(draw_guidance(rng, 3.5, COND_POSITIVE).dropped
                for _ in range(n)) / n
    ok = abs(fm_frac - 0.75) < 0.01 and abs(drops - 0.10) < 0.01
    report(4, ok, f"flow-matching fraction {fm_frac:.4f} (0.75 +/- 0.01), "
                  f"condition drop rate {drops:.4f} (0.10 +/- 0.01), "
                  f"{n} draws each")


# -- 5: guidance targets reduce at w=1 and cost the stated extra evals ----


def test_criterion_5_guidance_reduction_and_cost():
    rng = np.random.default_rng(5)
    model = FlowMapModel(2, hidden=16, depth=2, time_dim=8, cond_dim=4, rng=rng)
    head = f"layer{model.depth}.W"
    model.params[head].data += 0.05 * rng.standard_normal(model.params[head].shape)
    model.params["cond.table"].data += 0.3 * rng.standard_normal((3, 4))
    x0, x1 = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    s, t = 0.25, 0.75
    ctx1 = GuidanceContext(w=1.0, w_max=3.5, cond=COND_POSITIVE)
    ctx2 = GuidanceContext(w=2.5, w_max=3.5, cond=COND_POSITIVE)

    worst = np.max(np.abs(cfg_fm_target(model, x0, x1, t, ctx1).data
                          - (x1 - x0)))
    extras = {}
    for setting, expected in ((LSD, 2), (ESD, 1), (SSD, 0)):
        red = cfg_sd_target(setting, model, x0, x1, s, t, STANDARD, ctx1)
        ref = sd_target(setting, model, x0, x1, s, t, COND_POSITIVE)
        worst = max(worst, float(np.max(np.abs(red.data - ref.data))))
        before = model.eval_count
        sd_target(setting, model, x0, x1, s, t, COND_POSITIVE)
        base = model.eval_count - before
        before = model.eval_count
        cfg_sd_target(setting, model, x0, x1, s, t, STANDARD, ctx2)
        extras[setting] = (model.eval_count - before) - base
    costs_ok = extras == {LSD: 2, ESD: 1, SSD: 0}
    ok = worst < 1e-12 and costs_ok
    report(5, ok, f"w=1 reduction residual {worst:.2e} (tol 1e-12); extra "
                  f"evaluations {extras} (expected lsd 2, esd 1, ssd 0)")


# -- 6: few-step quality on the analytic 2D Gaussian task -----------------


@pytest.mark.slow
def test_criterion_6_gaussian_few_step_quality():
    t0 = time.monotonic()
    plan = PhasePlan(fm_steps=2000, fmsd_steps=6000, cfg_steps=0, adv_steps=0,
                     batch_size=256)
    task = Gaussian2DTask()
    result = train(plan, task, seed=0)
    w2 = {}
    for k in (2, 128):
        cfg = SamplerConfig(steps=k, cond=COND_NULL, lora_scale=0.0)
        w2[k] = evaluate_gaussian(result.model, task, 2000, cfg, seed=0)["w2"]
    elapsed = time.monotonic() - t0
    gap = abs(w2[128] - w2[2])
    ok = w2[2] < 0.15 and gap <= 0.05 and elapsed < 900.0
    report(6, ok, f"W2 at K=2 {w2[2]:.3f} (tol 0.15), K=128 {w2[128]:.3f}, "
                  f"gap {gap:.3f} (tol 0.05), {elapsed:.0f}s (budget 900s)")


# -- 7: texture super-resolution beats the bilinear baseline --------------


@pytest.mark.slow
def test_criterion_7_texture_sr_psnr():
    # Best desk-scale configuration found; the full margin appears out of
    # reach for this texture family at 4x: nearly half the sinusoid
    # frequency range aliases on the 4x4 grid, and even a closed-form
    # linear restorer fit at the exact test degradation stops at +0.96 dB.
    plan = PhasePlan(fm_steps=3000, fmsd_steps=3000, cfg_steps=0, adv_steps=0,
                     batch_size=256, lr_model=3e-3)
    task = TextureSRTask(size=16)
    result = train(plan, task, seed=0)
    cfg = SamplerConfig(steps=2, cond=COND_NULL, lora_scale=0.0)
    rep = evaluate_sr(result.model, task, 200, cfg, seed=999, s_down=0.25)
    margin = rep["psnr_model"] - rep["psnr_baseline"]
    ok = margin >= 1.0
    report(7, ok, f"200 held-out 16x16 textures at 4x: model {rep['psnr_model']:.2f} dB "
                  f"vs bilinear {rep['psnr_baseline']:.2f} dB, margin "
                  f"{margin:+.2f} dB (needs >= +1.00)")


# -- 8: adversarial phase contracts ---------------------------------------


def test_criterion_8_adversarial_contracts():
    tiny = dict(fm_steps=4, fmsd_steps=4, cfg_steps=4, adv_steps=3,
                d_pretrain_steps=2, batch_size=8, hidden=16, depth=2,
                time_dim=8, cond_dim=4)
    full = train(PhasePlan(**tiny), Gaussian2DTask(), seed=0)
    no_adv = train(PhasePlan(**{**tiny, "adv_steps": 0, "d_pretrain_steps": 0}),
                   Gaussian2DTask(), seed=0)
    trunk_frozen = all(
        np.array_equal(full.model.params[k].data, no_adv.model.params[k].data)
        for k in no_adv.model.params)

    rng = np.random.default_rng(8)
    model = full.model
    disc = Discriminator(2, hidden=16, rng=rng)
    x0, x1 = rng.normal(size=(8, 2)), rng.normal(size=(8, 2))
    _, d_loss = rpgan_losses(model, disc, x0, x1,
                             GuidanceContext(w=1.0, w_max=3.5, cond=COND_NULL),
                             lambda_adv=0.0)
    model.set_trunk_trainable(True)
    g = ad.grad(d_loss, model.trainable_params())
    d_grad_zero = all(np.all(gv == 0.0) for gv in g.values())

    sp0 = ad.softplus(Tensor(0.0)).item()
    softplus_ok = abs(sp0 - np.log(2.0)) < 1e-12

    with ad.no_grad():
        base = no_adv.model(x1, 0.0, 1.0, COND_NULL).data
        gamma0 = model(x1, 0.0, 1.0, COND_NULL, lora_scale=0.0).data
    gamma_exact = np.array_equal(base, gamma0)

    ok = trunk_frozen and d_grad_zero and softplus_ok and gamma_exact
    report(8, ok, f"trunk bit-frozen {trunk_frozen}, discriminator loss has no "
                  f"generator gradient {d_grad_zero}, softplus(0) - ln2 = "
                  f"{sp0 - np.log(2.0):.1e} (tol 1e-12), zero adapter scale "
                  f"bit-exact {gamma_exact}")


# -- 9: bitwise reproducibility of artifacts ------------------------------


def test_criterion_9_bitwise_reproducibility(tmp_path):
    tiny = dict(fm_steps=6, fmsd_steps=6, cfg_steps=6, adv_steps=4,
                d_pretrain_steps=2, batch_size=8, hidden=16, depth=2,
                time_dim=8, cond_dim=4)
    blobs = []
    for name in ("a", "b"):
        res = train(PhasePlan(**tiny), Gaussian2DTask(), seed=11)
        path = tmp_path / f"{name}.ckpt"
        save_result(path, res, "gaussian2d")
        blobs.append((res.metrics_csv().encode(), path.read_bytes()))
    csv_same = blobs[0][0] == blobs[1][0]
    ckpt_same = blobs[0][1] == blobs[1][1]
    ok = csv_same and ckpt_same
    report(9, ok, f"same seed twice: metrics csv byte-identical {csv_same}, "
                  f"checkpoint byte-identical {ckpt_same}")


# -- 10: regularizer anchors and neutral initial weighting ----------------


def test_criterion_10_weighting_anchors():
    a0 = perceptual_weight(0.0)
    a1 = perceptual_weight(1.0)
    anchors_ok = a0 == 5.0 and abs(a1 - 5.0 * np.exp(-4.0)) < 1e-15

    rng = np.random.default_rng(10)
    model = FlowMapModel(2, hidden=16, depth=2, time_dim=8, cond_dim=4, rng=rng)
    head = f"layer{model.depth}.W"
    model.params[head].data += 0.05 * rng.standard_normal(model.params[head].shape)
    wn = WeightNet(time_dim=8, rng=rng)
    x0, x1 = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    pair = TimestepPair(s=GridTime(1, 2), t=GridTime(3, 2), is_fm=False, level=2)
    br = combined_loss(model, wn, x0, x1, pair, SSD, use_perceptual=False)
    raw = br.main.item()
    neutral_ok = br.lam == 0.0 and br.weighted_total.item() == raw

    ok = anchors_ok and neutral_ok
    report(10, ok, f"weight anchors 5.0 at s=0 and 5e^-4 at s=1: {anchors_ok}; "
                   f"fresh weighting head leaves the loss unchanged: {neutral_ok}")
