"""Trainer phases, optimizer, sampler, metrics, and persistence."""

import gc
import json
import os
import re
import statistics
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from flowmaplab import autodiff as ad
from flowmaplab import runtime as rt
from flowmaplab.autodiff import Tensor
from flowmaplab.io import load_checkpoint, save_checkpoint
from flowmaplab.nets import COND_NULL, Discriminator, FlowMapModel
from flowmaplab.runtime import (AdamW, Gaussian2DTask, METRICS_HEADER, PhasePlan,
                                SamplerConfig, TextureSRTask, TrainAbort,
                                evaluate_gaussian, evaluate_sr, gaussian_w2,
                                load_model, psnr, sample, save_result, train)

TINY = dict(fm_steps=4, fmsd_steps=4, cfg_steps=4, adv_steps=3, d_pretrain_steps=2,
            batch_size=8, hidden=16, depth=2, time_dim=8, cond_dim=4)


def tiny_plan(**over):
    return PhasePlan(**{**TINY, **over})


class TestAdamW:
    def test_converges_on_quadratic(self):
        x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = AdamW({"x": x}, lr=0.1)
        for _ in range(300):
            loss = ad.sum_(ad.square(x))
            opt.step(ad.grad(loss, {"x": x}))
        assert np.all(np.abs(x.data) < 1e-3)


class TestSamplerConfig:
    def test_power_of_two_enforced(self):
        for k in (1, 2, 4, 128):
            SamplerConfig(steps=k)
        for k in (0, 3, 6, 256):
            with pytest.raises(ValueError):
                SamplerConfig(steps=k)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_lora_scale_refused_by_name(self, scale):
        with pytest.raises(ValueError, match="lora_scale"):
            SamplerConfig(lora_scale=scale)


class TestTrainLoop:
    def test_metrics_header_and_phases(self):
        res = train(tiny_plan(), Gaussian2DTask(), seed=0)
        csv = res.metrics_csv().splitlines()
        assert csv[0] == ",".join(METRICS_HEADER)
        phases = [row.split(",")[1] for row in csv[1:]]
        assert phases == ["fm"] * 4 + ["fmsd"] * 4 + ["cfg"] * 4 + ["adv"] * 5
        steps = [int(row.split(",")[0]) for row in csv[1:]]
        assert steps == list(range(17))

    def test_zero_length_phases(self):
        res = train(tiny_plan(cfg_steps=0, adv_steps=0), Gaussian2DTask(), seed=0)
        assert res.disc is None
        phases = {r[1] for r in res.metrics_rows}
        assert phases == {"fm", "fmsd"}

    @pytest.mark.parametrize("over,field", [
        (dict(fm_steps=-3), "fm_steps"),
        (dict(fmsd_steps=-1), "fmsd_steps"),
        (dict(cfg_steps=-1), "cfg_steps"),
        (dict(d_pretrain_steps=-1), "d_pretrain_steps"),
        (dict(adv_steps=-1), "adv_steps"),
        (dict(batch_size=0), "batch_size"),
        (dict(lora_rank=0), "lora_rank"),
        (dict(setting="bogus", fmsd_steps=0, cfg_steps=0, adv_steps=0), "setting"),
        (dict(drop_prob=float("nan")), "drop_prob"),
        (dict(drop_prob=1.5), "drop_prob"),
        (dict(drop_prob=-0.1), "drop_prob"),
        (dict(w_max=0.5), "w_max"),
        (dict(w_max=float("inf")), "w_max"),
        (dict(lr_floor=-1.0), "lr_floor"),
        (dict(lr_floor=1.5), "lr_floor"),
        (dict(lambda_adv=-2.0), "lambda_adv"),
        (dict(lambda_adv=float("nan")), "lambda_adv"),
        (dict(lr_model=0.0), "lr_model"),
        (dict(lr_model=float("inf")), "lr_model"),
        (dict(lr_weightnet=-1e-4), "lr_weightnet"),
        (dict(lr_weightnet=float("nan")), "lr_weightnet"),
        (dict(lr_disc=0.0), "lr_disc"),
        (dict(lr_disc=float("inf")), "lr_disc"),
        (dict(hidden=0), "hidden"),
        (dict(depth=-1), "depth"),
        (dict(time_dim=0), "time_dim"),
        (dict(time_dim=3), "time_dim"),
        (dict(cond_dim=-1), "cond_dim"),
        (dict(lora_train_scale=float("nan")), "lora_train_scale"),
        (dict(lora_train_scale=float("inf")), "lora_train_scale"),
    ])
    def test_refuses_plans_it_cannot_run(self, over, field, monkeypatch):
        # refused before the first batch draw, so no phase runs first
        drawn = []
        monkeypatch.setattr(Gaussian2DTask, "sample", lambda *a, **k: drawn.append(1))
        with pytest.raises(ValueError, match=field):
            train(tiny_plan(**over), Gaussian2DTask(), seed=0)
        assert drawn == []

    def test_gaussian_endpoints_are_read_only(self):
        # every Gaussian2DTask, and oracle-check, share the GAUSSIAN_2D arrays
        for mu in (Gaussian2DTask().mu0, Gaussian2DTask().mu1):
            with pytest.raises(ValueError, match="read-only"):
                mu[0] = 0.0

    def test_no_adapter_rank_needed_without_adversarial_steps(self):
        res = train(tiny_plan(lora_rank=0, adv_steps=0), Gaussian2DTask(), seed=0)
        assert res.model.lora is None

    def test_deterministic_given_seed(self):
        a = train(tiny_plan(), Gaussian2DTask(), seed=3)
        b = train(tiny_plan(), Gaussian2DTask(), seed=3)
        assert a.metrics_csv() == b.metrics_csv()
        for k in a.model.params:
            np.testing.assert_array_equal(a.model.params[k].data,
                                          b.model.params[k].data)

    def test_seeds_differ(self):
        a = train(tiny_plan(), Gaussian2DTask(), seed=1)
        b = train(tiny_plan(), Gaussian2DTask(), seed=2)
        assert a.metrics_csv() != b.metrics_csv()

    def test_trunk_frozen_during_adversarial_phase(self):
        plan = tiny_plan()
        marker = train(plan, Gaussian2DTask(), seed=0)
        # rerun phases 1-3 only; trunk must match the full run bit for bit
        ref = train(tiny_plan(adv_steps=0, d_pretrain_steps=0),
                    Gaussian2DTask(), seed=0)
        for k in ref.model.params:
            np.testing.assert_array_equal(marker.model.params[k].data,
                                          ref.model.params[k].data, err_msg=k)
        # while the adapters did move
        moved = any(np.any(v.data != 0.0) for n, v in marker.model.lora_params().items()
                    if n.endswith(".A"))
        assert moved

    def test_abort_on_nonfinite(self):
        class PoisonTask(Gaussian2DTask):
            def sample(self, n, rng, with_negative=False):
                batch = super().sample(n, rng, with_negative)
                batch.x0[0, 0] = np.nan
                return batch

        with pytest.raises(TrainAbort) as exc:
            train(tiny_plan(), PoisonTask(), seed=0)
        assert exc.value.record["step"] == 0

    def test_d_pretrain_builds_no_generator_tape(self, monkeypatch):
        # ten d-pretrain steps need 2 untaped generator forwards and 2
        # discriminator forwards each; the adversarial step needs 2 taped
        # generator forwards (the fake's bottom half-step, combined loss) and
        # 3 scores
        counts = {"taped": 0, "disc": 0}
        fwd, score = FlowMapModel.forward, Discriminator.forward

        def counted_fwd(self, *args, **kwargs):
            counts["taped"] += ad.grad_enabled()
            return fwd(self, *args, **kwargs)

        def counted_score(self, *args, **kwargs):
            counts["disc"] += 1
            return score(self, *args, **kwargs)

        monkeypatch.setattr(FlowMapModel, "__call__", counted_fwd)
        monkeypatch.setattr(Discriminator, "__call__", counted_score)
        res = train(tiny_plan(fm_steps=0, fmsd_steps=0, cfg_steps=0, d_pretrain_steps=10,
                              adv_steps=1), Gaussian2DTask(), seed=0)
        assert counts == {"taped": 2, "disc": 23}
        assert [r[6] == "" for r in res.metrics_rows] == [True] * 10 + [False]

    @pytest.mark.parametrize("setting", ["lsd", "esd", "ssd"])
    def test_fused_layers_keep_adapter_free_training_bytes(self, setting, tmp_path,
                                                           monkeypatch):
        plan = tiny_plan(adv_steps=0, d_pretrain_steps=0, setting=setting)
        fused = tmp_path / "fused.ckpt"
        res = train(plan, Gaussian2DTask(), seed=4)
        save_result(fused, res, "gaussian2d")

        def unfused(h, W, b, silu=False, B=None, A=None, gamma=1.0, ctx=None):
            if ctx is None:
                out = ad.add(ad.matmul(h, W), b)
            else:  # layer 0: the batch rows of W, then the shared context row
                d = h.shape[1]
                out = ad.add(ad.matmul(h, W[:d]), ad.add(ad.matmul(ctx, W[d:]), b))
            return ad.silu(out) if silu else out

        monkeypatch.setattr(ad, "linear", unfused)
        chain = tmp_path / "chain.ckpt"
        ref = train(plan, Gaussian2DTask(), seed=4)
        save_result(chain, ref, "gaussian2d")
        assert res.metrics_csv() == ref.metrics_csv()
        assert fused.read_bytes() == chain.read_bytes()
        assert res.model.eval_count == ref.model.eval_count


class TestLifetimes:
    """What a training step builds dies with the step (acyclic tapes, so
    reference counting alone frees them: cyclic gc stays off)."""

    @staticmethod
    def _tensors(out):
        if isinstance(out, Tensor):
            return [out]
        items = out if isinstance(out, tuple) else vars(out).values()
        return [t for t in items if isinstance(t, Tensor)]

    def _run(self, plan, on_draw):
        """Train with ``on_draw(draw index)`` called at every batch draw."""
        class HookedTask(Gaussian2DTask):
            draws = 0

            def sample(self, n, rng, with_negative=False):
                on_draw(HookedTask.draws)
                HookedTask.draws += 1
                return super().sample(n, rng, with_negative)

        gc.disable()
        try:
            return train(plan, HookedTask(), seed=0)
        finally:
            gc.enable()

    def test_no_step_tensor_alive_at_next_draw(self, monkeypatch):
        # fm, fmsd and cfg losses, the d-pretrain fake and loss, and the
        # adversarial g_loss and d_loss
        refs, alive = [], []

        def recorded(fn, kind):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                refs.extend((kind, weakref.ref(t)) for t in self._tensors(out))
                return out
            return wrapped

        for name in ("fm_loss", "combined_loss", "two_step_prediction", "disc_loss",
                     "rpgan_losses"):
            monkeypatch.setattr(rt, name, recorded(getattr(rt, name), name))

        def on_draw(i):
            alive.extend((i, kind) for kind, ref in refs if ref() is not None)

        res = self._run(tiny_plan(), on_draw)
        assert {kind for kind, _ in refs} == {"fm_loss", "combined_loss",
                                              "two_step_prediction", "disc_loss",
                                              "rpgan_losses"}
        assert {r[1] for r in res.metrics_rows} == {"fm", "fmsd", "cfg", "adv"}
        assert alive == []

    def test_generator_tape_dead_at_disc_update(self, monkeypatch):
        pairs, dead = [], []
        rpgan, grad = rt.rpgan_losses, ad.grad

        def recorded(*args, **kwargs):
            g_loss, d_loss = rpgan(*args, **kwargs)
            pairs.append((weakref.ref(g_loss), d_loss))
            return g_loss, d_loss

        def checked(loss, params):
            if pairs and loss is pairs[-1][1]:
                dead.append(pairs[-1][0]() is None)
            return grad(loss, params)

        monkeypatch.setattr(rt, "rpgan_losses", recorded)
        monkeypatch.setattr(ad, "grad", checked)
        self._run(tiny_plan(), lambda i: None)
        assert dead == [True] * tiny_plan().adv_steps

    def test_main_phase_optimizers_dead_in_phase_4(self, monkeypatch):
        made = []

        class RecordedAdamW(AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        monkeypatch.setattr(rt, "AdamW", RecordedAdamW)
        plan = tiny_plan()
        first_adv = plan.fm_steps + plan.fmsd_steps + plan.cfg_steps
        seen = {}

        def on_draw(i):
            if i == first_adv:
                seen["alive"] = [ref() is not None for ref in made]

        self._run(plan, on_draw)
        # trunk and weighting head dead; adapters and discriminator live on
        assert seen["alive"] == [False, False, True, True]

    def test_no_gradient_outlives_train(self):
        # no Tensor holds a gradient, and the weighting head, frozen through
        # phase 4, is trainable again once train returns
        res = train(tiny_plan(), Gaussian2DTask(), seed=0)
        assert all(p.requires_grad for p in res.weightnet.params.values())


class TestSample:
    def test_trajectory_shape_and_endpoint(self):
        res = train(tiny_plan(adv_steps=0), Gaussian2DTask(), seed=0)
        x1 = np.random.default_rng(0).normal(size=(5, 2))
        traj = sample(res.model, x1, SamplerConfig(steps=4, cond=COND_NULL,
                                                   lora_scale=0.0))
        assert len(traj) == 5
        np.testing.assert_array_equal(traj[0], x1)
        assert traj[-1].shape == (5, 2)

    def test_trajectory_shares_no_memory(self):
        # one copy guards the caller's x1; every step makes a fresh iterate
        res = train(tiny_plan(adv_steps=0), Gaussian2DTask(), seed=0)
        x1 = np.random.default_rng(2).normal(size=(4, 2))
        traj = sample(res.model, x1, SamplerConfig(steps=4, cond=COND_NULL,
                                                   lora_scale=0.0))
        assert not np.shares_memory(traj[0], x1)
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(traj) for b in traj[i + 1:])

    def test_one_step_is_direct_jump(self):
        res = train(tiny_plan(adv_steps=0), Gaussian2DTask(), seed=0)
        x1 = np.random.default_rng(1).normal(size=(3, 2))
        traj = sample(res.model, x1, SamplerConfig(steps=1, cond=COND_NULL,
                                                   lora_scale=0.0))
        with ad.no_grad():
            u = res.model(x1, 0.0, 1.0, COND_NULL, lora_scale=0.0).data
        np.testing.assert_allclose(traj[-1], x1 - u, rtol=1e-12)


class TestMetrics:
    def test_psnr_identity_capped(self):
        img = np.random.default_rng(0).normal(size=(8, 8))
        assert psnr(img, img) == 99.0

    def test_psnr_known_value(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 0.2)  # mse 0.04, peak 2 -> 10 log10(4 / 0.04) = 20
        np.testing.assert_allclose(psnr(a, b), 20.0, rtol=1e-12)

    def test_w2_zero_for_matching_gaussian(self):
        rng = np.random.default_rng(1)
        mu, sigma = np.array([1.0, -2.0]), 0.8
        samples = mu + sigma * rng.standard_normal((200000, 2))
        assert gaussian_w2(samples, mu, sigma) < 0.02

    def test_w2_mean_shift(self):
        rng = np.random.default_rng(2)
        samples = rng.standard_normal((200000, 2))
        d = gaussian_w2(samples, np.array([3.0, 0.0]), 1.0)
        np.testing.assert_allclose(d, 3.0, atol=0.02)

    def test_w2_matches_general_gaussian_formula(self):
        # general Gaussian W2 with an eigh-based square root of sigma*cov*sigma
        rng = np.random.default_rng(3)
        for d in range(2, 6):
            for _ in range(20):
                a = rng.normal(size=(d, d))
                cov = a @ a.T + 0.1 * np.eye(d)
                samples = rng.normal(size=(400, d)) @ np.linalg.cholesky(cov).T
                mu, sigma = rng.normal(size=d), float(rng.uniform(0.2, 2.0))
                cov_hat = np.cov(samples, rowvar=False)
                w, v = np.linalg.eigh(sigma * cov_hat * sigma)
                cross = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
                w2sq = (np.sum((samples.mean(axis=0) - mu) ** 2) + np.trace(cov_hat)
                        + d * sigma ** 2 - 2.0 * np.trace(cross))
                np.testing.assert_allclose(gaussian_w2(samples, mu, sigma),
                                           np.sqrt(w2sq), rtol=1e-12)

    def test_w2_whitened_samples_is_mean_distance(self):
        # covariance exactly sigma^2 I leaves only the distance of the means
        rng = np.random.default_rng(4)
        for d in range(1, 6):
            z = rng.normal(size=(300, d))
            z -= z.mean(axis=0)
            w, v = np.linalg.eigh(np.atleast_2d(np.cov(z, rowvar=False)))
            mu, sigma = rng.normal(size=d), float(rng.uniform(0.2, 2.0))
            m = mu + rng.normal(size=d)
            samples = m + sigma * (z @ (v / np.sqrt(w)) @ v.T)
            np.testing.assert_allclose(gaussian_w2(samples, mu, sigma),
                                       np.linalg.norm(samples.mean(axis=0) - mu),
                                       rtol=1e-12)

    def test_w2_one_dimensional(self):
        # d = 1: |m_hat - mu|^2 + (s_hat - sigma)^2 with s_hat^2 the sample variance
        rng = np.random.default_rng(5)
        for n in (2, 3, 50, 1000):
            x = 1.5 * rng.normal(size=(n, 1)) - 0.4
            mu, sigma = np.array([0.3]), 0.7
            want = np.sqrt((x.mean() - 0.3) ** 2 + (np.sqrt(np.cov(x[:, 0])) - sigma) ** 2)
            assert gaussian_w2(x, mu, sigma) == want

    @pytest.mark.parametrize("mu", [0.0, np.zeros(1), np.zeros(3), np.zeros((1, 2))])
    def test_w2_refuses_mu_of_wrong_shape(self, mu):
        samples = np.random.default_rng(6).normal(size=(100, 2))
        with pytest.raises(ValueError, match=r"mu must have shape \(2,\)"):
            gaussian_w2(samples, mu, 1.0)

    @pytest.mark.parametrize("sigma", [-1.0, 0.0, float("nan"), float("inf")])
    def test_w2_refuses_bad_sigma(self, sigma):
        samples = np.random.default_rng(6).normal(size=(100, 2))
        with pytest.raises(ValueError, match="sigma must be finite and > 0"):
            gaussian_w2(samples, np.zeros(2), sigma)

    @pytest.mark.parametrize("shape", [(1, 2), (0, 2), (5,), (2, 2, 2)])
    def test_w2_refuses_samples_of_wrong_shape(self, shape):
        with pytest.raises(ValueError, match=r"samples must have shape \(n, d\) with n >= 2"):
            gaussian_w2(np.ones(shape), np.zeros(2), 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_w2_refuses_non_finite_samples(self, bad):
        samples = np.random.default_rng(6).normal(size=(100, 2))
        samples[7, 1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            gaussian_w2(samples, np.zeros(2), 1.0)


class TestEvaluate:
    def test_gaussian_report_keys(self):
        res = train(tiny_plan(adv_steps=0), Gaussian2DTask(), seed=0)
        rep = evaluate_gaussian(res.model, Gaussian2DTask(), 100,
                                SamplerConfig(steps=2, cond=COND_NULL, lora_scale=0.0))
        assert set(rep) == {"w2", "n", "steps"}
        assert rep["w2"] >= 0.0

    def test_sr_report_keys(self):
        task = TextureSRTask(size=8)
        res = train(tiny_plan(adv_steps=0, fm_steps=2, fmsd_steps=2, cfg_steps=0),
                    task, seed=0)
        rep = evaluate_sr(res.model, task, 4,
                          SamplerConfig(steps=2, cond=COND_NULL, lora_scale=0.0))
        assert {"psnr_model", "psnr_baseline"} <= set(rep)

    @pytest.mark.parametrize("n", [0, -2])
    def test_sr_refuses_empty_batch(self, n):
        task = TextureSRTask(size=8)
        model = FlowMapModel(task.state_dim, hidden=8, depth=1, time_dim=8, cond_dim=4)
        with pytest.raises(ValueError, match=f"batch size n must be >= 1, got {n}"):
            evaluate_sr(model, task, n, SamplerConfig(steps=1, cond=COND_NULL, lora_scale=0.0))


class TestPersistence:
    def test_save_and_reload_preserves_sampling(self, tmp_path):
        res = train(tiny_plan(), Gaussian2DTask(), seed=0)
        path = tmp_path / "m.ckpt"
        save_result(path, res, "gaussian2d")
        model, meta = load_model(path)
        assert meta["task"] == "gaussian2d"
        x1 = np.random.default_rng(3).normal(size=(6, 2))
        cfg = SamplerConfig(steps=2, cond=COND_NULL, lora_scale=1.0)
        np.testing.assert_array_equal(sample(res.model, x1, cfg)[-1],
                                      sample(model, x1, cfg)[-1])

    @pytest.mark.parametrize("edit,message", [
        (lambda t, m: m.pop("hidden"), "checkpoint metadata has no 'hidden'"),
        (lambda t, m: m.update(depth="two"), "metadata depth='two' is not an integer"),
        (lambda t, m: t.pop("model.layer0.W"), "checkpoint has no tensor 'model.layer0.W'"),
        (lambda t, m: t.update({"model.layer9.W": np.zeros((2, 2))}),
         "unexpected checkpoint tensor 'model.layer9.W'"),
        (lambda t, m: m.update(hidden=17), "'model.layer0.W' has shape (22, 16), "
                                          "the model built from its metadata needs (22, 17)"),
    ], ids=["missing-key", "non-integer-key", "missing-tensor", "unexpected-tensor",
            "shape-mismatch"])
    def test_malformed_checkpoint_refused(self, tmp_path, edit, message):
        path = tmp_path / "m.ckpt"
        save_result(path, train(tiny_plan(adv_steps=0, d_pretrain_steps=0), Gaussian2DTask(),
                                seed=0), "gaussian2d")
        tensors, meta = load_checkpoint(path)
        edit(tensors, meta)
        save_checkpoint(path, tensors, meta)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: ") + ".*"
                           + re.escape(message)):
            load_model(path)

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_result(p1, train(tiny_plan(), Gaussian2DTask(), seed=0), "gaussian2d")
        save_result(p2, train(tiny_plan(), Gaussian2DTask(), seed=0), "gaussian2d")
        assert p1.read_bytes() == p2.read_bytes()


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the heap policy is glibc's mallopt")
@pytest.mark.parametrize("setting", ["ssd", "lsd", "esd"])
def test_adversarial_steps_reuse_the_heap(setting):
    # Without the import-time heap policy glibc trims the tape an adversarial
    # step grows the heap by and the next step faults ~10 MB (2,560 pages)
    # back in; held, steps 3-6 fault about none.
    pytest.importorskip("resource")
    tool = Path(__file__).resolve().parents[1] / "tools" / "step_faults.py"
    proc = subprocess.run([sys.executable, str(tool), "--task", "gaussian2d",
                           "--setting", setting, "--seed", "0", "--fm", "1", "--cfg", "1",
                           "--dpre", "1", "--adv", "6"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    adv = json.loads(proc.stdout)["adv"]
    assert adv["n"] == 6
    assert statistics.median(adv["faults"][2:]) < 100, adv
