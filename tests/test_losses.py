"""Objectives: FM, self-distillation, guidance variants, weighting, regularizer,
adversarial pair.  Where possible the model targets are checked against the
analytic Gaussian oracle."""

import numpy as np
import pytest

from flowmaplab import autodiff as ad
from flowmaplab.autodiff import Tensor
from flowmaplab.interpolant import STANDARD, interpolate
from flowmaplab.losses import (GuidanceContext, cfg_fm_target, cfg_sd_target,
                               combined_loss, draw_guidance, fm_loss,
                               perceptual_reg, perceptual_weight, rpgan_losses,
                               sd_target, two_step_prediction)
from flowmaplab.nets import (COND_NEGATIVE, COND_NULL, COND_POSITIVE, Discriminator,
                             FlowMapModel, WeightNet)
from flowmaplab.oracle import GaussianTask, average_velocity_oracle, gaussian_velocity
from flowmaplab.schedule import GridConfig, GridTime, LSD, ESD, SSD, TimestepPair


def make_model(seed=0, dim=2, perturb=0.05):
    rng = np.random.default_rng(seed)
    model = FlowMapModel(dim, hidden=16, depth=2, time_dim=8, cond_dim=4, rng=rng)
    head = f"layer{model.depth}.W"
    model.params[head].data += perturb * rng.standard_normal(model.params[head].shape)
    return model


class OracleModel:
    """Drop-in model backed by the exact Gaussian average velocity.

    Forward-mode tangents on (x, s, t) are honored by central differences of
    the oracle, so the engine's directional derivatives stay meaningful.
    """

    def __init__(self, task: GaussianTask):
        self.task = task
        self.eval_count = 0

    def _u(self, xv, sv, tv):
        v = lambda z, r: gaussian_velocity(self.task, z, r)
        if sv == tv:
            return v(xv, tv)
        return np.stack([average_velocity_oracle(v, row, sv, tv, n_steps=128)
                         for row in np.atleast_2d(xv)]).reshape(xv.shape)

    def __call__(self, x, s, t, cond, lora_scale=None):
        self.eval_count += 1
        xv = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
        sv = s.item() if isinstance(s, Tensor) else float(s)
        tv = t.item() if isinstance(t, Tensor) else float(t)
        dx = x.tangent if isinstance(x, Tensor) and x.tangent is not None else None
        ds = float(s.tangent) if isinstance(s, Tensor) and s.tangent is not None else 0.0
        dt = float(t.tangent) if isinstance(t, Tensor) and t.tangent is not None else 0.0
        out = self._u(xv, sv, tv)
        tangent = None
        if dx is not None or ds != 0.0 or dt != 0.0:
            dxv = np.zeros_like(xv) if dx is None else np.asarray(dx)
            h = 1e-5
            tangent = (self._u(xv + h * dxv, sv + h * ds, tv + h * dt)
                       - self._u(xv - h * dxv, sv - h * ds, tv - h * dt)) / (2 * h)
        return Tensor(out, tangent=tangent)


def _pair(s_k, t_k, d):
    return TimestepPair(s=GridTime(s_k, d), t=GridTime(t_k, d),
                        is_fm=s_k == t_k, level=d)


class TestGuidanceContext:
    def test_dropped_forces_unit_scale(self):
        with pytest.raises(ValueError):
            GuidanceContext(w=2.0, w_max=3.5, cond=COND_NEGATIVE, dropped=True)

    def test_dropped_forces_negative_branch(self):
        with pytest.raises(ValueError):
            GuidanceContext(w=1.0, w_max=3.5, cond=COND_POSITIVE, dropped=True)

    def test_scale_bounds(self):
        with pytest.raises(ValueError):
            GuidanceContext(w=0.5, w_max=3.5, cond=COND_POSITIVE)
        with pytest.raises(ValueError):
            GuidanceContext(w=4.0, w_max=3.5, cond=COND_POSITIVE)

    def test_draw_statistics(self):
        rng = np.random.default_rng(0)
        ctxs = [draw_guidance(rng, 3.5, COND_POSITIVE) for _ in range(5000)]
        drop_rate = np.mean([c.dropped for c in ctxs])
        assert abs(drop_rate - 0.10) < 0.02
        ws = [c.w for c in ctxs if not c.dropped]
        assert 1.0 <= min(ws) and max(ws) <= 3.5
        assert abs(np.mean(ws) - 2.25) < 0.05
        for c in ctxs:
            if c.dropped:
                assert c.cond == COND_NEGATIVE and c.w == 1.0


class TestFmLoss:
    def test_zero_model_loss_is_mean_displacement_norm(self):
        model = FlowMapModel(2, hidden=8, depth=1, rng=np.random.default_rng(1))
        rng = np.random.default_rng(2)
        x0, x1 = rng.normal(size=(16, 2)), rng.normal(size=(16, 2))
        loss = fm_loss(model, x0, x1, 0.4)
        expected = np.mean(np.sum((x1 - x0) ** 2, axis=1))
        np.testing.assert_allclose(loss.item(), expected, rtol=1e-12)

    def test_perfect_model_zero_loss(self):
        task = GaussianTask(np.zeros(2), np.zeros(2), 1.0, 1.0)
        # with identical endpoint laws and sigma0=sigma1 the marginal velocity
        # at t=0.5 is zero; build the matching coupling loss by hand
        model = OracleModel(task)
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((512, 2))
        x1 = rng.standard_normal((512, 2))
        loss = fm_loss(model, x0, x1, 0.5)
        # residual is the conditional-vs-marginal variance, strictly positive
        assert loss.item() > 0.5


class TestSdTargets:
    TASK = GaussianTask(mu0=np.array([1.0, -1.0]), mu1=np.array([-1.0, 1.0]),
                        sigma0=0.6, sigma1=1.2)

    def _consistent_pairs(self, n, t, seed):
        # choose x0 so that the conditional velocity x1 - x0 coincides with
        # the marginal field at I_t; then the targets match u pointwise
        rng = np.random.default_rng(seed)
        x1 = self.TASK.mu1 + self.TASK.sigma1 * rng.standard_normal((n, 2))
        x0 = np.tile(self.TASK.mu0, (n, 1))
        for _ in range(200):
            x_t = (1 - t) * x0 + t * x1
            x0 = x1 - gaussian_velocity(self.TASK, x_t, t)
        return x0, x1

    # the Lagrangian target anchors its velocity term at time t rather than
    # at the flowed-back endpoint, so it is a fixed point only in conditional
    # expectation; the pointwise check below applies to the other two
    @pytest.mark.parametrize("setting", [ESD, SSD])
    def test_oracle_model_fixed_point(self, setting):
        # the exact average velocity is a fixed point: target == u_{s,t}(I_t)
        model = OracleModel(self.TASK)
        s, t = 0.25, 0.75
        x0, x1 = self._consistent_pairs(4, t, seed=4)
        target = sd_target(setting, model, x0, x1, s, t)
        x_t = interpolate(x0, x1, t)
        with ad.no_grad():
            u = model(x_t, s, t, COND_NULL)
        tol = 1e-6 if setting == SSD else 1e-3  # fd/jvp via rk4 for the others
        np.testing.assert_allclose(target.data, u.data, atol=tol)

    @pytest.mark.parametrize("setting", [LSD, ESD])
    def test_target_formula_against_manual_fd(self, setting):
        # same formula, derivative taken by hand on a smooth neural model
        model = make_model(40)
        rng = np.random.default_rng(41)
        x0, x1 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        s, t = 0.25, 0.75
        x_t = interpolate(x0, x1, t)
        v_t = x1 - x0
        h = 1e-6
        with ad.no_grad():
            if setting == LSD:
                d = (model(x_t, s + h, t, COND_NULL).data
                     - model(x_t, s - h, t, COND_NULL).data) / (2 * h)
                manual = v_t + (t - s) * d
            else:
                d = (model(x_t + h * v_t, s, t + h, COND_NULL).data
                     - model(x_t - h * v_t, s, t - h, COND_NULL).data) / (2 * h)
                manual = v_t - (t - s) * d
        got = sd_target(setting, model, x0, x1, s, t)
        np.testing.assert_allclose(got.data, manual, atol=1e-5)

    @pytest.mark.parametrize("setting", [LSD, ESD, SSD])
    def test_target_is_detached(self, setting):
        model = make_model(5)
        rng = np.random.default_rng(6)
        x0, x1 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        target = sd_target(setting, model, x0, x1, 0.25, 0.75)
        assert not target.in_graph

    def test_diagonal_rejected(self):
        model = make_model(7)
        with pytest.raises(ValueError):
            sd_target(LSD, model, np.zeros((1, 2)), np.ones((1, 2)), 0.5, 0.5)

    @pytest.mark.parametrize("builder", ["sd_target", "cfg_sd_target"])
    @pytest.mark.parametrize("setting,s,t,match", [
        ("bogus", 0.25, 0.75, "unknown setting 'bogus'"),
        (LSD, 0.75, 0.25, "need s < t"),
        (SSD, 0.5, 0.25, "need s < t"),
    ])
    def test_builders_refuse_before_evaluating(self, builder, setting, s, t, match):
        model = make_model(7)
        x0, x1 = np.zeros((1, 2)), np.ones((1, 2))
        ctx = GuidanceContext(w=2.0, w_max=3.5, cond=COND_POSITIVE)
        build = {"sd_target": lambda: sd_target(setting, model, x0, x1, s, t),
                 "cfg_sd_target": lambda: cfg_sd_target(setting, model, x0, x1, s, t,
                                                        STANDARD, ctx)}[builder]
        with pytest.raises(ValueError, match=match):
            build()
        assert model.eval_count == 0

    @pytest.mark.parametrize("setting,cost", [(LSD, 1), (ESD, 1), (SSD, 2)])
    def test_unconditional_eval_cost(self, setting, cost):
        model = make_model(8)
        rng = np.random.default_rng(9)
        x0, x1 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        before = model.eval_count
        sd_target(setting, model, x0, x1, 0.25, 0.75)
        assert model.eval_count - before == cost

    def test_sd_loss_gradients_exist(self):
        model = make_model(10)
        wn = WeightNet(time_dim=8, rng=np.random.default_rng(12))
        rng = np.random.default_rng(11)
        x0, x1 = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
        br = combined_loss(model, wn, x0, x1, _pair(1, 3, 2), SSD, use_perceptual=False)
        g = ad.grad(br.main, model.trainable_params())
        assert np.any(g[f"layer{model.depth}.W"] != 0.0)


class TestCfgTargets:
    def _data(self, seed=12, n=4):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, 2)), rng.normal(size=(n, 2))

    def test_fm_unit_scale_reduces_to_plain(self):
        model = make_model(13)
        x0, x1 = self._data()
        ctx = GuidanceContext(w=1.0, w_max=3.5, cond=COND_POSITIVE)
        t = 0.5
        plain = x1 - x0
        got = cfg_fm_target(model, x0, x1, t, ctx)
        np.testing.assert_array_equal(got.data, plain)

    @pytest.mark.parametrize("setting", [LSD, ESD, SSD])
    def test_sd_unit_scale_reduces_to_plain(self, setting):
        model = make_model(14)
        x0, x1 = self._data()
        ctx = GuidanceContext(w=1.0, w_max=3.5, cond=COND_POSITIVE)
        got = cfg_sd_target(setting, model, x0, x1, 0.25, 0.75, STANDARD, ctx)
        ref = sd_target(setting, model, x0, x1, 0.25, 0.75, COND_POSITIVE)
        np.testing.assert_allclose(got.data, ref.data, atol=1e-12)

    @pytest.mark.parametrize("setting,extra", [(LSD, 2), (ESD, 1), (SSD, 0)])
    def test_extra_eval_budget(self, setting, extra):
        model = make_model(15)
        x0, x1 = self._data()
        before = model.eval_count
        sd_target(setting, model, x0, x1, 0.25, 0.75, COND_POSITIVE)
        base_cost = model.eval_count - before
        ctx = GuidanceContext(w=2.0, w_max=3.5, cond=COND_POSITIVE)
        before = model.eval_count
        cfg_sd_target(setting, model, x0, x1, 0.25, 0.75, STANDARD, ctx)
        assert model.eval_count - before == base_cost + extra

    @pytest.mark.parametrize("setting", [LSD, ESD])
    def test_guided_target_against_manual_fd(self, setting):
        # the guided velocity and the derivatives rebuilt from plain forward
        # evaluations and central differences, apart from the target code
        model = make_model(19)
        model.params["cond.table"].data += 0.5 * np.random.default_rng(20).standard_normal((3, 4))
        x0, x1 = self._data(21, n=3)
        s, t, w, h = 0.25, 0.75, 2.5, 1e-6
        x_t = interpolate(x0, x1, t)
        u = lambda x, ss, tt, c: model(x, ss, tt, c).data
        with ad.no_grad():
            if setting == LSD:
                x_neg = x_t - (t - s) * u(x_t, s, t, COND_NEGATIVE)
                v = w * (x1 - x0) + (1 - w) * u(x_neg, s, s, COND_NEGATIVE)
                d = (u(x_t, s + h, t, COND_POSITIVE) - u(x_t, s - h, t, COND_POSITIVE)) / (2 * h)
                manual = v + (t - s) * d
            else:
                v = w * (x1 - x0) + (1 - w) * u(x_t, t, t, COND_NEGATIVE)
                d = (u(x_t + h * v, s, t + h, COND_POSITIVE)
                     - u(x_t - h * v, s, t - h, COND_POSITIVE)) / (2 * h)
                manual = v - (t - s) * d
        ctx = GuidanceContext(w=w, w_max=3.5, cond=COND_POSITIVE)
        got = cfg_sd_target(setting, model, x0, x1, s, t, STANDARD, ctx)
        plain = sd_target(setting, model, x0, x1, s, t, COND_POSITIVE)
        assert np.max(np.abs(got.data - plain.data)) > 1e-2  # guidance moved it
        np.testing.assert_allclose(got.data, manual, atol=1e-5)

    # model evaluations per combined_loss call: the target's, plus the one
    # prediction; guidance costs 2/1/0 extra in lsd/esd/ssd and 1 on FM pairs
    @pytest.mark.parametrize("kind,setting,evals", [
        ("plain", LSD, 2), ("plain", ESD, 2), ("plain", SSD, 3), ("plain", "fm", 1),
        ("guided", LSD, 4), ("guided", ESD, 3), ("guided", SSD, 3), ("guided", "fm", 2),
        ("dropped", LSD, 2), ("dropped", ESD, 2), ("dropped", SSD, 3), ("dropped", "fm", 1),
    ])
    def test_eval_count_per_call(self, kind, setting, evals):
        model = make_model(22)
        wn = WeightNet(time_dim=8, rng=np.random.default_rng(23))
        x0, x1 = self._data(24)
        ctx = {"plain": None,
               "guided": GuidanceContext(w=2.5, w_max=3.5, cond=COND_POSITIVE),
               "dropped": GuidanceContext(w=1.0, w_max=3.5, cond=COND_NEGATIVE,
                                          dropped=True)}[kind]
        pair = _pair(2, 2, 2) if setting == "fm" else _pair(1, 3, 2)
        before = model.eval_count
        combined_loss(model, wn, x0, x1, pair, SSD if setting == "fm" else setting,
                      ctx=ctx, x0_neg=x0 + 0.3, use_perceptual=False)
        assert model.eval_count - before == evals

    def test_dropped_uses_negative_branch(self):
        model = make_model(16)
        x0, x1 = self._data()
        ctx = GuidanceContext(w=1.0, w_max=3.5, cond=COND_NEGATIVE, dropped=True)
        got = cfg_sd_target(SSD, model, x0, x1, 0.25, 0.75, STANDARD, ctx)
        ref = sd_target(SSD, model, x0, x1, 0.25, 0.75, COND_NEGATIVE)
        np.testing.assert_array_equal(got.data, ref.data)

    @pytest.mark.parametrize("interpolant", ["trigonometric", "Standard", None, 0])
    def test_sd_refuses_other_interpolants(self, interpolant):
        model = make_model(17)
        x0, x1 = self._data()
        ctx = GuidanceContext(w=2.0, w_max=3.5, cond=COND_POSITIVE)
        with pytest.raises(ValueError, match=repr(interpolant)):
            cfg_sd_target(ESD, model, x0, x1, 0.25, 0.75, interpolant, ctx)

    def test_scale_moves_target(self):
        model = make_model(17)
        # make the negative branch respond differently
        rng = np.random.default_rng(18)
        model.params["cond.table"].data += 0.5 * rng.standard_normal((3, 4))
        x0, x1 = self._data()
        ctx1 = GuidanceContext(w=1.0, w_max=3.5, cond=COND_POSITIVE)
        ctx3 = GuidanceContext(w=3.0, w_max=3.5, cond=COND_POSITIVE)
        a = cfg_fm_target(model, x0, x1, 0.5, ctx1).data
        b = cfg_fm_target(model, x0, x1, 0.5, ctx3).data
        assert not np.array_equal(a, b)


class TestPerceptual:
    def test_weight_anchors(self):
        assert perceptual_weight(0.0) == 5.0
        np.testing.assert_allclose(perceptual_weight(1.0), 5.0 * np.exp(-4.0),
                                   rtol=1e-15)

    def test_weight_monotone_decay(self):
        ss = np.linspace(0, 1, 11)
        ws = [perceptual_weight(s) for s in ss]
        assert all(a > b for a, b in zip(ws, ws[1:]))

    def test_zero_at_perfect_prediction(self):
        rng = np.random.default_rng(19)
        x0 = rng.normal(size=(3, 16))
        reg = perceptual_reg(Tensor(x0.copy()), x0, 0.1, image_hw=(4, 4))
        assert reg.item() == 0.0

    def test_matches_manual_computation(self):
        rng = np.random.default_rng(20)
        x0 = rng.normal(size=(2, 16))
        pred = x0 + 0.1 * rng.normal(size=(2, 16))
        reg = perceptual_reg(Tensor(pred.copy()), x0, 0.3, image_hw=(4, 4))
        p = pred.reshape(2, 4, 4)
        g = x0.reshape(2, 4, 4)
        pool = lambda a: a.reshape(2, 2, 2, 2, 2).mean(axis=(2, 4))
        pooled_mse = np.mean((pool(p) - pool(g)) ** 2)
        mae = np.mean(np.abs(pred - x0))
        expected = perceptual_weight(0.3) * 0.5 * (pooled_mse + mae)
        np.testing.assert_allclose(reg.item(), expected, rtol=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(21)
        x0 = rng.normal(size=(2, 8))
        pred0 = x0 + 0.2 * rng.normal(size=(2, 8))
        pred = Tensor(pred0.copy(), requires_grad=True)
        reg = perceptual_reg(pred, x0, 0.5, image_hw=(2, 4))
        g = ad.grad(reg, {"p": pred})["p"]
        h = 1e-6
        for idx in [(0, 0), (1, 3), (0, 7)]:
            pp, pm = pred0.copy(), pred0.copy()
            pp[idx] += h
            pm[idx] -= h
            fd = (perceptual_reg(Tensor(pp), x0, 0.5, image_hw=(2, 4)).item()
                  - perceptual_reg(Tensor(pm), x0, 0.5, image_hw=(2, 4)).item()) / (2 * h)
            np.testing.assert_allclose(g[idx], fd, rtol=1e-6, atol=1e-9)

    def test_ten_tape_nodes(self, monkeypatch):
        # one gather and one mean pool the 2x2 blocks, and one mul scales;
        # four column slices, three adds and a 1/k mul made 17 nodes
        rng = np.random.default_rng(22)
        x0 = rng.normal(size=(3, 16))
        made = []
        make = ad._make
        monkeypatch.setattr(ad, "_make", lambda *a: made.append(1) or make(*a))
        reg = perceptual_reg(Tensor(x0 + 0.1, requires_grad=True), x0, 0.2, image_hw=(4, 4))
        assert reg.in_graph
        assert len(made) <= 10

    @pytest.mark.parametrize("image_hw", [None, (3, 2), (2, 3), (4, 2)])
    def test_refuses_a_state_it_cannot_pool(self, image_hw):
        x0 = np.zeros((2, 6))
        with pytest.raises(ValueError, match="image_hw"):
            perceptual_reg(Tensor(x0), x0, 0.5, image_hw=image_hw)


class TestCombinedLoss:
    def _setup(self, seed=22):
        model = make_model(seed)
        wn = WeightNet(time_dim=8, rng=np.random.default_rng(seed + 1))
        rng = np.random.default_rng(seed + 2)
        return model, wn, rng.normal(size=(4, 2)), rng.normal(size=(4, 2))

    def test_fresh_weighting_is_identity(self):
        model, wn, x0, x1 = self._setup()
        pair = _pair(1, 3, 2)
        br = combined_loss(model, wn, x0, x1, pair, SSD, use_perceptual=False)
        assert br.lam == 0.0
        np.testing.assert_allclose(br.weighted_total.item(), br.main.item(),
                                   rtol=1e-15)

    def test_diagonal_pair_routes_to_fm(self):
        model, wn, x0, x1 = self._setup(25)
        pair = _pair(2, 2, 2)
        br = combined_loss(model, wn, x0, x1, pair, SSD, use_perceptual=False)
        ref = fm_loss(model, x0, x1, pair.t_value, COND_NULL)
        np.testing.assert_allclose(br.main.item(), ref.item(), rtol=1e-12)

    def test_weighted_total_formula(self):
        model, wn, x0, x1 = self._setup(26)
        wn.params["b2"].data[:] = 0.7  # push lambda off zero
        pair = _pair(0, 2, 2)
        br = combined_loss(model, wn, x0, x1, pair, SSD, use_perceptual=False)
        expected = np.exp(-0.7) * br.main.item() + 0.7
        np.testing.assert_allclose(br.weighted_total.item(), expected, rtol=1e-12)

    def test_perceptual_term_needs_image_hw(self):
        model, wn, x0, x1 = self._setup(28)
        before = model.eval_count
        with pytest.raises(ValueError, match="use_perceptual needs image_hw"):
            combined_loss(model, wn, x0, x1, _pair(1, 3, 2), SSD)
        assert model.eval_count == before

    def test_dropped_context_swaps_negative_data(self):
        model, wn, x0, x1 = self._setup(27)
        x0_neg = x0 + 1.0
        ctx = GuidanceContext(w=1.0, w_max=3.5, cond=COND_NEGATIVE, dropped=True)
        pair = _pair(1, 1, 0)  # fm pair over the whole interval? k=1 of level 0
        br = combined_loss(model, wn, x0, x1, pair, SSD, ctx=ctx, x0_neg=x0_neg,
                           use_perceptual=False)
        ref = fm_loss(model, x0_neg, x1, pair.t_value, COND_NEGATIVE)
        np.testing.assert_allclose(br.main.item(), ref.item(), rtol=1e-12)


class TestAdversarial:
    def _setup(self, seed=30):
        model = make_model(seed)
        disc = Discriminator(2, hidden=16, rng=np.random.default_rng(seed + 1))
        rng = np.random.default_rng(seed + 2)
        return model, disc, rng.normal(size=(8, 2)), rng.normal(size=(8, 2))

    def test_two_step_prediction_midpoint_detached(self):
        model, _, _, x1 = self._setup()
        pred = two_step_prediction(model, x1, COND_NULL)
        # exactly one of the two evaluations stays in the graph
        g = ad.grad(ad.mean(ad.square(pred)), model.trainable_params())
        assert np.any(g[f"layer{model.depth}.W"] != 0.0)

    def test_equal_scores_give_ln2(self):
        model, disc, x0, x1 = self._setup(31)
        # identical inputs on both sides of the relativistic margin
        g_loss, d_loss = rpgan_losses(
            model, disc, x0, x0, GuidanceContext(w=1.0, w_max=3.5, cond=COND_NULL),
            lambda_adv=0.0)
        # fake = two-step prediction from x0 under a zero-ish model stays near x0
        assert abs(d_loss.item() - np.log(2.0)) < 0.1

    def test_d_loss_has_no_generator_gradient(self):
        model, disc, x0, x1 = self._setup(32)
        _, d_loss = rpgan_losses(
            model, disc, x0, x1, GuidanceContext(w=1.0, w_max=3.5, cond=COND_NULL),
            lambda_adv=0.0)
        g = ad.grad(d_loss, model.trainable_params())
        for name, gv in g.items():
            np.testing.assert_array_equal(gv, np.zeros_like(gv), err_msg=name)

    def test_g_loss_reaches_generator(self):
        model, disc, x0, x1 = self._setup(33)
        g_loss, _ = rpgan_losses(
            model, disc, x0, x1, GuidanceContext(w=1.0, w_max=3.5, cond=COND_NULL),
            lambda_adv=0.0)
        g = ad.grad(g_loss, model.trainable_params())
        assert np.any(g[f"layer{model.depth}.W"] != 0.0)
