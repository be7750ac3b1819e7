"""Model architecture contracts: embeddings, adapters, weighting head."""

import numpy as np
import pytest

from flowmaplab import autodiff as ad
from flowmaplab.autodiff import Tensor
from flowmaplab.nets import (COND_NEGATIVE, COND_NULL, COND_POSITIVE, Discriminator,
                             FlowMapModel, LowRankAdapter, WeightNet,
                             embed_frequencies, lora_effective_weight, time_embed)


class TestTimeEmbed:
    def test_shape_and_values(self):
        e = time_embed(0.0, 8)
        assert e.shape == (8,)
        np.testing.assert_allclose(e.data[:4], 0.0, atol=1e-15)  # sin(0)
        np.testing.assert_allclose(e.data[4:], 1.0, atol=1e-15)  # cos(0)

    def test_matches_manual(self):
        freqs = embed_frequencies(8)
        t = 0.37
        e = time_embed(t, 8).data
        np.testing.assert_allclose(e, np.concatenate([np.sin(freqs * t),
                                                      np.cos(freqs * t)]), rtol=1e-12)

    def test_distinct_times_distinct_codes(self):
        a = time_embed(0.25, 32).data
        b = time_embed(0.2500001, 32).data
        assert not np.array_equal(a, b)

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            embed_frequencies(7)

    @pytest.mark.parametrize("tangent", [None, 1.0, 0.0, -0.37])
    def test_matches_trig_op_chain_bit_for_bit(self, tangent):
        # the tape-free embedding against sin and cos of the phase node
        t = Tensor(0.61, tangent=None if tangent is None else np.asarray(tangent))
        freqs = Tensor(embed_frequencies(16))
        phase = ad.mul(ad.broadcast_to(t, freqs.shape), freqs)
        ref = ad.concat([ad.sin(phase), ad.cos(phase)], axis=0)
        e = time_embed(t, 16)
        assert e.data.tobytes() == ref.data.tobytes()
        if tangent is None:
            assert e.tangent is None
        else:
            assert e.tangent.tobytes() == ref.tangent.tobytes()
        assert not e.in_graph

    def test_taped_time_refused(self):
        # the embedding records no backward, so a gradient into t would vanish
        with pytest.raises(ValueError, match="records no backward"):
            time_embed(Tensor(0.4, requires_grad=True), 8)

    def test_tangent_flows_through_time(self):
        t = Tensor(0.4, tangent=np.asarray(1.0))
        e = time_embed(t, 8)
        freqs = embed_frequencies(8)
        expected = np.concatenate([np.cos(freqs * 0.4) * freqs,
                                   -np.sin(freqs * 0.4) * freqs])
        np.testing.assert_allclose(e.tangent, expected, rtol=1e-12)


class TestFlowMapModel:
    def test_fresh_model_is_zero_field(self):
        model = FlowMapModel(2, hidden=32, depth=2, rng=np.random.default_rng(0))
        out = model(np.random.default_rng(1).normal(size=(5, 2)), 0.2, 0.8, COND_NULL)
        np.testing.assert_array_equal(out.data, np.zeros((5, 2)))

    def test_requires_ordered_times(self):
        model = FlowMapModel(2, hidden=16, depth=1)
        with pytest.raises(ValueError):
            model(np.zeros((1, 2)), 0.9, 0.1, COND_NULL)

    @pytest.mark.parametrize("shape", [(2,), (1, 3, 2), (3, 3)])
    def test_rejects_non_batch_state(self, shape):
        model = FlowMapModel(2, hidden=8, depth=1)
        with pytest.raises(ValueError, match=r"x must have shape \(n, 2\)"):
            model(np.zeros(shape), 0.1, 0.9, COND_NULL)

    def test_taped_time_refused(self):
        model = FlowMapModel(2, hidden=8, depth=1)
        with pytest.raises(ValueError, match="records no backward"):
            model(np.zeros((2, 2)), 0.1, Tensor(0.9, requires_grad=True), COND_NULL)

    @pytest.mark.parametrize("over,field", [
        (dict(hidden=0), "hidden"), (dict(depth=-1), "depth"),
        (dict(time_dim=0), "time_dim"), (dict(time_dim=3), "time_dim"),
        (dict(cond_dim=-1), "cond_dim"),
    ])
    def test_refuses_sizes_it_cannot_build(self, over, field):
        with pytest.raises(ValueError, match=field):
            FlowMapModel(2, **{"hidden": 8, "depth": 1, "time_dim": 8, **over})

    def test_eval_count_increments(self):
        model = FlowMapModel(2, hidden=16, depth=1)
        before = model.eval_count
        model(np.zeros((3, 2)), 0.0, 1.0, COND_NULL)
        model(np.zeros((3, 2)), 0.5, 0.5, COND_POSITIVE)
        assert model.eval_count == before + 2

    def test_condition_changes_output(self):
        rng = np.random.default_rng(2)
        model = FlowMapModel(2, hidden=32, depth=2, rng=rng)
        # perturb the zero-init head so conditions can show through
        model.params["layer2.W"].data += 0.01 * rng.standard_normal(
            model.params["layer2.W"].shape)
        x = rng.normal(size=(4, 2))
        a = model(x, 0.1, 0.9, COND_POSITIVE).data
        b = model(x, 0.1, 0.9, COND_NEGATIVE).data
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("cond", [-1, 3, 1.0, 0.5, True, "0", None])
    def test_rejects_bad_condition(self, cond):
        model = FlowMapModel(2, hidden=8, depth=1)
        with pytest.raises(ValueError, match=f"got {cond!r}"):
            model(np.zeros((3, 2)), 0.1, 0.9, cond)

    def test_accepts_numpy_integer_condition(self):
        model = FlowMapModel(2, hidden=8, depth=1, rng=np.random.default_rng(5))
        x = np.ones((3, 2))
        np.testing.assert_array_equal(model(x, 0.1, 0.9, np.int64(COND_NULL)).data,
                                      model(x, 0.1, 0.9, COND_NULL).data)

    def test_gradients_reach_all_parameters(self):
        rng = np.random.default_rng(3)
        model = FlowMapModel(2, hidden=8, depth=1, rng=rng)
        head = f"layer{model.depth}.W"
        model.params[head].data += 0.1 * rng.standard_normal(model.params[head].shape)
        x = np.random.default_rng(4).normal(size=(3, 2))
        target = np.ones((3, 2))
        loss = ad.mean(ad.square(ad.sub(model(x, 0.3, 0.7, COND_NULL), Tensor(target))))
        g = ad.grad(loss, model.trainable_params())
        for name, gv in g.items():
            assert np.any(gv != 0.0), name


class TestLora:
    def test_zero_init_factor_gives_base_weight(self):
        rng = np.random.default_rng(5)
        W = Tensor(rng.normal(size=(6, 4)))
        a = LowRankAdapter(6, 4, 2, rng)
        eff = lora_effective_weight(W, a, 1.0)
        np.testing.assert_array_equal(eff.data, W.data)

    def test_gamma_zero_is_bit_exact_base(self):
        rng = np.random.default_rng(6)
        W = Tensor(rng.normal(size=(6, 4)))
        a = LowRankAdapter(6, 4, 2, rng)
        a.A.data += rng.normal(size=a.A.shape)  # move off the zero init
        assert lora_effective_weight(W, a, 0.0) is W

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        W = Tensor(rng.normal(size=(6, 4)))
        with pytest.raises(ValueError):
            lora_effective_weight(W, LowRankAdapter(5, 4, 2, rng), 1.0)

    def test_attach_and_freeze_trunk(self):
        model = FlowMapModel(2, hidden=16, depth=2, rng=np.random.default_rng(8))
        model.attach_lora(4, np.random.default_rng(9))
        assert len(model.lora_params()) == 2 * (model.depth + 1)
        model.set_trunk_trainable(False)
        trainable = model.trainable_params()
        assert set(trainable) == set(model.lora_params())

    def test_adapter_changes_forward_only_when_scaled(self):
        rng = np.random.default_rng(10)
        model = FlowMapModel(2, hidden=16, depth=2, rng=rng)
        model.params["layer2.W"].data += 0.05 * rng.standard_normal((16, 2))
        x = rng.normal(size=(3, 2))
        base = model(x, 0.0, 1.0, COND_NULL).data.copy()
        model.attach_lora(2, rng)
        for a in model.lora.values():
            a.A.data += 0.1 * rng.standard_normal(a.A.shape)
        off = model(x, 0.0, 1.0, COND_NULL, lora_scale=0.0).data
        on = model(x, 0.0, 1.0, COND_NULL, lora_scale=1.5).data
        np.testing.assert_array_equal(off, base)
        assert not np.array_equal(on, base)

    def test_adapter_scale_is_an_argument(self):
        # the default scale is 1, and the model holds no scale of its own
        rng = np.random.default_rng(11)
        model = FlowMapModel(2, hidden=16, depth=2, rng=rng)
        model.attach_lora(2, rng)
        for a in model.lora.values():
            a.A.data += 0.1 * rng.standard_normal(a.A.shape)
        x = rng.normal(size=(3, 2))
        np.testing.assert_array_equal(model(x, 0.0, 1.0, COND_NULL).data,
                                      model(x, 0.0, 1.0, COND_NULL, lora_scale=1.0).data)
        assert not hasattr(model, "lora_train_scale")

    @pytest.mark.parametrize("rank", [0, 4])
    def test_one_tape_node_per_layer(self, rank, monkeypatch):
        # the condition row and the context concat, then one fused node for
        # each of the depth + 1 = 5 layers; the (n, d + 80) layer input made
        # 20 nodes, and the unfused chain 29, or 44 with adapters
        model = FlowMapModel(2, hidden=16, depth=4, time_dim=8, cond_dim=4,
                             rng=np.random.default_rng(12))
        if rank:
            model.attach_lora(rank, np.random.default_rng(13))
        made = []
        make = ad._make
        monkeypatch.setattr(ad, "_make", lambda *a: made.append(1) or make(*a))
        out = model(np.ones((3, 2)), 0.25, 0.75, COND_POSITIVE, lora_scale=1.0)
        assert out.in_graph
        assert len(made) <= 7


class TestContextRow:
    """Layer 0 with the shared context row against the concatenated input
    concat(x, broadcast(ctx)) @ W0 + b0 (+ gamma * (. @ B0) @ A0), then silu."""

    @pytest.mark.parametrize("rank", [0, 3])
    def test_fused_layer0_matches_concat_chain(self, rank):
        rng = np.random.default_rng(30)
        model = FlowMapModel(3, hidden=6, depth=1, time_dim=4, cond_dim=2, rng=rng)
        B = A = None
        if rank:
            model.attach_lora(rank, rng)
            B, A = model.lora[0].B, model.lora[0].A
            A.data = rng.normal(size=A.shape)
        W, b = model.params["layer0.W"], model.params["layer0.b"]
        b.data = rng.normal(size=b.shape)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True,
                   tangent=rng.normal(size=(5, 3)))
        s, t = (Tensor(v, tangent=np.asarray(dv)) for v, dv in ((0.2, 0.7), (0.65, -1.3)))
        cot = rng.normal(size=(5, 6))
        params = {"x": x, **model.trainable_params()}

        def run(fused):
            ctx = ad.concat([time_embed(s, 4), time_embed(t, 4),
                             model.params["cond.table"][COND_NEGATIVE]], axis=0)
            if fused:
                out = ad.linear(x, W, b, silu=True, B=B, A=A, gamma=1.7, ctx=ctx)
            else:
                h = ad.concat([x, ad.broadcast_to(ctx, (5, ctx.shape[0]))], axis=1)
                pre = ad.add(ad.matmul(h, W), b)
                if rank:
                    pre = ad.add(pre, ad.mul(ad.matmul(ad.matmul(h, B), A), 1.7))
                out = ad.silu(pre)
            return out, ad.grad(ad.sum_(ad.mul(out, cot)), params)

        (fused, gf), (chain, gc) = run(True), run(False)

        def rel(a, b):
            return np.max(np.abs(a - b)) / np.max(np.abs(b))

        assert rel(fused.data, chain.data) < 1e-12
        assert rel(fused.tangent, chain.tangent) < 1e-12
        names = ["x", "layer0.W", "layer0.b", "cond.table"]
        names += ["layer0.lora.B", "layer0.lora.A"] if rank else []
        for k in names:
            assert np.any(gc[k] != 0.0), k
            assert rel(gf[k], gc[k]) < 1e-12, k


class TestWeightNet:
    def test_five_tape_nodes(self, monkeypatch):
        # the two tape-free time embeddings, their concat and row, two
        # fused layers and the sum; the trig-op embeddings made 15 nodes
        wn = WeightNet(time_dim=8, rng=np.random.default_rng(14))
        made = []
        make = ad._make
        monkeypatch.setattr(ad, "_make", lambda *a: made.append(1) or make(*a))
        assert wn(0.3, 0.6).in_graph
        assert len(made) <= 5

    def test_zero_at_init_everywhere(self):
        wn = WeightNet(rng=np.random.default_rng(11))
        for s, t in ((0.0, 0.0), (0.2, 0.8), (1.0, 1.0)):
            assert wn(s, t).item() == 0.0

    def test_rejects_unordered_times(self):
        wn = WeightNet()
        with pytest.raises(ValueError):
            wn(0.9, 0.1)

    def test_trainable_after_head_moves(self):
        wn = WeightNet(rng=np.random.default_rng(12))
        wn.params["w2"].data += 0.5
        lam = wn(0.3, 0.6)
        g = ad.grad(lam, wn.trainable_params())
        assert np.any(g["w1"] != 0.0)


class TestDiscriminator:
    def test_output_shape(self):
        d = Discriminator(4, hidden=16, rng=np.random.default_rng(13))
        out = d(np.random.default_rng(14).normal(size=(7, 4)))
        assert out.shape == (7, 1)

    def test_dim_check(self):
        d = Discriminator(4, hidden=16)
        with pytest.raises(ValueError):
            d(np.zeros((2, 5)))
