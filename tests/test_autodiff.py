"""Reverse-mode gradients and forward-mode tangents against finite differences."""

import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from flowmaplab import autodiff as ad
from flowmaplab.autodiff import Tensor
from flowmaplab.nets import LowRankAdapter, lora_effective_weight


def central_diff(f, x, h=1e-6):
    """Numerical gradient of a scalar function of one array."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
    return g


def rel_err(a, b):
    denom = max(np.max(np.abs(b)), 1e-12)
    return np.max(np.abs(a - b)) / denom


class TestElementaryGrads:
    def test_add_broadcast(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        loss = ad.sum_(ad.square(ad.add(a, b)))
        g = ad.grad(loss, {"a": a, "b": b})
        assert g["a"].shape == (3, 4)
        assert g["b"].shape == (4,)
        np.testing.assert_allclose(g["a"], 2 * (a.data + b.data))
        np.testing.assert_allclose(g["b"], 2 * (a.data + b.data).sum(axis=0))

    def test_sub_broadcast_right(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        loss = ad.sum_(ad.square(ad.sub(a, b)))
        g = ad.grad(loss, {"b": b})
        np.testing.assert_allclose(g["b"], -2 * (a.data - b.data).sum(axis=0))

    @pytest.mark.parametrize("op,deriv", [
        (ad.exp, np.exp),
        (ad.sin, np.cos),
        (ad.cos, lambda z: -np.sin(z)),
        (ad.softplus, lambda z: 1 / (1 + np.exp(-z))),
    ])
    def test_unary_grads(self, op, deriv):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(5,)), requires_grad=True)
        loss = ad.sum_(op(x))
        g = ad.grad(loss, {"x": x})
        np.testing.assert_allclose(g["x"], deriv(x.data), rtol=1e-12)

    def test_square_silu_fd(self):
        rng = np.random.default_rng(3)
        x0 = np.abs(rng.normal(size=(6,))) + 0.5

        def f(xd):
            return ad.sum_(ad.square(ad.silu(Tensor(xd)))).item()

        x = Tensor(x0, requires_grad=True)
        loss = ad.sum_(ad.square(ad.silu(x)))
        g = ad.grad(loss, {"x": x})
        assert rel_err(g["x"], central_diff(f, x0)) < 1e-7

    def test_matmul_grads(self):
        rng = np.random.default_rng(4)
        a0 = rng.normal(size=(3, 5))
        b0 = rng.normal(size=(5, 2))
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        loss = ad.sum_(ad.square(ad.matmul(a, b)))
        g = ad.grad(loss, {"a": a, "b": b})
        y = a0 @ b0
        np.testing.assert_allclose(g["a"], 2 * y @ b0.T, rtol=1e-12)
        np.testing.assert_allclose(g["b"], 2 * a0.T @ y, rtol=1e-12)

    @pytest.mark.parametrize("sa,sb,want", [
        ((5,), (5, 2), lambda a, b, c: (b @ c, np.outer(a, c))),
        ((3, 5), (5,), lambda a, b, c: (np.outer(c, b), a.T @ c)),
        ((5,), (5,), lambda a, b, c: (c * b, c * a)),
    ], ids=["vector-matrix", "matrix-vector", "vector-vector"])
    def test_matmul_vector_operands(self, sa, sb, want):
        # loss = sum(c * (a @ b)), so the cotangent of a @ b is c
        rng = np.random.default_rng(9)
        a0, b0 = rng.normal(size=sa), rng.normal(size=sb)
        c = rng.normal(size=np.shape(a0 @ b0))
        a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
        g = ad.grad(ad.sum_(ad.mul(ad.matmul(a, b), c)), {"a": a, "b": b})
        want_a, want_b = want(a0, b0, c)
        assert g["a"].shape == sa and g["b"].shape == sb
        np.testing.assert_allclose(g["a"], want_a, rtol=1e-12)
        np.testing.assert_allclose(g["b"], want_b, rtol=1e-12)

    def test_mean_axis_and_sum_axis(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        loss = ad.sum_(ad.square(ad.mean(x, axis=1)))
        g = ad.grad(loss, {"x": x})
        expected = (2 * x.data.mean(axis=1) / 6)[:, None] * np.ones((4, 6))
        np.testing.assert_allclose(g["x"], expected, rtol=1e-12)

    def test_concat_and_slice(self):
        rng = np.random.default_rng(6)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        c = ad.concat([a, b], axis=1)
        loss = ad.sum_(ad.square(c[:, 1:4]))
        g = ad.grad(loss, {"a": a, "b": b})
        ref = np.zeros((2, 5))
        ref[:, 1:4] = 2 * np.concatenate([a.data, b.data], axis=1)[:, 1:4]
        np.testing.assert_allclose(g["a"], ref[:, :3])
        np.testing.assert_allclose(g["b"], ref[:, 3:])

    def test_broadcast_to_grad(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = ad.broadcast_to(x, (3, 2))
        loss = ad.sum_(ad.mul(y, y))
        g = ad.grad(loss, {"x": x})
        np.testing.assert_allclose(g["x"], 3 * 2 * x.data)


class TestStopGradientAndNoGrad:
    def test_stop_gradient_blocks(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        y = ad.mul(ad.stop_gradient(ad.square(x)), x)
        g = ad.grad(ad.sum_(y), {"x": x})
        np.testing.assert_allclose(g["x"], x.data ** 2)  # only the live factor

    def test_no_grad_records_nothing(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with ad.no_grad():
            y = ad.square(x)
        assert not y.in_graph

    def test_grad_unreachable_param_is_zero(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        z = Tensor(np.array([5.0]), requires_grad=True)
        g = ad.grad(ad.sum_(ad.square(x)), {"x": x, "z": z})
        np.testing.assert_allclose(g["z"], np.zeros(1))


class TestForwardMode:
    def test_jvp_elementwise(self):
        x = Tensor(np.array([0.2, -1.3, 0.7]))
        v = Tensor(np.array([1.0, 0.5, -2.0]))
        out, tang = ad.jvp(lambda z: ad.exp(ad.sin(z)), x, v)
        np.testing.assert_allclose(out.data, np.exp(np.sin(x.data)))
        np.testing.assert_allclose(tang.data,
                                   np.exp(np.sin(x.data)) * np.cos(x.data) * v.data)

    def test_jvp_matches_fd_through_mlp(self):
        rng = np.random.default_rng(7)
        W1 = rng.normal(size=(4, 8))
        W2 = rng.normal(size=(8, 4))

        def f(z):
            return ad.matmul(ad.silu(ad.matmul(z, Tensor(W1))), Tensor(W2))

        x0 = rng.normal(size=(2, 4))
        v0 = rng.normal(size=(2, 4))
        _, tang = ad.jvp(f, Tensor(x0), Tensor(v0))
        h = 1e-6
        with ad.no_grad():
            fp = f(Tensor(x0 + h * v0)).data
            fm = f(Tensor(x0 - h * v0)).data
        assert rel_err(tang.data, (fp - fm) / (2 * h)) < 1e-7

    def test_jvp_joint_time_derivative(self):
        # f(x, s, t) = sin(s) * x + t^2, tangent (0, 1, 0) gives cos(s) x
        def f(x, s, t):
            return ad.add(ad.mul(x, ad.sin(s)), ad.square(t))

        x0 = np.array([1.0, 2.0])
        _, tang = ad.jvp(lambda x: f(x, Tensor(0.3, tangent=1.0), Tensor(0.9, tangent=0.0)),
                         Tensor(x0), np.zeros(2))
        np.testing.assert_allclose(tang.data, np.cos(0.3) * x0, rtol=1e-12)
        _, tang_t = ad.jvp(lambda x: f(x, Tensor(0.3, tangent=0.0), Tensor(0.9, tangent=1.0)),
                           Tensor(x0), np.zeros(2))
        np.testing.assert_allclose(tang_t.data, 2 * 0.9 * np.ones(2), rtol=1e-12)

    def test_jvp_joint_mixed(self):
        # directional derivative in x and t simultaneously
        def f(x, s, t):
            return ad.mul(ad.square(x), t)

        x0 = np.array([2.0])
        dx = np.array([1.5])
        _, tang = ad.jvp(lambda x: f(x, Tensor(0.0, tangent=0.0), Tensor(0.5, tangent=1.0)),
                         Tensor(x0), dx)
        np.testing.assert_allclose(tang.data, 2 * x0 * dx * 0.5 + x0 ** 2, rtol=1e-12)

    @pytest.mark.parametrize("which", ["a", "b", "both"])
    @pytest.mark.parametrize("name", ["add", "sub", "mul"])
    def test_binary_tangent_under_broadcasting(self, name, which):
        # tangent = da * d(out)/da + db * d(out)/db, a fresh writable array of
        # the output's shape that shares no memory with an operand's tangent
        rng = np.random.default_rng(8)
        shapes = [(), (4,), (3, 1), (3, 4)]
        partials = {"add": lambda a, b: (1.0, 1.0), "sub": lambda a, b: (1.0, -1.0),
                    "mul": lambda a, b: (b, a)}[name]
        for sa, sb in itertools.product(shapes, shapes):
            a0, b0, da, db = (rng.normal(size=sh) for sh in (sa, sb, sa, sb))
            a = Tensor(a0, tangent=da if which != "b" else None)
            b = Tensor(b0, tangent=db if which != "a" else None)
            out = getattr(ad, name)(a, b)
            pa, pb = partials(a0, b0)
            want = np.zeros(out.shape)
            if which != "b":
                want = want + da * pa
            if which != "a":
                want = want + db * pb
            assert out.tangent.shape == out.shape, (sa, sb)
            np.testing.assert_allclose(out.tangent, want, rtol=1e-15, err_msg=str((sa, sb)))
            assert out.tangent.flags.writeable
            for t in (a.tangent, b.tangent):
                assert t is None or not np.shares_memory(out.tangent, t), (sa, sb)



def _chain(h, W, b, silu, adapter=None, gamma=1.0):
    """The unfused layer: add(matmul(h, W_eff), b), then silu."""
    if adapter is not None:
        W = lora_effective_weight(W, adapter, gamma)
    out = ad.add(ad.matmul(h, W), b)
    return ad.silu(out) if silu else out


def _layer_inputs(seed, tangents=True):
    rng = np.random.default_rng(seed)
    shapes = {"h": (5, 3), "W": (3, 4), "b": (4,)}
    return {k: Tensor(rng.normal(size=s), requires_grad=True,
                      tangent=rng.normal(size=s) if tangents else None)
            for k, s in shapes.items()}, rng


def _adapter(rng, rank=2):
    a = LowRankAdapter(3, 4, rank, rng)
    a.A.data = rng.normal(size=a.A.shape)  # off the zero init
    a.B.tangent = rng.normal(size=a.B.shape)
    a.A.tangent = rng.normal(size=a.A.shape)
    return a


def _run(layer, params, cot):
    """The output node and the gradients of sum(out * cot)."""
    out = layer()
    g = ad.grad(ad.sum_(ad.mul(out, cot)), params)
    return out, g


class TestLinear:
    @pytest.mark.parametrize("silu", [True, False])
    def test_adapter_free_matches_chain_bit_for_bit(self, silu):
        x, rng = _layer_inputs(20)
        cot = rng.normal(size=(5, 4))
        fused, gf = _run(lambda: ad.linear(x["h"], x["W"], x["b"], silu=silu), x, cot)
        chain, gch = _run(lambda: _chain(x["h"], x["W"], x["b"], silu), x, cot)
        assert fused.data.tobytes() == chain.data.tobytes()
        assert fused.tangent.tobytes() == chain.tangent.tobytes()
        for k in x:
            assert gf[k].tobytes() == gch[k].tobytes(), k

    @pytest.mark.parametrize("silu", [True, False])
    def test_adapter_matches_effective_weight_chain(self, silu):
        x, rng = _layer_inputs(21)
        a = _adapter(rng)
        params = {**x, "B": a.B, "A": a.A}
        cot = rng.normal(size=(5, 4))
        fused, gf = _run(lambda: ad.linear(x["h"], x["W"], x["b"], silu=silu,
                                           B=a.B, A=a.A, gamma=1.5), params, cot)
        chain, gch = _run(lambda: _chain(x["h"], x["W"], x["b"], silu, a, 1.5),
                          params, cot)
        assert rel_err(fused.data, chain.data) < 1e-12
        assert rel_err(fused.tangent, chain.tangent) < 1e-12
        for k in params:
            assert rel_err(gf[k], gch[k]) < 1e-12, k

    def test_adapter_grads_and_tangent_match_fd(self):
        x, rng = _layer_inputs(22, tangents=False)
        a = _adapter(rng)
        for t in (a.B, a.A):
            t.tangent = None
        cot = rng.normal(size=(5, 4))

        def f(B, A, h=x["h"].data):
            with ad.no_grad():
                out = ad.linear(h, x["W"], x["b"], silu=True, B=B, A=A, gamma=1.5)
            return float(np.sum(out.data * cot))

        _, g = _run(lambda: ad.linear(x["h"], x["W"], x["b"], silu=True,
                                      B=a.B, A=a.A, gamma=1.5), {"B": a.B, "A": a.A}, cot)
        assert rel_err(g["B"], central_diff(lambda B: f(B, a.A.data), a.B.data)) < 1e-7
        assert rel_err(g["A"], central_diff(lambda A: f(a.B.data, A), a.A.data)) < 1e-7

        v = rng.normal(size=x["h"].shape)
        _, tang = ad.jvp(lambda z: ad.linear(z, x["W"], x["b"], silu=True,
                                             B=a.B, A=a.A, gamma=1.5), x["h"], Tensor(v))
        eps = 1e-6
        with ad.no_grad():
            fp, fm = (ad.linear(x["h"].data + d * v, x["W"], x["b"], silu=True,
                                B=a.B, A=a.A, gamma=1.5).data for d in (eps, -eps))
        assert rel_err(tang.data, (fp - fm) / (2 * eps)) < 1e-7

    @pytest.mark.parametrize("with_adapter", [False, True])
    def test_no_grad_output_equals_taped(self, with_adapter):
        x, rng = _layer_inputs(23)
        lora = {}
        if with_adapter:
            a = _adapter(rng)
            lora = dict(B=a.B, A=a.A, gamma=0.7)
        taped = ad.linear(x["h"], x["W"], x["b"], silu=True, **lora)
        with ad.no_grad():
            free = ad.linear(x["h"], x["W"], x["b"], silu=True, **lora)
        assert taped.in_graph and not free.in_graph
        assert taped.data.tobytes() == free.data.tobytes()
        assert taped.tangent.tobytes() == free.tangent.tobytes()

    def test_gamma_zero_is_the_base_layer(self):
        x, rng = _layer_inputs(24)
        a = _adapter(rng)
        params = {**x, "B": a.B, "A": a.A}
        cot = rng.normal(size=(5, 4))
        off, g = _run(lambda: ad.linear(x["h"], x["W"], x["b"], silu=True,
                                        B=a.B, A=a.A, gamma=0.0), params, cot)
        base = ad.linear(x["h"], x["W"], x["b"], silu=True)
        assert off.data.tobytes() == base.data.tobytes()
        assert not g["B"].any() and not g["A"].any()

    @pytest.mark.parametrize("silu", [True, False])
    @pytest.mark.parametrize("with_adapter", [False, True])
    def test_context_row_matches_concat_chain(self, silu, with_adapter):
        # every parent taped and carrying a tangent, weights included
        rng = np.random.default_rng(26)
        shapes = {"h": (5, 2), "ctx": (3,), "W": (5, 4), "b": (4,)}
        if with_adapter:
            shapes.update(B=(5, 2), A=(2, 4))
        x = {k: Tensor(rng.normal(size=sh), requires_grad=True, tangent=rng.normal(size=sh))
             for k, sh in shapes.items()}
        lora = dict(B=x["B"], A=x["A"], gamma=0.8) if with_adapter else {}
        cot = rng.normal(size=(5, 4))

        def chain():
            z = ad.concat([x["h"], ad.broadcast_to(x["ctx"], (5, 3))], axis=1)
            pre = ad.add(ad.matmul(z, x["W"]), x["b"])
            if with_adapter:
                pre = ad.add(pre, ad.mul(ad.matmul(ad.matmul(z, x["B"]), x["A"]), 0.8))
            return ad.silu(pre) if silu else pre

        fused, gf = _run(lambda: ad.linear(x["h"], x["W"], x["b"], silu=silu,
                                           ctx=x["ctx"], **lora), x, cot)
        ref, gr = _run(chain, x, cot)
        assert rel_err(fused.data, ref.data) < 1e-12
        assert rel_err(fused.tangent, ref.tangent) < 1e-12
        for k in x:
            assert rel_err(gf[k], gr[k]) < 1e-12, k
        with ad.no_grad():
            free = ad.linear(x["h"], x["W"], x["b"], silu=silu, ctx=x["ctx"], **lora)
        assert free.data.tobytes() == fused.data.tobytes()
        assert free.tangent.tobytes() == fused.tangent.tobytes()

    def test_context_gradient_and_tangent_match_fd(self):
        rng = np.random.default_rng(27)
        h = Tensor(rng.normal(size=(4, 2)))
        W, b = Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=3))
        B, A = Tensor(rng.normal(size=(5, 2))), Tensor(rng.normal(size=(2, 3)))
        c0 = rng.normal(size=3)
        cot = rng.normal(size=(4, 3))

        def layer(c):
            return ad.linear(h, W, b, silu=True, B=B, A=A, gamma=1.3, ctx=c)

        def f(c):
            with ad.no_grad():
                return float(np.sum(layer(c).data * cot))

        ctx = Tensor(c0, requires_grad=True)
        _, g = _run(lambda: layer(ctx), {"ctx": ctx}, cot)
        assert rel_err(g["ctx"], central_diff(f, c0)) < 1e-7
        v = rng.normal(size=3)
        _, tang = ad.jvp(layer, Tensor(c0), Tensor(v))
        with ad.no_grad():
            fp, fm = (layer(c0 + d * v).data for d in (1e-6, -1e-6))
        assert rel_err(tang.data, (fp - fm) / 2e-6) < 1e-7

    def test_context_must_fill_the_weight_rows(self):
        x, _ = _layer_inputs(28)
        with pytest.raises(ValueError, match="does not fill"):
            ad.linear(x["h"][:, :2], x["W"], x["b"], ctx=Tensor(np.ones(2)))

    def test_nonconforming_adapter_rejected(self):
        x, rng = _layer_inputs(25)
        with pytest.raises(ValueError, match="do not conform"):
            ad.linear(x["h"], x["W"], x["b"], B=Tensor(np.ones((3, 2))),
                      A=Tensor(np.ones((2, 1))))

def test_backward_requires_scalar():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        ad.grad(ad.square(x), {"x": x})


def test_float64_everywhere():
    t = Tensor(np.array([1, 2], dtype=np.int32))
    assert t.data.dtype == np.float64
    assert ad.add(t, 1.0).data.dtype == np.float64


def _mlp_loss(seed=0):
    rng = np.random.default_rng(seed)
    W = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    hidden = ad.silu(ad.matmul(Tensor(rng.normal(size=(5, 3))), W))
    return ad.mean(ad.square(hidden)), W, hidden


def test_grad_twice_is_equal():
    # interior cotangents do not carry over into a second sweep
    loss, W, _ = _mlp_loss()
    first = ad.grad(loss, {"W": W})["W"]
    second = ad.grad(loss, {"W": W})["W"]
    assert first.tobytes() == second.tobytes()


def test_grad_after_a_raised_backward_equals_a_fresh_one():
    # the cotangents live in the call, so a sweep that dies halfway leaves
    # nothing behind for the next one
    loss, W, hidden = _mlp_loss()
    sweep = hidden._backward

    def broken(g):
        raise RuntimeError("backward failed")

    hidden._backward = broken
    with pytest.raises(RuntimeError, match="backward failed"):
        ad.grad(loss, {"W": W})
    hidden._backward = sweep
    again = ad.grad(loss, {"W": W})["W"]
    fresh_loss, fresh_W, _ = _mlp_loss()
    assert again.tobytes() == ad.grad(fresh_loss, {"W": fresh_W})["W"].tobytes()


def test_requested_frozen_param_gets_zeros():
    frozen = Tensor(np.ones(2))  # feeds the loss, but off the tape
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    loss = ad.sum_(ad.mul(ad.square(x), frozen))
    g = ad.grad(loss, {"x": x, "frozen": frozen})
    np.testing.assert_array_equal(g["frozen"], np.zeros(2))
    np.testing.assert_array_equal(g["x"], 2.0 * x.data)


def test_grad_stores_nothing_on_the_tape():
    loss, W, _ = _mlp_loss()
    nodes, todo = [], [loss]
    while todo:
        node = todo.pop()
        nodes.append(node)
        todo.extend(p for p in node._prev if p.in_graph)
    slots = [s for s in Tensor.__slots__ if s != "__weakref__"]
    before = [[getattr(n, s) for s in slots] for n in nodes]
    ad.grad(loss, {"W": W})
    for node, values in zip(nodes, before):
        assert not hasattr(node, "grad")
        assert all(getattr(node, s) is v for s, v in zip(slots, values))


def test_tape_freed_without_cyclic_gc():
    gc.disable()
    try:
        loss, W, hidden = _mlp_loss()
        ref = weakref.ref(hidden)
        del hidden
        ad.grad(loss, {"W": W})
        del loss
        assert ref() is None
    finally:
        gc.enable()


def test_backward_frees_each_cotangent_once_used():
    # a 30-op elementwise chain: every interior cotangent dies as soon as
    # its own backward has run, so the sweep holds a few arrays at a time
    # rather than one per op
    x = Tensor(np.random.default_rng(0).normal(size=(256, 256)), requires_grad=True)
    ops = (ad.sin, ad.silu, lambda t: ad.mul(t, 0.5), ad.square, ad.cos,
           lambda t: ad.add(t, 1.0))
    y = x
    for i in range(30):
        y = ops[i % len(ops)](y)
    loss = ad.sum_(y)
    del y
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ad.grad(loss, {"x": x})
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * x.data.nbytes


@pytest.mark.parametrize("const", [0.5, np.linspace(-1.0, 1.0, 12).reshape(3, 4)])
@pytest.mark.parametrize("x_first", [True, False])
@pytest.mark.parametrize("name", ["add", "sub", "mul"])
def test_binary_ops_build_no_cotangent_for_constants(name, x_first, const):
    # the backward of add, sub and mul returns None in the constant's slot,
    # so no cotangent is formed for a constant only to be discarded
    x = Tensor(np.random.default_rng(3).normal(size=(3, 4)), requires_grad=True)
    op = getattr(ad, name)
    y = op(x, const) if x_first else op(const, x)
    cots = y._backward(np.ones(y.shape))
    assert cots[1 if x_first else 0] is None
    assert cots[0 if x_first else 1] is not None
    g = ad.grad(ad.sum_(y), {"x": x})["x"]
    dx = {"add": 1.0, "sub": 1.0 if x_first else -1.0, "mul": const}[name]
    np.testing.assert_array_equal(g, np.broadcast_to(dx, x.shape))
