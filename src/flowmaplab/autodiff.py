"""Dense float64 tensor algebra with reverse-mode gradients and forward-mode JVPs.

A small tape-based engine: each op records its parents and a backward
closure on its output node while gradient recording is enabled; the closure
maps the output's cotangent to one cotangent per parent.  ``grad`` is the
only reverse-mode driver and keeps every cotangent in a dict local to the
call, so no Tensor stores a gradient.  Forward-mode derivatives are carried
as an optional tangent array alongside the primal value, so a single
evaluation of a function on seeded inputs yields a jacobian-vector product.
Tangent propagation never records on the tape (targets built from JVPs are
always stop-gradiented downstream).
"""

from __future__ import annotations

import contextlib
import itertools

import numpy as np

_GRAD_ENABLED = [True]


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def grad_enabled() -> bool:
    return _GRAD_ENABLED[-1]


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Tensor:
    """Immutable dense array node.

    ``data`` is always float64.  ``tangent`` (same shape, or None) carries the
    forward-mode directional derivative.  ``requires_grad`` marks trainable
    leaves; interior graph nodes get their parents and a backward closure
    from the op that made them.
    """

    __slots__ = ("data", "tangent", "requires_grad", "_prev", "_backward", "__weakref__")

    def __init__(self, data, requires_grad=False, tangent=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.tangent = None if tangent is None else np.asarray(tangent, dtype=np.float64)
        if self.tangent is not None and self.tangent.shape != self.data.shape:
            raise ValueError(
                f"tangent shape {self.tangent.shape} != primal shape {self.data.shape}")
        self.requires_grad = bool(requires_grad)
        self._prev = ()
        self._backward = None

    # -- bookkeeping ------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def in_graph(self):
        return self.requires_grad or self._backward is not None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    def __getitem__(self, idx):
        return slice_(self, idx)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, tangent, parents: tuple, backward):
    """Assemble an op output: tangent always, tape record only if recording.

    The record is every parent and ``backward(g)``, which returns one
    cotangent per parent, in order, or None for a parent off the tape.
    """
    out = Tensor(data, tangent=tangent)
    if grad_enabled() and any(p.in_graph for p in parents):
        out._prev = parents
        out._backward = backward
    return out


def _pointwise(a: Tensor, data, slope) -> Tensor:
    """Output ``data`` of an elementwise op of ``a`` whose derivative is
    ``slope()``: the tangent is slope * a.tangent and the cotangent g * slope.
    The slope is formed only when the tangent or the backward reads it."""
    s = None if a.tangent is None else slope()
    tangent = None if s is None else s * a.tangent
    return _make(data, tangent, (a,), lambda g: (g * (slope() if s is None else s),))


def _binary(a: Tensor, b: Tensor, data, da, db) -> Tensor:
    """Output ``data`` of an op linear in a perturbation of each operand,
    by ``da`` of a's and ``db`` of b's: the tangent is da(a.tangent) +
    db(b.tangent) over the operands that carry one, always a fresh array of
    the output's shape, and the cotangents are da(g) and db(g), each summed
    back to its operand's shape."""
    tangent = None
    for x, d in ((a, da), (b, db)):
        if x.tangent is not None:
            term = d(x.tangent)
            tangent = term if tangent is None else tangent + term
    if tangent is not None and (tangent.shape != data.shape
                                or tangent is a.tangent or tangent is b.tangent):
        tangent = np.broadcast_to(tangent, data.shape).copy()
    return _make(data, tangent, (a, b), lambda g: (
        _unbroadcast(da(g), a.shape) if a.in_graph else None,
        _unbroadcast(db(g), b.shape) if b.in_graph else None))


def _same(x):
    return x


# -- elementary ops -------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.data + b.data, _same, _same)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.data - b.data, _same, np.negative)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.data * b.data, lambda x: x * b.data, lambda x: a.data * x)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data @ b.data
    tangent = None if a.tangent is None else a.tangent @ b.data
    if b.tangent is not None:
        tangent = a.data @ b.tangent if tangent is None else tangent + a.data @ b.tangent

    def backward(g):
        ga = gb = None
        if a.in_graph:
            ga = (g @ b.data.T if b.data.ndim == 2 else np.outer(g, b.data)).reshape(a.shape)
        if b.in_graph:
            gb = (a.data.T @ g if a.data.ndim == 2 else np.outer(a.data, g)).reshape(b.shape)
        return ga, gb

    return _make(data, tangent, (a, b), backward)


def sum_(a, axis=None) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis)
    tangent = None if a.tangent is None else a.tangent.sum(axis=axis)
    return _make(data, tangent, (a,), lambda g: (
        np.broadcast_to(g if axis is None else np.expand_dims(g, axis), a.shape),))


def mean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    data = a.data.mean(axis=axis)
    tangent = None if a.tangent is None else a.tangent.mean(axis=axis)
    return _make(data, tangent, (a,), lambda g: (
        np.broadcast_to(g / n if axis is None else np.expand_dims(g / n, axis), a.shape),))


def square(a) -> Tensor:
    a = as_tensor(a)
    return _pointwise(a, a.data ** 2, lambda: 2.0 * a.data)


def exp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)
    return _pointwise(a, data, lambda: data)


def softplus(a) -> Tensor:
    a = as_tensor(a)
    return _pointwise(a, np.logaddexp(0.0, a.data), lambda: 1.0 / (1.0 + np.exp(-a.data)))


def silu(a) -> Tensor:
    a = as_tensor(a)
    sig = 1.0 / (1.0 + np.exp(-a.data))
    return _pointwise(a, a.data * sig, lambda: sig * (1.0 + a.data * (1.0 - sig)))


def linear(h, W, b, silu=False, B=None, A=None, gamma=1.0, ctx=None) -> Tensor:
    """One dense layer as one node: silu?(z @ W + b + gamma * (z @ B) @ A).

    Without ``ctx`` the layer input z is the (n, fan_in) batch ``h``.  With
    it, every row of z is a row of the (n, d) batch ``h`` followed by the
    same vector ``ctx`` of length fan_in - d.  That shared row meets its
    rows of W (and of B) once, as one vector product, and z is never
    formed; W, B and ctx get their gradients from the column sums of the
    batch's cotangent.  The low-rank adapter term is applied to the
    activations, never folded into W, and is skipped when ``B`` is None or
    ``gamma`` is 0.  Without it and without ``ctx`` every array matches the
    unfused ``add(matmul(h, W), b)`` then ``silu`` chain bit for bit.
    """
    h, W, b = as_tensor(h), as_tensor(W), as_tensor(b)
    parents = (h, W, b)
    d = W.shape[0]
    if ctx is not None:
        ctx = as_tensor(ctx)
        d = h.shape[-1]
        if ctx.shape != (W.shape[0] - d,):
            raise ValueError(f"context of shape {ctx.shape} with a {d}-column batch "
                             f"does not fill the {W.shape[0]} input rows of the weight")
        parents += (ctx,)

    def row(M):  # what the shared context adds to every row of z @ M
        return ctx.data @ M[d:]

    pre = h.data @ W.data[:d]
    pre += b.data if ctx is None else row(W.data) + b.data
    lora = B is not None and gamma != 0.0
    if lora:
        B, A = as_tensor(B), as_tensor(A)
        rank = B.shape[1]
        if B.shape != (W.shape[0], rank) or A.shape != (rank, W.shape[1]):
            raise ValueError("adapter factors do not conform to the base weight")
        parents += (B, A)
        ghB = h.data @ B.data[:d]
        if ctx is not None:
            ghB += row(B.data)
        ghB *= gamma
        pre += ghB @ A.data
    record = grad_enabled() and any(p.in_graph for p in parents)
    has_tangent = any(p.tangent is not None for p in parents)

    def tangent_of(M, out):  # adds the tangent of z @ M to ``out``
        if h.tangent is not None:
            out += h.tangent @ M.data[:d]
        if M.tangent is not None:
            out += h.data @ M.tangent[:d]
            if ctx is not None:
                out += ctx.data @ M.tangent[d:]
        if ctx is not None and ctx.tangent is not None:
            out += ctx.tangent @ M.data[d:]
        return out

    tpre = None
    if has_tangent:
        tpre = tangent_of(W, np.zeros(pre.shape))
        if b.tangent is not None:
            tpre += b.tangent
        if lora:
            thB = tangent_of(B, np.zeros(ghB.shape))
            thB *= gamma
            tpre += thB @ A.data
            if A.tangent is not None:
                tpre += ghB @ A.tangent

    # silu and its derivative, each in one buffer: the same ufuncs in the
    # same order as silu?(pre), sig = 1 / (1 + exp(-pre)), silu' = sig (1 + pre (1 - sig))
    data, dsig = pre, None
    if silu:
        sig = np.negative(pre)
        np.exp(sig, out=sig)
        sig += 1.0
        np.divide(1.0, sig, out=sig)
        if has_tangent or record:
            dsig = np.subtract(1.0, sig)
            dsig *= pre
            dsig += 1.0
            dsig *= sig
        if has_tangent:
            tpre *= dsig
        data = np.multiply(pre, sig, out=sig)

    def backward(g):
        gp = g if dsig is None else g * dsig
        # column sums carry the shared row's share: b, and with ctx also
        # W's and B's context rows and ctx itself
        gsum = gp.sum(axis=0) if ctx is not None or b.in_graph else None
        gW = _rows_grad(h.data, ctx, gp, gsum) if W.in_graph else None
        gb = gsum.reshape(b.shape) if b.in_graph else None
        gh = gp @ W.data[:d].T if h.in_graph else None
        gctx = gsum @ W.data[d:].T if ctx is not None and ctx.in_graph else None
        cots = [gh, gW, gb] + ([gctx] if ctx is not None else [])
        if lora:
            gpA = gp @ A.data.T
            gpA *= gamma
            gAsum = gpA.sum(axis=0) if ctx is not None else None
            if gh is not None:
                gh += gpA @ B.data[:d].T
            if gctx is not None:
                gctx += gAsum @ B.data[d:].T
            cots += [_rows_grad(h.data, ctx, gpA, gAsum) if B.in_graph else None,
                     ghB.T @ gp if A.in_graph else None]
        return cots

    return _make(data, tpre, parents, backward)


def _rows_grad(h, ctx, gp, gsum) -> np.ndarray:
    """Cotangent of the weight M in z @ M, z = [h | ctx rows]: h.T @ gp,
    with ctx's rows outer(ctx, column sums of gp) when there is a ctx."""
    if ctx is None:
        return h.T @ gp
    d = h.shape[1]
    out = np.empty((d + ctx.shape[0], gp.shape[1]))
    np.matmul(h.T, gp, out=out[:d])
    np.outer(ctx.data, gsum, out=out[d:])
    return out


def sin(a) -> Tensor:
    a = as_tensor(a)
    return _pointwise(a, np.sin(a.data), lambda: np.cos(a.data))


def cos(a) -> Tensor:
    a = as_tensor(a)
    return _pointwise(a, np.cos(a.data), lambda: -np.sin(a.data))


def concat(tensors, axis=0) -> Tensor:
    tensors = tuple(as_tensor(t) for t in tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    tangent = None
    if any(t.tangent is not None for t in tensors):
        tangent = np.concatenate(
            [t.tangent if t.tangent is not None else np.zeros(t.shape) for t in tensors],
            axis=axis)
    offsets = list(itertools.accumulate((t.data.shape[axis] for t in tensors), initial=0))

    def backward(g):
        sl = [slice(None)] * g.ndim
        cots = []
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            sl[axis] = slice(lo, hi)
            cots.append(g[tuple(sl)])
        return cots

    return _make(data, tangent, tensors, backward)


def slice_(a, idx) -> Tensor:
    a = as_tensor(a)
    data = a.data[idx]
    ta = a.tangent
    tangent = None if ta is None else ta[idx]

    def backward(g):
        full = np.zeros(a.shape)
        np.add.at(full, idx, g)
        return (full,)

    return _make(data, tangent, (a,), backward)


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    data = np.broadcast_to(a.data, shape).copy()
    ta = a.tangent
    tangent = None if ta is None else np.broadcast_to(ta, shape).copy()
    return _make(data, tangent, (a,), lambda g: (_unbroadcast(g, a.shape),))


def stop_gradient(a) -> Tensor:
    """Value-identical node with no tape history and no tangent."""
    a = as_tensor(a)
    return Tensor(a.data)


# -- derivative drivers ---------------------------------------------------


def grad(loss: Tensor, params: dict) -> dict:
    """Reverse-mode partials of a scalar ``loss`` w.r.t. named parameters.

    The cotangents live in one dict local to the call, keyed by node, so
    no Tensor stores a gradient and a backward that raises leaves nothing
    behind.  Each interior node's cotangent is popped right before its own
    backward runs: in reverse topological order it is complete then, and
    nothing reads it again.  A node's first cotangent is copied, later ones
    are added.  Each requested parameter gets its leaf cotangent, or zeros
    if the loss does not reach it on the tape.
    """
    if loss.data.size != 1:
        raise ValueError("grad() requires a scalar loss")
    # depth-first post-order, parents in recorded order; iterative, so
    # no self-referencing closure keeps the tape alive after the call
    topo, seen, stack = [], set(), []
    if loss.in_graph:
        seen.add(id(loss))
        stack.append((loss, iter(loss._prev)))
    while stack:
        node, parents = stack[-1]
        for p in parents:
            if id(p) not in seen and p.in_graph:
                seen.add(id(p))
                stack.append((p, iter(p._prev)))
                break
        else:
            stack.pop()
            topo.append(node)
    cots = {loss: np.ones_like(loss.data)}
    for node in reversed(topo):
        if node._backward is None or node not in cots:
            continue
        for p, c in zip(node._prev, node._backward(cots.pop(node))):
            if c is not None and p.in_graph:
                cots[p] = cots[p] + c if p in cots else np.array(c, dtype=np.float64, copy=True)
        del c  # the last cotangent dies before the next backward runs
    return {name: cots[p] if p in cots else np.zeros(p.shape) for name, p in params.items()}


def jvp(f, x: Tensor, v: Tensor):
    """Value and directional derivative of ``f`` at ``x`` along ``v``.

    Runs outside gradient recording; the caller stop-gradients the result.
    Other inputs of ``f`` may carry tangents too (a time built as
    ``Tensor(t, tangent=dt)``), and the result is then the total
    derivative along all of them.
    """
    x, v = as_tensor(x), as_tensor(v)
    if x.shape != v.shape:
        raise ValueError(f"tangent shape {v.shape} != point shape {x.shape}")
    with no_grad():
        out = f(Tensor(x.data, tangent=v.data))
    tangent = out.tangent if out.tangent is not None else np.zeros(out.shape)
    return Tensor(out.data), Tensor(tangent)
