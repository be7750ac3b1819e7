"""Flow-map network, dynamic loss-weighting head, low-rank adapters,
discriminator, and sinusoidal time embeddings.

All networks are plain MLPs over the autodiff engine, one fused
``ad.linear`` node per layer.  The flow-map trunk reads each row of x
followed by the context row ``concat(embed(s), embed(t), cond_embedding)``,
which every row shares, so layer 0 meets that row once per batch rather than
once per row.  It returns an average-velocity estimate with the same shape
as ``x``; evaluating on the diagonal s == t gives the instantaneous
velocity.  Low-rank adapters act on the activations,
h @ W + b + gamma * (h @ B) @ A, so no adapted weight is ever formed.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

COND_POSITIVE = 0
COND_NEGATIVE = 1
COND_NULL = 2
COND_NAMES = {"positive": COND_POSITIVE, "negative": COND_NEGATIVE, "null": COND_NULL}


@functools.lru_cache(maxsize=32)
def embed_frequencies(dim: int) -> np.ndarray:
    """Geometric frequencies for a sinusoidal encoding of a time in [0, 1],
    one read-only table per ``dim``."""
    if dim % 2 != 0:
        raise ValueError("embedding dim must be even")
    k = dim // 2
    freqs = np.array([1.0]) if k == 1 else np.exp(np.linspace(0.0, math.log(1000.0), k))
    freqs.setflags(write=False)
    return freqs


def time_embed(t, dim: int) -> Tensor:
    """Sinusoidal features [sin(w_k t), cos(w_k t)] as a length-``dim`` vector.

    ``t`` may be a float or a scalar Tensor carrying a forward-mode tangent,
    which the result carries on as [w_k cos(w_k t), -w_k sin(w_k t)] times
    it.  The result is one Tensor with no tape history, so a ``t`` on the
    tape is refused: its gradient would be dropped.
    """
    ts = ad.as_tensor(t)
    if ts.in_graph:
        raise ValueError("time_embed records no backward: pass a time off the tape")
    freqs = embed_frequencies(dim)
    phase = ts.data * freqs
    sin, cos = np.sin(phase), np.cos(phase)
    tangent = None
    if ts.tangent is not None:
        tphase = ts.tangent * freqs
        tangent = np.concatenate([cos * tphase, -sin * tphase])
    return Tensor(np.concatenate([sin, cos]), tangent=tangent)


def _linear_init(rng: np.random.Generator, fan_in: int, fan_out: int):
    scale = 1.0 / math.sqrt(fan_in)
    w = rng.uniform(-scale, scale, size=(fan_in, fan_out))
    b = np.zeros(fan_out)
    return w, b


class LowRankAdapter:
    """Additive low-rank delta gamma * B @ A on a layer's weight, applied to
    the activations: the layer computes h @ W + b + gamma * (h @ B) @ A.

    B is (fan_in, r) with a small random init, A is (r, fan_out) and starts
    at zero so the layer first equals the base layer exactly.
    """

    def __init__(self, fan_in: int, fan_out: int, rank: int, rng: np.random.Generator):
        self.rank = rank
        self.B = Tensor(rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_in, rank)),
                        requires_grad=True)
        self.A = Tensor(np.zeros((rank, fan_out)), requires_grad=True)


def lora_effective_weight(W: Tensor, adapter: LowRankAdapter, gamma: float) -> Tensor:
    """W + gamma * B @ A.  gamma = 0 recovers the base weight bit-exactly.

    The reference for the adapter term of ``ad.linear``; forwards never
    form this weight."""
    if adapter.B.shape[0] != W.shape[0] or adapter.A.shape[1] != W.shape[1]:
        raise ValueError("adapter factors do not conform to the base weight")
    if adapter.B.shape[1] != adapter.A.shape[0]:
        raise ValueError("adapter rank mismatch")
    if gamma == 0.0:
        return W
    return ad.add(W, ad.mul(ad.matmul(adapter.B, adapter.A), gamma))


def check_sizes(hidden: int, depth: int, time_dim: int, cond_dim: int) -> None:
    """Refuse, naming the field, a trunk size that ``FlowMapModel`` cannot build:
    ``depth = -1`` would loop over no layer and be the identity field."""
    if hidden < 1:
        raise ValueError(f"hidden must be >= 1, got {hidden}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if time_dim < 2 or time_dim % 2:
        raise ValueError(f"time_dim must be even and >= 2, got {time_dim}")
    if cond_dim < 0:
        raise ValueError(f"cond_dim must be >= 0, got {cond_dim}")


class FlowMapModel:
    """MLP parameterization of the conditional average velocity u_{s,t}(x|c).

    The final layer is zero-initialized, so a fresh model is the zero field.
    ``eval_count`` instruments every forward call; loss code uses it to audit
    how many extra evaluations each training target costs.
    """

    def __init__(self, state_dim: int, hidden: int = 256, depth: int = 4,
                 time_dim: int = 32, cond_dim: int = 16,
                 rng: np.random.Generator | None = None):
        check_sizes(hidden=hidden, depth=depth, time_dim=time_dim, cond_dim=cond_dim)
        rng = rng if rng is not None else np.random.default_rng(0)
        self.state_dim = state_dim
        self.hidden = hidden
        self.depth = depth
        self.time_dim = time_dim
        self.cond_dim = cond_dim
        self.eval_count = 0
        self.lora = None

        in_dim = state_dim + 2 * time_dim + cond_dim
        dims = [in_dim] + [hidden] * depth + [state_dim]
        self.params: dict[str, Tensor] = {}
        for i, (fi, fo) in enumerate(zip(dims[:-1], dims[1:])):
            w, b = _linear_init(rng, fi, fo)
            if i == depth:  # zero-init the output layer
                w = np.zeros_like(w)
            self.params[f"layer{i}.W"] = Tensor(w, requires_grad=True)
            self.params[f"layer{i}.b"] = Tensor(b, requires_grad=True)
        self.params["cond.table"] = Tensor(
            rng.normal(0.0, 0.1, size=(3, cond_dim)), requires_grad=True)

    # -- adapters ---------------------------------------------------------

    def attach_lora(self, rank: int, rng: np.random.Generator):
        """One adapter per trunk linear layer."""
        self.lora = {}
        for i in range(self.depth + 1):
            W = self.params[f"layer{i}.W"]
            self.lora[i] = LowRankAdapter(W.shape[0], W.shape[1], rank, rng)

    def lora_params(self) -> dict[str, Tensor]:
        if self.lora is None:
            return {}
        out = {}
        for i, a in self.lora.items():
            out[f"layer{i}.lora.B"] = a.B
            out[f"layer{i}.lora.A"] = a.A
        return out

    def trainable_params(self) -> dict[str, Tensor]:
        named = {k: v for k, v in self.params.items() if v.requires_grad}
        named.update({k: v for k, v in self.lora_params().items() if v.requires_grad})
        return named

    def set_trunk_trainable(self, flag: bool):
        for v in self.params.values():
            v.requires_grad = flag

    # -- forward ----------------------------------------------------------

    def forward(self, x, s, t, cond: int, lora_scale: float = 1.0) -> Tensor:
        """u_{s,t}(x | cond) for a batch x of shape (n, state_dim).

        ``s`` and ``t`` may be floats or scalar Tensors carrying tangents
        (but not on the tape).  Requires s <= t.  Adapters enter at
        ``lora_scale``; training uses the default, and the model keeps no
        scale of its own.  Layer 0 takes x and the context row
        concat(embed(s), embed(t), cond row) apart: x meets the first
        state_dim rows of its weight, the context row the rest, once for
        the whole batch.
        """
        sv = s.item() if isinstance(s, Tensor) else float(s)
        tv = t.item() if isinstance(t, Tensor) else float(t)
        if sv > tv + 1e-12:
            raise ValueError(f"need s <= t, got s={sv}, t={tv}")
        if isinstance(cond, bool) or not isinstance(cond, (int, np.integer)) \
                or cond not in COND_NAMES.values():
            raise ValueError(f"cond must be one of {sorted(COND_NAMES.values())} "
                             f"({', '.join(COND_NAMES)}), got {cond!r}")
        x = ad.as_tensor(x)
        if x.data.ndim != 2 or x.shape[1] != self.state_dim:
            raise ValueError(f"x must have shape (n, {self.state_dim}), got {x.shape}")
        self.eval_count += 1

        ctx = ad.concat([time_embed(s, self.time_dim), time_embed(t, self.time_dim),
                         self.params["cond.table"][cond]], axis=0)
        h = x
        for i in range(self.depth + 1):
            B = A = None
            if self.lora is not None:
                B, A = self.lora[i].B, self.lora[i].A
            h = ad.linear(h, self.params[f"layer{i}.W"], self.params[f"layer{i}.b"],
                          silu=i < self.depth, B=B, A=A, gamma=lora_scale,
                          ctx=ctx if i == 0 else None)
        return h

    __call__ = forward


WEIGHTNET_HIDDEN = 16


class WeightNet:
    """Learned scalar loss weight lambda_{s,t}.

    Two-layer head, ``WEIGHTNET_HIDDEN`` wide, over concatenated time
    embeddings; the output layer is zero-initialized so the weight starts at
    0 (and exp(-0) = 1) everywhere.
    """

    def __init__(self, time_dim: int = 32, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.time_dim = time_dim
        w1, b1 = _linear_init(rng, 2 * time_dim, WEIGHTNET_HIDDEN)
        self.params = {
            "w1": Tensor(w1, requires_grad=True),
            "b1": Tensor(b1, requires_grad=True),
            "w2": Tensor(np.zeros((WEIGHTNET_HIDDEN, 1)), requires_grad=True),
            "b2": Tensor(np.zeros(1), requires_grad=True),
        }

    def forward(self, s: float, t: float) -> Tensor:
        if not 0.0 <= s <= t <= 1.0:
            raise ValueError(f"need 0 <= s <= t <= 1, got ({s}, {t})")
        e = ad.concat([time_embed(s, self.time_dim), time_embed(t, self.time_dim)], axis=0)
        row = ad.broadcast_to(e, (1, 2 * self.time_dim))
        h = ad.linear(row, self.params["w1"], self.params["b1"], silu=True)
        out = ad.linear(h, self.params["w2"], self.params["b2"])
        return ad.sum_(out)

    __call__ = forward

    def trainable_params(self) -> dict[str, Tensor]:
        return dict(self.params)


class Discriminator:
    """Scalar score head on flattened states (3-layer MLP)."""

    def __init__(self, state_dim: int, hidden: int = 128,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.state_dim = state_dim
        dims = [state_dim, hidden, hidden, 1]
        self.params = {}
        for i, (fi, fo) in enumerate(zip(dims[:-1], dims[1:])):
            w, b = _linear_init(rng, fi, fo)
            self.params[f"layer{i}.W"] = Tensor(w, requires_grad=True)
            self.params[f"layer{i}.b"] = Tensor(b, requires_grad=True)

    def forward(self, z) -> Tensor:
        """Per-sample scores, shape (n, 1)."""
        z = ad.as_tensor(z)
        if z.shape[-1] != self.state_dim:
            raise ValueError(f"input dim {z.shape[-1]} != {self.state_dim}")
        h = z
        for i in range(3):
            h = ad.linear(h, self.params[f"layer{i}.W"], self.params[f"layer{i}.b"],
                          silu=i < 2)
        return h

    __call__ = forward

    def trainable_params(self) -> dict[str, Tensor]:
        return dict(self.params)
