"""Span tracer that wraps flowmaplab's public callables from outside.

Each wrapped call records one span: a name id, its start and end on the
``perf_counter`` clock, the index of the enclosing span (or -1), and for
autodiff ops the bytes of the output array (and tangent), computed from the
array sizes.  Spans are appended to flat typed arrays in memory and written
to one ``.npz`` file when the run ends; nothing inside ``src/`` changes.

``layer_metrics`` turns a span table into the per-layer numbers listed in
``BENCHMARK.json``.  A layer's self time is a span's duration minus the
durations of its direct children; within one operation (a training step,
a restore request or an oracle probe) the self times of all layers, plus
the enclosing loop's own time, add up to the operation's wall time.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# the autodiff op functions that a training step or a restore request reaches
OPS = ("add", "sub", "mul", "matmul", "sum_", "mean", "square", "exp", "softplus",
       "silu", "sin", "cos", "concat", "slice_", "broadcast_to", "stop_gradient")
LAYERS = ("data", "losses", "nets", "autodiff", "runtime", "io", "oracle")
PHASES = ("fm", "fmsd", "cfg", "adv")
SETTINGS = ("lsd", "esd", "ssd", "semigroup")
TARGETS = ("sd_target", "cfg_sd_target", "cfg_fm_target")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.nid = array("l")
        self.parent = array("l")
        self.nbytes = array("d")
        self._stack = [-1]
        self._undo: list = []
        # calls counted, not spanned: name -> {index of the enclosing span: calls}
        self.counts: dict[str, dict[int, int]] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.nid.append(nid)
        self.parent.append(self._stack[-1])
        self.nbytes.append(0.0)
        self._stack.append(i)
        return i

    def wrap(self, name: str, fn, pick=None, measure_out: bool = False):
        """Span-recording stand-in for ``fn``.

        ``pick(args, kwargs)`` may return a suffix that refines the span name
        per call (forward mode, identity setting)."""
        base = self._id(name)
        suffixed: dict = {}
        clock = time.perf_counter
        stack = self._stack
        start, end, nbytes = self.start, self.end, self.nbytes

        def traced(*args, **kwargs):
            nid = base
            if pick is not None:
                suffix = pick(args, kwargs)
                nid = suffixed.get(suffix)
                if nid is None:
                    nid = suffixed[suffix] = self._id(f"{name}.{suffix}")
            i = self._open(nid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if measure_out:
                size = out.data.nbytes
                if out.tangent is not None:
                    size += out.tangent.nbytes
                nbytes[i] = size
            return out

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        """Call-counting stand-in for ``fn``, for leaves called so often
        that a span each would swamp memory; their time stays in the
        enclosing span's self time."""
        tally = self.counts.setdefault(name, {})
        stack = self._stack

        def counted(*args, **kwargs):
            top = stack[-1]
            tally[top] = tally.get(top, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def patch(self, owner, attr: str, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap the layer boundaries of the flowmaplab package."""
        from flowmaplab import autodiff as ad
        from flowmaplab import losses, nets, oracle
        from flowmaplab import runtime as rt
        from flowmaplab.autodiff import Tensor

        for cls in (rt.Gaussian2DTask, rt.TextureSRTask):
            self.patch(cls, "sample", self.wrap("data.sample", cls.__dict__["sample"]))
        for name in TARGETS:
            self.patch(losses, name, self.wrap(f"losses.target.{name}", getattr(losses, name)))
        self.patch(losses, "perceptual_reg", self.wrap("losses.perceptual", losses.perceptual_reg))
        combined = self.wrap("losses.combined_loss", losses.combined_loss)
        self.patch(losses, "combined_loss", combined)
        self.patch(rt, "combined_loss", combined)
        self.patch(rt, "rpgan_losses", self.wrap("losses.rpgan_losses", rt.rpgan_losses))
        self.patch(rt, "fm_loss", self.wrap("losses.fm_loss", rt.fm_loss))

        def forward_mode(args, kwargs):
            if ad.grad_enabled():
                return "tape"
            if any(isinstance(a, Tensor) and a.tangent is not None for a in args[1:4]):
                return "tangent"
            return "nograd"

        fwd = self.wrap("nets.forward", nets.FlowMapModel.__dict__["forward"], pick=forward_mode)
        self.patch(nets.FlowMapModel, "forward", fwd)
        self.patch(nets.FlowMapModel, "__call__", fwd)
        self.patch(nets, "lora_effective_weight", self.wrap("nets.lora", nets.lora_effective_weight))
        disc = self.wrap("nets.disc", nets.Discriminator.__dict__["forward"])
        self.patch(nets.Discriminator, "forward", disc)
        self.patch(nets.Discriminator, "__call__", disc)

        self.patch(ad, "grad", self.wrap("autodiff.grad", ad.grad))
        for op in OPS:
            self.patch(ad, op, self.wrap(f"autodiff.op.{op}", getattr(ad, op), measure_out=True))

        self.patch(rt, "train", self.wrap("runtime.train", rt.train))
        self.patch(rt.AdamW, "step", self.wrap("runtime.optimizer", rt.AdamW.__dict__["step"]))
        self.patch(rt, "sample", self.wrap("runtime.sample", rt.sample))
        self.patch(rt, "save_result", self.wrap("io.save", rt.save_result))
        self.patch(rt, "load_model", self.wrap("io.load", rt.load_model))

        self.patch(oracle, "integrate_flow", self.wrap("oracle.integrate", oracle.integrate_flow))
        # ~8,000 calls a probe: counted, not spanned
        self.patch(oracle, "gaussian_velocity", self.count("oracle.velocity", oracle.gaussian_velocity))
        self.patch(oracle, "check_identity",
                   self.wrap("oracle.probe", oracle.check_identity, pick=lambda a, k: a[0]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def table(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "nid": np.frombuffer(self.nid, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "nbytes": np.frombuffer(self.nbytes, dtype=np.float64).copy(),
            "names": np.array(self.names),
            **{f"count:{name}": np.array(sorted(tally.items()), dtype=np.int64).reshape(-1, 2)
               for name, tally in self.counts.items()},
        }

    def save(self, path):
        np.savez(path, **self.table())


def _train_steps(tb, phases_per_call: list):
    """Step intervals of every ``runtime.train`` span: each
    ``data.sample`` call directly under train opens a step, the next one (or
    the end of train) closes it."""
    names = list(tb["names"])
    if "runtime.train" not in names:
        return [], []
    train_id = names.index("runtime.train")
    sample_id = names.index("data.sample")
    trains = np.flatnonzero(tb["nid"] == train_id)
    samples = np.flatnonzero(tb["nid"] == sample_id)
    intervals, phases = [], []
    for T in trains:
        starts = tb["start"][samples[tb["parent"][samples] == T]]
        bounds = list(np.sort(starts)) + [tb["end"][T]]
        for j in range(len(bounds) - 1):
            intervals.append((bounds[j], bounds[j + 1]))
        phases.extend(phases_per_call[:len(bounds) - 1])
    return intervals, phases


def layer_metrics(tb, op_kind: str, phases_per_call=None,
                  checkpoint_mb: float = 0.0, overhead_s: float = 0.0) -> dict:
    """Per-layer metrics over every span in the table ``tb``.

    ``op_kind`` names what one operation is: ``step`` (intervals between
    ``data.sample`` calls inside ``runtime.train``), ``request`` (one
    ``runtime.sample`` span) or ``probe`` (one ``oracle.probe.*`` span).
    Per-op figures divide by the number of operations; ``*_ms`` figures
    that name a call are means per call.
    """
    names = list(tb["names"])
    start, end = tb["start"], tb["end"]
    nid, parent, nbytes = tb["nid"], tb["parent"], tb["nbytes"]
    dur = end - start
    n = len(start)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child
    layer_of = np.array([LAYERS.index(s.split(".")[0]) for s in names] or [0])
    span_layer = layer_of[nid]

    def ids(pred):
        return np.array([i for i, s in enumerate(names) if pred(s)], dtype=np.int64)

    def is_(pred):
        return np.isin(nid, ids(pred))

    # operation intervals
    phases = []
    if op_kind == "step":
        intervals, phases = _train_steps(tb, phases_per_call or [])
    else:
        prefix = "runtime.sample" if op_kind == "request" else "oracle.probe"
        sel = is_(lambda s: s.startswith(prefix))
        intervals = list(zip(start[sel], end[sel]))
    n_ops = max(len(intervals), 1)
    op_lo = np.array([a for a, _ in intervals])
    op_hi = np.array([b for _, b in intervals])
    op_wall = op_hi - op_lo

    # which op each span starts in (spans nest, so a span in an op ends in it)
    span_op = np.full(n, -1)
    if len(intervals):
        k = np.searchsorted(op_lo, start, side="right") - 1
        ok = (k >= 0) & (start < op_hi[np.maximum(k, 0)])
        span_op = np.where(ok, k, -1)
    in_op = span_op >= 0
    parent_op = np.where(has_parent, span_op[np.maximum(parent, 0)], -1)
    top = in_op & (parent_op != span_op)

    layer_self = {L: np.zeros(len(intervals)) for L in LAYERS}
    for li, L in enumerate(LAYERS):
        sel = in_op & (span_layer == li)
        np.add.at(layer_self[L], span_op[sel], self_t[sel])
    top_sum = np.zeros(len(intervals))
    np.add.at(top_sum, span_op[top], dur[top])
    loop_self = op_wall - top_sum  # time of the enclosing train loop itself
    layer_self["runtime"] = layer_self["runtime"] + loop_self
    total = sum(layer_self.values())
    sum_err = float(np.max(np.abs(total - op_wall) / op_wall)) if len(intervals) else 0.0

    def mean_dur(pred):
        sel = is_(pred)
        return 1e3 * float(dur[sel].mean()) if sel.any() else 0.0

    def per_op_count(pred):
        return float((is_(pred) & in_op).sum()) / n_ops

    def per_op_ms(sel):
        return 1e3 * float(dur[sel & in_op].sum()) / n_ops

    m: dict = {}
    m["data.sample_ms"] = mean_dur(lambda s: s == "data.sample")
    m["data.step_share"] = (float(layer_self["data"].sum() / op_wall.sum())
                            if len(intervals) else 0.0)

    target = is_(lambda s: s.startswith("losses.target."))
    in_target = target.copy()
    for _ in range(64):  # propagate "inside a target builder" down the tree
        nxt = in_target | (has_parent & in_target[np.maximum(parent, 0)])
        if (nxt == in_target).all():
            break
        in_target = nxt
    top_target = target & ~(has_parent & in_target[np.maximum(parent, 0)])
    fwd = is_(lambda s: s.startswith("nets.forward."))
    m["losses.target_ms"] = per_op_ms(top_target)
    n_targets = int((top_target & in_op).sum())
    m["losses.target_evals"] = (float((fwd & in_target & in_op).sum()) / n_targets
                                if n_targets else 0.0)
    m["losses.perceptual_ms"] = per_op_ms(is_(lambda s: s == "losses.perceptual"))

    for mode in ("tape", "tangent", "nograd"):
        m[f"nets.forward_ms.{mode}"] = mean_dur(lambda s, mode=mode: s == f"nets.forward.{mode}")
    m["nets.evals_per_step"] = per_op_count(lambda s: s.startswith("nets.forward."))
    m["nets.lora_ms"] = mean_dur(lambda s: s == "nets.lora")
    m["nets.disc_ms"] = mean_dur(lambda s: s == "nets.disc")

    m["autodiff.backward_ms"] = mean_dur(lambda s: s == "autodiff.grad")
    for op in OPS:
        sel = is_(lambda s, op=op: s == f"autodiff.op.{op}") & in_op
        m[f"autodiff.op.{op}.calls"] = float(sel.sum()) / n_ops
        m[f"autodiff.op.{op}.ms"] = 1e3 * float(dur[sel].sum()) / n_ops
        m[f"autodiff.op.{op}.out_mb"] = float(nbytes[sel].sum()) / 1e6 / n_ops

    m["runtime.optimizer_ms"] = mean_dur(lambda s: s == "runtime.optimizer")
    for ph in PHASES:
        walls = [w for w, p in zip(op_wall, phases) if p == ph]
        m[f"runtime.step_ms.{ph}"] = 1e3 * float(np.mean(walls)) if walls else 0.0
    m["runtime.loop_self_ms"] = (1e3 * float(loop_self.mean())
                                 if op_kind == "step" and len(intervals) else 0.0)
    m["runtime.sample_ms"] = mean_dur(lambda s: s == "runtime.sample")

    m["io.save_ms"] = mean_dur(lambda s: s == "io.save")
    m["io.load_ms"] = mean_dur(lambda s: s == "io.load")
    m["io.checkpoint_mb"] = checkpoint_mb

    m["oracle.integrate_ms"] = mean_dur(lambda s: s == "oracle.integrate")
    vel = tb.get("count:oracle.velocity", np.zeros((0, 2), dtype=np.int64))
    vel = vel[vel[:, 0] >= 0]
    m["oracle.velocity_calls"] = float(vel[span_op[vel[:, 0]] >= 0, 1].sum()) / n_ops
    for st in SETTINGS:
        m[f"oracle.probe_ms.{st}"] = mean_dur(lambda s, st=st: s == f"oracle.probe.{st}")

    for L in LAYERS:
        m[f"{L}.self_ms"] = 1e3 * float(layer_self[L].mean()) if len(intervals) else 0.0
    m["trace.step_sum_err"] = sum_err
    m["trace.overhead_s"] = overhead_s
    m["trace.ops"] = float(len(intervals))
    return m


PER_LAYER_UNITS = {
    "data.sample_ms": "ms/call", "data.step_share": "share",
    "losses.target_ms": "ms/op", "losses.target_evals": "count",
    "losses.perceptual_ms": "ms/op",
    "nets.forward_ms.tape": "ms/call", "nets.forward_ms.tangent": "ms/call",
    "nets.forward_ms.nograd": "ms/call", "nets.evals_per_step": "count",
    "nets.lora_ms": "ms/call", "nets.disc_ms": "ms/call",
    "autodiff.backward_ms": "ms/call",
    **{f"autodiff.op.{op}.{k}": u for op in OPS
       for k, u in (("calls", "count"), ("ms", "ms/op"), ("out_mb", "MB/op"))},
    "runtime.optimizer_ms": "ms/call",
    **{f"runtime.step_ms.{ph}": "ms/step" for ph in PHASES},
    "runtime.loop_self_ms": "ms/step", "runtime.sample_ms": "ms/call",
    "io.save_ms": "ms/call", "io.load_ms": "ms/call", "io.checkpoint_mb": "MB",
    "oracle.integrate_ms": "ms/call", "oracle.velocity_calls": "count",
    **{f"oracle.probe_ms.{st}": "ms/call" for st in SETTINGS},
    **{f"{L}.self_ms": "ms/op" for L in LAYERS},
    "trace.step_sum_err": "share", "trace.overhead_s": "s", "trace.ops": "count",
}
