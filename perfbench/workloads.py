"""The four workloads.  Each drives flowmaplab only through public names.

A workload has ``setup()`` (repeated to time set-up), ``run_round(i)``
(one whole round of operations, inputs derived from the run seed and the
round number) and ``check()`` (correctness of what the rounds produced).
An operation is a training step, a restore request or an oracle probe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from flowmaplab import autodiff as ad
from flowmaplab import io as fio
from flowmaplab import losses, oracle
from flowmaplab import runtime as rt
from flowmaplab.nets import COND_NEGATIVE, COND_NULL, COND_POSITIVE, FlowMapModel, WeightNet
from flowmaplab.schedule import GridTime, TimestepPair

# short four-phase plans; one ``train`` call per setting makes a round
GAUSS_STEPS = dict(fm_steps=2, fmsd_steps=2, cfg_steps=2, d_pretrain_steps=1, adv_steps=2)
SR_STEPS = dict(fm_steps=1, fmsd_steps=1, cfg_steps=1, d_pretrain_steps=1, adv_steps=1)

RESTORE_BATCHES = (1, 4, 16, 64, 256)
RESTORE_STEPS = (1, 2, 4)
RESTORE_SCALES = (4, 8)          # x4 and x8: s_down = 1/4 and 1/8
RESTORE_LORA_SCALE = 1.5

ORACLE_TASK = dict(mu0=(1.0, -1.0), mu1=(-1.0, 1.0), sigma0=0.6, sigma1=1.2)
ORACLE_SEEDED_PER_SETTING = 3
# Probes that touch s = 0 or t = 1, fixed so the share of failed probes is
# the same in every run.  The lsd/esd ones trip the central-difference
# stencil of ``check_identity`` leaving [0, 1] and count as failed.
_X_END = (0.5, -0.25)
ORACLE_END_PROBES = (("lsd", 0.0, 0.5, True), ("lsd", 0.0, 1.0, True),
                     ("esd", 0.5, 1.0, True), ("esd", 0.0, 1.0, True),
                     ("ssd", 0.0, 1.0, False), ("semigroup", 0.0, 1.0, False))


def derive_seed(*parts) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0] >> 1)


@dataclass
class Round:
    op_ms: list                 # latency of each operation
    op_s: float                 # wall time spent inside the operations
    items: int                  # images, training examples or probes processed
    attempted: int
    failed: int = 0


class StampedGaussTask(rt.Gaussian2DTask):
    """Gaussian2DTask that notes the time of each ``sample`` call: ``train``
    draws one batch per step, so the notes are the step boundaries."""

    def __init__(self):
        super().__init__()
        self.stamps: list[float] = []

    def sample(self, n, rng, with_negative=False):
        self.stamps.append(time.perf_counter())
        return rt.Gaussian2DTask.sample(self, n, rng, with_negative=with_negative)


class CheckedSRTask(rt.TextureSRTask):
    """TextureSRTask (size 16) that notes step boundaries like
    StampedGaussTask and records the range of every batch it hands out."""

    def __init__(self):
        super().__init__(16)
        self.stamps: list[float] = []
        self.lo, self.hi = np.inf, -np.inf
        self.sd_lo, self.sd_hi = np.inf, -np.inf
        self.batches = self.neg_batches = 0

    def sample(self, n, rng, with_negative=False, s_down=None):
        self.stamps.append(time.perf_counter())
        b = rt.TextureSRTask.sample(self, n, rng, with_negative=with_negative, s_down=s_down)
        arrays = [b.x0, b.x1] + ([b.x0_neg] if b.x0_neg is not None else [])
        self.lo = min(self.lo, *(float(a.min()) for a in arrays))
        self.hi = max(self.hi, *(float(a.max()) for a in arrays))
        self.sd_lo = min(self.sd_lo, float(b.s_down.min()))
        self.sd_hi = max(self.sd_hi, float(b.s_down.max()))
        self.batches += 1
        self.neg_batches += b.x0_neg is not None
        return b


class TrainWorkload:
    """Short four-phase ``train`` calls; one call per setting is a round."""

    op_kind = "step"

    def __init__(self, seed: int, make_task, settings, steps: dict):
        self.seed, self.make_task, self.settings, self.steps = seed, make_task, settings, steps
        self.phases = checks.expected_phases(steps)
        self.errors: list[str] = []
        self.last: dict = {}
        self.checkpoint_mb = 0.0

    def setup(self):
        self.task = self.make_task()
        self.plans = [rt.PhasePlan(setting=s, **self.steps) for s in self.settings]
        # one step so that lazy allocations and BLAS start-up are not timed
        warm = rt.PhasePlan(fm_steps=1, fmsd_steps=0, cfg_steps=0, adv_steps=0,
                            d_pretrain_steps=0)
        rt.train(warm, self.make_task(), seed=self.seed)

    def run_round(self, i: int) -> Round:
        walls, step_ms = [], []
        for plan in self.plans:
            seed = derive_seed(self.seed, i, len(walls))
            self.task.stamps.clear()
            t0 = time.perf_counter()
            res = rt.train(plan, self.task, seed=seed)
            t1 = time.perf_counter()
            walls.append(t1 - t0)
            bounds = self.task.stamps + [t1]
            step_ms += [1e3 * (b - a) for a, b in zip(bounds[:-1], bounds[1:])]
            self.errors += checks.check_rows(res.metrics_rows, self.phases)
            self.last[plan.setting] = res
        if len(step_ms) != len(self.phases) * len(self.plans):
            self.errors.append(f"round {i}: {len(step_ms)} batches drawn for "
                               f"{len(self.phases) * len(self.plans)} steps")
        batch = self.plans[0].batch_size
        return Round(op_ms=step_ms, op_s=sum(walls), items=len(step_ms) * batch,
                     attempted=len(self.phases) * len(self.plans))

    def check_targets(self, setting: str, model, batch, s: float, t: float) -> dict:
        """The program's targets and evaluation counts at one interval."""
        ctx = losses.GuidanceContext(w=2.0, w_max=3.5, cond=COND_POSITIVE)
        out = {}
        e0 = model.eval_count
        out["plain"] = losses.sd_target(setting, model, batch.x0, batch.x1, s, t,
                                        cond=COND_NULL).data
        e1 = model.eval_count
        out["cfg"] = losses.cfg_sd_target(setting, model, batch.x0, batch.x1, s, t,
                                          rt.STANDARD, ctx).data
        e2 = model.eval_count
        out["extra_evals"] = (e2 - e1) - (e1 - e0)
        out["w"] = ctx.w
        return out


class GaussJVPWorkload(TrainWorkload):
    name = "train-gauss2d-jvp"

    def __init__(self, seed: int):
        super().__init__(seed, StampedGaussTask, ("lsd", "esd"), GAUSS_STEPS)

    def check(self) -> list[str]:
        errs = list(self.errors)
        rng = np.random.default_rng(derive_seed(self.seed, 1 << 20))
        for setting in self.settings:
            res = self.last[setting]
            model = res.model
            batch = self.task.sample(64, rng)
            s = float(rng.uniform(0.1, 0.4))
            t = float(rng.uniform(s + 0.2, 0.9))
            got = self.check_targets(setting, model, batch, s, t)
            errs += checks.check_close(
                f"{setting} sd_target", got["plain"],
                checks.ref_sd_target(setting, model, batch.x0, batch.x1, s, t, COND_NULL),
                checks.TARGET_FD_RTOL)
            errs += checks.check_close(
                f"{setting} cfg_sd_target", got["cfg"],
                checks.ref_cfg_sd_target(setting, model, batch.x0, batch.x1, s, t, got["w"],
                                         COND_POSITIVE, COND_NEGATIVE),
                checks.TARGET_FD_RTOL)
            errs += checks.check_extra_evals(setting, got["extra_evals"])
            errs += self.check_gradients(setting, res, batch, rng)
        return errs

    def check_gradients(self, setting, res, batch, rng) -> list[str]:
        """Reverse-mode gradients of a freshly built loss at an FM pair (its
        target does not depend on the parameters) vs central differences."""
        gt = GridTime(int(rng.integers(1, 128)), 7)
        pair = TimestepPair(s=gt, t=gt, is_fm=True, level=7)
        model, wn = res.model, res.weightnet

        def build():
            return losses.combined_loss(model, wn, batch.x0, batch.x1, pair, setting,
                                        use_perceptual=False).weighted_total

        params = dict(model.trainable_params())
        params.update({f"wn.{k}": v for k, v in wn.trainable_params().items()})
        grads = ad.grad(build(), params)

        def value():
            with ad.no_grad():
                return build().item()

        got, ref = [], []
        for name in ("layer0.W", "layer2.W", "layer4.W", "layer4.b", "cond.table", "wn.w1"):
            g = grads[name]
            for idx in (np.unravel_index(int(np.argmax(np.abs(g))), g.shape),
                        tuple(int(rng.integers(0, n)) for n in g.shape)):
                got.append(float(g[idx]))
                ref.append(checks.fd_grad_entry(value, params[name], idx))
        return checks.check_grad_entries(setting, got, ref)


class SRShortcutWorkload(TrainWorkload):
    name = "train-sr-shortcut"

    def __init__(self, seed: int):
        super().__init__(seed, CheckedSRTask, ("ssd",), SR_STEPS)
        self.calls = 0

    def run_round(self, i: int) -> Round:
        self.calls += len(self.plans)
        return super().run_round(i)

    def check(self) -> list[str]:
        errs = list(self.errors)
        per_call = len(self.phases)
        neg_per_call = per_call - self.steps["fm_steps"] - self.steps["fmsd_steps"]
        task = self.task
        errs += checks.check_batch_ranges(task.lo, task.hi, task.sd_lo, task.sd_hi,
                                          task.batches, task.neg_batches,
                                          per_call * self.calls, neg_per_call * self.calls)
        rng = np.random.default_rng(derive_seed(self.seed, 1 << 20))
        model = self.last["ssd"].model
        batch = rt.TextureSRTask(16).sample(32, rng)
        d = int(rng.integers(0, 7))
        k = int(rng.integers(1, (1 << d) + 1))
        s, t = (k - 1) / (1 << d), k / (1 << d)
        got = self.check_targets("ssd", model, batch, s, t)
        errs += checks.check_close("ssd sd_target", got["plain"],
                                   checks.ref_ssd_target(model, batch.x0, batch.x1, s, t, COND_NULL),
                                   checks.SSD_RTOL)
        errs += checks.check_close("ssd cfg_sd_target", got["cfg"],
                                   checks.ref_ssd_target(model, batch.x0, batch.x1, s, t,
                                                         COND_POSITIVE),
                                   checks.SSD_RTOL)
        errs += checks.check_extra_evals("ssd", got["extra_evals"])
        return errs


class RestoreWorkload:
    """Closed loop, one client: few-step ``sample`` requests on degraded
    textures from a checkpoint with adapters."""

    name = "sr-restore"
    op_kind = "request"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.path = out_dir / "restore.ckpt"
        self.checkpoint_mb = 0.0
        self.kept: dict = {}
        self.errors: list[str] = []

    def setup(self):
        rng = np.random.default_rng(self.seed)
        # Seeded weights stand in for a trained model: a request costs the same
        # whatever the values, and a few minutes of training would dominate
        # set-up.  The output layer and the adapters are made non-zero so that
        # every layer and every adapter changes the result.
        model = FlowMapModel(256, rng=rng)
        W = model.params["layer4.W"]
        W.data = rng.normal(0.0, 0.05, size=W.shape)
        model.attach_lora(4, rng)
        for a in model.lora.values():
            a.A.data = rng.normal(0.0, 0.05, size=a.A.shape)
        result = rt.TrainResult(model=model, weightnet=WeightNet(rng=rng), disc=None,
                                metrics_rows=[], plan=rt.PhasePlan(lora_rank=4))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        rt.save_result(self.path, result, "texture_sr")
        self.model, _ = rt.load_model(self.path)
        self.saved = rt.checkpoint_tensors(result)
        self.checkpoint_mb = self.path.stat().st_size / 1e6

        task = rt.TextureSRTask(16)
        self.pool = {sc: task.sample(max(RESTORE_BATCHES), rng, s_down=1.0 / sc).x1
                     for sc in RESTORE_SCALES}
        self.requests = [(sc, b, k) for sc in RESTORE_SCALES for b in RESTORE_BATCHES
                         for k in RESTORE_STEPS]

    def run_round(self, i: int) -> Round:
        order = np.random.default_rng(derive_seed(self.seed, i)).permutation(len(self.requests))
        keep = i == 0
        model, lat, images, op_s = self.model, [], 0, 0.0
        for j in order:
            sc, b, k = self.requests[j]
            x1 = self.pool[sc][:b]
            cfg = rt.SamplerConfig(steps=k, cond=COND_POSITIVE, lora_scale=RESTORE_LORA_SCALE)
            e0 = model.eval_count
            t0 = time.perf_counter()
            out = rt.sample(model, x1, cfg)[-1]
            dt = time.perf_counter() - t0
            evals = model.eval_count - e0
            if evals != k:
                self.errors.append(f"restore x{sc} b{b} K{k}: {evals} evaluations")
            lat.append(1e3 * dt)
            op_s += dt
            images += b
            self.kept[(keep, int(j))] = out
        return Round(op_ms=lat, op_s=op_s, items=images, attempted=len(order))

    def check(self) -> list[str]:
        errs = list(self.errors)
        loaded = {f"model.{k}": v.data for k, v in self.model.params.items()}
        loaded.update({f"model.{k}": v.data for k, v in self.model.lora_params().items()})
        errs += checks.check_roundtrip({k: v for k, v in self.saved.items()
                                        if k.startswith("model.")}, loaded)
        tensors, meta = fio.load_checkpoint(self.path)
        # outputs of the first round and of the last one
        for (first, j), out in sorted(self.kept.items()):
            sc, b, k = self.requests[j]
            ref = checks.ref_sample(tensors, meta, self.pool[sc][:b], k, COND_POSITIVE,
                                    RESTORE_LORA_SCALE)
            errs += checks.check_request(f"x{sc} b{b} K{k}", out, ref, k, k)
        return errs


class OracleWorkload:
    """``check_identity`` on single probes of the asymmetric Gaussian task."""

    name = "oracle-identities"
    op_kind = "probe"

    def __init__(self, seed: int):
        self.seed = seed
        self.errors: list[str] = []
        self.checkpoint_mb = 0.0

    def setup(self):
        self.task = oracle.GaussianTask(mu0=np.array(ORACLE_TASK["mu0"]),
                                        mu1=np.array(ORACLE_TASK["mu1"]),
                                        sigma0=ORACLE_TASK["sigma0"],
                                        sigma1=ORACLE_TASK["sigma1"])
        self.first_probes = self.probes(0)

    def probes(self, i: int) -> list:
        """Seeded interior probes (s >= 0.01, t <= 0.99, t - s >= 0.05),
        then the fixed end-interval probes."""
        rng = np.random.default_rng(derive_seed(self.seed, i))
        out = []
        for setting in ("lsd", "esd", "ssd", "semigroup"):
            for _ in range(ORACLE_SEEDED_PER_SETTING):
                x = rng.normal(0.0, 1.5, size=2)
                s = float(rng.uniform(0.01, 0.85))
                t = float(rng.uniform(s + 0.05, 0.99))
                out.append((setting, x, s, t, False))
        out += [(st, np.array(_X_END), s, t, f) for st, s, t, f in ORACLE_END_PROBES]
        return out

    def run_round(self, i: int) -> Round:
        lat, failed, op_s = [], 0, 0.0
        probes = self.first_probes if i == 0 else self.probes(i)
        for setting, x, s, t, may_fail in probes:
            residual = error = None
            t0 = time.perf_counter()
            try:
                residual = oracle.check_identity(setting, self.task, [(x, s, t)]).residuals[0]
            except ValueError as e:
                error = str(e)
            dt = time.perf_counter() - t0
            failed += error is not None
            lat.append(1e3 * dt)
            op_s += dt
            self.errors += checks.check_probe(f"{setting} s={s:.4f} t={t:.4f}", setting,
                                              residual, error, may_fail)
        return Round(op_ms=lat, op_s=op_s, items=len(probes), attempted=len(probes),
                     failed=failed)

    def check(self) -> list[str]:
        errs = list(self.errors)
        v = lambda x, r: oracle.gaussian_velocity(self.task, x, r)
        for setting, x, s, t, _ in self.first_probes:
            u = oracle.average_velocity_oracle(v, x, s, t)
            errs += checks.check_closed_form(f"{setting} s={s:.4f} t={t:.4f}", u,
                                             checks.closed_form_u(self.task, x, s, t))
        return errs


def make(name: str, seed: int, out_dir: Path):
    if name == GaussJVPWorkload.name:
        return GaussJVPWorkload(seed)
    if name == SRShortcutWorkload.name:
        return SRShortcutWorkload(seed)
    if name == RestoreWorkload.name:
        return RestoreWorkload(seed, out_dir)
    if name == OracleWorkload.name:
        return OracleWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (GaussJVPWorkload.name, SRShortcutWorkload.name, RestoreWorkload.name,
         OracleWorkload.name)
