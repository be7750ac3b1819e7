"""Phase-structured training, few-step inference, metrics and persistence.

The trainer runs four phases in order (flow-matching warm start, combined
FM-SD, guidance, adversarial fine-tuning on adapters only); any phase may be
zero-length.  A single seeded rng drives every draw, so runs are bitwise
reproducible.
"""

from __future__ import annotations

import io as _io
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import TEXTURE_SIZES, DegradeOpts, PairBatch, texture_pairs
from .interpolant import STANDARD
from .io import load_checkpoint, save_checkpoint
from .losses import (combined_loss, disc_loss, draw_guidance, fm_loss, rpgan_losses,
                     two_step_prediction)
from .nets import (COND_NULL, COND_POSITIVE, Discriminator, FlowMapModel, WeightNet,
                   check_sizes)
from .oracle import GaussianTask
from .schedule import GridConfig, SETTINGS, SSD, fm_pair, sample_pair

METRICS_HEADER = ["step", "phase", "loss_main", "loss_perc", "loss_weighted",
                  "lambda_mean", "g_loss", "d_loss"]


# -- configuration --------------------------------------------------------


@dataclass(frozen=True)
class PhasePlan:
    """The step schedule and the values a run may set; the rest of the
    recipe is fixed (``LR_WEIGHTNET`` ... ``GRID``).  A plan that ``train``
    cannot run is refused when it is made, naming the field."""

    fm_steps: int = 2000
    fmsd_steps: int = 2000
    cfg_steps: int = 1000
    adv_steps: int = 1000
    d_pretrain_steps: int = 100
    lr_model: float = 1e-3
    batch_size: int = 256
    lora_rank: int = 4
    drop_prob: float = 0.10
    setting: str = SSD
    hidden: int = 256
    depth: int = 4
    time_dim: int = 32
    cond_dim: int = 16

    def __post_init__(self):
        for name in ("fm_steps", "fmsd_steps", "cfg_steps", "d_pretrain_steps", "adv_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.adv_steps > 0 and self.lora_rank < 1:
            raise ValueError(f"lora_rank must be >= 1 when adv_steps > 0, got {self.lora_rank}")
        if self.setting not in SETTINGS:
            raise ValueError(f"setting must be one of {', '.join(SETTINGS)}, "
                             f"got {self.setting!r}")
        if not (math.isfinite(self.lr_model) and self.lr_model > 0.0):
            raise ValueError(f"lr_model must be finite and > 0, got {self.lr_model}")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError(f"drop_prob must lie in [0, 1], got {self.drop_prob}")
        check_sizes(hidden=self.hidden, depth=self.depth, time_dim=self.time_dim,
                    cond_dim=self.cond_dim)


@dataclass(frozen=True)
class SamplerConfig:
    steps: int = 2
    cond: int = COND_POSITIVE
    lora_scale: float = 1.5
    d_max: int = 7

    def __post_init__(self):
        k = self.steps
        if k < 1 or (k & (k - 1)) != 0 or k > (1 << self.d_max):
            raise ValueError(f"steps must be a power of two <= {1 << self.d_max}")
        if not math.isfinite(self.lora_scale):
            raise ValueError(f"lora_scale must be finite, got {self.lora_scale}")


# -- optimizer ------------------------------------------------------------


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# the fixed recipe: weighting-head and discriminator lrs, the cosine decay's
# floor (a fraction of each base lr), the largest guidance scale, the weight
# of the combined objective in the adversarial generator loss, and the grid
LR_WEIGHTNET, LR_DISC, LR_FLOOR = 1e-4, 2.5e-3, 0.05
W_MAX = 3.5
LAMBDA_ADV = 0.1
GRID = GridConfig()


class AdamW:
    """Adam with ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``: AdamW at
    zero weight decay."""

    def __init__(self, params: dict, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros(p.shape) for k, p in params.items()}
        self.v = {k: np.zeros(p.shape) for k, p in params.items()}

    def step(self, grads: dict):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for name, p in self.params.items():
            g = grads[name]
            self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p.data = p.data - self.lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS))


# -- tasks ----------------------------------------------------------------


# the gaussian2d endpoints, which the oracle checks also use
GAUSSIAN_2D = GaussianTask(mu0=np.array([1.0, -1.0]), mu1=np.array([-1.0, 1.0]),
                           sigma0=0.6, sigma1=1.2)
GAUSSIAN_2D.mu0.setflags(write=False)
GAUSSIAN_2D.mu1.setflags(write=False)
# std of the noised copy of x0 that stands in for gaussian2d's degraded
# negative target
NEG_NOISE = 0.3


class Gaussian2DTask:
    """The ``GAUSSIAN_2D`` endpoints, drawn independently; the
    analytic-oracle training task."""

    name = "gaussian2d"
    image_hw = None
    mu0, mu1 = GAUSSIAN_2D.mu0, GAUSSIAN_2D.mu1
    sigma0, sigma1 = GAUSSIAN_2D.sigma0, GAUSSIAN_2D.sigma1
    state_dim = GAUSSIAN_2D.mu0.size

    def sample(self, n: int, rng: np.random.Generator,
               with_negative: bool = False) -> PairBatch:
        x0 = self.mu0 + self.sigma0 * rng.standard_normal((n, self.state_dim))
        batch = PairBatch(x0=x0, x1=self.source_samples(n, rng))
        if with_negative:
            batch.x0_neg = x0 + NEG_NOISE * rng.standard_normal(x0.shape)
        return batch

    def source_samples(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.mu1 + self.sigma1 * rng.standard_normal((n, self.state_dim))


class TextureSRTask:
    """Procedural texture super-resolution coupling on flattened images."""

    name = "texture_sr"

    def __init__(self, size: int = 16, opts: DegradeOpts | None = None):
        if size not in TEXTURE_SIZES:
            raise ValueError(f"texture_sr size must be one of {TEXTURE_SIZES}, got {size!r}")
        self.size = size
        self.opts = opts if opts is not None else DegradeOpts()
        self.state_dim = size * size
        self.image_hw = (size, size)

    def sample(self, n, rng, with_negative=False, s_down=None) -> PairBatch:
        return texture_pairs(n, self.size, self.opts, rng, s_down=s_down,
                             with_negative=with_negative)

    def source_samples(self, n, rng):
        return self.sample(n, rng).x1


def make_task(name: str, size: int | None = None):
    """The task called ``name``.  ``size`` is texture_sr's image side
    (default 16); any other task refuses it."""
    if name == "texture_sr":
        return TextureSRTask(16 if size is None else size)
    if name != "gaussian2d":
        raise ValueError(f"unknown task {name!r}: the tasks are gaussian2d and texture_sr")
    if size is not None:
        raise ValueError(f"size is a texture_sr key; task {name!r} takes none")
    return Gaussian2DTask()


# -- metrics --------------------------------------------------------------


PSNR_CAP = 99.0
PSNR_PEAK = 2.0  # the width of the [-1, 1] pixel range


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; zero-MSE pairs report the 99 cap."""
    mse = float(np.mean((np.asarray(a) - np.asarray(b)) ** 2))
    if mse == 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, 10.0 * math.log10(PSNR_PEAK * PSNR_PEAK / mse))


def gaussian_w2(samples: np.ndarray, mu: np.ndarray, sigma: float) -> float:
    """Exact 2-Wasserstein distance between the moment-fitted Gaussian of
    ``samples`` (shape (n, d), n >= 2) and an isotropic reference N(mu, sigma^2 I).

    Against an isotropic reference the Gaussian W2 (Dowson & Landau 1982)
    needs no matrix square root: W2^2 = |m_hat - mu|^2 + sum_i (sqrt(l_i) - sigma)^2,
    with l_i the eigenvalues of the sample covariance."""
    samples = np.asarray(samples, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError(f"samples must have shape (n, d) with n >= 2, got {samples.shape}")
    if mu.shape != samples.shape[1:]:
        raise ValueError(f"mu must have shape {samples.shape[1:]} to match the samples, "
                         f"got {mu.shape}")
    if not (np.all(np.isfinite(samples)) and np.all(np.isfinite(mu))):
        raise ValueError("samples and mu must be finite")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    lam = np.linalg.eigvalsh(np.atleast_2d(np.cov(samples, rowvar=False)))
    return math.sqrt(float(np.sum((samples.mean(axis=0) - mu) ** 2)
                           + np.sum((np.sqrt(np.maximum(lam, 0.0)) - sigma) ** 2)))


# -- inference ------------------------------------------------------------


def sample(model: FlowMapModel, x1: np.ndarray, cfg: SamplerConfig) -> list:
    """Few-step generation on the uniform dyadic grid; returns the iterates
    x_K .. x_0 (clean endpoint last).  One model evaluation per step."""
    k_steps = cfg.steps
    # the one copy: the caller's x1 is never aliased, and each step makes
    # a fresh iterate that nothing writes to afterwards
    x = np.array(x1, dtype=np.float64)
    trajectory = [x]
    delta = 1.0 / k_steps
    with ad.no_grad():
        for k in range(k_steps - 1, -1, -1):
            t_lo, t_hi = k * delta, (k + 1) * delta
            u = model(x, t_lo, t_hi, cfg.cond, lora_scale=cfg.lora_scale)
            x = x - delta * u.data
            trajectory.append(x)
    return trajectory


# -- training -------------------------------------------------------------


class TrainAbort(RuntimeError):
    """Raised when a loss goes non-finite; carries a diagnostic record."""

    def __init__(self, step: int, phase: str, value: float):
        self.record = {"step": step, "phase": phase, "value": value}
        super().__init__(f"non-finite loss at step {step} (phase {phase}): {value}")


def _fmt(x) -> str:
    return "" if x is None else f"{x:.10e}"


@dataclass
class TrainResult:
    model: FlowMapModel
    weightnet: WeightNet
    disc: Discriminator | None
    metrics_rows: list
    plan: PhasePlan

    def metrics_csv(self) -> str:
        buf = _io.StringIO()
        buf.write(",".join(METRICS_HEADER) + "\n")
        for row in self.metrics_rows:
            buf.write(",".join(row) + "\n")
        return buf.getvalue()


def train(plan: PhasePlan, task, seed: int = 0) -> TrainResult:
    """Run the four phases and return the trained components plus metrics.

    ``plan`` checked itself when it was made, so nothing here refuses it.

    Each step is one call that returns its metrics row, so every Tensor it
    builds (loss, breakdown, fake and their tapes) dies when it returns;
    an adversarial step also drops the generator's tape right after the
    generator update.  The trunk and weighting-head optimizers, with their
    moments, are dropped when phase 4 starts, since neither steps again;
    both are frozen through phase 4, so no backward computes or keeps
    their gradients there.
    """
    rng = np.random.default_rng(seed)
    model = FlowMapModel(task.state_dim, hidden=plan.hidden, depth=plan.depth,
                         time_dim=plan.time_dim, cond_dim=plan.cond_dim,
                         rng=np.random.default_rng(seed + 1))
    weightnet = WeightNet(time_dim=plan.time_dim, rng=np.random.default_rng(seed + 2))
    rows: list = []
    step = 0

    opt_model = AdamW(model.trainable_params(), plan.lr_model)
    opt_wn = AdamW(weightnet.trainable_params(), LR_WEIGHTNET)

    total_main = max(1, plan.fm_steps + plan.fmsd_steps + plan.cfg_steps)

    def decay(i: int) -> float:
        frac = min(i, total_main) / total_main
        return LR_FLOOR + (1.0 - LR_FLOOR) * 0.5 * (1.0 + math.cos(math.pi * frac))

    def update(loss: Tensor, phase: str, *opts: AdamW):
        """Abort on a non-finite loss, else one gradient over every
        optimizer's parameters and one step of each."""
        if not math.isfinite(loss.item()):
            raise TrainAbort(step, phase, loss.item())
        grads = ad.grad(loss, {(i, k): p for i, opt in enumerate(opts)
                               for k, p in opt.params.items()})
        for i, opt in enumerate(opts):
            opt.step({k: grads[i, k] for k in opt.params})

    # the low-pass surrogate is an image-domain regularizer; skip it for
    # vector tasks where a 2x pool has no spatial meaning
    use_perc = task.image_hw is not None

    def fm_step() -> list:
        """Phase 1: flow matching on a diagonal pair at the finest grid."""
        batch = task.sample(plan.batch_size, rng)
        pair = fm_pair(GRID, rng)
        loss = fm_loss(model, batch.x0, batch.x1, pair.t_value, COND_NULL)
        opt_model.lr = plan.lr_model * decay(step)
        update(loss, "fm", opt_model)
        return [str(step), "fm", _fmt(loss.item()), "", _fmt(loss.item()), "", "", ""]

    def main_step(phase: str) -> list:
        """Phases 2 and 3: the combined objective, then with guidance."""
        use_cfg = phase == "cfg"
        batch = task.sample(plan.batch_size, rng, with_negative=use_cfg)
        pair = sample_pair(plan.setting, GRID, rng)
        ctx = draw_guidance(rng, W_MAX, COND_POSITIVE, plan.drop_prob) \
            if use_cfg else None
        breakdown = combined_loss(model, weightnet, batch.x0, batch.x1, pair,
                                  plan.setting, ctx=ctx,
                                  x0_neg=batch.x0_neg, image_hw=task.image_hw,
                                  use_perceptual=use_perc)
        total = breakdown.weighted_total
        opt_model.lr = plan.lr_model * decay(step)
        opt_wn.lr = LR_WEIGHTNET * decay(step)
        update(total, phase, opt_model, opt_wn)
        return [str(step), phase, _fmt(breakdown.main.item()),
                _fmt(breakdown.perceptual.item()), _fmt(total.item()),
                _fmt(breakdown.lam), "", ""]

    def adv_step(pretrain: bool) -> list:
        """Phase 4: the discriminator alone while ``pretrain``, else the
        adapters and then the discriminator."""
        batch = task.sample(plan.batch_size, rng, with_negative=True)
        ctx = draw_guidance(rng, W_MAX, COND_POSITIVE, plan.drop_prob)
        g_cell = ""
        if pretrain:
            # the discriminator alone learns: no generator tape, no g_loss
            with ad.no_grad():
                fake = two_step_prediction(model, batch.x1, ctx.cond)
            d_loss = disc_loss(disc, disc(Tensor(batch.x0)), fake)
        else:
            pair = sample_pair(plan.setting, GRID, rng)
            objective = combined_loss(
                model, weightnet, batch.x0, batch.x1, pair, plan.setting, ctx=ctx,
                x0_neg=batch.x0_neg, image_hw=task.image_hw,
                use_perceptual=use_perc).weighted_total
            g_loss, d_loss = rpgan_losses(model, disc, batch.x0, batch.x1, ctx,
                                          LAMBDA_ADV, objective)
            update(g_loss, "adv", opt_lora)
            g_cell = _fmt(g_loss.item())
            del g_loss, objective  # frees the generator tape: d_loss does not reach it
        update(d_loss, "adv", opt_disc)
        return [str(step), "adv", "", "", "", "", g_cell, _fmt(d_loss.item())]

    for _ in range(plan.fm_steps):
        rows.append(fm_step())
        step += 1
    for phase, n_steps in (("fmsd", plan.fmsd_steps), ("cfg", plan.cfg_steps)):
        for _ in range(n_steps):
            rows.append(main_step(phase))
            step += 1
    # neither main-phase optimizer steps again
    del opt_model, opt_wn

    # phase 4: adversarial fine-tuning of adapters and discriminator only,
    # after d_pretrain_steps that train the discriminator alone
    disc = None
    if plan.adv_steps > 0:
        disc = Discriminator(task.state_dim, rng=np.random.default_rng(seed + 3))
        model.attach_lora(plan.lora_rank, np.random.default_rng(seed + 4))
        model.set_trunk_trainable(False)
        for p in weightnet.params.values():  # the weighting head is fixed too
            p.requires_grad = False
        opt_lora = AdamW(model.lora_params(), plan.lr_model)
        opt_disc = AdamW(disc.trainable_params(), LR_DISC)
        for i in range(plan.d_pretrain_steps + plan.adv_steps):
            rows.append(adv_step(i < plan.d_pretrain_steps))
            step += 1
        model.set_trunk_trainable(True)
        for p in weightnet.params.values():
            p.requires_grad = True

    return TrainResult(model=model, weightnet=weightnet, disc=disc,
                       metrics_rows=rows, plan=plan)


# -- evaluation -----------------------------------------------------------


def evaluate_gaussian(model: FlowMapModel, task: Gaussian2DTask, n: int,
                      cfg: SamplerConfig, seed: int = 0) -> dict:
    """2-Wasserstein between flow-map samples and the target Gaussian."""
    rng = np.random.default_rng(seed)
    x1 = task.source_samples(n, rng)
    x0_hat = sample(model, x1, cfg)[-1]
    return {"w2": gaussian_w2(x0_hat, task.mu0, task.sigma0), "n": n,
            "steps": cfg.steps}


def evaluate_sr(model: FlowMapModel, task: TextureSRTask, n: int,
                cfg: SamplerConfig, seed: int = 0, s_down: float = 0.25) -> dict:
    """Mean PSNR of the model against the bilinear-upsampled observation.

    The evaluation pipeline fixes both resizes to bilinear, so the degraded
    source is exactly the no-model baseline: the low-res observation brought
    back up with bilinear interpolation."""
    rng = np.random.default_rng(seed)
    eval_task = TextureSRTask(task.size, DegradeOpts(interp_modes=("bilinear",)))
    batch = eval_task.sample(n, rng, s_down=s_down)
    x0_hat = sample(model, batch.x1, cfg)[-1]
    h, w = task.image_hw
    model_psnrs, baseline_psnrs = [], []
    for i in range(n):
        hr = batch.x0[i].reshape(h, w)
        model_psnrs.append(psnr(x0_hat[i].reshape(h, w), hr))
        baseline_psnrs.append(psnr(batch.x1[i].reshape(h, w), hr))
    return {"psnr_model": float(np.mean(model_psnrs)),
            "psnr_baseline": float(np.mean(baseline_psnrs)),
            "n": n, "steps": cfg.steps, "s_down": s_down}


# -- persistence ----------------------------------------------------------


def checkpoint_tensors(result: TrainResult) -> dict:
    tensors = {}
    for k, v in result.model.params.items():
        tensors[f"model.{k}"] = v.data
    for k, v in result.model.lora_params().items():
        tensors[f"model.{k}"] = v.data
    for k, v in result.weightnet.params.items():
        tensors[f"weightnet.{k}"] = v.data
    if result.disc is not None:
        for k, v in result.disc.params.items():
            tensors[f"disc.{k}"] = v.data
    return tensors


def save_result(path, result: TrainResult, task_name: str) -> None:
    meta = {
        "task": task_name,
        "schedule": STANDARD,
        "phase": "done",
        "setting": result.plan.setting,
        "state_dim": result.model.state_dim,
        "hidden": result.model.hidden,
        "depth": result.model.depth,
        "time_dim": result.model.time_dim,
        "cond_dim": result.model.cond_dim,
        "lora_rank": 0 if result.model.lora is None else result.plan.lora_rank,
        "d_max": GRID.d_max,
    }
    save_checkpoint(path, checkpoint_tensors(result), meta)


def load_model(path) -> tuple[FlowMapModel, dict]:
    """Rebuild the model from a checkpoint's metadata and load its tensors;
    the metadata comes back with its integer keys as ints.

    A missing ``task``, a missing or non-integer size, ``lora_rank`` or
    ``d_max``, a missing or unexpected ``model.*`` tensor, or a tensor
    whose shape differs from the rebuilt model's parameter is refused with
    a ``ValueError`` naming the file.
    """
    tensors, meta = load_checkpoint(path)
    dims = {}
    for key in ("task", "state_dim", "hidden", "depth", "time_dim", "cond_dim", "lora_rank",
                "d_max"):
        if key not in meta:
            raise ValueError(f"{path}: checkpoint metadata has no {key!r}")
        try:
            dims[key] = meta[key] if key == "task" else int(meta[key])
        except ValueError:
            raise ValueError(f"{path}: checkpoint metadata {key}={meta[key]!r} "
                             "is not an integer") from None
    model = FlowMapModel(dims["state_dim"], hidden=dims["hidden"], depth=dims["depth"],
                         time_dim=dims["time_dim"], cond_dim=dims["cond_dim"])
    if dims["lora_rank"] > 0:
        model.attach_lora(dims["lora_rank"], np.random.default_rng(0))
    params = {f"model.{k}": v for k, v in {**model.params, **model.lora_params()}.items()}
    extra = sorted(k for k in tensors if k.startswith("model.") and k not in params)
    if extra:
        raise ValueError(f"{path}: unexpected checkpoint tensor {extra[0]!r} for a model "
                         "built from its metadata")
    for name, p in params.items():
        if name not in tensors:
            raise ValueError(f"{path}: checkpoint has no tensor {name!r}")
        if tensors[name].shape != p.data.shape:
            raise ValueError(f"{path}: checkpoint tensor {name!r} has shape "
                             f"{tensors[name].shape}, the model built from its metadata "
                             f"needs {p.data.shape}")
        p.data = tensors[name]
    return model, {**meta, **dims}
