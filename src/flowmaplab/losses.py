"""Training objectives: flow matching, the three self-distillation targets,
their guidance-aware variants, dynamic weighting, the perceptual
regularizer, and the relativistic adversarial pair.

Every objective lives on the one linear path I_t = (1 - t) x0 + t x1, whose
conditional velocity is x1 - x0 and whose endpoint estimate is I_t - t u.
Targets are always built outside gradient recording and stop-gradiented;
gradients flow only through the left factor of each squared error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .interpolant import STANDARD, interpolate, target_velocity
from .nets import COND_NEGATIVE, COND_NULL
from .schedule import LSD, ESD, SSD, SETTINGS, TimestepPair


@dataclass(frozen=True)
class GuidanceContext:
    """Sampled guidance state for one training step."""

    w: float
    w_max: float
    cond: int
    dropped: bool = False

    def __post_init__(self):
        if self.dropped and (self.w != 1.0 or self.cond != COND_NEGATIVE):
            raise ValueError("dropped conditions force w == 1 on the negative branch")
        if not 1.0 <= self.w <= self.w_max:
            raise ValueError(f"guidance scale {self.w} outside [1, {self.w_max}]")


# no guidance: the null condition at w = 1, i.e. the plain targets
PLAIN = GuidanceContext(w=1.0, w_max=1.0, cond=COND_NULL)


def draw_guidance(rng: np.random.Generator, w_max: float, cond_positive: int,
                  drop_prob: float = 0.10) -> GuidanceContext:
    """Drop to the negative branch with ``drop_prob`` (then w = 1),
    otherwise keep the positive condition with w ~ U(1, w_max)."""
    if rng.random() < drop_prob:
        return GuidanceContext(w=1.0, w_max=w_max, cond=COND_NEGATIVE, dropped=True)
    return GuidanceContext(w=float(rng.uniform(1.0, w_max)), w_max=w_max,
                           cond=cond_positive, dropped=False)


@dataclass
class LossBreakdown:
    main: Tensor
    perceptual: Tensor
    weighted_total: Tensor
    lam: float


def _batch_sq_error(pred: Tensor, target: Tensor) -> Tensor:
    """Mean over the batch of per-sample squared-error norms."""
    diff = ad.sub(pred, target)
    return ad.mean(ad.sum_(ad.square(diff), axis=1))


# -- flow matching --------------------------------------------------------


def fm_loss(model, x0: np.ndarray, x1: np.ndarray, t: float,
            cond: int = COND_NULL) -> Tensor:
    """||u_{t,t}(I_t | cond) - v_target||^2 averaged over the batch."""
    x_t = interpolate(x0, x1, t)
    v_t = target_velocity(x0, x1, t)
    pred = model(x_t, t, t, cond)
    return _batch_sq_error(pred, Tensor(v_t))


# -- consistency targets --------------------------------------------------


def _check_interval(setting: str, s: float, t: float):
    if setting not in SETTINGS:
        raise ValueError(f"unknown setting {setting!r}")
    if s == t:
        raise ValueError("diagonal pairs dispatch to the flow-matching loss")
    if s > t:
        raise ValueError(f"need s < t, got ({s}, {t})")


def _consistency_target(setting: str, model, x_t: np.ndarray, v: np.ndarray,
                        s: float, t: float, cond: int) -> Tensor:
    """Consistency target for u_{s,t}(I_t | cond) given the velocity ``v`` at
    (I_t, t); detached from the tape.

    lsd: v + (t-s) d_s u_{s,t}(I_t)
    esd: v - (t-s)(grad u . v + d_t u)
    ssd: half-step composition through the midpoint r = (s+t)/2 (reads no v)
    """
    def along(dx, ds, dt):  # d/de u_{s+e ds, t+e dt}(x_t + e dx | cond) at e = 0
        return ad.jvp(lambda x: model(x, Tensor(s, tangent=ds), Tensor(t, tangent=dt), cond),
                      x_t, dx)[1].data

    if setting == LSD:
        target = v + (t - s) * along(np.zeros_like(x_t), 1.0, 0.0)
    elif setting == ESD:
        target = v - (t - s) * along(v, 0.0, 1.0)
    else:
        r = 0.5 * (s + t)
        with ad.no_grad():
            u_rt = model(x_t, r, t, cond)
            x_mid = x_t - (t - s) / 2.0 * u_rt.data
            u_sr = model(x_mid, s, r, cond)
        target = 0.5 * u_rt.data + 0.5 * u_sr.data
    return ad.stop_gradient(Tensor(target))


def sd_target(setting: str, model, x0: np.ndarray, x1: np.ndarray,
              s: float, t: float, cond: int = COND_NULL) -> Tensor:
    """Consistency target for u_{s,t}(I_t) from the conditional velocity
    x1 - x0; detached."""
    _check_interval(setting, s, t)
    x_t = interpolate(x0, x1, t)
    return _consistency_target(setting, model, x_t, target_velocity(x0, x1, t),
                               s, t, cond)


# -- guidance-aware targets -----------------------------------------------


def _guided_velocity(model, x_t: np.ndarray, v_t: np.ndarray, t: float, w: float,
                     s: float | None = None) -> np.ndarray:
    """w * v_t + (1 - w) * u_neg, with u_neg read on the diagonal at
    (I_t, t), or, given ``s``, at the negative's own map point
    X_neg = I_t - (t-s) u_{s,t}(I_t | negative) as u_{s,s}(X_neg | negative)."""
    with ad.no_grad():
        if s is None:
            u_neg = model(x_t, t, t, COND_NEGATIVE)
        else:
            u_neg_st = model(x_t, s, t, COND_NEGATIVE)
            u_neg = model(x_t - (t - s) * u_neg_st.data, s, s, COND_NEGATIVE)
    return w * v_t + (1.0 - w) * u_neg.data


def cfg_fm_target(model, x0: np.ndarray, x1: np.ndarray, t: float,
                  ctx: GuidanceContext) -> Tensor:
    """w * v_target + (1 - w) * u_{t,t}(I_t | negative); detached.

    w = 1 gives the plain target v_target; a dropped context always has
    w = 1."""
    v_t = target_velocity(x0, x1, t)
    if ctx.w == 1.0:
        return ad.stop_gradient(Tensor(v_t))
    x_t = interpolate(x0, x1, t)
    return ad.stop_gradient(Tensor(_guided_velocity(model, x_t, v_t, t, ctx.w)))


def cfg_sd_target(setting: str, model, x0: np.ndarray, x1: np.ndarray,
                  s: float, t: float, interpolant: str,
                  ctx: GuidanceContext) -> Tensor:
    """Guidance-aware consistency target: the plain target with the guided
    velocity in place of the conditional one; detached.

    Extra model evaluations versus the unconditional target: two in the
    Lagrangian setting (u_neg at its own map point), one in the Eulerian
    setting (u_neg on the diagonal), none in the Shortcut setting (reads no
    velocity).  w = 1 gives the plain target on ``ctx.cond``; a dropped
    context always has w = 1, so it gives the plain target on the negative
    branch.

    ``interpolant`` must be ``STANDARD``; it stays for perfbench's positional call.
    """
    if interpolant != STANDARD:
        raise ValueError(f"interpolant {interpolant!r} is not {STANDARD!r}")
    _check_interval(setting, s, t)
    x_t = interpolate(x0, x1, t)
    v = target_velocity(x0, x1, t)
    if ctx.w != 1.0 and setting != SSD:
        v = _guided_velocity(model, x_t, v, t, ctx.w, s if setting == LSD else None)
    return _consistency_target(setting, model, x_t, v, s, t, ctx.cond)


# -- perceptual regularizer -----------------------------------------------


def perceptual_weight(s: float) -> float:
    """Time-decaying regularizer weight 5 * exp(-4 s)."""
    return 5.0 * float(np.exp(-4.0 * s))


def perceptual_reg(x0_hat: Tensor, x0: np.ndarray, s: float,
                   image_hw: tuple | None = None) -> Tensor:
    """Weighted low-pass surrogate on flattened images of shape ``image_hw``:
    (MSE of the 2x2-pooled images + MAE) / 2, scaled by the time-decaying
    weight.  ``x0_hat`` keeps its tape history."""
    target = np.asarray(x0, dtype=np.float64)
    d = target.shape[-1]
    if image_hw is None or image_hw[0] * image_hw[1] != d or image_hw[0] % 2 or image_hw[1] % 2:
        raise ValueError(f"image_hw {image_hw} does not tile a state of dimension {d} "
                         "into 2x2 blocks")
    h, w = image_hw
    # flat indices of each 2x2 block, one block a row
    blocks = np.arange(d).reshape(h // 2, 2, w // 2, 2).transpose(0, 2, 1, 3).reshape(-1, 4)

    pooled_pred = ad.mean(x0_hat[(slice(None), blocks)], axis=2)
    pooled_tgt = target[:, blocks].mean(axis=2)
    pooled_mse = ad.mean(ad.square(ad.sub(pooled_pred, Tensor(pooled_tgt))))

    diff = ad.sub(x0_hat, Tensor(target))
    sign = Tensor(np.sign(diff.data))  # constant factor: |x| = x * sign(x)
    mae = ad.mean(ad.mul(diff, sign))

    return ad.mul(ad.add(pooled_mse, mae), 0.5 * perceptual_weight(s))


# -- combined dispatch ----------------------------------------------------


def combined_loss(model, weightnet, x0: np.ndarray, x1: np.ndarray,
                  pair: TimestepPair, setting: str,
                  ctx: GuidanceContext | None = None,
                  x0_neg: np.ndarray | None = None,
                  image_hw: tuple | None = None,
                  use_perceptual: bool = True) -> LossBreakdown:
    """Dispatch on s == t, apply the regularizer and the learned weighting.

    weighted_total = exp(-lambda) * (main + perceptual) + lambda, with
    gradients reaching both the model and the weighting head.  No guidance
    context means ``PLAIN``.  A dropped context swaps in the degraded
    negative target when provided.  The perceptual term needs ``image_hw``.
    """
    if use_perceptual and image_hw is None:
        raise ValueError("use_perceptual needs image_hw: the perceptual term pools "
                         "2x2 image blocks, which a vector state does not have")
    s, t = pair.s_value, pair.t_value
    ctx = PLAIN if ctx is None else ctx
    if ctx.dropped and x0_neg is not None:
        x0 = x0_neg

    x_t = interpolate(x0, x1, t)
    if pair.is_fm:
        target = cfg_fm_target(model, x0, x1, t, ctx)
    else:
        target = cfg_sd_target(setting, model, x0, x1, s, t, STANDARD, ctx)
    pred = model(x_t, s, t, ctx.cond)  # s == t on FM pairs
    main = _batch_sq_error(pred, target)

    if use_perceptual:
        x0_hat = ad.sub(Tensor(x_t), ad.mul(pred, t))
        perceptual = perceptual_reg(x0_hat, x0, s, image_hw)
    else:
        perceptual = Tensor(0.0)

    lam = weightnet(s, t)
    raw = ad.add(main, perceptual)
    weighted = ad.add(ad.mul(ad.exp(ad.mul(lam, -1.0)), raw), lam)
    return LossBreakdown(main=main, perceptual=perceptual, weighted_total=weighted,
                         lam=lam.item())


# -- adversarial pair -----------------------------------------------------


def two_step_prediction(model, x1: np.ndarray, cond: int) -> Tensor:
    """x1 -> t=1/2 -> t=0 under the flow-map update; the midpoint state is
    detached, so the top half-step records no tape."""
    with ad.no_grad():
        u_top = model(x1, 0.5, 1.0, cond)
    x_half = np.asarray(x1, dtype=np.float64) - 0.5 * u_top.data
    u_bot = model(x_half, 0.0, 0.5, cond)
    return ad.sub(Tensor(x_half), ad.mul(u_bot, 0.5))


def rpgan_losses(model, disc, x0: np.ndarray, x1: np.ndarray,
                 ctx: GuidanceContext, lambda_adv: float,
                 objective: Tensor | None = None):
    """Relativistic paired generator/discriminator losses.

    g_loss = softplus(D(fake) - D(real)), plus lambda_adv * ``objective``
    (the caller's combined objective) when it is given and lambda_adv > 0;
    d_loss = softplus(D(real) - D(sg(fake))).  The fake is a two-step
    flow-map prediction from x1.
    """
    fake = two_step_prediction(model, x1, ctx.cond)
    real = Tensor(np.asarray(x0, dtype=np.float64))

    d_fake = disc(fake)
    d_real = disc(real)
    g_loss = ad.mean(ad.softplus(ad.sub(d_fake, d_real)))
    if objective is not None and lambda_adv > 0.0:
        g_loss = ad.add(g_loss, ad.mul(objective, lambda_adv))

    return g_loss, disc_loss(disc, d_real, fake)


def disc_loss(disc, d_real: Tensor, fake: Tensor) -> Tensor:
    """softplus(D(real) - D(sg(fake))) averaged over the batch, given the
    scores ``d_real`` of the real batch."""
    return ad.mean(ad.softplus(ad.sub(d_real, disc(ad.stop_gradient(fake)))))
