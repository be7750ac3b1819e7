"""Paired-coupling generators: 2D toys, procedural textures with a lightened
degradation pipeline, negative targets, and the analytic Gaussian task.

Every generator is a pure function of its rng, so batches are bitwise
reproducible.  Pixel tasks live in [-1, 1].
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np


BLUR_PROB = 0.8          # chance of the first blur
NOISE_STD_MAX = 0.02     # gaussian noise branch: std ~ U(0, NOISE_STD_MAX)
SHOT_NOISE_SCALE = 0.02  # intensity-scaled noise branch
QUANT_LEVELS = 32        # the quantizer that stands in for compression


@dataclass
class DegradeOpts:
    """The resize modes a degradation draws from: training mixes both,
    evaluation fixes bilinear."""

    interp_modes: tuple = ("nearest", "bilinear")

    def __post_init__(self):
        if not self.interp_modes or not set(self.interp_modes) <= {"nearest", "bilinear"}:
            raise ValueError(f"interp_modes must name nearest and/or bilinear, "
                             f"got {self.interp_modes!r}")


@dataclass
class PairBatch:
    x0: np.ndarray                   # (n, d) targets
    x1: np.ndarray                   # (n, d) sources, same shape
    s_down: np.ndarray | None = None
    x0_neg: np.ndarray | None = None

    def __post_init__(self):
        if self.x0.shape != self.x1.shape:
            raise ValueError("x0 and x1 must share a shape")


# -- 2D toys --------------------------------------------------------------


TOY_SIGMA = 0.4        # std of the noise on a toy source
TOY_CONTRACTION = 0.5  # pull of a toy source toward the batch centre


def gen_toy2d(n: int, kind: str, rng: np.random.Generator) -> PairBatch:
    """2D coupling: x1 is a contracted-plus-noised copy of x0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "two_gaussians":
        centers = np.array([[2.0, 0.0], [-2.0, 0.0]])
        which = rng.integers(0, 2, size=n)
        x0 = centers[which] + 0.5 * rng.standard_normal((n, 2))
    elif kind == "moons_pair":
        theta = rng.uniform(0.0, np.pi, size=n)
        branch = rng.integers(0, 2, size=n)
        x0 = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        x0[branch == 1] = np.stack(
            [1.0 - np.cos(theta[branch == 1]), 0.5 - np.sin(theta[branch == 1])], axis=1)
        x0 += 0.05 * rng.standard_normal((n, 2))
    else:
        raise ValueError(f"unknown 2D task {kind!r}")
    center = x0.mean(axis=0)
    x1 = (1.0 - TOY_CONTRACTION) * x0 + TOY_CONTRACTION * center \
        + TOY_SIGMA * rng.standard_normal((n, 2))
    return PairBatch(x0=x0, x1=x1)


def gaussian_pair(n: int, mu0, sigma0: float, mu1, sigma1: float,
                  rng: np.random.Generator) -> PairBatch:
    """Independent Gaussian endpoints, the analytic-oracle coupling."""
    for name, sigma in (("sigma0", sigma0), ("sigma1", sigma1)):
        if not (np.isfinite(sigma) and sigma > 0):
            raise ValueError(f"{name} must be finite and > 0, got {sigma!r}")
    mu0, mu1 = np.asarray(mu0, dtype=np.float64), np.asarray(mu1, dtype=np.float64)
    d = mu0.shape[0]
    x0 = mu0 + sigma0 * rng.standard_normal((n, d))
    x1 = mu1 + sigma1 * rng.standard_normal((n, d))
    return PairBatch(x0=x0, x1=x1)


# -- procedural textures --------------------------------------------------
#
# The texture pipeline runs in two passes.  A draw pass makes every rng call
# of a batch in the order of the per-image pipeline; no draw depends on a
# pixel value.  A texture's uniforms are one ``rng.random`` block, mapped to
# their ranges as ``Generator.uniform`` maps them (lo + (hi - lo) * u), so
# the values are the scalar draws' bit for bit; the other uniforms take the
# same arithmetic in ``_uniform``.  A render pass then computes
# the whole batch with the same per-element arithmetic, each image only
# through the branches it drew, so a batch is bitwise the one a per-image
# loop gives.

_MAX_WAVES = 4
_WAVE_SLOTS = 4 * _MAX_WAVES


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """``rng.uniform(lo, hi)`` bit for bit, lo + (hi - lo) * u on the same
    double u, without the argument handling that triples its cost."""
    return lo + (hi - lo) * rng.random()


def _texture_ranges(size: int) -> tuple[np.ndarray, np.ndarray]:
    """lo and hi - lo of a texture's uniform slots: (theta, freq, phase, amp)
    per wave, then the edge's (theta, offset, amp).  The widths are float64
    differences, as ``Generator.uniform`` computes them."""
    wave = [(0.0, np.pi), (0.5, 3.0), (0.0, 2.0 * np.pi), (0.3, 1.0)]
    edge = [(0.0, np.pi), (0.25 * size, 0.75 * size), (0.2, 0.8)]
    ranges = np.array(wave * _MAX_WAVES + edge)
    return ranges[:, 0], ranges[:, 1] - ranges[:, 0]


def gen_texture(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Grayscale textures: 2-4 oriented sinusoids plus a step edge, in [-1, 1].

    Returns shape (n, size, size).
    """
    if size not in (8, 16, 32):
        raise ValueError("size must be one of 8, 16, 32")
    if n < 1:
        raise ValueError(f"batch size n must be >= 1, got {n}")
    # per texture: the wave count k, then one block of its 4k wave and 3
    # edge uniforms, scattered row-major into the slots it fills
    ks, blocks = [], []
    for _ in range(n):
        ks.append(int(rng.integers(2, _MAX_WAVES + 1)))
        blocks.append(rng.random(4 * ks[-1] + 3))
    ks = np.array(ks)
    slot = np.arange(_WAVE_SLOTS + 3)
    table = np.zeros((n, slot.size))
    table[(slot < 4 * ks[:, None]) | (slot >= _WAVE_SLOTS)] = np.concatenate(blocks)
    lo, width = _texture_ranges(size)
    table = lo + width * table  # slots past a texture's k-th wave are never read
    waves, edges = table[:, :_WAVE_SLOTS].reshape(n, _MAX_WAVES, 4), table[:, _WAVE_SLOTS:]
    waves[..., 1] = waves[..., 1] * 2.0 * np.pi / size
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")

    def columns(rows):  # (n, k) draws -> k contiguous (n, 1, 1) arrays
        return np.ascontiguousarray(rows.T)[..., None, None]

    def along(theta):
        return np.cos(theta) * xx + np.sin(theta) * yy

    # each wave only on the textures that drew it, as a per-image loop adds it
    img = np.zeros((n, size, size))
    for k in range(_MAX_WAVES):
        has = np.flatnonzero(ks > k)
        theta, freq, phase, amp = columns(waves[has, k])
        img[has] += amp * np.sin(freq * along(theta) + phase)
    theta, offset, amp = columns(edges)
    img += amp * np.where(along(theta) > offset, 1.0, -1.0)
    peak = np.abs(img).max(axis=(1, 2))
    img /= np.where(peak > 0, peak, 1.0)[:, None, None]
    return img


# -- resampling and degradation -------------------------------------------


@functools.lru_cache(maxsize=256)
def _resize_tables(in_h: int, in_w: int, out_h: int, out_w: int, mode: str) -> tuple:
    """Read-only gather indices (and bilinear weights) of one resize."""
    ys = (np.arange(out_h) + 0.5) * in_h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * in_w / out_w - 0.5
    if mode == "nearest":
        yi = np.clip(np.round(ys).astype(int), 0, in_h - 1)[:, None]
        xi = np.clip(np.round(xs).astype(int), 0, in_w - 1)
        tables = (yi, xi)
    elif mode == "bilinear":
        y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 1)[:, None]
        y1 = np.clip(y0 + 1, 0, in_h - 1)
        x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 1)
        x1 = np.clip(x0 + 1, 0, in_w - 1)
        wy = np.clip(ys[:, None] - y0, 0.0, 1.0)
        wx = np.clip(xs - x0, 0.0, 1.0)[None, :]
        tables = (y0, y1, x0, x1, wy, wx)
    else:
        raise ValueError(f"unknown interpolation mode {mode!r}")
    for t in tables:
        t.setflags(write=False)
    return tables


def _resize(img: np.ndarray, out_h: int, out_w: int, mode: str) -> np.ndarray:
    """Nearest or bilinear resize over the last two axes of an image or a
    stack of images."""
    in_h, in_w = img.shape[-2:]
    if (in_h, in_w) == (out_h, out_w):
        return img.copy()
    if mode == "nearest":
        yi, xi = _resize_tables(in_h, in_w, out_h, out_w, mode)
        return img[..., yi, xi]
    y0, y1, x0, x1, wy, wx = _resize_tables(in_h, in_w, out_h, out_w, mode)
    top = img[..., y0, x0] * (1 - wx) + img[..., y0, x1] * wx
    bot = img[..., y1, x0] * (1 - wx) + img[..., y1, x1] * wx
    return top * (1 - wy) + bot * wy


def _resize_each(imgs: np.ndarray, out_h: int, out_w: int, modes: list) -> np.ndarray:
    """Resize a stack, each image with its own mode and only through it."""
    if len(set(modes)) == 1:
        return _resize(imgs, out_h, out_w, modes[0])
    out = np.empty(imgs.shape[:-2] + (out_h, out_w))
    modes = np.array(modes)
    for mode in ("nearest", "bilinear"):
        sel = np.flatnonzero(modes == mode)
        out[sel] = _resize(imgs[sel], out_h, out_w, mode)
    return out


_BLUR_KERNEL = np.array([1.0, 2.0, 1.0]) / 4.0  # 3x3 binomial, separable


def _blur(img: np.ndarray) -> np.ndarray:
    """Edge-padded 3x3 binomial blur over the last two axes."""
    pad = np.pad(img, [(0, 0)] * (img.ndim - 2) + [(1, 1), (1, 1)], mode="edge")
    tmp = (pad[..., :-2] * _BLUR_KERNEL[0] + pad[..., 1:-1] * _BLUR_KERNEL[1]
           + pad[..., 2:] * _BLUR_KERNEL[2])
    return (tmp[..., :-2, :] * _BLUR_KERNEL[0] + tmp[..., 1:-1, :] * _BLUR_KERNEL[1]
            + tmp[..., 2:, :] * _BLUR_KERNEL[2])


def _quantize(img: np.ndarray) -> np.ndarray:
    """Uniform quantization on [-1, 1] to ``QUANT_LEVELS``; the compression
    surrogate."""
    scaled = (np.clip(img, -1.0, 1.0) + 1.0) / 2.0 * (QUANT_LEVELS - 1)
    return np.round(scaled) / (QUANT_LEVELS - 1) * 2.0 - 1.0


class _Degrade(NamedTuple):
    """The draws of one degradation: first blur, low-res size, resize
    modes, and the noise (``std`` None selects the intensity-scaled branch)."""
    blur: bool
    lo: int
    down: str
    std: float | None
    noise: np.ndarray
    up: str


def _draw_degrade(size: int, s_down: float, opts: DegradeOpts,
                  rng: np.random.Generator) -> _Degrade:
    if not 0.0 < s_down <= 1.0:
        raise ValueError("s_down must lie in (0, 1]")
    blur = rng.random() < BLUR_PROB
    lo = max(1, int(round(size * s_down)))
    down = opts.interp_modes[int(rng.integers(0, len(opts.interp_modes)))]
    std = _uniform(rng, 0.0, NOISE_STD_MAX) if rng.random() < 0.5 else None
    noise = rng.standard_normal((lo, lo))
    up = opts.interp_modes[int(rng.integers(0, len(opts.interp_modes)))]
    return _Degrade(blur, lo, down, std, noise, up)


def _render_degrade(hrs: np.ndarray, jobs: list) -> np.ndarray:
    """Blur -> downscale -> noise -> quantize -> resize-back -> blur -> clamp,
    one drawn degradation per job; job j degrades image j % n of the
    (n, h, w) stack ``hrs``.

    The first blur runs once per image that any of its jobs blurs.  The
    low-res stages run once per low-res size, and there each resize mode and
    each noise branch only on the jobs that drew it."""
    n, h, w = hrs.shape
    image = np.arange(len(jobs)) % n
    blur = np.array([j.blur for j in jobs], dtype=bool)
    blurred = np.unique(image[blur])
    # each job's input: its image in hrs, or that image's blur after them
    pool = np.concatenate([hrs, _blur(hrs[blurred])])
    src = np.where(blur, n + np.searchsorted(blurred, image), image)
    out = np.empty((len(jobs), h, w))
    los = np.array([j.lo for j in jobs], dtype=int)
    for lo in np.unique(los):
        idx = np.flatnonzero(los == lo)
        group = [jobs[i] for i in idx]
        low = _resize_each(pool[src[idx]], lo, lo, [j.down for j in group])
        gauss = [i for i, j in enumerate(group) if j.std is not None]
        shot = [i for i, j in enumerate(group) if j.std is None]
        if gauss:
            std = np.array([group[i].std for i in gauss])[:, None, None]
            low[gauss] = low[gauss] + std * np.stack([group[i].noise for i in gauss])
        if shot:
            part = low[shot]
            low[shot] = part + SHOT_NOISE_SCALE * np.sqrt(np.abs(part) + 1.0) \
                * np.stack([group[i].noise for i in shot])
        out[idx] = _resize_each(_quantize(low), h, w, [j.up for j in group])
    return np.clip(_blur(out), -1.0, 1.0)


def texture_pairs(n: int, size: int, opts: DegradeOpts, rng: np.random.Generator,
                  s_down: float | None = None, with_negative: bool = False) -> PairBatch:
    """Texture SR coupling, flattened to vectors: x0 clean, x1 degraded at a
    downscale s_down (drawn from U(0.1, 1) per item when None).

    The negative target x0_neg is a milder degradation of x0 at a downscale
    drawn from U(s_down, 1), so it stays less degraded than x1."""
    hrs = gen_texture(n, size, rng)
    s_downs = np.empty(n)
    jobs, neg_jobs = [], []
    for i in range(n):
        sd = _uniform(rng, 0.1, 1.0) if s_down is None else float(s_down)
        s_downs[i] = sd
        jobs.append(_draw_degrade(size, sd, opts, rng))
        if with_negative:
            neg_jobs.append(_draw_degrade(size, _uniform(rng, sd, 1.0), opts, rng))
    out = _render_degrade(hrs, jobs + neg_jobs).reshape(-1, size * size)
    return PairBatch(x0=hrs.reshape(n, -1), x1=out[:n], s_down=s_downs,
                     x0_neg=out[n:] if with_negative else None)


# -- corpus persistence ---------------------------------------------------


def save_pgm(path, img: np.ndarray) -> None:
    """Binary PGM, maxval 255, linear map from [-1, 1]."""
    h, w = img.shape
    pix = np.clip((img + 1.0) / 2.0 * 255.0, 0.0, 255.0).round().astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())


def load_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise ValueError(f"{path}: not a binary PGM")
        dims = fh.readline().split()
        w, h = int(dims[0]), int(dims[1])
        maxval = int(fh.readline())
        raw = np.frombuffer(fh.read(h * w), dtype=np.uint8).reshape(h, w)
    return raw.astype(np.float64) / maxval * 2.0 - 1.0


def dump_corpus(directory, n: int, size: int, opts: DegradeOpts, seed: int) -> None:
    """Write n HR/LR pairs plus a manifest (index, seed, s_down); item i is
    the one-pair batch drawn from ``default_rng(seed + i)``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = []
    for i in range(n):
        item_seed = seed + i
        pair = texture_pairs(1, size, opts, np.random.default_rng(item_seed))
        save_pgm(directory / f"hr_{i:05d}.pgm", pair.x0.reshape(size, size))
        save_pgm(directory / f"lr_{i:05d}.pgm", pair.x1.reshape(size, size))
        rows.append((i, item_seed, pair.s_down[0]))
    with open(directory / "manifest.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "seed", "s_down"])
        for idx, s, sd in rows:
            writer.writerow([idx, s, f"{sd:.8f}"])
