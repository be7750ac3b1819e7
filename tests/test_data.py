"""Couplings, the degradation pipeline, and image persistence."""

import csv
import itertools
from pathlib import Path

import numpy as np
import pytest

from flowmaplab.data import (DegradeOpts, PairBatch, _blur, _quantize, _resize,
                             dump_corpus, gaussian_pair, gen_texture, gen_toy2d,
                             load_pgm, save_pgm, texture_pairs)
from flowmaplab.runtime import TextureSRTask

# -- per-image reference ---------------------------------------------------
#
# The texture pipeline as it was first written, one image at a time.  The
# package renders whole batches; these functions pin what every batch must
# equal bit for bit.


def ref_gen_texture(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Grayscale textures: 2-4 oriented sinusoids plus a step edge, in [-1, 1].

    Returns shape (n, size, size).
    """
    if size not in (8, 16, 32):
        raise ValueError("size must be one of 8, 16, 32")
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    out = np.empty((n, size, size))
    for i in range(n):
        img = np.zeros((size, size))
        n_waves = int(rng.integers(2, 5))
        for _ in range(n_waves):
            theta = rng.uniform(0.0, np.pi)
            freq = rng.uniform(0.5, 3.0) * 2.0 * np.pi / size
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp = rng.uniform(0.3, 1.0)
            img += amp * np.sin(freq * (np.cos(theta) * xx + np.sin(theta) * yy) + phase)
        # step edge along a random line
        theta = rng.uniform(0.0, np.pi)
        offset = rng.uniform(0.25 * size, 0.75 * size)
        edge = (np.cos(theta) * xx + np.sin(theta) * yy) > offset
        img += rng.uniform(0.2, 0.8) * np.where(edge, 1.0, -1.0)
        peak = np.abs(img).max()
        if peak > 0:
            img /= peak
        out[i] = img
    return out


def ref_resize(img: np.ndarray, out_h: int, out_w: int, mode: str) -> np.ndarray:
    """Nearest or bilinear resize of a single grayscale image."""
    in_h, in_w = img.shape
    if (in_h, in_w) == (out_h, out_w):
        return img.copy()
    ys = (np.arange(out_h) + 0.5) * in_h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * in_w / out_w - 0.5
    if mode == "nearest":
        yi = np.clip(np.round(ys).astype(int), 0, in_h - 1)
        xi = np.clip(np.round(xs).astype(int), 0, in_w - 1)
        return img[np.ix_(yi, xi)]
    if mode == "bilinear":
        y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 1)
        y1 = np.clip(y0 + 1, 0, in_h - 1)
        x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 1)
        x1 = np.clip(x0 + 1, 0, in_w - 1)
        wy = np.clip(ys - y0, 0.0, 1.0)[:, None]
        wx = np.clip(xs - x0, 0.0, 1.0)[None, :]
        top = img[np.ix_(y0, x0)] * (1 - wx) + img[np.ix_(y0, x1)] * wx
        bot = img[np.ix_(y1, x0)] * (1 - wx) + img[np.ix_(y1, x1)] * wx
        return top * (1 - wy) + bot * wy
    raise ValueError(f"unknown interpolation mode {mode!r}")


REF_BLUR_KERNEL = np.array([1.0, 2.0, 1.0]) / 4.0  # 3x3 binomial, separable


def ref_blur(img: np.ndarray) -> np.ndarray:
    pad = np.pad(img, 1, mode="edge")
    tmp = (pad[:, :-2] * REF_BLUR_KERNEL[0] + pad[:, 1:-1] * REF_BLUR_KERNEL[1]
           + pad[:, 2:] * REF_BLUR_KERNEL[2])
    return (tmp[:-2] * REF_BLUR_KERNEL[0] + tmp[1:-1] * REF_BLUR_KERNEL[1]
            + tmp[2:] * REF_BLUR_KERNEL[2])


def ref_quantize(img: np.ndarray, levels: int) -> np.ndarray:
    """Uniform quantization on [-1, 1]; the compression surrogate."""
    scaled = (np.clip(img, -1.0, 1.0) + 1.0) / 2.0 * (levels - 1)
    return np.round(scaled) / (levels - 1) * 2.0 - 1.0


def ref_degrade(hr: np.ndarray, s_down: float, opts: DegradeOpts,
                rng: np.random.Generator) -> np.ndarray:
    """Blur -> downscale -> noise -> quantize -> resize-back -> blur -> clamp.

    ``hr`` is one (h, w) image in [-1, 1]; the output has the same shape.
    The degradation's constants are written out here, so that the package's
    are pinned: first blur with probability 0.8, gaussian noise std up to
    0.02 or intensity-scaled noise at 0.02, 32 quantization levels.
    """
    if not 0.0 < s_down <= 1.0:
        raise ValueError("s_down must lie in (0, 1]")
    hr = np.asarray(hr, dtype=np.float64)
    h, w = hr.shape
    img = hr

    if rng.random() < 0.8:
        img = ref_blur(img)

    lo_h = max(1, int(round(h * s_down)))
    lo_w = max(1, int(round(w * s_down)))
    mode_down = opts.interp_modes[int(rng.integers(0, len(opts.interp_modes)))]
    img = ref_resize(img, lo_h, lo_w, mode_down)

    if rng.random() < 0.5:
        std = rng.uniform(0.0, 0.02)
        img = img + std * rng.standard_normal(img.shape)
    else:
        local = np.sqrt(np.abs(img) + 1.0)
        img = img + 0.02 * local * rng.standard_normal(img.shape)

    img = ref_quantize(img, 32)

    mode_up = opts.interp_modes[int(rng.integers(0, len(opts.interp_modes)))]
    img = ref_resize(img, h, w, mode_up)
    img = ref_blur(img)
    return np.clip(img, -1.0, 1.0)


def ref_make_negative_target(hr: np.ndarray, s_down: float, rng: np.random.Generator,
                             opts: DegradeOpts) -> np.ndarray:
    """A mildly degraded copy of hr: same pipeline, downscale drawn from
    U(s_down, 1) so it stays less degraded than the source built at s_down."""
    if not 0.0 < s_down <= 1.0:
        raise ValueError("s_down must lie in (0, 1]")
    s_neg = rng.uniform(s_down, 1.0)
    return ref_degrade(hr, s_neg, opts, rng)


def ref_pairs(n, size, opts, rng, s_down=None, with_negative=False) -> PairBatch:
    """The per-image texture SR batch: one texture draw per item, then per
    item its downscale, its degradation and its negative target."""
    hrs = ref_gen_texture(n, size, rng)
    x1 = np.empty_like(hrs)
    neg = np.empty_like(hrs) if with_negative else None
    downs = np.empty(n)
    for i in range(n):
        sd = float(rng.uniform(0.1, 1.0)) if s_down is None else float(s_down)
        downs[i] = sd
        x1[i] = ref_degrade(hrs[i], sd, opts, rng)
        if with_negative:
            neg[i] = ref_make_negative_target(hrs[i], sd, rng, opts)
    n_flat = lambda a: a.reshape(n, -1)
    return PairBatch(x0=n_flat(hrs), x1=n_flat(x1), s_down=downs,
                     x0_neg=None if neg is None else n_flat(neg))


def ref_dump_corpus(directory, n: int, size: int, opts: DegradeOpts, seed: int) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = []
    for i in range(n):
        item_seed = seed + i
        rng = np.random.default_rng(item_seed)
        hr = ref_gen_texture(1, size, rng)[0]
        sd = rng.uniform(0.1, 1.0)
        lr = ref_degrade(hr, sd, opts, rng)
        save_pgm(directory / f"hr_{i:05d}.pgm", hr)
        save_pgm(directory / f"lr_{i:05d}.pgm", lr)
        rows.append((i, item_seed, sd))
    with open(directory / "manifest.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "seed", "s_down"])
        for idx, s, sd in rows:
            writer.writerow([idx, s, f"{sd:.8f}"])


# -- tests -----------------------------------------------------------------


def test_pairbatch_shape_check():
    with pytest.raises(ValueError):
        PairBatch(x0=np.zeros((2, 3)), x1=np.zeros((2, 4)))


def test_toy2d_shapes_and_determinism():
    a = gen_toy2d(100, "two_gaussians", np.random.default_rng(0))
    b = gen_toy2d(100, "two_gaussians", np.random.default_rng(0))
    assert a.x0.shape == a.x1.shape == (100, 2)
    assert np.array_equal(a.x0, b.x0) and np.array_equal(a.x1, b.x1)
    with pytest.raises(ValueError):
        gen_toy2d(10, "spiral", np.random.default_rng(0))


def test_gaussian_pair_moments():
    rng = np.random.default_rng(1)
    b = gaussian_pair(20000, [1.0, -1.0], 0.5, [-1.0, 1.0], 2.0, rng)
    np.testing.assert_allclose(b.x0.mean(axis=0), [1.0, -1.0], atol=0.03)
    np.testing.assert_allclose(b.x1.std(axis=0), 2.0, atol=0.05)


@pytest.mark.parametrize("sigma0,sigma1,field", [
    (float("nan"), 1.0, "sigma0"),
    (0.0, 1.0, "sigma0"),
    (1.0, float("inf"), "sigma1"),
    (1.0, -2.0, "sigma1"),
])
def test_gaussian_pair_refuses_bad_sigma(sigma0, sigma1, field):
    with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
        gaussian_pair(3, (1.0, 1.0), sigma0, (0.0, 1.0), sigma1, np.random.default_rng(0))


def test_texture_range_and_sizes():
    for size in (8, 16, 32):
        imgs = gen_texture(5, size, np.random.default_rng(2))
        assert imgs.shape == (5, size, size)
        assert np.abs(imgs).max() <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        gen_texture(1, 12, np.random.default_rng(0))
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"batch size n must be >= 1, got {n}"):
            texture_pairs(n, 8, DegradeOpts(), np.random.default_rng(0))


class TestResize:
    def test_identity(self):
        img = np.random.default_rng(3).normal(size=(8, 8))
        np.testing.assert_array_equal(_resize(img, 8, 8, "nearest"), img)

    def test_nearest_on_constant(self):
        img = np.full((8, 8), 0.7)
        np.testing.assert_allclose(_resize(img, 3, 3, "nearest"), 0.7)

    def test_bilinear_preserves_linear_ramp(self):
        # a linear ramp is reproduced exactly away from the border
        img = np.tile(np.linspace(0.0, 1.0, 16), (16, 1))
        up = _resize(img, 32, 32, "bilinear")
        interior = up[8:-8, 8:-8]
        ramp = np.tile(np.linspace(0, 1, 32), (32, 1))[8:-8, 8:-8]
        np.testing.assert_allclose(interior, ramp, atol=0.05)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            _resize(np.zeros((4, 4)), 2, 2, "bicubic")


def test_blur_preserves_constants_and_smooths():
    const = np.full((6, 6), 0.25)
    np.testing.assert_allclose(_blur(const), 0.25, rtol=1e-12)
    spike = np.zeros((7, 7))
    spike[3, 3] = 1.0
    out = _blur(spike)
    assert out[3, 3] == 0.25  # center weight of the separable binomial
    assert abs(out.sum() - 1.0) < 1e-12


def test_quantize_levels():
    img = np.linspace(-1.0, 1.0, 101)
    q = _quantize(img.reshape(1, -1))
    assert len(np.unique(q)) <= 32
    np.testing.assert_allclose(q, img.reshape(1, -1), atol=1.0 / 31)


def test_degrade_contract():
    b = texture_pairs(8, 16, DegradeOpts(), np.random.default_rng(4), s_down=0.25)
    assert b.x1.shape == b.x0.shape
    assert b.x1.min() >= -1.0 and b.x1.max() <= 1.0
    assert not np.array_equal(b.x1, b.x0)  # something actually happened
    for bad in (0.0, 1.5):
        with pytest.raises(ValueError, match="s_down"):
            texture_pairs(2, 16, DegradeOpts(), np.random.default_rng(4), s_down=bad)


def test_degrade_determinism():
    a = texture_pairs(8, 16, DegradeOpts(), np.random.default_rng(9), with_negative=True)
    b = texture_pairs(8, 16, DegradeOpts(), np.random.default_rng(9), with_negative=True)
    for field in ("x0", "x1", "s_down", "x0_neg"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


def test_stronger_downscale_degrades_more():
    # same textures (drawn first), mse at s_down=0.15 above mse at s_down=0.9
    hard = texture_pairs(20, 16, DegradeOpts(), np.random.default_rng(6), s_down=0.15)
    soft = texture_pairs(20, 16, DegradeOpts(), np.random.default_rng(6), s_down=0.9)
    assert np.array_equal(hard.x0, soft.x0)
    assert np.mean((hard.x1 - hard.x0) ** 2) > np.mean((soft.x1 - soft.x0) ** 2)


def test_negative_target_is_milder():
    b = texture_pairs(30, 16, DegradeOpts(), np.random.default_rng(7), s_down=0.2,
                      with_negative=True)
    assert np.mean((b.x0_neg - b.x0) ** 2) < np.mean((b.x1 - b.x0) ** 2)


def test_texture_sr_sample_layout():
    b = TextureSRTask(16).sample(6, np.random.default_rng(8), with_negative=True)
    assert b.x0.shape == b.x1.shape == b.x0_neg.shape == (6, 256)
    assert b.s_down.shape == (6,)
    assert np.all((b.s_down > 0.0) & (b.s_down <= 1.0))
    assert TextureSRTask(16).sample(6, np.random.default_rng(8)).x0_neg is None


def test_interp_modes_validated():
    for modes in ((), ("bicubic",), ("nearest", "area")):
        with pytest.raises(ValueError, match="interp_modes"):
            DegradeOpts(interp_modes=modes)


OPTS_VARIANTS = {
    "default": {},
    "bilinear-only": {"interp_modes": ("bilinear",)},
    "nearest-only": {"interp_modes": ("nearest",)},
}


@pytest.mark.parametrize("variant", list(OPTS_VARIANTS))
def test_batch_equals_per_image_reference(variant):
    # s_down 0.1 gives a 1x1 low-res image at size 8; 1.0 an identity resize
    opts = DegradeOpts(**OPTS_VARIANTS[variant])
    for size, seed, neg, s_down in itertools.product(
            (8, 16, 32), (0, 1, 2), (False, True), (None, 0.1, 0.25, 1.0)):
        rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = ref_pairs(5, size, opts, rng_ref, s_down=s_down, with_negative=neg)
        got = TextureSRTask(size, opts).sample(5, rng, with_negative=neg, s_down=s_down)
        case = (size, seed, neg, s_down)
        for field in ("x0", "x1", "s_down", "x0_neg"):
            a, b = getattr(want, field), getattr(got, field)
            if a is None:
                assert b is None, (case, field)
            else:
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (case, field)
        assert rng_ref.random() == rng.random(), case  # same number of draws


@pytest.mark.parametrize("variant", list(OPTS_VARIANTS))
def test_large_batch_equals_per_image_reference(variant):
    # 64 items at downscales drawn per item: at size 32 many low-res sizes
    # hold one image, so one resize mode and one noise branch there render
    # no image at all
    opts = DegradeOpts(**OPTS_VARIANTS[variant])
    for size, neg in itertools.product((8, 16, 32), (False, True)):
        rng_ref, rng = np.random.default_rng(13), np.random.default_rng(13)
        want = ref_pairs(64, size, opts, rng_ref, with_negative=neg)
        got = TextureSRTask(size, opts).sample(64, rng, with_negative=neg)
        for field in ("x0", "x1", "s_down", "x0_neg"):
            a, b = getattr(want, field), getattr(got, field)
            if a is None:
                assert b is None, (size, neg, field)
            else:
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (size, neg, field)
        assert rng_ref.random() == rng.random(), (size, neg)  # same number of draws


def test_pgm_roundtrip(tmp_path):
    img = gen_texture(1, 16, np.random.default_rng(10))[0]
    path = tmp_path / "x.pgm"
    save_pgm(path, img)
    back = load_pgm(path)
    assert back.shape == img.shape
    # 8-bit quantization bound on the [-1, 1] range
    assert np.max(np.abs(back - img)) <= 2.0 / 255.0 + 1e-12
    with open(path, "rb") as fh:
        assert fh.readline().strip() == b"P5"


def test_corpus_dump(tmp_path):
    dump_corpus(tmp_path, 4, 8, DegradeOpts(), seed=11)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "manifest.csv" in names
    assert sum(n.startswith("hr_") for n in names) == 4
    assert sum(n.startswith("lr_") for n in names) == 4
    manifest = (tmp_path / "manifest.csv").read_text().strip().splitlines()
    assert manifest[0] == "index,seed,s_down"
    assert len(manifest) == 5


def test_corpus_dump_matches_reference(tmp_path):
    dump_corpus(tmp_path / "got", 6, 16, DegradeOpts(), seed=12)
    ref_dump_corpus(tmp_path / "want", 6, 16, DegradeOpts(), seed=12)
    names = sorted(p.name for p in (tmp_path / "want").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "got").iterdir())
    for name in names:
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()
