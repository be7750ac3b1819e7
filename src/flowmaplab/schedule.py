"""Dyadic timestep grids and the joint (s, t) sampling rule.

Grid times are carried as exact (numerator, level) integer pairs so that
membership, nesting and the s == t dispatch are free of float drift; the
float value k / 2**d is exact in binary anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LSD, ESD, SSD = "lsd", "esd", "ssd"
SETTINGS = (LSD, ESD, SSD)


@dataclass(frozen=True)
class GridTime:
    """Exact dyadic time k / 2**d."""

    k: int
    d: int

    @property
    def value(self) -> float:
        return self.k / (1 << self.d)


@dataclass(frozen=True)
class TimestepPair:
    """One sampled training pair on the dyadic grid."""

    s: GridTime
    t: GridTime
    is_fm: bool
    level: int

    @property
    def s_value(self) -> float:
        return self.s.value

    @property
    def t_value(self) -> float:
        return self.t.value


# the finest level whose times k / 2**d are exact and distinct doubles
MAX_LEVEL = 53


@dataclass(frozen=True)
class GridConfig:
    d_max: int = 7
    p_fm: float = 0.75

    def __post_init__(self):
        if not 1 <= self.d_max <= MAX_LEVEL:
            raise ValueError(f"d_max must lie in [1, {MAX_LEVEL}], got {self.d_max}")
        if not 0.0 < self.p_fm < 1.0:
            raise ValueError("p_fm must lie strictly in (0, 1)")


def fm_pair(cfg: GridConfig, rng: np.random.Generator) -> TimestepPair:
    """A diagonal pair s == t, uniform on the finest grid."""
    d = cfg.d_max
    gt = GridTime(int(rng.integers(0, (1 << d) + 1)), d)
    return TimestepPair(s=gt, t=gt, is_fm=True, level=d)


def sample_pair(setting: str, cfg: GridConfig, rng: np.random.Generator) -> TimestepPair:
    """Draw one (s, t) pair.

    With probability p_fm: a diagonal pair s == t on the finest grid.
    Otherwise, per setting:
      lsd/esd  -- level d uniform on {0..d_max}, k uniform on {1..2**d},
                  k' uniform on {0..k}; the degenerate k' == k draw is routed
                  to the FM branch at that grid point.
      ssd      -- level d uniform on {0..d_max-1}, adjacent cell
                  (t_{k-1}, t_k), midpoint exactly on grid d+1.
    """
    if setting not in SETTINGS:
        raise ValueError(f"unknown setting {setting!r}")
    if rng.random() < cfg.p_fm:
        return fm_pair(cfg, rng)

    if setting == SSD:
        d = int(rng.integers(0, cfg.d_max))
        k = int(rng.integers(1, (1 << d) + 1))
        return TimestepPair(s=GridTime(k - 1, d), t=GridTime(k, d), is_fm=False, level=d)

    d = int(rng.integers(0, cfg.d_max + 1))
    k = int(rng.integers(1, (1 << d) + 1))
    kp = int(rng.integers(0, k + 1))
    if kp == k:
        gt = GridTime(k, d)
        return TimestepPair(s=gt, t=gt, is_fm=True, level=d)
    return TimestepPair(s=GridTime(kp, d), t=GridTime(k, d), is_fm=False, level=d)
