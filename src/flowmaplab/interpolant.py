"""The linear interpolant and its target velocity.

The path between a target sample x0 and a source sample x1 is
``I_t = (1 - t) x0 + t x1``, the one path the paper's flow maps, the
Gaussian oracle and the perceptual endpoint ``I_t - t u`` all assume.
Both functions are pure and operate on plain numpy arrays.
"""

from __future__ import annotations

import numpy as np

# the path's name, recorded in every checkpoint's metadata
STANDARD = "standard"


def _checked(x0, x1, t: float) -> tuple[np.ndarray, np.ndarray]:
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time {t} outside [0, 1]")
    x0, x1 = np.asarray(x0, dtype=np.float64), np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise ValueError("x0 and x1 must share a shape")
    return x0, x1


def interpolate(x0: np.ndarray, x1: np.ndarray, t: float) -> np.ndarray:
    """Point on the path, (1 - t) x0 + t x1; the endpoints bit-exactly at
    t = 0 and t = 1."""
    x0, x1 = _checked(x0, x1, t)
    if t == 0.0:
        return x0.copy()
    if t == 1.0:
        return x1.copy()
    return (1.0 - t) * x0 + t * x1


def target_velocity(x0: np.ndarray, x1: np.ndarray, t: float) -> np.ndarray:
    """Time derivative of the path: x1 - x0 at every t."""
    x0, x1 = _checked(x0, x1, t)
    return x1 - x0
