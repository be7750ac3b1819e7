"""The linear interpolation path and its target velocity."""

import numpy as np
import pytest

from flowmaplab.interpolant import interpolate, target_velocity


def test_standard_boundary_values():
    # the path's coefficients: (1 - t) on x0 and t on x1
    one, zero = np.ones((1, 2)), np.zeros((1, 2))
    for t in (0.0, 0.25, 1.0):
        np.testing.assert_array_equal(interpolate(one, zero, t), 1.0 - t)
        np.testing.assert_array_equal(interpolate(zero, one, t), t)


def test_standard_endpoints_bit_exact():
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(4, 3))
    x1 = rng.normal(size=(4, 3))
    assert np.array_equal(interpolate(x0, x1, 0.0), x0)
    assert np.array_equal(interpolate(x0, x1, 1.0), x1)


def test_standard_velocity_is_displacement():
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=(5, 2))
    x1 = rng.normal(size=(5, 2))
    for t in (0.0, 0.3, 1.0):
        np.testing.assert_array_equal(target_velocity(x0, x1, t), x1 - x0)


def test_time_out_of_range_raises():
    x = np.zeros((1, 2))
    with pytest.raises(ValueError):
        interpolate(x, x, -0.1)
    with pytest.raises(ValueError):
        interpolate(x, x, 1.1)
    with pytest.raises(ValueError):
        target_velocity(x, x, 1.1)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError, match="share a shape"):
        interpolate(np.zeros((2, 2)), np.zeros((2, 3)), 0.5)
    with pytest.raises(ValueError, match="share a shape"):
        target_velocity(np.zeros((2, 2)), np.zeros((2, 3)), 0.5)


def test_x0_predict_flowmap_inverts_interpolation_with_true_map():
    # with the exact two-point average velocity, I_t - t u recovers x0
    x0 = np.array([[1.0, -2.0]])
    x1 = np.array([[0.5, 3.0]])
    t = 0.7
    x_t = interpolate(x0, x1, t)
    u_true = (x_t - x0) / t
    np.testing.assert_allclose(x_t - t * u_true, x0, rtol=1e-12)
