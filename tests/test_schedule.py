"""Dyadic grids and the joint timestep sampling rule."""

import numpy as np
import pytest

from flowmaplab.schedule import (ESD, GridConfig, GridTime, LSD, SSD, fm_pair,
                                 make_grid, sample_pair)


def test_grid_sizes_and_endpoints():
    for d in range(8):
        g = make_grid(d)
        assert len(g) == 2 ** d + 1
        assert g[0] == 0.0 and g[-1] == 1.0


def test_finest_grid_has_129_points():
    assert len(make_grid(GridConfig().d_max)) == 129


def test_grid_nesting():
    for d in range(7):
        coarse = set(make_grid(d))
        fine = set(make_grid(d + 1))
        assert coarse <= fine


def test_gridtime_exact_value():
    assert GridTime(3, 2).value == 0.75
    assert GridTime(0, 5).value == 0.0
    assert GridTime(1 << 7, 7).value == 1.0


def test_fm_pairs_lie_on_finest_grid():
    rng = np.random.default_rng(0)
    cfg = GridConfig()
    for i in range(200):
        p = sample_pair(SSD, cfg, rng) if i % 2 else fm_pair(cfg, rng)
        if p.is_fm:
            assert p.s == p.t
            assert p.s.d == cfg.d_max
            assert 0 <= p.s.k <= 1 << cfg.d_max


def test_ssd_pairs_are_adjacent_with_exact_midpoint():
    rng = np.random.default_rng(1)
    cfg = GridConfig()
    seen_sd = 0
    for _ in range(500):
        p = sample_pair(SSD, cfg, rng)
        if p.is_fm:
            continue
        seen_sd += 1
        assert p.t.k - p.s.k == 1 and p.s.d == p.t.d == p.level
        assert p.level <= cfg.d_max - 1
        # adjacent on level d, so the midpoint lives exactly on grid d + 1
        mid = GridTime(p.s.k + p.t.k, p.level + 1)
        assert mid.value == 0.5 * (p.s_value + p.t_value)
        assert mid.k % 2 == 1
    assert seen_sd > 0


@pytest.mark.parametrize("setting", [LSD, ESD])
def test_lsd_esd_pairs_ordered_same_level(setting):
    rng = np.random.default_rng(2)
    cfg = GridConfig()
    seen_sd = 0
    for _ in range(500):
        p = sample_pair(setting, cfg, rng)
        if p.is_fm:
            continue
        seen_sd += 1
        assert p.s.d == p.t.d == p.level
        assert p.s.k < p.t.k
    assert seen_sd > 0


def test_degenerate_draw_routes_to_fm():
    # with the FM coin forced to miss, k' == k draws must come back as FM pairs
    rng = np.random.default_rng(3)
    cfg = GridConfig(p_fm=0.01)
    fm_hits = sum(sample_pair(LSD, cfg, rng).is_fm for _ in range(2000))
    # strictly more than the 1% coin alone would give
    assert fm_hits > 40


def test_config_validation():
    with pytest.raises(ValueError):
        GridConfig(d_max=0)
    with pytest.raises(ValueError):
        GridConfig(p_fm=0.0)
    with pytest.raises(ValueError):
        sample_pair("bogus", GridConfig(), np.random.default_rng(0))


def test_times_stay_in_unit_interval():
    rng = np.random.default_rng(4)
    cfg = GridConfig()
    for setting in (LSD, ESD, SSD):
        for _ in range(300):
            p = sample_pair(setting, cfg, rng)
            assert 0.0 <= p.s_value <= p.t_value <= 1.0
