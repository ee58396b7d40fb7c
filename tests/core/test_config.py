"""Tests for TycosConfig validation and derived values."""

import pytest

from repro.core.config import ENERGY_CONFIG, SMARTCITY_CONFIG, TycosConfig


class TestValidation:
    def test_defaults_valid(self):
        cfg = TycosConfig()
        assert cfg.sigma > 0
        assert cfg.s_min >= cfg.k + 2

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(sigma=0.0), "sigma"),
            (dict(sigma=-1.0), "sigma"),
            (dict(epsilon_ratio=1.0), "epsilon_ratio"),
            (dict(epsilon_ratio=-0.1), "epsilon_ratio"),
            (dict(k=0), "k must"),
            (dict(s_min=4, k=4), "s_min"),
            (dict(s_max=5, s_min=10), "s_max"),
            (dict(td_max=-1), "td_max"),
            (dict(delta=0), "delta"),
            (dict(history_length=0), "history_length"),
            (dict(max_idle=0), "max_idle"),
            (dict(jitter=-0.1), "jitter"),
            (dict(significance_permutations=-1), "significance_permutations"),
            (dict(init_delay_step=0), "init_delay_step"),
            (dict(sigma=1.5), r"sigma must be in \(0, 1\]"),  # NMI never exceeds 1
        ],
    )
    def test_rejects_invalid(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TycosConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(s_min=6, k=4),  # exactly k + 2 is the smallest legal window
            dict(s_max=8, s_min=8),  # degenerate single-size search space
            dict(td_max=0),  # aligned-only search is valid
            dict(epsilon_ratio=0.0),  # noise pruning disabled
            dict(sigma=1.0),
            dict(jitter=0.0),
            dict(significance_permutations=0),
            dict(init_delay_step=1),
            dict(sigma=1.5, use_normalized=False),  # raw MI in nats is unbounded
        ],
    )
    def test_accepts_boundary_values(self, kwargs):
        TycosConfig(**kwargs)  # must not raise

    def test_s_min_bound_tracks_k(self):
        # The s_min >= k + 2 bound is relative to k, not a constant.
        TycosConfig(s_min=10, k=8)
        with pytest.raises(ValueError, match="s_min"):
            TycosConfig(s_min=9, k=8)

    def test_scaled_revalidates(self):
        cfg = TycosConfig()
        with pytest.raises(ValueError, match="s_max"):
            cfg.scaled(s_max=cfg.s_min - 1)


class TestDerived:
    def test_epsilon(self):
        cfg = TycosConfig(sigma=0.4, epsilon_ratio=0.25)
        assert cfg.epsilon == pytest.approx(0.1)

    def test_scaled_replaces_fields(self):
        cfg = TycosConfig(sigma=0.3)
        other = cfg.scaled(sigma=0.5, td_max=99)
        assert other.sigma == 0.5
        assert other.td_max == 99
        assert cfg.sigma == 0.3  # frozen original untouched

    def test_delay_grid_contains_extremes_and_zero(self):
        cfg = TycosConfig(td_max=20, init_delay_step=7)
        grid = cfg.delay_grid()
        assert 0 in grid and 20 in grid and -20 in grid
        assert grid == sorted(grid)
        assert 7 in grid and -7 in grid and 14 in grid

    def test_delay_grid_dense(self):
        cfg = TycosConfig(td_max=5, init_delay_step=1)
        assert cfg.delay_grid() == list(range(-5, 6))

    def test_delay_grid_zero_td(self):
        assert TycosConfig(td_max=0).delay_grid() == [0]


class TestPresets:
    def test_presets_follow_table2_shape(self):
        # Table 2: energy sigma=0.3, smart city sigma=0.2; both eps=sigma/4.
        assert ENERGY_CONFIG.sigma == pytest.approx(0.3)
        assert SMARTCITY_CONFIG.sigma == pytest.approx(0.2)
        assert ENERGY_CONFIG.epsilon_ratio == 0.25
        assert SMARTCITY_CONFIG.epsilon_ratio == 0.25
        # Energy searches a longer window/delay span than smart city,
        # mirroring the minute vs 5-minute resolutions of Table 2.
        assert ENERGY_CONFIG.s_max > SMARTCITY_CONFIG.s_max
        assert ENERGY_CONFIG.td_max > SMARTCITY_CONFIG.td_max
