"""Exact-equality tests for the MI kernel caches.

Every cache of the scoring hot path -- the shared digamma table and the
presorted/maintained marginals -- is a pure amortization: switching any
of them off must reproduce the SAME floats, windows and counters, not
approximately but exactly.
"""

import numpy as np
import pytest

from repro.core.config import TycosConfig
from repro.core.thresholds import BatchScorer, IncrementalScorer
from repro.core.tycos import Tycos
from repro.core.window import PairView, TimeDelayWindow


def _coupled_pair(n=400, lag=7, seed=9):
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.normal(size=n))
    x = base + rng.normal(scale=0.1, size=n)
    y = np.roll(base, lag) + rng.normal(scale=0.1, size=n)
    return x, y


def _ring(rng, n, count, delay, td_max):
    windows = []
    for _ in range(count):
        size = int(rng.integers(8, 40))
        start = int(rng.integers(td_max, n - size - td_max))
        windows.append(TimeDelayWindow(start=start, end=start + size - 1, delay=delay))
    return windows


ALL_ON = dict(use_digamma_table=True, use_sorted_marginals=True)
ALL_OFF = dict(use_digamma_table=False, use_sorted_marginals=False)


class TestKnobExactEquality:
    @pytest.mark.parametrize("scorer_cls", [BatchScorer, IncrementalScorer])
    def test_score_many_identical_with_all_caches_off(self, scorer_cls):
        x, y = _coupled_pair()
        rng = np.random.default_rng(3)
        windows = _ring(rng, len(x), 12, delay=2, td_max=6) + _ring(
            rng, len(x), 12, delay=-3, td_max=6
        )
        fast = scorer_cls(PairView(x, y), TycosConfig(s_min=8, s_max=60, td_max=6, **ALL_ON))
        slow = scorer_cls(PairView(x, y), TycosConfig(s_min=8, s_max=60, td_max=6, **ALL_OFF))
        assert fast.score_many(windows) == slow.score_many(windows)
        assert fast.evaluations == slow.evaluations
        assert fast.cache_hits == slow.cache_hits

    @pytest.mark.parametrize(
        "knob",
        [
            dict(use_digamma_table=False),
            dict(use_sorted_marginals=False),
        ],
    )
    @pytest.mark.parametrize("use_incremental", [False, True])
    def test_search_identical_with_each_cache_off(self, knob, use_incremental):
        """Same seed => same TycosResult whether any single cache is on or off."""
        x, y = _coupled_pair(n=320)
        base = TycosConfig(sigma=0.3, s_min=8, s_max=48, td_max=8, jitter=1e-6, seed=2)
        fast = Tycos(base, use_incremental=use_incremental).search(x, y)
        slow = Tycos(base.scaled(**knob), use_incremental=use_incremental).search(x, y)
        assert [r.window for r in fast.windows] == [r.window for r in slow.windows]
        assert [r.mi for r in fast.windows] == [r.mi for r in slow.windows]
        assert [r.nmi for r in fast.windows] == [r.nmi for r in slow.windows]
        assert fast.stats.windows_evaluated == slow.stats.windows_evaluated
        assert fast.stats.cache_hits == slow.stats.cache_hits
        assert fast.stats.accepted_moves == slow.stats.accepted_moves
        assert fast.stats.lahc_iterations == slow.stats.lahc_iterations


class TestWorkspaceLRU:
    """The ``workspace_*`` counters, named after the per-delay workspace LRU
    they once reported, now count the stacked passes of the batch kernel."""

    def test_search_stats_surface_workspace_counters(self):
        x, y = _coupled_pair(n=320)
        config = TycosConfig(sigma=0.3, s_min=8, s_max=48, td_max=8, jitter=1e-6, seed=2)
        result = Tycos(config, use_incremental=False).search(x, y)
        assert result.stats.workspace_builds > 0
        # Rings hold several windows of one size, so passes are shared.
        assert result.stats.workspace_hits > 0
        # Every window is scored either in a stacked pass or singly.
        batched = result.stats.workspace_builds + result.stats.workspace_hits
        assert batched <= result.stats.windows_evaluated
        scalar = Tycos(
            config, use_incremental=False, use_noise=False, batched_scoring=False
        ).search(x, y)
        assert scalar.stats.workspace_builds == 0
        assert scalar.stats.workspace_hits == 0


class TestConfigKnobs:
    def test_defaults_enable_every_cache(self):
        config = TycosConfig()
        assert config.use_digamma_table is True
        assert config.use_sorted_marginals is True
