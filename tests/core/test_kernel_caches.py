"""Exact-equality tests for the MI kernel caches.

Every cache of the scoring hot path -- the shared digamma table and the
presorted/maintained marginals -- is a pure amortization: the oracle
that uses none of them (direct scipy digamma, per-window sorts) must
reproduce the SAME floats, not approximately but exactly.
"""

import numpy as np
import pytest

from repro.core.config import TycosConfig
from repro.core.thresholds import BatchScorer, IncrementalScorer
from repro.core.tycos import Tycos
from repro.core.window import PairView, TimeDelayWindow
from repro.mi.digamma import digamma_direct
from repro.mi.neighbors import chebyshev_knn_bruteforce, marginal_counts


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


def _oracle_mi(x, y, k):
    """KSG Eq. (2) without any cache: direct digamma, unsorted marginals."""
    m = x.size
    k = min(k, m - 1)
    knn = chebyshev_knn_bruteforce(x, y, k)
    n_x = np.maximum(marginal_counts(x, knn.eps_x, strict=False), 1)
    n_y = np.maximum(marginal_counts(y, knn.eps_y, strict=False), 1)
    psi_sum = np.asarray(digamma_direct(n_x) + digamma_direct(n_y), dtype=np.float64)
    psi_k = float(digamma_direct(k))
    return psi_k - 1.0 / k - float(psi_sum.sum() / m) + float(digamma_direct(m))


class TestKnobExactEquality:
    @pytest.mark.parametrize("scorer_cls", [BatchScorer, IncrementalScorer])
    def test_score_many_identical_with_all_caches_off(self, scorer_cls):
        x, y = _coupled_pair()
        rng = np.random.default_rng(3)
        windows = _ring(rng, len(x), 12, delay=2, td_max=6) + _ring(
            rng, len(x), 12, delay=-3, td_max=6
        )
        pair = PairView(x, y)
        fast = scorer_cls(pair, TycosConfig(s_min=8, s_max=60, td_max=6))
        scores = fast.score_many(windows)
        assert [s.mi for s in scores] == [_oracle_mi(*pair.extract(w), 4) for w in windows]


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
        # The scalar path runs no stacked pass.
        scalar = BatchScorer(PairView(x, y), config)
        scalar.score(TimeDelayWindow(start=20, end=60, delay=2))
        assert scalar.workspace_builds == 0
        assert scalar.workspace_hits == 0
