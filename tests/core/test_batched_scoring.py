"""Tests for batched neighborhood scoring and the capped scorer memo.

The batched path's contract is *exact* equality: ``score_many`` /
``value_many`` must produce the same floats, the same cache contents, and
the same bookkeeping counters as the scalar path, for both scorer
classes -- only the amount of redundant kernel work may differ.
"""

import numpy as np
import pytest

import repro.core.tycos as tycos_module
from repro.core.config import TycosConfig
from repro.core.thresholds import BatchScorer, IncrementalScorer
from repro.core.tycos import Tycos, tycos_l, tycos_lm, tycos_ln, tycos_lmn
from repro.core.window import PairView, TimeDelayWindow
from repro.data.composer import compose


def _coupled_pair(n=400, lag=7, seed=9):
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.normal(size=n))
    x = base + rng.normal(scale=0.1, size=n)
    y = np.roll(base, lag) + rng.normal(scale=0.1, size=n)
    return x, y


def _ring(rng, n, count, delay, td_max):
    """A batch of same-delay windows shaped like a delta-neighbor ring."""
    windows = []
    for _ in range(count):
        size = int(rng.integers(8, 40))
        start = int(rng.integers(td_max, n - size - td_max))
        windows.append(TimeDelayWindow(start=start, end=start + size - 1, delay=delay))
    return windows


class TestScoreManyEquality:
    @pytest.mark.parametrize("scorer_cls", [BatchScorer, IncrementalScorer])
    def test_batched_floats_equal_scalar_floats(self, scorer_cls):
        x, y = _coupled_pair()
        config = TycosConfig(s_min=8, s_max=60, td_max=6)
        pair = PairView(x, y)
        rng = np.random.default_rng(3)
        windows = _ring(rng, pair.n, 12, delay=2, td_max=6) + _ring(
            rng, pair.n, 12, delay=-3, td_max=6
        )

        scalar = scorer_cls(PairView(x, y), config)
        expected = [scalar.score(w) for w in windows]
        batched = scorer_cls(pair, config)
        got = batched.score_many(windows)

        assert got == expected  # exact float equality, not approximate
        assert batched.evaluations == scalar.evaluations
        assert batched.cache_hits == scalar.cache_hits

    def test_value_many_equals_scalar_values(self):
        x, y = _coupled_pair()
        config = TycosConfig(s_min=8, s_max=60, td_max=6)
        rng = np.random.default_rng(4)
        windows = _ring(rng, len(x), 10, delay=1, td_max=6)
        scalar = BatchScorer(PairView(x, y), config)
        batched = BatchScorer(PairView(x, y), config)
        assert batched.value_many(windows) == [scalar.value(w) for w in windows]

    def test_duplicates_in_one_batch_hit_the_cache(self):
        x, y = _coupled_pair()
        config = TycosConfig(s_min=8, s_max=60, td_max=6)
        scorer = BatchScorer(PairView(x, y), config)
        w = TimeDelayWindow(start=50, end=80, delay=2)
        scores = scorer.score_many([w, w, w])
        assert scores[0] == scores[1] == scores[2]
        assert scorer.evaluations == 1
        assert scorer.cache_hits == 2

    @pytest.mark.parametrize("scorer_cls", [BatchScorer, IncrementalScorer])
    def test_repeats_among_mixed_windows_match_scalar_counters(self, scorer_cls):
        x, y = _coupled_pair()
        config = TycosConfig(s_min=8, s_max=60, td_max=6)
        rng = np.random.default_rng(6)
        ring = _ring(rng, len(x), 8, delay=1, td_max=6) + _ring(rng, len(x), 8, delay=-2, td_max=6)
        windows = ring[:5] + [ring[2]] + ring[5:] + [ring[0], ring[9]]
        scalar = scorer_cls(PairView(x, y), config)
        expected = [scalar.score(w) for w in windows]
        batched = scorer_cls(PairView(x, y), config)
        assert batched.score_many(windows) == expected
        assert batched.evaluations == scalar.evaluations == len(ring)
        assert batched.cache_hits == scalar.cache_hits == 3

    def test_batch_propagates_scalar_path_errors(self):
        x, y = _coupled_pair()
        config = TycosConfig(s_min=8, s_max=60, td_max=6)
        scorer = BatchScorer(PairView(x, y), config)
        infeasible = TimeDelayWindow(start=0, end=30, delay=-5)  # y range < 0
        with pytest.raises(IndexError):
            scorer.score_many([infeasible])


class _ScalarBatchScorer(BatchScorer):
    """Reference scorer: a batch is scored one window at a time."""

    def score_many(self, windows):
        return [self.score(w) for w in windows]


class _ScalarIncrementalScorer(IncrementalScorer):
    def score_many(self, windows):
        return [self.score(w) for w in windows]


def _scalar_make_scorer(pair, config, incremental):
    if incremental:
        return _ScalarIncrementalScorer(pair, config)
    return _ScalarBatchScorer(pair, config)


class TestEngineEquivalence:
    @pytest.mark.parametrize("variant", [tycos_l, tycos_ln, tycos_lm, tycos_lmn])
    def test_search_identical_with_and_without_batching(self, variant, monkeypatch):
        # Composer pair with planted delayed relations; s_max above the
        # incremental engine's min_engine_size, so in the LMN variant
        # on-trajectory engine windows interleave with batched ones.
        rng = np.random.default_rng(11)
        pair = compose([("linear", 160, 5), ("sine", 150, -4)], rng, gap=30)
        config = TycosConfig(
            sigma=0.3, s_min=48, s_max=150, td_max=8, jitter=1e-6, seed=2, init_delay_step=2
        )
        batched = variant(config).search(pair.x, pair.y)
        # The reference scores every window through scalar score() calls:
        # every batch the search issues (rings, noise probes, seeding)
        # goes through the scalar score_many.
        monkeypatch.setattr(tycos_module, "make_scorer", _scalar_make_scorer)
        plain = variant(config).search(pair.x, pair.y)
        assert batched.windows  # the pair must exercise acceptance
        assert plain.windows == batched.windows  # WindowResult: window, mi, nmi
        assert plain.stats.windows_evaluated == batched.stats.windows_evaluated
        assert plain.stats.cache_hits == batched.stats.cache_hits
        assert plain.stats.noise_prunes == batched.stats.noise_prunes
        assert plain.stats.accepted_moves == batched.stats.accepted_moves
        assert plain.stats.lahc_iterations == batched.stats.lahc_iterations
        assert plain.stats.workspace_builds == 0
        assert batched.stats.workspace_builds > 0


class TestCappedMemo:
    def test_capacity_bounds_the_table(self):
        x, y = _coupled_pair()
        config = TycosConfig(s_min=8, s_max=60, td_max=6, cache_capacity=5)
        scorer = BatchScorer(PairView(x, y), config)
        for start in range(20, 60):
            scorer.score(TimeDelayWindow(start=start, end=start + 20, delay=0))
        assert len(scorer._cache) == 5

    def test_lru_evicts_oldest_first(self):
        x, y = _coupled_pair()
        config = TycosConfig(s_min=8, s_max=60, td_max=6, cache_capacity=2)
        scorer = BatchScorer(PairView(x, y), config)
        w1 = TimeDelayWindow(start=20, end=40, delay=0)
        w2 = TimeDelayWindow(start=30, end=50, delay=0)
        w3 = TimeDelayWindow(start=40, end=60, delay=0)
        scorer.score(w1)
        scorer.score(w2)
        scorer.score(w1)  # refresh w1: w2 becomes the eviction candidate
        scorer.score(w3)  # evicts w2
        evaluations = scorer.evaluations
        scorer.score(w1)
        assert scorer.evaluations == evaluations  # still cached
        scorer.score(w2)
        assert scorer.evaluations == evaluations + 1  # was evicted

    def test_config_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="cache_capacity"):
            TycosConfig(cache_capacity=0)


class TestTopKStats:
    def test_topk_reports_incremental_engine_stats(self):
        # Windows must exceed IncrementalScorer.min_engine_size for the
        # sliding engine (whose counters these stats mirror) to engage.
        x, y = _coupled_pair(n=600)
        config = TycosConfig(sigma=0.3, s_min=100, s_max=160, td_max=8, jitter=1e-6, seed=2)
        result = Tycos(config, use_incremental=True).search_topk(x, y, k_top=3)
        assert result.stats.mi_full_searches > 0
        plain = Tycos(config.scaled(s_min=8, s_max=48), use_incremental=False).search_topk(
            x, y, k_top=3
        )
        assert plain.stats.mi_full_searches == 0
        assert plain.stats.mi_incremental_updates == 0
