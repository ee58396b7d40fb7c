"""Window scoring: raw MI, normalized MI and adaptive thresholds.

Two interchangeable evaluators turn a :class:`TimeDelayWindow` into a
score:

* :class:`BatchScorer` -- runs the KSG estimator from scratch per window
  (what TYCOS_L / TYCOS_LN use).
* :class:`IncrementalScorer` -- keeps a :class:`repro.mi.SlidingKSG` engine
  warm and evaluates each window as a diff against the previously evaluated
  one (Section 7; what TYCOS_LM / TYCOS_LMN use).

Both score a batch of windows -- an LAHC delta-ring, or a seeding block
over the whole delay grid -- through :func:`repro.mi.batch.ksg_batch`,
which stacks the equal-size windows of any delay into one numpy pass and
returns the same floats as scoring them one by one.  Both memoize by
window identity, because LAHC revisits windows across neighborhood
expansions.  The module also hosts :class:`TopKFilter`, the
Section 6.3.2 alternative to a fixed sigma.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import contracts
from repro._types import FloatArray, WindowKey
from repro.core.config import TycosConfig
from repro.core.window import PairView, TimeDelayWindow
from repro.mi.batch import ksg_batch
from repro.mi.entropy import binned_joint_entropy
from repro.mi.incremental import SlidingKSG
from repro.mi.ksg import KSGEstimator
from repro.mi.normalized import normalize_ratio, normalize_value

__all__ = ["WindowScore", "BatchScorer", "IncrementalScorer", "TopKFilter", "make_scorer"]


@dataclass(frozen=True)
class WindowScore:
    """MI readings of one window.

    Attributes:
        mi: raw KSG mutual information (nats).
        nmi: normalized MI, Eq. (18), clamped to [0, 1].
        ratio: the unclamped ``I_w / H_w`` used as the search objective
            (see :func:`repro.mi.normalized.normalize_ratio`).
    """

    mi: float
    nmi: float
    ratio: float


class BatchScorer:
    """Scores windows by running the KSG estimator from scratch each time.

    A single window (:meth:`score`) goes through the scalar estimator
    (:meth:`repro.mi.ksg.KSGEstimator.mi` plus
    :func:`repro.mi.entropy.binned_joint_entropy`).  A batch
    (:meth:`score_many`) goes through :func:`repro.mi.batch.ksg_batch`,
    which scores equal-size windows of any delay in one stacked numpy
    pass; its floats are bit-identical to the scalar path.

    The memo table is a capped LRU (``config.cache_capacity``): long
    multi-restart searches revisit mostly recent windows, so bounding the
    table costs no meaningful hit rate while keeping memory flat.

    Attributes:
        evaluations: number of windows whose MI was actually computed.
        cache_hits: number of scores served from the memo table.
        workspace_builds: number of stacked passes run by batched scoring
            (one per window size per batch, more when a size group is
            split into memory-bounded chunks).
        workspace_hits: number of batched windows that shared a stacked
            pass with an earlier window of the same pass, so
            ``workspace_builds + workspace_hits`` windows were batch-scored.
    """

    def __init__(self, pair: PairView, config: TycosConfig) -> None:
        self._pair = pair
        self._config = config
        self._estimator = KSGEstimator(k=config.k)
        self._cache: "OrderedDict[WindowKey, WindowScore]" = OrderedDict()
        self._cache_capacity = config.cache_capacity
        self.evaluations = 0
        self.cache_hits = 0
        self.workspace_builds = 0
        self.workspace_hits = 0

    @property
    def estimator(self) -> KSGEstimator:
        """The configured KSG estimator (shared digamma table included).

        Exposed so callers needing a raw MI outside the window-score path
        -- e.g. the permutation significance test -- reuse the scorer's
        estimator instead of constructing a cold one per window.
        """
        return self._estimator

    def score(self, window: TimeDelayWindow) -> WindowScore:
        """MI and normalized MI of a window (memoized)."""
        hit = self._cache_get(window.key())
        if hit is not None:
            self.cache_hits += 1
            return hit
        return self._estimate(window)

    def score_many(self, windows: Sequence[TimeDelayWindow]) -> List[WindowScore]:
        """Scores for many windows in one call, in input order.

        Every uncached window the batch kernel can serve is scored by one
        :func:`repro.mi.batch.ksg_batch` call, which stacks equal-size
        windows of *any* delay (e.g. the delta-neighbors of one LAHC ring,
        or one seeding block over the whole delay grid) into a single
        numpy pass.  Grouping by exact size keeps every ``argpartition``
        row the same buffer the scalar k-NN kernel partitions, so ties
        resolve identically and the scores are *exactly* the ones
        :meth:`score` would produce.  Memoization and counters are as for
        a sequence of :meth:`score` calls: a window repeated within the
        batch is evaluated once and counted as a cache hit after that.
        Windows the batch kernel cannot serve (out-of-range windows,
        non-bruteforce sizes, or -- in the incremental subclass --
        on-trajectory engine evaluations) go through :meth:`score` first,
        in input order.
        """
        out: List[Optional[WindowScore]] = [None] * len(windows)
        pending: Dict[WindowKey, int] = {}
        repeats: List[Tuple[int, int]] = []
        for i, w in enumerate(windows):
            key = w.key()
            hit = self._cache_get(key)
            if hit is not None:
                self.cache_hits += 1
                out[i] = hit
            elif key in pending:
                repeats.append((i, pending[key]))
            elif self._batchable(w):
                pending[key] = i
            else:
                out[i] = self.score(w)
        if pending:
            self._score_batch(windows, list(pending.values()), out)
        for i, first in repeats:
            self.cache_hits += 1
            out[i] = out[first]
        return [s for s in out if s is not None]

    def value(self, window: TimeDelayWindow) -> float:
        """The scalar the search maximizes (unclamped ratio or raw MI)."""
        score = self.score(window)
        return score.ratio if self._config.use_normalized else score.mi

    def value_many(self, windows: Sequence[TimeDelayWindow]) -> List[float]:
        """Objective values of many windows via one batched scoring pass.

        Equivalent to ``[self.value(w) for w in windows]`` -- same floats,
        same cache and stats bookkeeping -- but equal-size windows of any
        delay share one stacked pass (see :meth:`score_many`).
        """
        scores = self.score_many(windows)
        if self._config.use_normalized:
            return [s.ratio for s in scores]
        return [s.mi for s in scores]

    def clear_cache(self) -> None:
        """Drop the memo table (between independent restarts)."""
        self._cache.clear()

    # -- memo table (capped LRU) --------------------------------------- #

    def _cache_get(self, key: WindowKey) -> Optional[WindowScore]:
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
        return hit

    def _cache_put(self, key: WindowKey, score: WindowScore) -> None:
        self._cache[key] = score
        self._cache.move_to_end(key)
        if len(self._cache) > self._cache_capacity:
            self._cache.popitem(last=False)

    # -- scoring paths -------------------------------------------------- #

    def _estimate(self, window: TimeDelayWindow) -> WindowScore:
        """Score one uncached window through the scalar estimator."""
        xw, yw = self._pair.extract(window)
        return self._finish(window, self._estimator.mi(xw, yw), xw, yw)

    def _batchable(self, window: TimeDelayWindow) -> bool:
        """Can this window be scored by the batch kernel?

        Requires the brute-force k-NN backend (the batch kernel replicates
        exactly that math), at least 2 samples, and in-bounds sample
        ranges (invalid windows must keep raising through the scalar
        path).
        """
        n = self._pair.n
        return (
            self._estimator.resolved_backend(window.size) == "bruteforce"
            and window.end > window.start
            and 0 <= window.start
            and window.end < n
            and 0 <= window.y_start
            and window.y_end < n
        )

    def _score_batch(
        self,
        windows: Sequence[TimeDelayWindow],
        positions: List[int],
        out: List[Optional[WindowScore]],
    ) -> None:
        """Score the distinct, uncached, batchable ``windows[positions]``."""
        batch = [windows[i] for i in positions]
        mi, entropy, passes = ksg_batch(
            self._pair.x,
            self._pair.y,
            [(w.start, w.size, w.delay) for w in batch],
            self._estimator.k,
        )
        self.workspace_builds += passes
        self.workspace_hits += len(batch) - passes
        for i, w, w_mi, w_entropy in zip(positions, batch, mi.tolist(), entropy.tolist()):
            out[i] = self._record(w, w_mi, w_entropy)

    def _finish(
        self, window: TimeDelayWindow, mi: float, xw: FloatArray, yw: FloatArray
    ) -> WindowScore:
        """Add the window's binned entropy to ``mi`` and record the score."""
        return self._record(window, mi, binned_joint_entropy(xw, yw))

    def _record(self, window: TimeDelayWindow, mi: float, entropy: float) -> WindowScore:
        """Normalize, contract-check, memoize and count one evaluation."""
        score = WindowScore(
            mi=mi, nmi=normalize_value(mi, entropy), ratio=normalize_ratio(mi, entropy)
        )
        if contracts.checks_enabled():
            where = f"{type(self).__name__}.score"
            contracts.check_mi_finite(score.mi, where=where)
            contracts.check_nmi_range(score.nmi, where=where)
        self._cache_put(window.key(), score)
        self.evaluations += 1
        return score


class IncrementalScorer(BatchScorer):
    """Scores windows by diffing against the last evaluated window.

    Windows produced during a LAHC ascent overlap heavily, so instead of a
    fresh O(m^2) neighbor search per window, a :class:`SlidingKSG` engine
    is mutated by the index delta between consecutive evaluations (Lemmas
    3-6).  A delay change re-pairs every sample, which forces a reset.

    The scorer is a hybrid: below ``min_engine_size`` samples the batch
    estimator's single vectorized kernel beats any per-point bookkeeping,
    so small windows take the batch path outright and the engine serves
    only the window sizes where the Section-7 reuse genuinely pays.
    """

    #: Below this window size the O(m^2) batch kernel is cheaper than
    #: engine maintenance (measured crossover of the two Python paths).
    min_engine_size = 96

    def __init__(self, pair: PairView, config: TycosConfig) -> None:
        super().__init__(pair, config)
        self._engine = SlidingKSG(k=config.k)
        self._base: Optional[TimeDelayWindow] = None
        self._trajectory_delay: Optional[int] = None

    @property
    def engine(self) -> SlidingKSG:
        """The underlying sliding engine (exposed for stats/ablations)."""
        return self._engine

    def follow_delay(self, delay: int) -> None:
        """Pin the engine to the search trajectory's current delay.

        The driver calls this whenever the accepted solution (re)settles on
        a delay.  Only windows at this delay are evaluated through the
        sliding engine; a neighborhood ring probes dozens of other delays
        exactly once each, and paying an engine rebuild for a one-off probe
        costs more than the batch estimate it would save.
        """
        self._trajectory_delay = delay

    def _batchable(self, window: TimeDelayWindow) -> bool:
        """Batch only the windows :meth:`score` serves via the batch path.

        On-trajectory windows of engine size must keep flowing through
        :meth:`score` one at a time, in evaluation order, because they
        mutate the sliding engine (Section 7 diffs).  Off-trajectory
        probes and sub-engine-size windows are pure batch estimates, so
        the batch kernel may score them in any grouping.
        """
        if not super()._batchable(window):
            return False
        return window.size < self.min_engine_size or (
            self._trajectory_delay is not None and window.delay != self._trajectory_delay
        )

    def score(self, window: TimeDelayWindow) -> WindowScore:
        hit = self._cache_get(window.key())
        if hit is not None:
            self.cache_hits += 1
            return hit
        if window.size < self.min_engine_size or (
            self._trajectory_delay is not None and window.delay != self._trajectory_delay
        ):
            # Small window, or an off-trajectory delay probe: batch path.
            return self._estimate(window)
        base = self._base
        x = self._pair.x
        y = self._pair.y
        if base is not None and base.delay == window.delay:
            diff = self._diff_cost(base, window)
            # Engine repair costs ~O(diff * m) with Python constants; the
            # batch estimate costs O(m^2) in one numpy kernel.  The engine
            # wins only while the diff stays well below m.
            if diff > max(4, window.size // 8) and diff < window.size:
                # Large one-off diff (e.g. the noise detector's concat
                # probes): repairing the engine would cost more than a
                # batch estimate, and the engine must stay anchored at the
                # current solution for the ring neighbors that follow.
                return self._estimate(window)
        if (
            base is None
            or base.delay != window.delay
            or self._diff_cost(base, window) >= window.size
        ):
            xw, yw = self._pair.extract(window)
            self._engine.reset(xw, yw, ids=window.x_indices())
        else:
            # Exact delta ranges -- never touch the shared bulk of the two
            # windows.  Shrinks first (cheaper neighbor invalidation).
            delay = window.delay
            for lo, hi in (
                (base.start, min(base.end, window.start - 1)),   # left trim
                (max(base.start, window.end + 1), base.end),     # right trim
            ):
                for i in range(lo, hi + 1):
                    self._engine.remove(i)
            for lo, hi in (
                (window.start, min(window.end, base.start - 1)),  # left grow
                (max(window.start, base.end + 1), window.end),    # right grow
            ):
                for i in range(lo, hi + 1):
                    self._engine.add(i, x[i], y[i + delay])
        self._base = window
        mi = self._engine.mi()
        xw, yw = self._pair.extract(window)
        return self._finish(window, mi, xw, yw)

    @staticmethod
    def _diff_cost(base: TimeDelayWindow, window: TimeDelayWindow) -> int:
        """Number of point insertions + removals to morph base into window."""
        inter_lo = max(base.start, window.start)
        inter_hi = min(base.end, window.end)
        inter = max(0, inter_hi - inter_lo + 1)
        return (base.size - inter) + (window.size - inter)


def make_scorer(pair: PairView, config: TycosConfig, incremental: bool) -> BatchScorer:
    """Factory: pick the scorer matching the TYCOS variant."""
    if incremental:
        return IncrementalScorer(pair, config)
    return BatchScorer(pair, config)


class TopKFilter:
    """Adaptive correlation threshold via a top-K list (Section 6.3.2).

    Maintains the K highest-scoring windows seen so far; the effective
    sigma is the smallest score in the list once it is full, so the search
    progressively tightens its own acceptance bar.
    """

    def __init__(self, capacity: int, initial_sigma: float = 0.0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._heap: List[Tuple[float, WindowKey, TimeDelayWindow]] = []
        self._initial_sigma = initial_sigma

    @property
    def sigma(self) -> float:
        """Current effective threshold."""
        if len(self._heap) < self.capacity:
            return self._initial_sigma
        return self._heap[0][0]

    def offer(self, window: TimeDelayWindow, value: float) -> bool:
        """Consider a window; returns True when it enters the top-K list."""
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, (value, window.key(), window))
            return True
        if value > self._heap[0][0]:
            heapq.heapreplace(self._heap, (value, window.key(), window))
            return True
        return False

    def windows(self) -> List[Tuple[TimeDelayWindow, float]]:
        """The current top-K windows, best first."""
        return [(w, v) for v, _, w in sorted(self._heap, reverse=True)]

    def __len__(self) -> int:
        return len(self._heap)
