"""TYCOS: the Time delaY COrrelation Search (paper Sections 5-7).

The four variants evaluated in the paper are all served by one driver with
two switches:

===========  ==========  ===============
Variant      noise theory  incremental MI
===========  ==========  ===============
TYCOS_L      off          off
TYCOS_LN     on           off
TYCOS_LM     off          on
TYCOS_LMN    on           on
===========  ==========  ===============

The driver implements Algorithms 1 and 2: starting from an initial window
(leading-noise-pruned for the N variants), a LAHC ascent maximizes the
window score over delta-neighborhoods that grow while the search idles;
the local optimum is accepted into the result set when it clears sigma;
then the search restarts on the remaining data until the pair is scanned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import contracts
from repro._types import AnyArray
from repro.core.config import TycosConfig
from repro.core.lahc import LateAcceptanceHillClimbing
from repro.core.neighborhood import neighborhood
from repro.core.noise import NoiseDetector, find_initial_window
from repro.core.results import OverlapPolicy, ResultSet, WindowResult
from repro.core.thresholds import BatchScorer, IncrementalScorer, TopKFilter, make_scorer
from repro.core.window import PairView, TimeDelayWindow

__all__ = [
    "SearchStats",
    "TycosResult",
    "Tycos",
    "tycos_l",
    "tycos_ln",
    "tycos_lm",
    "tycos_lmn",
]


@dataclass
class SearchStats:
    """Instrumentation of one search run.

    Attributes:
        windows_evaluated: windows whose MI was actually computed.
        cache_hits: window scores served from the memo table.
        restarts: number of LAHC ascents launched.
        lahc_iterations: total acceptance rounds across ascents.
        accepted_moves: total accepted LAHC moves.
        noise_prunes: direction blocks issued by the noise detector.
        mi_full_searches: from-scratch k-NN searches in the sliding engine
            (incremental variants only).
        mi_incremental_updates: constant-time neighbor-set updates
            (incremental variants only).
        workspace_builds: stacked passes of the batch kernel
            (:func:`repro.mi.batch.ksg_batch`): one per window size per
            scored batch, more when a size group is split into chunks.
        workspace_hits: batch-scored windows that shared a stacked pass
            with an earlier window; ``workspace_builds + workspace_hits``
            is the number of windows scored in batches.
        segments: timeline segments the search ran over (0 for a classic
            unsegmented search, the span count for a segmented one; see
            :mod:`repro.analysis.segmented`).
        stitch_dedups: duplicate windows dropped by the stitcher because
            two segments found the same window in an overlap zone.
        stitch_rescores: overlap-zone windows rescored on the whole
            series by the stitcher for cross-segment conflict resolution.
        coarse_windows_evaluated: windows scored on PAA-downsampled
            levels during a coarse-to-fine pre-pass
            (:mod:`repro.analysis.multiscale`); 0 for exhaustive search.
        refined_cells: full-resolution ``(region, delay band)`` cells the
            refinement stage actually searched (after merging overlaps).
        cells_pruned: coarse timeline tiles the pre-pass ruled out, i.e.
            regions the exhaustive search would have scanned but the
            multiscale search never touched at full resolution.
        full_windows_evaluated: windows scored by the full-resolution
            estimator.  For exhaustive search this equals
            ``windows_evaluated``; for multiscale it is the quantity the
            pruning ratio is measured on.
        serial_fallback: True when a parallel request (``n_jobs > 1``)
            was served serially because the host has a single CPU and
            pool dispatch would only add overhead.
        phase_seconds: wall-clock seconds per search phase, keyed by the
            canonical phase names of
            :class:`repro.analysis.planner.Phase` (``seeding`` /
            ``lahc`` / ``scoring`` / ``stitch`` / ``coarse`` /
            ``refine``), for ``tycos-search --profile``.  This module
            spells the names as literals because core must not import
            the analysis layer; the planner tests pin the spellings.
        plan: compact spec of the executed
            :class:`~repro.analysis.planner.SearchPlan` (e.g.
            ``"segments=4,coarse=8"``), recorded by the plan executor;
            empty for a direct ``_search_whole`` call.
        runtime_seconds: wall-clock time of the search.
    """

    windows_evaluated: int = 0
    cache_hits: int = 0
    restarts: int = 0
    lahc_iterations: int = 0
    accepted_moves: int = 0
    noise_prunes: int = 0
    mi_full_searches: int = 0
    mi_incremental_updates: int = 0
    workspace_builds: int = 0
    workspace_hits: int = 0
    segments: int = 0
    stitch_dedups: int = 0
    stitch_rescores: int = 0
    coarse_windows_evaluated: int = 0
    refined_cells: int = 0
    cells_pruned: int = 0
    full_windows_evaluated: int = 0
    serial_fallback: bool = False
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    plan: str = ""
    runtime_seconds: float = 0.0

    def add_phase(self, name: str, seconds: float) -> None:
        """Accumulate wall-clock time into one named phase."""
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds


@dataclass
class TycosResult:
    """Windows found by a search plus run statistics."""

    windows: List[WindowResult] = field(default_factory=list)
    stats: SearchStats = field(default_factory=SearchStats)

    def __len__(self) -> int:
        return len(self.windows)

    def delays(self) -> List[int]:
        """Delays of all extracted windows."""
        return [r.window.delay for r in self.windows]

    def delay_range(self) -> Optional[Tuple[int, int]]:
        """(min, max) delay over extracted windows, or None when empty."""
        if not self.windows:
            return None
        ds = self.delays()
        return (min(ds), max(ds))


class Tycos:
    """Configurable TYCOS search engine.

    Args:
        config: search parameters.
        use_noise: enable the Section-6 noise theory (the "N" in LN/LMN).
        use_incremental: enable the Section-7 incremental MI computation
            (the "M" in LM/LMN).
        overlap_policy: how the result set resolves overlapping windows.

    Each delta-neighborhood ring and each seeding delay grid is scored
    through one batched :meth:`BatchScorer.value_many` call, so
    equal-size windows of any delay share one stacked numpy pass.
    """

    def __init__(
        self,
        config: TycosConfig,
        use_noise: bool = True,
        use_incremental: bool = True,
        overlap_policy: OverlapPolicy = OverlapPolicy.CONTAINMENT,
    ) -> None:
        self.config = config
        self.use_noise = use_noise
        self.use_incremental = use_incremental
        self.overlap_policy = overlap_policy

    @property
    def name(self) -> str:
        """Paper-style variant name (TYCOS_L / _LN / _LM / _LMN)."""
        suffix = "L"
        if self.use_incremental:
            suffix += "M"
        if self.use_noise:
            suffix += "N"
        return f"TYCOS_{suffix}"

    # ------------------------------------------------------------------ #

    def search(
        self,
        x: AnyArray,
        y: AnyArray,
        *,
        n_segments: Optional[int] = None,
        n_jobs: int = 1,
        coarse_factor: Optional[int] = None,
        refine_margin: Optional[int] = None,
    ) -> TycosResult:
        """Find all correlated time delay windows of a pair (Algorithm 1/2).

        Args:
            x: first time series.
            y: second time series (same length).
            n_segments: shard the timeline into this many overlapping
                segments and run one independent restart loop per segment
                (default: ``config.n_segments``).  1 is the classic
                whole-series search; larger values change which restarts
                are attempted (each segment rescans from its own start)
                but never lose a feasible window to a boundary -- see the
                containment lemma in :mod:`repro.core.segmentation`.
            n_jobs: worker processes for the segments (``-1``: all
                cores).  1 runs the segments sequentially in-process --
                the reference stitcher whose output the parallel path
                reproduces bit-exactly for every worker count.
            coarse_factor: PAA aggregation factor of the coarse-to-fine
                pre-pass (default: ``config.coarse_factor``).  1 searches
                exhaustively; larger values first locate structure on a
                downsampled level and refine only the promising cells at
                full resolution (:mod:`repro.analysis.multiscale`).
                Reported scores are always full-resolution.
            refine_margin: samples added around each coarse hit before
                refining (default: ``config.refinement_margin()``).

        Returns:
            A :class:`TycosResult` whose windows all score at least
            ``config.sigma`` and respect the overlap policy.

        .. note::
            Since the planner refactor this method is a thin wrapper: it
            translates its legacy argument surface into a
            :class:`~repro.analysis.planner.SearchPlan` (via
            :func:`~repro.analysis.planner.plan_from_config`, which
            reproduces the historical dispatch precedence exactly) and
            hands execution to
            :func:`~repro.analysis.planner.execute_plan`.  Outputs are
            byte-identical to the pre-planner dispatch; pass a plan to
            ``execute_plan`` directly to reach the composed strategies
            this surface cannot spell.
        """
        # Imported lazily: core stays importable without the analysis
        # layer, exactly as the pre-planner strategy dispatch did.
        from repro.analysis.planner import execute_plan, plan_from_config

        plan = plan_from_config(
            self.config,
            n_segments=n_segments,
            coarse_factor=coarse_factor,
            refine_margin=refine_margin,
        )
        return execute_plan(x, y, engine=self, plan=plan, n_jobs=n_jobs)

    def _search_whole(
        self,
        x: AnyArray,
        y: AnyArray,
        scan_hook: Optional[Callable[[int], Optional[int]]] = None,
    ) -> TycosResult:
        """One whole-series restart loop (the body of a plain :meth:`search`).

        ``scan_hook`` lets a caller *skip* restart positions: it receives
        each prospective scan position and returns the next allowed one
        (``None`` ends the scan).  The multiscale refinement uses it to
        jump over coarse-pruned regions while keeping every surviving
        restart bit-identical to the exhaustive search's -- see
        :mod:`repro.analysis.multiscale`.
        """
        started = time.perf_counter()
        cfg = self.config
        pair = PairView(x, y, jitter=cfg.jitter, seed=cfg.seed)
        if contracts.checks_enabled():
            contracts.check_series_shape(pair.x, pair.y, where="Tycos.search")
        scorer = make_scorer(pair, cfg, incremental=self.use_incremental)
        detector = NoiseDetector(scorer=scorer, config=cfg, n=pair.n) if self.use_noise else None
        accepted = ResultSet(policy=self.overlap_policy)
        stats = SearchStats()

        def sigma_of(value: float) -> bool:
            return value >= cfg.sigma

        self._drive(pair, scorer, detector, stats, sigma_of, accepted.insert, scan_hook)

        stats.windows_evaluated = scorer.evaluations
        stats.cache_hits = scorer.cache_hits
        stats.workspace_builds = scorer.workspace_builds
        stats.workspace_hits = scorer.workspace_hits
        stats.full_windows_evaluated = scorer.evaluations
        if detector is not None:
            stats.noise_prunes = detector.prunes
        if isinstance(scorer, IncrementalScorer):
            stats.mi_full_searches = scorer.engine.full_searches
            stats.mi_incremental_updates = scorer.engine.incremental_updates
        stats.runtime_seconds = time.perf_counter() - started
        return TycosResult(windows=accepted.results(), stats=stats)

    def search_topk(self, x: AnyArray, y: AnyArray, k_top: int) -> TycosResult:
        """Top-K variant (Section 6.3.2): keep the K best windows found.

        The effective sigma starts at the first window's score and tightens
        as the top-K list fills, so no absolute threshold is needed.
        """
        started = time.perf_counter()
        cfg = self.config
        pair = PairView(x, y, jitter=cfg.jitter, seed=cfg.seed)
        if contracts.checks_enabled():
            contracts.check_series_shape(pair.x, pair.y, where="Tycos.search_topk")
        scorer = make_scorer(pair, cfg, incremental=self.use_incremental)
        detector = NoiseDetector(scorer=scorer, config=cfg, n=pair.n) if self.use_noise else None
        stats = SearchStats()
        topk = TopKFilter(capacity=k_top)

        def sigma_of(value: float) -> bool:
            return value > topk.sigma or len(topk) < k_top

        def accept(result: WindowResult, value: float) -> bool:
            return topk.offer(result.window, value)

        self._drive(pair, scorer, detector, stats, sigma_of, accept)

        stats.windows_evaluated = scorer.evaluations
        stats.cache_hits = scorer.cache_hits
        stats.workspace_builds = scorer.workspace_builds
        stats.workspace_hits = scorer.workspace_hits
        stats.full_windows_evaluated = scorer.evaluations
        if detector is not None:
            stats.noise_prunes = detector.prunes
        if isinstance(scorer, IncrementalScorer):
            stats.mi_full_searches = scorer.engine.full_searches
            stats.mi_incremental_updates = scorer.engine.incremental_updates
        stats.runtime_seconds = time.perf_counter() - started
        windows = []
        for w, _ in topk.windows():
            score = scorer.score(w)
            windows.append(WindowResult(window=w, mi=score.mi, nmi=score.nmi))
        return TycosResult(windows=windows, stats=stats)

    # ------------------------------------------------------------------ #

    def _drive(
        self,
        pair: PairView,
        scorer: BatchScorer,
        detector: Optional[NoiseDetector],
        stats: SearchStats,
        passes_threshold: Callable[[float], bool],
        accept: Callable[[WindowResult, float], bool],
        scan_hook: Optional[Callable[[int], Optional[int]]] = None,
    ) -> None:
        """The restart loop shared by the fixed-sigma and top-K searches.

        Each restart draws a fresh LAHC history generator seeded from
        ``(config.seed, scan_from)``, so an ascent is a pure function of
        its restart position and the pair: skipping some restarts (the
        multiscale refinement's ``scan_hook``) cannot perturb the ones
        that remain.  ``scan_hook`` maps each prospective scan position
        to the next allowed one (monotonically non-decreasing; ``None``
        stops the scan); ``None`` hook means scan everything.
        """
        cfg = self.config
        n = pair.n
        band = cfg.delay_bounds() if cfg.delay_band is not None else None
        seed_base = cfg.seed & 0xFFFFFFFFFFFFFFFF
        scan_from = 0
        while True:
            if scan_hook is not None:
                jumped = scan_hook(scan_from)
                if jumped is None:
                    break
                if jumped < scan_from:
                    raise ValueError(
                        f"scan_hook must not move backwards: {scan_from} -> {jumped}"
                    )
                scan_from = jumped
            if scan_from + cfg.s_min - 1 >= n:
                break
            seed_started = time.perf_counter()
            w0 = self._initial_window(scorer, n, scan_from, detector)
            if w0 is None:
                stats.add_phase("seeding", time.perf_counter() - seed_started)
                break
            v0 = scorer.value(w0)
            stats.add_phase("seeding", time.perf_counter() - seed_started)
            if detector is not None:
                detector.reset()

            if isinstance(scorer, IncrementalScorer):
                scorer.follow_delay(w0.delay)
            last_seen: List[Optional[TimeDelayWindow]] = [None]

            def candidates(
                current: TimeDelayWindow, idle: int
            ) -> List[Tuple[TimeDelayWindow, float]]:
                if last_seen[0] != current:
                    if isinstance(scorer, IncrementalScorer):
                        scorer.follow_delay(current.delay)
                    if detector is not None:
                        detector.reset()
                        detector.inspect(current, scorer.value(current))
                    last_seen[0] = current
                blocked = frozenset(detector.blocked) if detector is not None else frozenset()
                nbs = neighborhood(
                    current,
                    radius=1 + idle,
                    delta=cfg.delta,
                    n=n,
                    s_min=cfg.s_min,
                    s_max=cfg.s_max,
                    td_max=cfg.td_max,
                    blocked=blocked,
                )
                if band is not None:
                    nbs = [nb for nb in nbs if band[0] <= nb.window.delay <= band[1]]
                # Evaluate same-delay candidates consecutively so the
                # incremental scorer's on-trajectory diffs chain between
                # adjacent windows instead of ping-ponging across the ring.
                nbs.sort(key=lambda nb: (nb.window.delay, nb.window.start, nb.window.end))
                score_started = time.perf_counter()
                ring = [nb.window for nb in nbs]
                scored = list(zip(ring, scorer.value_many(ring)))
                stats.add_phase("scoring", time.perf_counter() - score_started)
                return scored

            lahc = LateAcceptanceHillClimbing(
                cfg.history_length,
                cfg.max_idle,
                np.random.default_rng([seed_base, scan_from]),
            )
            scoring_before = stats.phase_seconds.get("scoring", 0.0)
            ascent_started = time.perf_counter()
            ascent = lahc.search(w0, v0, candidates)
            ascent_wall = time.perf_counter() - ascent_started
            scored_during = stats.phase_seconds.get("scoring", 0.0) - scoring_before
            stats.add_phase("lahc", ascent_wall - scored_during)
            stats.restarts += 1
            stats.lahc_iterations += ascent.iterations
            stats.accepted_moves += ascent.accepted_moves

            best, best_value = ascent.best, ascent.best_value
            if passes_threshold(best_value) and self._is_significant(pair, best, scorer):
                score = scorer.score(best)
                if contracts.checks_enabled():
                    contracts.check_window_feasible(
                        best, n=n, s_min=cfg.s_min, s_max=cfg.s_max,
                        td_max=cfg.td_max, where="Tycos accepted window",
                    )
                    contracts.check_mi_finite(score.mi, where="Tycos accepted window")
                    contracts.check_nmi_range(score.nmi, where="Tycos accepted window")
                accept(WindowResult(window=best, mi=score.mi, nmi=score.nmi), best_value)
                scan_from = max(scan_from + cfg.s_min, best.end + 1, w0.end + 1)
            else:
                scan_from = max(scan_from + cfg.s_min, w0.end + 1)

    def _is_significant(
        self, pair: PairView, window: TimeDelayWindow, scorer: BatchScorer
    ) -> bool:
        """Permutation test: the window's MI must beat every within-window
        shuffle of Y (disabled when ``significance_permutations`` is 0)."""
        b = self.config.significance_permutations
        if b == 0:
            return True
        xw, yw = pair.extract(window)
        # Reuse the scorer's estimator: it already carries the configured
        # k and the process-wide digamma table, so the permutation MIs
        # need no cold per-window estimator.
        estimator = scorer.estimator
        observed = scorer.score(window).mi
        rng = np.random.default_rng(self.config.seed + window.start)
        for _ in range(b):
            if estimator.mi(xw, rng.permutation(yw)) >= observed:
                return False
        return True

    def _initial_window(
        self,
        scorer: BatchScorer,
        n: int,
        scan_from: int,
        detector: Optional[NoiseDetector],
    ) -> Optional[TimeDelayWindow]:
        cfg = self.config
        if detector is not None:
            return find_initial_window(scorer, cfg, n, scan_from)
        if scan_from + cfg.s_min - 1 >= n:
            return None
        # Plain variants seed with the best minimal window at scan_from over
        # the coarse delay grid (see TycosConfig.init_delay_step), scored in
        # one batched pass; ties keep the earliest grid delay, exactly as
        # the scalar loop did.
        end = scan_from + cfg.s_min - 1
        candidates = [
            TimeDelayWindow(start=scan_from, end=end, delay=tau)
            for tau in cfg.delay_grid()
            if scan_from + tau >= 0 and end + tau < n
        ]
        if not candidates:
            return None
        values = scorer.value_many(candidates)
        best: Optional[TimeDelayWindow] = None
        best_value = -np.inf
        for cand, value in zip(candidates, values):
            if value > best_value:
                best, best_value = cand, value
        return best


# Variant factories matching the paper's naming -------------------------- #


def tycos_l(config: TycosConfig) -> Tycos:
    """Plain LAHC search (Section 5.2)."""
    return Tycos(config, use_noise=False, use_incremental=False)


def tycos_ln(config: TycosConfig) -> Tycos:
    """LAHC + noise theory (Section 6)."""
    return Tycos(config, use_noise=True, use_incremental=False)


def tycos_lm(config: TycosConfig) -> Tycos:
    """LAHC + efficient incremental MI computation (Section 7)."""
    return Tycos(config, use_noise=False, use_incremental=True)


def tycos_lmn(config: TycosConfig) -> Tycos:
    """LAHC + noise theory + incremental MI (the full system)."""
    return Tycos(config, use_noise=True, use_incremental=True)
