"""The layer table: which program calls each layer's spans wrap, and the
per-layer metrics derived from a traced iteration.

Layers use the program's module names.  Every target is a public
function or method, with four private exceptions that are layer
boundaries no public name marks: ``Tycos._search_whole``, where plan
execution enters the restart loop (without it the whole search would be
charged to the planner), and the three pool task functions
(``_span_task``, ``_screen_block_task``, ``_scan_chunk``), so that each
task a worker runs is one span tree and no worker time goes unrecorded.
The ``repro.mi`` kernels are reached only through the scorer, so their
time stays inside ``thresholds.self_s``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from spans import Span, Target, self_times

__all__ = ["TARGETS", "PER_LAYER", "STAGE_MODULES", "iteration_metrics", "bypass_violations"]


def _stats(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> Dict[str, float]:
    s = result.stats
    return {
        "windows_evaluated": s.windows_evaluated,
        "cache_hits": s.cache_hits,
        "restarts": s.restarts,
        "lahc_iterations": s.lahc_iterations,
        "accepted_moves": s.accepted_moves,
        "noise_prunes": s.noise_prunes,
        "mi_full_searches": s.mi_full_searches,
        "mi_incremental_updates": s.mi_incremental_updates,
        "workspace_builds": s.workspace_builds,
        "workspace_hits": s.workspace_hits,
        "stitch_rescores": s.stitch_rescores,
        "coarse_windows_evaluated": s.coarse_windows_evaluated,
        "cells_pruned": s.cells_pruned,
    }


def _result_len(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> Dict[str, float]:
    return {"windows": len(result)}


def _tasks(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> Dict[str, float]:
    return {"tasks": len(args[1])}


def _pairs(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> Dict[str, float]:
    return {"pairs": len(args[1])}


def _level_input(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> Dict[str, float]:
    return {"n": args[0].n}


#: Modules of the planner's stage layer (bypassed by a plain plan).
STAGE_MODULES = ("repro.core.pyramid", "repro.core.segmentation")

#: Labels whose results carry a search's final ``SearchStats``.
_ENTRY_LABELS = ("repro.core.tycos:Tycos.search", "repro.analysis.planner:execute_plan")

TARGETS: List[Target] = [
    Target("tycos", "repro.core.tycos", "Tycos.search", keep=True, extract=_stats),
    Target("tycos", "repro.core.tycos", "Tycos.search_topk"),
    Target("tycos", "repro.core.tycos", "Tycos._search_whole", keep=True),
    Target("noise", "repro.core.noise", "find_initial_window", keep=True),
    Target("noise", "repro.core.noise", "is_noise"),
    Target("noise", "repro.core.noise", "NoiseDetector.inspect"),
    Target("noise", "repro.core.noise", "NoiseDetector.filter_neighbors"),
    Target("noise", "repro.core.noise", "NoiseDetector.reset"),
    Target("lahc", "repro.core.lahc", "LateAcceptanceHillClimbing.search"),
    Target("neighborhood", "repro.core.neighborhood", "neighborhood", keep=True, extract=_result_len),
    Target("thresholds", "repro.core.thresholds", "make_scorer"),
    Target("thresholds", "repro.core.thresholds", "BatchScorer.score"),
    Target("thresholds", "repro.core.thresholds", "BatchScorer.score_many"),
    Target("thresholds", "repro.core.thresholds", "BatchScorer.value"),
    Target("thresholds", "repro.core.thresholds", "BatchScorer.value_many"),
    Target("thresholds", "repro.core.thresholds", "BatchScorer.clear_cache"),
    Target("thresholds", "repro.core.thresholds", "IncrementalScorer.score"),
    Target("thresholds", "repro.core.thresholds", "IncrementalScorer.follow_delay"),
    Target("thresholds", "repro.core.thresholds", "TopKFilter.offer"),
    Target("planner", "repro.analysis.planner", "execute_plan", keep=True, extract=_stats),
    Target("planner", "repro.analysis.planner", "plan_from_config"),
    Target("planner", "repro.analysis.planner", "parse_plan_spec"),
    Target("planner", "repro.analysis.planner", "auto_plan"),
    Target("planner", "repro.analysis.planner", "_span_task", keep=True),
    Target("planner", "repro.core.pyramid", "build_level", keep=True, extract=_level_input),
    Target("planner", "repro.core.pyramid", "build_pyramid", keep=True),
    Target("planner", "repro.core.pyramid", "paa_downsample", keep=True),
    Target("planner", "repro.core.pyramid", "refinement_cell", keep=True),
    Target("planner", "repro.core.pyramid", "coarse_config", keep=True),
    Target("planner", "repro.core.segmentation", "segment_spans", keep=True),
    Target("planner", "repro.core.segmentation", "overlap_zones", keep=True),
    Target("parallel", "repro.analysis.parallel", "pooled_map", keep=True, extract=_tasks),
    Target("parallel", "repro.analysis.parallel", "scan_pairs_parallel"),
    Target("parallel", "repro.analysis.parallel", "_scan_chunk", keep=True),
    Target("parallel", "repro.analysis.parallel", "effective_workers"),
    Target("parallel", "repro.analysis.parallel", "resolve_n_jobs"),
    Target("parallel", "repro.analysis.parallel", "pack_series"),
    Target("parallel", "repro.analysis.parallel", "attach_series"),
    Target("pairwise", "repro.analysis.pairwise", "scan_pairs"),
    Target("pairwise", "repro.analysis.pairwise", "resolve_plan"),
    Target("cascade", "repro.analysis.cascade", "cascade_scan"),
    Target("cascade", "repro.analysis.cascade", "coarse_nmi_score"),
    Target("cascade", "repro.analysis.cascade", "fft_screen_score"),
    Target("cascade", "repro.analysis.cascade", "_screen_block_task", keep=True),
    Target("screen_state", "repro.analysis.screen_state", "build_screen_state", keep=True),
    Target("screen_state", "repro.analysis.screen_state", "build_screen_states"),
    Target("screen_state", "repro.analysis.screen_state", "batched_screen_scores", keep=True, extract=_pairs),
    Target("screen_state", "repro.analysis.screen_state", "pack_screen_state"),
    Target("screen_state", "repro.analysis.screen_state", "unpack_screen_state"),
    Target("store", "repro.analysis.store", "SeriesStore.write", keep=True),
    Target("store", "repro.analysis.store", "SeriesStore.open"),
    Target("store", "repro.analysis.store", "SeriesStore.series"),
    Target("store", "repro.analysis.store", "SeriesStore.fingerprint"),
    Target("store", "repro.analysis.store", "SeriesStore.screen_states", keep=True),
]

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("tycos.calls", "count"),
    ("tycos.self_s", "s"),
    ("tycos.restarts", "count"),
    ("noise.self_s", "s"),
    ("noise.seed_s", "s"),
    ("noise.prunes", "count"),
    ("lahc.self_s", "s"),
    ("lahc.iterations", "count"),
    ("lahc.accept_ratio", "ratio"),
    ("neighborhood.self_s", "s"),
    ("neighborhood.windows", "count"),
    ("thresholds.self_s", "s"),
    ("thresholds.windows", "count"),
    ("thresholds.windows_per_s", "1/s"),
    ("thresholds.cache_hit_ratio", "ratio"),
    ("thresholds.workspace_hit_ratio", "ratio"),
    ("mi.incremental_updates", "count"),
    ("mi.full_searches", "count"),
    ("planner.self_s", "s"),
    ("planner.stage_calls", "count"),
    ("planner.coarse_windows", "count"),
    ("planner.cells_pruned_ratio", "ratio"),
    ("planner.stitch_rescores", "count"),
    ("parallel.calls", "count"),
    ("parallel.pool_s", "s"),
    ("parallel.tasks", "count"),
    ("parallel.efficiency", "ratio"),
    ("pairwise.pairs_searched", "count"),
    ("pairwise.failures", "count"),
    ("cascade.self_s", "s"),
    ("cascade.prune_ratio", "ratio"),
    ("cascade.survivor_yield", "ratio"),
    ("screen_state.calls", "count"),
    ("screen_state.self_s", "s"),
    ("screen_state.pairs_per_s", "1/s"),
    ("store.calls", "count"),
    ("store.write_s", "s"),
    ("store.bytes_written", "B"),
    ("store.screen_cache_hits", "count"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.worker_processes", "count"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _ancestors(tree: Sequence[Span], index: int) -> Iterator[int]:
    parent = tree[index].parent
    while parent >= 0:
        yield parent
        parent = tree[parent].parent


def iteration_metrics(
    trees: Sequence[Sequence[Span]], output_counters: Dict[str, float], tile: int
) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration.

    Args:
        trees: the parent's iteration tree plus every worker tree merged
            for this iteration (each a span list indexed by ``parent``).
        output_counters: counters the workload read from its output
            (``PairwiseReport`` fields for a collection scan).
        tile: the planner's pruning tile, ``s_max + td_max`` of the
            full-resolution config.

    Returns:
        The metrics of :data:`PER_LAYER` that a single iteration defines
        (the run-level ``parallel.efficiency``, ``store.*`` set-up figures
        and ``trace.overhead`` are filled in by the runner).
    """
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    stats: Dict[str, float] = {}
    seed_s = pool_s = 0.0
    stage_calls = restart_loops = 0
    rings = tasks = pairs = tiles = cache_hits = 0
    for tree in trees:
        selfs = self_times(tree)
        # Spans that (re)built a screen state below them: not cache hits.
        building = {
            a
            for i, s in enumerate(tree)
            if s.label == "repro.analysis.screen_state:build_screen_state"
            for a in _ancestors(tree, i)
        }
        for i, span in enumerate(tree):
            self_s[span.layer] = self_s.get(span.layer, 0.0) + selfs[i]
            calls[span.layer] = calls.get(span.layer, 0) + 1
            label = span.label
            if label in _ENTRY_LABELS and not any(
                tree[a].label in _ENTRY_LABELS for a in _ancestors(tree, i)
            ):
                for key, value in span.counts.items():
                    stats[key] = stats.get(key, 0.0) + value
            if label.split(":")[0] in STAGE_MODULES:
                stage_calls += 1
            if label == "repro.core.tycos:Tycos._search_whole":
                restart_loops += 1
            elif label == "repro.core.noise:find_initial_window":
                seed_s += span.duration
            elif label == "repro.core.neighborhood:neighborhood":
                rings += span.counts.get("windows", 0)
            elif label == "repro.analysis.parallel:pooled_map":
                pool_s += span.duration
                tasks += span.counts.get("tasks", 0)
            elif label == "repro.analysis.screen_state:batched_screen_scores":
                pairs += span.counts.get("pairs", 0)
            elif label == "repro.core.pyramid:build_level":
                tiles += math.ceil(span.counts.get("n", 0) / tile)
            elif label == "repro.analysis.store:SeriesStore.screen_states":
                cache_hits += i not in building

    def st(key: str) -> float:
        return stats.get(key, 0.0)

    evaluated = st("windows_evaluated")
    searched = output_counters.get("pairs_searched", 0.0)
    screened = output_counters.get("pairs_screened", 0.0)
    return {
        "tycos.calls": restart_loops,
        "tycos.self_s": self_s.get("tycos", 0.0),
        "tycos.restarts": st("restarts"),
        "noise.self_s": self_s.get("noise", 0.0),
        "noise.seed_s": seed_s,
        "noise.prunes": st("noise_prunes"),
        "lahc.self_s": self_s.get("lahc", 0.0),
        "lahc.iterations": st("lahc_iterations"),
        "lahc.accept_ratio": _ratio(st("accepted_moves"), st("lahc_iterations")),
        "neighborhood.self_s": self_s.get("neighborhood", 0.0),
        "neighborhood.windows": rings,
        "thresholds.self_s": self_s.get("thresholds", 0.0),
        "thresholds.windows": evaluated,
        "thresholds.windows_per_s": _ratio(evaluated, self_s.get("thresholds", 0.0)),
        "thresholds.cache_hit_ratio": _ratio(st("cache_hits"), st("cache_hits") + evaluated),
        "thresholds.workspace_hit_ratio": _ratio(
            st("workspace_hits"), st("workspace_hits") + st("workspace_builds")
        ),
        "mi.incremental_updates": st("mi_incremental_updates"),
        "mi.full_searches": st("mi_full_searches"),
        "planner.self_s": self_s.get("planner", 0.0),
        "planner.stage_calls": stage_calls,
        "planner.coarse_windows": st("coarse_windows_evaluated"),
        "planner.cells_pruned_ratio": _ratio(st("cells_pruned"), tiles),
        "planner.stitch_rescores": st("stitch_rescores"),
        "parallel.calls": calls.get("parallel", 0),
        "parallel.pool_s": pool_s,
        "parallel.tasks": tasks,
        "pairwise.pairs_searched": searched,
        "pairwise.failures": output_counters.get("pair_failures", 0.0),
        "cascade.self_s": self_s.get("cascade", 0.0),
        "cascade.prune_ratio": _ratio(output_counters.get("pairs_pruned", 0.0), screened),
        "cascade.survivor_yield": _ratio(output_counters.get("pairs_correlated", 0.0), searched),
        "screen_state.calls": calls.get("screen_state", 0),
        "screen_state.self_s": self_s.get("screen_state", 0.0),
        "screen_state.pairs_per_s": _ratio(pairs, self_s.get("screen_state", 0.0)),
        "store.calls": calls.get("store", 0),
        "store.screen_cache_hits": cache_hits,
    }


#: Layers a plain single-pair search must not touch.
_PAPER_BYPASS = ("screen_state.calls", "store.calls", "parallel.calls", "planner.stage_calls")


def bypass_violations(workload: str, metrics: Dict[str, float]) -> List[str]:
    """Names of bypass predictions the traced run contradicts."""
    if workload != "paper_pair":
        return []
    return [name for name in _PAPER_BYPASS if metrics.get(name, 0.0) != 0]
