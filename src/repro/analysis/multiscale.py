"""Coarse-to-fine multi-scale search: prune at low resolution, score at full.

After the kernel work of PRs 2-4 the dominant cost of a search is *how
many* full-resolution KSG estimates it makes, not how fast each one is.
The multiscale strategy attacks that count with a two-stage search:

1. **Coarse pre-pass.**  The jittered pair is PAA-downsampled by
   ``coarse_factor`` (:mod:`repro.core.pyramid`) and the unchanged LAHC
   restart loop runs on the coarse level under a *relaxed* threshold
   (``sigma * coarse_sigma_ratio`` -- block-mean aggregation dilutes MI,
   so the coarse pass must under-bid to avoid false dismissals; KSG
   estimates are rank-stable under this kind of sample reduction, which
   is what makes a coarse ranking trustworthy as a *locator*).
2. **Restricted-scan refinement.**  Each coarse hit maps -- exactly, via
   the pyramid containment lemma -- to a full-resolution
   ``(region, delay band)`` :class:`~repro.core.pyramid.RefinementCell`,
   expanded by ``refine_margin`` to absorb coarse LAHC positioning
   error; overlapping cells merge.  Then **the plain full-resolution
   search itself** runs over the whole pair -- same scorer, same seeds,
   same LAHC, same delay grid -- with one change: restart positions that
   fall outside every cell are skipped, jumping the scan to the next
   cell while preserving the restart phase (``scan_from mod s_min``).
   Everything outside the surviving cells is never probed at full
   resolution; ``stats.cells_pruned`` counts what was skipped and
   ``stats.full_windows_evaluated`` is the quantity the pruning ratio
   is measured on.

**Why the surviving windows are bit-identical to exhaustive search.**
The refinement is not a rescored approximation of the plain search --
it *is* the plain search minus some restarts.  Every restart is a pure
function of its scan position: the seed probe, the noise walk, the LAHC
history generator (seeded per-restart from ``(config.seed,
scan_from)``), and every candidate score are computed against the same
whole-pair scorer the exhaustive search uses.  For the plain-seeded
variants (``use_noise=False``) a restart in a quiet region always
advances the scan by exactly ``s_min``, so the scan phase is invariant
across a pruned gap and the phase-preserving jump lands the refinement
on *precisely* the scan positions the exhaustive search would reach --
the two searches then execute identical restart sequences wherever it
matters.  Exhaustive and multiscale results can therefore differ only
when the coarse pass dismissed a region outright, and the relaxed
coarse threshold exists to make that rare.  With the default margin (one
maximal window footprint, ``s_max + td_max``) the tracked benchmark
recovers 100% of the exhaustive search's findings at identical scores
while evaluating a fraction of the windows (``BENCH_PR5.json``);
``coarse_factor=1`` bypasses both stages and reproduces plain
``Tycos.search`` byte-exactly.

Since the planner refactor the machinery itself -- the coarse engine,
the cell mapping, the phase-preserving scan hook -- lives in
:mod:`repro.analysis.planner` as the executor of a
:class:`~repro.analysis.planner.CoarsenStage`; this module is the
compatibility entry point that builds the classic
``Coarsen -> Scan -> Rescore`` plan (optionally with a segmented coarse
pre-pass) and executes it, byte-identical to the pre-planner
implementation (pinned by ``tests/analysis/test_planner.py``).  The
planner also composes the stage the other way around -- a coarse-to-fine
search *inside* each timeline segment
(:func:`~repro.analysis.planner.composed_plan`).
"""

from __future__ import annotations

from typing import Optional

from repro._types import AnyArray

# Re-exported for callers and tests that exercise the restricted-scan
# hook directly; the implementation moved to the planner.
from repro.analysis.planner import _cell_scan_hook  # noqa: F401
from repro.analysis.planner import execute_plan, multiscale_plan
from repro.core.config import TycosConfig
from repro.core.tycos import Tycos, TycosResult

__all__ = ["search_multiscale"]


def search_multiscale(
    x: AnyArray,
    y: AnyArray,
    config: Optional[TycosConfig] = None,
    *,
    engine: Optional[Tycos] = None,
    coarse_factor: Optional[int] = None,
    refine_margin: Optional[int] = None,
    n_segments: Optional[int] = None,
    n_jobs: int = 1,
    use_shared_memory: bool = True,
    force_parallel: bool = False,
) -> TycosResult:
    """Search one pair coarse-to-fine: locate on a PAA level, refine exactly.

    The public entry point is ``Tycos.search(..., coarse_factor=N)``,
    which builds the same plan; call this directly to reach the transport
    knobs or to drive a preconfigured engine.

    Args:
        x: first time series.
        y: second time series (same length).
        config: search parameters (ignored when ``engine`` is given).
        engine: optional preconfigured engine whose variant flags and
            overlap policy both stages inherit (default: TYCOS_LMN over
            ``config``).
        coarse_factor: PAA samples per coarse cell (default:
            ``config.coarse_factor``).  1 bypasses both stages and
            reproduces the plain search byte-exactly.
        refine_margin: full-resolution samples added on each side of a
            coarse hit's footprint (default:
            ``config.refinement_margin()``, i.e. ``s_max + td_max``).
            The margin is the refinement's warm-up zone: the restricted
            scan replicates the exhaustive search's restarts throughout
            it, so an exhaustive restart would have to carry an
            acceptance across a full maximal-window footprint of pruned
            noise before the two searches could disagree.  Smaller
            margins prune harder and weaken that guarantee.
        n_segments: shard the *coarse* pre-pass into this many
            overlapping segments (default: ``config.n_segments``),
            composing the pre-pass with the segment stage.
        n_jobs: worker processes for the coarse segments (``-1``: all
            cores).  The refinement stage is sequential by design: its
            restart phase chains through the timeline, which is what
            makes it reproduce the exhaustive scan's restart sequence.
        use_shared_memory: ship coarse segments to pool workers through
            one shared-memory block (the default) rather than pickling.
        force_parallel: run pools even on a 1-core host, where the
            default is the serial fallback recorded in
            ``stats.serial_fallback``.

    Returns:
        A :class:`~repro.core.tycos.TycosResult` whose windows carry
        full-resolution scores bit-identical to the exhaustive search's,
        and whose ``stats`` expose the pruning ledger:
        ``coarse_windows_evaluated`` / ``refined_cells`` /
        ``cells_pruned`` / ``full_windows_evaluated`` plus per-phase
        wall time in ``phase_seconds`` (``coarse`` and ``refine`` are
        stage walls; ``seeding`` / ``scoring`` / ``lahc`` break the
        refinement stage down).

    Raises:
        ValueError: when neither ``config`` nor ``engine`` is given.
    """
    if engine is None:
        if config is None:
            raise ValueError("search_multiscale needs a config or an engine")
        engine = Tycos(config)
    cfg = engine.config
    factor = cfg.coarse_factor if coarse_factor is None else coarse_factor
    if factor < 1:
        raise ValueError(f"coarse_factor must be >= 1, got {factor}")
    segments = cfg.n_segments if n_segments is None else n_segments
    if segments < 1:
        raise ValueError(f"n_segments must be >= 1, got {segments}")
    margin = cfg.refinement_margin() if refine_margin is None else refine_margin
    if margin < 0:
        raise ValueError(f"refine_margin must be >= 0, got {margin}")

    if factor == 1:
        flat = Tycos(
            cfg.scaled(coarse_factor=1, refine_margin=None),
            use_noise=engine.use_noise,
            use_incremental=engine.use_incremental,
            overlap_policy=engine.overlap_policy,
        )
        return flat.search(x, y, n_segments=segments, n_jobs=n_jobs)

    return execute_plan(
        x,
        y,
        engine=engine,
        plan=multiscale_plan(factor, refine_margin=refine_margin, n_segments=segments),
        n_jobs=n_jobs,
        use_shared_memory=use_shared_memory,
        force_parallel=force_parallel,
    )
