"""The three benchmark workloads: inputs from a seed, one call, a truth grade.

Each workload builds its inputs from ``--seed`` alone; the program only
ever sees the generated arrays (search configurations are fixed).  Calls
go through module attributes looked up at call time, so the tracer's
wrappers (:mod:`spans`) see them.

=================  ====================================================
``paper_pair``     the paper's Section 8.3 pair: all nine Table-1
                   relations planted twice (delays +20 and -15),
                   searched by ``tycos_lmn`` with the Fig. 9 config.
                   Exercises scoring, LAHC, delta-rings, noise seeding
                   and the permutation test; bypasses screen, store,
                   plan stages and pool.
``episodic_plan``  a 16,000-sample AR(1) pair with six delayed-copy
                   episodes, searched through the composed
                   ``segments=4,coarse=8`` plan on two workers.
                   Exercises planner, pyramid, segmentation, stitch and
                   the pool (a few long tasks).
``collection_scan``  240 series x 400 samples, 4 of them lag-shifted
                   copies of one walk (6 planted pairs out of 28,680),
                   written once to a ``SeriesStore`` and scanned by
                   ``cascade_scan`` on two workers.  Exercises store,
                   screen state, cascade and the pool (many short
                   tasks).
=================  ====================================================
"""

from __future__ import annotations

import shutil
from itertools import combinations
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import repro.analysis.cascade as cascade_mod
import repro.analysis.planner as planner_mod
import repro.analysis.screen_state as screen_state_mod
import repro.analysis.store as store_mod
import repro.core.tycos as tycos_mod
from repro.core.config import TycosConfig
from repro.data.composer import compose
from repro.data.relations import RELATIONS, relation_names
from repro.experiments.fig9 import make_config

from truth import Grade, grade_pairs, grade_windows

__all__ = ["Workload", "WORKLOADS"]

#: Workers of the pooled workloads (the reference host has two cores).
POOL_JOBS = 2


class Workload:
    """One benchmark workload.

    Subclasses set ``name``/``why``/``pooled`` and implement
    :meth:`run` and :meth:`grade`; :meth:`setup` is the program work done
    once before timing (beyond the package import).
    """

    name = ""
    why = ""
    #: Runs a process pool, so a 1-worker run gives the parallel efficiency.
    pooled = False
    #: Has program work to do before timing (see :meth:`setup`).
    has_setup = False
    #: Operations one iteration attempts (one search, or one per pair).
    operations = 1
    #: Full-resolution config (for the planner's tile arithmetic).
    config: TycosConfig

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir

    def setup(self, repeat: int) -> None:
        """Program work before the first timed iteration."""

    def run(self, n_jobs: Optional[int] = None) -> Any:
        raise NotImplementedError

    def grade(self, output: Any) -> Grade:
        raise NotImplementedError

    def counters(self, output: Any) -> Dict[str, float]:
        """Layer counters read from the output's public report fields (a
        pair search's ``SearchStats`` reach the trace through its spans)."""
        return {}

    def store_bytes(self) -> int:
        """Bytes the set-up wrote to a series store."""
        return 0

    def cleanup(self) -> None:
        """Remove what setup wrote."""


class PaperPair(Workload):
    name = "paper_pair"
    why = (
        "the paper's Sec. 8.3 pair searched by tycos_lmn: scoring, LAHC, rings, "
        "noise seeding and permutations work; screen, store, plan stages and pool do not"
    )

    #: Minimum share of the 16 dependent plantings a search must recover.
    MIN_RECALL = 0.75

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        plan = [
            (name, 150, delay if RELATIONS[name].dependent else 0)
            for delay in (20, -15)
            for name in relation_names()
        ]
        self.pair = compose(plan, rng, gap=100)
        self.planted = [(p.start, p.end, p.delay) for p in self.pair.planted if p.dependent]
        self.config = make_config(self.pair.n)

    def run(self, n_jobs: Optional[int] = None) -> Any:
        return tycos_mod.tycos_lmn(self.config).search(self.pair.x, self.pair.y)

    def grade(self, output: Any) -> Grade:
        windows = [(r.window.start, r.window.end, r.window.delay) for r in output.windows]
        return grade_windows(windows, self.planted, self.MIN_RECALL)


def _ar1(rng: np.random.Generator, n: int, phi: float = 0.9) -> np.ndarray:
    shocks = rng.normal(size=n)
    out = np.empty(n)
    acc = 0.0
    for i in range(n):
        acc = phi * acc + shocks[i]
        out[i] = acc
    return out


class EpisodicPlan(Workload):
    name = "episodic_plan"
    why = (
        "16k-sample AR(1) pair, six delayed-copy episodes, composed segments=4,coarse=8 "
        "plan on 2 workers: planner, pyramid, segmentation, stitch and pool work"
    )
    pooled = True
    LENGTH = 16_000
    PLAN = "segments=4,coarse=8"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        x = _ar1(rng, self.LENGTH)
        y = _ar1(rng, self.LENGTH)
        slot = self.LENGTH // 6
        self.planted: List[Tuple[int, int, int]] = []
        for k, delay in enumerate(rng.permutation([5, -7, -3, 5, -7, -3])):
            length = int(rng.integers(280, 321))
            start = k * slot + int(rng.integers(100, slot - length - 100))
            d = int(delay)
            y[start + d : start + d + length] = (
                x[start : start + length] + 0.2 * rng.normal(size=length)
            )
            self.planted.append((start, start + length - 1, d))
        self.x, self.y = x, y
        self.config = TycosConfig(
            sigma=0.75,
            s_min=32,
            s_max=96,
            td_max=8,
            jitter=1e-6,
            seed=3,
            init_delay_step=1,
        )

    def run(self, n_jobs: Optional[int] = None) -> Any:
        return planner_mod.execute_plan(
            self.x,
            self.y,
            engine=tycos_mod.tycos_lmn(self.config),
            plan=planner_mod.parse_plan_spec(self.PLAN),
            n_jobs=POOL_JOBS if n_jobs is None else n_jobs,
        )

    def grade(self, output: Any) -> Grade:
        windows = [(r.window.start, r.window.end, r.window.delay) for r in output.windows]
        return grade_windows(windows, self.planted, min_recall=1.0)


class CollectionScan(Workload):
    name = "collection_scan"
    why = (
        "240x400 collection, 6 planted pairs of 28,680, cascade_scan from a SeriesStore "
        "on 2 workers: store, screen state, cascade and pool (many short tasks) work"
    )
    pooled = True
    has_setup = True
    N_SERIES = 240
    LENGTH = 400
    COUPLED = 4
    SCREEN_WINDOW = 200

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        names = [f"s{i:03d}" for i in range(self.N_SERIES)]
        self.series: Dict[str, np.ndarray] = {
            name: rng.normal(size=self.LENGTH) for name in names
        }
        base = np.cumsum(rng.normal(size=self.LENGTH + 8))
        coupled = sorted(rng.choice(self.N_SERIES, self.COUPLED, replace=False))
        lags = rng.choice(9, self.COUPLED, replace=False)
        for index, lag in zip(coupled, lags):
            self.series[names[index]] = base[lag : lag + self.LENGTH] + rng.normal(
                scale=0.15, size=self.LENGTH
            )
        self.planted = list(combinations([names[i] for i in coupled], 2))
        self.config = TycosConfig(
            sigma=0.5, s_min=24, s_max=48, td_max=8, significance_permutations=10
        )
        self.operations = len(names) * (len(names) - 1) // 2
        self.store_path: Optional[Path] = None

    def setup(self, repeat: int) -> None:
        """Write the store and build its screen-state cache (done once per
        repeat into a fresh directory; the last one is scanned)."""
        path = self.workdir / f"store-{repeat}"
        if path.exists():
            shutil.rmtree(path)
        store = store_mod.SeriesStore.write(path, self.series)
        geometry = screen_state_mod.ScreenGeometry(
            length=self.LENGTH, window=self.SCREEN_WINDOW, td_max=self.config.td_max
        )
        store.screen_states(geometry)
        if self.store_path is not None:
            shutil.rmtree(self.store_path)
        self.store_path = path

    def store_bytes(self) -> int:
        assert self.store_path is not None
        return sum(f.stat().st_size for f in self.store_path.iterdir() if f.is_file())

    def run(self, n_jobs: Optional[int] = None) -> Any:
        assert self.store_path is not None, "setup() writes the store"
        store = store_mod.SeriesStore.open(self.store_path)
        return cascade_mod.cascade_scan(
            store.series(),
            self.config,
            n_jobs=POOL_JOBS if n_jobs is None else n_jobs,
            store_path=self.store_path,
            screen_window=self.SCREEN_WINDOW,
        )

    def grade(self, output: Any) -> Grade:
        correlated = [(f.source, f.target) for f in output.correlated()]
        return grade_pairs(
            correlated, self.planted, scanned=output.pairs_screened,
            failures=len(output.failures),
        )

    def counters(self, output: Any) -> Dict[str, float]:
        return {
            "pairs_screened": float(output.pairs_screened),
            "pairs_pruned": float(output.pairs_pruned_fft + output.pairs_pruned_nmi),
            "pairs_searched": float(output.pairs_searched),
            "pairs_correlated": float(len(output.correlated())),
            "pair_failures": float(len(output.failures)),
        }

    def cleanup(self) -> None:
        if self.store_path is not None and self.store_path.exists():
            shutil.rmtree(self.store_path)


WORKLOADS: Dict[str, type] = {w.name: w for w in (PaperPair, EpisodicPlan, CollectionScan)}
