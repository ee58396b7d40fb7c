"""TYCOS benchmark runner.

Usage (from the repository root)::

    python3 tycosbench/run.py --workload paper_pair --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs it with layer spans recorded from outside the
program and reports the per-layer metrics.  Both check every output
against the generator's planted truth first.  The last line of standard
output is the result summary; the line before it is the full result
document (host facts, quartiles, samples), which ``--out FILE`` also
appends to ``FILE`` for ``compare.py``.

The end-to-end times are in reference-host seconds: a fixed,
program-independent probe job runs just before every timed interval, and
the median interval is scaled by ``PROBE_REFERENCE_S`` over the median
probe time.  On a shared host whose speed drifts by tens of percent over
minutes, raw wall clocks of the same code disagree between runs by more
than any useful bound; the probe slows down with the host and cancels
that drift.  Raw wall clocks and probe times are kept in the result
document.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for stores, worker span spools and exported traces.
WORK = ROOT / ".tycosbench"

#: Fresh-interpreter imports timed for ``setup_s`` (median reported).
IMPORT_REPEATS = 3
#: Workload set-ups timed for ``setup_s`` (median reported).
SETUP_REPEATS = 3

#: Loop steps of :func:`host_probe` (about 0.26 s on the reference host).
PROBE_STEPS = 16_000
#: Median :func:`host_probe` time on the reference host (2-core Intel Xeon
#: VM at 2.1 GHz, Python 3.11, numpy 2.4).  It fixes the unit of the
#: normalized times; changing it rescales every result.
PROBE_REFERENCE_S = 0.264

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import repro, repro.analysis; print(time.perf_counter() - t)"
)


def host_facts() -> Dict[str, Any]:
    """What a timing depends on besides the code: cores, CPU, versions."""
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": find_spec("numba") is not None,
        "platform": platform.platform(),
    }


def summarize(samples: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles, count, and the highest percentile with at least
    ten samples beyond it (``None`` when the run has too few)."""
    ordered = sorted(samples)
    n = len(ordered)
    q1, med, q3 = statistics.quantiles(ordered, n=4) if n > 1 else (ordered[0],) * 3
    tail = None
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - p / 100) >= 10:
            tail = {"percentile": p, "value": ordered[min(n - 1, int(n * p / 100))]}
            break
    return {"median": med, "q1": q1, "q3": q3, "n": n, "tail": tail, "samples": samples}


def host_probe() -> float:
    """Seconds a fixed job takes on this host right now.

    The job is shaped like window scoring -- a Python loop driving numpy on
    arrays of 64 points -- and uses nothing from the program, so a change
    to the program never moves it.
    """
    points = np.random.default_rng(0).normal(size=(64, 2))
    acc = 0.0
    started = time.perf_counter()
    for i in range(PROBE_STEPS):
        dist = np.max(np.abs(points - points[i % 64]), axis=1)
        kth = np.partition(dist, 4)[4]
        acc += float(kth) + sum(1 for d in dist[:16] if d < kth)
    return time.perf_counter() - started


class Clock:
    """Times calls in raw and in reference-host seconds."""

    def __init__(self) -> None:
        self.raw: List[float] = []
        self.probe: List[float] = []

    def time(self, call: Callable[[], Any]) -> Any:
        """Probe the host, then time ``call``; return its result."""
        probe = host_probe()
        started = time.perf_counter()
        result = call()
        self.add(time.perf_counter() - started, probe)
        return result

    def add(self, seconds: float, probe: float) -> None:
        self.raw.append(seconds)
        self.probe.append(probe)

    def median(self) -> float:
        """Median time in reference-host seconds (0 when nothing was timed).

        Medians of the times and of the probes are taken separately: one
        probe is short, so scaling each time by its own probe would add the
        probe's noise to every sample.
        """
        if not self.raw:
            return 0.0
        return statistics.median(self.raw) * PROBE_REFERENCE_S / statistics.median(self.probe)

    def spent(self) -> List[float]:
        """Seconds each timed call took, its probe included."""
        return [t + p for t, p in zip(self.raw, self.probe)]

    def to_json(self) -> Dict[str, Any]:
        return {
            "median_s": self.median(),
            "raw_s": summarize(self.raw) if self.raw else None,
            "probe_s": self.probe,
        }


def import_seconds() -> float:
    """Package import time in a fresh interpreter (interpreter start excluded)."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


def _child_pids() -> List[int]:
    """Pids of this process's children, exited ones not yet waited for included."""
    pids: List[int] = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            continue
    return pids


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The program joins its pool workers itself.  What outlives a call is
    multiprocessing's resource tracker, started by the first shared-memory
    block; left alone it exits only after this process does, orphaned and
    never waited for.  Any other child still alive is terminated first, so
    none holds the tracker's pipe open while the tracker is stopped.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)
    for pid in _child_pids():
        if pid == tracker_pid:
            continue
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    tracker._stop()


class Ledger:
    """Attempted and failed operations, and the truth grades behind them."""

    def __init__(self, operations: int) -> None:
        self.operations = operations
        self.attempted = 0
        self.failed = 0
        self.recall: List[float] = []
        self.precision: List[float] = []
        self.problems: List[str] = []

    def grade(self, workload: Any, run: Any) -> Any:
        """Run one operation set through ``run()`` and grade its output."""
        try:
            output = run()
        except Exception as exc:  # noqa: BLE001 - a raising iteration is a failed one
            self.attempted += self.operations
            self.failed += self.operations
            self.problems.append(f"{type(exc).__name__}: {exc}")
            return None
        grade = workload.grade(output)
        self.attempted += grade.attempted
        self.failed += grade.failed
        self.recall.append(grade.recall)
        self.precision.append(grade.precision)
        self.problems.extend(grade.problems)
        return output


def _another(spent: Sequence[float], elapsed: float, seconds: float) -> bool:
    """Start another iteration?  At least one; then only while the run would
    end nearer to ``seconds`` with it than without it."""
    return not spent or elapsed + spent[-1] / 2 < seconds


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def untraced_run(workload: Any, seconds: float) -> Tuple[Dict[str, Any], Ledger, Dict[str, Any]]:
    """Set-up, a graded warm-up, then timed iterations for ``seconds``."""
    imports, setups, walls = Clock(), Clock(), Clock()
    for _ in range(IMPORT_REPEATS):
        probe = host_probe()
        imports.add(import_seconds(), probe)
    sampler = subprocess.Popen(
        [sys.executable, str(HERE / "rss.py"), str(os.getpid())],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        if workload.has_setup:
            for repeat in range(SETUP_REPEATS):
                setups.time(lambda: workload.setup(repeat))
        ledger = Ledger(workload.operations)
        ledger.grade(workload, workload.run)  # warm-up: truth-checked, not timed
        begin = time.perf_counter()
        while _another(walls.spent(), time.perf_counter() - begin, seconds):
            walls.time(lambda: ledger.grade(workload, workload.run))
    finally:
        try:
            peak, _ = sampler.communicate("stop\n", timeout=60)
        finally:
            if sampler.poll() is None:
                sampler.kill()
                sampler.wait()
    peak_rss = int(peak)
    metrics = {
        "wall_s": (walls.median(), "s"),
        "setup_s": (imports.median() + setups.median(), "s"),
        "peak_rss_mb": (peak_rss / 2**20, "MB"),
        "recall": (_median(ledger.recall), "ratio"),
        "precision": (_median(ledger.precision), "ratio"),
    }
    detail = {
        "wall_s": walls.to_json(),
        "setup": {"import": imports.to_json(), "workload_setup": setups.to_json()},
        "peak_rss_bytes": peak_rss,
    }
    return metrics, ledger, detail


def traced_run(
    workload: Any, seconds: float, spool: Path, trace_file: Path
) -> Tuple[Dict[str, Any], Ledger, Dict[str, Any]]:
    """Rounds of (untraced, traced[, untraced on one worker]) iterations."""
    from layers import PER_LAYER, TARGETS, bypass_violations, iteration_metrics
    from spans import Tracer, check_accounting, chrome_trace, self_times

    tracer = Tracer(TARGETS, spool)
    tile = workload.config.s_max + workload.config.td_max
    ledger = Ledger(workload.operations)

    def traced(name: str, call: Any) -> Tuple[Any, List[List[Any]]]:
        """Run ``call`` under a root span; return its output and span trees
        (the parent's first, then every worker's), each accounting-checked."""
        tracer.reset()
        tracer.install()
        try:
            with tracer.root(name):
                output = call()
        finally:
            tracer.uninstall()
        trees = [tracer.spans] + [t for ts in tracer.collect_workers().values() for t in ts]
        for tree in trees:
            check_accounting(tree)
        return output, trees

    write_s: List[float] = []
    if workload.has_setup:
        for repeat in range(SETUP_REPEATS):
            _, trees = traced("setup", lambda: workload.setup(repeat))
            write_s.append(
                sum(s.duration for t in trees for s in t if s.label.endswith("SeriesStore.write"))
            )
    ledger.grade(workload, workload.run)  # warm-up: truth-checked, not timed

    plain, traced_clock, one_worker = Clock(), Clock(), Clock()
    per_iteration: List[Dict[str, float]] = []
    accounting: List[Dict[str, float]] = []
    last_trees: List[List[Any]] = []
    rounds: List[float] = []
    begin = time.perf_counter()
    while _another(rounds, time.perf_counter() - begin, seconds):
        round_started = time.perf_counter()
        plain.time(lambda: ledger.grade(workload, workload.run))
        output, trees = traced_clock.time(
            lambda: traced("iteration", lambda: ledger.grade(workload, workload.run))
        )
        wall, unattributed = check_accounting(trees[0])
        counters = workload.counters(output) if output is not None else {}
        metrics = iteration_metrics(trees, counters, tile)
        metrics["trace.unattributed_s"] = unattributed
        metrics["trace.worker_processes"] = len({t[0].pid for t in trees[1:]})
        per_iteration.append(metrics)
        accounting.append(
            {
                "root_s": wall,
                "self_sum_s": sum(self_times(trees[0])),
                "unattributed_s": unattributed,
                "worker_trees": len(trees) - 1,
            }
        )
        print(
            f"accounting: iteration {len(per_iteration)}: root {wall:.6f} s = sum of self "
            f"times {accounting[-1]['self_sum_s']:.6f} s; unattributed {unattributed:.6f} s "
            f"({100 * unattributed / wall:.2f}%); {len(trees) - 1} worker trees merged by pid, "
            "each checked the same way"
        )
        last_trees = trees
        if workload.pooled:
            one_worker.time(lambda: ledger.grade(workload, lambda: workload.run(n_jobs=1)))
        rounds.append(time.perf_counter() - round_started)

    trace_file.write_text(json.dumps(chrome_trace(last_trees)))
    layer = {name: _median([m.get(name, 0.0) for m in per_iteration]) for name, _ in PER_LAYER}
    layer["trace.overhead"] = traced_clock.median() / plain.median()
    layer["parallel.efficiency"] = (
        one_worker.median() / (2 * plain.median()) if one_worker.raw else 0.0
    )
    layer["store.write_s"] = _median(write_s)
    layer["store.bytes_written"] = workload.store_bytes()
    violations = bypass_violations(workload.name, layer)
    print(
        "bypass: "
        + ("confirmed" if not violations else "VIOLATED by " + ", ".join(violations))
        if workload.name == "paper_pair"
        else "bypass: no prediction for this workload"
    )
    metrics = {name: (layer[name], unit) for name, unit in PER_LAYER}
    detail = {
        "trace_mode": "per-worker span files merged by pid (workers are forked with the wrappers)",
        "trace_file": str(trace_file.relative_to(ROOT)),
        "untraced_wall_s": plain.to_json(),
        "traced_wall_s": traced_clock.to_json(),
        "one_worker_wall_s": one_worker.to_json(),
        "accounting": accounting,
        "bypass_violations": violations,
        "per_iteration": per_iteration,
    }
    return metrics, ledger, detail


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the result document to this file")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC} -- run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            from spans import MissingTargetError

            trace_file = WORK / f"trace-{args.workload}-{args.seed}.json"
            try:
                metrics, ledger, detail = traced_run(
                    workload, args.seconds, workdir, trace_file
                )
            except MissingTargetError as exc:
                print(f"error: wrap target no longer exists: {exc}", file=sys.stderr)
                return 3
        else:
            metrics, ledger, detail = untraced_run(workload, args.seconds)
    finally:
        workload.cleanup()
        shutil.rmtree(workdir, ignore_errors=True)
        stop_children()

    for problem in ledger.problems[:20]:
        print(f"truth: {problem}")
    summary = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    document = {
        "benchmark": "tycosbench/1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_facts(),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "error_frac": ledger.failed / ledger.attempted,
        **summary,
        "detail": detail,
    }
    line = json.dumps(document)
    print(line)
    if args.out is not None:
        with args.out.open("a") as handle:
            handle.write(line + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
