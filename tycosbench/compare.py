"""Compare two sets of benchmark runs (parent commit, change).

Usage (from the repository root)::

    python3 tycosbench/compare.py parent.jsonl change.jsonl

Each file holds result documents, one per line, as ``run.py --out``
appends them.  Runs pair up in file order per workload: the i-th parent
run with the i-th change run, so record them alternately.  For every
workload and end-to-end metric of ``BENCHMARK.json`` it prints both
medians and quartiles, the share of pairs the change won, and a verdict:

* ``improved`` -- the change won at least 9/10 of at least ten pairs (ties
  count for neither side), and the medians differ, in the better
  direction, by more than the parent's own quartile distance;
* ``unresolved`` -- the run-to-run spread (quartile distance over median,
  either side) is wider than the metric's bound, and the change's runs do
  not all read better than all the parent's runs;
* ``worse`` -- the change's median is worse than the parent's by more than
  the bound;
* ``unchanged`` -- none of the above.

A gain does not count when the change failed more operations than the
parent did: its verdict drops to ``unresolved``.  Exits 1 when any verdict
is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent

#: Least pairs on which a gain may be claimed.
MIN_PAIRS = 10
#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def load(path: Path) -> Dict[str, List[Dict[str, Any]]]:
    """workload -> result documents, in file order."""
    runs: Dict[str, List[Dict[str, Any]]] = {}
    with path.open() as handle:
        for line in handle:
            if line.strip():
                doc = json.loads(line)
                runs.setdefault(doc["workload"], []).append(doc)
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
    more_failures: bool = False,
) -> Dict[str, Any]:
    """Judge one workload x metric from per-run values of both sides."""
    sign = 1.0 if better == "lower" else -1.0

    def beats(a: float, b: float) -> bool:  # a reads better than b
        return sign * (a - b) < 0

    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if beats(c, p))
    share = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
    spread = max(
        (pq3 - pq1) / abs(pmed) if pmed else 0.0,
        (cq3 - cq1) / abs(cmed) if cmed else 0.0,
    )
    all_better = all(beats(c, p) for c in change for p in parent)
    gain = (
        len(pairs) >= MIN_PAIRS
        and share >= WIN_SHARE
        and beats(cmed, pmed)
        and abs(cmed - pmed) > pq3 - pq1
    )
    if gain and not more_failures:
        result = "improved"
    elif gain or (spread > bound and not all_better):
        result = "unresolved"
    elif worse_by > bound:
        result = "worse"
    else:
        result = "unchanged"
    return {
        "parent": (pmed, pq1, pq3),
        "change": (cmed, cq1, cq3),
        "pairs": len(pairs),
        "win_share": share,
        "worse_by": worse_by,
        "spread": spread,
        "verdict": result,
    }


def _failed(docs: Sequence[Dict[str, Any]]) -> int:
    return sum(int(d["failed"]) for d in docs)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=HERE.parent / "BENCHMARK.json")
    args = parser.parse_args(argv)

    spec = json.loads(args.benchmark.read_text())
    parent, change = load(args.parent), load(args.change)
    any_worse = False
    header = (
        f"{'workload':16s} {'metric':12s} {'parent med [q1, q3]':32s} "
        f"{'change med [q1, q3]':32s} {'pairs':>5s} {'won':>5s} {'spread':>7s}  verdict"
    )
    print(header)
    for workload in sorted(set(parent) & set(change)):
        p_docs, c_docs = parent[workload], change[workload]
        more_failures = _failed(c_docs) > _failed(p_docs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_vals = [d["metrics"][name]["value"] for d in p_docs if name in d["metrics"]]
            c_vals = [d["metrics"][name]["value"] for d in c_docs if name in d["metrics"]]
            if not p_vals or not c_vals:
                continue
            v = verdict(p_vals, c_vals, metric["better"], metric["bound"], more_failures)
            any_worse |= v["verdict"] == "worse"
            pm, pq1, pq3 = v["parent"]
            cm, cq1, cq3 = v["change"]
            print(
                f"{workload:16s} {name:12s} {f'{pm:.5g} [{pq1:.5g}, {pq3:.5g}]':32s} "
                f"{f'{cm:.5g} [{cq1:.5g}, {cq3:.5g}]':32s} {v['pairs']:5d} "
                f"{v['win_share']:5.0%} {v['spread']:7.1%}  {v['verdict']}"
            )
        print(
            f"{workload:16s} failed ops: parent {_failed(p_docs)}, change {_failed(c_docs)}"
            + ("  (more failures: no gain counts)" if more_failures else "")
        )
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
