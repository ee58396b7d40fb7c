"""Peak resident memory of a process tree, sampled from ``/proc``.

Run as ``python3 rss.py <pid>``: every 50 ms it sums the resident-set
high-water marks (``VmHWM``) of ``<pid>`` and its live descendants (itself
excluded) and keeps the largest sum.  High-water marks are kept by the
kernel, so a short peak between two samples still counts.
It stops when its standard input closes or receives a line, prints the
peak in bytes, and exits.  A separate process rather than a thread, so the
benchmarked process stays single-threaded when its pools fork.
"""

from __future__ import annotations

import os
import select
import sys
from typing import List


def _children(pid: int) -> List[int]:
    """Child pids of every thread of ``pid`` (empty if it is gone)."""
    out: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                out.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return out


def tree_hwm(root: int, exclude: int) -> int:
    """Summed ``VmHWM`` bytes of ``root`` and its live descendants."""
    total = 0
    todo = [root]
    while todo:
        pid = todo.pop()
        if pid == exclude:
            continue
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) * 1024
                        break
        except OSError:
            continue
        todo.extend(_children(pid))
    return total


def main() -> int:
    root = int(sys.argv[1])
    me = os.getpid()
    peak = 0
    while True:
        peak = max(peak, tree_hwm(root, me))
        ready, _, _ = select.select([sys.stdin], [], [], 0.05)
        if ready:
            break
    print(peak, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
