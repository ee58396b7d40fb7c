"""Truth graders: score outputs against what the generators planted.

The graders compare *positions and delays*, never MI values, so they stay
valid when the estimator's numbers change (for example after a fix to the
KSG marginal counts).

* :func:`grade_windows` -- a pair search.  A reported window matches when
  its delay equals the delay of a planted span its X interval overlaps.
  Recall is the share of planted spans with at least one matching window;
  precision the share of reported windows that match.  A window that lies
  mostly (at least half) inside a planted span at another delay is always
  an error; any other unmatched window is background and counts only
  against precision, because two independent autocorrelated series do
  correlate by chance over a short window.
* :func:`grade_pairs` -- a collection scan.  Recall is the share of
  planted coupled pairs reported as correlated; precision the share of
  correlated pairs that were planted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Set, Tuple

__all__ = ["Grade", "grade_windows", "grade_pairs"]

#: ``(start, end, delay)`` with an inclusive X interval.
Span = Tuple[int, int, int]


@dataclass(frozen=True)
class Grade:
    """Outcome of one graded operation set.

    Attributes:
        attempted: operations graded.
        failed: operations that missed their truth check.
        recall: share of planted items recovered.
        precision: share of reported items that match planted truth
            (1.0 when nothing was reported).
        problems: human-readable reasons for the failures.
    """

    attempted: int
    failed: int
    recall: float
    precision: float
    problems: Tuple[str, ...] = ()


def _overlap(window: Span, planted: Span) -> int:
    """Samples of the window's X interval inside the planted span."""
    return max(0, min(window[1], planted[1]) - max(window[0], planted[0]) + 1)


def grade_windows(
    windows: Sequence[Span],
    planted: Sequence[Span],
    min_recall: float,
    min_precision: float = 0.9,
) -> Grade:
    """Grade one pair search (one operation).

    The search fails when an unmatched window lies mostly inside a planted
    span (a wrong delay), or when recall falls below ``min_recall`` or
    precision below ``min_precision``.
    """
    if not planted:
        raise ValueError("a pair workload must plant at least one span")

    def matches(w: Span, p: Span) -> bool:
        return w[2] == p[2] and _overlap(w, p) > 0

    unmatched = [w for w in windows if not any(matches(w, p) for p in planted)]
    wrong_delay = [
        w for w in unmatched if any(2 * _overlap(w, p) >= w[1] - w[0] + 1 for p in planted)
    ]
    background = [w for w in unmatched if w not in wrong_delay]
    found = [p for p in planted if any(matches(w, p) for w in windows)]
    recall = len(found) / len(planted)
    precision = 1 - len(unmatched) / len(windows) if windows else 1.0
    problems: List[str] = [f"window {w} lies in a planted span at another delay" for w in wrong_delay]
    if recall < min_recall:
        missed = [p for p in planted if p not in found]
        problems.append(f"recall {recall:.3f} < {min_recall}: missed {missed}")
    if precision < min_precision:
        problems.append(f"precision {precision:.3f} < {min_precision}: background {background}")
    return Grade(
        attempted=1,
        failed=1 if problems else 0,
        recall=recall,
        precision=precision,
        problems=tuple(problems),
    )


def grade_pairs(
    correlated: Iterable[Tuple[str, str]],
    planted: Iterable[Tuple[str, str]],
    scanned: int,
    failures: int = 0,
) -> Grade:
    """Grade a collection scan: one operation per scanned pair.

    A pair fails when it was planted but not reported, reported but not
    planted, or its search raised (``failures``).
    """
    got: Set[frozenset] = {frozenset(p) for p in correlated}
    want: Set[frozenset] = {frozenset(p) for p in planted}
    if not want:
        raise ValueError("a collection workload must plant at least one pair")
    missed = want - got
    spurious = got - want
    problems = [f"planted pair {sorted(p)} not reported" for p in sorted(missed, key=sorted)]
    problems += [f"pair {sorted(p)} reported but not planted" for p in sorted(spurious, key=sorted)]
    if failures:
        problems.append(f"{failures} pair searches raised")
    return Grade(
        attempted=scanned,
        failed=len(missed) + len(spurious) + failures,
        recall=len(want & got) / len(want),
        precision=len(want & got) / len(got) if got else 1.0,
        problems=tuple(problems),
    )
