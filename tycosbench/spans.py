"""Span tracing from outside the program: wrap layer entry points, record spans.

The benchmark may not add spans inside ``src/``, so it records them from
here, around the calls into each layer.  :class:`Tracer` patches every
target named in a :class:`Target` table -- module-level functions are
replaced on their defining module *and* on every ``repro`` module that
imported the same object by name; methods are replaced on their class --
and restores the originals on :meth:`Tracer.uninstall`, so untraced runs
pay nothing.

Pool workers are forked while the wrappers are installed and inherit
them.  A worker records its own spans and appends each finished root
tree to ``spans-<pid>.jsonl`` in the tracer's spool directory; the parent
merges those files by pid with :meth:`Tracer.collect_workers`.

Self time (:func:`self_times`) is a span's duration minus the part of
its interval that its children cover, so the self times of one tree sum
to its root's duration (:func:`check_accounting`).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "Target",
    "Tracer",
    "MissingTargetError",
    "self_times",
    "check_accounting",
    "chrome_trace",
]


class MissingTargetError(RuntimeError):
    """A wrap target no longer exists in the program."""


@dataclass
class Span:
    """One timed call into a layer.

    Attributes:
        layer: the layer the call belongs to (``tycos``, ``thresholds`` ...).
        label: the wrapped function, ``module:qualname``.
        start: ``time.perf_counter()`` at entry (seconds; the clock is
            system-wide, so worker and parent spans share one time base).
        end: ``time.perf_counter()`` at exit.
        parent: index of the enclosing span in the same process, or -1.
        pid: process that ran the call.
        counts: counters read from the call's arguments or result.
    """

    layer: str
    label: str
    start: float
    end: float = 0.0
    parent: int = -1
    pid: int = 0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Span":
        return cls(**data)


#: Reads counters from a call: ``(args, kwargs, result) -> {name: value}``.
Extractor = Callable[[Tuple[Any, ...], Dict[str, Any], Any], Dict[str, float]]


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    Attributes:
        layer: layer name the call's time is charged to.
        module: dotted module that defines it.
        qualname: ``func`` or ``Class.method``.
        keep: always open a span.  Otherwise a call nested directly inside
            a span of the same layer is folded into it: the time is the
            same layer's either way, and folding keeps per-window calls
            (``score`` inside ``value_many``) from costing a span each.
        extract: optional counter reader, run after the call returns.
    """

    layer: str
    module: str
    qualname: str
    keep: bool = False
    extract: Optional[Extractor] = None

    @property
    def label(self) -> str:
        return f"{self.module}:{self.qualname}"


class Tracer:
    """Installs wrappers for a target table and records spans in memory.

    Args:
        targets: what to wrap.
        spool: directory where forked workers append their span trees.
    """

    def __init__(self, targets: Sequence[Target], spool: Path) -> None:
        self.targets = list(targets)
        self.spool = spool
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._is_worker = False
        self._restore: List[Tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- installation ---------------------------------------------------- #

    def install(self) -> None:
        """Wrap every target; raise :class:`MissingTargetError` naming any gone."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        resolved = [(t, *_resolve(t)) for t in self.targets]
        for target, owner, attr, raw in resolved:
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            if not isinstance(owner, type):
                # Re-point every module that imported the function by name.
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "") or ""
                    if module is owner or not name.startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._restore.append((module, key, raw))
                            setattr(module, key, wrapped)

    def uninstall(self) -> None:
        """Put every original back (in reverse order of patching)."""
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- recording ------------------------------------------------------- #

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    @contextmanager
    def root(self, name: str) -> Iterator[Span]:
        """Open a root span (layer ``root``, label ``tycosbench:<name>``)."""
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        span = Span(
            layer="root", label=f"tycosbench:{name}", start=time.perf_counter(), pid=self._pid
        )
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _after_fork(self) -> None:
        self.reset()
        self._pid = os.getpid()
        self._is_worker = True

    def _wrap(self, fn: Callable[..., Any], target: Target) -> Callable[..., Any]:
        tracer = self
        layer, label, keep, extract = target.layer, target.label, target.keep, target.extract

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            if not keep and stack and tracer.spans[stack[-1]].layer == layer:
                return fn(*args, **kwargs)
            span = Span(
                layer=layer,
                label=label,
                start=0.0,
                parent=stack[-1] if stack else -1,
                pid=tracer._pid,
            )
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = time.perf_counter()
                tracer._close()
                raise
            span.end = time.perf_counter()
            if extract is not None:
                span.counts.update(extract(args, kwargs, result))
            tracer._close()
            return result

        return wrapper

    def _close(self) -> None:
        """Pop the innermost span; a worker ships each finished root tree."""
        self._stack.pop()
        if self._is_worker and not self._stack:
            self._flush_worker()

    def _flush_worker(self) -> None:
        """Append this worker's finished root tree to its spool file."""
        path = self.spool / f"spans-{self._pid}.jsonl"
        with path.open("a") as handle:
            handle.write(json.dumps([s.to_json() for s in self.spans]) + "\n")
        self.spans = []

    def collect_workers(self) -> Dict[int, List[List[Span]]]:
        """Read and delete the workers' spool files: pid -> list of trees.

        Each tree is a list of spans whose ``parent`` indexes that list.
        """
        trees: Dict[int, List[List[Span]]] = {}
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            pid = int(path.stem.split("-", 1)[1])
            with path.open() as handle:
                for line in handle:
                    trees.setdefault(pid, []).append(
                        [Span.from_json(item) for item in json.loads(line)]
                    )
            path.unlink()
        return trees


def _resolve(target: Target) -> Tuple[Any, str, Any]:
    """(owner, attribute, raw object) of a target, or MissingTargetError."""
    module = sys.modules.get(target.module)
    if module is None:
        try:
            module = __import__(target.module, fromlist=["_"])
        except ImportError as exc:
            raise MissingTargetError(f"{target.label}: module not importable ({exc})") from exc
    owner: Any = module
    parts = target.qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise MissingTargetError(f"{target.label}: {part!r} not found")
    attr = parts[-1]
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None or not (callable(raw) or isinstance(raw, (classmethod, staticmethod))):
        raise MissingTargetError(f"{target.label}: no such function or method")
    return owner, attr, raw


# --------------------------------------------------------------------- #
# Analysis


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of every span: duration minus the union its children cover.

    ``parent`` fields index ``spans``.  Child intervals are clipped to the
    parent's, and overlapping children are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def check_accounting(spans: Sequence[Span], tolerance: float = 1e-6) -> Tuple[float, float]:
    """Check that the self times of a one-root tree sum to the root's duration.

    Returns:
        ``(root duration, root self time)`` -- the latter is the part of
        the root attributed to no child layer.

    Raises:
        ValueError: when the tree has no single root or the identity fails.
    """
    roots = [i for i, s in enumerate(spans) if s.parent < 0]
    if len(roots) != 1:
        raise ValueError(f"expected one root span, found {len(roots)}")
    selfs = self_times(spans)
    root = spans[roots[0]]
    total = sum(selfs)
    if abs(total - root.duration) > tolerance * max(1.0, root.duration):
        raise ValueError(
            f"self times sum to {total:.9f} s but the root {root.label} lasted "
            f"{root.duration:.9f} s"
        )
    return root.duration, selfs[roots[0]]


def chrome_trace(trees: Iterable[Sequence[Span]]) -> Dict[str, Any]:
    """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
    events: List[Dict[str, Any]] = []
    for tree in trees:
        for span in tree:
            events.append(
                {
                    "name": span.label.split(":", 1)[1],
                    "cat": span.layer,
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": span.pid,
                    "tid": span.pid,
                    "args": dict(span.counts, module=span.label.split(":", 1)[0]),
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
