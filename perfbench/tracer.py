"""Spans, counters and function shims for the benchmark's traced runs.

The benchmark never edits the program.  It wraps a layer's public
functions *where their callers look them up* (the module attribute a
caller imported, or the class a method is resolved on), so a traced run
sees every call the pipeline makes through its ordinary entry points.

A :class:`Tracer` has two modes.  Untraced, the shims only add the work
counters the output checks need (rows walked, oracle attempts, the
candidate matrix) and open no spans, so end-to-end times are measured
with tracing off.  Traced, every shim also records a nested span with
wall time, CPU time, the RSS high-water mark at exit and the counters.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


def rss_hwm_mib() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    """One finished span; times are ``time.perf_counter`` seconds."""

    name: str
    layer: str
    start: float
    end: float
    cpu_s: float
    rss_hwm_mib: float
    parent: int | None
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans (traced mode) and work counters (both modes).

    Counters and observed values are per repetition: :meth:`reset`
    clears them before each timed call of the workload.
    """

    def __init__(self, timed: bool) -> None:
        self.timed = timed
        self.counters: Counter[str] = Counter()
        self.observed: dict[str, Any] = {}
        # Open spans as (slot, start, cpu start); a span's slot in
        # _pending is reserved when it opens, so parents precede children.
        self._stack: list[tuple[int, float, float]] = []
        self._pending: list[Span | None] = []

    def reset(self) -> None:
        self._pending = []
        self.counters = Counter()
        self.observed = {}

    def count(self, name: str, value: int, into: dict | None = None) -> None:
        self.counters[name] += int(value)
        if into is not None:
            into[name] = into.get(name, 0) + int(value)

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[dict[str, int]]:
        """Time the enclosed block as a child of the innermost open span.

        Yields the span's counter dict; :meth:`count` with ``into`` fills
        it.  Untraced, nothing is timed and the dict is discarded.
        """
        counters: dict[str, int] = {}
        if not self.timed:
            yield counters
            return
        slot = len(self._pending)
        self._pending.append(None)
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((slot, time.perf_counter(), time.process_time()))
        try:
            yield counters
        finally:
            _, start, cpu0 = self._stack.pop()
            self._pending[slot] = Span(
                name=name,
                layer=layer,
                start=start,
                end=time.perf_counter(),
                cpu_s=time.process_time() - cpu0,
                rss_hwm_mib=rss_hwm_mib(),
                parent=parent,
                counters=counters,
            )

    def add_span(self, name: str, layer: str, start: float, end: float) -> None:
        """Record an interval measured outside a ``with`` block (for
        example between two progress callbacks) under the open span."""
        if not self.timed:
            return
        parent = self._stack[-1][0] if self._stack else None
        self._pending.append(
            Span(name, layer, start, end, 0.0, rss_hwm_mib(), parent)
        )

    def last_end(self, name: str) -> float | None:
        """End time of the most recent finished span called ``name``."""
        for span in reversed(self._pending):
            if span is not None and span.name == name:
                return span.end
        return None

    def finish(self) -> list[Span]:
        """Spans of the repetition in opening order; ``parent`` indexes
        into the returned list."""
        if self._stack:
            raise RuntimeError("finish() with spans still open")
        return list(self._pending)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def chrome_trace(reps: list[list[Span]], meta: dict) -> dict:
    """Chrome trace-event JSON (Perfetto and ``chrome://tracing`` open it).

    Each traced repetition becomes one thread row, so repetitions do not
    overlap on the timeline.
    """
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": meta.get("workload", "perfbench")}},
    ]
    origin = min((s.start for rep in reps for s in rep), default=0.0)
    for tid, spans in enumerate(reps, start=1):
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                       "args": {"name": f"rep {tid}"}})
        own = self_times(spans)
        for span, self_s in zip(spans, own):
            events.append({
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": {
                    "self_s": self_s,
                    "cpu_s": span.cpu_s,
                    "rss_hwm_mib": span.rss_hwm_mib,
                    **span.counters,
                },
            })
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}


def write_json(path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# --- shims -----------------------------------------------------------------

#: ``counters(args, kwargs, result) -> {name: int}`` for one call.
CountFn = Callable[[tuple, dict, Any], dict]


@dataclass(frozen=True)
class Shim:
    """Wrap ``module.attr`` (``attr`` may be ``Class.method``).

    Attributes:
        module: module the caller resolves the name in.
        attr: attribute path inside it.
        name: span name.
        layer: the repository module the function belongs to.
        counters: work counters taken from the call.
        observe: key under which the tracer keeps the last result (the
            output checks read it).
        generator: the function returns an iterator; each ``next`` is
            timed as one span, and ``counters`` sees each item.
        checks: the output checks need this shim, so untraced runs
            install it too (counters only, no spans).
    """

    module: str
    attr: str
    name: str
    layer: str
    counters: CountFn | None = None
    observe: str | None = None
    generator: bool = False
    checks: bool = False

    def resolve(self) -> tuple[Any, str, Any] | None:
        """``(owner, name, original)``, or None when the entry point is gone."""
        try:
            owner = importlib.import_module(self.module)
        except ImportError:
            return None
        *path, last = self.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        original = owner.__dict__.get(last) if isinstance(owner, type) else (
            getattr(owner, last, None)
        )
        if original is None:
            return None
        return owner, last, original

    def wrap(self, original: Callable, tracer: Tracer) -> Callable:
        shim = self

        def record(args, kwargs, result, into):
            if shim.counters is not None:
                for key, value in shim.counters(args, kwargs, result).items():
                    tracer.count(key, value, into)
            if shim.observe is not None:
                tracer.observed[shim.observe] = result

        if self.generator:
            def wrapper(*args, **kwargs):
                inner = original(*args, **kwargs)
                while True:
                    with tracer.span(shim.name, shim.layer) as into:
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        record(args, kwargs, item, into)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                with tracer.span(shim.name, shim.layer) as into:
                    try:
                        result = original(*args, **kwargs)
                    except BaseException:
                        # Failed calls still did work (the oracle counts
                        # attempts before it raises on an exhausted list).
                        record(args, kwargs, None, into)
                        raise
                    record(args, kwargs, result, into)
                return result

        return functools.update_wrapper(wrapper, original)


@contextmanager
def installed(shims: list[Shim], tracer: Tracer) -> Iterator[list[str]]:
    """Install the shims the tracer's mode needs; yields the span names
    whose entry point no longer exists (reported as absent)."""
    undo: list[tuple[Any, str, Any]] = []
    absent: list[str] = []
    try:
        for shim in shims:
            if not (tracer.timed or shim.checks):
                continue
            found = shim.resolve()
            if found is None:
                absent.append(f"{shim.module}.{shim.attr}")
                continue
            owner, last, original = found
            setattr(owner, last, shim.wrap(original, tracer))
            undo.append((owner, last, original))
        yield absent
    finally:
        for owner, last, original in reversed(undo):
            setattr(owner, last, original)
