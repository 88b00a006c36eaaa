"""In-memory layer spans, recorded from outside the program.

The benchmark never edits ``src/``: it times a layer by wrapping the
calls made *into* that layer's public functions on live objects.

* :class:`SpanTracer` keeps one frame per open span on a stack.  When a
  span closes, its duration is charged to the parent frame as child
  time, so a span's *self* time is its duration minus the part of it
  its child spans cover.  Spans are ``(id, parent_id, op, start_ns,
  dur_ns, self_ns)`` tuples; ``op`` is ``"<layer>.<name>"``.
* :meth:`SpanTracer.wrap` and :func:`wrap_methods` install timed
  bound-method wrappers as *instance* attributes, so every internal
  ``self.method(...)`` call goes through them while the object keeps
  its type, its other attributes and its identity.
* :func:`proxy_scheduler` wraps a scheduler in a forwarding proxy: the
  three decision callbacks are timed and every other attribute the
  program probes (``reads_progress``, ``constants``, ``wakeup_after``,
  ``assign_deadline``, the band-state accessors, the recorder's
  ``all_states``/``started_ids``) reads through to the real scheduler.
  The proxy's class carries the wrapped class's name, so a service
  snapshot taken through it names the real scheduler type.
* :class:`TimedRecorder` is a :class:`~repro.observability.TraceRecorder`
  whose ``event`` is timed as an aggregate span (``TraceRecorder`` uses
  ``__slots__``, so an instance wrapper cannot be installed on it).
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable, Iterable, Optional

from repro.observability import TraceRecorder

_now = time.perf_counter_ns


class SpanTracer:
    """Span stack plus the closed spans of the current repeat."""

    def __init__(self) -> None:
        #: open frames: ``[child_ns, span_id, op, start_ns]``
        self.stack: list[list] = []
        #: closed spans, ``(id, parent_id, op, start_ns, dur_ns, self_ns)``
        self.spans: list[tuple] = []
        #: aggregate-only spans: ``op -> [count, total_ns]``
        self.aggregates: dict[str, list[int]] = {}
        #: plain event counts at layer boundaries (no timing)
        self.counts: dict[str, int] = {}
        #: values observed at layer boundaries (queue depths, ...)
        self.observed: dict[str, list] = {}
        self._ids = itertools.count()

    def reset(self) -> None:
        """Drop everything recorded so far (start of a new repeat)."""
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans still open")
        self.spans = []
        self.aggregates = {}
        self.counts = {}
        self.observed = {}

    # -- explicit spans -------------------------------------------------
    def begin(self, op: str) -> None:
        """Open a span named ``op`` under the current top frame."""
        self.stack.append([0, next(self._ids), op, _now()])

    def end(self, op: str) -> None:
        """Close the top span, which must be ``op``."""
        end = _now()
        stack = self.stack
        child_ns, span_id, top, start = stack.pop()
        if top != op:
            raise RuntimeError(f"closing span {op!r} but {top!r} is open")
        dur = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[0] += dur
        self.spans.append(
            (span_id, parent[1] if parent else None, op, start, dur, dur - child_ns)
        )

    def top(self) -> Optional[str]:
        """Name of the innermost open span (``None`` when none is)."""
        return self.stack[-1][2] if self.stack else None

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the plain counter ``name``."""
        self.counts[name] = self.counts.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        """Keep one observed value of ``name``."""
        self.observed.setdefault(name, []).append(value)

    # -- wrappers ---------------------------------------------------------
    def wrap(self, op: str, fn: Callable) -> Callable:
        """``fn`` timed as one span named ``op`` per call."""
        stack = self.stack
        ids = self._ids
        tracer = self

        def timed(*args, **kwargs):
            frame = [0, next(ids), op, 0]
            stack.append(frame)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _now() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += dur
                tracer.spans.append(
                    (frame[1], parent[1] if parent else None, op, start, dur,
                     dur - frame[0])
                )

        return timed

    def wrap_aggregate(self, op: str, fn: Callable) -> Callable:
        """``fn`` timed per call, kept only as a count and a total.

        For calls too frequent to keep one tuple each (trace events);
        the time is still charged to the enclosing span as child time.
        """
        stack = self.stack
        tracer = self

        def timed(*args, **kwargs):
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _now() - start
                if stack:
                    stack[-1][0] += dur
                agg = tracer.aggregates.get(op)
                if agg is None:
                    tracer.aggregates[op] = [1, dur]
                else:
                    agg[0] += 1
                    agg[1] += dur

        return timed

    def counting(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a plain call counter ``name`` (no timing)."""
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted


def wrap_methods(
    tracer: SpanTracer, obj: Any, layer: str, names: Iterable[str]
) -> None:
    """Time ``obj.<name>`` as span ``<layer>.<name>`` for each name."""
    for name in names:
        setattr(obj, name, tracer.wrap(f"{layer}.{name}", getattr(obj, name)))


class SchedulerProxy:
    """Forwarding proxy timing a scheduler's decision callbacks.

    ``on_arrival``, ``allocate`` and ``on_completion`` are spans in the
    ``core`` layer; every other attribute read, write or ``hasattr``
    probe goes to the wrapped scheduler unchanged.
    """

    TIMED = ("on_arrival", "allocate", "on_completion")

    def __init__(self, inner: Any, tracer: SpanTracer) -> None:
        object.__setattr__(self, "_inner", inner)
        for name in self.TIMED:
            object.__setattr__(
                self, name, tracer.wrap(f"core.{name}", getattr(inner, name))
            )

    def __getattr__(self, name: str) -> Any:
        return getattr(object.__getattribute__(self, "_inner"), name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(object.__getattribute__(self, "_inner"), name, value)


def proxy_scheduler(inner: Any, tracer: SpanTracer) -> SchedulerProxy:
    """A :class:`SchedulerProxy` whose class name is ``inner``'s."""
    cls = type(type(inner).__name__, (SchedulerProxy,), {})
    return cls(inner, tracer)


class TimedRecorder(TraceRecorder):
    """A live trace recorder whose ``event`` calls are timed (``obs``)."""

    __slots__ = ("_timed_event",)

    def __init__(self, tracer: SpanTracer) -> None:
        super().__init__()
        self._timed_event = tracer.wrap_aggregate(
            "obs.event", super().event
        )

    def event(self, t, kind, job_id=None, data=None) -> None:
        """Record one event (timed)."""
        self._timed_event(t, kind, job_id, data)
