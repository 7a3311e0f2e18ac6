"""Lightweight span tracing for the execution pipeline.

A *span* is one named, timed region of work — a stage, a shard task, a
whole run — recorded into a process-local :class:`SpanCollector`.  The
collector is deliberately trivial: an append-only list behind a
``getpid()`` guard, so it is safe under both ``fork`` (a forked worker
inherits the parent's module state; the pid check discards it on first
access, so worker spans never duplicate parent spans) and ``spawn``
(each worker starts with an empty module and builds its own collector).

Worker processes do not share memory with the driver, so their spans are
*shipped*: a shard task calls :func:`drain_spans` at the end and returns
the list with its payload, and the executor absorbs the shipped spans
into the parent collector in shard order — a deterministic merge that
does not depend on worker scheduling.

Timestamps are :func:`time.perf_counter` readings: monotonic, highest
available resolution, and on the platforms we shard on (Linux
``CLOCK_MONOTONIC``) a single system-wide timebase, so parent and worker
spans interleave correctly on one trace timeline.  Spans are
observability output only — nothing derived from them may feed an
analysis result.  The purity guard in ``tests/runtime`` enforces the
boundary: a stage function that reaches this module reads a clock, and
the guard fails it.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Span:
    """One completed timed region.

    ``start``/``end`` are ``perf_counter`` readings in seconds; ``attrs``
    is a sorted tuple of key/value pairs (kept as a tuple so spans are
    hashable and safely shared after being shipped between processes).

    Spans cross the worker pickle boundary inside ``ShardResult``, so
    the field layout is a wire contract (RPR010).
    """

    __wire_contract__ = "obs-span"

    name: str
    category: str
    start: float
    end: float
    pid: int
    attrs: tuple[tuple[str, object], ...] = ()

    @property
    def seconds(self) -> float:
        """Wall-clock duration of the span."""
        return self.end - self.start

    def attr(self, key: str, default: object = None) -> object:
        """Look up one attribute value."""
        for name, value in self.attrs:
            if name == key:
                return value
        return default

    def with_attrs(self, **attrs: object) -> "Span":
        """A copy with extra attributes (used to tag shipped spans)."""
        merged = dict(self.attrs)
        merged.update(attrs)
        return replace(self, attrs=tuple(sorted(merged.items())))


class SpanHandle:
    """Mutable attribute sink for a span that is still open.

    ``span()`` yields one so callers can attach facts they only learn
    mid-region (a cache hit, a shard count) before the span is sealed.
    """

    def __init__(self, attrs: dict[str, object]) -> None:
        self.attrs = attrs

    def set(self, **attrs: object) -> None:
        """Attach attributes to the span being recorded."""
        # A handle never leaves the ``with span(...)`` body that created
        # it, so only the thread that opened the span mutates it.
        self.attrs.update(attrs)


@dataclass
class SpanCollector:
    """Process-local span sink (create via :func:`collector`).

    The coordinator's loop thread, loopback worker threads and the
    driver's main thread record into the same collector, so every
    ``_spans`` access holds ``_lock``.
    """

    pid: int = field(default_factory=os.getpid)
    _spans: list[Span] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record(self, span: Span) -> None:
        """Append one completed span."""
        with self._lock:
            self._spans.append(span)

    def absorb(self, spans: Iterable[Span]) -> None:
        """Append spans shipped from elsewhere (a worker, a sub-run)."""
        with self._lock:
            self._spans.extend(spans)

    def spans(self) -> tuple[Span, ...]:
        """Everything recorded so far, in record order."""
        with self._lock:
            return tuple(self._spans)

    def drain(self) -> list[Span]:
        """Return all recorded spans and clear the collector."""
        with self._lock:
            drained = list(self._spans)
            self._spans.clear()
            return drained


_collector: SpanCollector | None = None
_collector_lock = threading.Lock()


def collector() -> SpanCollector:
    """The process-local collector, fork/spawn-safe.

    A stale collector (inherited through ``fork``, so its pid differs
    from ours) is replaced with a fresh one rather than reused — the
    parent keeps its own copy, and the child must not re-ship spans the
    parent already holds.
    """
    global _collector
    with _collector_lock:
        if _collector is None or _collector.pid != os.getpid():
            _collector = SpanCollector()
        return _collector


@contextmanager
def span(name: str, category: str = "stage",
         **attrs: object) -> Iterator[SpanHandle]:
    """Record a :class:`Span` around a ``with`` body.

    The span is sealed and recorded when the body exits, whether
    normally or by exception; attributes passed here and set on the
    yielded handle are merged and sorted.
    """
    handle = SpanHandle(dict(attrs))
    started = time.perf_counter()
    try:
        yield handle
    finally:
        collector().record(Span(
            name=name, category=category, start=started,
            end=time.perf_counter(), pid=os.getpid(),
            attrs=tuple(sorted(handle.attrs.items()))))


def current_spans() -> tuple[Span, ...]:
    """All spans recorded in this process so far."""
    return collector().spans()


def drain_spans() -> list[Span]:
    """Return and clear this process's spans (worker-side shipping)."""
    return collector().drain()


def absorb_spans(spans: Iterable[Span]) -> None:
    """Merge shipped spans into this process's collector."""
    collector().absorb(spans)
