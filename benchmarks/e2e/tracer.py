"""Per-layer timing measured from outside the program.

The benchmark leaves ``src/`` untouched, so every layer is timed at the
boundary it is entered through: the tracer replaces a *class attribute*
(or a module-level function) with a wrapper that runs the original
inside ``obs.span(name, category="bench", parent=...)``.  Because the
attribute itself is replaced, calls resolve to the wrapper wherever they
originate -- the simulator's own loop, a loopback worker thread, the
executor.

Garbage-collector pauses arrive through ``gc.callbacks`` in the thread
that triggered the collection.  Each pause is charged to that thread's
innermost open span or, from a thread with no open span (a loopback
worker), to the innermost span of the thread that created the tracer:
the pause holds the interpreter lock, so it stalls that span too.  A
span's ``gc_s`` is inclusive of its children's.  Untraced iterations
use :data:`NULL_TRACER`, whose spans cost one attribute lookup.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class LayerTotal:
    """Accumulated calls into one layer."""

    calls: int = 0
    seconds: float = 0.0
    #: GC pause time inside the layer's spans, children included.
    gc_s: float = 0.0


class _Frame:
    __slots__ = ("name", "gc_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.gc_s = 0.0


class NullTracer:
    """The tracer of an untraced iteration: records nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str, **attrs: object):
        return self._null


NULL_TRACER = NullTracer()


class LayerTracer:
    """Spans around layer entry points, plus GC pause attribution.

    ``obs`` is the ``repro.obs`` module; the tracer records through it so
    the spans land in the same collector the program's own stage and
    run spans use, and ``repro.obs.trace`` exports them together.
    """

    def __init__(self, obs) -> None:
        self._obs = obs
        self._local = threading.local()
        # Reentrant: an allocation made while holding the lock can start
        # a collection, whose callback takes the lock in the same thread.
        self._lock = threading.RLock()
        self._totals: dict[str, LayerTotal] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._main_stack = self._stack()
        self.gc_pause_s = 0.0
        self.gc_collections = [0, 0, 0]

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object):
        """Time one call into a layer as a ``bench`` span."""
        stack = self._stack()
        parent = stack[-1].name if stack else ""
        frame = _Frame(name)
        stack.append(frame)
        started = time.perf_counter()
        try:
            with self._obs.span(name, category="bench", parent=parent,
                                **attrs) as handle:
                try:
                    yield handle
                finally:
                    handle.set(gc_s=frame.gc_s)
        finally:
            elapsed = time.perf_counter() - started
            with self._lock:
                stack.pop()
                if stack:
                    stack[-1].gc_s += frame.gc_s
            self._add(name, elapsed, frame.gc_s)

    def record(self, name: str, start: float, end: float) -> None:
        """Record a span timed before the tracer existed (the imports)."""
        self._obs.collector().record(self._obs.Span(
            name=name, category="bench", start=start, end=end,
            pid=os.getpid(), attrs=(("gc_s", 0.0), ("parent", ""))))
        self._add(name, end - start, 0.0)

    def _add(self, name: str, seconds: float, gc_s: float) -> None:
        with self._lock:
            total = self._totals.setdefault(name, LayerTotal())
            total.calls += 1
            total.seconds += seconds
            total.gc_s += gc_s

    def total(self, name: str) -> LayerTotal:
        """Everything recorded under one layer name (zero if never hit)."""
        with self._lock:
            found = self._totals.get(name, LayerTotal())
            return LayerTotal(found.calls, found.seconds, found.gc_s)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner: object, attr: str,
             name: str | Callable[..., str], hot: bool = False) -> None:
        """Replace ``owner.attr`` with a timed wrapper.

        ``name`` may be a function of the call's arguments (e.g. the
        stage a runner method was handed).  ``hot`` entry points, called
        hundreds of thousands of times, only accumulate calls and
        seconds: a span per call would cost more than the call.
        """
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (classmethod,
                                              staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        if hot:
            wrapper = self._counted(name, func)
        else:
            wrapper = self._spanned(name, func)
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._restore.append((owner, attr, raw))

    def _spanned(self, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                return func(*args, **kwargs)
        return wrapper

    def _counted(self, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self._add(name, time.perf_counter() - started, 0.0)
        return wrapper

    # -- garbage collector ------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._local.gc_started = time.perf_counter()
            return
        started = getattr(self._local, "gc_started", None)
        if started is None:
            return
        self._local.gc_started = None
        pause = time.perf_counter() - started
        stack = self._stack() or self._main_stack
        with self._lock:
            if stack:
                stack[-1].gc_s += pause
            self.gc_pause_s += pause
            self.gc_collections[info["generation"]] += 1

    def install(self) -> None:
        """Start attributing GC pauses."""
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Stop GC attribution and restore every wrapped attribute."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)
