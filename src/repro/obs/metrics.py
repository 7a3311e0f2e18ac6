"""Process-local counter/gauge metrics registry.

Counters accumulate monotonically (cache hits, quarantined records,
injected faults); gauges record last-written values (effective job
count, bytes on disk).  Like the span collector, the registry lives
behind a ``getpid()`` guard so a forked worker starts from zero instead
of double-counting inherited parent state, and worker registries are
*shipped* back with shard results (:meth:`MetricsRegistry.drain`) and
merged into the parent with :meth:`MetricsRegistry.absorb` — counters
add, gauges last-write-wins in shard order, so the merge is
deterministic.

The lifting helpers at the bottom (:func:`record_ingest`,
:func:`record_cache`) translate the pipeline's existing accounting
objects (``IngestReport`` rows, ``CacheStats``) into the metric
namespace.  They duck-type their arguments on purpose: ``repro.obs`` is
a leaf layer and must not import the layers it observes.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field


@dataclass
class MetricsRegistry:
    """Flat name -> value stores for counters and gauges.

    Counted from the coordinator's loop thread, loopback worker threads
    and the main thread alike, so every store access holds ``_lock``
    (an RLock: ``drain`` re-enters through ``snapshot``).
    """

    pid: int = field(default_factory=os.getpid)
    _counters: dict[str, float] = field(default_factory=dict)
    _gauges: dict[str, float] = field(default_factory=dict)
    _lock: threading.RLock = field(default_factory=threading.RLock,
                                   repr=False, compare=False)

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to a counter (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def counters(self) -> dict[str, float]:
        """Copy of the counter store."""
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> dict[str, float]:
        """Copy of the gauge store."""
        with self._lock:
            return dict(self._gauges)

    def snapshot(self) -> dict[str, dict[str, float]]:
        """JSON-friendly view of both stores (sorted for stable output)."""
        with self._lock:
            return {
                "counters": {name: self._counters[name]
                             for name in sorted(self._counters)},
                "gauges": {name: self._gauges[name]
                           for name in sorted(self._gauges)},
            }

    def drain(self) -> dict[str, dict[str, float]]:
        """Snapshot then clear (worker-side shipping)."""
        with self._lock:
            snapshot = self.snapshot()
            self._counters.clear()
            self._gauges.clear()
            return snapshot

    def absorb(self, snapshot: dict[str, dict[str, float]]) -> None:
        """Merge a shipped snapshot: counters add, gauges overwrite."""
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, value)


_registry: MetricsRegistry | None = None
_registry_lock = threading.Lock()


def metrics() -> MetricsRegistry:
    """The process-local registry, fork/spawn-safe (see module doc)."""
    global _registry
    with _registry_lock:
        if _registry is None or _registry.pid != os.getpid():
            _registry = MetricsRegistry()
        return _registry


def count(name: str, amount: float = 1) -> None:
    """Add to a counter in the process registry."""
    metrics().count(name, amount)


def gauge(name: str, value: float) -> None:
    """Set a gauge in the process registry."""
    metrics().gauge(name, value)


def metrics_snapshot() -> dict[str, dict[str, float]]:
    """Snapshot of the process registry."""
    return metrics().snapshot()


# -- lifting: existing accounting objects -> metric namespace ---------------

def record_ingest(report) -> None:
    """Mirror an ``IngestReport``'s per-dataset accounting into counters.

    Expects the report to expose ``datasets()`` rows with ``name`` /
    ``parsed`` / ``repaired`` / ``quarantined`` — duck-typed so this
    leaf layer needs no import of :mod:`repro.util.ingest`.
    """
    for ingest in report.datasets():
        count("ingest.parsed.%s" % ingest.name, ingest.parsed)
        count("ingest.repaired.%s" % ingest.name, ingest.repaired)
        count("ingest.quarantined.%s" % ingest.name, ingest.quarantined)


def record_cache(stats, bytes_on_disk: float | None = None) -> None:
    """Mirror an artifact-cache ``CacheStats`` into counters.

    ``heals`` counts corrupt entries the cache deleted and treated as
    misses; ``bytes_stored`` is cumulative artifact bytes written by
    this handle.
    """
    count("cache.hits", stats.hits)
    count("cache.misses", stats.misses)
    count("cache.stores", stats.stores)
    count("cache.evictions", stats.evicted)
    count("cache.heals", stats.healed)
    count("cache.bytes_stored", stats.bytes_stored)
    if bytes_on_disk is not None:
        gauge("cache.bytes_on_disk", bytes_on_disk)
