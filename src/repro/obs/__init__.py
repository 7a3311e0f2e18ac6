"""repro.obs — observability: spans, metrics, trace export, run reports.

A leaf layer (rank 1, above only ``errors``) that every other layer may
import, providing:

* :mod:`repro.obs.spans` — a lightweight span/trace API with a
  process-local, fork/spawn-safe collector; worker spans are shipped
  back with shard results and merged deterministically;
* :mod:`repro.obs.metrics` — a counter/gauge registry plus lifting
  helpers for the pipeline's existing accounting objects (ingest
  reports, cache stats);
* :mod:`repro.obs.trace` — Chrome ``trace_event`` JSON export and
  schema validation (``repro-run --trace out.json``);
* :mod:`repro.obs.report` / :mod:`repro.obs.cli` — the ``repro-obs``
  CLI that summarizes a trace: per-stage wall time, shard skew, cache
  effectiveness, ingest losses.

The boundary rule (DESIGN.md §11): instrumentation lives at the
executor/driver boundary, never inside the pure per-probe kernels.
Everything here is deliberately impure (clocks, process state), and
the purity guard in ``tests/runtime`` enforces the boundary — it runs
every stage function and fails one that reads a clock, this package's
included.  Because no stage reaches it, ``obs`` is one of the cache's
``RESULT_INERT_PACKAGES``, left out of the code-version hash: its code
cannot influence analysis results, so editing it must not invalidate
cached artifacts.
"""

from repro.obs.metrics import (
    MetricsRegistry,
    count,
    gauge,
    metrics,
    metrics_snapshot,
    record_cache,
    record_ingest,
)
from repro.obs.report import render_report
from repro.obs.spans import (
    Span,
    SpanCollector,
    absorb_spans,
    collector,
    current_spans,
    drain_spans,
    span,
)
from repro.obs.trace import (
    TRACE_SCHEMA,
    load_trace,
    trace_payload,
    validate_trace,
    write_trace,
)

__all__ = [
    "MetricsRegistry",
    "Span",
    "SpanCollector",
    "TRACE_SCHEMA",
    "absorb_spans",
    "collector",
    "count",
    "current_spans",
    "drain_spans",
    "gauge",
    "load_trace",
    "metrics",
    "metrics_snapshot",
    "record_cache",
    "record_ingest",
    "render_report",
    "span",
    "trace_payload",
    "validate_trace",
    "write_trace",
]
