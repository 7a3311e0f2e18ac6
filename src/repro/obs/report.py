"""Human-readable summary of one run's trace file.

``repro-obs report trace.json`` renders, from the spans and metrics a
traced run exported:

* simulator phases (``sim``-category spans from ``build_world`` and
  ``write_world``) with probes simulated per second, and each process's
  share of the probe walk (``sim:walk``, parent and forked worker);
* per-stage wall time with execution mode and share of total;
* shard skew per fan-out stage (min/mean/max shard seconds — a high
  max/mean ratio means one shard straggled and capped the speedup);
* cache effectiveness (hits, misses, stores, evictions, corrupt-entry
  heals, bytes written);
* distributed-run accounting when the trace came from ``repro-dist``
  (workers seen, leases granted and reassigned, per-worker lease skew,
  bytes over the wire);
* ingest accounting (parsed / repaired / quarantined per dataset, with
  the loss fraction) and injected-fault counts when present.

Everything here is pure rendering over the loaded payload; the numbers
were fixed when the trace was written.
"""

from __future__ import annotations

_MICROSECONDS = 1e6


def _simulate_lines(events: list[dict]) -> list[str]:
    phases: dict[str, float] = {}
    probes = processes = 0
    walks: list[str] = []
    for event in events:
        if event.get("cat") != "sim":
            continue
        name = event["name"]
        seconds = event["dur"] / _MICROSECONDS
        args = event.get("args", {})
        if name == "sim:walk":
            # One per process that walked probes, inside sim:probes.
            walks.append("  %-8s  %9.3f  %6s  %d probes"
                         % (args.get("side", "?"), seconds, "",
                            int(args.get("probes", 0))))
            continue
        phases[name] = phases.get(name, 0.0) + seconds
        if name == "sim:probes":
            probes += int(args.get("probes", 0))
            processes = max(processes, int(args.get("processes", 1)))
    if not phases:
        return []
    total = sum(phases.values()) or 1.0
    lines = ["%-10s  %9s  %6s" % ("phase", "seconds", "share")]
    for name, seconds in phases.items():
        line = "%-10s  %9.3f  %5.1f%%" % (name, seconds,
                                          100.0 * seconds / total)
        if name == "sim:probes" and seconds > 0:
            line += "  %d probes, %.0f probes/s, %d process%s" % (
                probes, probes / seconds, processes,
                "" if processes == 1 else "es")
        lines.append(line)
        if name == "sim:probes":
            lines.extend(walks)
    return lines


def _stage_lines(events: list[dict]) -> list[str]:
    stages = [event for event in events if event.get("cat") == "stage"]
    if not stages:
        return ["(no stage spans recorded)"]
    total = sum(event["dur"] for event in stages) or 1.0
    lines = ["%-8s  %9s  %6s  %s" % ("stage", "seconds", "share", "mode")]
    for event in stages:
        args = event.get("args", {})
        mode = ("cached" if args.get("cached")
                else "sharded" if args.get("sharded") else "inline")
        lines.append("%-8s  %9.3f  %5.1f%%  %s"
                     % (event["name"], event["dur"] / _MICROSECONDS,
                        100.0 * event["dur"] / total, mode))
    return lines


def _skew_lines(events: list[dict]) -> list[str]:
    by_stage: dict[str, list[float]] = {}
    for event in events:
        if event.get("cat") != "shard":
            continue
        stage = str(event.get("args", {}).get("stage", event["name"]))
        by_stage.setdefault(stage, []).append(
            event["dur"] / _MICROSECONDS)
    if not by_stage:
        return []
    lines = ["%-8s  %6s  %9s  %9s  %9s  %s"
             % ("stage", "shards", "min s", "mean s", "max s", "skew")]
    for stage, durations in by_stage.items():
        mean = sum(durations) / len(durations)
        skew = (max(durations) / mean) if mean else 1.0
        lines.append("%-8s  %6d  %9.3f  %9.3f  %9.3f  %.2fx"
                     % (stage, len(durations), min(durations), mean,
                        max(durations), skew))
    return lines


def _cache_lines(counters: dict[str, float],
                 gauges: dict[str, float]) -> list[str]:
    if not any(name.startswith("cache.") for name in counters):
        return []
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    looked = hits + misses
    rate = (100.0 * hits / looked) if looked else 0.0
    lines = ["hits %d  misses %d  (%.1f%% hit rate)  stores %d"
             % (hits, misses, rate, counters.get("cache.stores", 0)),
             "evictions %d  corrupt-entry heals %d  bytes stored %d"
             % (counters.get("cache.evictions", 0),
                counters.get("cache.heals", 0),
                counters.get("cache.bytes_stored", 0))]
    if "cache.bytes_on_disk" in gauges:
        lines.append("bytes on disk %d" % gauges["cache.bytes_on_disk"])
    return lines


def _ingest_lines(counters: dict[str, float]) -> list[str]:
    datasets: dict[str, dict[str, float]] = {}
    for name, value in counters.items():
        parts = name.split(".")
        if len(parts) == 3 and parts[0] == "ingest":
            datasets.setdefault(parts[2], {})[parts[1]] = value
    if not datasets:
        return []
    lines = ["%-12s %8s %9s %12s %7s"
             % ("dataset", "parsed", "repaired", "quarantined", "loss")]
    for dataset in sorted(datasets):
        row = datasets[dataset]
        parsed = row.get("parsed", 0)
        repaired = row.get("repaired", 0)
        quarantined = row.get("quarantined", 0)
        total = parsed + repaired + quarantined
        loss = (100.0 * quarantined / total) if total else 0.0
        lines.append("%-12s %8d %9d %12d %6.2f%%"
                     % (dataset, parsed, repaired, quarantined, loss))
    return lines


def _resilience_lines(events: list[dict], counters: dict[str, float],
                      gauges: dict[str, float]) -> list[str]:
    """Supervision account: retries, reassignments, quarantine, resume.

    Fed by the ``runtime.*`` counters both shard schedulers emit (the
    local supervisor and the dist coordinator) plus the local
    supervisor's ``supervisor``-category spans (one per fan-out stage).
    """
    supervised = [event for event in events
                  if event.get("cat") == "supervisor"]
    names = ("runtime.retries", "runtime.reassignments",
             "runtime.quarantined_shards", "runtime.pool.respawns",
             "runtime.checkpoints.loaded", "runtime.checkpoints.stored")
    if not supervised and not any(name in counters for name in names):
        return []
    lines = ["retries %d  reassignments %d  worker respawns %d"
             % (counters.get("runtime.retries", 0),
                counters.get("runtime.reassignments", 0),
                counters.get("runtime.pool.respawns", 0)),
             "checkpoints stored %d  resumed %d"
             % (counters.get("runtime.checkpoints.stored", 0),
                counters.get("runtime.checkpoints.loaded", 0))]
    failures = {name.split(".", 3)[3]: value
                for name, value in counters.items()
                if name.startswith("runtime.shard.failures.")}
    if failures:
        lines.append("shard failures  " + "  ".join(
            "%s %d" % (cause, failures[cause])
            for cause in sorted(failures)))
    quarantined = counters.get("runtime.quarantined_shards", 0)
    if quarantined or gauges.get("runtime.degraded"):
        lines.append("DEGRADED: %d shard(s) quarantined, %d probe(s) lost"
                     % (quarantined,
                        gauges.get("runtime.quarantined_probes", 0)))
    for event in supervised:
        args = event.get("args", {})
        lines.append("%-18s  shards %d  retries %d  reassigned %d  "
                     "abandoned %d"
                     % (event.get("name", "?"), args.get("shards", 0),
                        args.get("retries", 0),
                        args.get("reassignments", 0),
                        args.get("abandoned", 0)))
    return lines


def _dist_lines(events: list[dict],
                counters: dict[str, float]) -> list[str]:
    """Distributed-run account: workers, leases, skew, wire traffic.

    Fed by the ``dist.*`` counters the coordinator emits plus its
    ``dist``-category spans (one per stage served over the wire).
    """
    served = [event for event in events if event.get("cat") == "dist"]
    if not served and not any(name.startswith("dist.")
                              for name in counters):
        return []
    lines = ["workers seen %d  leases granted %d  reassignments %d"
             % (counters.get("dist.workers.seen", 0),
                counters.get("dist.leases.granted", 0),
                counters.get("dist.leases.reassigned", 0)),
             "bytes sent %d  bytes received %d"
             % (counters.get("dist.bytes.sent", 0),
                counters.get("dist.bytes.received", 0))]
    anomalies = []
    for name, label in (("dist.results.duplicate", "duplicate results"),
                        ("dist.results.late", "late results"),
                        ("dist.results.stray", "stray results"),
                        ("dist.results.cache_hits", "cache-hit leases"),
                        ("dist.workers.disconnects", "disconnects")):
        if counters.get(name):
            anomalies.append("%s %d" % (label, counters[name]))
    if anomalies:
        lines.append("  ".join(anomalies))
    per_worker = {name.split(".", 3)[3]: value
                  for name, value in counters.items()
                  if name.startswith("dist.leases.worker.")}
    if per_worker:
        granted = sum(per_worker.values()) or 1.0
        mean = granted / len(per_worker)
        lines.append("lease skew      " + "  ".join(
            "%s %d (%.2fx)" % (worker, per_worker[worker],
                               per_worker[worker] / mean)
            for worker in sorted(per_worker)))
    for event in served:
        args = event.get("args", {})
        lines.append("%-18s  leases %d  retries %d  reassigned %d  "
                     "abandoned %d"
                     % (event.get("name", "?"), args.get("leases", 0),
                        args.get("retries", 0),
                        args.get("reassignments", 0),
                        args.get("abandoned", 0)))
    return lines


def _fault_lines(counters: dict[str, float]) -> list[str]:
    kinds = {name.split(".", 2)[2]: value
             for name, value in counters.items()
             if name.startswith("faults.injected.")}
    if not kinds:
        return []
    return ["%-24s %d" % (kind, kinds[kind]) for kind in sorted(kinds)]


def _run_lines(gauges: dict[str, float],
               meta: dict[str, object]) -> list[str]:
    lines: list[str] = []
    if "runtime.jobs.effective" in gauges:
        jobs = int(gauges["runtime.jobs.effective"])
        cpus = int(gauges.get("runtime.cpu_count", 0))
        line = "jobs %d" % jobs
        if cpus:
            line += " of %d cpu%s" % (cpus, "" if cpus == 1 else "s")
        if gauges.get("runtime.oversubscribed"):
            line += "  OVERSUBSCRIBED (timings reflect time-slicing)"
        lines.append(line)
    for key in ("start_method", "fingerprint", "results_digest"):
        if meta.get(key):
            lines.append("%s %s" % (key.replace("_", " "), meta[key]))
    return lines


def render_report(payload: dict) -> str:
    """The full ``repro-obs report`` text for one loaded trace."""
    events = [event for event in payload.get("traceEvents", [])
              if isinstance(event, dict)]
    stores = payload.get("metrics", {})
    counters = dict(stores.get("counters", {}))
    gauges = dict(stores.get("gauges", {}))
    meta = dict(payload.get("meta", {}))

    sections: list[tuple[str, list[str]]] = [
        ("run", _run_lines(gauges, meta)),
        ("simulate", _simulate_lines(events)),
        ("stages", _stage_lines(events)),
        ("shard skew", _skew_lines(events)),
        ("cache", _cache_lines(counters, gauges)),
        ("resilience", _resilience_lines(events, counters, gauges)),
        ("dist", _dist_lines(events, counters)),
        ("ingest", _ingest_lines(counters)),
        ("faults injected", _fault_lines(counters)),
    ]
    blocks = []
    for title, lines in sections:
        if not lines:
            continue
        blocks.append("\n".join(["== %s" % title] + lines))
    return "\n\n".join(blocks) if blocks else "(empty trace)"
