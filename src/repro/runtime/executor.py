"""The sharded, cache-aware stage-graph executor.

:class:`ShardedRunner` walks the stage graph in topological order.  For
each stage it first consults the artifact cache (keyed on the bundle
fingerprint, stage name, code version and parameters — never on ``jobs``,
because outputs are guaranteed identical across job counts); on a miss it
either runs the stage function inline or, for per-probe stages with
``jobs > 1``, partitions the probe ids into deterministic shards and fans
them out through a :class:`~repro.runtime.supervisor.ShardSupervisor`.

Equivalence guarantee: shards are contiguous chunks of the sorted probe
ids, shard results are merged in shard order, and every kernel is a pure
per-probe function, so the merged artifacts — and therefore every table
and figure — are bit-identical to the serial pipeline's.  The test suite
pins this with :func:`repro.runtime.digest.results_digest`.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro import obs
from repro.atlas.columnar import ColumnarConnlog, ColumnarUptime
from repro.core import colartifact
from repro.core.colartifact import (
    ColumnarFilterArtifact,
    ColumnarFloatMap,
    ColumnarGapEventMap,
    ColumnarSpanMap,
)
from repro.core.pipeline import (
    AnalysisResults,
    aggregate_reboots,
    default_min_connected,
    scenario_as_labels,
)
from repro.runtime import workers
from repro.runtime.cache import DEFAULT_MAX_BYTES, ArtifactCache, code_version
from repro.runtime.board import StageResilience, SupervisionPolicy
from repro.runtime.sharding import partition, shard_count
from repro.runtime.supervisor import ShardSupervisor
from repro.runtime.stages import VIEW_ARTIFACTS, StageSpec, topological_order
from repro.util import fingerprint as fp
from repro.util import timeutil
from repro.util.heap import frozen_heap
from repro.util.ordering import ordered_merge


def resolve_start_method(requested: str | None = None) -> str:
    """Pick the multiprocessing start method for the worker processes.

    ``fork`` is the fast path (workers inherit the installed dataset
    context by page sharing instead of unpickling it), but it only
    exists on POSIX and is unsafe with threads on macOS — CPython
    deprecated it there and made ``spawn`` the default.  So: honor an
    explicit request if the platform offers it, prefer ``fork`` on
    Linux, and fall back to ``spawn`` everywhere else.  Both paths
    produce bit-identical results (pinned by the runtime test suite).
    """
    available = multiprocessing.get_all_start_methods()
    if requested is not None:
        if requested not in available:
            raise ValueError(
                "start method %r is not available on this platform "
                "(have: %s)" % (requested, ", ".join(available)))
        return requested
    if "fork" in available and sys.platform.startswith("linux"):
        return "fork"
    return "spawn"


@dataclass(frozen=True)
class RuntimeConfig:
    """Execution knobs, orthogonal to what is computed."""

    #: Worker processes; 1 means run everything in-process.
    jobs: int = 1
    #: Explicit shard count; default ``jobs * OVERSHARD`` per stage.
    shards: int | None = None
    #: Artifact cache directory; ``None`` disables caching entirely.
    cache_dir: str | Path | None = None
    #: Cache eviction budget.
    max_cache_bytes: int = DEFAULT_MAX_BYTES
    #: Pool start method: ``"fork"``, ``"spawn"`` or ``None`` for
    #: platform auto-detection (:func:`resolve_start_method`).
    start_method: str | None = None
    #: Failed attempts per shard before its probes are quarantined.
    max_retries: int = timeutil.MAX_SHARD_RETRIES
    #: Per-shard wall-clock deadline before the shard counts as hung.
    shard_deadline_s: float = timeutil.SHARD_DEADLINE_S
    #: First retry delay; attempt ``n`` waits ``base * 2**(n-1)``.
    backoff_base_s: float = timeutil.BACKOFF_BASE_S
    #: Load per-shard checkpoints from the cache before dispatching
    #: (``repro-run --resume``): a killed run restarts from the last
    #: completed shard instead of the last completed stage.
    resume: bool = False
    #: Process-fault plan (``fault_at(stage, shard, attempt)`` duck
    #: type, e.g. :class:`repro.faults.process.ProcessFaultPlan`),
    #: installed into the worker processes.  ``None`` = no injection.
    fault_plan: object | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1, got %r" % (self.jobs,))
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be >= 1, got %r" % (self.shards,))
        if self.start_method not in (None, "fork", "spawn"):
            raise ValueError("start_method must be 'fork', 'spawn' or "
                             "None, got %r" % (self.start_method,))
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0, got %r"
                             % (self.max_retries,))
        if self.shard_deadline_s <= 0:
            raise ValueError("shard_deadline_s must be positive, got %r"
                             % (self.shard_deadline_s,))
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0, got %r"
                             % (self.backoff_base_s,))

    def policy(self) -> SupervisionPolicy:
        """The supervision knobs as a :class:`SupervisionPolicy`."""
        return SupervisionPolicy(
            max_retries=self.max_retries,
            shard_deadline_s=self.shard_deadline_s,
            backoff_base_s=self.backoff_base_s)


@dataclass(frozen=True)
class StageTiming:
    """How one stage executed."""

    name: str
    seconds: float
    #: Served from the artifact cache (no computation at all).
    cached: bool
    #: Computed by worker processes (vs inline in the parent).
    sharded: bool


@dataclass
class RunReport:
    """Execution account of one :meth:`ShardedRunner.run`.

    ``jobs`` is the *effective* worker count the run used (the CLI
    resolves ``--jobs 0`` to the cpu count before it reaches here);
    ``oversubscribed`` records that it exceeded ``cpu_count``, in which
    case wall times measure time-slicing, not parallelism.
    """

    jobs: int
    fingerprint: str
    timings: list[StageTiming] = field(default_factory=list)
    cpu_count: int = 0
    oversubscribed: bool = False
    start_method: str | None = None
    #: Per-stage supervision accounts (sharded fan-out stages only).
    resilience: list[StageResilience] = field(default_factory=list)

    @property
    def cached_stages(self) -> list[str]:
        return [t.name for t in self.timings if t.cached]

    @property
    def computed_stages(self) -> list[str]:
        return [t.name for t in self.timings if not t.cached]

    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.timings)

    @property
    def degraded(self) -> bool:
        """True when retries were exhausted and shards were quarantined."""
        return any(row.degraded for row in self.resilience)

    @property
    def total_retries(self) -> int:
        return sum(row.retries for row in self.resilience)

    @property
    def total_reassignments(self) -> int:
        return sum(row.reassignments for row in self.resilience)

    @property
    def quarantined_probes(self) -> list[int]:
        """Probe ids the run abandoned, across all degraded stages."""
        quarantined: list[int] = []
        for row in self.resilience:
            quarantined.extend(row.quarantined_probes)
        return quarantined

    def render(self) -> str:
        """Stage table (plus supervision account) for ``repro-run``."""
        lines = ["%-8s  %9s  %s" % ("stage", "seconds", "mode")]
        for timing in self.timings:
            mode = ("cached" if timing.cached
                    else "sharded" if timing.sharded else "inline")
            lines.append("%-8s  %9.3f  %s"
                         % (timing.name, timing.seconds, mode))
        total = "%-8s  %9.3f  jobs=%d" % ("total", self.total_seconds,
                                          self.jobs)
        if self.jobs > 1 and self.start_method:
            total += " (%s)" % self.start_method
        if self.oversubscribed:
            total += "  OVERSUBSCRIBED: %d jobs on %d cpu(s)" % (
                self.jobs, self.cpu_count)
        lines.append(total)
        lines.extend(self._render_resilience())
        return "\n".join(lines)

    def _render_resilience(self) -> list[str]:
        eventful = [row for row in self.resilience
                    if row.retries or row.reassignments or row.abandoned
                    or row.checkpoints_loaded]
        if not eventful:
            return []
        lines = ["", "%-8s  %7s  %8s  %9s  %9s  %7s" % (
            "stage", "shards", "retries", "reassign", "resumed", "lost")]
        for row in eventful:
            lines.append("%-8s  %7d  %8d  %9d  %9d  %7d" % (
                row.stage, row.shards, row.retries, row.reassignments,
                row.checkpoints_loaded, len(row.abandoned)))
        if self.degraded:
            analyzed = sum(row.analyzed_items for row in self.resilience)
            quarantined = sum(row.quarantined_items
                              for row in self.resilience)
            lines.append(
                "DEGRADED: retries exhausted on %d shard(s); "
                "%d item(s) analyzed, %d quarantined"
                % (sum(len(row.abandoned) for row in self.resilience),
                   analyzed, quarantined))
            for row in self.resilience:
                for index in row.abandoned:
                    causes = [failure.cause for failure in row.failures
                              if failure.shard_index == index]
                    lines.append(
                        "  %s shard %d: %s" % (
                            row.stage, index,
                            " -> ".join(causes) if causes else "unknown"))
        return lines


class ShardedRunner:
    """Runs the analysis stage graph over one set of datasets."""

    def __init__(self, connlog, archive, kroot, uptime, ip2as,
                 as_names: Mapping[int, str] | None = None,
                 as_countries: Mapping[int, str] | None = None,
                 min_connected: float = 30 * timeutil.DAY,
                 fingerprint: str = "",
                 config: RuntimeConfig | None = None) -> None:
        self._connlog = connlog
        self._archive = archive
        self._kroot = kroot
        self._uptime = uptime
        self._ip2as = ip2as
        self._as_names = dict(as_names or {})
        self._as_countries = dict(as_countries or {})
        self._min_connected = min_connected
        self.fingerprint = fingerprint
        self.config = config or RuntimeConfig()
        self.start_method = resolve_start_method(self.config.start_method)
        self.cache: ArtifactCache | None = None
        if self.config.cache_dir is not None:
            self.cache = ArtifactCache(
                self.config.cache_dir,
                max_bytes=self.config.max_cache_bytes)
        self.report = self._new_report()
        self._supervisor: ShardSupervisor | None = None
        self._version = ""
        self._params = ""
        #: The columnar views (DESIGN.md §16) built so far, by name.
        self._views: dict[str, object] = {}

    def _new_report(self) -> RunReport:
        cpus = os.cpu_count() or 1
        return RunReport(
            jobs=self.config.jobs, fingerprint=self.fingerprint,
            cpu_count=cpus, oversubscribed=self.config.jobs > cpus,
            start_method=self.start_method)

    # -- public -------------------------------------------------------------

    def run(self) -> AnalysisResults:
        """Execute every stage (cache-skipping) and assemble the results."""
        artifacts: dict[str, object] = {
            "connlog": self._connlog,
            "archive": self._archive,
            "ip2as": self._ip2as,
            "uptime": self._uptime,
            "kroot": self._kroot,
            "min_connected": self._min_connected,
        }
        self.report = self._new_report()
        params = fp.combine("min_connected", repr(self._min_connected))
        version = code_version()
        self._params = params
        self._version = version
        try:
            with frozen_heap(), obs.span(
                    "run", category="run", jobs=self.config.jobs,
                    start_method=self.start_method):
                for spec in topological_order():
                    started = time.perf_counter()
                    with obs.span(spec.name, category="stage") as handle:
                        outputs, cached, sharded = self._run_stage(
                            spec, artifacts, version, params)
                        handle.set(cached=cached, sharded=sharded)
                    artifacts.update(outputs)
                    self.report.timings.append(StageTiming(
                        spec.name, time.perf_counter() - started, cached,
                        sharded))
        finally:
            if self._supervisor is not None:
                self._supervisor.shutdown()
                self._supervisor = None
        self._record_metrics()
        return self._assemble(artifacts)

    def _record_metrics(self) -> None:
        """Lift this run's execution facts into the metrics registry.

        This — not the stage functions — is the instrumentation
        boundary: metrics describe how the run executed and never feed
        back into what it computed.
        """
        obs.gauge("runtime.jobs.effective", self.report.jobs)
        obs.gauge("runtime.cpu_count", self.report.cpu_count)
        obs.gauge("runtime.oversubscribed",
                  1 if self.report.oversubscribed else 0)
        if self.report.resilience:
            obs.gauge("runtime.degraded", 1 if self.report.degraded else 0)
            obs.gauge("runtime.quarantined_probes",
                      len(self.report.quarantined_probes))
        if self.cache is not None:
            obs.record_cache(self.cache.stats,
                             bytes_on_disk=self.cache.total_bytes())

    # -- stage execution ----------------------------------------------------

    def _run_stage(self, spec: StageSpec, artifacts: dict, version: str,
                   params: str) -> tuple[dict, bool, bool]:
        key = None
        if self.cache is not None and self.fingerprint and spec.cacheable:
            key = ArtifactCache.key(self.fingerprint, spec.name, version,
                                    params)
            hit, value = self.cache.load(key, stage=spec.name)
            if hit:
                return self._revive(value), True, False
        sharded = self.config.jobs > 1 and spec.fan_out
        if sharded:
            outputs = self._compute_sharded(spec, artifacts)
        else:
            result = spec.func(*(self._input(name, artifacts)
                                 for name in spec.inputs))
            values = result if len(spec.outputs) > 1 else (result,)
            outputs = dict(zip(spec.outputs, values))
        if key is not None and not self.report.degraded:
            # A degraded stage's artifact — and every artifact computed
            # downstream of one — is incomplete by definition, and the
            # cache key (fingerprint, stage, version, params) does not
            # encode the degradation: storing either would silently
            # poison every later warm run.  One degraded stage therefore
            # stops artifact caching for the rest of the run.
            self.cache.store(key, self._cacheable(spec, outputs))
        return outputs, False, sharded

    def _input(self, name: str, artifacts: dict) -> object:
        """One stage input; a columnar view is built on its first use."""
        if name not in VIEW_ARTIFACTS:
            return artifacts[name]
        if name not in self._views:
            if name == "colconn":
                view = ColumnarConnlog.from_connlog(self._connlog)
            else:
                view = ColumnarUptime.from_uptime(self._uptime)
            self._views[name] = view
        return self._views[name]

    @staticmethod
    def _cacheable(spec: StageSpec, outputs: dict) -> dict:
        """What actually goes to disk for one stage's outputs.

        The filter report is stored in its columnar form, like the span,
        duration and gap-event maps the stages already return, so the
        entry pickles a few arrays instead of a record graph.  Verdict
        entry lists are dropped on the way — no stage reads them.
        """
        if spec.name == "filter":
            return {"filter_report": ColumnarFilterArtifact.from_report(
                outputs["filter_report"])}
        return outputs

    @staticmethod
    def _revive(outputs: object) -> object:
        """Decode the cached filter artifact back into its report."""
        if isinstance(outputs, dict):
            revived = None
            for name, item in outputs.items():
                decoded = colartifact.decode_value(item)
                if decoded is not item:
                    if revived is None:
                        revived = dict(outputs)
                    revived[name] = decoded
            if revived is not None:
                return revived
        return outputs

    def _ensure_supervisor(self) -> ShardSupervisor:
        """The run's fault-tolerant dispatcher, created on first fan-out."""
        if self._supervisor is None:
            context = workers.WorkerContext(
                connlog=self._connlog, archive=self._archive,
                ip2as=self._ip2as, kroot=self._kroot, uptime=self._uptime,
                min_connected=self._min_connected,
                fault_plan=self.config.fault_plan)
            self._supervisor = ShardSupervisor(
                context, jobs=self.config.jobs,
                start_method=self.start_method,
                policy=self.config.policy(), cache=self.cache,
                fingerprint=self.fingerprint, version=self._version,
                params=self._params, resume=self.config.resume)
        return self._supervisor

    def _stage_payloads(self, stage: str, shards: list[list],
                        probe_of=lambda item: item) -> list:
        """Shard payloads for one fan-out stage, in shard order.

        Dispatch goes through :class:`ShardSupervisor` (recovery,
        checkpoints, quarantine — abandoned shards are dropped from the
        merge and accounted in the report).
        """
        # A stage downstream of a degraded one runs on inputs that are
        # missing quarantined work: taint it so the supervisor neither
        # stores nor resumes its shard checkpoints.
        outcome = self._ensure_supervisor().run_stage(
            stage, stage, shards, probe_of, tainted=self.report.degraded)
        self.report.resilience.append(outcome.resilience)
        return [payload for payload in outcome.payloads
                if payload is not None]

    def _shards_of(self, probe_ids: list) -> list[list]:
        return partition(probe_ids, shard_count(
            self.config.jobs, len(probe_ids), self.config.shards))

    def _compute_sharded(self, spec: StageSpec, artifacts: dict) -> dict:
        """Fan one per-probe stage out over shards; merge canonically.

        Probe ids are sorted (dataset accessors return them sorted) and
        shards are contiguous chunks, so the columnar shard outputs
        concatenated in shard order are the serial output, keys sorted;
        :func:`_concat_sorted` checks that instead of re-sorting.  The
        reboot records still merge through :func:`ordered_merge`.
        """
        if spec.name == "filter":
            shards = self._shards_of(self._connlog.probe_ids())
            artifact = _concat_sorted(
                ColumnarFilterArtifact,
                self._stage_payloads("filter", shards))
            return {"filter_report": artifact.to_report()}

        if spec.name == "spans":
            filter_report = artifacts["filter_report"]
            shards = self._shards_of(filter_report.analyzable_geo())
            payloads = self._stage_payloads("spans", shards)
            return {"spans_by_probe": _concat_sorted(
                        ColumnarSpanMap, [spans for spans, _ in payloads]),
                    "durations_by_probe": _concat_sorted(
                        ColumnarFloatMap,
                        [durations for _, durations in payloads])}

        if spec.name == "reboots":
            shards = self._shards_of(self._uptime.probe_ids())
            raw = ordered_merge(
                *self._stage_payloads("reboots", shards))
            day_counts, firmware_days, filtered = aggregate_reboots(raw)
            return {"reboot_day_counts": day_counts,
                    "firmware_days": firmware_days,
                    "filtered_reboots": filtered}

        if spec.name == "gaps":
            filter_report = artifacts["filter_report"]
            filtered = artifacts["filtered_reboots"]
            eligible = [pid for pid in filter_report.analyzable_as()
                        if self._kroot.has_probe(pid)]
            items = [(pid, filtered.get(pid, [])) for pid in eligible]
            shards = self._shards_of(items)
            return {"gap_events_by_probe": _concat_sorted(
                ColumnarGapEventMap,
                self._stage_payloads("gaps", shards,
                                     probe_of=lambda item: item[0]))}

        raise ValueError("stage %r is not fan-out capable" % (spec.name,))

    # -- assembly -----------------------------------------------------------

    def _assemble(self, artifacts: dict) -> AnalysisResults:
        return AnalysisResults(
            filter_report=artifacts["filter_report"],
            archive=self._archive,
            ip2as=self._ip2as,
            as_names=self._as_names,
            as_countries=self._as_countries,
            spans_by_probe=artifacts["spans_by_probe"],
            durations_by_probe=artifacts["durations_by_probe"],
            changes_by_probe=artifacts["changes_by_probe"],
            asn_by_probe=artifacts["asn_by_probe"],
            gap_events_by_probe=artifacts["gap_events_by_probe"],
            stats_by_probe=artifacts["stats_by_probe"],
            reboot_day_counts=artifacts["reboot_day_counts"],
            firmware_days=artifacts["firmware_days"],
            _v3_probes=artifacts["v3_probes"],
        )


def _concat_sorted(kind, payloads: list):
    """Join columnar shard payloads in shard order; keys must ascend.

    Contiguous shards of sorted probe ids give sorted keys by
    construction, so unsorted keys mean the shards were not such chunks.
    """
    merged = kind.concat(payloads)
    ids = merged.columns["probe_ids"]
    if not bool((ids[1:] > ids[:-1]).all()):
        raise RuntimeError("%s shard payloads are not contiguous chunks of "
                           "sorted probe ids" % (kind.__name__,))
    return merged


def world_fingerprint(config) -> str:
    """Content fingerprint of an inline-simulated world.

    The world is a pure function of its :class:`ScenarioConfig` (the
    simulator is seeded), so the config's canonical repr — dataclasses
    all the way down — identifies the datasets exactly; simulator code
    changes are covered by the cache's code-version component, which
    hashes every module outside ``RESULT_INERT_PACKAGES``
    (``tests/runtime/test_code_version_sync.py`` pins a warm cache
    missing after a simulator edit).
    """
    return fp.combine("world", repr(config))


def runner_for_bundle(bundle, config: RuntimeConfig | None = None,
                      min_connected: float | None = None) -> ShardedRunner:
    """Build a runner from a loaded on-disk bundle.

    Mirrors :func:`repro.core.pipeline.pipeline_for_bundle`, including the
    ``min_connected`` default.
    """
    if min_connected is None:
        min_connected = default_min_connected(bundle.start, bundle.end)
    return ShardedRunner(
        bundle.connlog, bundle.archive, bundle.kroot, bundle.uptime,
        bundle.ip2as, as_names=bundle.as_names,
        as_countries=bundle.as_countries, min_connected=min_connected,
        fingerprint=bundle.fingerprint, config=config)


def runner_for_world(world, config: RuntimeConfig | None = None,
                     min_connected: float | None = None) -> ShardedRunner:
    """Build a runner from a simulated :class:`WorldData` in memory.

    Mirrors :func:`repro.core.pipeline.pipeline_for_world`.
    """
    as_names, as_countries = scenario_as_labels(world.config)
    if min_connected is None:
        min_connected = default_min_connected(world.config.start,
                                              world.config.end)
    return ShardedRunner(
        world.connlog, world.archive, world.kroot, world.uptime,
        world.ip2as, as_names=as_names, as_countries=as_countries,
        min_connected=min_connected,
        fingerprint=world_fingerprint(world.config), config=config)
