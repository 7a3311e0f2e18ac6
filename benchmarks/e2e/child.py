"""One benchmark phase, run in a fresh interpreter by the harness.

Usage (the harness does this; there is no reason to by hand)::

    python child.py REQUEST.json T0

``REQUEST.json`` names the phase and its inputs; the phase writes what
it measured and observed as JSON to the request's ``result`` path.
``T0`` is the parent's ``time.perf_counter()`` reading taken just before
it spawned this process.  On Linux that clock is ``CLOCK_MONOTONIC``, one
timebase for every process, so ``perf_counter() - T0`` is the wall time
since the child was started -- interpreter start-up and imports
included.

Phases:

* ``setup`` -- the scrape every workload starts from: simulate the world
  and write the bundle.  ``rerun`` then injects faults, loads the dirty
  copy under REPAIR and primes an artifact cache.  The last setup of a
  run also computes the *reference* digest the timed iterations are
  checked against, by a different path than the timed body.
* ``body`` -- one timed iteration: the workload's analysis followed by
  rendering all experiments.

Only stdlib modules load before ``T0``'s clock matters; every ``repro``
import happens inside the phase, so import time is part of the wall.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import pickle
import resource
import sys
import time
from pathlib import Path

from tracer import NULL_TRACER, LayerTracer, NullTracer

#: Line-fault rate for ``rerun``: REPAIR quarantines about 6% of connlog
#: lines (garbled, truncated, duplicated) and re-sorts swapped pairs.
FAULT_RATE = 0.02

#: Loopback worker threads for ``scatter`` (one per cpu of the target
#: 2-cpu host).
SCATTER_WORKERS = 2

#: Datasets whose ingest totals REPAIR must reconcile exactly.
DATASETS = ("archive", "connlog", "uptime", "kroot", "pfx2as")

#: The stages of the analysis graph, and the ``repro.core.pipeline``
#: function ``AnalysisPipeline.run`` calls for each (the runtime path is
#: timed through ``ShardedRunner._run_stage`` instead).
PIPELINE_STAGES = (("filter", "stage_filter_col"),
                   ("spans", "stage_spans_col"),
                   ("changes", "stage_changes"),
                   ("reboots", "stage_reboots_col"),
                   ("gaps", "stage_gaps_col"),
                   ("stats", "stage_stats"),
                   ("v3", "stage_v3"))

#: Experiments whose render time is reported on its own.
RENDER_DETAIL = ("table7", "ext-admin", "ext-churn", "table5")

#: Modules each phase needs, imported up front so ``import.s`` holds them.
_COMMON = ("repro.obs", "repro.runtime.digest")
_IMPORTS = {
    "setup": _COMMON + ("repro.sim.io", "repro.sim.scenario",
                        "repro.sim.world", "repro.faults.plan",
                        "repro.util.ingest", "repro.runtime.executor",
                        "repro.core.pipeline"),
    "fresh": _COMMON + ("repro.experiments.scenarios",),
    "reanalyze": _COMMON + ("repro.sim.io", "repro.util.ingest",
                            "repro.runtime.executor"),
    "scatter": _COMMON + ("repro.sim.io", "repro.util.ingest",
                          "repro.dist.coordinator", "repro.dist.loopback",
                          "repro.runtime.workers", "repro.util.colpack"),
}
_IMPORTS["rerun"] = _IMPORTS["reanalyze"]
_RENDER_IMPORTS = ("repro.experiments.extensions",
                   "repro.experiments.figures", "repro.experiments.tables",
                   "repro.experiments.registry")


def rss_mb() -> float:
    """This process's peak resident set size so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def _import(names) -> None:
    for name in names:
        importlib.import_module(name)


def _start(req: dict, modules) -> LayerTracer | NullTracer:
    """Import the phase's modules; return its tracer.

    The imports are timed by hand: ``repro.obs`` cannot record a span
    before ``repro`` itself is imported.
    """
    started = time.perf_counter()
    _import(modules)
    if not req["traced"]:
        return NULL_TRACER
    from repro import obs
    tracer = LayerTracer(obs)
    tracer.record("import", started, time.perf_counter())
    _install(tracer)
    return tracer


def _install(tracer: LayerTracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    from repro.atlas.columnar import ColumnarConnlog, ColumnarUptime
    from repro.atlas.connlog import ConnectionLog
    from repro.atlas.sosuptime import UptimeDataset
    from repro.core import pipeline
    from repro.net.pfx2as import Pfx2AsSnapshot
    from repro.ppp.radius import RadiusServer
    from repro.runtime.cache import ArtifactCache
    from repro.runtime.executor import ShardedRunner
    from repro.sim.timeline import ProbeSimulator

    tracer.wrap(RadiusServer, "account_stop", "ppp.radius.account_stop",
                hot=True)
    tracer.wrap(ProbeSimulator, "run", "sim.timeline.run")
    tracer.wrap(ConnectionLog, "read", "atlas.connlog.read")
    tracer.wrap(UptimeDataset, "read", "atlas.sosuptime.read")
    tracer.wrap(Pfx2AsSnapshot, "read", "net.pfx2as.read")
    tracer.wrap(ColumnarConnlog, "from_connlog", "atlas.columnar.from_connlog")
    tracer.wrap(ColumnarUptime, "from_uptime", "atlas.columnar.from_uptime")
    tracer.wrap(ArtifactCache, "load", "runtime.cache.load")
    tracer.wrap(ArtifactCache, "store", "runtime.cache.store")
    tracer.wrap(ShardedRunner, "_run_stage",
                lambda runner, spec, *rest: "stage." + spec.name)
    for stage, function in PIPELINE_STAGES:
        tracer.wrap(pipeline, function, "stage." + stage)
    tracer.install()


def _uptime_records(uptime) -> int:
    return sum(len(uptime.records(pid)) for pid in uptime.probe_ids())


def _dir_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*")
               if path.is_file())


# -- setup ------------------------------------------------------------------

def run_setup(req: dict) -> dict:
    """Scrape (plus rerun's faults and cache priming); see module doc."""
    tracer = _start(req, _IMPORTS["setup"])
    from repro import obs
    from repro.runtime.digest import results_digest
    from repro.runtime.executor import RuntimeConfig, runner_for_bundle
    from repro.sim.io import load_bundle, write_world
    from repro.sim.scenario import paper_scenario
    from repro.sim.world import build_world
    from repro.util.ingest import IngestReport, ReadPolicy

    workload = req["workload"]
    bundle = Path(req["bundle"])
    out: dict = {}
    started = time.perf_counter()
    with tracer.span("setup", workload=workload):
        with tracer.span("sim.build_world"):
            world = build_world(paper_scenario(scale=req["scale"],
                                               seed=req["seed"]))
        out["sim_rss_mb"] = rss_mb()
        with tracer.span("sim.io.write_world"):
            write_world(world, bundle)
        out["bundle_bytes"] = _dir_bytes(bundle)
        if workload == "rerun":
            from repro.faults.plan import FaultPlan
            with tracer.span("faults.inject"):
                faults = FaultPlan.uniform(req["seed"], FAULT_RATE).apply(
                    bundle)
            ingest = IngestReport()
            with tracer.span("sim.io.load_bundle"):
                dirty = load_bundle(bundle, policy=ReadPolicy.REPAIR,
                                    report=ingest)
            runner = runner_for_bundle(
                dirty, RuntimeConfig(cache_dir=req["cache_dir"]))
            with tracer.span("analysis.run"):
                primed = runner.run()
    out["setup_s"] = time.perf_counter() - started
    out["records"] = (len(world.archive) + world.connlog.entry_count()
                      + _uptime_records(world.uptime))

    if tracer is not NULL_TRACER:
        out["layers"] = _setup_layers(tracer, out)
        for name, value in out["layers"].items():
            obs.gauge("bench." + name, value)
        with open(req["ship"], "wb") as stream:
            pickle.dump({"spans": obs.drain_spans(),
                         "metrics": obs.metrics().drain()}, stream)
        tracer.uninstall()

    if workload == "rerun":
        out["reference_digest"] = results_digest(primed)
        out["expected_records"] = {name: faults.expected_records(name)
                                   for name in DATASETS}
        out["primed_degraded"] = runner.report.degraded
    elif req["reference"]:
        out["reference_digest"] = _reference_digest(workload, world, bundle)
    return out


def _reference_digest(workload: str, world, bundle: Path) -> str:
    """The digest of the timed body's output, computed another way.

    ``fresh`` times ``AnalysisPipeline`` over the in-memory world; its
    reference goes through the runtime executor instead.  The bundle
    workloads time the executor (or the socket tier); their reference is
    ``AnalysisPipeline`` over a STRICT load.
    """
    from repro.core.pipeline import pipeline_for_bundle
    from repro.runtime.digest import results_digest
    from repro.runtime.executor import runner_for_world
    from repro.sim.io import load_bundle

    if workload == "fresh":
        return results_digest(runner_for_world(world).run())
    return results_digest(pipeline_for_bundle(load_bundle(bundle)).run())


def _setup_layers(tracer: LayerTracer, out: dict) -> dict:
    sim = tracer.total("sim.build_world")
    stops = tracer.total("ppp.radius.account_stop")
    return {
        "sim.build_world.s": sim.seconds,
        "sim.timeline.run.s": tracer.total("sim.timeline.run").seconds,
        "ppp.radius.account_stop.calls": stops.calls,
        "ppp.radius.account_stop.s": stops.seconds,
        "sim.gc_share": _share(sim.gc_s, sim.seconds),
        "sim.rss_mb": out["sim_rss_mb"],
        "sim.io.write_world.s": tracer.total("sim.io.write_world").seconds,
        "sim.io.bundle_bytes": out["bundle_bytes"],
    }


# -- body -------------------------------------------------------------------

def _fresh(req: dict, tracer, facts: dict):
    from repro.experiments.scenarios import paper_results, paper_world
    with tracer.span("sim.build_world"):
        world = paper_world(scale=req["scale"], seed=req["seed"])
    facts["inputs_rss_mb"] = rss_mb()
    with tracer.span("analysis.run"):
        results = paper_results(scale=req["scale"], seed=req["seed"])
    return results, None, None, world


def _load(req: dict, tracer, facts: dict, repair: bool):
    from repro import obs
    from repro.sim.io import load_bundle
    from repro.util.ingest import IngestReport, ReadPolicy
    ingest = IngestReport()
    policy = ReadPolicy.REPAIR if repair else ReadPolicy.STRICT
    with tracer.span("sim.io.load_bundle"):
        bundle = load_bundle(req["bundle"], policy=policy, report=ingest)
    obs.record_ingest(ingest)
    facts["inputs_rss_mb"] = rss_mb()
    return bundle, ingest


def _runtime(req: dict, tracer, facts: dict):
    from repro.runtime.executor import RuntimeConfig, runner_for_bundle
    bundle, ingest = _load(req, tracer, facts,
                           repair=req["workload"] == "rerun")
    runner = runner_for_bundle(bundle,
                               RuntimeConfig(cache_dir=req["cache_dir"]))
    with tracer.span("analysis.run"):
        results = runner.run()
    return results, runner.report, ingest, bundle


def _scatter(req: dict, tracer, facts: dict):
    from repro.dist.coordinator import DistConfig, dist_runner_for_bundle
    from repro.dist.loopback import run_loopback
    from repro.runtime.workers import WorkerContext
    from repro.util.colpack import HAVE_NUMPY
    bundle, ingest = _load(req, tracer, facts, repair=False)
    runner = dist_runner_for_bundle(bundle,
                                    DistConfig(workers=SCATTER_WORKERS))
    context = WorkerContext(
        connlog=bundle.connlog, archive=bundle.archive, ip2as=bundle.ip2as,
        kroot=bundle.kroot, uptime=bundle.uptime,
        min_connected=runner._min_connected, columnar=HAVE_NUMPY)
    with tracer.span("analysis.run"):
        run = run_loopback(runner, context, worker_count=SCATTER_WORKERS)
    facts["worker_errors"] = run.worker_errors
    facts["digest"] = run.digest
    return run.results, run.report, ingest, bundle


_BODIES = {"fresh": _fresh, "reanalyze": _runtime, "rerun": _runtime,
           "scatter": _scatter}


def _render(results, tracer) -> tuple[str, list[str]]:
    """Render every registered experiment; (text hash, empty ids)."""
    from repro.experiments.registry import experiment_ids, get_experiment
    digest = hashlib.sha256()
    empty = []
    with tracer.span("experiments.render"):
        for experiment_id in experiment_ids():
            experiment = get_experiment(experiment_id)
            with tracer.span("experiments.render." + experiment_id):
                output = (experiment(results)
                          if inspect.signature(experiment).parameters
                          else experiment())
            if not output.text.strip():
                empty.append(experiment_id)
            digest.update(("%s\n%s\n" % (experiment_id, output.text))
                          .encode())
    return digest.hexdigest(), empty


def run_body(req: dict, t0: float) -> dict:
    """One timed iteration: analysis plus render, then the checks."""
    facts: dict = {}
    tracer = _start(req, _IMPORTS[req["workload"]] + _RENDER_IMPORTS)
    results, report, ingest, inputs = _BODIES[req["workload"]](
        req, tracer, facts)
    facts["analysis_rss_mb"] = rss_mb()
    render_hash, empty = _render(results, tracer)
    wall_s = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak = rss_mb()

    from repro.runtime.digest import results_digest
    from repro.runtime.stages import STAGES
    out = {
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": peak,
        "digest": facts.get("digest") or results_digest(results),
        "degraded": bool(report is not None and report.degraded),
        "worker_errors": facts.get("worker_errors", {}),
        "render_hash": render_hash,
        "empty_renders": empty,
        "computed_stages": (list(report.computed_stages)
                            if report is not None else []),
        "uncacheable_stages": [spec.name for spec in STAGES
                               if not spec.cacheable],
        "ingest_totals": ({name: ingest.dataset(name).total
                           for name in DATASETS}
                          if ingest is not None else {}),
    }
    if tracer is not NULL_TRACER:
        tracer.uninstall()
        out["layers"] = _body_layers(tracer, report, ingest, inputs,
                                     facts, wall_s)
        out["trace_error"] = _write_trace(req, out)
    return out


def _body_layers(tracer: LayerTracer, report, ingest, inputs, facts: dict,
                 wall_s: float) -> dict:
    from repro import obs
    total = tracer.total
    snapshot = obs.metrics_snapshot()
    counters, gauges = snapshot["counters"], snapshot["gauges"]

    rows = ({name: ingest.dataset(name) for name in DATASETS}
            if ingest is not None else {})
    presented = sum(row.total for row in rows.values())
    accepted = sum(row.parsed + row.repaired for row in rows.values())
    load = total("sim.io.load_bundle")
    entries = inputs.connlog.entry_count()
    uptime = _uptime_records(inputs.uptime)

    def rate(records: float, layer: str) -> float:
        seen = total(layer)
        return _share(records * seen.calls, seen.seconds)

    def read_rate(dataset: str, layer: str) -> float:
        row = rows.get(dataset)
        return _share(row.total if row else 0, total(layer).seconds)

    layers = {
        "import.s": total("import").seconds,
        "inputs.rss_mb": facts["inputs_rss_mb"],
        "sim.io.load_bundle.records_per_s": _share(presented, load.seconds),
        "atlas.connlog.read.records_per_s":
            read_rate("connlog", "atlas.connlog.read"),
        "atlas.sosuptime.read.records_per_s":
            read_rate("uptime", "atlas.sosuptime.read"),
        "net.pfx2as.read.records_per_s":
            read_rate("pfx2as", "net.pfx2as.read"),
        "atlas.columnar.from_connlog.records_per_s":
            rate(entries, "atlas.columnar.from_connlog"),
        "atlas.columnar.from_uptime.records_per_s":
            rate(uptime, "atlas.columnar.from_uptime"),
        "ingest.gc_share": _share(load.gc_s, load.seconds),
        "ingest.parsed": sum(row.parsed for row in rows.values()),
        "ingest.repaired": sum(row.repaired for row in rows.values()),
        "ingest.quarantined": sum(row.quarantined for row in rows.values()),
        "ingest.accepted_ratio": _share(accepted, presented),
        "analysis.run.s": total("analysis.run").seconds,
        "analysis.rss_mb": facts["analysis_rss_mb"],
    }
    for stage, _ in PIPELINE_STAGES:
        seen = total("stage." + stage)
        layers["stage.%s.s" % stage] = seen.seconds
        layers["stage.%s.gc_share" % stage] = _share(seen.gc_s, seen.seconds)

    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    layers.update({
        "runtime.cache.hits": hits,
        "runtime.cache.misses": misses,
        "runtime.cache.hit_ratio": _share(hits, hits + misses),
        "runtime.cache.stores": counters.get("cache.stores", 0),
        "runtime.cache.bytes_stored": counters.get("cache.bytes_stored", 0),
        "runtime.cache.bytes_on_disk": gauges.get("cache.bytes_on_disk", 0),
    })

    per_worker = [value for name, value in counters.items()
                  if name.startswith("dist.leases.worker.")]
    mean_leases = sum(per_worker) / len(per_worker) if per_worker else 0.0
    layers.update({
        "dist.bytes_received": counters.get("dist.bytes.received", 0),
        "dist.bytes_sent": counters.get("dist.bytes.sent", 0),
        "dist.leases_granted": counters.get("dist.leases.granted", 0),
        "dist.lease_skew": _share(max(per_worker, default=0.0),
                                  mean_leases),
        "runtime.supervisor.retries":
            report.total_retries if report is not None else 0,
        "runtime.supervisor.reassignments":
            report.total_reassignments if report is not None else 0,
        "runtime.supervisor.quarantined_probes":
            len(report.quarantined_probes) if report is not None else 0,
    })

    render = total("experiments.render")
    layers["experiments.render.s"] = render.seconds
    for experiment_id in RENDER_DETAIL:
        layers["experiments.render.%s.s" % experiment_id] = total(
            "experiments.render." + experiment_id).seconds
    layers["render.gc_share"] = _share(render.gc_s, render.seconds)
    layers["gc.share"] = _share(tracer.gc_pause_s, wall_s)
    layers["gc.gen2_collections"] = tracer.gc_collections[2]
    return layers


def _write_trace(req: dict, out: dict) -> str:
    """Export the traced run with ``repro.obs.trace``; '' if it validates.

    The traced setup's spans and metrics were shipped in a pickle this
    harness wrote; they join the body's so one file covers both phases
    (span clocks share one timebase across processes).
    """
    from repro import obs
    from repro.errors import ReproError
    for name, value in out["layers"].items():
        obs.gauge("bench." + name, value)
    with open(req["absorb"], "rb") as stream:
        shipped = pickle.load(stream)
    obs.absorb_spans(shipped["spans"])
    obs.metrics().absorb(shipped["metrics"])
    obs.write_trace(req["trace_out"], meta={
        "benchmark": "e2e", "workload": req["workload"],
        "seed": req["seed"], "scale": req["scale"],
        "results_digest": out["digest"]})
    try:
        obs.load_trace(req["trace_out"])
    except ReproError as error:
        return str(error)
    return ""


def main(argv: list[str]) -> int:
    request = json.loads(Path(argv[1]).read_text())
    if request["phase"] == "setup":
        out = run_setup(request)
    else:
        out = run_body(request, float(argv[2]))
    Path(request["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
