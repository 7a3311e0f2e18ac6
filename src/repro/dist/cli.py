"""``repro-dist``: run the analysis over sockets.

Usage::

    # one process, N worker threads over loopback sockets:
    repro-dist coordinator --data bundle/ --loopback 2

    # real distribution — coordinator in one terminal:
    repro-dist coordinator --data bundle/ --workers 2 --port 7757
    # ...and a worker per machine/terminal:
    repro-dist worker --connect HOST:7757 --data bundle/ --worker-id w0

The coordinator prints the same report, ``fingerprint`` and ``digest``
lines as ``repro-run`` — two runs printing the same digest agree on
every table and figure, which is exactly the bit-identity contract the
CI distributed job checks by diffing those lines against a serial run.
Workers must load the *same* bundle: the HELLO handshake rejects a
fingerprint or code-version mismatch before any shard is granted.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import obs
from repro.dist.coordinator import (
    DistConfig,
    dist_runner_for_bundle,
    dist_runner_for_world,
)
from repro.dist.loopback import run_loopback
from repro.errors import ReproError
from repro.runtime.client import LeaseClient
from repro.runtime.digest import results_digest
from repro.runtime.workers import WorkerContext
from repro.util import fingerprint as fp
from repro.util import timeutil


def parse_inject_net_spec(spec: str):
    """Parse an ``--inject-net`` spec into a ``NetworkFaultPlan``.

    Comma-separated ``key=value`` pairs::

        --inject-net seed=7,msg_drop=0.1
        --inject-net seed=1,msg_garble=0.2,conn_disconnect=0.05
    """
    from repro.faults.network import NetworkFaultPlan
    values: dict[str, object] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError("bad --inject-net field %r (expected "
                             "key=value)" % (part,))
        key, _, raw = part.partition("=")
        key = key.strip()
        if key == "seed":
            values[key] = int(raw)
        elif key in ("msg_drop", "msg_garble", "msg_delay",
                     "conn_disconnect", "delay_s"):
            values[key] = float(raw)
        else:
            raise ValueError("unknown --inject-net field %r" % (key,))
    return NetworkFaultPlan(**values)


def _add_bundle_arguments(parser: argparse.ArgumentParser,
                          simulate_default: bool) -> None:
    parser.add_argument("--data", metavar="DIR",
                        default=None, required=not simulate_default,
                        help="dataset bundle written by repro-simulate"
                             + (" (default: simulate inline)"
                                if simulate_default else ""))
    if simulate_default:
        parser.add_argument("--scale", type=float, default=0.1,
                            help="inline scenario scale "
                                 "(default %(default)s)")
        parser.add_argument("--seed", type=int, default=2015,
                            help="inline scenario seed "
                                 "(default %(default)s)")
    parser.add_argument("--read-policy", choices=["strict", "repair"],
                        default="strict",
                        help="bundle ingestion contract "
                             "(default %(default)s)")


def _load_bundle(args: argparse.Namespace):
    from repro.sim.io import load_bundle
    from repro.util.ingest import IngestReport, ReadPolicy
    policy = ReadPolicy(args.read_policy)
    report = IngestReport()
    bundle = load_bundle(args.data, policy=policy, report=report)
    obs.record_ingest(report)
    if policy is ReadPolicy.REPAIR and not report.clean:
        print(report.render(), file=sys.stderr)
    return bundle


def _coordinator_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "coordinator",
        help="serve shard leases to workers and merge their results")
    _add_bundle_arguments(parser, simulate_default=True)
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to listen on "
                             "(default %(default)s)")
    parser.add_argument("--port", type=int, default=0,
                        help="port to listen on (default: ephemeral)")
    parser.add_argument("--port-file", metavar="FILE", default=None,
                        help="write the bound port to FILE (scripting "
                             "aid for ephemeral ports)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="expected worker count — a shard-count "
                             "hint, output is identical for every N "
                             "(default %(default)s)")
    parser.add_argument("--loopback", type=int, default=None,
                        metavar="N",
                        help="serve N in-process worker threads over "
                             "loopback sockets instead of waiting for "
                             "external workers")
    parser.add_argument("--shards", type=int, default=None, metavar="M",
                        help="shard count override (default workers*4)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="shared artifact cache; also the "
                             "checkpoint store workers short-circuit "
                             "from")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache-dir and recompute "
                             "everything")
    parser.add_argument("--resume", action="store_true",
                        help="reload completed shard checkpoints before "
                             "serving each stage")
    parser.add_argument("--max-retries", type=int,
                        default=timeutil.MAX_SHARD_RETRIES, metavar="K",
                        help="failed attempts per shard before its "
                             "probes are quarantined "
                             "(default %(default)s)")
    parser.add_argument("--lease-deadline", type=float,
                        default=timeutil.LEASE_DEADLINE_S, metavar="SEC",
                        help="per-lease execution budget before the "
                             "shard is reassigned (default %(default)s)")
    parser.add_argument("--backoff-base", type=float,
                        default=timeutil.BACKOFF_BASE_S, metavar="SEC",
                        help="first retry delay; attempt n waits "
                             "base*2**(n-1) (default %(default)s)")
    parser.add_argument("--drain-grace", type=float,
                        default=timeutil.DIST_DRAIN_GRACE_S,
                        metavar="SEC",
                        help="after the run, keep answering worker "
                             "pulls with DRAIN(done) until every "
                             "expected worker has left, for at most "
                             "SEC (default %(default)s)")
    parser.add_argument("--inject-net", metavar="SPEC", default=None,
                        help="network-fault plan for --loopback "
                             "workers, e.g. seed=7,msg_drop=0.1 (kinds: "
                             "msg_drop, msg_garble, msg_delay, "
                             "conn_disconnect)")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome trace_event JSON of the "
                             "run (inspect with repro-obs report FILE)")


def _worker_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "worker", help="pull and compute shard leases from a "
                       "coordinator")
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address")
    _add_bundle_arguments(parser, simulate_default=False)
    parser.add_argument("--worker-id", default=None,
                        help="stable worker identity (default: "
                             "worker-<pid>)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="shared artifact cache to short-circuit "
                             "leases from (and checkpoint into)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache-dir")
    parser.add_argument("--inject-net", metavar="SPEC", default=None,
                        help="network-fault plan for this worker's "
                             "channel, e.g. seed=7,msg_drop=0.1")
    parser.add_argument("--socket-timeout", type=float,
                        default=timeutil.DIST_SOCKET_TIMEOUT_S,
                        metavar="SEC",
                        help="socket receive timeout "
                             "(default %(default)s)")
    parser.add_argument("--reconnect-delay", type=float,
                        default=timeutil.DIST_RECONNECT_DELAY_S,
                        metavar="SEC",
                        help="pause before redialing a lost coordinator "
                             "(default %(default)s)")
    parser.add_argument("--max-reconnects", type=int, default=100,
                        metavar="K",
                        help="give up after K reconnects "
                             "(default %(default)s)")


def _dist_config(args: argparse.Namespace) -> DistConfig:
    cache_dir = None if args.no_cache else args.cache_dir
    workers = args.loopback if args.loopback else args.workers
    return DistConfig(
        host=args.host, port=args.port, workers=max(1, workers),
        shards=args.shards, cache_dir=cache_dir, resume=args.resume,
        max_retries=args.max_retries,
        lease_deadline_s=args.lease_deadline,
        backoff_base_s=args.backoff_base)


def _run_coordinator(args: argparse.Namespace) -> int:
    plan = None
    if args.inject_net:
        if not args.loopback:
            print("--inject-net on the coordinator requires --loopback "
                  "(real workers carry their own plans)",
                  file=sys.stderr)
            return 2
        plan = parse_inject_net_spec(args.inject_net)
    config = _dist_config(args)
    server = config.server()
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as stream:
            stream.write("%d\n" % server.port)
    print("listening    %s:%d" % (server.host, server.port),
          flush=True)
    try:
        if args.data is not None:
            bundle = _load_bundle(args)
            runner = dist_runner_for_bundle(bundle, config,
                                            server=server)
            context_source = bundle
        else:
            from repro.sim.scenario import paper_scenario
            from repro.sim.world import build_world
            world = build_world(paper_scenario(scale=args.scale,
                                               seed=args.seed))
            runner = dist_runner_for_world(world, config, server=server)
            context_source = world
        if args.loopback:
            context = WorkerContext(
                connlog=context_source.connlog,
                archive=context_source.archive,
                ip2as=context_source.ip2as,
                kroot=context_source.kroot,
                uptime=context_source.uptime,
                min_connected=runner._min_connected)
            plans = None
            if plan is not None:
                # One plan shared by every loopback worker: draws key on
                # the per-worker channel id, so each channel still sees
                # its own deterministic fault sequence.
                plans = {"w%d" % i: plan for i in range(args.loopback)}
            run = run_loopback(runner, context,
                               worker_count=args.loopback,
                               fault_plans=plans)
            results, digest = run.results, run.digest
            summaries = run.summaries
            for worker_id, error in sorted(run.worker_errors.items()):
                print("worker %s died: %s" % (worker_id, error),
                      file=sys.stderr)
        else:
            results = runner.run()
            digest = results_digest(results)
            summaries = None
            # Keep answering pulls with DRAIN(done) so workers exit
            # cleanly instead of dying on a vanished coordinator, until
            # every expected worker came and went.
            server.finish(args.drain_grace, until=lambda: (
                not server.connections
                and len(server.worker_summary()) >= config.workers))
    except ReproError as error:
        print(error, file=sys.stderr)
        return 1
    finally:
        server.close()

    print(runner.report.render())
    for worker_id, info in sorted(server.worker_summary().items()):
        print("worker       %s: %d leases, %d cache hits, "
              "%d B out, %d B in"
              % (worker_id, info["leases"], info["cache_hits"],
                 info["bytes_sent"], info["bytes_received"]))
    print("fingerprint  %s" % (fp.short(runner.fingerprint) or "-"))
    print("digest       %s" % fp.short(digest))
    if plan is not None and summaries is not None:
        from repro.faults.network import reconcile_network
        print(reconcile_network(
            plan, [summary.injected for summary in summaries.values()],
            runner.report.resilience).render())
    if args.trace is not None:
        obs.write_trace(args.trace, meta={
            "jobs": runner.config.jobs,
            "start_method": None,
            "fingerprint": runner.fingerprint,
            "results_digest": digest,
        })
        print("trace        %s" % args.trace)
    return 0


def _run_worker(args: argparse.Namespace) -> int:
    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        print("--connect expects HOST:PORT, got %r" % (args.connect,),
              file=sys.stderr)
        return 2
    plan = parse_inject_net_spec(args.inject_net) \
        if args.inject_net else None
    cache = None
    if args.cache_dir and not args.no_cache:
        from repro.runtime.cache import ArtifactCache
        cache = ArtifactCache(args.cache_dir)
    try:
        bundle = _load_bundle(args)

        def install(min_connected: float) -> None:
            from repro.runtime import workers as worker_runtime
            worker_runtime.init_worker(WorkerContext(
                connlog=bundle.connlog, archive=bundle.archive,
                ip2as=bundle.ip2as, kroot=bundle.kroot,
                uptime=bundle.uptime, min_connected=min_connected))

        worker = LeaseClient(
            host, int(port_text),
            args.worker_id or "worker-%d" % os.getpid(),
            fingerprint=bundle.fingerprint, cache=cache,
            fault_plan=plan, install_context=install,
            socket_timeout_s=args.socket_timeout,
            reconnect_delay_s=args.reconnect_delay,
            max_reconnects=args.max_reconnects)
        summary = worker.run()
    except ReproError as error:
        print(error, file=sys.stderr)
        return 1
    print("worker       %s: %d leases, %d cache hits, %d errors, "
          "%d reconnects"
          % (summary.worker_id, summary.leases_served,
             summary.cache_hits, summary.errors_reported,
             summary.reconnects))
    if summary.injected:
        print("injected     %s"
              % ", ".join("%s=%d" % (kind, count) for kind, count
                          in sorted(summary.injected.items())))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Coordinate or serve a socket-distributed analysis run."""
    parser = argparse.ArgumentParser(
        description="Distribute the analysis stage graph over sockets: "
                    "a coordinator leases shards to pull-based workers "
                    "and merges their sealed envelopes into the same "
                    "digest a serial run prints")
    subparsers = parser.add_subparsers(dest="command", required=True)
    _coordinator_parser(subparsers)
    _worker_parser(subparsers)
    args = parser.parse_args(argv)
    if args.command == "coordinator":
        return _run_coordinator(args)
    return _run_worker(args)


if __name__ == "__main__":
    raise SystemExit(main())
