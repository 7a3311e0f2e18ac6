"""End-to-end reproduction benchmark: the parent process.

Usage::

    python3 benchmarks/e2e/__main__.py                  # all workloads
    PYTHONPATH=src python -m benchmarks.e2e --workload rerun --repeat 5
    python3 benchmarks/e2e/__main__.py --workload fresh --seed 7 \\
        --seconds 15 --trace 0

For each workload the harness sets up its inputs (three times,
reporting the median), then runs untraced iterations for ``--seconds``
(or exactly ``--repeat`` of them), then one traced iteration.  Every
setup and every iteration is a fresh child process (``child.py``), one
at a time: repeats inside one interpreter move cyclic-GC pauses from
stage to stage, so in-process timings do not repeat.  ``--trace 0``
skips the traced phases and reports the end-to-end metrics only;
``--trace 1`` reports the per-layer metrics only.  Without ``--trace``
both are reported.

Every metric prints by name with its unit; the last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  Metric names, units, directions and bounds live in
``BENCHMARK.json`` at the repository root; ``--out`` writes the full
report, with every iteration's raw values and host facts.

The parent imports nothing from ``repro``: a child's ``ru_maxrss`` can
inherit the parent's peak at spawn, so the parent stays small.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CHILD = HERE / "child.py"
CATALOG = ROOT / "BENCHMARK.json"
#: Scratch space for bundles, caches and child logs; removed on exit.
WORK_ROOT = ROOT / ".e2e-work"

#: Scenario scale.  At 0.1 an iteration takes 1-2 s on a 2-cpu host, so
#: a 15-second run of one workload (three setups, 6-11 iterations) ends
#: in under half a minute; ``--scale 0.5`` is the paper-sized world.
DEFAULT_SCALE = 0.1
DEFAULT_SECONDS = 15
SETUPS = 3
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 150

#: Results digests at seed 2015, keyed by (workload, scale).  ``fresh``
#: analyzes the in-memory world; the bundle round trip rounds timestamps
#: to whole seconds, so its digest differs from the bundle workloads'.
#: ``rerun`` analyzes the fault-injected copy.
PINNED = {
    ("fresh", 0.1):
        "43ba11d3d52b2774acd58e752387003c9cad4a9c3811133d9f485b2b14dcc18d",
    ("reanalyze", 0.1):
        "11f29754d3a2623cd3f7068b909a6d9a274db9c8f262287ac8f9034b0ef4e8b1",
    ("rerun", 0.1):
        "b695481d96de4fe5e96ef4b7cf2b5fd716f147d7cfb91bbdc7d7976d78f5927f",
    ("scatter", 0.1):
        "11f29754d3a2623cd3f7068b909a6d9a274db9c8f262287ac8f9034b0ef4e8b1",
    ("fresh", 0.5):
        "edf60664a674c34fac3916f6fb66e4a65ebc47fcf3c53f8b47338aefc26d642a",
    ("reanalyze", 0.5):
        "e3de573a12a2dacfff392c19b4c38512fe0c137ee65b54b1e0b0599606d2ee0c",
    ("rerun", 0.5):
        "c819cdeea9370cd8d162399db5633897da22881f01a823f0b4e48188fc0411ec",
    ("scatter", 0.5):
        "e3de573a12a2dacfff392c19b4c38512fe0c137ee65b54b1e0b0599606d2ee0c",
}
PINNED_SEED = 2015


class BenchError(Exception):
    """A failure that leaves nothing to measure (setup, catalog)."""


@dataclass(frozen=True)
class Config:
    scale: float
    seed: int
    seconds: float
    repeat: int | None
    end_to_end: bool
    layers: bool
    trace_dir: Path | None = None


def load_catalog(path: Path = CATALOG) -> dict:
    """``BENCHMARK.json``: workloads and metric names, units, bounds."""
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise BenchError("cannot read %s: %s" % (path, error)) from None


# -- children ---------------------------------------------------------------

def _child_env(work: Path) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env["TMPDIR"] = str(work)
    # Same seed, same process: set and dict orders repeat run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(request: dict, work: Path, label: str) -> dict:
    """Run one child phase to completion: its result, or ``{"error"}``."""
    request_path = work / (label + ".request.json")
    result_path = work / (label + ".result.json")
    log_path = work / (label + ".log")
    request_path.write_text(json.dumps(dict(request,
                                            result=str(result_path))))
    with open(log_path, "w") as log:
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(CHILD), str(request_path), repr(started)],
            stdout=log, stderr=subprocess.STDOUT, env=_child_env(work),
            cwd=ROOT)
        try:
            code = process.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            return {"error": "%s timed out after %d s"
                             % (label, CHILD_TIMEOUT_S)}
    if code != 0 or not result_path.exists():
        tail = log_path.read_text().strip().splitlines()[-6:]
        return {"error": "%s exited %d: %s" % (label, code, " | ".join(tail))}
    return json.loads(result_path.read_text())


# -- one workload -----------------------------------------------------------

def _summary(values: list[float], best=None) -> dict:
    """A metric over repeats: the median, or ``best`` (min/max) of them.

    Iteration times on a shared host carry one-sided noise: a neighbour
    only ever slows an iteration down.  The fastest of N sheds it, and
    repeats far better than the median (see README.md, "Statistics").
    """
    value = statistics.median(values) if best is None else best(values)
    return {"value": value, "statistic": getattr(best, "__name__", "median"),
            "median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "values": values}


def judge(workload: str, result: dict, expected: str, setup: dict,
          render_hash: str | None) -> list[str]:
    """Everything wrong with one iteration's output (empty if correct)."""
    if "error" in result:
        return [result["error"]]
    problems = []
    if result["digest"] != expected:
        problems.append("results digest %s, expected %s"
                        % (result["digest"], expected))
    if result["degraded"]:
        problems.append("run degraded: shards quarantined")
    for worker, error in sorted(result["worker_errors"].items()):
        problems.append("worker %s died: %s" % (worker, error))
    if result["empty_renders"]:
        problems.append("empty render: %s"
                        % ", ".join(result["empty_renders"]))
    if render_hash is not None and result["render_hash"] != render_hash:
        problems.append("rendered text differs from the first iteration")
    if workload == "rerun":
        if result["ingest_totals"] != setup["expected_records"]:
            problems.append(
                "REPAIR reconciliation failed: ingested %r, fault report "
                "expects %r" % (result["ingest_totals"],
                                setup["expected_records"]))
        recomputed = (set(result["computed_stages"])
                      - set(result["uncacheable_stages"]))
        if recomputed:
            problems.append("primed cache missed: recomputed %s"
                            % ", ".join(sorted(recomputed)))
    if result.get("trace_error"):
        problems.append("trace invalid: %s" % result["trace_error"])
    return problems


def _more(cfg: Config, done: int, elapsed: float) -> bool:
    if cfg.repeat is not None:
        return done < cfg.repeat
    return done < MIN_ITERATIONS or elapsed < cfg.seconds


def run_setups(workload: str, cfg: Config, work: Path) -> list[dict]:
    """Set the workload up; the last setup's inputs are kept.

    :data:`SETUPS` untraced setups give ``setup_s``; a traced one follows
    when per-layer metrics are wanted.  The last setup also computes the
    reference digest.
    """
    plan = [False] * (SETUPS if cfg.end_to_end else 0)
    plan += [True] if cfg.layers else []
    setups = []
    for index, traced in enumerate(plan):
        last = index == len(plan) - 1
        root = work / ("setup-%d" % index)
        request = {"phase": "setup", "workload": workload,
                   "scale": cfg.scale, "seed": cfg.seed, "traced": traced,
                   "reference": last, "bundle": str(root / "bundle"),
                   "cache_dir": str(root / "cache"),
                   "ship": str(work / "setup-spans.pickle")}
        result = spawn(request, work, "setup-%d" % index)
        if "error" in result:
            raise BenchError("%s setup failed: %s"
                             % (workload, result["error"]))
        result.update(traced=traced, bundle=request["bundle"],
                      cache_dir=request["cache_dir"])
        setups.append(result)
        if not last:
            shutil.rmtree(root)
    return setups


def run_iteration(workload: str, cfg: Config, work: Path, setup: dict,
                  label: str, traced: bool = False) -> dict:
    """One body iteration in a fresh child process."""
    scratch = work / label
    # reanalyze stores into an empty cache every time; rerun loads the
    # cache its setup primed; the other two run without one.
    cache_dir = {"reanalyze": str(scratch / "cache"),
                 "rerun": setup["cache_dir"]}.get(workload)
    request = {"phase": "body", "workload": workload, "scale": cfg.scale,
               "seed": cfg.seed, "traced": traced,
               "bundle": setup["bundle"], "cache_dir": cache_dir,
               "absorb": str(work / "setup-spans.pickle"),
               "trace_out": str(work / "trace.json")}
    result = spawn(request, work, label)
    shutil.rmtree(scratch, ignore_errors=True)
    return result


def run_workload(workload: str, cfg: Config, work: Path) -> dict:
    """Set up, iterate, trace, check: the workload's full report."""
    work = work / workload
    work.mkdir()
    setups = run_setups(workload, cfg, work)
    kept = setups[-1]
    problems = []
    pinned = (PINNED.get((workload, cfg.scale))
              if cfg.seed == PINNED_SEED else None)
    if pinned and kept["reference_digest"] != pinned:
        problems.append("reference digest %s differs from the pinned %s"
                        % (kept["reference_digest"], pinned))
    if kept.get("primed_degraded"):
        problems.append("priming run degraded")
    expected = pinned or kept["reference_digest"]

    iterations = []
    render_hash = None
    started = time.monotonic()
    while _more(cfg, len(iterations), time.monotonic() - started):
        result = run_iteration(workload, cfg, work, kept,
                               "iter-%d" % len(iterations))
        result["problems"] = judge(workload, result, expected, kept,
                                   render_hash)
        if render_hash is None and "render_hash" in result:
            render_hash = result["render_hash"]
        iterations.append(result)
    traced = None
    if cfg.layers:
        traced = run_iteration(workload, cfg, work, kept, "traced",
                               traced=True)
        traced["problems"] = judge(workload, traced, expected, kept,
                                   render_hash)

    attempted = iterations + ([traced] if traced is not None else [])
    failed = sum(1 for result in attempted if result["problems"])
    measured = [result for result in iterations if "wall_s" in result]
    end_to_end = {}
    if measured:
        walls = [result["wall_s"] for result in measured]
        end_to_end["wall_s"] = _summary(walls, min)
        end_to_end["records_per_s"] = _summary(
            [kept["records"] / wall for wall in walls], max)
        end_to_end["peak_rss_mb"] = _summary(
            [result["rss_mb"] for result in measured])
    setup_values = [setup["setup_s"] for setup in setups
                    if not setup["traced"]]
    if setup_values:
        end_to_end["setup_s"] = _summary(setup_values)
    layers = {}
    if traced is not None and "layers" in traced and measured:
        layers.update(kept["layers"])
        layers.update(traced["layers"])
        layers["trace.overhead_s"] = (traced["wall_s"]
                                      - end_to_end["wall_s"]["value"])
        if cfg.trace_dir is not None:
            cfg.trace_dir.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(work / "trace.json",
                            cfg.trace_dir / ("%s.trace.json" % workload))
    return {
        "scale": cfg.scale, "seed": cfg.seed, "expected_digest": expected,
        "digest_pinned": bool(pinned),
        "records": kept["records"], "bundle_bytes": kept["bundle_bytes"],
        "setups": [{"setup_s": setup["setup_s"], "traced": setup["traced"]}
                   for setup in setups],
        "iterations": [_raw(result) for result in iterations],
        "traced": _raw(traced) if traced is not None else None,
        "attempted": len(attempted), "failed": failed,
        "error_rate": failed / len(attempted) if attempted else 1.0,
        "problems": problems,
        "end_to_end": end_to_end, "layers": layers,
    }


def _raw(result: dict) -> dict:
    keep = ("wall_s", "cpu_s", "rss_mb", "digest", "problems")
    return {key: result[key] for key in keep if key in result}


# -- reporting --------------------------------------------------------------

def host_facts() -> dict:
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg": list(os.getloadavg())}


def _wanted(catalog: dict, cfg: Config) -> list[dict]:
    wanted = list(catalog["end_to_end"]) if cfg.end_to_end else []
    return wanted + (list(catalog["per_layer"]) if cfg.layers else [])


def _value(report: dict, name: str) -> float | None:
    if name in report["end_to_end"]:
        return report["end_to_end"][name]["value"]
    return report["layers"].get(name)


def render_text(reports: dict, catalog: dict, cfg: Config) -> str:
    """Every metric by name, with its unit, per workload."""
    lines = []
    for workload, report in reports.items():
        lines.append("== %s  seed %d  scale %g  setups %d  iterations %d  "
                     "failed %d of %d  error_rate %.3f"
                     % (workload, report["seed"], report["scale"],
                        len(report["setups"]), len(report["iterations"]),
                        report["failed"], report["attempted"],
                        report["error_rate"]))
        for metric in _wanted(catalog, cfg):
            name, unit = metric["name"], metric["unit"]
            summary = report["end_to_end"].get(name)
            if summary is not None:
                lines.append("  %-44s %14.6g %-6s %s of %d [median %.6g  "
                             "min %.6g  max %.6g]"
                             % (name, summary["value"], unit,
                                summary["statistic"], summary["n"],
                                summary["median"], summary["min"],
                                summary["max"]))
            else:
                value = report["layers"].get(name)
                lines.append("  %-44s %14s %s" % (
                    name, "missing" if value is None else "%.6g" % value,
                    unit))
        for problem in report["problems"]:
            lines.append("  PROBLEM %s" % problem)
        for index, result in enumerate(report["iterations"]
                                       + [report["traced"] or {}]):
            for problem in result.get("problems", []):
                lines.append("  FAILED iteration %d: %s" % (index, problem))
    return "\n".join(lines)


def result_line(reports: dict, catalog: dict, cfg: Config) -> dict:
    """The last stdout line: correctness, counts, metrics with units.

    Several workloads in one invocation prefix each metric name with its
    workload (``rerun/wall_s``).
    """
    metrics = {}
    for workload, report in reports.items():
        for metric in _wanted(catalog, cfg):
            value = _value(report, metric["name"])
            if value is None:
                raise BenchError("%s: no value for %s (every iteration "
                                 "failed?)" % (workload, metric["name"]))
            key = (metric["name"] if len(reports) == 1
                   else "%s/%s" % (workload, metric["name"]))
            metrics[key] = {"value": value, "unit": metric["unit"]}
    attempted = sum(report["attempted"] for report in reports.values())
    failed = sum(report["failed"] for report in reports.values())
    correct = failed == 0 and not any(report["problems"]
                                      for report in reports.values())
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run(cfg: Config, workloads: list[str]) -> dict:
    """Run the workloads in a scratch directory; the full report."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    host = host_facts()
    try:
        reports = {name: run_workload(name, cfg, work) for name in workloads}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still holds its directory
    host["loadavg_before"] = host.pop("loadavg")
    host["loadavg_after"] = list(os.getloadavg())
    return {"benchmark": "e2e", "host": host,
            "config": {"scale": cfg.scale, "seed": cfg.seed,
                       "seconds": cfg.seconds, "repeat": cfg.repeat},
            "workloads": reports}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end reproduction benchmark (see "
                    "benchmarks/e2e/README.md)")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="untraced iterations run until this many "
                             "seconds have passed (at least %d)"
                             % MIN_ITERATIONS)
    parser.add_argument("--repeat", type=int, default=None,
                        help="run exactly N untraced iterations instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics only; default both")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--out", type=Path, default=None,
                        help="write the full JSON report here")
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="keep each workload's trace file here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("error: no repro sources at %s; run from a full checkout"
              % (ROOT / "src" / "repro"), file=sys.stderr)
        return 2
    try:
        catalog = load_catalog()
        known = [workload["name"] for workload in catalog["workloads"]]
        workloads = args.workload or known
        unknown = sorted(set(workloads) - set(known))
        if unknown:
            raise BenchError("unknown workload %s (known: %s)"
                             % (", ".join(unknown), ", ".join(known)))
        cfg = Config(scale=args.scale, seed=args.seed, seconds=args.seconds,
                     repeat=args.repeat,
                     end_to_end=args.trace in (None, 0),
                     layers=args.trace in (None, 1),
                     trace_dir=args.trace_dir)
        full = run(cfg, workloads)
        line = result_line(full["workloads"], catalog, cfg)
    except BenchError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    print(render_text(full["workloads"], catalog, cfg))
    if args.out is not None:
        args.out.write_text(json.dumps(full, indent=2) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1
