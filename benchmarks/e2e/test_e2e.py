"""Self-test of the end-to-end benchmark harness, at a tiny scale.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

One full harness run (every workload, untraced and traced) is shared by
the module; the failure-path tests run their own small pieces.
"""

from __future__ import annotations

import gc
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from tracer import LayerTracer

TINY = "0.03"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench(*args: str, cwd: Path = harness.ROOT, env=None):
    """Run the benchmark command as the catalog names it, from ``cwd``."""
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/__main__.py", *args], cwd=cwd,
        env=env, capture_output=True, text=True, timeout=600)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def catalog():
    return harness.load_catalog()


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    done = _bench("--scale", TINY, "--repeat", "2",
                  "--out", str(out / "report.json"),
                  "--trace-dir", str(out / "traces"))
    assert done.returncode == 0, done.stdout + done.stderr
    return {"line": _last_json(done.stdout), "stdout": done.stdout,
            "report": json.loads((out / "report.json").read_text()),
            "traces": out / "traces"}


def _configure(repeat: int = 1) -> harness.Config:
    return harness.Config(scale=float(TINY), seed=harness.PINNED_SEED,
                          seconds=0, repeat=repeat, end_to_end=True,
                          layers=False)


class TestCatalog:
    def test_catalog_shape(self, catalog):
        assert set(catalog) == {"command", "paths", "run_seconds",
                                "workloads", "end_to_end", "per_layer"}
        assert catalog["paths"] == ["benchmarks/e2e"]
        assert 1 <= catalog["run_seconds"] <= 60
        assert 2 <= len(catalog["workloads"]) <= 4
        assert len(catalog["end_to_end"]) <= 16
        assert len(catalog["per_layer"]) <= 128
        names = [entry["name"] for section in ("workloads", "end_to_end",
                                               "per_layer")
                 for entry in catalog[section]]
        assert len(names) == len(set(names))
        assert all(NAME.match(name) for name in names)
        for workload in catalog["workloads"]:
            assert set(workload) == {"name", "why"}
            assert "\n" not in workload["why"]
            assert len(workload["why"]) <= 200
        for metric in catalog["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        for metric in catalog["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
        for metric in catalog["end_to_end"] + catalog["per_layer"]:
            assert UNIT.match(metric["unit"])
            assert metric["better"] in ("lower", "higher")

    def test_setup_metric_has_the_largest_bound(self, catalog):
        bounds = {metric["name"]: metric for metric in catalog["end_to_end"]}
        assert bounds["setup_s"]["unit"] == "s"
        assert bounds["setup_s"]["better"] == "lower"
        assert bounds["setup_s"]["bound"] == max(
            metric["bound"] for metric in catalog["end_to_end"])

    def test_command_stays_inside_paths(self, catalog):
        program, *arguments = catalog["command"]
        assert program == "python3"
        for argument in arguments:
            assert argument.startswith("benchmarks/e2e/")
            assert (harness.ROOT / argument).is_file()


class TestFullRun:
    def test_every_workload_and_metric_is_emitted_with_its_unit(
            self, catalog, full_run):
        metrics = full_run["line"]["metrics"]
        for workload in catalog["workloads"]:
            for metric in catalog["end_to_end"] + catalog["per_layer"]:
                key = "%s/%s" % (workload["name"], metric["name"])
                assert key in metrics, key
                assert metrics[key]["unit"] == metric["unit"], key
                assert isinstance(metrics[key]["value"], (int, float)), key
                assert re.search(r"^\s+%s\s" % re.escape(metric["name"]),
                                 full_run["stdout"], re.MULTILINE)

    def test_outputs_check_out(self, full_run):
        line = full_run["line"]
        assert line["correct"] is True
        assert line["failed"] == 0
        # Four workloads, two untraced and one traced iteration each.
        assert line["attempted"] == 12
        digests = {name: report["expected_digest"] for name, report
                   in full_run["report"]["workloads"].items()}
        # The two clean-bundle paths compute the same results.
        assert digests["reanalyze"] == digests["scatter"]
        assert digests["fresh"] != digests["reanalyze"]

    def test_end_to_end_metrics_are_positive(self, catalog, full_run):
        metrics = full_run["line"]["metrics"]
        for workload in catalog["workloads"]:
            for metric in catalog["end_to_end"]:
                assert metrics["%s/%s" % (workload["name"],
                                          metric["name"])]["value"] > 0

    def test_rerun_really_repairs_and_hits_the_cache(self, full_run):
        metrics = full_run["line"]["metrics"]
        assert metrics["rerun/ingest.quarantined"]["value"] > 0
        assert metrics["rerun/ingest.accepted_ratio"]["value"] < 1
        assert metrics["rerun/runtime.cache.hit_ratio"]["value"] == 1
        assert metrics["reanalyze/runtime.cache.stores"]["value"] > 0
        assert metrics["scatter/dist.bytes_received"]["value"] > 0

    def test_raw_values_and_host_facts_are_recorded(self, full_run):
        report = full_run["report"]
        host = report["host"]
        assert host["cpu_count"] >= 1
        assert host["python"].count(".") == 2
        assert len(host["loadavg_before"]) == len(host["loadavg_after"]) == 3
        for workload in report["workloads"].values():
            walls = [iteration["wall_s"]
                     for iteration in workload["iterations"]]
            assert len(walls) == 2
            assert workload["end_to_end"]["wall_s"]["values"] == walls
            assert len(workload["end_to_end"]["setup_s"]["values"]) == 3
            assert workload["error_rate"] == 0

    def test_trace_validates_and_renders(self, catalog, full_run, capsys):
        from repro.obs.cli import main as obs_main
        for workload in catalog["workloads"]:
            path = full_run["traces"] / ("%s.trace.json" % workload["name"])
            assert obs_main(["validate", str(path)]) == 0
            assert "valid" in capsys.readouterr().out
            assert obs_main(["report", str(path)]) == 0
            report = capsys.readouterr().out
            assert "results digest" in report
            payload = json.loads(path.read_text())
            names = {event["name"] for event in payload["traceEvents"]}
            # Setup and body spans share one file.
            assert {"sim.io.write_world", "experiments.render"} <= names
            assert len({event["pid"]
                        for event in payload["traceEvents"]}) >= 2


class TestFailurePaths:
    def test_wrong_pinned_digest_fails_every_iteration(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setitem(harness.PINNED, ("reanalyze", float(TINY)),
                            "0" * 64)
        report = harness.run_workload("reanalyze", _configure(repeat=2),
                                      tmp_path)
        assert report["failed"] == report["attempted"] == 2
        assert report["error_rate"] == 1.0
        assert report["problems"][0].startswith("reference digest")
        for iteration in report["iterations"]:
            assert iteration["problems"][0].startswith("results digest")

    def test_tampered_fault_report_fails_reconciliation(self, tmp_path):
        cfg = _configure()
        work = tmp_path / "rerun"
        work.mkdir()
        setup = harness.run_setups("rerun", cfg, work)[-1]
        result = harness.run_iteration("rerun", cfg, work, setup, "iter-0")
        expected = setup["reference_digest"]
        assert harness.judge("rerun", result, expected, setup, None) == []
        tampered = dict(setup, expected_records=dict(
            setup["expected_records"],
            connlog=setup["expected_records"]["connlog"] + 1))
        problems = harness.judge("rerun", result, expected, tampered, None)
        assert len(problems) == 1
        assert problems[0].startswith("REPAIR reconciliation failed")

    def test_exits_nonzero_without_the_sources(self, tmp_path):
        bare = tmp_path / "bare"
        shutil.copytree(harness.HERE, bare / "benchmarks" / "e2e",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copyfile(harness.CATALOG, bare / "BENCHMARK.json")
        done = _bench("--workload", "fresh", cwd=bare, env={})
        assert done.returncode not in (0, None)
        assert not done.stdout.strip()


class TestTracer:
    def test_spans_gc_and_restore(self):
        from repro import obs

        class Layer:
            def work(self):
                gc.collect()
                return 7

            @classmethod
            def build(cls):
                return cls()

        original = Layer.__dict__["work"]
        tracer = LayerTracer(obs)
        tracer.wrap(Layer, "work", "layer.work")
        tracer.wrap(Layer, "build", "layer.build", hot=True)
        tracer.install()
        try:
            with tracer.span("outer"):
                assert Layer.build().work() == 7
        finally:
            tracer.uninstall()
        work = tracer.total("layer.work")
        assert work.calls == 1 and work.gc_s > 0
        assert tracer.total("outer").gc_s >= work.gc_s
        assert tracer.total("layer.build").calls == 1
        assert tracer.gc_collections[2] >= 1
        assert Layer.__dict__["work"] is original
        assert isinstance(Layer.__dict__["build"], classmethod)
        spans = {span.name: span for span in obs.current_spans()
                 if span.category == "bench"}
        assert spans["layer.work"].attr("parent") == "outer"
        assert "layer.build" not in spans
