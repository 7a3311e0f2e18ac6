"""``repro-obs``: report rendering sections and CLI exit codes."""

from __future__ import annotations

from repro.obs.cli import main
from repro.obs.report import render_report
from repro.obs.spans import Span
from repro.obs.trace import trace_payload, write_trace


def _payload() -> dict:
    spans = [
        Span("filter", "stage", 0.0, 2.0, 1,
             (("cached", False), ("sharded", True))),
        Span("stats", "stage", 2.0, 2.5, 1,
             (("cached", True), ("sharded", False))),
        Span("shard:filter", "shard", 0.0, 1.0, 2,
             (("shard", 0), ("stage", "filter"))),
        Span("shard:filter", "shard", 0.0, 3.0, 3,
             (("shard", 1), ("stage", "filter"))),
    ]
    snapshot = {
        "counters": {
            "cache.hits": 6, "cache.misses": 2, "cache.stores": 2,
            "cache.evictions": 1, "cache.heals": 1,
            "cache.bytes_stored": 512,
            "ingest.parsed.connlog": 90, "ingest.repaired.connlog": 5,
            "ingest.quarantined.connlog": 5,
            "faults.injected.connlog-garbled": 3,
        },
        "gauges": {"runtime.jobs.effective": 4, "runtime.cpu_count": 1,
                   "runtime.oversubscribed": 1,
                   "cache.bytes_on_disk": 512},
    }
    return trace_payload(spans, snapshot,
                         meta={"start_method": "fork",
                               "results_digest": "d" * 16})


def test_report_renders_every_section():
    text = render_report(_payload())
    assert "== run" in text
    assert "jobs 4 of 1 cpu" in text and "OVERSUBSCRIBED" in text
    assert "start method fork" in text
    assert "== stages" in text and "sharded" in text and "cached" in text
    assert "== shard skew" in text and "1.50x" in text
    assert "== cache" in text and "75.0% hit rate" in text
    assert "corrupt-entry heals 1" in text
    assert "== ingest" in text and "connlog" in text and "5.00%" in text
    assert "== faults injected" in text and "connlog-garbled" in text


def test_report_simulate_section_from_sim_spans():
    spans = [
        Span("sim:plants", "sim", 0.0, 0.5, 1),
        Span("sim:probes", "sim", 0.5, 2.5, 1, (("probes", 500),)),
        Span("sim:seal", "sim", 2.5, 3.0, 1),
        Span("filter", "stage", 3.0, 4.0, 1, (("cached", False),)),
    ]
    text = render_report(trace_payload(spans, {"counters": {},
                                               "gauges": {}}))
    assert "== simulate" in text
    assert "500 probes, 250 probes/s" in text
    assert "66.7%" in text                  # sim:probes: 2 s of 3 s
    assert "== simulate" not in render_report(_payload())


def test_report_simulate_section_shows_both_walk_sides():
    spans = [
        Span("sim:walk", "sim", 0.5, 2.0, 1,
             (("probes", 300), ("side", "parent"))),
        Span("sim:walk", "sim", 0.5, 2.4, 2,
             (("probes", 200), ("side", "worker"))),
        Span("sim:probes", "sim", 0.5, 2.5, 1,
             (("probes", 500), ("processes", 2))),
    ]
    text = render_report(trace_payload(spans, {"counters": {},
                                               "gauges": {}}))
    assert "500 probes, 250 probes/s, 2 processes" in text
    assert "100.0%" in text                 # walks nest in sim:probes
    lines = text.splitlines()
    assert any(line.split()[:3] == ["parent", "1.500", "300"]
               for line in lines)
    assert any(line.split()[:3] == ["worker", "1.900", "200"]
               for line in lines)


def test_report_ingest_section_shows_each_load_and_its_peak():
    spans = [
        Span("ingest:connlog", "ingest", 0.0, 0.25, 1,
             (("maxrss_mb", 55.5),)),
        Span("ingest:kroot", "ingest", 0.25, 0.3, 1,
             (("maxrss_mb", 58.0),)),
    ]
    text = render_report(trace_payload(spans, {"counters": {},
                                               "gauges": {}}))
    assert "== ingest" in text
    lines = text.splitlines()
    assert any(line.split() == ["ingest:connlog", "0.250", "55.5"]
               for line in lines)
    assert any(line.split() == ["ingest:kroot", "0.050", "58.0"]
               for line in lines)


def test_report_of_empty_payload_degrades_gracefully():
    text = render_report(trace_payload([], {"counters": {}, "gauges": {}}))
    assert "(no stage spans recorded)" in text


def test_cli_report_and_validate(tmp_path, capsys):
    path = tmp_path / "trace.json"
    path.write_text(__import__("json").dumps(_payload()))
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "valid" in out and "4 events" in out

    assert main(["report", str(path)]) == 0
    assert "== stages" in capsys.readouterr().out


def test_cli_rejects_missing_and_invalid_files(tmp_path, capsys):
    assert main(["report", str(tmp_path / "absent.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "wrong"}')
    assert main(["validate", str(bad)]) == 1
    assert "unknown trace schema" in capsys.readouterr().err


def test_cli_consumes_writer_output(tmp_path, capsys):
    path = tmp_path / "written.json"
    write_trace(path, spans=[Span("run", "run", 0.0, 1.0, 1)],
                snapshot={"counters": {}, "gauges": {}})
    assert main(["report", str(path)]) == 0
