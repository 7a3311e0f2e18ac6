"""``repro-dist`` CLI tests: spec parsing plus a loopback smoke run."""

import pytest

from repro.dist.cli import main, parse_inject_net_spec
from repro.faults.network import NetworkFaultPlan

pytestmark = pytest.mark.dist


def test_parse_inject_net_spec_full():
    plan = parse_inject_net_spec(
        "seed=7,msg_drop=0.1,msg_garble=0.2,msg_delay=0.3,"
        "conn_disconnect=0.05,delay_s=0.01")
    assert plan == NetworkFaultPlan(seed=7, msg_drop=0.1, msg_garble=0.2,
                                    msg_delay=0.3, conn_disconnect=0.05,
                                    delay_s=0.01)


def test_parse_inject_net_spec_rejects_unknown_and_bare_fields():
    with pytest.raises(ValueError, match="unknown"):
        parse_inject_net_spec("seed=1,worker_crash=0.5")
    with pytest.raises(ValueError, match="key=value"):
        parse_inject_net_spec("persistent")


@pytest.mark.slow
def test_coordinator_loopback_smoke(bundle_dir, serial_digest, tmp_path,
                                    capsys):
    trace = tmp_path / "trace.json"
    code = main(["coordinator", "--data", str(bundle_dir),
                 "--loopback", "2", "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    digest_lines = [line for line in out.splitlines()
                    if line.startswith("digest")]
    assert len(digest_lines) == 1
    from repro.util import fingerprint as fp
    assert digest_lines[0].split()[-1] == fp.short(serial_digest)
    assert trace.exists()


@pytest.mark.slow
def test_coordinator_loopback_with_network_faults(bundle_dir,
                                                  serial_digest,
                                                  capsys):
    code = main(["coordinator", "--data", str(bundle_dir),
                 "--loopback", "2", "--lease-deadline", "5",
                 "--backoff-base", "0.01",
                 "--inject-net", "seed=13,msg_garble=0.05"])
    out = capsys.readouterr().out
    assert code == 0
    from repro.util import fingerprint as fp
    assert ("digest       %s" % fp.short(serial_digest)) in out
    assert "network faults (seed 13)" in out
    assert "UNRECONCILED" not in out


@pytest.mark.slow
def test_faulted_loopback_trace_reports_shard_failures(bundle_dir,
                                                       tmp_path, capsys):
    """The lease board's charges reach ``repro-obs report`` through the
    same ``runtime.*`` counters a local supervised run emits."""
    import json

    from repro.obs.cli import main as obs_main

    trace = tmp_path / "trace.json"
    code = main(["coordinator", "--data", str(bundle_dir),
                 "--loopback", "2", "--lease-deadline", "5",
                 "--backoff-base", "0.01", "--max-retries", "6",
                 "--inject-net", "seed=3,conn_disconnect=0.1",
                 "--trace", str(trace)])
    assert code == 0
    counters = json.loads(trace.read_text())["metrics"]["counters"]
    failures = {name: value for name, value in counters.items()
                if name.startswith("runtime.shard.failures.")}
    assert failures
    capsys.readouterr()
    assert obs_main(["report", str(trace)]) == 0
    report = capsys.readouterr().out
    assert "shard failures" in report
    for name, value in sorted(failures.items()):
        assert "%s %d" % (name.rsplit(".", 1)[1], value) in report


def test_inject_net_requires_loopback(capsys):
    code = main(["coordinator", "--inject-net", "seed=1,msg_drop=0.1"])
    assert code == 2
    assert "--loopback" in capsys.readouterr().err


def test_worker_rejects_malformed_connect(tmp_path, capsys):
    code = main(["worker", "--connect", "nonsense", "--data",
                 str(tmp_path)])
    assert code == 2
    assert "HOST:PORT" in capsys.readouterr().err
