"""repro-run command-line driver."""

from __future__ import annotations

import pytest

from repro.runtime.cli import main

pytestmark = pytest.mark.runtime


def test_list_stages(capsys):
    assert main(["--list-stages"]) == 0
    out = capsys.readouterr().out
    assert "filter" in out and "gap_events_by_probe" in out


def test_run_bundle_cold_then_warm(bundle_dir, tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["--data", str(bundle_dir), "--jobs", "2",
                 "--cache-dir", cache_dir]) == 0
    cold = capsys.readouterr().out
    assert "sharded" in cold and "digest" in cold
    # One miss per cacheable stage artifact; the store count also
    # includes the supervisor's per-shard checkpoints and manifests, so
    # don't pin it.
    assert "6 miss" in cold and "stored" in cold

    assert main(["--data", str(bundle_dir), "--cache-dir", cache_dir]) == 0
    warm = capsys.readouterr().out
    assert "cached" in warm and "6 hit" in warm

    digest = [line for line in cold.splitlines() if "digest" in line]
    assert digest == [line for line in warm.splitlines()
                      if "digest" in line]


def test_run_rejects_missing_bundle(tmp_path, capsys):
    assert main(["--data", str(tmp_path / "nope")]) == 1
    assert "meta.json" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--legacy-kernels", "--no-supervise"])
def test_removed_execution_modes_rejected(flag, capsys):
    # One kernel path and one fan-out path: the flags that selected the
    # record kernels and the unsupervised pool are gone.
    with pytest.raises(SystemExit) as exit_info:
        main(["--list-stages", flag])
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err


def test_clear_cache_requires_cache_dir(capsys):
    assert main(["--clear-cache"]) == 2
    assert "--cache-dir" in capsys.readouterr().err


def test_clear_cache_empties_store(bundle_dir, tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["--data", str(bundle_dir), "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(["--clear-cache", "--cache-dir", cache_dir]) == 0
    assert "removed 6" in capsys.readouterr().out


def test_parse_inject_spec_builds_a_plan():
    from repro.runtime.cli import parse_inject_spec

    plan = parse_inject_spec(
        "seed=7,worker_crash=0.25,envelope_corrupt=0.5,slow_delay_s=0.01")
    assert plan.seed == 7
    assert plan.worker_crash == 0.25
    assert plan.envelope_corrupt == 0.5
    assert plan.slow_delay_s == 0.01
    assert not plan.persistent

    assert parse_inject_spec("seed=1,worker_hang=1,persistent").persistent
    assert parse_inject_spec("persistent=false,worker_slow=0.5").seed == 0


@pytest.mark.parametrize("spec", [
    "seed=1,bogus_kind=0.5",
    "seed=1,worker_crash",
    "worker_crash=2.0",  # plan validation: rate out of [0, 1]
])
def test_parse_inject_spec_rejects_bad_specs(spec):
    from repro.runtime.cli import parse_inject_spec

    with pytest.raises(ValueError):
        parse_inject_spec(spec)


def test_run_with_injected_faults_recovers_and_reconciles(
        bundle_dir, capsys):
    assert main(["--data", str(bundle_dir), "--jobs", "2",
                 "--inject", "seed=3,worker_crash=0.3,envelope_corrupt=0.3",
                 "--max-retries", "6"]) == 0
    out = capsys.readouterr().out
    assert "process faults (seed 3)" in out
    assert "0 abandoned" in out
    assert "DEGRADED" not in out


def test_run_resume_flag_round_trips(bundle_dir, tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["--data", str(bundle_dir), "--jobs", "2",
                 "--cache-dir", cache_dir]) == 0
    first = capsys.readouterr().out
    assert main(["--data", str(bundle_dir), "--jobs", "2",
                 "--cache-dir", cache_dir, "--resume"]) == 0
    resumed = capsys.readouterr().out
    # Nothing was interrupted, so the stage artifacts win before any
    # checkpoint is consulted — the digests must agree either way.
    digest = [line for line in first.splitlines() if "digest" in line]
    assert digest == [line for line in resumed.splitlines()
                      if "digest" in line]
