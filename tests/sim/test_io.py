"""Tests for repro.sim.io (dataset bundle round-trips)."""

import json

import pytest

from repro.core.pipeline import pipeline_for_bundle, pipeline_for_world
from repro.errors import DatasetError, ParseError
from repro.experiments.scenarios import small_world
from repro.sim.io import (
    DatasetBundle,
    load_bundle,
    write_world,
)


@pytest.fixture(scope="module")
def world():
    return small_world(seed=17, days=25)


@pytest.fixture(scope="module")
def bundle_dir(world, tmp_path_factory):
    return write_world(world, tmp_path_factory.mktemp("bundle"))


class TestWrite:
    def test_expected_files_present(self, bundle_dir):
        for name in ("meta.json", "archive.tsv", "connlog.tsv",
                     "uptime.tsv", "kroot.json"):
            assert (bundle_dir / name).exists(), name
        assert list((bundle_dir / "pfx2as").glob("*.txt"))

    def test_meta_contents(self, bundle_dir, world):
        meta = json.loads((bundle_dir / "meta.json").read_text())
        assert meta["seed"] == world.config.seed
        assert "64496" in meta["as_names"]


class TestLoad:
    def test_roundtrip_preserves_datasets(self, bundle_dir, world):
        bundle = load_bundle(bundle_dir)
        assert isinstance(bundle, DatasetBundle)
        assert bundle.connlog.entry_count() == world.connlog.entry_count()
        assert bundle.archive.probe_ids() == world.archive.probe_ids()
        assert bundle.uptime.probe_ids() == world.uptime.probe_ids()
        assert bundle.kroot.probe_ids() == world.kroot.probe_ids()
        assert bundle.ip2as.months() == world.ip2as.months()

    def test_kroot_series_behaviour_preserved(self, bundle_dir, world):
        bundle = load_bundle(bundle_dir)
        for probe_id in world.kroot.probe_ids()[:5]:
            original = world.kroot.series(probe_id)
            loaded = bundle.kroot.series(probe_id)
            window = (original.observed_start,
                      original.observed_start + 4 * 3600)
            assert ([r.success for r in loaded.records(*window)]
                    == [r.success for r in original.records(*window)])

    def test_missing_bundle_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            load_bundle(tmp_path / "nonexistent")

    def test_bad_version_rejected(self, tmp_path, world):
        root = write_world(world, tmp_path / "b")
        meta = json.loads((root / "meta.json").read_text())
        meta["bundle_version"] = 99
        (root / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DatasetError):
            load_bundle(root)

    def test_corrupt_kroot_rejected(self, tmp_path, world):
        root = write_world(world, tmp_path / "c")
        (root / "kroot.json").write_text('[{"probe_id": 1}]')
        with pytest.raises(ParseError):
            load_bundle(root)


class TestStrictFailures:
    """DESIGN §6 failure-injection matrix under ReadPolicy.STRICT."""

    @pytest.fixture()
    def root(self, world, tmp_path):
        return write_world(world, tmp_path / "bundle")

    @pytest.mark.parametrize("name", ["archive.tsv", "connlog.tsv",
                                      "uptime.tsv", "kroot.json"])
    def test_missing_bundle_file_raises_dataset_error(self, root, name):
        (root / name).unlink()
        with pytest.raises(DatasetError, match="bundle file missing"):
            load_bundle(root)

    def test_malformed_meta_json_raises_dataset_error(self, root):
        (root / "meta.json").write_text("{not json")
        with pytest.raises(DatasetError, match="malformed JSON"):
            load_bundle(root)

    def test_malformed_archive_line_names_file_and_line(self, root):
        with open(root / "archive.tsv", "a") as stream:
            stream.write("x\tDE\tEU\t3\n")
        lines = (root / "archive.tsv").read_text().splitlines()
        with pytest.raises(ParseError,
                           match=r"archive\.tsv: line %d:" % len(lines)):
            load_bundle(root)

    def test_bad_archive_version_names_file_and_line(self, root):
        with open(root / "archive.tsv", "a") as stream:
            stream.write("999999\tDE\tEU\t42\n")
        with pytest.raises(ParseError, match=r"archive\.tsv: line \d+:"):
            load_bundle(root)

    def test_corrupted_connlog_line_names_file_and_line(self, root):
        with open(root / "connlog.tsv", "a") as stream:
            stream.write("!corrupt\n")
        with pytest.raises(ParseError, match=r"connlog\.tsv: line \d+:"):
            load_bundle(root)

    def test_wrapped_uptime_counter_rejected(self, root):
        with open(root / "uptime.tsv", "a") as stream:
            stream.write("999999\t1\t%.0f\n" % 2 ** 32)
        with pytest.raises(ParseError, match="32-bit wrap"):
            load_bundle(root)

    def test_malformed_kroot_state_names_source_and_index(self, root):
        states = json.loads((root / "kroot.json").read_text())
        del states[0]["cadence"]
        (root / "kroot.json").write_text(json.dumps(states))
        with pytest.raises(ParseError, match=r"kroot\.json: line 1:"):
            load_bundle(root)

    def test_bad_pfx2as_filename_rejected(self, root):
        (root / "pfx2as" / "notamonth.txt").write_text("10.0.0.0\t8\t1\n")
        with pytest.raises(DatasetError, match="unrecognized pfx2as"):
            load_bundle(root)

    def test_missing_pfx2as_month_surfaces_at_lookup(self, root):
        for path in (root / "pfx2as").glob("*.txt"):
            path.unlink()
        bundle = load_bundle(root)
        with pytest.raises(DatasetError, match="no pfx2as snapshot"):
            bundle.ip2as.snapshot_for(bundle.start)


class TestRepairLoad:
    def test_clean_bundle_repair_matches_strict(self, bundle_dir):
        from repro.util.ingest import IngestReport, ReadPolicy
        report = IngestReport()
        repaired = load_bundle(bundle_dir, policy=ReadPolicy.REPAIR,
                               report=report)
        strict = load_bundle(bundle_dir)
        assert report.clean
        assert repaired.connlog.entry_count() == strict.connlog.entry_count()
        assert repaired.archive.probe_ids() == strict.archive.probe_ids()
        assert repaired.ip2as.months() == strict.ip2as.months()
        assert not repaired.ip2as.fallback

    def test_missing_files_become_empty_datasets(self, world, tmp_path):
        from repro.util.ingest import IngestReport, ReadPolicy
        root = write_world(world, tmp_path / "b")
        (root / "connlog.tsv").unlink()
        report = IngestReport()
        bundle = load_bundle(root, policy=ReadPolicy.REPAIR, report=report)
        assert bundle.connlog.entry_count() == 0
        assert not report.clean
        assert any("connlog.tsv missing" in issue.message
                   for issue in report.issues)

    def test_meta_json_failures_stay_fatal_under_repair(
            self, world, tmp_path):
        from repro.util.ingest import ReadPolicy
        root = write_world(world, tmp_path / "b")
        (root / "meta.json").write_text("{not json")
        with pytest.raises(DatasetError):
            load_bundle(root, policy=ReadPolicy.REPAIR)


class TestLoadHeap:
    """The load runs with the collector paused (``collector_paused``):
    that frees nothing late only because a load makes no cycles."""

    @pytest.mark.parametrize("faulted", [False, True])
    def test_load_leaves_no_cyclic_garbage(self, world, tmp_path, faulted):
        import gc

        from repro.faults.plan import FaultPlan
        from repro.util.ingest import IngestReport, ReadPolicy
        root = write_world(world, tmp_path / "b")
        policy = ReadPolicy.STRICT
        if faulted:
            FaultPlan.uniform(world.config.seed, 0.02).apply(root)
            policy = ReadPolicy.REPAIR
        gc.collect()
        report = IngestReport()
        bundle = load_bundle(root, policy=policy, report=report)
        assert gc.collect() == 0
        assert bundle.connlog.entry_count()
        assert report.clean is not faulted

    def test_load_records_an_ingest_span_per_dataset(self, bundle_dir):
        from repro import obs
        before = len(obs.current_spans())
        load_bundle(bundle_dir)
        spans = [span for span in obs.current_spans()[before:]
                 if span.category == "ingest"]
        assert [span.name for span in spans] == [
            "ingest:archive", "ingest:connlog", "ingest:uptime",
            "ingest:kroot", "ingest:pfx2as"]
        peaks = [span.attr("maxrss_mb") for span in spans]
        assert peaks == sorted(peaks) and peaks[0] > 0


class TestAnalysisEquivalence:
    def test_pipeline_over_bundle_matches_direct(self, bundle_dir, world):
        direct = pipeline_for_world(world).run()
        loaded = pipeline_for_bundle(load_bundle(bundle_dir)).run()
        assert loaded.table2_rows() == direct.table2_rows()
        assert loaded.asn_by_probe == direct.asn_by_probe
        assert loaded.firmware_days == direct.firmware_days
        direct_stats = {pid: (s.network_outages, s.network_changes,
                              s.power_outages, s.power_changes)
                        for pid, s in direct.stats_by_probe.items()}
        loaded_stats = {pid: (s.network_outages, s.network_changes,
                              s.power_outages, s.power_changes)
                        for pid, s in loaded.stats_by_probe.items()}
        assert loaded_stats == direct_stats


class TestSimulateCli:
    def test_cli_writes_bundle(self, tmp_path, capsys):
        from repro.sim.cli import main
        assert main(["--out", str(tmp_path / "out"),
                     "--scale", "0.02", "--seed", "3"]) == 0
        assert "Wrote bundle" in capsys.readouterr().out
        bundle = load_bundle(tmp_path / "out")
        assert bundle.connlog.entry_count() > 0
