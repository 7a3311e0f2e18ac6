"""On-disk dataset bundles: write a simulated world, load it for analysis.

The paper worked from files scraped once and analyzed many times; this
module gives the reproduction the same workflow.  ``repro-simulate`` writes
a directory bundle; the analysis CLI (and any downstream tool) loads it
without re-running the simulator.

Bundle layout::

    <dir>/meta.json        window, seed, AS names/countries
    <dir>/archive.tsv      probe metadata
    <dir>/connlog.tsv      connection log (ConnectionLog text format)
    <dir>/uptime.tsv       SOS-uptime records (UptimeDataset text format)
    <dir>/kroot.json       per-probe ping-series state (sparse intervals)
    <dir>/pfx2as/<yyyy>-<mm>.txt   monthly IP-to-AS snapshots
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.atlas.archive import ProbeArchive
from repro.atlas.connlog import ConnectionLog
from repro.atlas.kroot import KRootDataset, KRootSeries
from repro.atlas.sosuptime import UptimeDataset
from repro.atlas.types import ProbeMeta, ProbeVersion
from repro.errors import DatasetError, ParseError
from repro.net.pfx2as import IpToAsDataset, Pfx2AsSnapshot
from repro.sim.world import WorldData
from repro.util import timeutil
from repro.util import fingerprint as fp
from repro.util.ingest import (
    IngestReport,
    ReadPolicy,
    format_line_error,
)
from repro.util.intervals import Interval, IntervalSet

BUNDLE_VERSION = 1

#: Bundle files a load consults besides ``meta.json`` (which is always
#: required: without the window and seed nothing can be interpreted).
BUNDLE_FILES = ("archive.tsv", "connlog.tsv", "uptime.tsv", "kroot.json")

#: Informational copy of the content fingerprint, written next to the data
#: files.  Loads recompute the fingerprint from the bytes on disk rather
#: than trusting this file, so it is excluded from the hash itself.
FINGERPRINT_FILE = "fingerprint.txt"


@dataclass
class DatasetBundle:
    """Datasets loaded from disk, ready for AnalysisPipeline."""

    start: float
    end: float
    seed: int
    archive: ProbeArchive
    connlog: ConnectionLog
    kroot: KRootDataset
    uptime: UptimeDataset
    ip2as: IpToAsDataset
    as_names: dict[int, str]
    as_countries: dict[int, str]
    #: Content fingerprint of the on-disk files this bundle was loaded
    #: from (:func:`bundle_fingerprint`); empty for synthetic bundles.
    fingerprint: str = ""


def bundle_fingerprint(directory: str | Path) -> str:
    """Content fingerprint of a bundle directory.

    Covers ``meta.json``, every dataset file and every pfx2as snapshot, in
    a canonical order, so any byte-level edit — one repaired connlog line,
    a swapped snapshot month — yields a different fingerprint.  The
    runtime artifact cache keys stage outputs on this value.
    """
    root = Path(directory)
    paths = [root / "meta.json"]
    paths.extend(root / name for name in BUNDLE_FILES)
    paths.extend(sorted((root / "pfx2as").glob("*.txt")))
    return fp.hash_files(path for path in paths if path.exists())


def _series_state(series: KRootSeries) -> dict:
    return {
        "probe_id": series.probe_id,
        "start": series.observed_start,
        "end": series.observed_end,
        "cadence": series.cadence,
        "phase": series.phase,
        "power_off": [[iv.start, iv.end] for iv in series.power_off],
        "network_down": [[iv.start, iv.end] for iv in series.network_down],
    }


def _series_from_state(state: dict, source: str = "<kroot>",
                       index: int = 0) -> KRootSeries:
    try:
        return KRootSeries(
            int(state["probe_id"]), float(state["start"]),
            float(state["end"]),
            power_off=IntervalSet(Interval(a, b)
                                  for a, b in state["power_off"]),
            network_down=IntervalSet(Interval(a, b)
                                     for a, b in state["network_down"]),
            cadence=float(state["cadence"]),
            phase=float(state["phase"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ParseError(format_line_error(
            source, index, "malformed k-root series state: %s" % error
        )) from None


def write_world(world: WorldData, directory: str | Path) -> Path:
    """Write a world's datasets as a bundle; returns the directory.

    Records one ``sim:write`` span (category ``sim``).
    """
    with obs.span("sim:write", category="sim"):
        return _write_bundle(world, Path(directory))


def _write_bundle(world: WorldData, root: Path) -> Path:
    root.mkdir(parents=True, exist_ok=True)

    as_names: dict[int, str] = {}
    as_countries: dict[int, str] = {}
    for profile in world.config.profiles:
        as_names[profile.spec.asn] = profile.spec.name
        as_countries[profile.spec.asn] = profile.spec.country
    meta = {
        "bundle_version": BUNDLE_VERSION,
        "start": world.config.start,
        "end": world.config.end,
        "seed": world.config.seed,
        "as_names": {str(asn): name for asn, name in as_names.items()},
        "as_countries": {str(asn): country
                         for asn, country in as_countries.items()},
    }
    (root / "meta.json").write_text(json.dumps(meta, indent=2))

    with open(root / "archive.tsv", "w") as stream:
        for probe in world.archive:
            stream.write("%d\t%s\t%s\t%d\t%s\n" % (
                probe.probe_id, probe.country, probe.continent,
                probe.version.value, ",".join(probe.tags)))

    with open(root / "connlog.tsv", "w") as stream:
        world.connlog.write(stream)
    with open(root / "uptime.tsv", "w") as stream:
        world.uptime.write(stream)

    states = [_series_state(world.kroot.series(pid))
              for pid in world.kroot.probe_ids()]
    (root / "kroot.json").write_text(json.dumps(states))

    pfx_dir = root / "pfx2as"
    pfx_dir.mkdir(exist_ok=True)
    for year, month in world.ip2as.months():
        snapshot = world.ip2as.snapshot_for(timeutil.epoch(year, month, 1))
        with open(pfx_dir / ("%04d-%02d.txt" % (year, month)), "w") as stream:
            snapshot.write(stream)
    (root / FINGERPRINT_FILE).write_text(bundle_fingerprint(root) + "\n")
    return root


def _parse_archive_line(text: str) -> ProbeMeta:
    """Parse one archive record; raises :class:`ParseError` sans location."""
    fields = text.split("\t")
    if len(fields) not in (4, 5):
        raise ParseError("expected 4-5 fields, got %d" % len(fields))
    tags = tuple(t for t in (fields[4].split(",")
                             if len(fields) == 5 else []) if t)
    try:
        probe_id = int(fields[0])
        version = ProbeVersion(int(fields[3]))
    except ValueError:
        raise ParseError("malformed probe id or version") from None
    return ProbeMeta(probe_id, fields[1], fields[2], version, tags)


def _read_archive(path: Path,
                  policy: ReadPolicy = ReadPolicy.STRICT,
                  report: IngestReport | None = None) -> ProbeArchive:
    source = str(path)
    report = report if report is not None else IngestReport()
    archive = ProbeArchive()
    with open(path) as stream:
        for line_number, line in enumerate(stream, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                # ProbeArchive.add rejects duplicates and unknown
                # continents (DatasetError).
                archive.add(_parse_archive_line(text))
            except (ParseError, DatasetError) as error:
                if policy is ReadPolicy.STRICT:
                    raise type(error)(
                        format_line_error(source, line_number, error)
                    ) from None
                report.quarantined("archive", source, line_number,
                                   str(error))
                continue
            report.parsed("archive")
    return archive


def _require_file(root: Path, name: str, policy: ReadPolicy,
                  report: IngestReport) -> Path | None:
    """Resolve a bundle file; STRICT raises, REPAIR notes and returns None."""
    path = root / name
    if path.exists():
        return path
    if policy is ReadPolicy.STRICT:
        raise DatasetError("bundle file missing: %s" % path)
    report.note("bundle", str(path),
                "%s missing; continuing with an empty dataset" % name)
    return None


def _load_meta(root: Path) -> dict:
    """Read and validate ``meta.json``; always fatal when broken."""
    meta_path = root / "meta.json"
    if not meta_path.exists():
        raise DatasetError("no bundle at %s (missing meta.json)" % root)
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as error:
        raise DatasetError("%s: malformed JSON: %s"
                           % (meta_path, error)) from None
    if meta.get("bundle_version") != BUNDLE_VERSION:
        raise DatasetError(
            "unsupported bundle version %r" % meta.get("bundle_version"))
    try:
        meta["start"] = float(meta["start"])
        meta["end"] = float(meta["end"])
        meta["seed"] = int(meta["seed"])
        meta["as_names"] = {int(k): v
                            for k, v in meta["as_names"].items()}
        meta["as_countries"] = {int(k): v
                                for k, v in meta["as_countries"].items()}
    except (KeyError, TypeError, ValueError) as error:
        raise DatasetError("%s: malformed metadata: %s"
                           % (meta_path, error)) from None
    return meta


def _load_kroot(path: Path | None, policy: ReadPolicy,
                report: IngestReport) -> KRootDataset:
    """Load the per-probe k-root series states."""
    kroot = KRootDataset()
    if path is None:
        return kroot
    source = str(path)
    try:
        states = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        if policy is ReadPolicy.STRICT:
            raise DatasetError("%s: malformed JSON: %s"
                               % (source, error)) from None
        report.note("kroot", source,
                    "malformed JSON (%s); continuing with an empty "
                    "dataset" % error)
        return kroot
    if not isinstance(states, list):
        raise DatasetError("%s: expected a JSON array of series states"
                           % source)
    for index, state in enumerate(states, start=1):
        try:
            # KRootDataset.add_series rejects duplicates (DatasetError).
            kroot.add_series(_series_from_state(state, source, index))
        except (ParseError, DatasetError) as error:
            if policy is ReadPolicy.STRICT:
                raise
            report.quarantined("kroot", source, index, str(error))
            continue
        report.parsed("kroot")
    return kroot


def _load_ip2as(root: Path, meta: dict, policy: ReadPolicy,
                report: IngestReport) -> IpToAsDataset:
    """Load monthly pfx2as snapshots, detecting gaps under REPAIR."""
    ip2as = IpToAsDataset()
    for path in sorted((root / "pfx2as").glob("*.txt")):
        year_text, _, month_text = path.stem.partition("-")
        try:
            year, month = int(year_text), int(month_text)
        except ValueError:
            if policy is ReadPolicy.STRICT:
                raise DatasetError(
                    "unrecognized pfx2as filename %s (expected "
                    "YYYY-MM.txt)" % path) from None
            report.note("pfx2as", str(path),
                        "unrecognized filename; expected YYYY-MM.txt, "
                        "skipping")
            continue
        with open(path) as stream:
            snapshot = Pfx2AsSnapshot.read(stream, policy, report,
                                           source=str(path))
        try:
            ip2as.add_snapshot(year, month, snapshot)
        except DatasetError as error:
            if policy is ReadPolicy.STRICT:
                raise DatasetError("%s: %s" % (path, error)) from None
            report.note("pfx2as", str(path), "%s; skipping file" % error)
    if policy is ReadPolicy.REPAIR:
        present = set(ip2as.months())
        for year, month, _ in timeutil.iter_month_starts(meta["start"],
                                                         meta["end"]):
            key = (year, month)
            if key not in present:
                report.note(
                    "pfx2as", str(root / "pfx2as"),
                    "no snapshot for %04d-%02d; lookups fall back to the "
                    "nearest earlier month" % key)
                ip2as.fallback = True
    return ip2as


def load_bundle(directory: str | Path,
                policy: ReadPolicy = ReadPolicy.STRICT,
                report: IngestReport | None = None) -> DatasetBundle:
    """Load a dataset bundle written by :func:`write_world`.

    ``policy`` selects the ingestion contract: ``STRICT`` (default)
    raises a :class:`~repro.errors.ReproError` subtype on the first
    missing file or malformed record; ``REPAIR`` loads what it can,
    quarantining bad records and degrading missing datasets to empty
    ones, with every decision accounted in ``report`` (pass an
    :class:`~repro.util.ingest.IngestReport` to inspect it).
    ``meta.json`` problems are fatal under both policies — without the
    observation window and seed the bundle cannot be interpreted.
    """
    root = Path(directory)
    report = report if report is not None else IngestReport()
    meta = _load_meta(root)

    archive_path = _require_file(root, "archive.tsv", policy, report)
    archive = (ProbeArchive() if archive_path is None
               else _read_archive(archive_path, policy, report))

    connlog_path = _require_file(root, "connlog.tsv", policy, report)
    if connlog_path is None:
        connlog = ConnectionLog()
    else:
        with open(connlog_path) as stream:
            connlog = ConnectionLog.read(stream, policy, report,
                                         source=str(connlog_path))

    uptime_path = _require_file(root, "uptime.tsv", policy, report)
    if uptime_path is None:
        uptime = UptimeDataset()
    else:
        with open(uptime_path) as stream:
            uptime = UptimeDataset.read(stream, policy, report,
                                        source=str(uptime_path))

    kroot_path = _require_file(root, "kroot.json", policy, report)
    kroot = _load_kroot(kroot_path, policy, report)

    ip2as = _load_ip2as(root, meta, policy, report)

    return DatasetBundle(
        start=meta["start"], end=meta["end"], seed=meta["seed"],
        archive=archive, connlog=connlog, kroot=kroot, uptime=uptime,
        ip2as=ip2as,
        as_names=meta["as_names"], as_countries=meta["as_countries"],
        fingerprint=bundle_fingerprint(root),
    )


