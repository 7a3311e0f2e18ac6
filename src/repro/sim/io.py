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

import contextlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro import obs
from repro.atlas.archive import ProbeArchive
from repro.atlas.connlog import ConnectionLog
from repro.atlas.kroot import KRootDataset
from repro.atlas.sosuptime import UptimeDataset
from repro.atlas.types import ProbeMeta, ProbeVersion
from repro.errors import DatasetError, ParseError
from repro.net.pfx2as import IpToAsDataset, Pfx2AsSnapshot
from repro.sim.world import WorldData
from repro.util import timeutil
from repro.util import fingerprint as fp
from repro.util.heap import collector_paused
from repro.util.ingest import (
    IngestReport,
    ReadPolicy,
    format_line_error,
)
from repro.util.intervals import Interval, IntervalSet

BUNDLE_VERSION = 1

#: What ``json`` skips as whitespace between tokens.
_JSON_SPACE = re.compile(r"[ \t\n\r]*")
_NO_SPANS = np.zeros((0, 2), dtype=np.float64)

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

    (root / "kroot.json").write_text(
        json.dumps(world.kroot.columns().states()))

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


def _array_items(text: str) -> Iterator[object]:
    """The items of the JSON array ``text``, decoded one at a time.

    Raises ``ValueError`` (a :class:`json.JSONDecodeError`, or a bare
    ``ValueError`` where the text is not one JSON array) on the first
    thing ``json.loads`` might not accept as an array.
    """
    decoder = json.JSONDecoder()
    at = _JSON_SPACE.match(text).end()
    if not text.startswith("[", at):
        raise ValueError("not a JSON array")
    at = _JSON_SPACE.match(text, at + 1).end()
    if text.startswith("]", at):
        at += 1
    else:
        while True:
            item, at = decoder.raw_decode(text, at)
            yield item
            at = _JSON_SPACE.match(text, at).end()
            if text.startswith("]", at):
                at += 1
                break
            if not text.startswith(",", at):
                raise ValueError("no ',' or ']' after an array item")
            at = _JSON_SPACE.match(text, at + 1).end()
    if _JSON_SPACE.match(text, at).end() != len(text):
        raise ValueError("extra data after the array")


def _float_spans(intervals: IntervalSet) -> np.ndarray:
    """A set's members as ``(n, 2)`` float64 rows; ValueError unless
    every endpoint is a number float64 holds."""
    rows = []
    for member in intervals:
        for value in (member.start, member.end):
            if not isinstance(value, (int, float)) or value != value:
                raise ValueError(
                    "interval endpoint %r is not a float64 number" % (value,))
        try:
            rows.append((float(member.start), float(member.end)))
        except OverflowError:
            raise ValueError("interval endpoint %r is not a float64 number"
                             % (member.start,)) from None
    return np.array(rows, dtype=np.float64).reshape(-1, 2)


def _plain_state(state: object) -> tuple | None:
    """:func:`_state_fields` for a state written by :func:`write_world`.

    None when the state holds anything else: every value of the right
    JSON type, and every interval ``[start, end]`` with ``start <= end``.
    """
    if type(state) is not dict:
        return None
    try:
        fields = (int(state["probe_id"]), float(state["start"]),
                  float(state["end"]), float(state["cadence"]),
                  float(state["phase"]))
        power, network = state["power_off"], state["network_down"]
    except (KeyError, TypeError, ValueError, OverflowError):
        return None  # the exact path raises it, in order
    if type(power) is not list or type(network) is not list:
        return None
    try:
        spans = np.array(power + network)
    except (TypeError, ValueError, OverflowError):  # ragged, say
        return None
    if not len(spans):
        spans = _NO_SPANS
    elif spans.shape != (len(spans), 2) or spans.dtype.kind not in "biuf":
        return None
    elif spans.dtype.kind in "iu" and np.abs(spans).max() > 2 ** 53:
        return None
    spans = spans.astype(np.float64, copy=False)
    if not (spans[:, 1] >= spans[:, 0]).all():
        return None
    return fields + (spans[:len(power)], spans[len(power):])


def _state_fields(state: object, source: str, index: int) -> tuple:
    """One k-root series state as ``(probe id, start, end, cadence,
    phase, power spans, network spans)``, spans as ``(n, 2)`` float64.

    Raises what building an
    :class:`~repro.util.intervals.IntervalSet` per interval list and a
    :class:`~repro.atlas.kroot.KRootSeries` from the state raises, in
    the same order, as :class:`ParseError` naming the state; it also
    rejects endpoints that are not float64 numbers.
    """
    fields = _plain_state(state)
    if fields is not None:
        return fields
    try:
        probe_id = int(state["probe_id"])
        start, end = float(state["start"]), float(state["end"])
        power = IntervalSet(Interval(a, b) for a, b in state["power_off"])
        network = IntervalSet(Interval(a, b)
                              for a, b in state["network_down"])
        return (probe_id, start, end, float(state["cadence"]),
                float(state["phase"]), _float_spans(power),
                _float_spans(network))
    except (KeyError, TypeError, ValueError) as error:
        raise ParseError(format_line_error(
            source, index, "malformed k-root series state: %s" % error
        )) from None


def _load_kroot(path: Path | None, policy: ReadPolicy,
                report: IngestReport) -> KRootDataset:
    """Load the per-probe k-root series states.

    The array is decoded one state at a time, each straight into span
    arrays.  Where the walk meets anything but a plain JSON array,
    ``json.loads`` reads the text instead, so malformed JSON fails (or
    is noted) with exactly its message.  Nothing is accounted before
    the whole text has decoded.
    """
    kroot = KRootDataset()
    if path is None:
        return kroot
    source = str(path)
    text = path.read_text()
    try:
        decoded = [_outcome(state, source, index) for index, state
                   in enumerate(_array_items(text), start=1)]
    except ValueError:
        try:
            states = json.loads(text)
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
                               % source) from None
        decoded = [_outcome(state, source, index)
                   for index, state in enumerate(states, start=1)]
    del text
    for index, fields in enumerate(decoded, start=1):
        error = fields if isinstance(fields, Exception) else None
        if error is None:
            probe_id, start, end, cadence, phase, power, network = fields
            try:
                # stage rejects an empty window, a bad cadence and a
                # duplicate probe (DatasetError).
                kroot.stage(probe_id, start, end, power, network,
                            cadence, phase)
            except DatasetError as failure:
                # Without its traceback, holding it makes no cycle.
                error = failure.with_traceback(None)
        if error is not None:
            if (policy is ReadPolicy.STRICT
                    or not isinstance(error, (ParseError, DatasetError))):
                raise error
            report.quarantined("kroot", source, index, str(error))
            continue
        report.parsed("kroot")
    kroot.columns()
    return kroot


def _outcome(state: object, source: str, index: int) -> tuple | Exception:
    """:func:`_state_fields`, or the exception it raised (to be raised
    in file order, once the whole array has decoded).

    An ``OverflowError`` (a probe id of ``Infinity``, say) stays
    unwrapped: the load raises it under both policies, as it always did.
    """
    try:
        return _state_fields(state, source, index)
    except (ParseError, OverflowError) as error:
        # Without its traceback and context, holding it makes no cycle.
        error.__context__ = None
        return error.with_traceback(None)


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

    Runs with the cyclic collector paused: a load makes no cyclic
    garbage, so a collection could only re-walk what is already alive
    (a world built in the same process, say).  Records one
    ``ingest:<dataset>`` span (category ``ingest``) per dataset, each
    with the process's peak RSS when it ended (``maxrss_mb``).
    """
    with collector_paused():
        return _load_bundle(Path(directory), policy,
                            report if report is not None else IngestReport())


@contextlib.contextmanager
def _ingest_span(dataset: str) -> Iterator[None]:
    with obs.span("ingest:" + dataset, category="ingest") as handle:
        yield
        handle.set(maxrss_mb=obs.maxrss_mb())


def _load_bundle(root: Path, policy: ReadPolicy,
                 report: IngestReport) -> DatasetBundle:
    meta = _load_meta(root)

    with _ingest_span("archive"):
        archive_path = _require_file(root, "archive.tsv", policy, report)
        archive = (ProbeArchive() if archive_path is None
                   else _read_archive(archive_path, policy, report))

    with _ingest_span("connlog"):
        connlog_path = _require_file(root, "connlog.tsv", policy, report)
        if connlog_path is None:
            connlog = ConnectionLog()
        else:
            with open(connlog_path) as stream:
                connlog = ConnectionLog.read(stream, policy, report,
                                             source=str(connlog_path))

    with _ingest_span("uptime"):
        uptime_path = _require_file(root, "uptime.tsv", policy, report)
        if uptime_path is None:
            uptime = UptimeDataset()
        else:
            with open(uptime_path) as stream:
                uptime = UptimeDataset.read(stream, policy, report,
                                            source=str(uptime_path))

    with _ingest_span("kroot"):
        kroot_path = _require_file(root, "kroot.json", policy, report)
        kroot = _load_kroot(kroot_path, policy, report)

    with _ingest_span("pfx2as"):
        ip2as = _load_ip2as(root, meta, policy, report)

    return DatasetBundle(
        start=meta["start"], end=meta["end"], seed=meta["seed"],
        archive=archive, connlog=connlog, kroot=kroot, uptime=uptime,
        ip2as=ip2as,
        as_names=meta["as_names"], as_countries=meta["as_countries"],
        fingerprint=bundle_fingerprint(root),
    )
